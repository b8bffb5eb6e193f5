package regex

import (
	"context"
	"slices"

	"regexrw/internal/alphabet"
	"regexrw/internal/automata"
	"regexrw/internal/budget"
	"regexrw/internal/obs"
)

// MaxRenderBytes bounds FromDFAContext: no expression it builds, the
// intermediate GNFA labels included, may render (String) to more than
// this many bytes. Beyond it the conversion stops with a
// *budget.ExceededError for stage "regex.from_dfa" and resource
// budget.Bytes. The Theorem 8 family (workload.DetBlowupFamily) prints
// 0.35 MB at n=5 (about 0.9 MB with longer view names) and grows by
// more than an order of magnitude per step, so n=6 is refused here, in
// milliseconds, instead of exhausting memory. It is a fixed constant,
// not a knob: an expression past it is no use to a client anyway.
const MaxRenderBytes = 8 << 20

// FromNFA converts an automaton into a regular expression denoting the
// same language, by state elimination on the generalized NFA (GNFA).
// States are eliminated cheapest-first (in-degree × out-degree) and
// intermediate expressions are simplified, which keeps the output close
// to the compact forms the paper quotes for its examples.
func FromNFA(n *automata.NFA) *Node {
	out, _ := fromNFA(&converter{}, n) // no meter and no limit: cannot fail
	return out
}

// FromDFA converts a DFA into an equivalent regular expression. It is
// FromDFAContext without a context: unmetered and unbounded, for
// library callers with trusted inputs.
func FromDFA(d *automata.DFA) *Node {
	return FromNFA(d.NFA())
}

// FromDFAContext is FromDFA under the context's deadline and budget:
// it ticks a "regex.from_dfa" meter once per expression node built (no
// states are charged) and stops with a *budget.ExceededError once any
// expression would render to more than MaxRenderBytes.
//
// The conversion eliminates the trimmed DFA's states cheapest
// (fan-in × fan-out) first, ties to the lowest state, and simplifies
// each new label with Simplify's identities. Every node it builds is
// already simplified, so Simplify of the result prints the same, and
// the output is byte-identical to the quadratic elimination it
// replaced, which re-simplified whole subtrees at every step
// (internal/regex/regexref; the differential tests hold it to that).
func FromDFAContext(ctx context.Context, d *automata.DFA) (*Node, error) {
	ctx, span := obs.StartSpan(ctx, "regex.from_dfa")
	defer span.End()
	c := &converter{meter: budget.Enter(ctx, "regex.from_dfa"), limit: MaxRenderBytes}
	out, err := fromNFA(c, d.NFA())
	if err == nil {
		span.SetAttr("bytes", c.rendered)
	}
	return out, err
}

// fromNFA builds the GNFA of n's trim part and eliminates it. A DFA's
// edges carry distinct symbols, so its labels start out simplified,
// which the byte-identity with the reference relies on.
func fromNFA(c *converter, n *automata.NFA) (*Node, error) {
	n = n.Trim()
	if n.IsEmpty() {
		return Empty(), nil
	}
	k := n.NumStates()
	g := newGNFA(k + 2)
	al := n.Alphabet()
	type arc struct {
		to  int
		sym *snode
	}
	var arcs []arc
	for s := 0; s < k; s++ {
		// One union per target over all its symbols, in symbol order:
		// adding them one by one would re-flatten the label each time.
		arcs = arcs[:0]
		for _, x := range n.OutSymbolsSorted(automata.State(s)) {
			for _, t := range n.Successors(automata.State(s), x) {
				arcs = append(arcs, arc{int(t), c.sym(al, x)})
			}
		}
		slices.SortStableFunc(arcs, func(a, b arc) int { return a.to - b.to })
		for i := 0; i < len(arcs); {
			j := i + 1
			for j < len(arcs) && arcs[j].to == arcs[i].to {
				j++
			}
			syms := make([]*snode, 0, j-i)
			for _, a := range arcs[i:j] {
				syms = append(syms, a.sym)
			}
			c.addEdge(g, s, arcs[i].to, c.union(syms...))
			i = j
		}
		for _, t := range n.EpsSuccessors(automata.State(s)) {
			c.addEdge(g, s, int(t), c.eps())
		}
	}
	c.addEdge(g, k, int(n.Start()), c.eps())
	for _, f := range n.AcceptingStates() {
		c.addEdge(g, int(f), k+1, c.eps())
	}
	return c.run(g, k)
}

// ---- The generalized NFA ----

// gnfa holds the labels of a generalized NFA with per-state adjacency,
// so that choosing a victim and rerouting around it touch only the
// edges at that state. States 0..k-1 are the automaton's, k is the
// fresh start and k+1 the fresh end.
type gnfa struct {
	out [][]gedge // out[p]: the edges p→q, sorted by q
	in  [][]int   // in[q]: every p with an edge p→q, unordered
}

type gedge struct {
	to    int
	label *snode
}

func newGNFA(total int) *gnfa {
	return &gnfa{out: make([][]gedge, total), in: make([][]int, total)}
}

// find returns the index of the edge p→q in out[p], or where it would
// be inserted and false.
func (g *gnfa) find(p, q int) (int, bool) {
	row := g.out[p]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].to < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(row) && row[lo].to == q
}

// degrees returns the number of edges into and out of s, self-loops
// excluded: the victim-choice cost is their product.
func (g *gnfa) degrees(s int) (in, out int) {
	in, out = len(g.in[s]), len(g.out[s])
	if _, self := g.find(s, s); self {
		in--
		out--
	}
	return in, out
}

// addEdge adds label to the edge p→q, as a union with the label already
// there.
func (c *converter) addEdge(g *gnfa, p, q int, label *snode) {
	i, ok := g.find(p, q)
	if ok {
		g.out[p][i].label = c.union(g.out[p][i].label, label)
		return
	}
	row := append(g.out[p], gedge{})
	copy(row[i+1:], row[i:])
	row[i] = gedge{to: q, label: label}
	g.out[p] = row
	g.in[q] = append(g.in[q], p)
}

// run eliminates the k interior states and returns the label left on
// start → end.
func (c *converter) run(g *gnfa, k int) (*Node, error) {
	dead := make([]bool, k)
	for remaining := k; remaining > 0; remaining-- {
		victim, bestCost := -1, -1
		for s := 0; s < k; s++ {
			if dead[s] {
				continue
			}
			in, out := g.degrees(s)
			if cost := in * out; victim == -1 || cost < bestCost {
				victim, bestCost = s, cost
			}
		}
		if err := c.eliminate(g, victim); err != nil {
			return nil, err
		}
		dead[victim] = true
	}
	if c.err != nil {
		return nil, c.err
	}
	i, ok := g.find(k, k+1)
	if !ok {
		return Empty(), nil
	}
	label := g.out[k][i].label
	c.rendered = label.size
	return c.node(label), nil
}

// eliminate removes state v, rerouting every path p → v → q as
// p --(pv · vv* · vq)--> q in increasing (p, q) order.
func (c *converter) eliminate(g *gnfa, v int) error {
	outs := g.out[v]
	var loop *snode
	if i, ok := g.find(v, v); ok {
		loop = c.star(outs[i].label)
		outs = append(outs[:i], outs[i+1:]...) // v's own row is not read again
	}
	var ins []int
	for _, p := range g.in[v] {
		if p != v {
			ins = append(ins, p)
		}
	}
	slices.Sort(ins)
	for _, p := range ins {
		i, _ := g.find(p, v)
		pv := g.out[p][i].label
		for _, e := range outs {
			c.addEdge(g, p, e.to, c.concat(pv, loop, e.label))
			if c.err != nil {
				return c.err
			}
		}
	}
	for _, p := range ins {
		i, _ := g.find(p, v)
		g.out[p] = append(g.out[p][:i], g.out[p][i+1:]...)
	}
	for _, e := range outs {
		in := g.in[e.to]
		for j, p := range in {
			if p == v {
				in[j] = in[len(in)-1]
				g.in[e.to] = in[:len(in)-1]
				break
			}
		}
	}
	g.out[v], g.in[v] = nil, nil
	return nil
}

// Equivalent reports whether two expressions denote the same language,
// decided on automata over the union of their symbol sets.
func Equivalent(a, b *Node) bool {
	al := alphabet.New()
	return automata.Equivalent(a.ToNFA(al), b.ToNFA(al))
}

// Contained reports whether L(a) ⊆ L(b).
func Contained(a, b *Node) bool {
	al := alphabet.New()
	ok, _ := automata.ContainedIn(a.ToNFA(al), b.ToNFA(al))
	return ok
}
