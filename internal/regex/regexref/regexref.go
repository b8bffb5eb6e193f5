// Package regexref is the quadratic state elimination and the
// recursive simplifier that regex.FromDFA and regex.Simplify replaced,
// kept verbatim as differential references and as the in-run baseline
// of cmd/bench's RegexFromDFA family. Nothing on a serving path
// imports it.
//
// Each elimination step re-runs Simplify over whole already-simplified
// subtrees and scans every GNFA edge once per live state to pick its
// victim, so on the Theorem 8 family it allocates tens of megabytes
// for a 32-state DFA. regex.FromDFA must print the same bytes: the
// differential tests in internal/regex compare the two on every
// workload family and on fuzzed DFAs.
package regexref

import (
	"sort"

	"regexrw/internal/automata"
	"regexrw/internal/regex"
)

// fromNFA converts an automaton into a regular expression denoting the
// same language, by state elimination on the generalized NFA (GNFA).
// States are eliminated cheapest-first (in-degree × out-degree) and
// intermediate expressions are simplified.
func fromNFA(n *automata.NFA) *regex.Node {
	n = n.Trim()
	if n.IsEmpty() {
		return regex.Empty()
	}

	// GNFA edge labels, keyed by (from, to) over states 0..k+1 where
	// k = n.NumStates(), state k is the fresh start and k+1 the fresh end.
	k := n.NumStates()
	start, end := k, k+1
	total := k + 2
	edges := make(map[[2]int]*regex.Node)
	addEdge := func(from, to int, label *regex.Node) {
		key := [2]int{from, to}
		if prev, ok := edges[key]; ok {
			edges[key] = regex.Union(prev, label)
		} else {
			edges[key] = label
		}
	}

	al := n.Alphabet()
	for s := 0; s < k; s++ {
		for _, x := range n.OutSymbolsSorted(automata.State(s)) {
			targets := append([]automata.State(nil), n.Successors(automata.State(s), x)...)
			sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
			for _, t := range targets {
				addEdge(s, int(t), regex.Sym(al.Name(x)))
			}
		}
		for _, t := range n.EpsSuccessors(automata.State(s)) {
			addEdge(s, int(t), regex.Epsilon())
		}
	}
	addEdge(start, int(n.Start()), regex.Epsilon())
	for _, f := range n.AcceptingStates() {
		addEdge(int(f), end, regex.Epsilon())
	}

	alive := make([]bool, total)
	for i := range alive {
		alive[i] = true
	}

	// Eliminate interior states, cheapest (fan-in × fan-out) first.
	for remaining := k; remaining > 0; remaining-- {
		victim, bestCost := -1, -1
		for s := 0; s < k; s++ {
			if !alive[s] {
				continue
			}
			in, out := 0, 0
			for key := range edges {
				if key[1] == s && key[0] != s {
					in++
				}
				if key[0] == s && key[1] != s {
					out++
				}
			}
			cost := in * out
			if victim == -1 || cost < bestCost {
				victim, bestCost = s, cost
			}
		}
		eliminate(edges, victim)
		alive[victim] = false
	}

	if label, ok := edges[[2]int{start, end}]; ok {
		return Simplify(label)
	}
	return regex.Empty()
}

// eliminate removes state v from the GNFA, rerouting every path
// p → v → q as p --(pv · vv* · vq)--> q.
func eliminate(edges map[[2]int]*regex.Node, v int) {
	var loop *regex.Node
	if l, ok := edges[[2]int{v, v}]; ok {
		loop = Simplify(regex.Star(l))
		delete(edges, [2]int{v, v})
	}
	var ins, outs [][2]int
	for key := range edges {
		if key[1] == v {
			ins = append(ins, key)
		}
		if key[0] == v {
			outs = append(outs, key)
		}
	}
	// Deterministic rerouting order keeps the printed rewriting stable
	// across runs (map iteration order is randomized).
	sort.Slice(ins, func(i, j int) bool { return ins[i][0] < ins[j][0] })
	sort.Slice(outs, func(i, j int) bool { return outs[i][1] < outs[j][1] })
	for _, in := range ins {
		for _, out := range outs {
			label := edges[in]
			if loop != nil {
				label = regex.Concat(label, loop)
			}
			label = Simplify(regex.Concat(label, edges[out]))
			key := [2]int{in[0], out[1]}
			if prev, ok := edges[key]; ok {
				edges[key] = Simplify(regex.Union(prev, label))
			} else {
				edges[key] = label
			}
		}
	}
	for _, in := range ins {
		delete(edges, in)
	}
	for _, out := range outs {
		delete(edges, out)
	}
}

// FromDFA converts a DFA into an equivalent regular expression.
func FromDFA(d *automata.DFA) *regex.Node {
	return fromNFA(d.NFA())
}

// Regex is the pre-optimization Rewriting.Regex and Possibility.Regex:
// minimize, trim, convert, and simplify the result once more.
func Regex(auto *automata.DFA) *regex.Node {
	return Simplify(FromDFA(auto.Minimize().TrimPartial()))
}
