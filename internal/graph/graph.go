// Package graph implements the semi-structured database of Section 4: a
// directed multigraph whose edges are labeled by constants from a
// finite domain D, together with the evaluation of regular path queries
// — the answer ans(ℓ, DB) is the set of node pairs connected by a path
// whose label word lies in the language ℓ (Definition 5).
package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"regexrw/internal/alphabet"
	"regexrw/internal/automata"
)

// NodeID identifies a node within a DB.
type NodeID int

// Edge is a labeled edge to a target node.
type Edge struct {
	Label alphabet.Symbol
	To    NodeID
}

// Pair is an element of a query answer: two nodes connected by a
// conforming path.
type Pair struct {
	From, To NodeID
}

// DB is a semi-structured database: named nodes and D-labeled edges.
// The zero value is not usable; create with New.
type DB struct {
	nodes  *alphabet.Alphabet // node names → dense ids
	labels *alphabet.Alphabet // D
	out    [][]Edge
	edges  int // sum of len(out[n]), kept by every add path
}

// New returns an empty database whose edge labels are drawn from the
// given domain alphabet (constants are interned into it as edges are
// added).
func New(domain *alphabet.Alphabet) *DB {
	if domain == nil {
		domain = alphabet.New()
	}
	return &DB{nodes: alphabet.New(), labels: domain}
}

// AddNode adds a node (idempotent) and returns its id.
func (db *DB) AddNode(name string) NodeID {
	id := db.nodes.Intern(name)
	for len(db.out) <= int(id) {
		db.out = append(db.out, nil)
	}
	return NodeID(id)
}

// AddEdge adds the edge from --label--> to, adding nodes and interning
// the label as needed. Duplicate edges are kept (multigraph).
func (db *DB) AddEdge(from, label, to string) {
	f := db.AddNode(from)
	t := db.AddNode(to)
	db.AddEdgeIDs(f, db.labels.Intern(label), t)
}

// AddEdgeIDs adds the edge from --label--> to by ids: no name
// interning, no adjacency growth. This is the fast path used by the
// million-edge workload generators, where nodes are pre-added and the
// label symbol is interned once. Both node ids must come from AddNode
// on this database and the label from its domain alphabet; out-of-range
// ids panic (from) or corrupt evaluation (to), exactly like indexing a
// slice out of bounds.
func (db *DB) AddEdgeIDs(from NodeID, label alphabet.Symbol, to NodeID) {
	db.out[from] = append(db.out[from], Edge{Label: label, To: to})
	db.edges++
}

// NumNodes returns the number of nodes.
func (db *DB) NumNodes() int { return db.nodes.Len() }

// NumEdges returns the number of edges in O(1): the count is kept by
// every add path, so serving layers can report it per request.
func (db *DB) NumEdges() int { return db.edges }

// NodeName returns the name of a node id.
func (db *DB) NodeName(n NodeID) string { return db.nodes.Name(alphabet.Symbol(n)) }

// NodeID returns the id of a named node, or -1.
func (db *DB) NodeID(name string) NodeID {
	s := db.nodes.Lookup(name)
	if s == alphabet.None {
		return -1
	}
	return NodeID(s)
}

// Labels returns the domain alphabet D.
func (db *DB) Labels() *alphabet.Alphabet { return db.labels }

// Out returns the outgoing edges of n (shared slice; do not mutate).
func (db *DB) Out(n NodeID) []Edge { return db.out[n] }

// Eval computes ans(L(a), db): all pairs (x, y) such that some path
// from x to y spells a word of L(a). The automaton must be over an
// alphabet compatible with db's label domain (symbols are matched by
// name). Pairs are returned sorted.
func (db *DB) Eval(a *automata.NFA) []Pair {
	nfa := a.RemoveEpsilon()
	if nfa.Start() == automata.NoState {
		return nil
	}
	// Map automaton symbols to db label ids by name.
	toDB := make([]alphabet.Symbol, nfa.Alphabet().Len())
	for _, x := range nfa.Alphabet().Symbols() {
		toDB[x] = db.labels.Lookup(nfa.Alphabet().Name(x))
	}
	// Transitions indexed by db label for the inner loop.
	byLabel := make([]map[automata.State][]automata.State, db.labels.Len())
	for s := 0; s < nfa.NumStates(); s++ {
		for _, x := range nfa.OutSymbols(automata.State(s)) { //mapiter:unordered builds an index; answer pairs are sorted before return
			l := toDB[x]
			if l == alphabet.None {
				continue
			}
			if byLabel[l] == nil {
				byLabel[l] = map[automata.State][]automata.State{}
			}
			byLabel[l][automata.State(s)] = append(byLabel[l][automata.State(s)], nfa.Successors(automata.State(s), x)...)
		}
	}

	var out []Pair
	type cfg struct {
		node  NodeID
		state automata.State
	}
	for start := 0; start < db.NumNodes(); start++ {
		seen := map[cfg]bool{}
		emitted := map[NodeID]bool{}
		queue := []cfg{{NodeID(start), nfa.Start()}}
		seen[queue[0]] = true
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			if nfa.Accepting(c.state) && !emitted[c.node] {
				emitted[c.node] = true
				out = append(out, Pair{NodeID(start), c.node})
			}
			for _, e := range db.out[c.node] {
				if int(e.Label) >= len(byLabel) || byLabel[e.Label] == nil {
					continue
				}
				for _, t := range byLabel[e.Label][c.state] {
					nc := cfg{e.To, t}
					if !seen[nc] {
						seen[nc] = true
						queue = append(queue, nc)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// EvalFrom computes the single-source answer: the nodes y such that
// some path from start to y spells a word of L(a). Same product BFS as
// Eval restricted to one start node.
func (db *DB) EvalFrom(a *automata.NFA, start NodeID) []NodeID {
	nfa := a.RemoveEpsilon()
	if nfa.Start() == automata.NoState || start < 0 || int(start) >= db.NumNodes() {
		return nil
	}
	toDB := make([]alphabet.Symbol, nfa.Alphabet().Len())
	for _, x := range nfa.Alphabet().Symbols() {
		toDB[x] = db.labels.Lookup(nfa.Alphabet().Name(x))
	}
	type cfg struct {
		node  NodeID
		state automata.State
	}
	seen := map[cfg]bool{{start, nfa.Start()}: true}
	queue := []cfg{{start, nfa.Start()}}
	emitted := map[NodeID]bool{}
	var out []NodeID
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if nfa.Accepting(c.state) && !emitted[c.node] {
			emitted[c.node] = true
			out = append(out, c.node)
		}
		for _, e := range db.out[c.node] {
			for _, x := range nfa.OutSymbols(c.state) { //mapiter:unordered BFS over a set; answer nodes are sorted before return
				if toDB[x] != e.Label {
					continue
				}
				for _, t := range nfa.Successors(c.state, x) {
					nc := cfg{e.To, t}
					if !seen[nc] {
						seen[nc] = true
						queue = append(queue, nc)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PairNames renders an answer with node names, for display and tests.
func (db *DB) PairNames(ps []Pair) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = db.NodeName(p.From) + "→" + db.NodeName(p.To)
	}
	return out
}

// DOT renders the database in Graphviz dot syntax, for visual
// inspection of small graphs.
func (db *DB) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", name)
	for n := 0; n < db.NumNodes(); n++ {
		fmt.Fprintf(&b, "  %q;\n", db.NodeName(NodeID(n)))
	}
	for f, es := range db.out {
		for _, e := range es {
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n",
				db.NodeName(NodeID(f)), db.NodeName(e.To), db.labels.Name(e.Label))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// WriteTo serializes the database in the text format read by Read: one
// "from label to" triple per line, nodes implied by edges, and isolated
// nodes as single-field lines.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	var total int64
	hasEdge := make([]bool, db.NumNodes())
	for f, es := range db.out {
		for _, e := range es {
			hasEdge[f] = true
			hasEdge[e.To] = true
			n, err := fmt.Fprintf(w, "%s %s %s\n", db.NodeName(NodeID(f)), db.labels.Name(e.Label), db.NodeName(e.To))
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
	}
	for i, has := range hasEdge {
		if !has {
			n, err := fmt.Fprintf(w, "%s\n", db.NodeName(NodeID(i)))
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// Read parses the text format of WriteTo into a new database over the
// given domain. Lines are "from label to" triples or single node names;
// blank lines and lines starting with '#' are ignored.
func Read(r io.Reader, domain *alphabet.Alphabet) (*DB, error) {
	db := New(domain)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch len(fields) {
		case 1:
			db.AddNode(fields[0])
		case 3:
			db.AddEdge(fields[0], fields[1], fields[2])
		default:
			return nil, fmt.Errorf("graph: line %d: want 1 or 3 fields, got %d", lineNo, len(fields))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return db, nil
}

// Equal reports whether two databases describe the same graph: the
// same node-name set and, per node, the same multiset of outgoing
// edges by (label name, target name). Node and label ids are not
// compared — serialization round trips permute ids (Read interns names
// in first-appearance order) without changing the graph.
func (db *DB) Equal(o *DB) bool {
	if db.NumNodes() != o.NumNodes() || db.NumEdges() != o.NumEdges() {
		return false
	}
	for n := 0; n < db.NumNodes(); n++ {
		name := db.NodeName(NodeID(n))
		on := o.NodeID(name)
		if on < 0 {
			return false
		}
		a := db.renderEdges(NodeID(n))
		b := o.renderEdges(on)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// renderEdges returns the out-edges of n as sorted "label target"
// name pairs, the id-agnostic form compared by Equal.
func (db *DB) renderEdges(n NodeID) []string {
	es := db.out[n]
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = db.labels.Name(e.Label) + "\x00" + db.NodeName(e.To)
	}
	sort.Strings(out)
	return out
}

// PathDB builds the single-path database x0 --a1--> x1 --a2--> … used in
// the proof of Theorem 10, returning it with the start and end nodes.
func PathDB(domain *alphabet.Alphabet, labels []alphabet.Symbol) (*DB, NodeID, NodeID) {
	db := New(domain)
	first := db.AddNode("n0")
	prev := first
	for i, l := range labels {
		next := db.AddNode(fmt.Sprintf("n%d", i+1))
		db.AddEdgeIDs(prev, l, next)
		prev = next
	}
	return db, first, prev
}
