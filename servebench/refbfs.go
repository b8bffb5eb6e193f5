package main

import (
	"fmt"

	"regexrw/internal/alphabet"
	"regexrw/internal/graph"
	"regexrw/internal/regex"
)

// This file is the benchmark's own reference evaluator for /v1/query
// answers: a Thompson NFA built from the regex AST and a breadth-first
// search over the product of that NFA with the graph. It shares no code
// with internal/eval, the evaluator it checks.

type tEdge struct {
	sym string
	id  int // thompson.symID[sym]
	to  int
}

// thompson is an ε-NFA with one start and one accepting state.
type thompson struct {
	eps    [][]int
	edges  [][]tEdge
	start  int
	accept int
	symID  map[string]int
}

func (t *thompson) state() int {
	t.eps = append(t.eps, nil)
	t.edges = append(t.edges, nil)
	return len(t.eps) - 1
}

// fragment returns the entry and exit states of n's Thompson fragment.
func (t *thompson) fragment(n *regex.Node) (int, int) {
	switch n.Op {
	case regex.OpEmpty:
		return t.state(), t.state()
	case regex.OpEpsilon:
		s, e := t.state(), t.state()
		t.eps[s] = append(t.eps[s], e)
		return s, e
	case regex.OpSymbol:
		s, e := t.state(), t.state()
		id, ok := t.symID[n.Name]
		if !ok {
			id = len(t.symID)
			t.symID[n.Name] = id
		}
		t.edges[s] = append(t.edges[s], tEdge{n.Name, id, e})
		return s, e
	case regex.OpConcat:
		s, e := t.fragment(n.Subs[0])
		for _, sub := range n.Subs[1:] {
			s2, e2 := t.fragment(sub)
			t.eps[e] = append(t.eps[e], s2)
			e = e2
		}
		return s, e
	case regex.OpUnion:
		s, e := t.state(), t.state()
		for _, sub := range n.Subs {
			s2, e2 := t.fragment(sub)
			t.eps[s] = append(t.eps[s], s2)
			t.eps[e2] = append(t.eps[e2], e)
		}
		return s, e
	case regex.OpStar, regex.OpOpt:
		s, e := t.state(), t.state()
		s2, e2 := t.fragment(n.Subs[0])
		t.eps[s] = append(t.eps[s], s2, e)
		t.eps[e2] = append(t.eps[e2], e)
		if n.Op == regex.OpStar {
			t.eps[e2] = append(t.eps[e2], s2)
		}
		return s, e
	}
	panic(fmt.Sprintf("thompson: unknown op %v", n.Op))
}

func newThompson(n *regex.Node) *thompson {
	t := &thompson{symID: map[string]int{}}
	t.start, t.accept = t.fragment(n)
	return t
}

// refAnswers returns every node reachable from src by a path whose
// label word is in L(expr), src itself included when ε ∈ L(expr).
func refAnswers(expr *regex.Node, db *graph.DB, src graph.NodeID) map[graph.NodeID]bool {
	t := newThompson(expr)
	ns := len(t.eps)
	// Resolve NFA symbols to the graph's label ids once; a symbol the
	// graph never uses matches no edge.
	labels := make([][]alphabet.Symbol, ns)
	for q := range t.edges {
		for _, e := range t.edges[q] {
			labels[q] = append(labels[q], db.Labels().Lookup(e.sym))
		}
	}
	seen := make([]bool, db.NumNodes()*ns)
	type config struct {
		node graph.NodeID
		q    int
	}
	var queue []config
	push := func(n graph.NodeID, q int) {
		// Add q and its ε-closure at node n.
		stack := []int{q}
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			i := int(n)*ns + p
			if seen[i] {
				continue
			}
			seen[i] = true
			queue = append(queue, config{n, p})
			stack = append(stack, t.eps[p]...)
		}
	}
	push(src, t.start)
	out := map[graph.NodeID]bool{}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if c.q == t.accept {
			out[c.node] = true
		}
		for k, e := range t.edges[c.q] {
			sym := labels[c.q][k]
			if sym == alphabet.None {
				continue
			}
			for _, ge := range db.Out(c.node) {
				if ge.Label == sym {
					push(ge.To, e.to)
				}
			}
		}
	}
	return out
}

// acceptedWords returns every word over syms of length at most maxLen
// that t accepts. It simulates the NFA along a depth-first walk of the
// word trie, keeping one state set per depth, so memory stays linear in
// the NFA however large the rewriting's expression is (determinizing
// the Thompson NFA of a state-elimination expression can take far more
// memory than the expression).
func (t *thompson) acceptedWords(syms []string, maxLen int) [][]string {
	mark := make([]int, len(t.eps))
	gen := 0
	closure := func(seeds []int) []int {
		gen++
		var out []int
		stack := append([]int(nil), seeds...)
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if mark[p] == gen {
				continue
			}
			mark[p] = gen
			out = append(out, p)
			stack = append(stack, t.eps[p]...)
		}
		return out
	}
	var out [][]string
	var word []string
	var walk func(set []int)
	walk = func(set []int) {
		for _, q := range set {
			if q == t.accept {
				out = append(out, append([]string(nil), word...))
				break
			}
		}
		if len(word) == maxLen {
			return
		}
		for _, x := range syms {
			id, ok := t.symID[x]
			if !ok {
				continue
			}
			var next []int
			for _, q := range set {
				for _, e := range t.edges[q] {
					if e.id == id {
						next = append(next, e.to)
					}
				}
			}
			if len(next) == 0 {
				continue
			}
			word = append(word, x)
			walk(closure(next))
			word = word[:len(word)-1]
		}
	}
	walk(closure([]int{t.start}))
	return out
}
