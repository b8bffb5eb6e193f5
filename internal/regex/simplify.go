package regex

// Simplify returns a language-equivalent expression with standard
// algebraic identities applied bottom-up:
//
//	∅+E = E      ∅·E = E·∅ = ∅     ε·E = E·ε = E
//	∅* = ε       ε* = ε            (E*)* = E*
//	(E?)* = E*   (ε+E) = E if E nullable, else E?
//	E?? = E?     (E*)? = E*        duplicate union branches dropped
//	E+E*… with E* present and E a branch: E dropped when subsumed
//
// The result is canonical enough for the paper's examples to print in
// their published form; it is not a minimal normal form (language
// minimality is undecidable syntactically — use automata equivalence for
// semantic checks). It is a fixpoint: Simplify of a simplified
// expression prints the same.
func Simplify(n *Node) *Node {
	c := &converter{}
	return c.node(c.simplify(n))
}

// simplify rebuilds a plain tree bottom-up, each node through the
// simplifier step of its operator (convert.go), so that every child is
// simplified exactly once.
func (c *converter) simplify(n *Node) *snode {
	switch n.Op {
	case OpEmpty:
		return c.empty()
	case OpEpsilon:
		return c.eps()
	case OpSymbol:
		return c.mk(OpSymbol, n.Name, nil)
	case OpStar:
		return c.star(c.simplify(n.Subs[0]))
	case OpOpt:
		return c.opt(c.simplify(n.Subs[0]))
	case OpConcat, OpUnion:
		parts := make([]*snode, len(n.Subs))
		for i, s := range n.Subs {
			parts[i] = c.simplify(s)
		}
		if n.Op == OpConcat {
			return c.concat(parts...)
		}
		return c.union(parts...)
	}
	panic("regex: unknown op")
}
