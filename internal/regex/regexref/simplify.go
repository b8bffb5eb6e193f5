package regexref

import "regexrw/internal/regex"

// Simplify is the recursive simplifier regex.Simplify replaced: the
// same identities, applied by re-simplifying every subtree it is
// handed, already simplified or not. regex.Simplify must print the same
// bytes on every input (TestSimplifyMatchesReference).
func Simplify(n *regex.Node) *regex.Node {
	switch n.Op {
	case regex.OpEmpty, regex.OpEpsilon, regex.OpSymbol:
		return n
	case regex.OpStar:
		return simplifyStar(Simplify(n.Subs[0]))
	case regex.OpOpt:
		return simplifyOpt(Simplify(n.Subs[0]))
	case regex.OpConcat:
		return simplifyConcat(n.Subs)
	case regex.OpUnion:
		return simplifyUnion(n.Subs)
	}
	panic("regex: unknown op")
}

func simplifyStar(sub *regex.Node) *regex.Node {
	switch sub.Op {
	case regex.OpEmpty, regex.OpEpsilon:
		return regex.Epsilon()
	case regex.OpStar:
		return sub
	case regex.OpOpt:
		return regex.Star(sub.Subs[0])
	case regex.OpUnion:
		// (ε + E1 + …)* = (E1 + …)*
		var kept []*regex.Node
		changed := false
		for _, s := range sub.Subs {
			if s.Op == regex.OpEpsilon {
				changed = true
				continue
			}
			// (E* + …)* = (E + …)*
			if s.Op == regex.OpStar {
				s = s.Subs[0]
				changed = true
			} else if s.Op == regex.OpOpt {
				s = s.Subs[0]
				changed = true
			}
			kept = append(kept, s)
		}
		if changed {
			return simplifyStar(simplifyUnion(kept))
		}
	}
	return regex.Star(sub)
}

func simplifyOpt(sub *regex.Node) *regex.Node {
	switch sub.Op {
	case regex.OpEmpty, regex.OpEpsilon:
		return regex.Epsilon()
	case regex.OpStar, regex.OpOpt:
		return sub
	}
	if sub.Nullable() {
		return sub
	}
	return regex.Opt(sub)
}

func simplifyConcat(subs []*regex.Node) *regex.Node {
	var flat []*regex.Node
	for _, s := range subs {
		s = Simplify(s)
		switch s.Op {
		case regex.OpEmpty:
			return regex.Empty()
		case regex.OpEpsilon:
			continue
		case regex.OpConcat:
			flat = append(flat, s.Subs...)
		default:
			flat = append(flat, s)
		}
	}
	// E*·E* = E*  and  E*·E·E* patterns are left alone; only adjacent
	// identical stars collapse.
	var out []*regex.Node
	for _, s := range flat {
		if len(out) > 0 && s.Op == regex.OpStar && out[len(out)-1].Op == regex.OpStar &&
			s.Subs[0].Equal(out[len(out)-1].Subs[0]) {
			continue
		}
		out = append(out, s)
	}
	return regex.Concat(out...)
}

func simplifyUnion(subs []*regex.Node) *regex.Node {
	var flat []*regex.Node
	for _, s := range subs {
		s = Simplify(s)
		switch s.Op {
		case regex.OpEmpty:
			continue
		case regex.OpUnion:
			flat = append(flat, s.Subs...)
		default:
			flat = append(flat, s)
		}
	}
	// Deduplicate structurally equal branches, preserving order.
	var uniq []*regex.Node
	for _, s := range flat {
		dup := false
		for _, u := range uniq {
			if s.Equal(u) {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, s)
		}
	}
	// Drop ε if some branch is nullable; drop E when E* is a branch.
	hasEps := false
	nullableNonEps := false
	for _, s := range uniq {
		if s.Op == regex.OpEpsilon {
			hasEps = true
		} else if s.Nullable() {
			nullableNonEps = true
		}
	}
	var kept []*regex.Node
	for _, s := range uniq {
		if s.Op == regex.OpEpsilon && nullableNonEps {
			continue
		}
		subsumed := false
		for _, o := range uniq {
			if o.Op == regex.OpStar && o.Subs[0].Equal(s) {
				subsumed = true
				break
			}
			if o.Op == regex.OpOpt && o.Subs[0].Equal(s) {
				subsumed = true
				break
			}
		}
		if subsumed {
			continue
		}
		kept = append(kept, s)
	}
	if hasEps && !nullableNonEps && len(kept) == 2 {
		// ε + E  →  E?  (when E is the single other branch)
		var other *regex.Node
		for _, s := range kept {
			if s.Op != regex.OpEpsilon {
				other = s
			}
		}
		if other != nil {
			return simplifyOpt(other)
		}
	}
	return regex.Union(kept...)
}
