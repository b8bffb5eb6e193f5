package regex

import (
	"regexrw/internal/alphabet"
	"regexrw/internal/budget"
)

// snode is the converter's private expression node. Unlike Node it
// carries what the simplifier asks of a subtree — nullability, a
// structural hash and the length of its rendering — computed once when
// the node is built, so that union dedupe, star/opt subsumption and the
// adjacent-star collapse reject unequal trees without walking them, and
// the size bound never renders anything. Every snode is the output of a
// simplification step and is itself simplified, which is what lets a
// label be reused as a subtree without simplifying it again. The shared
// *Node output is built once at the end (node), so no field of a Node
// handed to concurrent readers is ever written late.
type snode struct {
	op       Op
	name     string
	subs     []*snode
	one      [1]*snode // backing array of subs for Star and Opt
	hash     uint64
	size     int64 // len(String()) of the node
	nullable bool
	out      *Node // the converted node, once built
}

// converter is the state of one conversion: the meter and size limit
// that bound it, and its leaves.
type converter struct {
	meter    *budget.Meter // nil: unmetered
	limit    int64         // 0: unbounded
	err      error         // first meter or limit failure; sticky
	rendered int64         // length of the final expression

	epsNode, emptyNode *snode
	syms               []*snode // leaf per alphabet symbol
	index              nodeIndex
}

const (
	hashPrime  = 1099511628211
	hashOffset = 14695981039346656037
)

var (
	renderEmpty  = int64(len("∅"))
	renderEps    = int64(len("ε"))
	renderConcat = int64(len("·"))
	renderUnion  = int64(len("+"))
)

// mk builds a node over simplified children, computing its cached
// attributes, ticking the meter and enforcing the size limit.
func (c *converter) mk(op Op, name string, subs []*snode) *snode {
	n := &snode{op: op, name: name, subs: subs}
	c.finish(n)
	return n
}

// mk1 is mk for Star and Opt, whose one child lives inside the node.
func (c *converter) mk1(op Op, sub *snode) *snode {
	n := &snode{op: op}
	n.one[0] = sub
	n.subs = n.one[:]
	c.finish(n)
	return n
}

func (c *converter) finish(n *snode) {
	h := uint64(hashOffset)
	h = (h ^ uint64(n.op)) * hashPrime
	switch n.op {
	case OpEmpty:
		n.size = renderEmpty
	case OpEpsilon:
		n.size, n.nullable = renderEps, true
	case OpSymbol:
		for i := 0; i < len(n.name); i++ {
			h = (h ^ uint64(n.name[i])) * hashPrime
		}
		n.size = int64(len(n.name))
	case OpConcat:
		n.nullable = true
		for _, s := range n.subs {
			n.nullable = n.nullable && s.nullable
			n.size += s.renderedIn(2)
		}
		n.size += renderConcat * int64(len(n.subs)-1)
	case OpUnion:
		for _, s := range n.subs {
			n.nullable = n.nullable || s.nullable
			n.size += s.renderedIn(1)
		}
		n.size += renderUnion * int64(len(n.subs)-1)
	case OpStar, OpOpt:
		n.nullable = true
		n.size = n.subs[0].renderedIn(2) + 1
	}
	for _, s := range n.subs {
		h = (h ^ s.hash) * hashPrime
	}
	n.hash = h
	if c.err != nil {
		return
	}
	if c.limit > 0 && n.size > c.limit {
		c.err = &budget.ExceededError{Stage: "regex.from_dfa", Resource: budget.Bytes, Limit: c.limit, Used: n.size}
		return
	}
	if c.meter != nil {
		c.err = c.meter.Check()
	}
}

// renderedIn is the node's rendered length as a child of an operator
// binding at minPrec: parenthesized when it binds looser (Node.write).
func (n *snode) renderedIn(minPrec int) int64 {
	if precOf(n.op) < minPrec {
		return n.size + 2
	}
	return n.size
}

func precOf(op Op) int {
	switch op {
	case OpUnion:
		return 0
	case OpConcat:
		return 1
	default:
		return 2
	}
}

// equal is structural equality (Node.Equal) with two O(1) exits:
// shared subtrees are equal, and different hashes are unequal.
func equal(a, b *snode) bool {
	if a == b {
		return true
	}
	if a.hash != b.hash || a.op != b.op || a.name != b.name || len(a.subs) != len(b.subs) {
		return false
	}
	for i := range a.subs {
		if !equal(a.subs[i], b.subs[i]) {
			return false
		}
	}
	return true
}

func (c *converter) eps() *snode {
	if c.epsNode == nil {
		c.epsNode = c.mk(OpEpsilon, "", nil)
	}
	return c.epsNode
}

func (c *converter) empty() *snode {
	if c.emptyNode == nil {
		c.emptyNode = c.mk(OpEmpty, "", nil)
	}
	return c.emptyNode
}

func (c *converter) sym(al *alphabet.Alphabet, x alphabet.Symbol) *snode {
	if int(x) >= len(c.syms) {
		c.syms = append(c.syms, make([]*snode, int(x)+1-len(c.syms))...)
	}
	if c.syms[x] == nil {
		c.syms[x] = c.mk(OpSymbol, al.Name(x), nil)
	}
	return c.syms[x]
}

// The four simplifier steps below apply Simplify's identities at one
// operator whose arguments are already simplified. Simplify of a
// simplified node prints the same, so no child is simplified again
// and each step costs in proportion to the children it combines. They
// are also how Simplify itself works (simplify.go).

// star is Simplify(Star(sub)).
func (c *converter) star(sub *snode) *snode {
	switch sub.op {
	case OpEmpty, OpEpsilon:
		return c.eps()
	case OpStar:
		return sub
	case OpOpt:
		return c.mk1(OpStar, sub.subs[0])
	case OpUnion:
		// (ε + E1 + …)* = (E1 + …)*  and  (E* + …)* = (E + …)*
		var kept []*snode
		changed := false
		for _, s := range sub.subs {
			if s.op == OpEpsilon {
				changed = true
				continue
			}
			if s.op == OpStar || s.op == OpOpt {
				s = s.subs[0]
				changed = true
			}
			kept = append(kept, s)
		}
		if changed {
			return c.star(c.union(kept...))
		}
	}
	return c.mk1(OpStar, sub)
}

// opt is Simplify(Opt(sub)).
func (c *converter) opt(sub *snode) *snode {
	switch sub.op {
	case OpEmpty, OpEpsilon:
		return c.eps()
	case OpStar, OpOpt:
		return sub
	}
	if sub.nullable {
		return sub
	}
	return c.mk1(OpOpt, sub)
}

// concat is Simplify(Concat(parts...)); nil parts are skipped.
func (c *converter) concat(parts ...*snode) *snode {
	var flat []*snode
	for _, s := range parts {
		if s == nil {
			continue
		}
		switch s.op {
		case OpEmpty:
			return c.empty()
		case OpEpsilon:
			continue
		case OpConcat:
			flat = append(flat, s.subs...)
		default:
			flat = append(flat, s)
		}
	}
	// Only adjacent identical stars collapse: E*·E* = E*.
	out := flat[:0]
	for _, s := range flat {
		if len(out) > 0 && s.op == OpStar && out[len(out)-1].op == OpStar &&
			equal(s.subs[0], out[len(out)-1].subs[0]) {
			continue
		}
		out = append(out, s)
	}
	switch len(out) {
	case 0:
		return c.eps()
	case 1:
		return out[0]
	}
	return c.mk(OpConcat, "", out)
}

// union is Simplify(Union(parts...)).
func (c *converter) union(parts ...*snode) *snode {
	var flat []*snode
	for _, s := range parts {
		switch s.op {
		case OpEmpty:
			continue
		case OpUnion:
			flat = append(flat, s.subs...)
		default:
			flat = append(flat, s)
		}
	}
	// Deduplicate structurally equal branches, preserving order.
	uniq := flat[:0]
	c.index.reset(len(flat))
	for _, s := range flat {
		if !c.index.has(uniq, s) {
			uniq = append(uniq, s)
			c.index.add(uniq, len(uniq)-1)
		}
	}
	// Drop ε if some branch is nullable; drop E when E* or E? is a branch.
	hasEps, nullableNonEps := false, false
	var wraps []*snode
	for _, s := range uniq {
		if s.op == OpEpsilon {
			hasEps = true
		} else if s.nullable {
			nullableNonEps = true
		}
		if s.op == OpStar || s.op == OpOpt {
			wraps = append(wraps, s.subs[0])
		}
	}
	c.index.reset(len(wraps))
	for i := range wraps {
		c.index.add(wraps, i)
	}
	kept := uniq[:0] // filtered in place: the checks read only wraps
	for _, s := range uniq {
		if s.op == OpEpsilon && nullableNonEps {
			continue
		}
		if !c.index.has(wraps, s) {
			kept = append(kept, s)
		}
	}
	if hasEps && !nullableNonEps && len(kept) == 2 {
		// ε + E  →  E?  (when E is the single other branch)
		var other *snode
		for _, s := range kept {
			if s.op != OpEpsilon {
				other = s
			}
		}
		if other != nil {
			return c.opt(other)
		}
	}
	switch len(kept) {
	case 0:
		return c.empty()
	case 1:
		return kept[0]
	}
	return c.mk(OpUnion, "", kept)
}

// nodeIndex answers "is a node structurally equal to s among these?"
// for union dedupe and subsumption: an open-addressing table of
// positions in the caller's list, keyed by the cached hash, so each
// lookup compares only against nodes of the same hash and a union of n
// branches costs O(n), not O(n²). One table serves the whole
// conversion (union never nests its two uses), so a lookup allocates
// nothing once the table has grown to the widest union.
type nodeIndex struct {
	slots []int32 // 1 + position in the list; 0 marks a free slot
	mask  uint64
}

// reset empties the table for a list of up to n nodes.
func (x *nodeIndex) reset(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	if cap(x.slots) < size {
		x.slots = make([]int32, size)
	}
	x.slots = x.slots[:size]
	clear(x.slots)
	x.mask = uint64(size - 1)
}

// has reports whether s equals one of list's nodes added so far.
func (x *nodeIndex) has(list []*snode, s *snode) bool {
	for i := x.home(s); x.slots[i] != 0; i = (i + 1) & x.mask {
		if equal(s, list[x.slots[i]-1]) {
			return true
		}
	}
	return false
}

// add records that list[pos] is in the set.
func (x *nodeIndex) add(list []*snode, pos int) {
	i := x.home(list[pos])
	for x.slots[i] != 0 {
		i = (i + 1) & x.mask
	}
	x.slots[i] = int32(pos + 1)
}

func (x *nodeIndex) home(s *snode) uint64 {
	return (s.hash ^ s.hash>>32) & x.mask
}

// node converts a simplified expression to the shared Node form,
// once per distinct subtree.
func (c *converter) node(s *snode) *Node {
	if s.out != nil {
		return s.out
	}
	n := &Node{Op: s.op, Name: s.name}
	if len(s.subs) > 0 {
		n.Subs = make([]*Node, len(s.subs))
		for i, sub := range s.subs {
			n.Subs[i] = c.node(sub)
		}
	}
	s.out = n
	return n
}
