package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"regexrw/internal/alphabet"
	"regexrw/internal/graph"
)

// Graph generator families for the Section 4 evaluation workloads.
// All generators are deterministic: the structured families (grid,
// chain) take no randomness at all, and the random families are a pure
// function of their seed. They use the id-based fast path
// (graph.AddEdgeIDs) so million-edge databases build in well under a
// second.

// GridGraph builds a w×h directed grid: node g<x>_<y> has a
// right-labeled edge to g<x+1>_<y> and a down-labeled edge to
// g<x>_<y+1>. Grids exercise long shortest paths (diameter w+h) with
// bounded degree — the worst case for frontier depth.
func GridGraph(w, h int, right, down string) *graph.DB {
	db := graph.New(nil)
	ids := make([]graph.NodeID, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ids[y*w+x] = db.AddNode("g" + strconv.Itoa(x) + "_" + strconv.Itoa(y))
		}
	}
	r := db.Labels().Intern(right)
	d := db.Labels().Intern(down)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				db.AddEdgeIDs(ids[y*w+x], r, ids[y*w+x+1])
			}
			if y+1 < h {
				db.AddEdgeIDs(ids[y*w+x], d, ids[(y+1)*w+x])
			}
		}
	}
	return db
}

// ChainGraph builds a path c0 → c1 → … → cn of n edges whose labels
// cycle through the given list. Chains are the PathDB shape of
// Theorem 10 at scale: a single maximal-length path.
func ChainGraph(n int, labels []string) *graph.DB {
	if len(labels) == 0 {
		labels = []string{"a"}
	}
	db := graph.New(nil)
	ids := make([]graph.NodeID, n+1)
	for i := range ids {
		ids[i] = db.AddNode("c" + strconv.Itoa(i))
	}
	syms := make([]alphabet.Symbol, len(labels))
	for i, l := range labels {
		syms[i] = db.Labels().Intern(l)
	}
	for i := 0; i < n; i++ {
		db.AddEdgeIDs(ids[i], syms[i%len(syms)], ids[i+1])
	}
	return db
}

// PowerLawGraph builds a scale-free multigraph by preferential
// attachment: each of the edges picks a uniform source and a target
// drawn proportionally to in-degree (with a 10% uniform escape so
// isolated nodes stay reachable), labels drawn uniformly. The heavy
// tail gives a few hub nodes with enormous degree — the shape of real
// web/social graphs and the best case for frontier bitsets, whose
// dense rows absorb hub fan-out in word-sized chunks. Deterministic
// given the rand source.
func PowerLawGraph(r *rand.Rand, nodes, edges int, labels []string) *graph.DB {
	if len(labels) == 0 {
		labels = []string{"a", "b"}
	}
	db := graph.New(nil)
	ids := make([]graph.NodeID, nodes)
	for i := range ids {
		ids[i] = db.AddNode("p" + strconv.Itoa(i))
	}
	syms := make([]alphabet.Symbol, len(labels))
	for i, l := range labels {
		syms[i] = db.Labels().Intern(l)
	}
	// endpoints holds one entry per edge target so far; sampling from
	// it is sampling proportional to in-degree.
	endpoints := make([]graph.NodeID, 0, edges)
	for i := 0; i < edges; i++ {
		from := ids[r.Intn(nodes)]
		var to graph.NodeID
		if len(endpoints) == 0 || r.Float64() < 0.1 {
			to = ids[r.Intn(nodes)]
		} else {
			to = endpoints[r.Intn(len(endpoints))]
		}
		db.AddEdgeIDs(from, syms[r.Intn(len(syms))], to)
		endpoints = append(endpoints, to)
	}
	return db
}

// ParseGraphSpec builds a database from a compact generator spec, the
// format accepted by cmd/serve's -graph flag and the bench harness:
//
//	grid:WxH[:right,down]        — GridGraph
//	chain:N[:l1,l2,…]            — ChainGraph
//	powerlaw:N:E:SEED[:l1,l2,…]  — PowerLawGraph
//	random:N:E:SEED[:l1,l2,…]    — RandomGraph (uniform)
//
// Unknown generator names and malformed parameters are errors.
func ParseGraphSpec(spec string) (*graph.DB, error) {
	g, err := ParseGenerator(spec)
	if err != nil {
		return nil, err
	}
	return g.Build(), nil
}

// Generator is a parsed generator spec: the parameters of the graph
// ParseGraphSpec would build, before anything is built. Size reads the
// graph's dimensions off them, so a caller can refuse an oversized spec
// without allocating it.
type Generator struct {
	kind   string // grid, chain, powerlaw or random
	w, h   int    // grid dimensions
	n      int    // chain length; powerlaw/random node count
	e      int    // powerlaw/random edge count
	seed   int64  // powerlaw/random seed
	labels []string
}

// ParseGenerator parses a generator spec (see ParseGraphSpec) without
// building the graph.
func ParseGenerator(spec string) (Generator, error) {
	parts := strings.Split(spec, ":")
	bad := func(format string, args ...any) (Generator, error) {
		return Generator{}, fmt.Errorf("workload: graph spec %q: %s", spec, fmt.Sprintf(format, args...))
	}
	g := Generator{kind: parts[0]}
	switch parts[0] {
	case "grid":
		if len(parts) < 2 || len(parts) > 3 {
			return bad("want grid:WxH[:right,down]")
		}
		dims := strings.SplitN(parts[1], "x", 2)
		if len(dims) != 2 {
			return bad("dimensions %q are not WxH", parts[1])
		}
		w, werr := strconv.Atoi(dims[0])
		h, herr := strconv.Atoi(dims[1])
		if werr != nil || herr != nil || w < 1 || h < 1 {
			return bad("dimensions %q are not positive integers", parts[1])
		}
		g.w, g.h, g.labels = w, h, []string{"right", "down"}
		if len(parts) == 3 {
			labels := strings.Split(parts[2], ",")
			if len(labels) != 2 || labels[0] == "" || labels[1] == "" {
				return bad("want exactly two labels, got %q", parts[2])
			}
			g.labels = labels
		}
	case "chain":
		if len(parts) < 2 || len(parts) > 3 {
			return bad("want chain:N[:labels]")
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil || n < 0 {
			return bad("length %q is not a non-negative integer", parts[1])
		}
		g.n = n
		if len(parts) == 3 {
			if g.labels = splitLabels(parts[2]); g.labels == nil {
				return bad("empty label in %q", parts[2])
			}
		}
	case "powerlaw", "random":
		if len(parts) < 4 || len(parts) > 5 {
			return bad("want %s:N:E:SEED[:labels]", parts[0])
		}
		n, nerr := strconv.Atoi(parts[1])
		e, eerr := strconv.Atoi(parts[2])
		seed, serr := strconv.ParseInt(parts[3], 10, 64)
		if nerr != nil || eerr != nil || serr != nil || n < 1 || e < 0 {
			return bad("parameters %q are not N:E:SEED", strings.Join(parts[1:4], ":"))
		}
		g.n, g.e, g.seed, g.labels = n, e, seed, []string{"a", "b"}
		if len(parts) == 5 {
			if g.labels = splitLabels(parts[4]); g.labels == nil {
				return bad("empty label in %q", parts[4])
			}
		}
	default:
		return bad("unknown generator %q (want grid, chain, powerlaw or random)", parts[0])
	}
	return g, nil
}

// Size returns the node and edge counts of the graph Build would make,
// saturating at math.MaxInt64 instead of overflowing.
func (g Generator) Size() (nodes, edges int64) {
	switch g.kind {
	case "grid":
		w, h := int64(g.w), int64(g.h)
		return satMul(w, h), satAdd(satMul(w-1, h), satMul(w, h-1))
	case "chain":
		return satAdd(int64(g.n), 1), int64(g.n)
	}
	return int64(g.n), int64(g.e)
}

// Build generates the graph.
func (g Generator) Build() *graph.DB {
	switch g.kind {
	case "grid":
		return GridGraph(g.w, g.h, g.labels[0], g.labels[1])
	case "chain":
		return ChainGraph(g.n, g.labels)
	case "powerlaw":
		return PowerLawGraph(rand.New(rand.NewSource(g.seed)), g.n, g.e, g.labels)
	}
	return RandomGraph(rand.New(rand.NewSource(g.seed)), GraphConfig{Nodes: g.n, Edges: g.e, Labels: g.labels})
}

func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// IsGraphSpec reports whether the string names a known generator —
// callers with path-or-spec inputs (cmd/serve's -graph flag) use it to
// decide between ParseGraphSpec and reading a file.
func IsGraphSpec(spec string) bool {
	head, _, ok := strings.Cut(spec, ":")
	if !ok {
		return false
	}
	switch head {
	case "grid", "chain", "powerlaw", "random":
		return true
	}
	return false
}

// splitLabels splits a comma list, rejecting empty entries.
func splitLabels(s string) []string {
	labels := strings.Split(s, ",")
	for _, l := range labels {
		if l == "" {
			return nil
		}
	}
	return labels
}
