package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"regexrw/internal/graph"
)

func TestGridGraphShape(t *testing.T) {
	db := GridGraph(4, 3, "right", "down")
	if db.NumNodes() != 12 {
		t.Fatalf("4x3 grid: want 12 nodes, got %d", db.NumNodes())
	}
	// Horizontal edges: (w-1)*h; vertical: w*(h-1).
	if want := 3*3 + 4*2; db.NumEdges() != want {
		t.Fatalf("4x3 grid: want %d edges, got %d", want, db.NumEdges())
	}
	// Corner-to-corner: g0_0 reaches g3_2 via right*·down* among others.
	start := db.NodeID("g0_0")
	end := db.NodeID("g3_2")
	if start < 0 || end < 0 {
		t.Fatal("grid corner nodes missing")
	}
	right := db.Labels().Lookup("right")
	if right < 0 {
		t.Fatal("right label missing")
	}
	found := false
	for _, e := range db.Out(start) {
		if e.To == db.NodeID("g1_0") {
			found = true
		}
	}
	if !found {
		t.Fatal("g0_0 has no edge to g1_0")
	}
}

func TestChainGraphShape(t *testing.T) {
	db := ChainGraph(5, []string{"a", "b"})
	if db.NumNodes() != 6 || db.NumEdges() != 5 {
		t.Fatalf("chain(5): want 6 nodes / 5 edges, got %d / %d", db.NumNodes(), db.NumEdges())
	}
	// Labels cycle a, b, a, b, a.
	wantLabels := []string{"a", "b", "a", "b", "a"}
	for i := 0; i < 5; i++ {
		es := db.Out(db.NodeID("c" + string(rune('0'+i))))
		if len(es) != 1 {
			t.Fatalf("chain node c%d: want 1 out-edge, got %d", i, len(es))
		}
		if got := db.Labels().Name(es[0].Label); got != wantLabels[i] {
			t.Fatalf("chain edge %d: want label %s, got %s", i, wantLabels[i], got)
		}
	}
	empty := ChainGraph(0, nil)
	if empty.NumNodes() != 1 || empty.NumEdges() != 0 {
		t.Fatalf("chain(0): want 1 node / 0 edges, got %d / %d", empty.NumNodes(), empty.NumEdges())
	}
}

func TestPowerLawGraphDeterministicAndSkewed(t *testing.T) {
	const nodes, edges = 500, 5000
	a := PowerLawGraph(rand.New(rand.NewSource(42)), nodes, edges, []string{"a", "b"})
	b := PowerLawGraph(rand.New(rand.NewSource(42)), nodes, edges, []string{"a", "b"})
	if a.NumNodes() != nodes || a.NumEdges() != edges {
		t.Fatalf("powerlaw: want %d nodes / %d edges, got %d / %d",
			nodes, edges, a.NumNodes(), a.NumEdges())
	}
	if !a.Equal(b) {
		t.Fatal("same seed must generate the same graph")
	}
	c := PowerLawGraph(rand.New(rand.NewSource(43)), nodes, edges, []string{"a", "b"})
	if a.Equal(c) {
		t.Fatal("different seeds generated identical graphs")
	}
	// Preferential attachment must concentrate in-degree: the hottest
	// node should absorb far more than the uniform share of targets.
	indeg := make([]int, nodes)
	for n := 0; n < nodes; n++ {
		for _, e := range a.Out(graph.NodeID(n)) {
			indeg[e.To]++
		}
	}
	max := 0
	for _, d := range indeg {
		if d > max {
			max = d
		}
	}
	if uniform := edges / nodes; max < 5*uniform {
		t.Fatalf("no hub: max in-degree %d vs uniform share %d", max, uniform)
	}
}

func TestMillionEdgeGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("million-edge generation in -short mode")
	}
	db := PowerLawGraph(rand.New(rand.NewSource(1)), 100_000, 1_000_000, []string{"a", "b", "c"})
	if db.NumEdges() != 1_000_000 {
		t.Fatalf("want 1M edges, got %d", db.NumEdges())
	}
}

func TestParseGraphSpec(t *testing.T) {
	cases := []struct {
		spec         string
		nodes, edges int
	}{
		{"grid:3x3", 9, 12},
		{"grid:2x2:r,d", 4, 4},
		{"chain:10", 11, 10},
		{"chain:4:a,b,c", 5, 4},
		{"powerlaw:100:400:7", 100, 400},
		{"powerlaw:100:400:7:x,y,z", 100, 400},
		{"random:50:200:9", 50, 200},
	}
	for _, c := range cases {
		db, err := ParseGraphSpec(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if db.NumNodes() != c.nodes || db.NumEdges() != c.edges {
			t.Fatalf("%s: want %d nodes / %d edges, got %d / %d",
				c.spec, c.nodes, c.edges, db.NumNodes(), db.NumEdges())
		}
		if !IsGraphSpec(c.spec) {
			t.Fatalf("IsGraphSpec(%q) = false", c.spec)
		}
	}
	for _, bad := range []string{
		"", "grid", "grid:3", "grid:3x", "grid:0x3", "grid:3x3:onlyone",
		"chain:x", "chain:-1", "chain:3:", "powerlaw:100:400", "powerlaw:a:b:c",
		"random:0:1:2", "mesh:3x3", "grid:3x3:a,b,c",
	} {
		if _, err := ParseGraphSpec(bad); err == nil {
			t.Fatalf("ParseGraphSpec(%q) accepted a malformed spec", bad)
		}
	}
	for _, notSpec := range []string{"graph.txt", "grid", "/tmp/powerlaw", "mesh:3"} {
		if IsGraphSpec(notSpec) {
			t.Fatalf("IsGraphSpec(%q) = true", notSpec)
		}
	}
}

func TestParseGraphSpecDeterministic(t *testing.T) {
	a, err := ParseGraphSpec("powerlaw:200:1000:11")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseGraphSpec("powerlaw:200:1000:11")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("spec parsing must be deterministic")
	}
	var w strings.Builder
	if _, err := a.WriteTo(&w); err != nil {
		t.Fatal(err)
	}
	if w.Len() == 0 {
		t.Fatal("generated graph serialized to nothing")
	}
}

// TestGeneratorsNumEdges: every generator builds through AddEdgeIDs,
// and the database's O(1) edge count must equal the sum of its
// out-lists for each of them.
func TestGeneratorsNumEdges(t *testing.T) {
	dbs := map[string]*graph.DB{
		"grid":     GridGraph(7, 5, "right", "down"),
		"chain":    ChainGraph(40, []string{"a", "b", "c"}),
		"powerlaw": PowerLawGraph(rand.New(rand.NewSource(5)), 300, 2000, []string{"a", "b"}),
		"random":   RandomGraph(rand.New(rand.NewSource(5)), GraphConfig{Nodes: 300, Edges: 2000, Labels: []string{"a", "b"}}),
	}
	for _, spec := range []string{"grid:9x4", "chain:17", "powerlaw:100:700:2", "random:100:700:2:x,y"} {
		db, err := ParseGraphSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		dbs[spec] = db
	}
	for name, db := range dbs {
		total := 0
		for n := 0; n < db.NumNodes(); n++ {
			total += len(db.Out(graph.NodeID(n)))
		}
		if db.NumEdges() != total {
			t.Errorf("%s: NumEdges = %d, out-lists hold %d", name, db.NumEdges(), total)
		}
	}
}

// TestGeneratorSize: a spec's size, read off its parameters, is the
// size of the graph it builds, and huge specs are sized without being
// built (no allocation beyond the parse) and without overflowing.
func TestGeneratorSize(t *testing.T) {
	for _, spec := range []string{
		"grid:3x3", "grid:1x7", "grid:5x1:r,d", "chain:0", "chain:10:a,b",
		"powerlaw:100:400:7", "random:50:200:9",
	} {
		g, err := ParseGenerator(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		nodes, edges := g.Size()
		db := g.Build()
		if nodes != int64(db.NumNodes()) || edges != int64(db.NumEdges()) {
			t.Fatalf("%s: Size = %d/%d, built %d/%d", spec, nodes, edges, db.NumNodes(), db.NumEdges())
		}
	}
	var nodes, edges int64
	allocs := testing.AllocsPerRun(10, func() {
		g, err := ParseGenerator("grid:100000x100000")
		if err != nil {
			t.Fatal(err)
		}
		nodes, edges = g.Size()
	})
	if nodes != 10_000_000_000 || edges != 19_999_800_000 {
		t.Fatalf("grid:100000x100000: Size = %d/%d", nodes, edges)
	}
	if allocs > 10 {
		t.Fatalf("sizing a spec allocated %.0f times", allocs)
	}
	g, err := ParseGenerator("grid:9000000000000000000x9000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	if nodes, edges := g.Size(); nodes != math.MaxInt64 || edges != math.MaxInt64 {
		t.Fatalf("overflowing grid: Size = %d/%d, want saturation", nodes, edges)
	}
}
