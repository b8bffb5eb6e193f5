package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"regexrw/internal/alphabet"
	"regexrw/internal/automata"
	"regexrw/internal/regex"
)

// travelDB builds the running example of the paper's introduction: a
// small web of cities and restaurants.
func travelDB() *DB {
	db := New(nil)
	db.AddEdge("root", "rome", "romePage")
	db.AddEdge("root", "jerusalem", "jerusalemPage")
	db.AddEdge("root", "paris", "parisPage")
	db.AddEdge("romePage", "district", "trastevere")
	db.AddEdge("trastevere", "restaurant", "carlotta")
	db.AddEdge("jerusalemPage", "restaurant", "taami")
	db.AddEdge("parisPage", "hotel", "ritz")
	return db
}

func eval(t *testing.T, db *DB, expr string) []string {
	t.Helper()
	q, err := regex.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return db.PairNames(db.Eval(q.ToNFA(alphabet.New())))
}

func TestEvalSingleEdge(t *testing.T) {
	db := travelDB()
	got := eval(t, db, "rome")
	if len(got) != 1 || got[0] != "root→romePage" {
		t.Fatalf("ans(rome) = %v", got)
	}
}

func TestEvalIntroQuery(t *testing.T) {
	// The introduction's query: (rome+jerusalem) followed by any number
	// of edges and a restaurant edge. Using explicit middle labels.
	db := travelDB()
	got := eval(t, db, "(rome+jerusalem)·district?·restaurant")
	want := map[string]bool{"root→carlotta": true, "root→taami": true}
	if len(got) != len(want) {
		t.Fatalf("ans = %v", got)
	}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("unexpected pair %s", p)
		}
	}
}

func TestEvalEpsilonGivesReflexivePairs(t *testing.T) {
	db := travelDB()
	got := eval(t, db, "rome?")
	// ε connects every node to itself; rome adds root→romePage.
	if len(got) != db.NumNodes()+1 {
		t.Fatalf("ans(rome?) = %d pairs, want %d", len(got), db.NumNodes()+1)
	}
}

func TestEvalStar(t *testing.T) {
	db := New(nil)
	db.AddEdge("a", "x", "b")
	db.AddEdge("b", "x", "c")
	db.AddEdge("c", "x", "a") // cycle
	got := eval(t, db, "x·x")
	if len(got) != 3 {
		t.Fatalf("ans(x·x) = %v", db.PairNames(db.Eval(regex.MustParse("x·x").ToNFA(alphabet.New()))))
	}
	star := eval(t, db, "x*")
	if len(star) != 9 { // every pair in the 3-cycle, including self
		t.Fatalf("ans(x*) = %d pairs, want 9", len(star))
	}
}

func TestEvalUnknownLabel(t *testing.T) {
	db := travelDB()
	if got := eval(t, db, "flight"); len(got) != 0 {
		t.Fatalf("ans(flight) = %v, want empty", got)
	}
}

func TestEvalEmptyLanguage(t *testing.T) {
	db := travelDB()
	if got := eval(t, db, "∅"); len(got) != 0 {
		t.Fatalf("ans(∅) = %v", got)
	}
}

func TestEvalMultigraph(t *testing.T) {
	db := New(nil)
	db.AddEdge("a", "x", "b")
	db.AddEdge("a", "x", "b") // duplicate edge
	db.AddEdge("a", "y", "b")
	if db.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", db.NumEdges())
	}
	got := eval(t, db, "x+y")
	if len(got) != 1 {
		t.Fatalf("answers deduplicated wrongly: %v", got)
	}
}

func TestEvalSortsPairs(t *testing.T) {
	db := New(nil)
	db.AddEdge("b", "x", "c")
	db.AddEdge("a", "x", "b")
	ps := db.Eval(regex.MustParse("x").ToNFA(alphabet.New()))
	for i := 1; i < len(ps); i++ {
		if ps[i-1].From > ps[i].From {
			t.Fatal("pairs not sorted")
		}
	}
}

func TestNodeAccessors(t *testing.T) {
	db := travelDB()
	id := db.NodeID("root")
	if id < 0 || db.NodeName(id) != "root" {
		t.Fatal("node accessors broken")
	}
	if db.NodeID("nope") != -1 {
		t.Fatal("missing node should be -1")
	}
	if db.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d, want 8", db.NumNodes())
	}
	if len(db.Out(id)) != 3 {
		t.Fatalf("Out(root) = %d edges, want 3", len(db.Out(id)))
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	db := travelDB()
	db.AddNode("isolated")
	var b strings.Builder
	if _, err := db.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(b.String()), alphabet.New())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != db.NumNodes() || back.NumEdges() != db.NumEdges() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d edges",
			back.NumNodes(), db.NumNodes(), back.NumEdges(), db.NumEdges())
	}
	// Same answers on a sample query.
	q := regex.MustParse("(rome+jerusalem)·district?·restaurant")
	if len(back.Eval(q.ToNFA(alphabet.New()))) != len(db.Eval(q.ToNFA(alphabet.New()))) {
		t.Fatal("round trip changed query answers")
	}
}

func TestReadComments(t *testing.T) {
	in := "# comment\n\na x b\nlonely\n"
	db, err := Read(strings.NewReader(in), alphabet.New())
	if err != nil {
		t.Fatal(err)
	}
	if db.NumNodes() != 3 || db.NumEdges() != 1 {
		t.Fatalf("nodes=%d edges=%d", db.NumNodes(), db.NumEdges())
	}
}

func TestReadBadLine(t *testing.T) {
	if _, err := Read(strings.NewReader("a b\n"), alphabet.New()); err == nil {
		t.Fatal("2-field line accepted")
	}
}

func TestPathDB(t *testing.T) {
	domain := alphabet.FromNames("p", "q")
	word := automata.ParseWord(domain, "p q p")
	db, first, last := PathDB(domain, word)
	if db.NumNodes() != 4 || db.NumEdges() != 3 {
		t.Fatalf("path db: %d nodes %d edges", db.NumNodes(), db.NumEdges())
	}
	// The exact word connects first to last.
	q := regex.MustParse("p·q·p")
	ps := db.Eval(q.ToNFA(alphabet.New()))
	found := false
	for _, p := range ps {
		if p.From == first && p.To == last {
			found = true
		}
	}
	if !found {
		t.Fatal("path word does not connect endpoints")
	}
}

func TestEvalSharedDomainAlphabet(t *testing.T) {
	// Automaton built on the same alphabet instance as the DB labels.
	domain := alphabet.New()
	db := New(domain)
	db.AddEdge("a", "x", "b")
	q := regex.MustParse("x").ToNFA(domain)
	if got := db.Eval(q); len(got) != 1 {
		t.Fatalf("Eval with shared alphabet = %v", got)
	}
}

func TestEvalFrom(t *testing.T) {
	db := travelDB()
	q := regex.MustParse("(rome+jerusalem)·district?·restaurant").ToNFA(alphabet.New())
	root := db.NodeID("root")
	got := db.EvalFrom(q, root)
	if len(got) != 2 {
		t.Fatalf("EvalFrom(root) = %d nodes, want 2", len(got))
	}
	// Agreement with the all-pairs answer restricted to root.
	var want []NodeID
	for _, p := range db.Eval(q) {
		if p.From == root {
			want = append(want, p.To)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("EvalFrom disagrees with Eval: %v vs %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EvalFrom order differs at %d", i)
		}
	}
	// Non-root node has no matching path.
	if rs := db.EvalFrom(q, db.NodeID("parisPage")); len(rs) != 0 {
		t.Fatalf("EvalFrom(parisPage) = %v", rs)
	}
	// Out-of-range start is rejected.
	if rs := db.EvalFrom(q, -1); rs != nil {
		t.Fatal("negative start should give nil")
	}
}

func TestEvalFromAgreesOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	db := New(nil)
	for i := 0; i < 12; i++ {
		db.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < 40; i++ {
		db.AddEdge(fmt.Sprintf("n%d", r.Intn(12)), []string{"x", "y"}[r.Intn(2)], fmt.Sprintf("n%d", r.Intn(12)))
	}
	q := regex.MustParse("x·(y+x)*").ToNFA(alphabet.New())
	all := db.Eval(q)
	for start := 0; start < db.NumNodes(); start++ {
		var want []NodeID
		for _, p := range all {
			if p.From == NodeID(start) {
				want = append(want, p.To)
			}
		}
		got := db.EvalFrom(q, NodeID(start))
		if len(got) != len(want) {
			t.Fatalf("start %d: %v vs %v", start, got, want)
		}
	}
}

func TestDOT(t *testing.T) {
	db := New(nil)
	db.AddEdge("a", "x", "b")
	dot := db.DOT("g")
	for _, frag := range []string{`digraph "g"`, `"a" -> "b" [label="x"]`} {
		if !strings.Contains(dot, frag) {
			t.Fatalf("DOT missing %q:\n%s", frag, dot)
		}
	}
}

// outListEdges is the reference edge count NumEdges must agree with:
// the sum of every node's out-list.
func outListEdges(db *DB) int {
	total := 0
	for _, es := range db.out {
		total += len(es)
	}
	return total
}

// TestNumEdgesTracksEveryAddPath: the O(1) edge count equals the sum
// of the out-lists after each add path — AddEdge (including duplicate
// edges and new nodes), AddEdgeIDs, AddNode, PathDB and Read.
func TestNumEdgesTracksEveryAddPath(t *testing.T) {
	check := func(what string, db *DB) {
		t.Helper()
		if got, want := db.NumEdges(), outListEdges(db); got != want {
			t.Fatalf("%s: NumEdges = %d, out-lists hold %d", what, got, want)
		}
	}
	db := New(nil)
	check("empty", db)
	db.AddNode("lonely")
	check("AddNode", db)
	db.AddEdge("x", "a", "y")
	db.AddEdge("x", "a", "y") // multigraph: kept twice
	db.AddEdge("y", "b", "z")
	check("AddEdge", db)
	l := db.Labels().Intern("c")
	db.AddEdgeIDs(db.NodeID("z"), l, db.NodeID("x"))
	db.AddEdgeIDs(db.AddNode("w"), l, db.NodeID("w"))
	check("AddEdgeIDs", db)
	if db.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", db.NumEdges())
	}

	sigma := alphabet.New()
	word := []alphabet.Symbol{sigma.Intern("a"), sigma.Intern("b"), sigma.Intern("a")}
	pdb, _, _ := PathDB(sigma, word)
	check("PathDB", pdb)
	if pdb.NumEdges() != len(word) {
		t.Fatalf("PathDB: NumEdges = %d, want %d", pdb.NumEdges(), len(word))
	}
	empty, _, _ := PathDB(sigma, nil)
	check("empty PathDB", empty)

	var text strings.Builder
	if _, err := travelDB().WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	read, err := Read(strings.NewReader(text.String()+"isolated\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	check("Read", read)
	if read.NumEdges() != travelDB().NumEdges() {
		t.Fatalf("Read: NumEdges = %d, want %d", read.NumEdges(), travelDB().NumEdges())
	}

	r := rand.New(rand.NewSource(3))
	rnd := New(nil)
	for i := 0; i < 200; i++ {
		rnd.AddEdge(fmt.Sprint(r.Intn(20)), fmt.Sprint(r.Intn(3)), fmt.Sprint(r.Intn(20)))
	}
	check("random AddEdge", rnd)
}
