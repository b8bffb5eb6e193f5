package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"regexrw/internal/core"
	"regexrw/internal/graph"
	"regexrw/internal/obs"
)

func parses(e *Engine) int64 { return e.Metrics().Counter("engine.parses").Value() }

// ex2Respellings are four spellings of Example 2 that canonicalize to
// one plan key: separators, whitespace, redundant parentheses.
var ex2Respellings = []Request{
	ex2,
	{Query: "a (b a + c)*", Views: map[string]string{"e1": "a", "e2": "a c* b", "e3": "c"}},
	{Query: "a.(b.a+c)*", Views: map[string]string{"e1": "(a)", "e2": "a.c*.b", "e3": "c"}},
	{Query: "((a))·((b·a)+c)*", Views: map[string]string{"e1": "a", "e2": "(a·c*)·b", "e3": " c "}},
}

// TestSpellingIndexRespellings: four respellings of Example 2, each
// sent ten times, give one plan, one compile and one parse per
// spelling; every later request of a spelling is served without a
// parse. The plan counters are those of a cache without the index.
func TestSpellingIndexRespellings(t *testing.T) {
	e := New(WithMetrics(obs.NewRegistry()))
	ctx := context.Background()
	var key Key
	for round := 0; round < 10; round++ {
		for i, req := range ex2Respellings {
			p, err := e.Rewrite(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if key == "" {
				key = p.Key()
			}
			if p.Key() != key || p.RegexString() != "e2*·e1·e3*" {
				t.Fatalf("respelling %d: key %s rewriting %s, want %s e2*·e1·e3*", i, p.Key(), p.RegexString(), key)
			}
		}
		if got := parses(e); got != int64(len(ex2Respellings)) {
			t.Fatalf("round %d: %d parses, want one per spelling (%d)", round, got, len(ex2Respellings))
		}
	}
	st := e.Stats()
	n := int64(10 * len(ex2Respellings))
	if st.Requests != n || st.Compiles != 1 || st.Hits != n-1 || st.Misses != 1 || st.CachedPlans != 1 {
		t.Fatalf("stats %+v, want %d requests, 1 compile, %d hits", st, n, n-1)
	}
	if got := e.spellings.len(); got != len(ex2Respellings) {
		t.Fatalf("index holds %d spellings, want %d", got, len(ex2Respellings))
	}
	// A pre-parsed instance bypasses the index and lands on the same plan.
	inst, err := core.ParseInstance(ex2.Query, ex2.Views)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := e.Rewrite(ctx, Request{Instance: inst}); err != nil || p.Key() != key {
		t.Fatalf("pre-parsed instance: %v, %v", p, err)
	}
	if got := parses(e); got != int64(len(ex2Respellings)) {
		t.Fatalf("a pre-parsed request parsed: %d parses", got)
	}
}

// TestSpellingIndexBounded: ten times the plan-cache capacity in
// distinct spellings never grows the index past its bound, and every
// request still gets the right plan.
func TestSpellingIndexBounded(t *testing.T) {
	const capacity = 16
	e := New(WithMetrics(obs.NewRegistry()), WithPlanCache(capacity))
	bound := spellingsPerPlan * capacity
	views := map[string]string{"e1": "a", "e2": "b"}
	for i := 0; i < 10*capacity; i++ {
		// Padding respells a·b (one plan); the star count makes new plans.
		q := "a·b" + strings.Repeat(" ", i%7) + strings.Repeat("*", i/7%3)
		p, err := e.Rewrite(context.Background(), Request{Query: q, Views: views})
		if err != nil {
			t.Fatal(err)
		}
		want := map[int]string{0: "e1·e2", 1: "e1·e2*", 2: "e1·e2*"}[i/7%3]
		if p.RegexString() != want {
			t.Fatalf("spelling %q: rewriting %s, want %s", q, p.RegexString(), want)
		}
		if n := e.spellings.len(); n > bound {
			t.Fatalf("after %d spellings the index holds %d > bound %d", i+1, n, bound)
		}
	}
	for i := 0; i < 10*capacity; i++ {
		q := fmt.Sprintf("a%s·b", strings.Repeat(" ", i))
		if _, err := e.Rewrite(context.Background(), Request{Query: q, Views: views}); err != nil {
			t.Fatal(err)
		}
		if n := e.spellings.len(); n > bound {
			t.Fatalf("index holds %d > bound %d", n, bound)
		}
	}
	// A disabled plan cache disables the index too.
	off := New(WithMetrics(obs.NewRegistry()), WithPlanCache(0))
	for i := 0; i < 3; i++ {
		if _, err := off.Rewrite(context.Background(), ex2); err != nil {
			t.Fatal(err)
		}
	}
	if off.spellings.len() != 0 || parses(off) != 3 {
		t.Fatalf("disabled cache: index %d, parses %d", off.spellings.len(), parses(off))
	}
}

// TestSpellingIndexEvictedPlanRecompiles: the index keeps a spelling's
// key after the LRU evicts its plan. The next request of that spelling
// resolves the key without a parse, misses the LRU, and its compile
// parses the instance itself and rebuilds the same plan.
func TestSpellingIndexEvictedPlanRecompiles(t *testing.T) {
	e := New(WithMetrics(obs.NewRegistry()), WithPlanCache(cacheShards)) // one plan per shard
	ctx := context.Background()
	p1, err := e.Rewrite(ctx, ex2)
	if err != nil {
		t.Fatal(err)
	}
	// Find an instance whose key shares ex2's shard, evicting it.
	var rival Request
	for n := 1; ; n++ {
		rival = Request{Query: fmt.Sprintf("a·b{%d}", n), Views: map[string]string{"e1": "a", "e2": "b"}}
		inst, err := core.ParseInstance(rival.Query, rival.Views)
		if err != nil {
			t.Fatal(err)
		}
		if e.cache.shard(InstanceKey(inst, false)) == e.cache.shard(p1.Key()) {
			break
		}
	}
	if _, err := e.Rewrite(ctx, rival); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.cache.get(p1.Key()); ok {
		t.Fatal("rival did not evict ex2's plan")
	}
	before, compiles := parses(e), e.Stats().Compiles
	p2, err := e.Rewrite(ctx, ex2)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 || p2.Key() != p1.Key() || p2.RegexString() != p1.RegexString() || p2.Instance() == nil {
		t.Fatalf("recompiled plan %s %q differs from %s %q", p2.Key(), p2.RegexString(), p1.Key(), p1.RegexString())
	}
	if got := e.Stats().Compiles - compiles; got != 1 {
		t.Fatalf("%d compiles, want 1", got)
	}
	if got := parses(e) - before; got != 1 {
		t.Fatalf("%d parses, want exactly the compile's one", got)
	}
}

// TestSpellingIndexParseError: a spelling that does not parse comes
// back as a *ParseError with the parser's message, is never indexed,
// and counts no request.
func TestSpellingIndexParseError(t *testing.T) {
	e := New(WithMetrics(obs.NewRegistry()))
	bad := Request{Query: "a·(", Views: map[string]string{"e1": "a"}}
	_, want := core.ParseInstance(bad.Query, bad.Views)
	for i := 0; i < 2; i++ {
		_, err := e.Rewrite(context.Background(), bad)
		var pe *ParseError
		if !errors.As(err, &pe) || err.Error() != want.Error() {
			t.Fatalf("error %v (%T), want *ParseError %q", err, err, want)
		}
	}
	if e.spellings.len() != 0 || e.Stats().Requests != 0 || parses(e) != 2 {
		t.Fatalf("index %d, requests %d, parses %d", e.spellings.len(), e.Stats().Requests, parses(e))
	}
}

// TestQueryModeQueryRestoredPlan: a plan restored from the store has no
// instance, so ModeQuery parses the request to determinize E0 when it
// builds the evaluator — and only then: a warm evaluator answers the
// next request without a parse.
func TestQueryModeQueryRestoredPlan(t *testing.T) {
	dir := t.TempDir()
	e1 := newStoreEngine(t, openStore(t, dir))
	if _, err := e1.Rewrite(context.Background(), ex2); err != nil {
		t.Fatal(err)
	}
	e1.FlushStore()

	db := graph.New(nil)
	db.AddEdge("x", "a", "y")
	db.AddEdge("y", "b", "z")
	db.AddEdge("z", "a", "w")
	e2 := newStoreEngine(t, openStore(t, dir))
	req := QueryRequest{Request: ex2, Graph: db, Mode: ModeQuery, Source: "x"}
	for round := 0; round < 3; round++ {
		res, err := e2.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(answers(res.Answers)); got != "[x→w x→y]" {
			t.Fatalf("round %d: answers %s", round, got)
		}
		if res.Plan.Instance() != nil {
			t.Fatal("plan was compiled, not restored")
		}
		// The request's own parse (index miss) plus the evaluator's.
		if got := parses(e2); got != 2 {
			t.Fatalf("round %d: %d parses, want 2", round, got)
		}
	}
	st := e2.Stats()
	if st.Compiles != 0 || st.StoreLoads != 1 {
		t.Fatalf("stats %+v, want a store load and no compile", st)
	}
	if m := e2.Metrics().Counter("cache.eval.misses").Value(); m != 1 {
		t.Fatalf("%d evaluator misses, want 1", m)
	}
}

// TestRestoredPlanRegexString: a restored plan serves the stored
// rewriting text, identical to rendering its expression.
func TestRestoredPlanRegexString(t *testing.T) {
	dir := t.TempDir()
	e1 := newStoreEngine(t, openStore(t, dir))
	reqs := append([]Request{{Query: "a·b+b", Views: map[string]string{"e1": "a", "e2": "b", "e3": "a·b"}}}, ex2Respellings[:1]...)
	var compiled []*Plan
	for _, req := range reqs {
		p, err := e1.Rewrite(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		compiled = append(compiled, p)
	}
	e1.FlushStore()
	e2 := newStoreEngine(t, openStore(t, dir))
	for i, req := range reqs {
		p, err := e2.Rewrite(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if p.Rewriting() != nil {
			t.Fatal("plan was compiled, not restored")
		}
		if p.RegexString() != p.Regex().String() || p.RegexString() != compiled[i].RegexString() {
			t.Fatalf("restored text %q, expression %q, compiled %q", p.RegexString(), p.Regex(), compiled[i].RegexString())
		}
	}
}

// TestAppendSpellingUnambiguous: the length prefixes keep requests that
// concatenate to the same text apart.
func TestAppendSpellingUnambiguous(t *testing.T) {
	pairs := [][2]Request{
		{{Query: "ab", Views: map[string]string{"e": "c"}}, {Query: "a", Views: map[string]string{"be": "c"}}},
		{{Query: "a", Views: map[string]string{"e1": "b", "e2": "c"}}, {Query: "a", Views: map[string]string{"e1": "b\x01\x02e2\x01c"}}},
		{{Query: "a"}, {Query: "a", Partial: true}},
		{{Query: "a", Views: map[string]string{}}, {Query: "a", Views: map[string]string{"": ""}}},
	}
	for _, p := range pairs {
		a := appendSpelling(nil, p[0].Query, p[0].Views, p[0].Partial)
		b := appendSpelling(nil, p[1].Query, p[1].Views, p[1].Partial)
		if bytes.Equal(a, b) {
			t.Fatalf("%+v and %+v share the spelling %q", p[0], p[1], a)
		}
	}
	// View order never matters: the map has none.
	a := appendSpelling(nil, ex2.Query, ex2.Views, false)
	views := map[string]string{}
	for _, name := range []string{"e3", "e1", "e2"} {
		views[name] = ex2.Views[name]
	}
	if !bytes.Equal(a, appendSpelling(nil, ex2.Query, views, false)) {
		t.Fatal("view insertion order changed the spelling")
	}
}

// TestSpellingIndexConcurrent: goroutines sending the same respellings
// and a churn of fresh spellings through a small index at once all get
// the right plan, and the index stays within its bound.
func TestSpellingIndexConcurrent(t *testing.T) {
	const capacity = 8
	e := New(WithMetrics(obs.NewRegistry()), WithPlanCache(capacity))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				req := ex2Respellings[(g+i)%len(ex2Respellings)]
				want := "e2*·e1·e3*"
				if i%3 == 0 { // a fresh spelling of e1·e2
					req = Request{Query: "a·b" + strings.Repeat(" ", g*40+i), Views: map[string]string{"e1": "a", "e2": "b"}}
					want = "e1·e2"
				}
				p, err := e.Rewrite(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				if p.RegexString() != want {
					t.Errorf("%q: rewriting %s, want %s", req.Query, p.RegexString(), want)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := e.spellings.len(); n > spellingsPerPlan*capacity {
		t.Fatalf("index holds %d > bound %d", n, spellingsPerPlan*capacity)
	}
}
