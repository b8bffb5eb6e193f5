package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"regexrw/internal/budget"
	"regexrw/internal/obs"
	"regexrw/internal/rpq"
	"regexrw/internal/theory"
	"regexrw/internal/workload"
)

var ex2 = Request{
	Query: "a·(b·a+c)*",
	Views: map[string]string{"e1": "a", "e2": "a·c*·b", "e3": "c"},
}

func TestEngineRewriteEX2(t *testing.T) {
	e := New(WithMetrics(obs.NewRegistry()))
	p, err := e.Rewrite(context.Background(), ex2)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Regex().String(); got != "e2*·e1·e3*" {
		t.Fatalf("rewriting = %s, want e2*·e1·e3*", got)
	}
	if !p.IsExact() {
		t.Fatalf("expected exact, got %v", p.Exactness().Verdict)
	}
	if !p.Accepts("e2", "e1", "e3") || p.Accepts("e3") {
		t.Fatal("acceptance through the plan disagrees with the paper's Example 2")
	}
	if w, ok := p.ShortestWord(); !ok || len(w) == 0 {
		t.Fatalf("expected a shortest witness word, got %v/%v", w, ok)
	}
	if p.States() <= 0 {
		t.Fatalf("cold compile should charge states, got %d", p.States())
	}
	if p.MinimalDFA().NumStates() == 0 {
		t.Fatal("expected a nonempty minimal DFA")
	}

	// The second identical request — spelled differently — is a cache
	// hit returning the same immutable plan.
	respelled := Request{
		Query: "a (b a + c)*",
		Views: map[string]string{"e3": "c", "e2": "a.c* . b", "e1": "a"},
	}
	p2, err := e.Rewrite(context.Background(), respelled)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatal("respelled instance missed the plan cache")
	}
	s := e.Stats()
	if s.Compiles != 1 || s.Hits != 1 || s.Misses != 1 || s.Requests != 2 {
		t.Fatalf("stats = %+v, want 1 compile, 1 hit, 1 miss, 2 requests", s)
	}
}

func TestEngineSingleflightDedup(t *testing.T) {
	e := New(WithMetrics(obs.NewRegistry()))
	const n = 32
	var wg sync.WaitGroup
	plans := make([]*Plan, n)
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			plans[i], errs[i] = e.Rewrite(context.Background(), ex2)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("request %d got a different plan instance", i)
		}
	}
	s := e.Stats()
	if s.Compiles != 1 {
		t.Fatalf("singleflight should compile exactly once, compiled %d times", s.Compiles)
	}
	if s.Hits+s.Misses != n {
		t.Fatalf("every request is a lookup: hits %d + misses %d != %d", s.Hits, s.Misses, n)
	}
	// Every miss either led the compile or joined it.
	if s.Misses != s.Compiles+s.Dedups {
		t.Fatalf("misses %d != compiles %d + dedups %d", s.Misses, s.Compiles, s.Dedups)
	}
}

func TestEngineConcurrentDistinct(t *testing.T) {
	e := New(WithMetrics(obs.NewRegistry()))
	const distinct, repeat = 8, 4
	var wg sync.WaitGroup
	errCh := make(chan error, distinct*repeat)
	for d := 0; d < distinct; d++ {
		req := Request{
			Query: fmt.Sprintf("a·b{%d}", d+1),
			Views: map[string]string{"e1": "a", "e2": "b"},
		}
		for r := 0; r < repeat; r++ {
			wg.Add(1)
			go func(req Request) {
				defer wg.Done()
				if _, err := e.Rewrite(context.Background(), req); err != nil {
					errCh <- err
				}
			}(req)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Compiles != distinct {
		t.Fatalf("expected %d compiles (one per distinct instance), got %d", distinct, s.Compiles)
	}
	if s.CachedPlans != distinct {
		t.Fatalf("expected %d cached plans, got %d", distinct, s.CachedPlans)
	}
}

// TestEngineStatsReconcileWithMetrics drives a mixed workload — misses,
// hits, evictions — through an engine with a private registry and
// checks that the Stats counters and the obs metrics tell the same
// story.
func TestEngineStatsReconcileWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	// Tiny cache: one entry per shard, so distinct instances sharing a
	// shard evict each other.
	e := New(WithMetrics(reg), WithPlanCache(cacheShards))
	ctx := context.Background()
	req := func(i int) Request {
		return Request{
			Query: fmt.Sprintf("a·b{%d}", i+1),
			Views: map[string]string{"e1": "a", "e2": "b"},
		}
	}
	// 40 distinct instances into 16 slots: evictions are guaranteed.
	for i := 0; i < 40; i++ {
		if _, err := e.Rewrite(ctx, req(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The most recent instance is MRU in its shard: a guaranteed hit.
	for r := 0; r < 5; r++ {
		if _, err := e.Rewrite(ctx, req(39)); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Evictions == 0 {
		t.Fatal("expected evictions from the tiny cache")
	}
	if s.Hits != 5 {
		t.Fatalf("hits = %d, want 5 warm hits", s.Hits)
	}
	for name, want := range map[string]int64{
		"engine.requests":      s.Requests,
		"engine.compiles":      s.Compiles,
		"cache.plan.hits":      s.Hits,
		"cache.plan.misses":    s.Misses,
		"cache.plan.dedup":     s.Dedups,
		"cache.plan.evictions": s.Evictions,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("metric %s = %d, Stats says %d", name, got, want)
		}
	}
	if got := reg.Gauge("cache.plan.size").Value(); got != int64(s.CachedPlans) {
		t.Errorf("gauge cache.plan.size = %d, Stats says %d", got, s.CachedPlans)
	}
	if s.Hits+s.Misses != s.Requests {
		t.Errorf("hits %d + misses %d != requests %d", s.Hits, s.Misses, s.Requests)
	}
}

func TestEngineBudgetDefaults(t *testing.T) {
	e := New(WithBudgetDefaults(50, 0), WithMetrics(obs.NewRegistry()))
	_, err := e.Rewrite(context.Background(), Request{Instance: workload.DetBlowupFamily(10)})
	var ex *budget.ExceededError
	if !errors.As(err, &ex) {
		t.Fatalf("expected *budget.ExceededError, got %v", err)
	}
	if ex.Stage == "" {
		t.Fatal("exceeded error must name the stage that gave out")
	}
	// Failed compiles are not cached: the next request compiles again.
	_, _ = e.Rewrite(context.Background(), Request{Instance: workload.DetBlowupFamily(10)})
	if s := e.Stats(); s.Compiles != 2 {
		t.Fatalf("failed compiles must not be cached, compiles = %d", s.Compiles)
	}
}

func TestEngineRequestTightensBudget(t *testing.T) {
	e := New(WithBudgetDefaults(1_000_000, 0), WithMetrics(obs.NewRegistry()))
	_, err := e.Rewrite(context.Background(), Request{
		Instance:  workload.DetBlowupFamily(10),
		MaxStates: 50,
	})
	var ex *budget.ExceededError
	if !errors.As(err, &ex) {
		t.Fatalf("per-request MaxStates should trip, got %v", err)
	}
	if ex.Limit != 50 {
		t.Fatalf("tripped at limit %d, want the request's 50", ex.Limit)
	}
	// A request cannot widen the engine's cap.
	e2 := New(WithBudgetDefaults(50, 0), WithMetrics(obs.NewRegistry()))
	_, err = e2.Rewrite(context.Background(), Request{
		Instance:  workload.DetBlowupFamily(10),
		MaxStates: 1_000_000,
	})
	if !errors.As(err, &ex) {
		t.Fatalf("request must not widen the engine cap, got %v", err)
	}
	if ex.Limit != 50 {
		t.Fatalf("tripped at limit %d, want the engine's 50", ex.Limit)
	}
}

func TestEngineAdmission(t *testing.T) {
	e := New(WithAdmissionLimit(1, 0), WithMetrics(obs.NewRegistry()))
	// Stall the first compile inside the pipeline with a blocking budget
	// hook on the caller's context.
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	stall := budget.New(budget.WithHook(func(string) error {
		once.Do(func() { close(entered); <-release })
		return nil
	}))
	done := make(chan error, 1)
	go func() {
		_, err := e.Rewrite(budget.With(context.Background(), stall), ex2)
		done <- err
	}()
	<-entered

	// A distinct instance now finds the single compile slot taken and
	// the queue (capacity 0) full.
	_, err := e.Rewrite(context.Background(), Request{
		Query: "a·a", Views: map[string]string{"e1": "a"},
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("expected *AdmissionError, got %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("stalled compile should finish cleanly: %v", err)
	}
	if s := e.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}
}

func TestEngineClosed(t *testing.T) {
	e := New()
	e.Close()
	if _, err := e.Rewrite(context.Background(), ex2); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

func TestEngineBatch(t *testing.T) {
	e := New(WithWorkers(4), WithMetrics(obs.NewRegistry()))
	reqs := []Request{
		ex2,
		{Query: "a·(", Views: map[string]string{"e1": "a"}},     // parse error
		{Instance: workload.DetBlowupFamily(10), MaxStates: 50}, // budget error
		ex2, // duplicate of [0]: served by cache or singleflight
	}
	results := e.RewriteBatch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	if results[0].Err != nil || results[0].Plan == nil {
		t.Fatalf("item 0: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("item 1 should fail to parse")
	}
	var ex *budget.ExceededError
	if !errors.As(results[2].Err, &ex) {
		t.Fatalf("item 2 should exhaust its budget, got %v", results[2].Err)
	}
	if results[3].Err != nil || results[3].Plan != results[0].Plan {
		t.Fatal("item 3 should share item 0's plan")
	}
	if s := e.Stats(); s.Compiles > 3 {
		t.Fatalf("identical batch items must compile once, compiles = %d", s.Compiles)
	}
}

func TestEngineSubmit(t *testing.T) {
	e := New(WithMetrics(obs.NewRegistry()))
	h := e.Submit(context.Background(), ex2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := h.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Regex().String(); got != "e2*·e1·e3*" {
		t.Fatalf("async rewriting = %s", got)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done must be closed after Result returns")
	}
}

func TestEngineRPQ(t *testing.T) {
	tt := theory.New()
	tt.AddConstants("a", "b", "c")
	q, err := rpq.ParseQuery("fa·(fb+fc)", map[string]string{
		"fa": "=a", "fb": "=b", "fc": "=c",
	})
	if err != nil {
		t.Fatal(err)
	}
	views := []rpq.View{
		{Name: "q1", Query: rpq.Atomic("fa", theory.Eq("a"))},
		{Name: "q2", Query: rpq.Atomic("fb", theory.Eq("b"))},
		{Name: "q3", Query: rpq.Atomic("fc", theory.Eq("c"))},
	}
	e := New(WithMetrics(obs.NewRegistry()))
	req := RPQRequest{Query: q, Views: views, Theory: tt, Method: rpq.Grounded}
	p, err := e.RewriteRPQ(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if p.RPQ() == nil {
		t.Fatal("expected an RPQ plan")
	}
	if !p.IsExact() {
		t.Fatalf("q1·(q2+q3) should rewrite fa·(fb+fc) exactly, verdict %v", p.Exactness().Verdict)
	}
	if !p.Accepts("q1", "q2") || !p.Accepts("q1", "q3") || p.Accepts("q2") {
		t.Fatal("RPQ plan acceptance disagrees with the expected rewriting")
	}
	// Warm: same problem again is a hit on the same plan.
	p2, err := e.RewriteRPQ(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatal("identical RPQ request missed the cache")
	}
	// The direct method is a distinct plan.
	p3, err := e.RewriteRPQ(context.Background(), RPQRequest{Query: q, Views: views, Theory: tt, Method: rpq.Direct})
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p {
		t.Fatal("a different method must compile a different plan")
	}
	if s := e.Stats(); s.Compiles != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 compiles and 1 hit", s)
	}
}

func TestEnginePartialRequest(t *testing.T) {
	e := New(WithMetrics(obs.NewRegistry()))
	// No view covers c, so the maximal rewriting is not exact and the
	// partial search must add an elementary view.
	req := Request{
		Query:   "a·(b·a+c)*",
		Views:   map[string]string{"e1": "a", "e2": "a·c*·b"},
		Partial: true,
	}
	p, err := e.Rewrite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsExact() {
		t.Fatal("expected a non-exact rewriting")
	}
	if len(p.Witness()) == 0 {
		t.Fatal("a non-exact plan must carry a witness")
	}
	if p.Partial() == nil || !p.Partial().Exact {
		t.Fatalf("expected an exact partial extension, got %+v", p.Partial())
	}
	// The extension's expression is stored on the plan at compile time.
	if got, want := p.PartialRegexString(), p.Partial().Result.Rewriting.Regex().String(); got == "" || got != want {
		t.Fatalf("PartialRegexString() = %q, want %q", got, want)
	}
	// The same instance without Partial is a different cache entry and
	// carries no partial result.
	plain, err := e.Rewrite(context.Background(), Request{Query: req.Query, Views: req.Views})
	if err != nil {
		t.Fatal(err)
	}
	if plain == p || plain.Partial() != nil || plain.PartialRegexString() != "" {
		t.Fatal("partial and plain plans must be distinct cache entries")
	}
}

// TestPlanConcurrentReads hammers one cached plan from many goroutines
// under the race detector: every accessor reads only precomputed state.
func TestPlanConcurrentReads(t *testing.T) {
	e := New(WithMetrics(obs.NewRegistry()))
	p, err := e.Rewrite(context.Background(), ex2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = p.Regex().String()
				_ = p.IsExact()
				_, _ = p.ShortestWord()
				_ = p.Accepts("e2", "e1", "e3")
				_ = p.MinimalDFA().NumStates()
				_ = p.IsSigmaEmpty()
				_ = p.Rewriting().IsEmpty()
			}
		}()
	}
	wg.Wait()
}

// TestEngineObservability checks the engine's span names appear in a
// per-request trace.
func TestEngineObservability(t *testing.T) {
	e := New(WithMetrics(obs.NewRegistry()))
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := e.Rewrite(ctx, ex2); err != nil {
		t.Fatal(err)
	}
	root := tr.Export()
	if root == nil {
		t.Fatal("expected a trace")
	}
	var names []string
	var walk func(s *obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		names = append(names, s.Name)
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	want := map[string]bool{"engine.rewrite": false, "engine.compile": false, "core.maximal_rewriting": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("span %s missing from trace %v", n, names)
		}
	}
}
