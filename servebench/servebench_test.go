package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	regexrwclient "regexrw/client"
	"regexrw/internal/graph"
	"regexrw/internal/regex"
)

// streamBytes serializes the first n requests of the two measured
// streams: body, expected key and sampling flag.
func streamBytes(t *testing.T, name string, seed int64, n int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for c := 0; c < measuredClients; c++ {
		st := w.stream(c)
		for j := 0; j < n; j++ {
			req := st.next()
			body, err := json.Marshal(req.body())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%d %s %s %v\n", c, body, req.key, req.sample)
		}
	}
	return buf.Bytes()
}

func TestStreamIsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a := streamBytes(t, name, 7, 300)
		b := streamBytes(t, name, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", name)
		}
		if c := streamBytes(t, name, 8, 300); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
}

func TestRespellingsShareAPlanKey(t *testing.T) {
	// buildRewriteHot fails if any respelling parses to another key.
	for seed := int64(1); seed <= 20; seed++ {
		w, err := newWorkload(wRewriteHot, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(w.pool) < 200 || len(w.pool) > 1024 {
			t.Fatalf("seed %d: pool of %d plans, want a few hundred within the 1024-plan LRU", seed, len(w.pool))
		}
		for _, entry := range w.pool {
			spelled := map[string]bool{}
			for _, r := range entry {
				body, _ := json.Marshal(r.body())
				spelled[string(body)] = true
			}
			if len(spelled) < 2 {
				t.Fatalf("seed %d: pool entry %d has no distinct respellings", seed, entry[0].item)
			}
		}
	}
}

func TestCompileColdKeysNeverRepeat(t *testing.T) {
	w, err := newWorkload(wCompileCold, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	families := map[string]int{}
	for c := 0; c < measuredClients+warmupClientOff; c++ {
		st := w.stream(c)
		for j := 0; j < 1500; j++ {
			req := st.next()
			if seen[req.key] {
				t.Fatalf("client %d request %d repeats plan key %s", c, j, req.key)
			}
			seen[req.key] = true
			families[req.family]++
		}
	}
	if families["detblowup"] == 0 || families["site"] == 0 || families["random"] < families["site"] {
		t.Fatalf("unexpected family mix %v", families)
	}
}

func TestCompileColdMixIsStratified(t *testing.T) {
	w, err := newWorkload(wCompileCold, 5)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < measuredClients; c++ {
		st := w.stream(c)
		ns := map[int]int{}
		for k := 0; k < coldN5Every; k++ {
			families := map[string]int{}
			for i := 0; i < coldBlock; i++ {
				req := st.next()
				families[req.family]++
				ns[req.n]++
			}
			if families["detblowup"] != 1 || families["site"] != coldSitePerBlk || families["random"] != coldBlock-1-coldSitePerBlk {
				t.Fatalf("client %d block %d: mix %v, want 1 detblowup, %d site, the rest random", c, k, families, coldSitePerBlk)
			}
		}
		if ns[5] != 1 || ns[4] != coldN5Every/4 || ns[3] != coldN5Every-1-coldN5Every/4 {
			t.Fatalf("client %d: DetBlowup n counts %v over %d blocks, want one n=5 and a quarter n=4", c, ns, coldN5Every)
		}
	}
}

func TestWindowsKeepWholeWindowsOnly(t *testing.T) {
	at := func(ms int) sample { return sample{end: time.Duration(ms) * time.Millisecond, lat: time.Millisecond} }
	ws := windows(samples{at(200), at(900), at(1500), at(2700)}, 2800*time.Millisecond, time.Second)
	if len(ws) != 2 || len(ws[0]) != 2 || len(ws[1]) != 1 {
		t.Fatalf("windows %v, want two whole windows holding 2 and 1 samples (the partial third dropped)", ws)
	}
}

func TestWindowMedianIgnoresASlowMinority(t *testing.T) {
	ws := make([]samples, 5)
	for i, n := range []int{100, 10, 100, 10, 100} {
		ws[i] = make(samples, n)
	}
	if got := windowMedian(ws, func(w samples) float64 { return float64(len(w)) }); got != 100 {
		t.Fatalf("median over windows = %v, want 100: two slow windows of five must not move it", got)
	}
}

func TestCalmWindowsChooseByStealOnly(t *testing.T) {
	ws := make([]samples, 4)
	for i := range ws {
		ws[i] = make(samples, i+1)
	}
	ms := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	got := calmWindows(ws, ms(0, 50, 10, 80))
	if len(got) != 2 || len(got[0]) != 1 || len(got[1]) != 3 {
		t.Fatalf("kept windows of sizes %v, want the two with the least steal (1 and 3)", sizes(got))
	}
	if got := calmWindows(ws, ms(0, 0, 0, 0)); len(got) != 4 {
		t.Fatalf("without steal kept %d windows, want all 4", len(got))
	}
	if got := calmWindows(ws, nil); len(got) != 4 {
		t.Fatalf("without steal readings kept %d windows, want all 4", len(got))
	}
}

func sizes(ws []samples) []int {
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = len(w)
	}
	return out
}

func TestWindowP99NeedsHalfTheWindowsSupported(t *testing.T) {
	win := func(n int) samples {
		w := make(samples, n)
		for i := range w {
			w[i].lat = time.Duration(i+1) * time.Microsecond
		}
		return w
	}
	if v, n, ok := windowP99([]samples{win(1000), win(2000), win(500)}); !ok || n != 2 || v != 990 {
		t.Fatalf("two of three windows supported: p99 %v over %d windows (ok %v), want 990 over 2", v, n, ok)
	}
	if _, n, ok := windowP99([]samples{win(1000), win(500), win(500)}); ok || n != 1 {
		t.Fatalf("one of three windows supported: %d supported, ok %v; want no window p99", n, ok)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", ID: 2, Parent: 0, Start: 20, End: 50},    // overlaps a
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120},   // runs past root
		{Name: "a1", ID: 4, Parent: 1, Start: 12, End: 18},   // grandchild
		{Name: "d", ID: 5, Parent: -1, Start: 200, End: 210}, // another root
	}
	want := []int64{
		100 - 50, // [10,50] ∪ [90,100] covered
		20 - 6,
		30,
		30,
		6,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestP99NeedsTenSamplesBeyondIt(t *testing.T) {
	mk := func(n int) dist {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return newDistF(xs)
	}
	if _, ok := mk(999).p99(); ok {
		t.Error("999 samples leave 9 beyond p99 but p99 was reported")
	}
	v, ok := mk(1000).p99()
	if !ok || v != 990 {
		t.Errorf("1000 samples: p99 = %v (supported %v), want 990", v, ok)
	}
	if v, q := mk(500).highestSupported(); q != "p90" || v != 450 {
		t.Errorf("500 samples: highest supported %s = %v, want p90 = 450", q, v)
	}
	if _, q := mk(50).highestSupported(); q != "p50" {
		t.Errorf("50 samples: highest supported %s, want p50", q)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3, _ := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func ex2Request() *request {
	q, views := example2()
	return &request{ep: epRewrite, family: "example2", rewrite: regexrwclient.RewriteRequest{Query: q, Views: views}}
}

func TestCheckerRejectsPlantedWrongRewriting(t *testing.T) {
	req := ex2Request()
	good := &regexrwclient.PlanResponse{Rewriting: "e2*·e1·e3*", Exact: true, Verdict: "yes"}
	if err := checkRewriteSound(req, good); err != nil {
		t.Fatalf("Example 2's rewriting rejected: %v", err)
	}
	// e1·e2 expands to a·a·c*·b, which is not in a·(b·a+c)*.
	bad := &regexrwclient.PlanResponse{Rewriting: "e2*·e1·e3*+e1·e2", Exact: true, Verdict: "yes"}
	if err := checkRewriteSound(req, bad); err == nil {
		t.Fatal("unsound rewriting accepted")
	}
	// A witness outside L(E0).
	wit := &regexrwclient.PlanResponse{Rewriting: "e2*·e1", Verdict: "no", Witness: []string{"b"}}
	if err := checkRewriteSound(req, wit); err == nil {
		t.Fatal("witness outside L(E0) accepted")
	}
	// A DetBlowup rewriting for the wrong n is sound but not the
	// hand-written language.
	q, views := detBlowup(3, "_0_0")
	det := &request{ep: epRewrite, family: "detblowup", n: 3, rewrite: regexrwclient.RewriteRequest{Query: q, Views: views}}
	right := &regexrwclient.PlanResponse{Rewriting: detBlowupExpected(3, "va_0_0", "vb_0_0"), Exact: true, Verdict: "yes"}
	if err := checkRewriteSound(det, right); err != nil {
		t.Fatalf("hand-written DetBlowup rewriting rejected: %v", err)
	}
	wrong := &regexrwclient.PlanResponse{Rewriting: detBlowupExpected(4, "va_0_0", "vb_0_0"), Exact: true, Verdict: "yes"}
	if err := checkRewriteSound(det, wrong); err == nil || !strings.Contains(err.Error(), "hand-written") {
		t.Fatalf("DetBlowup rewriting for n=4 accepted for n=3: %v", err)
	}
	// rewrite-hot compares every answer field with the fill's answer.
	other := *good
	other.Rewriting = "e1·e3*"
	if err := samePlan(&other, good); err == nil {
		t.Fatal("changed rewriting passed samePlan")
	}
}

// ndjsonServer answers /v1/query with the given body at HTTP 200.
func ndjsonServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, body)
	}))
}

func TestFailedStreamsCountAsFailures(t *testing.T) {
	header := `{"type":"header","key":"k","rewriting":"e1","mode":"query","graph":"g"}` + "\n"
	answer := `{"type":"answer","from":"p0","to":"p1"}` + "\n"
	cases := map[string]string{
		"no trailer":        header + answer,
		"mid-stream error":  header + answer + `{"type":"error","error":{"v":2,"code":"bad_request","message":"unknown node"}}` + "\n",
		"cap exceeded":      header + answer + answer + `{"type":"trailer","answers":2}` + "\n",
		"wrong key":         strings.Replace(header, `"k"`, `"other"`, 1) + `{"type":"trailer","answers":0}` + "\n",
		"truncated too few": header + answer + `{"type":"trailer","answers":1,"truncated":true}` + "\n",
	}
	chk := &checker{rewritings: []string{"e1"}}
	req := &request{ep: epQuery, item: 0, key: "k", query: regexrwclient.QueryRequest{Graph: "g", Mode: "query", Source: "p0", MaxAnswers: 1}}
	for name, body := range cases {
		srv := ndjsonServer(t, body)
		c, err := newLoadClient(srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if name == "truncated too few" {
			req.query.MaxAnswers = 2
		}
		rec := &recorder{}
		rec.record(chk, req, c.send(context.Background(), req, false))
		if rec.failed != 1 || len(rec.samples) != 0 {
			t.Errorf("%s: failed=%d successes=%d, want one failure", name, rec.failed, len(rec.samples))
		}
		req.query.MaxAnswers = 1
		c.close()
		srv.Close()
	}
	// A complete stream passes.
	srv := ndjsonServer(t, header+answer+`{"type":"trailer","answers":1}`+"\n")
	defer srv.Close()
	c, err := newLoadClient(srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	rec := &recorder{}
	rec.record(chk, req, c.send(context.Background(), req, false))
	if rec.failed != 0 || len(rec.samples) != 1 || len(rec.samples.firsts()) != 1 {
		t.Fatalf("complete stream: failed=%d successes=%d firsts=%d %v", rec.failed, len(rec.samples), len(rec.samples.firsts()), rec.failures)
	}
}

func TestReferenceBFS(t *testing.T) {
	db := graph.New(nil)
	db.AddEdge("n0", "a", "n1")
	db.AddEdge("n1", "b", "n2")
	db.AddEdge("n2", "a", "n3")
	db.AddEdge("n1", "c", "n1")
	db.AddEdge("n3", "c", "n4")
	cases := map[string][]string{
		"a·(b·a+c)*": {"n1", "n3", "n4"},
		"a·b":        {"n2"},
		"(a+b+c)*":   {"n0", "n1", "n2", "n3", "n4"},
		"b":          {},
	}
	for expr, want := range cases {
		got := refAnswers(regex.MustParse(expr), db, db.NodeID("n0"))
		if len(got) != len(want) {
			t.Errorf("%s: %d answers, want %v", expr, len(got), want)
		}
		for _, n := range want {
			if !got[db.NodeID(n)] {
				t.Errorf("%s: missing %s", expr, n)
			}
		}
	}
}

func TestFailedDeepCheckIsNoSuccess(t *testing.T) {
	chk := &checker{w: &workloadSpec{name: wCompileCold}}
	rec := &recorder{}
	for _, rw := range []string{"e2*·e1·e3*", "e2*·e1·e3*+e1·e2"} { // sound, then unsound
		req := ex2Request()
		req.sample = true
		key, err := req.planKey()
		if err != nil {
			t.Fatal(err)
		}
		req.key = key
		plan := &regexrwclient.PlanResponse{Key: key, Rewriting: rw, Exact: true, Verdict: "yes"}
		rec.record(chk, req, reply{plan: plan, lat: time.Duration(len(rw)) * time.Microsecond})
	}
	if rec.failed != 0 || len(rec.samples) != 2 || rec.samples.good(time.Second) != 2 || rec.samples.answers() != 2 {
		t.Fatalf("before deep checks: failed=%d successes=%d good=%d answers=%d", rec.failed, len(rec.samples), rec.samples.good(time.Second), rec.samples.answers())
	}
	if n := chk.runDeep(rec); n != 2 {
		t.Fatalf("ran %d deep checks, want 2", n)
	}
	if rec.failed != 1 || len(rec.samples) != 1 || rec.samples.good(time.Second) != 1 || rec.samples.answers() != 1 || chk.mismatches.Load() != 1 {
		t.Fatalf("after deep checks: failed=%d successes=%d good=%d answers=%d mismatches=%d, want the unsound response taken back",
			rec.failed, len(rec.samples), rec.samples.good(time.Second), rec.samples.answers(), chk.mismatches.Load())
	}
	if want := time.Duration(len("e2*·e1·e3*")) * time.Microsecond; rec.samples[0].lat != want {
		t.Fatalf("kept latency %v, want the sound response's %v", rec.samples[0].lat, want)
	}
}

func TestCounterPredictionsAreChecked(t *testing.T) {
	phaseWith := func(attempted int, counters map[string]float64) *phase {
		after := map[string]float64{}
		for n, v := range counters {
			after["regexrw_"+strings.ReplaceAll(n, ".", "_")] = v
		}
		return &phase{before: map[string]float64{}, after: after, rec: &recorder{attempted: attempted}}
	}
	cases := []struct {
		workload  string
		attempted int
		counters  map[string]float64
		ok        bool
	}{
		{wRewriteHot, 10, map[string]float64{"cache.plan.hits": 10}, true},
		{wRewriteHot, 10, map[string]float64{"cache.plan.hits": 9, "cache.plan.misses": 1, "engine.compiles": 1}, false},
		{wCompileCold, 10, map[string]float64{"cache.plan.misses": 10, "engine.compiles": 10}, true},
		{wCompileCold, 10, map[string]float64{"cache.plan.hits": 2, "cache.plan.misses": 8, "engine.compiles": 8}, false},
		{wQueryStream, 10, map[string]float64{"cache.plan.hits": 10, "cache.eval.hits": 10}, true},
		{wQueryStream, 10, map[string]float64{"cache.plan.hits": 10, "cache.eval.hits": 9, "cache.eval.misses": 1}, false},
	}
	for i, c := range cases {
		s := newSession(&workloadSpec{name: c.workload}, "", "")
		s.checkCounters(phaseWith(c.attempted, c.counters))
		if got := s.chk.mismatches.Load() == 0; got != c.ok {
			t.Errorf("case %d (%s): prediction held=%v, want %v (%v)", i, c.workload, got, c.ok, s.notes)
		}
	}
}

func TestServerPathLeavesOutTheKey(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 0, Parent: -1, Req: 0, Start: 0, End: 200},
		{Name: "server.path", ID: 1, Parent: 0, Req: 0, Start: 20, End: 120_000},
		{Name: "engine.key", ID: 2, Parent: 1, Req: 0, Start: 30_000, End: 50_000},
	}
	got := serverPathUs(spans)
	if len(got) != 1 || got[0] != 99.98 {
		t.Fatalf("server path %v µs, want [99.98]", got)
	}
}
