package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"regexrw/internal/core"
	"regexrw/internal/engine"
	"regexrw/internal/obs"
	"regexrw/internal/regex"
	"regexrw/internal/workload"
)

func testServer(t *testing.T, opts ...engine.Option) (*httptest.Server, *engine.Engine) {
	t.Helper()
	opts = append([]engine.Option{engine.WithMetrics(obs.NewRegistry())}, opts...)
	eng := engine.New(opts...)
	ts := httptest.NewServer(newServer(eng, nil, nil))
	t.Cleanup(ts.Close)
	return ts, eng
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func decode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return v
}

type errorEnvelope struct {
	Error errorJSON `json:"error"`
}

func TestServeRewriteRoundTrip(t *testing.T) {
	ts, eng := testServer(t)
	req := rewriteRequest{
		Query: "a·(b·a+c)*",
		Views: map[string]string{"e1": "a", "e2": "a·c*·b", "e3": "c"},
	}
	resp, raw := post(t, ts.URL+"/v1/rewrite", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	got := decode[planResponse](t, raw)
	if got.Rewriting != "e2*·e1·e3*" {
		t.Fatalf("rewriting = %q", got.Rewriting)
	}
	if !got.Exact || got.Verdict != "yes" {
		t.Fatalf("exactness = %v/%s", got.Exact, got.Verdict)
	}
	if got.Empty || got.SigmaEmpty {
		t.Fatal("the Example 2 rewriting is nonempty")
	}
	if got.States <= 0 {
		t.Fatalf("states = %d", got.States)
	}

	// The same problem, spelled differently, is a warm hit on the same
	// plan key.
	resp2, raw2 := post(t, ts.URL+"/v1/rewrite", rewriteRequest{
		Query: "a ( b a + c )*",
		Views: map[string]string{"e1": "a", "e2": "a . c* . b", "e3": "c"},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, raw2)
	}
	if got2 := decode[planResponse](t, raw2); got2.Key != got.Key {
		t.Fatalf("respelled request got key %s, want %s", got2.Key, got.Key)
	}
	if s := eng.Stats(); s.Hits != 1 || s.Compiles != 1 {
		t.Fatalf("stats = %+v, want 1 hit and 1 compile", s)
	}

	// The health endpoint reflects the same counters.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hr.StatusCode)
	}
	health := decode[healthResponse](t, hraw)
	if health.Status != "ok" || health.Stats.Requests != 2 {
		t.Fatalf("health = %+v", health)
	}
}

func TestServeMetricsScrape(t *testing.T) {
	ts, _ := testServer(t)
	post(t, ts.URL+"/v1/rewrite", rewriteRequest{
		Query: "a·a", Views: map[string]string{"e1": "a"},
	})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"regexrw_engine_requests 1",
		"regexrw_engine_compiles 1",
		"regexrw_cache_plan_misses 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics scrape missing %q:\n%s", want, body)
		}
	}
}

func TestServeBudgetExceeded(t *testing.T) {
	ts, _ := testServer(t)
	inst := workload.DetBlowupFamily(10)
	views := map[string]string{}
	for _, v := range inst.Views {
		views[v.Name] = v.Expr.String()
	}
	resp, raw := post(t, ts.URL+"/v1/rewrite", rewriteRequest{
		Query:     inst.Query.String(),
		Views:     views,
		MaxStates: 50,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, raw)
	}
	e := decode[errorEnvelope](t, raw).Error
	if e.Code != "budget_exceeded" {
		t.Fatalf("code = %q: %s", e.Code, raw)
	}
	if e.Stage == "" || e.Limit != 50 {
		t.Fatalf("budget diagnostics missing: %+v", e)
	}
}

// TestServeRegexBound: the n=6 Theorem 8 instance, whose rewriting
// expression would render to well over regex.MaxRenderBytes, comes back
// 422 (stage regex.from_dfa, resource bytes) or 504 within its
// deadline instead of growing the server without bound, with and
// without a partial search, and the server keeps serving.
func TestServeRegexBound(t *testing.T) {
	ts, _ := testServer(t)
	inst := workload.DetBlowupFamily(6)
	views := map[string]string{}
	for _, v := range inst.Views {
		views[v.Name] = v.Expr.String()
	}
	const timeout = 5 * time.Second
	for _, partial := range []bool{false, true} {
		start := time.Now()
		resp, raw := post(t, ts.URL+"/v1/rewrite", rewriteRequest{
			Query: inst.Query.String(), Views: views, TimeoutMS: timeout.Milliseconds(), Partial: partial,
		})
		elapsed := time.Since(start)
		if elapsed > timeout+time.Second {
			t.Fatalf("partial=%v: answered after %v, past its %v deadline", partial, elapsed, timeout)
		}
		t.Logf("n=6 partial=%v: status %d after %v", partial, resp.StatusCode, elapsed)
		switch resp.StatusCode {
		case http.StatusUnprocessableEntity:
			e := decode[errorEnvelope](t, raw).Error
			if e.Code != "budget_exceeded" || e.Stage != "regex.from_dfa" || e.Resource != "bytes" ||
				e.Limit != regex.MaxRenderBytes || e.Used <= e.Limit {
				t.Fatalf("partial=%v: 422 without the regex.from_dfa diagnostics: %s", partial, raw)
			}
		case http.StatusGatewayTimeout:
		default:
			t.Fatalf("partial=%v: status %d, want 422 or 504: %s", partial, resp.StatusCode, raw)
		}
	}
	resp, raw := post(t, ts.URL+"/v1/rewrite", rewriteRequest{
		Query: "a·(b·a+c)*", Views: map[string]string{"e1": "a", "e2": "a·c*·b", "e3": "c"},
	})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "e2*·e1·e3*") {
		t.Fatalf("server stopped serving after the refused compile: %d %s", resp.StatusCode, raw)
	}
}

func TestServeBadRequests(t *testing.T) {
	ts, _ := testServer(t)
	cases := []struct {
		name string
		path string
		body string
	}{
		{"malformed json", "/v1/rewrite", `{"query":`},
		{"unknown field", "/v1/rewrite", `{"quarry":"a"}`},
		{"bad regex", "/v1/rewrite", `{"query":"a·(","views":{"e1":"a"}}`},
		{"bad method", "/v1/rpq", `{"query":"f","formulas":{"f":"=a"},"method":"sideways"}`},
		{"bad formula", "/v1/rpq", `{"query":"f","formulas":{"f":"&&"}}`},
	}
	for _, tc := range cases {
		resp, raw := postRaw(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, raw)
			continue
		}
		if e := decode[errorEnvelope](t, raw).Error; e.Code != "bad_request" {
			t.Errorf("%s: code %q", tc.name, e.Code)
		}
	}
}

// TestServeParseErrorMessage: the engine parses requests now, and its
// *engine.ParseError must reach the client exactly as the handler's
// own parse used to: 400 bad_request carrying the parser's message.
func TestServeParseErrorMessage(t *testing.T) {
	ts, _ := testServer(t)
	views := map[string]string{"e1": "a", "e2": "b·("}
	_, perr := core.ParseInstance("a·b", views)
	if perr == nil {
		t.Fatal("instance unexpectedly parses")
	}
	for _, path := range []string{"/v1/rewrite", "/v1/query"} {
		body := map[string]any{"query": "a·b", "views": views}
		if path == "/v1/query" {
			body["graph"] = "g"
			if resp, raw := post(t, ts.URL+"/v1/graphs", registerGraphRequest{Name: "g", Spec: "chain:3:e1"}); resp.StatusCode != http.StatusOK {
				t.Fatalf("register: %d %s", resp.StatusCode, raw)
			}
		}
		for i := 0; i < 2; i++ { // the second request finds nothing indexed either
			resp, raw := post(t, ts.URL+path, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 400: %s", path, resp.StatusCode, raw)
			}
			e := decode[errorEnvelope](t, raw).Error
			if e.Code != "bad_request" || e.Message != perr.Error() {
				t.Fatalf("%s: error %+v, want bad_request %q", path, e, perr.Error())
			}
		}
	}
}

func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

func TestServeRPQRoundTrip(t *testing.T) {
	ts, _ := testServer(t)
	req := rpqRequest{
		Query:    "fa·(fb+fc)",
		Formulas: map[string]string{"fa": "=a", "fb": "=b", "fc": "=c"},
		Views: []rpqViewJSON{
			{Name: "q1", Query: "fa"},
			{Name: "q2", Query: "fb"},
			{Name: "q3", Query: "fc"},
		},
		Theory: &theoryJSON{Constants: []string{"a", "b", "c"}},
	}
	resp, raw := post(t, ts.URL+"/v1/rpq", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	got := decode[planResponse](t, raw)
	if !got.Exact {
		t.Fatalf("expected an exact RPQ rewriting: %s", raw)
	}

	// Same problem with views and theory permuted: same key.
	req2 := req
	req2.Views = []rpqViewJSON{
		{Name: "q3", Query: "fc"},
		{Name: "q1", Query: "fa"},
		{Name: "q2", Query: "fb"},
	}
	req2.Theory = &theoryJSON{Constants: []string{"c", "b", "a"}}
	_, raw2 := post(t, ts.URL+"/v1/rpq", req2)
	if got2 := decode[planResponse](t, raw2); got2.Key != got.Key {
		t.Fatalf("permuted RPQ request got key %s, want %s", got2.Key, got.Key)
	}
}

func TestServeTraceExport(t *testing.T) {
	ts, _ := testServer(t)
	resp, raw := post(t, ts.URL+"/v1/rewrite", rewriteRequest{
		Query: "a·a", Views: map[string]string{"e1": "a"}, Trace: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	got := decode[planResponse](t, raw)
	if got.Trace == nil {
		t.Fatal("expected a trace in the response")
	}
	var found bool
	var walk func(s *obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		if s.Name == "engine.compile" {
			found = true
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(got.Trace)
	if !found {
		t.Fatalf("trace has no engine.compile span: %s", raw)
	}
	// A warm repeat still traces the request, without a compile span.
	_, raw2 := post(t, ts.URL+"/v1/rewrite", rewriteRequest{
		Query: "a·a", Views: map[string]string{"e1": "a"}, Trace: true,
	})
	got2 := decode[planResponse](t, raw2)
	if got2.Trace == nil {
		t.Fatal("expected a trace on the warm request too")
	}
}

func TestServeClosedEngine(t *testing.T) {
	ts, eng := testServer(t)
	eng.Close()
	resp, raw := post(t, ts.URL+"/v1/rewrite", rewriteRequest{
		Query: "a", Views: map[string]string{"e1": "a"},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, raw)
	}
	if e := decode[errorEnvelope](t, raw).Error; e.Code != "closed" {
		t.Fatalf("code = %q", e.Code)
	}
}

// TestServeRunSmoke drives the real binary path: flags, listener,
// serving, graceful SIGTERM shutdown.
func TestServeRunSmoke(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var out, errb bytes.Buffer
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-max-states", "100000", "-timeout", "30s"}, &out, &errb, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	resp, raw := post(t, fmt.Sprintf("http://%s/v1/rewrite", addr), rewriteRequest{
		Query: "a·(b·a+c)*",
		Views: map[string]string{"e1": "a", "e2": "a·c*·b", "e3": "c"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	mresp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mraw), "regexrw_engine_requests") {
		t.Fatalf("metrics scrape missing engine counters:\n%s", mraw)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server never shut down")
	}
}
