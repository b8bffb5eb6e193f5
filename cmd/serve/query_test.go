package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"regexrw/internal/engine"
	"regexrw/internal/workload"
)

// ndLines splits an NDJSON body into decoded generic lines.
func ndLines(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

var ex2Query = queryRequest{
	Query: "a·(b·a+c)*",
	Views: map[string]string{"e1": "a", "e2": "a·c*·b", "e3": "c"},
	Graph: "vg",
}

// registerEx2ViewGraph registers the view-image chain
// x --e2--> y --e1--> z --e3--> w under the handle "vg".
func registerEx2ViewGraph(t *testing.T, url string) {
	t.Helper()
	resp, raw := post(t, url+"/v1/graphs", registerGraphRequest{
		Name: "vg",
		Text: "x e2 y\ny e1 z\nz e3 w\n",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register graph: status %d: %s", resp.StatusCode, raw)
	}
	info := decode[graphInfo](t, raw)
	if info.Nodes != 4 || info.Edges != 3 {
		t.Fatalf("registered graph info = %+v, want 4 nodes / 3 edges", info)
	}
}

func TestServeQueryStreamsNDJSON(t *testing.T) {
	ts, _ := testServer(t)
	registerEx2ViewGraph(t, ts.URL)

	resp, raw := post(t, ts.URL+"/v1/query", ex2Query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	lines := ndLines(t, raw)
	if len(lines) < 2 {
		t.Fatalf("want header + answers + trailer, got %d lines: %s", len(lines), raw)
	}
	head, tail := lines[0], lines[len(lines)-1]
	if head["type"] != "header" || head["rewriting"] != "e2*·e1·e3*" || head["exact"] != true {
		t.Fatalf("bad header: %v", head)
	}
	if tail["type"] != "trailer" || tail["answers"] != float64(4) {
		t.Fatalf("bad trailer: %v", tail)
	}
	// e2*·e1·e3* over the chain: x→z, x→w, y→z, y→w.
	got := map[string]bool{}
	for _, l := range lines[1 : len(lines)-1] {
		if l["type"] != "answer" {
			t.Fatalf("unexpected line between header and trailer: %v", l)
		}
		got[l["from"].(string)+"→"+l["to"].(string)] = true
	}
	for _, want := range []string{"x→z", "x→w", "y→z", "y→w"} {
		if !got[want] {
			t.Fatalf("missing answer %s in %v", want, got)
		}
	}
}

func TestServeQuerySingleSourceAndBoolean(t *testing.T) {
	ts, _ := testServer(t)
	registerEx2ViewGraph(t, ts.URL)

	req := ex2Query
	req.Source = "x"
	_, raw := post(t, ts.URL+"/v1/query", req)
	lines := ndLines(t, raw)
	if tail := lines[len(lines)-1]; tail["answers"] != float64(2) {
		t.Fatalf("single-source trailer: %v", tail)
	}

	req.Target = "w"
	_, raw = post(t, ts.URL+"/v1/query", req)
	lines = ndLines(t, raw)
	if tail := lines[len(lines)-1]; tail["matched"] != true || tail["answers"] != float64(0) {
		t.Fatalf("boolean trailer: %v", tail)
	}

	req.Target = "x"
	_, raw = post(t, ts.URL+"/v1/query", req)
	lines = ndLines(t, raw)
	if tail := lines[len(lines)-1]; tail["matched"] != false {
		t.Fatalf("boolean trailer for non-answer: %v", tail)
	}
}

func TestServeQueryMaxAnswersTruncates(t *testing.T) {
	ts, _ := testServer(t)
	registerEx2ViewGraph(t, ts.URL)
	req := ex2Query
	req.MaxAnswers = 1
	_, raw := post(t, ts.URL+"/v1/query", req)
	lines := ndLines(t, raw)
	tail := lines[len(lines)-1]
	if tail["answers"] != float64(1) || tail["truncated"] != true {
		t.Fatalf("truncated trailer: %v", tail)
	}
}

func TestServeQueryErrorsBeforeStream(t *testing.T) {
	ts, _ := testServer(t)
	registerEx2ViewGraph(t, ts.URL)

	// Unregistered graph: 404 with the standard envelope.
	req := ex2Query
	req.Graph = "nope"
	resp, raw := post(t, ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if env := decode[errorEnvelope](t, raw); env.Error.Code != "unknown_graph" {
		t.Fatalf("error code %q, want unknown_graph", env.Error.Code)
	}

	// Malformed query: 400 before any stream bytes.
	req = ex2Query
	req.Query = "a·(("
	resp, raw = post(t, ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if e := decode[errorEnvelope](t, raw).Error; e.Code != "bad_request" {
		t.Fatalf("error code %q, want bad_request", e.Code)
	}
	if strings.Contains(string(raw), `"type":"header"`) {
		t.Fatalf("stream started despite compile error: %s", raw)
	}

	// Unknown source node: envelope, not a stream.
	req = ex2Query
	req.Source = "ghost"
	resp, raw = post(t, ts.URL+"/v1/query", req)
	lines := ndLines(t, raw)
	if last := lines[len(lines)-1]; last["type"] != "error" {
		t.Fatalf("want mid-stream error line for unknown node, got %v (status %d)", last, resp.StatusCode)
	}

	// Bad mode.
	req = ex2Query
	req.Mode = "psychic"
	resp, raw = post(t, ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
}

func TestServeQueryBudgetExceededMidStream(t *testing.T) {
	ts, _ := testServer(t)
	// A grid big enough that MaxStates=40 dies during evaluation but
	// comfortably after the (tiny) compile.
	resp, raw := post(t, ts.URL+"/v1/graphs", registerGraphRequest{Name: "grid", Spec: "grid:30x30:v1,v1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register grid: %d %s", resp.StatusCode, raw)
	}
	req := queryRequest{
		Query:     "a*",
		Views:     map[string]string{"v1": "a"},
		Graph:     "grid",
		MaxStates: 40,
	}
	_, raw = post(t, ts.URL+"/v1/query", req)
	lines := ndLines(t, raw)
	last := lines[len(lines)-1]
	if last["type"] != "error" {
		t.Fatalf("want trailing error line, got %v", last)
	}
	errObj := last["error"].(map[string]any)
	if errObj["code"] != "budget_exceeded" {
		t.Fatalf("mid-stream error code %v, want budget_exceeded", errObj["code"])
	}
}

func TestServeGraphRegistry(t *testing.T) {
	ts, _ := testServer(t)
	registerEx2ViewGraph(t, ts.URL)
	resp, raw := post(t, ts.URL+"/v1/graphs", registerGraphRequest{Name: "g2", Spec: "chain:5:a"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register spec graph: %d %s", resp.StatusCode, raw)
	}
	httpResp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var listing struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Graphs) != 2 || listing.Graphs[0].Name != "g2" || listing.Graphs[1].Name != "vg" {
		t.Fatalf("listing = %+v, want [g2 vg]", listing.Graphs)
	}

	// Bad registrations.
	for _, bad := range []registerGraphRequest{
		{Name: "", Spec: "chain:3:a"},
		{Name: "x"},
		{Name: "x", Spec: "chain:3:a", Text: "a b c\n"},
		{Name: "x", Spec: "grid:0x0"},
		{Name: "x", Text: "truncated line"},
	} {
		resp, _ := post(t, ts.URL+"/v1/graphs", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad registration %+v: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestServeGraphRegistryBounded: a generator spec over the per-graph
// caps is refused with 413 graph_too_large before anything is
// generated — grid:100000x100000 (10^10 nodes) allocates no more than
// the request itself — and registrations stop at the registry's edge
// budget, where replacing a graph gives its edges back.
func TestServeGraphRegistryBounded(t *testing.T) {
	ts, _ := testServer(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	resp, raw := post(t, ts.URL+"/v1/graphs", registerGraphRequest{Name: "huge", Spec: "grid:100000x100000"})
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("grid:100000x100000: status %d, want 413: %s", resp.StatusCode, raw)
	}
	if e := decode[errorEnvelope](t, raw).Error; e.Code != "graph_too_large" {
		t.Fatalf("grid:100000x100000: error %+v", e)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("refusing grid:100000x100000 allocated %d bytes", grew)
	}

	// Registrations stop at the registry's budgets, counted over every
	// graph, boot-time ones included; replacing a graph gives its edges
	// back. The budgets are lowered here so the test stays small.
	gs := newGraphSet()
	gs.maxEdges, gs.maxGraphs = 10, 3
	gs.add("boot", workload.ChainGraph(4, nil))
	ts2 := httptest.NewServer(newServer(engine.New(), nil, gs))
	t.Cleanup(ts2.Close)
	for _, c := range []struct {
		name, spec string
		status     int
	}{
		{"a", "chain:5:a", http.StatusOK},                    // 9 edges in all
		{"b", "chain:2:a", http.StatusRequestEntityTooLarge}, // 11: refused before generation
		{"a", "chain:6:a", http.StatusOK},                    // replaces a: 10
		{"a", "chain:1:a", http.StatusOK},                    // 5
		{"b", "chain:1:a", http.StatusOK},                    // 6, in 3 graphs
		{"c", "chain:0:a", http.StatusRequestEntityTooLarge}, // a fourth graph
		{"b", fmt.Sprintf("chain:%d", maxGraphEdges+1), http.StatusRequestEntityTooLarge},
	} {
		resp, raw := post(t, ts2.URL+"/v1/graphs", registerGraphRequest{Name: c.name, Spec: c.spec})
		if resp.StatusCode != c.status {
			t.Fatalf("%s=%s: status %d, want %d: %s", c.name, c.spec, resp.StatusCode, c.status, raw)
		}
		if c.status != http.StatusOK && decode[errorEnvelope](t, raw).Error.Code != "graph_too_large" {
			t.Fatalf("%s=%s: %s", c.name, c.spec, raw)
		}
	}
	if resp, raw := post(t, ts2.URL+"/v1/graphs", registerGraphRequest{Name: "b", Text: "x a y\ny a z\nz a w\nw a v\nv a u\nu a t\n"}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("text graph past the edge budget: status %d: %s", resp.StatusCode, raw)
	}
	if got := len(gs.list()); got != 3 {
		t.Fatalf("registry holds %d graphs, want 3", got)
	}
}

// TestServeGraphRegistryRefusesFiles: over HTTP a spec is a generator
// spec or nothing. A path is refused with 400 bad_request — including
// a path to a well-formed graph file, which the server would have
// loaded had it opened it — and the registry stays unchanged.
func TestServeGraphRegistryRefusesFiles(t *testing.T) {
	ts, _ := testServer(t)
	valid := filepath.Join(t.TempDir(), "valid.graph")
	if err := os.WriteFile(valid, []byte("x a y\ny b z\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"/etc/passwd", valid, "valid.graph", "/dev/zero"} {
		resp, raw := post(t, ts.URL+"/v1/graphs", registerGraphRequest{Name: "stolen", Spec: spec})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: status %d, want 400: %s", spec, resp.StatusCode, raw)
		}
		if e := decode[errorEnvelope](t, raw).Error; e.Code != "bad_request" || !strings.Contains(e.Message, "generator spec") {
			t.Fatalf("spec %q: error %+v", spec, e)
		}
	}
	httpResp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var listing struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Graphs) != 0 {
		t.Fatalf("refused specs registered graphs: %+v", listing.Graphs)
	}
}

func TestServeQueryModeQuery(t *testing.T) {
	ts, _ := testServer(t)
	// Base-alphabet graph: x --a--> y --b--> z --a--> w.
	resp, raw := post(t, ts.URL+"/v1/graphs", registerGraphRequest{
		Name: "base", Text: "x a y\ny b z\nz a w\n",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	req := queryRequest{
		Query:  "a·(b·a+c)*",
		Views:  map[string]string{"e1": "a", "e2": "a·c*·b", "e3": "c"},
		Graph:  "base",
		Mode:   "query",
		Source: "x",
	}
	_, raw = post(t, ts.URL+"/v1/query", req)
	lines := ndLines(t, raw)
	if tail := lines[len(lines)-1]; tail["answers"] != float64(2) {
		t.Fatalf("mode=query trailer: %v (lines %v)", tail, lines)
	}
}
