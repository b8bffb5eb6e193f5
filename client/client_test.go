package regexrwclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"regexrw/internal/cluster"
	"regexrw/internal/engine"
	"regexrw/internal/rpq"
	"regexrw/internal/theory"
)

var rwReq = RewriteRequest{Query: "a·b*", Views: map[string]string{"v1": "a", "v2": "b"}}

// replica is a stub server that counts hits and records the last
// routing headers it saw.
type replica struct {
	ts        *httptest.Server
	hits      atomic.Int64
	noForward atomic.Bool
	// respond replaces the default 200 plan response when set.
	respond atomic.Pointer[func(w http.ResponseWriter, r *http.Request)]
}

func newReplica(t *testing.T) *replica {
	t.Helper()
	rep := &replica{}
	rep.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep.hits.Add(1)
		rep.noForward.Store(r.Header.Get(cluster.NoForwardHeader) != "")
		if f := rep.respond.Load(); f != nil {
			(*f)(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"key":"k","rewriting":"v1","exact":true,"verdict":"yes","empty":false,"sigma_empty":false,"states":3}`)
	}))
	t.Cleanup(rep.ts.Close)
	return rep
}

// clusterOf returns n replicas plus their address list.
func clusterOf(t *testing.T, n int) ([]*replica, []string) {
	t.Helper()
	reps := make([]*replica, n)
	addrs := make([]string, n)
	for i := range reps {
		reps[i] = newReplica(t)
		addrs[i] = reps[i].ts.URL
	}
	return reps, addrs
}

func ownerOf(t *testing.T, addrs []string, req RewriteRequest) int {
	t.Helper()
	ring, err := cluster.NewRing(addrs, cluster.DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	key, err := req.PlanKey()
	if err != nil {
		t.Fatal(err)
	}
	owner := ring.Owner(key)
	for i, a := range addrs {
		if a == owner {
			return i
		}
	}
	t.Fatalf("owner %q not in %v", owner, addrs)
	return -1
}

// TestClientRoutesToOwner pins the core client contract: the request
// lands on the ring owner directly — no other replica sees it — and
// carries the no-forward marker so a stale client gets corrected
// instead of silently double-hopping.
func TestClientRoutesToOwner(t *testing.T) {
	reps, addrs := clusterOf(t, 3)
	c, err := New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rewrite(context.Background(), rwReq); err != nil {
		t.Fatal(err)
	}
	owner := ownerOf(t, addrs, rwReq)
	for i, rep := range reps {
		want := int64(0)
		if i == owner {
			want = 1
		}
		if got := rep.hits.Load(); got != want {
			t.Errorf("replica %d: %d hits, want %d", i, got, want)
		}
	}
	if !reps[owner].noForward.Load() {
		t.Error("owner dial must carry the no-forward marker")
	}
}

// TestClientSingleServerSkipsPlanKey: the plan key only places a
// request on a ring, so a single-server client never computes it — an
// unparsable request still travels to the server, whose 400 is the
// answer — while a cluster client does.
func TestClientSingleServerSkipsPlanKey(t *testing.T) {
	reps, addrs := clusterOf(t, 2)
	single, err := New(addrs[:1])
	if err != nil {
		t.Fatal(err)
	}
	keyed := 0
	planKey := func() (string, error) { keyed++; return "k", nil }
	if key := single.routeKey(planKey); key != "" || keyed != 0 {
		t.Fatalf("single server: key %q after %d PlanKey calls, want none", key, keyed)
	}
	if _, err := single.Rewrite(context.Background(), RewriteRequest{Query: "a·(", Views: map[string]string{"v": "a"}}); err != nil {
		t.Fatal(err)
	}
	if reps[0].hits.Load() != 1 || reps[0].noForward.Load() {
		t.Fatalf("single server: %d hits, no-forward %v", reps[0].hits.Load(), reps[0].noForward.Load())
	}
	cl, err := New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if key := cl.routeKey(planKey); key != "k" || keyed != 1 {
		t.Fatalf("cluster: key %q after %d PlanKey calls, want k after 1", key, keyed)
	}
}

// TestClientFollowsNotOwner: when the dialed replica disclaims
// ownership (ring mismatch), the client follows the named owner once,
// with forwarding allowed on the second hop.
func TestClientFollowsNotOwner(t *testing.T) {
	reps, addrs := clusterOf(t, 3)
	owner := ownerOf(t, addrs, rwReq)
	trueOwner := (owner + 1) % 3
	deny := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorDetail{
			V: EnvelopeVersion, Code: CodeNotOwner,
			Message: "not the owner", Owner: addrs[trueOwner],
		}})
	}
	reps[owner].respond.Store(&deny)

	c, err := New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Rewrite(context.Background(), rwReq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Key != "k" {
		t.Fatalf("key = %q", resp.Key)
	}
	if got := reps[trueOwner].hits.Load(); got != 1 {
		t.Fatalf("true owner saw %d hits, want 1", got)
	}
	if reps[trueOwner].noForward.Load() {
		t.Error("redirect hop must allow forwarding")
	}
}

// TestClientFallsBack: a dead owner never fails the request — the
// client retries the surviving replicas in ring order without the
// no-forward marker (letting the fallback forward or degrade).
func TestClientFallsBack(t *testing.T) {
	reps, addrs := clusterOf(t, 3)
	owner := ownerOf(t, addrs, rwReq)
	reps[owner].ts.Close()

	c, err := New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Rewrite(context.Background(), rwReq)
	if err != nil {
		t.Fatalf("fallback must succeed: %v", err)
	}
	if resp.Key != "k" {
		t.Fatalf("key = %q", resp.Key)
	}
	served := -1
	for i, rep := range reps {
		if i != owner && rep.hits.Load() > 0 {
			served = i
		}
	}
	if served == -1 {
		t.Fatal("no surviving replica served the request")
	}
	if reps[served].noForward.Load() {
		t.Error("fallback dial must not carry the no-forward marker")
	}
}

// TestClientAllDown: every replica dead yields a transport error, not
// a hang or a panic.
func TestClientAllDown(t *testing.T) {
	reps, addrs := clusterOf(t, 2)
	reps[0].ts.Close()
	reps[1].ts.Close()
	c, err := New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rewrite(context.Background(), rwReq); err == nil {
		t.Fatal("want error when every replica is down")
	}
}

// TestClientAPIError decodes the envelope into a typed *APIError.
func TestClientAPIError(t *testing.T) {
	rep := newReplica(t)
	deny := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorDetail{
			V: EnvelopeVersion, Code: CodeBudgetExceeded, Message: "states exhausted",
			Stage: "containment", Resource: "states", Limit: 100, Used: 100,
		}})
	}
	rep.respond.Store(&deny)
	c, err := New([]string{rep.ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Rewrite(context.Background(), rwReq)
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T %v, want *APIError", err, err)
	}
	if ae.Status != http.StatusUnprocessableEntity || ae.Detail.Code != CodeBudgetExceeded {
		t.Fatalf("APIError = %+v", ae)
	}
	if ae.Detail.Stage != "containment" || ae.Detail.Limit != 100 {
		t.Fatalf("budget diagnostics lost: %+v", ae.Detail)
	}
	if ae.Detail.V != EnvelopeVersion {
		t.Fatalf("envelope version = %d", ae.Detail.V)
	}
}

// TestClientDegradedHeader: the transport-level degraded marker
// surfaces on the decoded response even when the body lacks the field
// (a forwarding replica marks the response it computed locally).
func TestClientDegradedHeader(t *testing.T) {
	rep := newReplica(t)
	deg := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(cluster.DegradedHeader, "1")
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"key":"k","rewriting":"v1","exact":true,"verdict":"yes","empty":false,"sigma_empty":false,"states":3}`)
	}
	rep.respond.Store(&deg)
	c, err := New([]string{rep.ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Rewrite(context.Background(), rwReq)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("degraded header must surface on the response")
	}
}

// TestClientQueryStream decodes the NDJSON protocol: header, answers
// in order, trailer with the boolean verdict.
func TestClientQueryStream(t *testing.T) {
	rep := newReplica(t)
	stream := func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if !strings.Contains(string(body), `"graph":"g"`) {
			t.Errorf("request body %s lacks graph", body)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"type":"header","key":"k","rewriting":"v1","exact":true,"mode":"rewriting","graph":"g","nodes":2,"edges":1}
{"type":"answer","from":"n0","to":"n1"}
{"type":"answer","from":"n1","to":"n1"}
{"type":"trailer","answers":2,"matched":true}
`)
	}
	rep.respond.Store(&stream)
	c, err := New([]string{rep.ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	res, err := c.Query(context.Background(), QueryRequest{
		Query: "a", Views: map[string]string{"v1": "a"}, Graph: "g",
		Source: "n0", Target: "n1",
	}, func(a QueryAnswer) error {
		got = append(got, a.From+"→"+a.To)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers != 2 || len(got) != 2 || got[0] != "n0→n1" || got[1] != "n1→n1" {
		t.Fatalf("answers = %v (%d)", got, res.Answers)
	}
	if res.Header.Key != "k" || res.Header.Graph != "g" {
		t.Fatalf("header = %+v", res.Header)
	}
	if res.Matched == nil || !*res.Matched {
		t.Fatalf("matched = %v", res.Matched)
	}
}

// TestClientQueryStreamError: a mid-stream error line surfaces as a
// typed *APIError after every preceding answer was delivered; a
// truncated stream (no trailer, no error line) is an error too.
func TestClientQueryStreamError(t *testing.T) {
	rep := newReplica(t)
	stream := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"type":"header","key":"k","rewriting":"v1","exact":true,"mode":"rewriting","graph":"g","nodes":2,"edges":1}
{"type":"answer","from":"n0","to":"n1"}
{"type":"error","error":{"v":2,"code":"deadline","message":"query timed out"}}
`)
	}
	rep.respond.Store(&stream)
	c, err := New([]string{rep.ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	_, err = c.Query(context.Background(), QueryRequest{
		Query: "a", Views: map[string]string{"v1": "a"}, Graph: "g",
	}, func(QueryAnswer) error { seen++; return nil })
	var ae *APIError
	if !errors.As(err, &ae) || ae.Detail.Code != CodeDeadline {
		t.Fatalf("err = %v, want deadline *APIError", err)
	}
	if ae.Status != http.StatusOK {
		t.Fatalf("mid-stream error status = %d, want 200 (stream was committed)", ae.Status)
	}
	if seen != 1 {
		t.Fatalf("saw %d answers before the error, want 1", seen)
	}

	truncated := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"type":"header","key":"k","rewriting":"v1","exact":true,"mode":"rewriting","graph":"g","nodes":2,"edges":1}
`)
	}
	rep.respond.Store(&truncated)
	if _, err := c.Query(context.Background(), QueryRequest{
		Query: "a", Views: map[string]string{"v1": "a"}, Graph: "g",
	}, nil); err == nil {
		t.Fatal("truncated stream must error")
	}
}

// TestRegisterGraphFansOut: registration reaches every replica, and
// succeeds as long as at least one accepted.
func TestRegisterGraphFansOut(t *testing.T) {
	reps, addrs := clusterOf(t, 3)
	info := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"name":"g","nodes":4,"edges":3}`)
	}
	for _, rep := range reps {
		rep.respond.Store(&info)
	}
	c, err := New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := c.RegisterGraph(context.Background(), RegisterGraphRequest{Name: "g", Spec: "chain:4"})
	if err != nil {
		t.Fatal(err)
	}
	if gi.Nodes != 4 {
		t.Fatalf("info = %+v", gi)
	}
	for i, rep := range reps {
		if rep.hits.Load() != 1 {
			t.Errorf("replica %d saw %d registrations, want 1", i, rep.hits.Load())
		}
	}
}

// TestPlanKeysMatchEngine pins client-side routing keys to the keys
// the engine actually caches under — client placement and server
// placement must agree byte-for-byte.
func TestPlanKeysMatchEngine(t *testing.T) {
	inst, err := rwReq.Instance()
	if err != nil {
		t.Fatal(err)
	}
	key, err := rwReq.PlanKey()
	if err != nil {
		t.Fatal(err)
	}
	if key != string(engine.InstanceKey(inst, false)) {
		t.Fatal("RewriteRequest.PlanKey must equal engine.InstanceKey")
	}
	partial := rwReq
	partial.Partial = true
	pkey, err := partial.PlanKey()
	if err != nil {
		t.Fatal(err)
	}
	if pkey == key {
		t.Fatal("partial request must key differently")
	}
	qkey, err := QueryRequest{Query: rwReq.Query, Views: rwReq.Views, Graph: "g"}.PlanKey()
	if err != nil {
		t.Fatal(err)
	}
	if qkey != key {
		t.Fatal("QueryRequest routes by the full instance key")
	}

	rpqReq := RPQRequest{
		Query:    "fa",
		Formulas: map[string]string{"fa": "=a"},
		Views:    []RPQView{{Name: "q1", Query: "fa"}},
		Theory:   &Theory{Constants: []string{"a"}},
	}
	ereq, err := rpqReq.ToEngine()
	if err != nil {
		t.Fatal(err)
	}
	rkey, err := rpqReq.PlanKey()
	if err != nil {
		t.Fatal(err)
	}
	if rkey != string(engine.RPQKey(ereq.Query, ereq.Views, ereq.Theory, rpq.Grounded)) {
		t.Fatal("RPQRequest.PlanKey must equal engine.RPQKey")
	}
	direct := rpqReq
	direct.Method = "direct"
	dkey, err := direct.PlanKey()
	if err != nil {
		t.Fatal(err)
	}
	if dkey == rkey {
		t.Fatal("method must be part of the key")
	}
	bad := rpqReq
	bad.Method = "nope"
	if _, err := bad.PlanKey(); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestParseServers(t *testing.T) {
	got := ParseServers(" a:1, ,b:2,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("ParseServers = %v", got)
	}
	if ParseServers("") != nil {
		t.Fatal("empty flag parses to nil")
	}
	if _, err := New(nil); err == nil {
		t.Fatal("New with no servers must fail")
	}
}

func TestTheoryWireRoundTrip(t *testing.T) {
	tt := theory.New()
	tt.AddConstants("rome", "jerusalem", "athens")
	tt.Declare("city", "rome", "jerusalem")
	wire := TheoryWire(tt)
	if len(wire.Constants) != 3 || len(wire.Predicates["city"]) != 2 {
		t.Fatalf("wire theory = %+v", wire)
	}
	req := RPQRequest{Query: "c", Formulas: map[string]string{"c": "city"}, Theory: wire}
	ereq, err := req.ToEngine()
	if err != nil {
		t.Fatal(err)
	}
	if ereq.Theory.Domain().Len() != 3 {
		t.Fatalf("round-tripped domain = %v", ereq.Theory.Domain().Names())
	}
	ok, err := ereq.Theory.EntailsName(theory.Pred("city"), "rome")
	if err != nil || !ok {
		t.Fatalf("city(rome) lost in round trip: %v %v", ok, err)
	}
	if ok, _ := ereq.Theory.EntailsName(theory.Pred("city"), "athens"); ok {
		t.Fatal("city(athens) invented by round trip")
	}
	if TheoryWire(nil) != nil {
		t.Fatal("nil interpretation must stay nil on the wire")
	}
}
