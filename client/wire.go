// Package regexrwclient is the typed Go client for the regexrw HTTP
// API, and the single definition of its wire schema: cmd/serve aliases
// these types for its request/response bodies, so client and server
// cannot drift apart field by field.
//
// The client is cluster-aware. Plan keys are canonical SHA-256 hashes
// of the rewriting instance (see internal/engine), and a multi-replica
// deployment partitions the key space over a consistent-hash ring
// (internal/cluster). The client computes the same key and the same
// ring placement the servers use, dials the owning replica directly —
// saving the server-side forwarding hop — and falls back to any
// replica when the owner is unreachable (every replica can compute
// every plan; ownership only concentrates cache locality).
package regexrwclient

import (
	"fmt"
	"time"

	"regexrw/internal/core"
	"regexrw/internal/engine"
	"regexrw/internal/obs"
	"regexrw/internal/rpq"
	"regexrw/internal/theory"
)

// EnvelopeVersion is the version stamped into every error envelope as
// its "v" field. Version 2 added v itself plus the cluster fields
// (owner on not_owner, degraded on degraded-mode responses); version 1
// envelopes carried neither and decode with V == 0.
const EnvelopeVersion = 2

// Error codes carried by ErrorDetail.Code. Every code the server can
// emit is enumerated here; see docs/SERVING.md for the full table with
// status codes and semantics.
const (
	CodeBadRequest     = "bad_request"     // 400: malformed body or unparsable instance
	CodeUnknownGraph   = "unknown_graph"   // 404: graph name not registered
	CodeGraphTooLarge  = "graph_too_large" // 413: POST /v1/graphs over a per-graph cap or the registry budget
	CodeNotOwner       = "not_owner"       // 421: replica does not own the key; Owner names who does
	CodeBudgetExceeded = "budget_exceeded" // 422: a budget stage ran out (Stage/Resource/Limit/Used set)
	CodeStateLimit     = "state_limit"     // 422: automaton state cap hit
	CodeQueueFull      = "queue_full"      // 429: admission queue full, retry later
	CodeDeadline       = "deadline"        // 504: per-request timeout elapsed
	CodeClosed         = "closed"          // 503: engine shutting down
	CodeCanceled       = "canceled"        // 499: client went away
	CodeInternal       = "internal"        // 500: server fault
)

// RewriteRequest is the body of POST /v1/rewrite.
type RewriteRequest struct {
	// Query is E0 in the concrete syntax; Views maps view names to
	// expressions.
	Query string            `json:"query"`
	Views map[string]string `json:"views"`
	// Partial also runs the anytime partial-rewriting search when the
	// maximal rewriting is not exact.
	Partial bool `json:"partial,omitempty"`
	// MaxStates/MaxTransitions/TimeoutMS tighten the engine's per-request
	// governance defaults; they can only lower the server's caps.
	MaxStates      int   `json:"max_states,omitempty"`
	MaxTransitions int   `json:"max_transitions,omitempty"`
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`
	// Trace attaches a per-request tracer and returns the exported span
	// tree in the response.
	Trace bool `json:"trace,omitempty"`
}

// Instance parses the request into the engine's instance form.
func (r RewriteRequest) Instance() (*core.Instance, error) {
	return core.ParseInstance(r.Query, r.Views)
}

// PlanKey computes the canonical plan key this request caches under —
// the routing key for cluster placement. It fails exactly when the
// server would answer 400.
func (r RewriteRequest) PlanKey() (string, error) {
	inst, err := r.Instance()
	if err != nil {
		return "", err
	}
	return string(engine.InstanceKey(inst, r.Partial)), nil
}

// RPQRequest is the body of POST /v1/rpq.
type RPQRequest struct {
	// Query is the path expression over formula names; Formulas defines
	// each name (theory formula syntax: "=a", "city", "p && !q", …).
	Query    string            `json:"query"`
	Formulas map[string]string `json:"formulas"`
	// Views are the view path queries; a view without its own formulas
	// shares the query's.
	Views []RPQView `json:"views"`
	// Theory is the finite interpretation; omitted means the empty
	// theory.
	Theory *Theory `json:"theory,omitempty"`
	// Method is "grounded" (default), "direct" or "compressed".
	Method string `json:"method,omitempty"`

	MaxStates      int   `json:"max_states,omitempty"`
	MaxTransitions int   `json:"max_transitions,omitempty"`
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`
	Trace          bool  `json:"trace,omitempty"`
}

// RPQView is one view path query in an RPQRequest.
type RPQView struct {
	Name     string            `json:"name"`
	Query    string            `json:"query"`
	Formulas map[string]string `json:"formulas,omitempty"`
}

// Theory is the wire form of a finite interpretation.
type Theory struct {
	Constants  []string            `json:"constants"`
	Predicates map[string][]string `json:"predicates,omitempty"`
}

// TheoryWire converts a parsed interpretation (e.g. read from a theory
// file with theory.Read) into the wire form — the inverse of the
// ToEngine conversion, for clients that load theories locally and ship
// them to a server.
func TheoryWire(tt *theory.Interpretation) *Theory {
	if tt == nil {
		return nil
	}
	w := &Theory{Constants: tt.Domain().Names()}
	for _, pred := range tt.Predicates() {
		members := []string{}
		for _, sym := range tt.Satisfiers(theory.Pred(pred)) {
			members = append(members, tt.Domain().Name(sym))
		}
		if w.Predicates == nil {
			w.Predicates = map[string][]string{}
		}
		w.Predicates[pred] = members
	}
	return w
}

// ToEngine parses the wire form into an engine RPQRequest; every error
// here is the client's (the server answers 400 with the same message).
func (r RPQRequest) ToEngine() (engine.RPQRequest, error) {
	var method rpq.Method
	switch r.Method {
	case "", "grounded":
		method = rpq.Grounded
	case "direct":
		method = rpq.Direct
	case "compressed":
		method = rpq.Compressed
	default:
		return engine.RPQRequest{}, fmt.Errorf("unknown method %q (want grounded, direct or compressed)", r.Method)
	}
	tt := theory.New()
	if r.Theory != nil {
		tt.AddConstants(r.Theory.Constants...)
		// String-keyed, so iteration order is not analyzer-relevant;
		// Declare only accumulates membership sets and the
		// interpretation canonicalizes on read.
		for pred, members := range r.Theory.Predicates {
			tt.Declare(pred, members...)
		}
	}
	q0, err := rpq.ParseQuery(r.Query, r.Formulas)
	if err != nil {
		return engine.RPQRequest{}, err
	}
	views := make([]rpq.View, 0, len(r.Views))
	for _, v := range r.Views {
		if v.Name == "" {
			return engine.RPQRequest{}, fmt.Errorf("view without a name")
		}
		formulas := v.Formulas
		if formulas == nil {
			formulas = r.Formulas
		}
		vq, err := rpq.ParseQuery(v.Query, formulas)
		if err != nil {
			return engine.RPQRequest{}, fmt.Errorf("view %s: %w", v.Name, err)
		}
		views = append(views, rpq.View{Name: v.Name, Query: vq})
	}
	return engine.RPQRequest{
		Query: q0, Views: views, Theory: tt, Method: method,
		MaxStates:      r.MaxStates,
		MaxTransitions: r.MaxTransitions,
		Timeout:        time.Duration(r.TimeoutMS) * time.Millisecond,
	}, nil
}

// PlanKey computes the canonical plan key for the RPQ request.
func (r RPQRequest) PlanKey() (string, error) {
	ereq, err := r.ToEngine()
	if err != nil {
		return "", err
	}
	return string(engine.RPQKey(ereq.Query, ereq.Views, ereq.Theory, ereq.Method)), nil
}

// PlanResponse is the successful response of both rewrite endpoints.
type PlanResponse struct {
	// Key is the plan's canonical cache key.
	Key string `json:"key"`
	// Rewriting is the (maximal) rewriting as an expression over view
	// names.
	Rewriting string `json:"rewriting"`
	// Exact / Verdict report exactness; Verdict is "yes", "no" or
	// "unknown" (budget ran out before the check decided).
	Exact   bool   `json:"exact"`
	Verdict string `json:"verdict"`
	// Witness is a shortest word of L(E0) \ exp(L(R)) when Verdict is
	// "no".
	Witness []string `json:"witness,omitempty"`
	// ShortestWord is a shortest view-word with non-empty expansion.
	ShortestWord []string `json:"shortest_word,omitempty"`
	// Empty / SigmaEmpty are the Section 3.2 emptiness diagnostics.
	Empty      bool `json:"empty"`
	SigmaEmpty bool `json:"sigma_empty"`
	// States is the number of automaton states the cold compile
	// materialized (cache hits repeat the cold number: that is the work
	// the hit saved).
	States int64 `json:"states"`
	// Partial reports the partial-rewriting search when requested.
	Partial *PartialResult `json:"partial,omitempty"`
	// Degraded reports that the answering replica did not own the plan
	// key and computed locally because the owner was unreachable: the
	// answer is correct, but was a cold compile somewhere it will not be
	// cached long.
	Degraded bool `json:"degraded,omitempty"`
	// Trace is the per-request span tree when the request set trace.
	Trace *obs.SpanJSON `json:"trace,omitempty"`
}

// PartialResult reports the anytime partial-rewriting search.
type PartialResult struct {
	// Exact reports whether the search proved its extension exact before
	// the budget ran out.
	Exact bool `json:"exact"`
	// Added lists the elementary views the search added.
	Added []string `json:"added,omitempty"`
	// Rewriting is the extended instance's rewriting.
	Rewriting string `json:"rewriting"`
	// Stage names the budget stage that stopped an inexact search.
	Stage string `json:"stage,omitempty"`
}

// ErrorDetail is the structured error envelope, shared by every
// endpoint (and by mid-stream /v1/query error lines). Resource
// exhaustion is a client-addressable condition (raise the caps or
// simplify the instance), not a server fault, so it maps to 4xx with
// the stage diagnostics the budget layer recorded.
type ErrorDetail struct {
	// V is the envelope version (EnvelopeVersion); 0 means a pre-cluster
	// version-1 envelope.
	V int `json:"v,omitempty"`
	// Code is one of the Code* constants above.
	Code    string `json:"code"`
	Message string `json:"message"`
	// Stage/Resource/Limit/Used carry the budget diagnostics for
	// budget_exceeded.
	Stage    string `json:"stage,omitempty"`
	Resource string `json:"resource,omitempty"`
	Limit    int64  `json:"limit,omitempty"`
	Used     int64  `json:"used,omitempty"`
	// Owner names the replica owning the key when Code is not_owner.
	Owner string `json:"owner,omitempty"`
	// Degraded marks an error produced while computing locally for an
	// unreachable owner.
	Degraded bool `json:"degraded,omitempty"`
}

// Error makes ErrorDetail usable as a Go error.
func (e ErrorDetail) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return e.Code + ": " + e.Message
}

// ErrorEnvelope is the JSON shape errors travel in: {"error": {...}}.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// QueryRequest is the body of POST /v1/query: a rewriting problem plus
// the handle of a registered graph to answer it over.
type QueryRequest struct {
	Query string            `json:"query"`
	Views map[string]string `json:"views"`
	// Graph names a database registered via -graph or POST /v1/graphs.
	Graph string `json:"graph"`
	// Mode is "rewriting" (default: evaluate the maximal rewriting; the
	// graph's edge labels are view names) or "query" (evaluate E0; the
	// labels are Σ symbols).
	Mode string `json:"mode,omitempty"`
	// Source restricts to one source node; with Target too, the request
	// is boolean.
	Source string `json:"source,omitempty"`
	Target string `json:"target,omitempty"`
	// MaxAnswers caps the streamed answers; the trailer reports
	// truncation.
	MaxAnswers int `json:"max_answers,omitempty"`

	MaxStates      int   `json:"max_states,omitempty"`
	MaxTransitions int   `json:"max_transitions,omitempty"`
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`
}

// PlanKey computes the canonical plan key of the query's rewriting
// problem (the full, non-partial instance) — the cluster routing key.
func (q QueryRequest) PlanKey() (string, error) {
	inst, err := core.ParseInstance(q.Query, q.Views)
	if err != nil {
		return "", err
	}
	return string(engine.InstanceKey(inst, false)), nil
}

// QueryHeader is the first NDJSON line of a /v1/query response.
type QueryHeader struct {
	Type      string `json:"type"` // "header"
	Key       string `json:"key"`
	Rewriting string `json:"rewriting"`
	Exact     bool   `json:"exact"`
	Mode      string `json:"mode"`
	Graph     string `json:"graph"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	// Degraded mirrors PlanResponse.Degraded for the streaming endpoint.
	Degraded bool `json:"degraded,omitempty"`
}

// QueryAnswer is one streamed answer pair.
type QueryAnswer struct {
	Type string `json:"type"` // "answer"
	From string `json:"from"`
	To   string `json:"to"`
}

// QueryTrailer is the final NDJSON line of a successful response.
type QueryTrailer struct {
	Type      string `json:"type"` // "trailer"
	Answers   int    `json:"answers"`
	Truncated bool   `json:"truncated,omitempty"`
	// Matched is present on boolean requests (source and target given).
	Matched *bool `json:"matched,omitempty"`
}

// QueryErrorLine reports a mid-stream failure (budget exhaustion,
// deadline) after the header has been sent: the standard error
// envelope, as its own NDJSON line instead of an HTTP status.
type QueryErrorLine struct {
	Type  string      `json:"type"` // "error"
	Error ErrorDetail `json:"error"`
}

// RegisterGraphRequest is the body of POST /v1/graphs: a generator
// spec or the graph itself in the text codec.
type RegisterGraphRequest struct {
	Name string `json:"name"`
	// Spec is a workload generator spec ("grid:100x100",
	// "powerlaw:1000:10000:7", …). File paths are refused with 400
	// bad_request: a server reads graph files only from its boot-time
	// -graph flags.
	Spec string `json:"spec,omitempty"`
	// Text is the database in the graph text codec ("from label to"
	// lines), for clients shipping their own data.
	Text string `json:"text,omitempty"`
}

// GraphInfo is one registry entry in GET /v1/graphs.
type GraphInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}
