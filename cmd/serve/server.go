package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	regexrwclient "regexrw/client"
	"regexrw/internal/automata"
	"regexrw/internal/budget"
	"regexrw/internal/engine"
	"regexrw/internal/eval"
	"regexrw/internal/obs"
)

// server wraps an engine.Engine behind the HTTP/JSON API. All state is
// in the engine and the boot-time readiness tracker; the server itself
// is stateless and safe for concurrent use.
type server struct {
	eng    *engine.Engine
	rd     *readiness
	graphs *graphSet
	// cl, when non-nil, is the cluster view rendered on /readyz. The
	// routing itself lives in the router wrapper (newRouter), not here.
	cl *clusterState
}

// newServer returns the HTTP handler serving the engine:
//
//	POST /v1/rewrite  — compile (or fetch) the plan for a regex instance
//	POST /v1/rpq      — the same for a regular path query under a theory
//	POST /v1/query    — answer an RPQ over a registered graph (NDJSON)
//	POST /v1/graphs   — register a graph (generator spec or text codec)
//	GET  /v1/graphs   — list registered graphs
//	GET  /healthz     — liveness plus the engine's cache/compile counters
//	GET  /readyz      — readiness: 503 until warm start + manifest finish
//	GET  /metrics     — Prometheus text exposition of the registry
//
// rd may be nil (tests without a boot sequence): the server is then
// always ready. graphs may be nil: an empty registry is created (graphs
// can still be registered over HTTP).
func newServer(eng *engine.Engine, rd *readiness, graphs *graphSet) http.Handler {
	return newServerWith(eng, rd, graphs, nil)
}

// newServerWith is newServer plus the cluster view for /readyz; cl may
// be nil (single-node).
func newServerWith(eng *engine.Engine, rd *readiness, graphs *graphSet, cl *clusterState) http.Handler {
	if graphs == nil {
		graphs = newGraphSet()
	}
	s := &server{eng: eng, rd: rd, graphs: graphs, cl: cl}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/rewrite", s.handleRewrite)
	mux.HandleFunc("POST /v1/rpq", s.handleRPQ)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/graphs", s.handleRegisterGraph)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// The wire schema is defined once, in the regexrwclient package, and
// aliased here: the server cannot drift from the client field by
// field. See client/wire.go for the documented definitions.
type (
	rewriteRequest = regexrwclient.RewriteRequest
	rpqRequest     = regexrwclient.RPQRequest
	rpqViewJSON    = regexrwclient.RPQView
	theoryJSON     = regexrwclient.Theory
	planResponse   = regexrwclient.PlanResponse
	partialJSON    = regexrwclient.PartialResult
	errorJSON      = regexrwclient.ErrorDetail
)

func (s *server) handleRewrite(w http.ResponseWriter, r *http.Request) {
	var req rewriteRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, errorJSON{Code: "bad_request", Message: err.Error()})
		return
	}
	// The engine parses the request only when its spelling is new; a
	// syntax error comes back as a *engine.ParseError, answered 400.
	ctx, tr := traceCtx(r.Context(), req.Trace)
	ctx, span := routeSpan(ctx)
	plan, err := s.eng.Rewrite(ctx, engine.Request{
		Query:          req.Query,
		Views:          req.Views,
		Partial:        req.Partial,
		MaxStates:      req.MaxStates,
		MaxTransitions: req.MaxTransitions,
		Timeout:        time.Duration(req.TimeoutMS) * time.Millisecond,
	})
	span.End()
	s.respond(w, r, plan, err, tr)
}

func (s *server) handleRPQ(w http.ResponseWriter, r *http.Request) {
	var req rpqRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, errorJSON{Code: "bad_request", Message: err.Error()})
		return
	}
	ereq, err := buildRPQ(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorJSON{Code: "bad_request", Message: err.Error()})
		return
	}
	ctx, tr := traceCtx(r.Context(), req.Trace)
	ctx, span := routeSpan(ctx)
	plan, err := s.eng.RewriteRPQ(ctx, ereq)
	span.End()
	s.respond(w, r, plan, err, tr)
}

// buildRPQ parses the wire form into an engine RPQRequest; every error
// here is the client's. The translation lives on the shared wire type
// so the cluster-aware client computes routing keys from the exact
// same parse.
func buildRPQ(req rpqRequest) (engine.RPQRequest, error) {
	return req.ToEngine()
}

// respond writes the plan or maps the engine error onto the HTTP
// taxonomy.
func (s *server) respond(w http.ResponseWriter, r *http.Request, plan *engine.Plan, err error, tr *obs.Tracer) {
	degraded := routeDegraded(r.Context())
	if err != nil {
		writeEngineErrorDegraded(w, err, degraded)
		return
	}
	resp := planResponse{
		Key:        string(plan.Key()),
		Rewriting:  plan.RegexString(),
		Exact:      plan.IsExact(),
		Verdict:    plan.Exactness().Verdict.String(),
		Witness:    plan.Witness(),
		Empty:      plan.IsEmpty(),
		SigmaEmpty: plan.IsSigmaEmpty(),
		States:     plan.States(),
	}
	if w2, ok := plan.ShortestWord(); ok {
		resp.ShortestWord = w2
	}
	if pr := plan.Partial(); pr != nil {
		resp.Partial = &partialJSON{
			Exact:     pr.Exact,
			Added:     pr.Result.Added,
			Rewriting: plan.PartialRegexString(),
			Stage:     pr.Stage,
		}
	}
	if degraded {
		resp.Degraded = true
	}
	if tr != nil {
		resp.Trace = tr.Export()
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeEngineError maps the engine's error taxonomy onto status codes:
// resource exhaustion is 422 (the request as posed cannot be served
// under its caps), admission rejection is 429 (retry against a less
// loaded server), deadline is 504, closed is 503.
func writeEngineError(w http.ResponseWriter, err error) {
	writeEngineErrorDegraded(w, err, false)
}

// writeEngineErrorDegraded is writeEngineError with the degraded-mode
// marker: failures while computing locally for an unreachable owner
// carry degraded in the envelope, so a client can tell "the owner
// would have had this cached" from an ordinary local failure.
func writeEngineErrorDegraded(w http.ResponseWriter, err error, degraded bool) {
	status, ej := engineError(err)
	ej.Degraded = degraded
	if ej.Code == "queue_full" {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, ej)
}

// engineError classifies an engine error into the taxonomy; the query
// streaming path reuses the envelope for mid-stream error lines, so
// the version is stamped here (not only in writeError) and both paths
// carry it.
func engineError(err error) (int, errorJSON) {
	status, ej := engineErrorDetail(err)
	ej.V = regexrwclient.EnvelopeVersion
	return status, ej
}

func engineErrorDetail(err error) (int, errorJSON) {
	var ex *budget.ExceededError
	var pe *engine.ParseError
	switch {
	case errors.As(err, &pe):
		return http.StatusBadRequest, errorJSON{Code: "bad_request", Message: err.Error()}
	case errors.As(err, &ex):
		return http.StatusUnprocessableEntity, errorJSON{
			Code: "budget_exceeded", Message: err.Error(),
			Stage: ex.Stage, Resource: string(ex.Resource), Limit: ex.Limit, Used: ex.Used,
		}
	case errors.Is(err, automata.ErrStateLimit):
		return http.StatusUnprocessableEntity, errorJSON{Code: "state_limit", Message: err.Error()}
	case errors.Is(err, engine.ErrQueueFull):
		return http.StatusTooManyRequests, errorJSON{Code: "queue_full", Message: err.Error()}
	case errors.Is(err, engine.ErrClosed):
		return http.StatusServiceUnavailable, errorJSON{Code: "closed", Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, errorJSON{Code: "deadline", Message: err.Error()}
	case errors.Is(err, context.Canceled):
		// The client went away; 499-style, but stdlib has no constant.
		return 499, errorJSON{Code: "canceled", Message: err.Error()}
	case errors.Is(err, eval.ErrUnknownNode):
		return http.StatusBadRequest, errorJSON{Code: "bad_request", Message: err.Error()}
	case errors.Is(err, engine.ErrNoGraph):
		return http.StatusBadRequest, errorJSON{Code: "bad_request", Message: err.Error()}
	default:
		return http.StatusInternalServerError, errorJSON{Code: "internal", Message: err.Error()}
	}
}

// healthResponse is GET /healthz.
type healthResponse struct {
	Status string       `json:"status"`
	Stats  engine.Stats `json:"stats"`
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Stats: s.eng.Stats()})
}

// handleReady distinguishes "alive" from "warmed": /healthz answers 200
// the moment the listener is up, /readyz answers 503 with warm-up
// progress until the plan store has been restored and the manifest
// precompiled, then 200. Load balancers gate on /readyz so a restarted
// instance only takes traffic once it serves at cache-hit latency.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	var resp readyResponse
	status := http.StatusOK
	if s.rd == nil {
		resp = readyResponse{Status: "ready"}
	} else {
		resp = s.rd.response()
		if resp.Status != "ready" {
			status = http.StatusServiceUnavailable
		}
	}
	if s.cl != nil {
		resp.Cluster = s.cl.statusJSON()
	}
	writeJSON(w, status, resp)
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.eng.Metrics().WritePrometheus(w)
}

func traceCtx(ctx context.Context, trace bool) (context.Context, *obs.Tracer) {
	if !trace {
		return ctx, nil
	}
	tr := obs.NewTracer()
	return obs.WithTracer(ctx, tr), tr
}

const maxBodyBytes = 1 << 20 // requests are expressions, not data

func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError stamps the envelope version and wraps the detail in the
// {"error": {...}} envelope every endpoint shares.
func writeError(w http.ResponseWriter, status int, e errorJSON) {
	if e.V == 0 {
		e.V = regexrwclient.EnvelopeVersion
	}
	writeJSON(w, status, regexrwclient.ErrorEnvelope{Error: e})
}
