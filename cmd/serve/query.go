package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	regexrwclient "regexrw/client"
	"regexrw/internal/engine"
	"regexrw/internal/graph"
	"regexrw/internal/workload"
)

// graphSet is the server's registry of named databases: populated at
// boot from repeatable -graph name=spec flags and at runtime via
// POST /v1/graphs. Registered databases are immutable — a re-register
// replaces the entry wholesale, it never mutates a served graph (the
// engine's evaluator cache keys on the *graph.DB identity, so a
// replaced graph gets fresh evaluators).
//
// Registrations over HTTP are bounded (addBounded); the operator's
// -graph flags are not, but their edges count toward the total.
type graphSet struct {
	mu     sync.RWMutex
	graphs map[string]*graph.DB
	edges  int64 // summed NumEdges of the registered graphs

	// gen serializes generator-spec registrations, so at most one
	// graph of up to maxGraphEdges is being generated at a time and
	// its budget check holds until it is registered.
	gen sync.Mutex

	maxEdges  int64 // maxRegistryEdges; tests lower it
	maxGraphs int   // maxRegistryGraphs
}

// Bounds on POST /v1/graphs. A generator spec is sized from its
// parameters before anything is generated; a spec over the per-graph
// caps, or any registration that would take the registry past
// maxRegistryEdges or maxRegistryGraphs, gets 413 graph_too_large.
// The per-graph caps admit a million-edge powerlaw graph (well under
// a second to generate); the totals keep a stream of registrations
// from growing the registry without bound.
const (
	maxGraphNodes     = 1_000_000
	maxGraphEdges     = 2_000_000
	maxRegistryEdges  = 8_000_000
	maxRegistryGraphs = 256
)

// errGraphTooLarge is the 413 class of registration failures.
type errGraphTooLarge struct{ msg string }

func (e *errGraphTooLarge) Error() string { return e.msg }

func newGraphSet() *graphSet {
	return &graphSet{graphs: make(map[string]*graph.DB), maxEdges: maxRegistryEdges, maxGraphs: maxRegistryGraphs}
}

// add registers db unconditionally (boot-time -graph flags).
func (g *graphSet) add(name string, db *graph.DB) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.put(name, db)
}

// addBounded registers db unless the registry would then hold more
// than its edge budget or graph count allows. A replaced graph's edges
// are given back first.
func (g *graphSet) addBounded(name string, db *graph.DB) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	total, count := g.edgesAfter(name, int64(db.NumEdges())), len(g.graphs)+1
	if _, ok := g.graphs[name]; ok {
		count--
	}
	if total > g.maxEdges {
		return &errGraphTooLarge{fmt.Sprintf("registering %q would hold %d edges in the registry, over its budget of %d", name, total, g.maxEdges)}
	}
	if count > g.maxGraphs {
		return &errGraphTooLarge{fmt.Sprintf("the registry holds its maximum of %d graphs", g.maxGraphs)}
	}
	g.put(name, db)
	return nil
}

func (g *graphSet) put(name string, db *graph.DB) {
	if old, ok := g.graphs[name]; ok {
		g.edges -= int64(old.NumEdges())
	}
	g.graphs[name] = db
	g.edges += int64(db.NumEdges())
}

// edgesAfter is the registry's edge total once a graph of that many
// edges is registered under name. The caller holds mu.
func (g *graphSet) edgesAfter(name string, edges int64) int64 {
	total := g.edges + edges
	if old, ok := g.graphs[name]; ok {
		total -= int64(old.NumEdges())
	}
	return total
}

func (g *graphSet) get(name string) (*graph.DB, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	db, ok := g.graphs[name]
	return db, ok
}

func (g *graphSet) list() []graphInfo {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]graphInfo, 0, len(g.graphs))
	//mapiter:unordered sorted by name below
	for name, db := range g.graphs {
		out = append(out, graphInfo{Name: name, Nodes: db.NumNodes(), Edges: db.NumEdges()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// loadGraph resolves one boot-time -graph spec: a generator spec
// understood by internal/workload ("grid:WxH", "chain:N",
// "powerlaw:N:E:SEED", "random:N:E:SEED") or a path to a file in the
// graph text codec. Only the operator's flags reach it; specs sent
// over HTTP go through generateGraph, which opens no file.
func loadGraph(spec string) (*graph.DB, error) {
	if workload.IsGraphSpec(spec) {
		return workload.ParseGraphSpec(spec)
	}
	f, err := os.Open(spec)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f, nil)
}

// registerSpec resolves a spec sent to POST /v1/graphs and registers
// the graph: generator specs only, so a client's spec never names a
// server-side file. The graph's size is read off the spec's parameters
// first, and a graph over the per-graph caps, or one the registry has
// no room for, is refused (*errGraphTooLarge) without being generated.
func (g *graphSet) registerSpec(name, spec string) (*graph.DB, error) {
	if !workload.IsGraphSpec(spec) {
		return nil, fmt.Errorf("spec %q is not a graph generator spec (grid, chain, powerlaw or random); send the graph itself as text, or register files with the -graph flag", spec)
	}
	gen, err := workload.ParseGenerator(spec)
	if err != nil {
		return nil, err
	}
	nodes, edges := gen.Size()
	if nodes > maxGraphNodes || edges > maxGraphEdges {
		return nil, &errGraphTooLarge{fmt.Sprintf("spec %q generates %d nodes and %d edges; the caps are %d nodes and %d edges", spec, nodes, edges, maxGraphNodes, maxGraphEdges)}
	}
	g.gen.Lock()
	defer g.gen.Unlock()
	g.mu.RLock()
	total := g.edgesAfter(name, edges)
	g.mu.RUnlock()
	if total > g.maxEdges {
		return nil, &errGraphTooLarge{fmt.Sprintf("spec %q generates %d edges; the registry has no room for them under its budget of %d", spec, edges, g.maxEdges)}
	}
	db := gen.Build()
	return db, g.addBounded(name, db)
}

// graphFlags is the repeatable -graph name=spec flag.
type graphFlags []string

func (g *graphFlags) String() string { return strings.Join(*g, ",") }

func (g *graphFlags) Set(v string) error {
	*g = append(*g, v)
	return nil
}

// registerGraphFlags loads each name=spec pair into the registry.
func registerGraphFlags(gs *graphSet, flags []string) error {
	for _, f := range flags {
		name, spec, ok := strings.Cut(f, "=")
		if !ok || name == "" {
			return fmt.Errorf("-graph %q: want name=spec", f)
		}
		db, err := loadGraph(spec)
		if err != nil {
			return fmt.Errorf("-graph %s: %w", name, err)
		}
		gs.add(name, db)
	}
	return nil
}

func (s *server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var req registerGraphRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, errorJSON{Code: "bad_request", Message: err.Error()})
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, errorJSON{Code: "bad_request", Message: "graph name required"})
		return
	}
	var db *graph.DB
	var err error
	switch {
	case req.Spec != "" && req.Text != "":
		err = fmt.Errorf("give spec or text, not both")
	case req.Spec != "":
		db, err = s.graphs.registerSpec(req.Name, req.Spec)
	case req.Text != "":
		if db, err = graph.Read(strings.NewReader(req.Text), nil); err == nil {
			err = s.graphs.addBounded(req.Name, db)
		}
	default:
		err = fmt.Errorf("graph spec or text required")
	}
	var tooLarge *errGraphTooLarge
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, errorJSON{Code: regexrwclient.CodeGraphTooLarge, Message: err.Error()})
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, errorJSON{Code: "bad_request", Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, graphInfo{Name: req.Name, Nodes: db.NumNodes(), Edges: db.NumEdges()})
}

func (s *server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Graphs []graphInfo `json:"graphs"`
	}{s.graphs.list()})
}

// The /v1/graphs and /v1/query wire schemas are defined in the
// regexrwclient package and aliased here; see client/wire.go for the
// documented definitions.
type (
	registerGraphRequest = regexrwclient.RegisterGraphRequest
	graphInfo            = regexrwclient.GraphInfo
	queryRequest         = regexrwclient.QueryRequest
	queryHeader          = regexrwclient.QueryHeader
	queryAnswerLine      = regexrwclient.QueryAnswer
	queryTrailer         = regexrwclient.QueryTrailer
	queryErrorLine       = regexrwclient.QueryErrorLine
)

// answerChunk is the size at which buffered answer lines are written
// to the response.
const answerChunk = 4 << 10

// handleQuery answers a registered graph with NDJSON streaming: one
// header line, one line per answer pair as discovered, one trailer.
// Errors before the first byte use the standard envelope with the
// taxonomy's status codes; errors after streaming started become a
// final "error" line (the status is already committed).
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, errorJSON{Code: "bad_request", Message: err.Error()})
		return
	}
	db, ok := s.graphs.get(req.Graph)
	if !ok {
		writeError(w, http.StatusNotFound, errorJSON{
			Code:    "unknown_graph",
			Message: fmt.Sprintf("graph %q not registered (use -graph or POST /v1/graphs)", req.Graph),
		})
		return
	}
	var mode engine.QueryMode
	switch req.Mode {
	case "", "rewriting":
		mode = engine.ModeRewriting
	case "query":
		mode = engine.ModeQuery
	default:
		writeError(w, http.StatusBadRequest, errorJSON{
			Code: "bad_request", Message: fmt.Sprintf("unknown mode %q (want rewriting or query)", req.Mode),
		})
		return
	}
	ereq := engine.QueryRequest{
		Request: engine.Request{
			Query:          req.Query,
			Views:          req.Views,
			MaxStates:      req.MaxStates,
			MaxTransitions: req.MaxTransitions,
			Timeout:        time.Duration(req.TimeoutMS) * time.Millisecond,
		},
		Graph:      db,
		Mode:       mode,
		Source:     req.Source,
		Target:     req.Target,
		MaxAnswers: req.MaxAnswers,
	}

	// Compile (or fetch) the plan before committing the stream so
	// compile-time failures map onto the taxonomy's status codes; the
	// evaluation below re-fetches it from the cache.
	degraded := routeDegraded(r.Context())
	ctx, span := routeSpan(r.Context())
	plan, err := s.eng.Rewrite(ctx, ereq.Request)
	if err != nil {
		span.End()
		writeEngineErrorDegraded(w, err, degraded)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	_ = enc.Encode(queryHeader{
		Type: "header", Key: string(plan.Key()), Rewriting: plan.RegexString(),
		Exact: plan.IsExact(), Mode: string(mode), Graph: req.Graph,
		Nodes: db.NumNodes(), Edges: db.NumEdges(), Degraded: degraded,
	})
	if flusher != nil {
		flusher.Flush()
	}

	// Answer lines are appended into one reused buffer and written in
	// chunks; every 1024 answers the stream is also flushed to the
	// client.
	answers := 0
	buf := make([]byte, 0, answerChunk+256)
	res, err := s.eng.QueryFunc(ctx, ereq, func(a engine.QueryAnswer) error {
		answers++
		buf = appendAnswerLine(buf, a.From, a.To)
		if len(buf) < answerChunk && answers%1024 != 0 {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		if err != nil {
			return err
		}
		if flusher != nil && answers%1024 == 0 {
			flusher.Flush()
		}
		return nil
	})
	span.End()
	if len(buf) > 0 {
		_, _ = w.Write(buf) // a failed write leaves nobody to tell
	}
	if err != nil {
		status, ej := engineError(err)
		_ = status // committed: the envelope travels as an NDJSON line
		ej.Degraded = degraded
		_ = enc.Encode(queryErrorLine{Type: "error", Error: ej})
		return
	}
	trailer := queryTrailer{Type: "trailer", Answers: answers, Truncated: res.Truncated}
	if res.Boolean {
		trailer.Matched = &res.Matched
	}
	_ = enc.Encode(trailer)
}
