package main

import (
	"encoding/json"
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
type graphSet struct {
	mu     sync.RWMutex
	graphs map[string]*graph.DB
}

func newGraphSet() *graphSet { return &graphSet{graphs: make(map[string]*graph.DB)} }

func (g *graphSet) add(name string, db *graph.DB) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.graphs[name] = db
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

// generateGraph resolves a spec sent to POST /v1/graphs: generator
// specs only. A client's spec never names a server-side file.
func generateGraph(spec string) (*graph.DB, error) {
	if !workload.IsGraphSpec(spec) {
		return nil, fmt.Errorf("spec %q is not a graph generator spec (grid, chain, powerlaw or random); send the graph itself as text, or register files with the -graph flag", spec)
	}
	return workload.ParseGraphSpec(spec)
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
		db, err = generateGraph(req.Spec)
	case req.Text != "":
		db, err = graph.Read(strings.NewReader(req.Text), nil)
	default:
		err = fmt.Errorf("graph spec or text required")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, errorJSON{Code: "bad_request", Message: err.Error()})
		return
	}
	s.graphs.add(req.Name, db)
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
