package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"regexrw/internal/automata"
	"regexrw/internal/budget"
	"regexrw/internal/eval"
	"regexrw/internal/graph"
	"regexrw/internal/obs"
)

// QueryMode selects which automaton a QueryRequest evaluates over the
// supplied graph.
type QueryMode string

const (
	// ModeRewriting (the default) evaluates the plan's maximal rewriting
	// — an expression over the view names — so the graph's edge labels
	// are expected to be view names (a view-image graph, Section 4).
	ModeRewriting QueryMode = "rewriting"
	// ModeQuery evaluates the original query E0, so the graph's edge
	// labels are expected to be Σ symbols (the base database).
	ModeQuery QueryMode = "query"
)

// ErrNoGraph reports a QueryRequest without a database.
var ErrNoGraph = fmt.Errorf("engine: query request has no graph")

// errTruncated cuts a streaming evaluation short at MaxAnswers; it
// never escapes the package.
var errTruncated = fmt.Errorf("engine: answer cap reached")

// QueryRequest is one RPQ answering request: a rewriting problem (the
// embedded Request, compiled once and cached like any Rewrite call)
// plus the database to answer it over.
type QueryRequest struct {
	Request

	// Graph is the database evaluated against. Its edge labels are view
	// names under ModeRewriting and Σ symbols under ModeQuery.
	Graph *graph.DB
	// Mode selects the evaluated automaton; zero value is ModeRewriting.
	Mode QueryMode
	// Source restricts the evaluation to one source node (by name);
	// empty means all pairs. With Target set too, the request is boolean.
	Source, Target string
	// MaxAnswers caps the answers produced (0 = unlimited); a capped
	// result has Truncated set.
	MaxAnswers int
}

// QueryAnswer is one answer pair, by node name.
type QueryAnswer struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// QueryResult is the outcome of one evaluation.
type QueryResult struct {
	// Plan is the compiled (or cache-served) rewriting plan the
	// evaluation used.
	Plan *Plan
	// Answers is the answer set sorted by (from, to) name. Nil for
	// boolean requests and for QueryFunc (answers stream to the yield).
	Answers []QueryAnswer
	// Boolean and Matched report a source+target request's verdict.
	Boolean, Matched bool
	// Truncated reports that MaxAnswers cut the answer set short.
	Truncated bool
}

// evalKey identifies a cached evaluator: same plan, same mode, same
// database snapshot (by identity — a DB is append-only, but the
// evaluator snapshots it at construction, so a mutated DB must not hit
// the stale snapshot; registries hand out immutable DBs).
type evalKey struct {
	plan Key
	mode QueryMode
	db   *graph.DB
}

// evalCache is a tiny LRU of shared read-only evaluators. The CSR
// snapshot is the expensive part of evaluation setup (O(edges)); plans
// are cached across requests, so the evaluators built from them are
// too. Shared evaluators never see Insert — incremental sessions build
// private ones.
type evalCache struct {
	mu  sync.Mutex
	cap int
	ent []evalEntry // most recently used last
}

type evalEntry struct {
	key evalKey
	ev  *eval.Evaluator
}

func (c *evalCache) get(k evalKey) (*eval.Evaluator, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.ent {
		if c.ent[i].key == k {
			e := c.ent[i]
			c.ent = append(append(c.ent[:i], c.ent[i+1:]...), e)
			return e.ev, true
		}
	}
	return nil, false
}

func (c *evalCache) add(k evalKey, ev *eval.Evaluator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.ent {
		if c.ent[i].key == k {
			return // raced: keep the first one, both are equivalent
		}
	}
	c.ent = append(c.ent, evalEntry{key: k, ev: ev})
	if len(c.ent) > c.cap {
		c.ent = c.ent[1:]
	}
}

// Query answers the request: compile (or fetch) the plan, evaluate it
// over the graph. All-pairs and single-source requests return sorted
// answers; boolean requests (Source and Target both set) return
// Matched. Budget exhaustion during evaluation surfaces like compile
// exhaustion: errors.As(*budget.ExceededError), stage "eval.bfs".
func (e *Engine) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	var answers []QueryAnswer
	res, err := e.QueryFunc(ctx, req, func(a QueryAnswer) error {
		answers = append(answers, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].From != answers[j].From {
			return answers[i].From < answers[j].From
		}
		return answers[i].To < answers[j].To
	})
	res.Answers = answers
	return res, nil
}

// QueryFunc is the streaming form of Query: answer pairs are passed to
// yield as they are discovered (grouped by source, unsorted within a
// source), each exactly once. A non-nil error from yield aborts the
// evaluation and is returned verbatim. Boolean requests yield nothing.
func (e *Engine) QueryFunc(ctx context.Context, req QueryRequest, yield func(QueryAnswer) error) (*QueryResult, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("%w", ErrClosed)
	}
	if req.Graph == nil {
		return nil, ErrNoGraph
	}
	if req.Mode == "" {
		req.Mode = ModeRewriting
	}
	ctx, span := obs.StartSpan(ctx, "engine.query")
	defer span.End()
	span.SetAttr("mode_query", boolAttr(req.Mode == ModeQuery))
	e.count(&e.queries, "engine.queries")

	plan, err := e.Rewrite(ctx, req.Request)
	if err != nil {
		return nil, err
	}

	ectx, cancel := e.evalContext(ctx, req.MaxStates, req.MaxTransitions, req.Timeout)
	defer cancel()
	ev, err := e.evaluator(ectx, plan, req.Request, req.Mode, req.Graph)
	if err != nil {
		return nil, err
	}

	res := &QueryResult{Plan: plan}
	db := req.Graph
	if req.Source != "" && req.Target != "" {
		src, err := resolveNode(db, req.Source)
		if err != nil {
			return nil, err
		}
		dst, err := resolveNode(db, req.Target)
		if err != nil {
			return nil, err
		}
		res.Boolean = true
		res.Matched, err = ev.Boolean(ectx, src, dst)
		if err != nil {
			return nil, err
		}
		span.SetAttr("matched", boolAttr(res.Matched))
		return res, nil
	}

	answers := 0
	emit := func(a QueryAnswer) error {
		if req.MaxAnswers > 0 && answers >= req.MaxAnswers {
			res.Truncated = true
			return errTruncated
		}
		answers++
		return yield(a)
	}
	if req.Source != "" {
		src, err := resolveNode(db, req.Source)
		if err != nil {
			return nil, err
		}
		err = ev.FromFunc(ectx, src, func(n graph.NodeID) error {
			return emit(QueryAnswer{From: req.Source, To: db.NodeName(n)})
		})
		if err != nil && err != errTruncated {
			return nil, err
		}
	} else {
		err = ev.AllPairsFunc(ectx, func(p graph.Pair) error {
			return emit(QueryAnswer{From: db.NodeName(p.From), To: db.NodeName(p.To)})
		})
		if err != nil && err != errTruncated {
			return nil, err
		}
	}
	span.SetAttr("answers", int64(answers))
	return res, nil
}

// evaluator returns the shared evaluator for (plan, mode, graph),
// building and caching it on first use.
func (e *Engine) evaluator(ctx context.Context, plan *Plan, req Request, mode QueryMode, db *graph.DB) (*eval.Evaluator, error) {
	k := evalKey{plan: plan.Key(), mode: mode, db: db}
	if ev, ok := e.evals.get(k); ok {
		e.reg.Counter("cache.eval.hits").Inc()
		return ev, nil
	}
	e.reg.Counter("cache.eval.misses").Inc()
	d, err := e.queryAutomaton(ctx, plan, req, mode)
	if err != nil {
		return nil, err
	}
	ev, err := eval.New(d, db)
	if err != nil {
		return nil, err
	}
	e.evals.add(k, ev)
	return ev, nil
}

// queryAutomaton picks the DFA a mode evaluates: the plan's canonical
// minimal rewriting DFA, or a determinization of the original query.
// ModeQuery takes the instance from the request or the compiled plan;
// only a restored plan (no construction state) given as concrete
// syntax needs a parse here.
func (e *Engine) queryAutomaton(ctx context.Context, plan *Plan, req Request, mode QueryMode) (*automata.DFA, error) {
	if mode == ModeRewriting {
		return plan.MinimalDFA(), nil
	}
	inst := req.Instance
	if inst == nil {
		inst = plan.Instance()
	}
	if inst == nil {
		var err error
		if inst, err = e.parse(req.Query, req.Views); err != nil {
			return nil, err
		}
	}
	d, err := automata.DeterminizeContext(ctx, inst.QueryNFA())
	if err != nil {
		return nil, err
	}
	return d.Minimize().TrimPartial(), nil
}

// evalContext applies the engine's governance defaults to an
// evaluation: a budget when the caller brought none (request caps can
// only tighten the engine's), the engine deadline, and the engine's
// tracer/metrics when the context carries none.
func (e *Engine) evalContext(ctx context.Context, maxStates, maxTransitions int, timeout time.Duration) (context.Context, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if b := budget.From(ctx); b == nil {
		ms, mt := e.maxStates, e.maxTransitions
		if maxStates > 0 && (ms <= 0 || maxStates < ms) {
			ms = maxStates
		}
		if maxTransitions > 0 && (mt <= 0 || maxTransitions < mt) {
			mt = maxTransitions
		}
		ctx = budget.With(ctx, budget.New(budget.MaxStates(ms), budget.MaxTransitions(mt)))
	}
	if _, has := ctx.Deadline(); !has {
		d := e.defaultTimeout
		if timeout > 0 && (d == 0 || timeout < d) {
			d = timeout
		}
		if d > 0 {
			ctx, cancel = context.WithTimeout(ctx, d)
		}
	}
	if e.tracer != nil && obs.SpanFromContext(ctx) == nil {
		ctx = obs.WithTracer(ctx, e.tracer)
	}
	if obs.MetricsFrom(ctx) == nil && e.reg != nil {
		ctx = obs.WithMetrics(ctx, e.reg)
	}
	return ctx, cancel
}

func resolveNode(db *graph.DB, name string) (graph.NodeID, error) {
	n := db.NodeID(name)
	if n < 0 {
		return 0, fmt.Errorf("%w: %q", eval.ErrUnknownNode, name)
	}
	return n, nil
}

func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// LiveQuery is a retained incremental evaluation session: the answer
// set of one QueryRequest kept current under edge insertions without
// re-evaluating from scratch. It owns a private evaluator (never the
// shared cached one) whose delta overlay receives the insertions; the
// underlying database is not touched. A LiveQuery serializes its own
// methods and is safe for concurrent use.
type LiveQuery struct {
	e    *Engine
	plan *Plan

	mu  sync.Mutex
	ev  *eval.Evaluator
	run *eval.Run    // single-source sessions
	all *eval.AllRun // all-pairs sessions
}

// QueryIncremental evaluates the request once and retains the
// evaluation state for incremental re-evaluation under InsertEdge +
// Update. Boolean requests (Source and Target both set) are not
// incremental; use Query. All-pairs sessions track the sources present
// at session start (answers *to* later-inserted nodes are found;
// answer sets *from* them are not).
func (e *Engine) QueryIncremental(ctx context.Context, req QueryRequest) (*LiveQuery, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("%w", ErrClosed)
	}
	if req.Graph == nil {
		return nil, ErrNoGraph
	}
	if req.Mode == "" {
		req.Mode = ModeRewriting
	}
	if req.Target != "" {
		return nil, fmt.Errorf("engine: boolean requests are not incremental")
	}
	ctx, span := obs.StartSpan(ctx, "engine.query")
	defer span.End()
	span.SetAttr("mode_query", boolAttr(req.Mode == ModeQuery))
	span.SetAttr("incremental", 1)
	e.count(&e.queries, "engine.queries")

	plan, err := e.Rewrite(ctx, req.Request)
	if err != nil {
		return nil, err
	}
	ectx, cancel := e.evalContext(ctx, req.MaxStates, req.MaxTransitions, req.Timeout)
	defer cancel()
	d, err := e.queryAutomaton(ectx, plan, req.Request, req.Mode)
	if err != nil {
		return nil, err
	}
	ev, err := eval.New(d, req.Graph)
	if err != nil {
		return nil, err
	}
	lq := &LiveQuery{e: e, plan: plan, ev: ev}
	if req.Source != "" {
		src, err := resolveNode(req.Graph, req.Source)
		if err != nil {
			return nil, err
		}
		lq.run, err = ev.Start(ectx, src)
		if err != nil {
			return nil, err
		}
	} else {
		lq.all, err = ev.StartAll(ectx)
		if err != nil {
			return nil, err
		}
	}
	return lq, nil
}

// Plan returns the compiled plan the session evaluates.
func (q *LiveQuery) Plan() *Plan { return q.plan }

// InsertEdge adds from --label--> to to the session's delta overlay
// (creating nodes as needed; labels the evaluated automaton cannot
// follow are inert). The answer set catches up on the next Update.
func (q *LiveQuery) InsertEdge(from, label, to string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ev.Insert(from, label, to)
}

// Update re-evaluates over the pending insertions, reusing the
// retained visited state, and returns the newly discovered answers
// sorted by (from, to) name. The cumulative set (Answers) is identical
// to evaluating the extended graph from scratch.
func (q *LiveQuery) Update(ctx context.Context) ([]QueryAnswer, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	ectx, cancel := q.e.evalContext(ctx, 0, 0, 0)
	defer cancel()
	var fresh []QueryAnswer
	if q.run != nil {
		nodes, err := q.run.Update(ectx)
		if err != nil {
			return nil, err
		}
		from := q.ev.NodeName(q.run.Source())
		for _, n := range nodes {
			fresh = append(fresh, QueryAnswer{From: from, To: q.ev.NodeName(n)})
		}
	} else {
		pairs, err := q.all.Update(ectx)
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			fresh = append(fresh, QueryAnswer{From: q.ev.NodeName(p.From), To: q.ev.NodeName(p.To)})
		}
	}
	sortAnswers(fresh)
	return fresh, nil
}

// Answers returns the session's current cumulative answer set, sorted
// by (from, to) name.
func (q *LiveQuery) Answers() []QueryAnswer {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []QueryAnswer
	if q.run != nil {
		from := q.ev.NodeName(q.run.Source())
		for _, n := range q.run.Answers() {
			out = append(out, QueryAnswer{From: from, To: q.ev.NodeName(n)})
		}
	} else {
		for _, p := range q.all.Pairs() {
			out = append(out, QueryAnswer{From: q.ev.NodeName(p.From), To: q.ev.NodeName(p.To)})
		}
	}
	sortAnswers(out)
	return out
}

func sortAnswers(as []QueryAnswer) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].From != as[j].From {
			return as[i].From < as[j].From
		}
		return as[i].To < as[j].To
	})
}
