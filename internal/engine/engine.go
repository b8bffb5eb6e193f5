// Package engine is the serving layer of the rewriting pipeline: it
// compiles a rewriting problem once into an immutable Plan and caches
// plans in a sharded LRU keyed by a canonical hash of the instance, so
// that a production workload of repeated queries pays the doubly
// exponential construction (Theorems 5 and 8 of the paper) once per
// distinct instance instead of once per request. This is the setting
// of view-based query answering: rewritings are computed rarely and
// evaluated constantly, so the compiled artifact — rewriting automaton,
// exactness report, minimal DFA, shortest witness — is the unit worth
// keeping.
//
// An Engine wires together the governance layers built underneath it:
// per-request budgets and deadlines (internal/budget), the bounded
// worker pool (internal/par) for batch fan-out and the per-view
// parallel stages inside one compile, and tracing/metrics
// (internal/obs) under "engine.*" spans and counters. Concurrent
// identical requests are deduplicated singleflight-style: one compile
// runs, the rest wait for its plan. Admission control bounds how many
// compiles may be in flight (plus a short wait queue); beyond that,
// requests fail fast with an *AdmissionError rather than piling
// exponential work onto a saturated process.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"regexrw/internal/budget"
	"regexrw/internal/core"
	"regexrw/internal/obs"
	"regexrw/internal/par"
	"regexrw/internal/planstore"
	"regexrw/internal/rpq"
	"regexrw/internal/strategy"
	"regexrw/internal/theory"
)

// Engine compiles rewriting problems into Plans and serves repeated
// instances from its plan cache. Construct with New; an Engine is safe
// for concurrent use by any number of goroutines.
type Engine struct {
	maxStates      int
	maxTransitions int
	defaultTimeout time.Duration
	workers        int
	strat          *strategy.Config
	tracer         *obs.Tracer
	reg            *obs.Registry

	cache     *planCache
	spellings *spellingIndex // raw request spelling → plan key (spelling.go)
	evals     evalCache      // shared read-only evaluators for Query (query.go)

	// store is the optional persistent plan store: a second cache tier
	// behind the LRU, consulted by singleflight leaders before they
	// compile and written behind after they do. Every store failure
	// degrades to an in-memory compile; the store can never fail a
	// request.
	store  *planstore.Store
	saves  sync.WaitGroup // in-flight write-behind saves
	saveMu sync.Mutex     // orders saves.Add against Close's Wait

	// Singleflight: at most one compile per key runs at a time; later
	// identical requests wait on the leader's call.
	mu    sync.Mutex
	calls map[Key]*call

	// Admission: compile slots plus a bounded wait queue.
	admitLimit int
	queueLimit int
	admit      chan struct{}
	queued     atomic.Int64

	// owns, when non-nil, is the cluster ownership filter: WarmStart
	// and other bulk materialization paths only touch keys this engine
	// owns, so N replicas each restore ~1/N of the persisted plan
	// universe instead of all of it. The request path is NOT filtered —
	// a replica serving a non-owned request (forwarding declined or
	// degraded) must still compile it.
	owns func(Key) bool

	closed atomic.Bool

	// Authoritative counters behind Stats; every increment is mirrored
	// onto reg's "engine.*" / "cache.plan.*" metrics.
	requests   atomic.Int64
	compiles   atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	dedups     atomic.Int64
	evictions  atomic.Int64
	rejected   atomic.Int64
	storeLoads atomic.Int64
	storeSaves atomic.Int64
	queries    atomic.Int64
}

type call struct {
	done chan struct{}
	plan *Plan
	err  error
}

// Option configures an Engine.
type Option func(*Engine)

// WithBudgetDefaults sets the per-request resource budget applied to
// every compile whose context does not already carry one: caps on total
// materialized states and transitions (0 = unlimited). This is the
// engine-level guard against a single adversarial instance exhausting
// the process (Theorem 8 inputs exist); individual requests may tighten
// it via Request.MaxStates/MaxTransitions but never widen it.
func WithBudgetDefaults(maxStates, maxTransitions int) Option {
	return func(e *Engine) { e.maxStates, e.maxTransitions = maxStates, maxTransitions }
}

// WithDefaultTimeout sets the wall-clock deadline applied to every
// compile whose context has none (0 = no deadline).
func WithDefaultTimeout(d time.Duration) Option {
	return func(e *Engine) { e.defaultTimeout = d }
}

// WithWorkers sets the worker count used by RewriteBatch fan-out and by
// the per-view parallel stages inside each compile (default
// GOMAXPROCS; 1 forces sequential compiles).
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithStrategy pins the adaptive-dispatch configuration used by every
// compile whose context does not already carry one (strategy.With on
// the request context takes precedence). The zero Config is fully
// adaptive; forcing a mode (e.g. Kernel: strategy.KernelForceSparse)
// overrides the measured cost model for that domain — useful for
// ablations and for pinning behavior in differential tests.
func WithStrategy(cfg strategy.Config) Option {
	return func(e *Engine) { c := cfg; e.strat = &c }
}

// WithTracer installs a tracer used for compiles whose context carries
// none; per-request tracers on the context take precedence.
func WithTracer(t *obs.Tracer) Option { return func(e *Engine) { e.tracer = t } }

// WithMetrics sets the registry receiving the engine's own counters
// ("engine.requests", "cache.plan.hits", …) and, for compiles whose
// context carries no registry, the per-stage pipeline counters. The
// default is obs.Default.
func WithMetrics(r *obs.Registry) Option { return func(e *Engine) { e.reg = r } }

// WithPlanCache sets the plan cache capacity (total plans retained,
// split across shards). 0 disables caching; the default is 1024.
func WithPlanCache(capacity int) Option { return func(e *Engine) { e.cache = newPlanCache(capacity) } }

// WithPlanStore attaches a persistent plan store (internal/planstore):
// cache misses are served from disk when a plan for the key was
// persisted by an earlier run (or an earlier eviction), and fresh
// compiles are written behind to disk off the request path. The store
// is strictly best-effort — any store error (I/O failure, corrupt
// entry, open breaker) silently degrades the request to an in-memory
// compile, so a sick disk can slow the first request per key but never
// fail one. Pass the engine's registry to planstore.Open's WithMetrics
// so the plan_store.* counters land next to the engine.* ones. Partial
// plans (Request.Partial) bypass the store entirely.
func WithPlanStore(s *planstore.Store) Option { return func(e *Engine) { e.store = s } }

// WithOwnership installs the cluster ownership filter: a predicate
// over plan keys, typically ring.Owns(self, key) from
// internal/cluster. Bulk materialization — WarmStart's store restore,
// and any precompilation loop that consults Owns — skips keys the
// predicate rejects, which is the cluster's scaling win: N replicas
// each compile and cache only their slice of the key space. Per-request
// serving is unaffected; ownership never fails a request.
func WithOwnership(owns func(Key) bool) Option {
	return func(e *Engine) { e.owns = owns }
}

// WithAdmissionLimit bounds concurrent compiles at inflight, with up to
// queue further requests waiting for a slot; beyond that, Rewrite fails
// fast with an *AdmissionError (errors.Is(err, ErrQueueFull)). Cache
// hits and singleflight followers are not admission-controlled — they
// do no compile work. inflight <= 0 (the default) disables admission
// control.
func WithAdmissionLimit(inflight, queue int) Option {
	return func(e *Engine) { e.admitLimit, e.queueLimit = inflight, queue }
}

// New returns an Engine with the given options.
func New(opts ...Option) *Engine {
	e := &Engine{reg: obs.Default, calls: make(map[Key]*call)}
	for _, o := range opts {
		o(e)
	}
	if e.cache == nil {
		e.cache = newPlanCache(1024)
	}
	e.spellings = newSpellingIndex(spellingsPerPlan * e.cache.capacity)
	e.evals.cap = 64
	if e.admitLimit > 0 {
		e.admit = make(chan struct{}, e.admitLimit)
	}
	return e
}

// Close marks the engine closed: every subsequent entry point fails
// with an error matching errors.Is(err, ErrClosed). In-flight compiles
// finish normally (a compile still in flight persists its plan before
// returning it). Close then waits for the write-behind saves already
// started, so when no request is in flight the plan store's directory
// is quiet once Close returns. Close is idempotent.
func (e *Engine) Close() {
	e.saveMu.Lock()
	e.closed.Store(true)
	e.saveMu.Unlock()
	e.saves.Wait()
}

// Stats is a consistent-enough snapshot of the engine's counters (each
// field is individually atomic). Hits+Misses = cache lookups; Dedups
// counts requests that joined an in-flight identical compile; Compiles
// counts actual pipeline runs, so under concurrent identical load
// Compiles can be far below Misses.
type Stats struct {
	Requests, Compiles, Hits, Misses, Dedups, Evictions, Rejected int64
	// Queries counts RPQ answering requests (Query, QueryFunc,
	// QueryIncremental), which also count as Requests through the plan
	// fetch they begin with.
	Queries int64
	// StoreLoads counts plans served from the persistent store instead
	// of compiled; StoreSaves counts plans persisted behind a compile.
	// Both stay 0 without WithPlanStore.
	StoreLoads, StoreSaves int64
	// CachedPlans is the current number of plans held by the LRU.
	CachedPlans int
	// Store is the persistent plan store's own counter snapshot
	// (hits/misses/corrupt/quarantined/breaker), nil without
	// WithPlanStore.
	Store *planstore.Stats
}

// Stats returns the engine's counters. The same numbers are exposed on
// the metrics registry as engine.* / cache.plan.* counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Requests:    e.requests.Load(),
		Compiles:    e.compiles.Load(),
		Hits:        e.hits.Load(),
		Misses:      e.misses.Load(),
		Dedups:      e.dedups.Load(),
		Evictions:   e.evictions.Load(),
		Rejected:    e.rejected.Load(),
		StoreLoads:  e.storeLoads.Load(),
		StoreSaves:  e.storeSaves.Load(),
		Queries:     e.queries.Load(),
		CachedPlans: e.cache.len(),
	}
	if e.store != nil {
		st := e.store.Stats()
		s.Store = &st
	}
	return s
}

// Metrics returns the registry holding the engine's counters.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

func (e *Engine) count(c *atomic.Int64, name string) {
	c.Add(1)
	e.reg.Counter(name).Inc()
}

// Request is one regular-expression rewriting problem plus its
// per-request governance. Supply either concrete syntax (Query + Views)
// or a pre-parsed Instance.
type Request struct {
	// Query is the expression E0 in the paper's concrete syntax; Views
	// maps view names to their expressions.
	Query string
	Views map[string]string
	// Instance, when non-nil, is used instead of Query/Views.
	Instance *core.Instance
	// Partial also runs the anytime partial-rewriting search (Section
	// 4.3) when the maximal rewriting is not exact; the result is on
	// Plan.Partial. Partial plans are cached under a distinct key.
	Partial bool
	// MaxStates/MaxTransitions tighten the engine's budget defaults for
	// this request (0 = engine default). They can only lower the caps:
	// a request cannot widen what the engine operator configured.
	MaxStates, MaxTransitions int
	// Timeout tightens the engine's default compile deadline (0 =
	// engine default).
	Timeout time.Duration
}

// RPQRequest is one regular-path-query rewriting problem: the options
// struct replacing the positional (q0, views, t, method) signature of
// the legacy facade.
type RPQRequest struct {
	Query  *rpq.Query
	Views  []rpq.View
	Theory *theory.Interpretation
	// Method selects the construction (rpq.Grounded, rpq.Direct,
	// rpq.Compressed); the zero value is Grounded, the literal
	// Theorem 11 route.
	Method rpq.Method

	MaxStates, MaxTransitions int
	Timeout                   time.Duration
}

// Rewrite returns the plan for the request, compiling it if no
// identical instance (under canonicalization — see Key) is cached.
// Budget or deadline exhaustion surfaces exactly as on the direct
// pipeline entry points: errors.As(*budget.ExceededError) with the
// stage that gave out. Admission rejection surfaces as
// errors.Is(err, ErrQueueFull).
//
// A request given as concrete syntax is parsed only when its spelling
// is not in the engine's spelling index (or its plan must be
// compiled); a syntax error surfaces as a *ParseError.
func (e *Engine) Rewrite(ctx context.Context, req Request) (*Plan, error) {
	inst := req.Instance
	var key Key
	if inst != nil {
		key = keyOfInstance(inst, req.Partial)
	} else {
		spelling := appendSpelling(nil, req.Query, req.Views, req.Partial)
		var ok bool
		if key, ok = e.spellings.get(spelling); !ok {
			var err error
			if inst, err = e.parse(req.Query, req.Views); err != nil {
				return nil, err
			}
			key = keyOfInstance(inst, req.Partial)
			e.spellings.add(spelling, key)
		}
	}
	return e.serve(ctx, key, !req.Partial, req.MaxStates, req.MaxTransitions, req.Timeout, func(cctx context.Context) (*Plan, error) {
		if inst == nil {
			var err error
			if inst, err = e.parse(req.Query, req.Views); err != nil {
				return nil, err
			}
		}
		return compileInstance(cctx, key, inst, req.Partial)
	})
}

// parse parses a request's concrete syntax into an instance, counting
// engine.parses; a syntax error comes back as a *ParseError.
func (e *Engine) parse(query string, views map[string]string) (*core.Instance, error) {
	e.reg.Counter("engine.parses").Inc()
	inst, err := core.ParseInstance(query, views)
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	return inst, nil
}

// RewriteRPQ returns the plan for a regular-path-query request
// (Theorem 11 and the Section 4.2 variants), cached like Rewrite.
func (e *Engine) RewriteRPQ(ctx context.Context, req RPQRequest) (*Plan, error) {
	if req.Query == nil {
		return nil, fmt.Errorf("engine: nil query")
	}
	if req.Theory == nil {
		req.Theory = theory.New()
	}
	key := keyOfRPQ(req.Query, req.Views, req.Theory, req.Method)
	return e.serve(ctx, key, true, req.MaxStates, req.MaxTransitions, req.Timeout, func(cctx context.Context) (*Plan, error) {
		return compileRPQ(cctx, key, req)
	})
}

// serve is the shared request path: cache lookup, singleflight
// grouping, store lookup, admission, compile, write-behind, insert.
// storable gates the persistent-store tiers (partial plans stay
// memory-only).
func (e *Engine) serve(ctx context.Context, key Key, storable bool, maxStates, maxTransitions int, timeout time.Duration, compile func(context.Context) (*Plan, error)) (*Plan, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("%w", ErrClosed)
	}
	ctx, span := obs.StartSpan(ctx, "engine.rewrite")
	defer span.End()
	e.count(&e.requests, "engine.requests")

	if p, ok := e.cache.get(key); ok {
		e.count(&e.hits, "cache.plan.hits")
		span.SetAttr("cache_hit", 1)
		return p, nil
	}
	e.count(&e.misses, "cache.plan.misses")
	span.SetAttr("cache_hit", 0)

	// Singleflight: the first miss for a key becomes the leader and
	// compiles; concurrent misses for the same key wait for its result.
	e.mu.Lock()
	if c, ok := e.calls[key]; ok {
		e.mu.Unlock()
		e.count(&e.dedups, "cache.plan.dedup")
		select {
		case <-c.done:
			return c.plan, c.err
		case <-ctx.Done():
			return nil, fmt.Errorf("engine: waiting for in-flight compile: %w", ctx.Err())
		}
	}
	// A leader for key may have finished between the lookup above and
	// taking mu: it adds its plan to the cache before leaving calls, so
	// the plan is there now. Count the request as having joined it.
	if p, ok := e.cache.get(key); ok {
		e.mu.Unlock()
		e.count(&e.dedups, "cache.plan.dedup")
		return p, nil
	}
	c := &call{done: make(chan struct{})}
	e.calls[key] = c
	e.mu.Unlock()

	// Second tier: a plan persisted by an earlier run (or evicted from
	// the LRU) restores from disk without a compile. Any store problem
	// — missing, corrupt (quarantined by the store), I/O error, open
	// breaker — degrades to the compile below.
	if storable && e.store != nil {
		c.plan = e.loadStored(ctx, key)
	}
	if c.plan == nil {
		c.plan, c.err = e.compileAdmitted(ctx, maxStates, maxTransitions, timeout, compile)
		if c.err == nil && storable && e.store != nil {
			e.saveAsync(c.plan)
		}
	}
	if c.err == nil {
		if ev := e.cache.add(key, c.plan); ev > 0 {
			e.evictions.Add(int64(ev))
			e.reg.Counter("cache.plan.evictions").Add(int64(ev))
		}
	}
	e.reg.Gauge("cache.plan.size").Set(int64(e.cache.len()))
	e.mu.Lock()
	delete(e.calls, key)
	e.mu.Unlock()
	close(c.done)
	return c.plan, c.err
}

// compileAdmitted runs one compile under admission control and the
// engine's governance defaults.
func (e *Engine) compileAdmitted(ctx context.Context, maxStates, maxTransitions int, timeout time.Duration, compile func(context.Context) (*Plan, error)) (*Plan, error) {
	if e.admit != nil {
		select {
		case e.admit <- struct{}{}:
		default:
			// Slots full: wait in the bounded queue.
			if q := e.queued.Add(1); int(q) > e.queueLimit {
				e.queued.Add(-1)
				e.count(&e.rejected, "engine.admission.rejected")
				return nil, &AdmissionError{
					InFlight: e.admitLimit, Limit: e.admitLimit,
					Queued: e.queueLimit, QueueLimit: e.queueLimit,
				}
			}
			select {
			case e.admit <- struct{}{}:
				e.queued.Add(-1)
			case <-ctx.Done():
				e.queued.Add(-1)
				return nil, fmt.Errorf("engine: queued for admission: %w", ctx.Err())
			}
		}
		defer func() { <-e.admit }()
	}
	e.count(&e.compiles, "engine.compiles")

	cctx := ctx
	// Governance defaults: a fresh per-compile budget when the caller
	// brought none, the engine deadline when the caller has none, the
	// engine's worker count, and the engine tracer/metrics when the
	// request carries no observability of its own.
	if b := budget.From(cctx); b == nil {
		ms, mt := e.maxStates, e.maxTransitions
		if maxStates > 0 && (ms <= 0 || maxStates < ms) {
			ms = maxStates
		}
		if maxTransitions > 0 && (mt <= 0 || maxTransitions < mt) {
			mt = maxTransitions
		}
		b = budget.New(budget.MaxStates(ms), budget.MaxTransitions(mt))
		cctx = budget.With(cctx, b)
	}
	if _, has := cctx.Deadline(); !has {
		d := e.defaultTimeout
		if timeout > 0 && (d == 0 || timeout < d) {
			d = timeout
		}
		if d > 0 {
			var cancel context.CancelFunc
			cctx, cancel = context.WithTimeout(cctx, d)
			defer cancel()
		}
	} else if timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(cctx, timeout)
		defer cancel()
	}
	if e.workers > 0 {
		cctx = par.WithWorkers(cctx, e.workers)
	}
	if e.strat != nil && !strategy.Carried(cctx) {
		cctx = strategy.With(cctx, *e.strat)
	}
	if e.tracer != nil && obs.SpanFromContext(cctx) == nil {
		cctx = obs.WithTracer(cctx, e.tracer)
	}
	if obs.MetricsFrom(cctx) == nil && e.reg != nil {
		cctx = obs.WithMetrics(cctx, e.reg)
	}

	cctx, span := obs.StartSpan(cctx, "engine.compile")
	defer span.End()
	return compile(cctx)
}

// loadStored tries the persistent store for key and returns the
// restored plan, or nil when the request must compile: not persisted,
// corrupt (the store has already quarantined it), I/O failure, open
// breaker, or a stored artifact the current build cannot rebuild a
// plan from. Failures are recorded on the store's own counters; the
// request path never sees them.
func (e *Engine) loadStored(ctx context.Context, key Key) *Plan {
	_, span := obs.StartSpan(ctx, "engine.store.load")
	defer span.End()
	sp, err := e.store.Get(string(key))
	if err != nil {
		span.SetAttr("hit", 0)
		return nil
	}
	p, err := planFromStored(key, sp)
	if err != nil {
		span.SetAttr("hit", 0)
		return nil
	}
	span.SetAttr("hit", 1)
	e.count(&e.storeLoads, "engine.store.loads")
	return p
}

// saveAsync persists a freshly compiled plan off the request path. The
// write is fire-and-forget: a failed save costs a recompile after the
// next restart, nothing else. FlushStore waits for in-flight saves.
// Once Close has begun, a compile that was still in flight saves
// synchronously instead, so Close's wait never races a new save.
func (e *Engine) saveAsync(p *Plan) {
	sp, err := storedFromPlan(p)
	if err != nil {
		return
	}
	e.saveMu.Lock()
	if e.closed.Load() {
		e.saveMu.Unlock()
		e.save(sp)
		return
	}
	e.saves.Add(1)
	e.saveMu.Unlock()
	go func() {
		defer e.saves.Done()
		e.save(sp)
	}()
}

func (e *Engine) save(sp *planstore.StoredPlan) {
	_, span := obs.StartSpan(context.Background(), "engine.store.save")
	defer span.End()
	if err := e.store.Put(sp); err != nil {
		span.SetAttr("ok", 0)
		return
	}
	span.SetAttr("ok", 1)
	e.count(&e.storeSaves, "engine.store.saves")
}

// FlushStore blocks until every write-behind save started so far has
// finished (successfully or not). Call it before process exit to make
// the plan directory as warm as the run was; without a plan store it
// returns immediately.
func (e *Engine) FlushStore() { e.saves.Wait() }

// Owns reports whether this engine owns a plan key under the cluster
// ownership filter; without WithOwnership every key is owned. Serving
// layers consult it to decide what to precompile and warm-start.
func (e *Engine) Owns(key Key) bool { return e.owns == nil || e.owns(key) }

// WarmStart loads every OWNED plan persisted in the store into the
// in-memory cache, so a restarted process serves its pre-crash working
// set at cache-hit latency from the first request. Under a cluster
// ownership filter (WithOwnership), non-owned keys are skipped — they
// stay on disk, costing nothing, and the replicas that own them
// restore them on their own boots. Corrupt entries are quarantined by
// the store and skipped; I/O failures skip the entry and count on the
// store's meters. Returns how many plans were restored. Without a
// plan store it is a no-op.
func (e *Engine) WarmStart(ctx context.Context) (int, error) {
	if e.store == nil {
		return 0, nil
	}
	keys, err := e.store.Keys()
	if err != nil {
		return 0, fmt.Errorf("engine: warm start: %w", err)
	}
	loaded := 0
	//budget:exempt bounded by the number of persisted plans, each a fixed-size restore
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return loaded, err
		}
		if !e.Owns(Key(k)) {
			continue
		}
		if p := e.loadStored(ctx, Key(k)); p != nil {
			if ev := e.cache.add(Key(k), p); ev > 0 {
				e.evictions.Add(int64(ev))
				e.reg.Counter("cache.plan.evictions").Add(int64(ev))
			}
			loaded++
		}
	}
	e.reg.Gauge("cache.plan.size").Set(int64(e.cache.len()))
	return loaded, nil
}

// BatchResult is one item's outcome in RewriteBatch.
type BatchResult struct {
	Plan *Plan
	Err  error
}

// RewriteBatch compiles the requests concurrently over the engine's
// worker pool and returns one result per request, in order. Items fail
// independently: a budget-exhausted or rejected item does not cancel
// its siblings (unlike par.ForEach's fail-fast contract, which batch
// deliberately does not expose). Identical items in one batch
// deduplicate through the plan cache and singleflight like any other
// concurrent requests.
func (e *Engine) RewriteBatch(ctx context.Context, reqs []Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	wctx := ctx
	if e.workers > 0 {
		wctx = par.WithWorkers(wctx, e.workers)
	}
	// The item function never returns an error, so ForEach's
	// first-error cancellation can only fire on ctx cancellation.
	_ = par.ForEach(wctx, len(reqs), func(ictx context.Context, i int) error {
		out[i].Plan, out[i].Err = e.Rewrite(ictx, reqs[i])
		return nil
	})
	if err := ctx.Err(); err != nil {
		for i := range out {
			if out[i].Plan == nil && out[i].Err == nil {
				out[i].Err = err
			}
		}
	}
	return out
}

// Handle is the future returned by Submit: Done is closed when the
// compile finishes, after which Result returns the outcome without
// blocking.
type Handle struct {
	done chan struct{}
	plan *Plan
	err  error
}

// Done returns a channel closed when the submitted request completes.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Result blocks until the submitted request completes (or ctx is
// cancelled) and returns its outcome.
func (h *Handle) Result(ctx context.Context) (*Plan, error) {
	select {
	case <-h.done:
		return h.plan, h.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Submit starts the request asynchronously and returns a handle to its
// eventual plan. The compile runs under ctx — cancelling it aborts the
// compile; the handle then reports the cancellation error.
func (e *Engine) Submit(ctx context.Context, req Request) *Handle {
	h := &Handle{done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.plan, h.err = e.Rewrite(ctx, req)
	}()
	return h
}
