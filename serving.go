package regexrw

import (
	"time"

	"regexrw/internal/automata"
	"regexrw/internal/engine"
	"regexrw/internal/planstore"
)

// ---- The Engine / Plan serving surface ----
//
// An Engine is the recommended entry point for production use: it
// compiles a rewriting problem once into an immutable Plan — the
// maximal rewriting plus everything a caller answers from (simplified
// expression, exactness report, minimal DFA, shortest witness) — and
// caches plans in a sharded LRU keyed by a canonical hash of the
// instance, so that syntactic variation (operator spelling, whitespace,
// redundant parentheses, view declaration order) never recompiles the
// doubly exponential construction. Concurrent identical requests
// deduplicate into a single compile; admission control fails fast when
// the process is saturated.
//
//	eng := regexrw.NewEngine(
//		regexrw.WithBudgetDefaults(200_000, 0),
//		regexrw.WithDefaultTimeout(5*time.Second),
//		regexrw.WithPlanCache(1024),
//	)
//	plan, err := eng.Rewrite(ctx, regexrw.Request{
//		Query: "a·(b·a+c)*",
//		Views: map[string]string{"e1": "a", "e2": "a·c*·b", "e3": "c"},
//	})
//	// plan.Regex()   →  e2*·e1·e3*
//	// plan.IsExact() →  true
//
// Batch and asynchronous entry points (Engine.RewriteBatch,
// Engine.Submit) fan out over the engine's worker pool; cmd/serve
// exposes the same surface over HTTP/JSON (docs/SERVING.md).
//
// # Error taxonomy
//
// Every governed entry point — the Engine methods, the ...Context free
// functions, and cmd/serve — fails with one of a small set of typed
// errors, all composable with errors.Is / errors.As:
//
//   - *BudgetExceeded (errors.As): a resource cap tripped; the error
//     names the pipeline Stage, the Resource (states or transitions, or
//     bytes for an expression past regex.MaxRenderBytes),
//     the Limit and the Used count. The rewriting as posed cannot be
//     built under the caps — raise them or simplify the instance.
//   - ErrStateLimit (errors.Is): the legacy bounded entry points
//     (MaximalRewritingBounded) report cap trips as this sentinel,
//     wrapping the *BudgetExceeded, so both checks succeed on them.
//   - *AdmissionError (errors.As), which also matches
//     errors.Is(err, ErrQueueFull): the engine declined to start a
//     compile because its admission limit and wait queue are full.
//     Purely a load signal — retry later; nothing is wrong with the
//     request.
//   - ErrClosed (errors.Is): the engine was shut down.
//   - context.DeadlineExceeded / context.Canceled (errors.Is): the
//     request's or engine's deadline fired; on the anytime entry points
//     these arrive wrapped in a result instead (AnytimePartialResult).
//
// Parse errors (bad concrete syntax) carry no sentinel: they are
// reported eagerly by the parsing constructors before any compile
// starts.

// Engine compiles rewriting problems into cached immutable Plans; see
// the package-level serving overview. Construct with NewEngine.
type Engine = engine.Engine

// Plan is the immutable compiled artifact of one rewriting problem,
// safe for unlimited concurrent use.
type Plan = engine.Plan

// EngineOption configures NewEngine.
type EngineOption = engine.Option

// Request is one regular-expression rewriting problem with per-request
// governance (Engine.Rewrite).
type Request = engine.Request

// RPQRequest is one regular-path-query rewriting problem
// (Engine.RewriteRPQ): the options struct replacing RewriteRPQ's
// positional (q0, views, t, method) signature.
type RPQRequest = engine.RPQRequest

// EngineStats is a snapshot of an engine's request, compile and cache
// counters.
type EngineStats = engine.Stats

// EngineBatchResult is one item's outcome in Engine.RewriteBatch.
type EngineBatchResult = engine.BatchResult

// EngineHandle is the future returned by Engine.Submit.
type EngineHandle = engine.Handle

// QueryRequest is one RPQ answering request (Engine.Query): a
// rewriting problem plus the labeled graph to answer it over.
type QueryRequest = engine.QueryRequest

// QueryResult is the outcome of Engine.Query.
type QueryResult = engine.QueryResult

// QueryAnswer is one answer pair, by node name.
type QueryAnswer = engine.QueryAnswer

// QueryMode selects the evaluated automaton: ModeRewriting (the
// maximal rewriting over a view-image graph) or ModeQuery (the
// original query over the base database).
type QueryMode = engine.QueryMode

// LiveQuery is a retained incremental evaluation session
// (Engine.QueryIncremental): its answer set stays current under edge
// insertions without re-evaluating from scratch.
type LiveQuery = engine.LiveQuery

// Query evaluation modes.
const (
	ModeRewriting = engine.ModeRewriting
	ModeQuery     = engine.ModeQuery
)

// AdmissionError reports an engine rejection under load; it matches
// errors.Is(err, ErrQueueFull).
type AdmissionError = engine.AdmissionError

// Typed sentinels of the serving layer; see the error taxonomy above.
var (
	// ErrQueueFull matches admission rejections.
	ErrQueueFull = engine.ErrQueueFull
	// ErrClosed matches requests against a closed engine.
	ErrClosed = engine.ErrClosed
	// ErrStateLimit matches state-cap trips reported by the legacy
	// bounded entry points.
	ErrStateLimit = automata.ErrStateLimit
)

// NewEngine returns an Engine with the given options; see the serving
// overview above for the recommended governance settings.
func NewEngine(opts ...EngineOption) *Engine { return engine.New(opts...) }

// WithBudgetDefaults caps every compile's materialized automaton states
// and transitions (0 = unlimited). Requests may tighten the caps via
// Request.MaxStates / MaxTransitions but never widen them.
func WithBudgetDefaults(maxStates, maxTransitions int) EngineOption {
	return engine.WithBudgetDefaults(maxStates, maxTransitions)
}

// WithDefaultTimeout sets the wall-clock deadline applied to every
// compile whose context has none (0 = no deadline).
func WithDefaultTimeout(d time.Duration) EngineOption { return engine.WithDefaultTimeout(d) }

// WithWorkers sets the engine's worker count for batch fan-out and the
// parallel stages inside each compile (0 = GOMAXPROCS).
func WithWorkers(n int) EngineOption { return engine.WithWorkers(n) }

// WithPlanCache sets the plan cache capacity in plans (0 disables
// caching; the default is 1024).
func WithPlanCache(capacity int) EngineOption { return engine.WithPlanCache(capacity) }

// WithAdmissionLimit bounds concurrent compiles, with up to queue
// further requests waiting for a slot; beyond that requests fail fast
// with an *AdmissionError (0 disables admission control).
func WithAdmissionLimit(inflight, queue int) EngineOption {
	return engine.WithAdmissionLimit(inflight, queue)
}

// ---- Persistent plan store ----
//
// A PlanStore is the crash-safe disk tier behind the in-memory plan
// cache: compiled plans are written behind to a content-addressed
// directory and restored on the next boot (Engine.WarmStart, or lazily
// on the first miss per key), so a restarted process serves its
// pre-crash working set without re-running the doubly exponential
// construction. Entries are checksummed; a corrupt entry is quarantined
// and recompiled, never served. Store failures degrade requests to
// in-memory compiles — a sick disk can never fail a rewrite.
//
//	store, err := regexrw.OpenPlanStore("/var/lib/regexrw/plans",
//		regexrw.WithPlanStoreMetrics(regexrw.GlobalMetrics()))
//	eng := regexrw.NewEngine(regexrw.WithPlanStore(store))
//	n, _ := eng.WarmStart(ctx) // n plans hot before the first request

// PlanStore is the persistent, content-addressed plan store; see
// docs/SERVING.md for the on-disk layout and durability contract.
type PlanStore = planstore.Store

// PlanStoreOption configures OpenPlanStore.
type PlanStoreOption = planstore.Option

// PlanStoreStats is a snapshot of a store's hit/miss/corruption and
// circuit-breaker counters; also embedded in EngineStats.Store.
type PlanStoreStats = planstore.Stats

// ErrPlanCorrupt matches reads of a corrupt store entry (already
// quarantined by the time the error is returned).
var ErrPlanCorrupt = planstore.ErrCorrupt

// OpenPlanStore opens (creating if needed) a plan store rooted at dir.
func OpenPlanStore(dir string, opts ...PlanStoreOption) (*PlanStore, error) {
	return planstore.Open(dir, opts...)
}

// WithPlanStore attaches a persistent plan store to the engine: cache
// misses try the disk before compiling, and fresh compiles are written
// behind. Strictly best-effort; see the persistent-store overview.
func WithPlanStore(s *PlanStore) EngineOption { return engine.WithPlanStore(s) }

// WithPlanStoreMetrics routes the store's plan_store.* counters to m —
// pass the engine's registry so they land next to the engine.* ones.
func WithPlanStoreMetrics(m *Metrics) PlanStoreOption { return planstore.WithMetrics(m) }

// WithPlanStoreBreaker tunes the store's consecutive-error circuit
// breaker (default: 5 failures, 2s cooldown; threshold 0 disables).
func WithPlanStoreBreaker(threshold int, cooldown time.Duration) PlanStoreOption {
	return planstore.WithBreaker(threshold, cooldown)
}

// WithEngineTracer installs a tracer for compiles whose context carries
// none. (Named to avoid colliding with the per-context WithTracer.)
func WithEngineTracer(t *Tracer) EngineOption { return engine.WithTracer(t) }

// WithEngineMetrics sets the registry receiving the engine's counters
// ("engine.requests", "cache.plan.hits", …) and the per-stage pipeline
// counters of compiles that carry no registry of their own; the default
// is GlobalMetrics(). (Named to avoid colliding with the per-context
// WithMetrics.)
func WithEngineMetrics(m *Metrics) EngineOption { return engine.WithMetrics(m) }
