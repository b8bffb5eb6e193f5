// Package budget implements the unified resource governor of the
// rewriting pipeline.
//
// Every core construction of the paper is exponential or worse — the
// maximal rewriting is 2EXPTIME-complete (Theorem 5), exactness is
// 2EXPSPACE-complete (Theorem 9), and Theorem 8 exhibits inputs whose
// rewriting must blow up 2^n — so a service facing untrusted inputs can
// be driven into unbounded memory or an unbounded hang by a single
// request. A Budget is one shared meter for a whole pipeline run: it
// caps the number of materialized states and transitions, and carries a
// fault-injection hook for robustness testing. The wall-clock deadline
// is the context's own (context.WithTimeout); the budget piggybacks on
// the same context via With/From so that it reaches every
// state-materializing loop without widening any signature.
//
// Loops do not touch the Budget directly: they open a Meter
// (budget.Enter) naming their pipeline stage, and call AddStates,
// AddTransitions or Check as they materialize. Exhaustion fails fast
// with a *ExceededError recording which stage exhausted which resource
// at what count; cancellation surfaces as an error wrapping ctx.Err().
// A context without a budget costs one nil check per call, and the
// context itself is consulted only every CheckInterval ticks, so the
// meter is cheap enough for the hottest loops.
package budget

import (
	"context"
	"fmt"
	"sync/atomic"

	"regexrw/internal/obs"
)

// CheckInterval is how many meter ticks pass between consultations of
// the context. Checking every tick would put a mutex-guarded call on
// the hottest loops; every 64th keeps cancellation latency far below
// any human-visible deadline while costing nothing measurable. The
// fault-injection hook, when installed, runs on every tick so that a
// sweep can target any check site.
const CheckInterval = 64

// Resource names a metered resource in an ExceededError.
type Resource string

// The metered resources. States counts materialized automaton states
// and search configurations (subset-construction subsets, product
// pairs, containment frontier nodes); Transitions counts materialized
// transitions (dominant in grounding, where one formula edge becomes
// one edge per satisfying constant). Bytes is the rendered length of
// a synthesized expression; it is not pooled in a Budget but bounded
// per conversion by a fixed limit (regex.MaxRenderBytes).
const (
	States      Resource = "states"
	Transitions Resource = "transitions"
	Bytes       Resource = "bytes"
)

// ExceededError reports that a pipeline stage exhausted a budgeted
// resource. It records which stage (the Meter's name), which resource,
// the configured limit and the count that tripped it, so a caller — or
// an operator reading a CLI diagnostic — can see exactly where the
// doubly-exponential construction gave out.
type ExceededError struct {
	Stage    string
	Resource Resource
	Limit    int64
	Used     int64
}

func (e *ExceededError) Error() string {
	return fmt.Sprintf("budget: %s exhausted %s: used %d of %d", e.Stage, e.Resource, e.Used, e.Limit)
}

// Hook is a fault-injection point: it runs on every meter tick with the
// current stage name, and a non-nil return aborts the stage with that
// error. Production budgets leave it nil; the faultinject subpackage
// builds deterministic hooks for the robustness sweeps.
type Hook func(stage string) error

// Budget is a shared resource meter. One Budget governs an entire
// pipeline run: all stages draw states and transitions from the same
// pool, so the caps bound the run's total materialization, not any
// single construction. The zero limits mean unlimited. Budgets are safe
// for concurrent use (counters are atomic); a nil *Budget is a valid
// "no limits" budget.
type Budget struct {
	maxStates      int64
	maxTransitions int64
	hook           Hook

	states      atomic.Int64
	transitions atomic.Int64
}

// Option configures a Budget.
type Option func(*Budget)

// MaxStates caps the total number of states the pipeline may
// materialize; n <= 0 means unlimited.
func MaxStates(n int) Option { return func(b *Budget) { b.maxStates = int64(n) } }

// MaxTransitions caps the total number of transitions the pipeline may
// materialize; n <= 0 means unlimited.
func MaxTransitions(n int) Option { return func(b *Budget) { b.maxTransitions = int64(n) } }

// WithHook installs a fault-injection hook run on every meter tick.
func WithHook(h Hook) Option { return func(b *Budget) { b.hook = h } }

// New returns a Budget with the given options.
func New(opts ...Option) *Budget {
	b := &Budget{}
	for _, o := range opts {
		o(b)
	}
	return b
}

// States returns the number of states charged so far.
func (b *Budget) States() int64 {
	if b == nil {
		return 0
	}
	return b.states.Load()
}

// Transitions returns the number of transitions charged so far.
func (b *Budget) Transitions() int64 {
	if b == nil {
		return 0
	}
	return b.transitions.Load()
}

type ctxKey struct{}

// With returns a context carrying the budget. Every metered loop
// downstream — in automata, core and rpq — draws from it.
func With(ctx context.Context, b *Budget) context.Context {
	return context.WithValue(ctx, ctxKey{}, b)
}

// From returns the budget carried by the context, or nil when the
// context has none (nil budgets meter nothing but Meters on them still
// honor cancellation).
func From(ctx context.Context) *Budget {
	b, _ := ctx.Value(ctxKey{}).(*Budget)
	return b
}

// Meter is one stage's handle on the budget of a context. It localizes
// the per-loop state (stage name, tick counter) so that the hot path is
// two integer operations plus a nil check; the shared Budget is only
// touched to charge resources. Open one with Enter at the top of each
// state-materializing construction. A Meter is not safe for concurrent
// use; concurrent stages each open their own (the underlying Budget is
// shared safely).
type Meter struct {
	b     *Budget
	ctx   context.Context
	stage string
	ticks int64

	// Observability taps (internal/obs), captured once at Enter so the
	// per-charge cost is a nil check. Every charge is mirrored onto the
	// context's active span and onto the per-stage counters of the
	// context's metrics registry ("<stage>.states" /
	// "<stage>.transitions"), making the budget meter the single feed
	// point for all state/transition accounting: what tracing and
	// metrics report is exactly what the governor charged.
	span    *obs.Span
	cStates *obs.Counter
	cTrans  *obs.Counter
}

// Enter opens a meter for the named pipeline stage on the context's
// budget (if any). The stage name is what an ExceededError and the
// fault-injection hook see, e.g. "automata.determinize"; it also names
// the stage's span counters and registry metrics.
func Enter(ctx context.Context, stage string) *Meter {
	m := &Meter{b: From(ctx), ctx: ctx, stage: stage, span: obs.SpanFromContext(ctx)}
	if r := obs.MetricsFrom(ctx); r != nil {
		m.cStates = r.Counter(stage + ".states")
		m.cTrans = r.Counter(stage + ".transitions")
	}
	return m
}

// Check ticks the meter without charging resources: the hook runs, and
// the context is consulted on the first tick and every CheckInterval-th
// after (so a pre-cancelled context aborts before any work). Loops that
// iterate without materializing (candidate enumeration, fixpoint
// refinement) call it once per iteration.
func (m *Meter) Check() error {
	m.ticks++
	if m.b != nil && m.b.hook != nil {
		if err := m.b.hook(m.stage); err != nil {
			return err
		}
	}
	if m.ticks%CheckInterval == 1 {
		if err := m.ctx.Err(); err != nil {
			return fmt.Errorf("%s: %w", m.stage, err)
		}
	}
	return nil
}

// AddStates charges n states to the budget and ticks the meter. It
// fails with a *ExceededError once the pipeline's total exceeds the
// budget's cap.
func (m *Meter) AddStates(n int) error {
	if n > 0 {
		// Observability first: the charge reflects work already
		// materialized, so it must be recorded even when it trips the cap.
		m.span.AddStates(int64(n))
		m.cStates.Add(int64(n))
	}
	if m.b != nil && n > 0 {
		used := m.b.states.Add(int64(n))
		if m.b.maxStates > 0 && used > m.b.maxStates {
			return &ExceededError{Stage: m.stage, Resource: States, Limit: m.b.maxStates, Used: used}
		}
	}
	return m.Check()
}

// AddTransitions charges n transitions to the budget and ticks the
// meter.
func (m *Meter) AddTransitions(n int) error {
	if n > 0 {
		m.span.AddTransitions(int64(n))
		m.cTrans.Add(int64(n))
	}
	if m.b != nil && n > 0 {
		used := m.b.transitions.Add(int64(n))
		if m.b.maxTransitions > 0 && used > m.b.maxTransitions {
			return &ExceededError{Stage: m.stage, Resource: Transitions, Limit: m.b.maxTransitions, Used: used}
		}
	}
	return m.Check()
}
