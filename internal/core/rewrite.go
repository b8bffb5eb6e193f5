package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"regexrw/internal/alphabet"
	"regexrw/internal/automata"
	"regexrw/internal/budget"
	"regexrw/internal/obs"
	"regexrw/internal/par"
	"regexrw/internal/regex"
	"regexrw/internal/strategy"
)

// Rewriting is the Σ_E-maximal rewriting R(E0,E) of an instance,
// produced by MaximalRewriting. It retains the intermediate automata of
// the paper's construction (A_d and A') so that callers can inspect
// them (Figure 1) and so that the exactness check can reuse A_d.
type Rewriting struct {
	// Instance is the source instance, or nil when the rewriting was
	// built directly from automata (MaximalRewritingAutomata), as the
	// regular-path-query layer does.
	Instance *Instance

	// Ad is the deterministic (total) automaton for L(E0) over Σ built
	// in Step 1 of the construction.
	Ad *automata.DFA
	// APrime is the automaton A' over Σ_E of Step 2: an e-edge s_i → s_j
	// exists iff some w ∈ L(re(e)) drives Ad from s_i to s_j, and the
	// accepting states are Ad's non-accepting ones.
	APrime *automata.NFA
	// Auto is the rewriting itself: the complement of A' (Step 3),
	// a total DFA over Σ_E.
	Auto *automata.DFA

	sigma  *alphabet.Alphabet                // Σ
	sigmaE *alphabet.Alphabet                // Σ_E
	views  map[alphabet.Symbol]*automata.NFA // Σ_E symbol → ε-free NFA over Σ
	// viewsFn lazily supplies the view automata when they were not
	// materialized at construction time (the RPQ layer's direct method
	// defers grounding until expansion/exactness needs it).
	viewsFn func() map[alphabet.Symbol]*automata.NFA

	expanded *automata.NFA // cached Expand result

	minimalOnce sync.Once
	minimal     *automata.DFA // cached MinimalDFA result
}

// Sigma returns the base alphabet Σ of the rewriting.
func (r *Rewriting) Sigma() *alphabet.Alphabet { return r.sigma }

// SigmaE returns the view alphabet Σ_E of the rewriting.
func (r *Rewriting) SigmaE() *alphabet.Alphabet { return r.sigmaE }

// MaximalRewriting computes the Σ_E-maximal rewriting of the instance
// following the three-step construction of Section 2:
//
//  1. build a deterministic automaton A_d with L(A_d) = L(E0),
//  2. build A' over Σ_E whose e-edges connect s_i to s_j iff some word
//     of L(re(e)) drives A_d from s_i to s_j, with accepting set S − F,
//  3. return the complement of A'.
//
// By Theorem 2 the result is Σ_E-maximal, and by Theorem 1 also
// Σ-maximal.
func MaximalRewriting(inst *Instance) *Rewriting { //invariantcall:checked delegates to MaximalRewritingContext
	r, _ := MaximalRewritingContext(context.Background(), inst) // a background context never cancels
	return r
}

// MaximalRewritingContext is MaximalRewriting with cooperative
// cancellation and resource governance: the construction is doubly
// exponential in the worst case (Theorem 5), and every
// state-materializing step of the pipeline — both determinizations, the
// interleaved minimizations and DFA unions, and the A' transfer BFS —
// consults ctx and the budget carried by it (budget.With). A cancelled
// ctx aborts with its error; an exhausted budget with a
// *budget.ExceededError naming the stage that gave out; the ctx-free
// MaximalRewriting wrapper is unaffected.
func MaximalRewritingContext(ctx context.Context, inst *Instance) (*Rewriting, error) {
	ctx, span := obs.StartSpan(ctx, "core.maximal_rewriting")
	defer span.End()
	ad, err := determinizeQueryContext(ctx, inst)
	if err != nil {
		return nil, err
	}
	views := inst.ViewNFAs()
	ap, err := transferAutomatonContext(ctx, ad, inst.sigmaE, views)
	if err != nil {
		return nil, err
	}
	for s := 0; s < ad.NumStates(); s++ {
		ap.SetAccept(automata.State(s), !ad.Accepting(automata.State(s))) // S − F
	}
	det, err := automata.DeterminizeContext(ctx, ap)
	if err != nil {
		return nil, fmt.Errorf("core: rewriting automaton: %w", err)
	}
	auto := complementSpanned(ctx, det)
	r := &Rewriting{
		Instance: inst,
		Ad:       ad, APrime: ap, Auto: auto,
		sigma: inst.sigma, sigmaE: inst.sigmaE, views: views,
	}
	debugValidateRewriting(r)
	return r, nil
}

// complementSpanned is Step 3 of the construction under its own span.
// Complementing a total DFA only flips accepting bits — no states are
// materialized, so nothing is charged on the budget; the span records
// the automaton's size as an attribute instead.
func complementSpanned(ctx context.Context, det *automata.DFA) *automata.DFA {
	_, span := obs.StartSpan(ctx, "automata.complement")
	defer span.End()
	span.SetAttr("states", int64(det.NumStates()))
	return det.Complement()
}

// determinizeQuery builds a minimal total DFA for the query. Queries
// that are large top-level unions (the shape of the paper's Theorem 7/8
// error-detector constructions) are determinized branch by branch with
// interleaved minimization: one subset construction over the whole
// union NFA can explode even when the minimal DFA is small, whereas the
// per-branch automata and their running union stay near the minimal
// size. (The THM8 experiment relies on this: the counter family's A_d
// is ~100 states, but the monolithic subset construction visits
// millions of subsets from n = 3 on.)
func determinizeQuery(inst *Instance) *automata.DFA {
	d, _ := determinizeQueryContext(context.Background(), inst) // a background context never cancels
	return d
}

// determinizeQueryContext is determinizeQuery with cooperative
// cancellation and budget metering threaded into every subset
// construction, DFA union and minimization. The query NFA (per branch,
// on the union path) comes from the Instance's node cache, so repeated
// compiles of one Instance reuse the NFA's memoized subset tables.
func determinizeQueryContext(ctx context.Context, inst *Instance) (*automata.DFA, error) {
	ctx, span := obs.StartSpan(ctx, "core.a_d")
	defer span.End()
	q := inst.Query
	const unionThreshold = 4
	if q.Op != regex.OpUnion || len(q.Subs) < unionThreshold {
		d, err := automata.DeterminizeContext(ctx, toNFASpanned(ctx, inst, q))
		if err != nil {
			return nil, fmt.Errorf("core: A_d: %w", err)
		}
		m, err := d.MinimizeContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: A_d: %w", err)
		}
		return m.Totalize(), nil
	}
	var ad *automata.DFA
	for _, branch := range q.Subs {
		bd, err := automata.DeterminizeContext(ctx, toNFASpanned(ctx, inst, branch))
		if err != nil {
			return nil, fmt.Errorf("core: A_d branch: %w", err)
		}
		bm, err := bd.MinimizeContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: A_d branch: %w", err)
		}
		if ad == nil {
			ad = bm
		} else {
			u, err := automata.UnionDFAContext(ctx, ad, bm)
			if err != nil {
				return nil, fmt.Errorf("core: A_d union: %w", err)
			}
			ad, err = u.MinimizeContext(ctx)
			if err != nil {
				return nil, fmt.Errorf("core: A_d union: %w", err)
			}
		}
	}
	// The per-branch alphabets are all sigma, so no lifting is needed;
	// totalize for the A' construction.
	return ad.Totalize(), nil
}

// toNFASpanned is the Glushkov/Thompson build of the query NFA under
// its own span, served from the Instance's per-node cache after the
// first compile. The build is linear in the regex, so nothing is
// budget-charged; the span records the NFA size as an attribute.
func toNFASpanned(ctx context.Context, inst *Instance, q *regex.Node) *automata.NFA {
	_, span := obs.StartSpan(ctx, "regex.to_nfa")
	defer span.End()
	n := inst.nodeNFA(q)
	span.SetAttr("nfa_states", int64(n.NumStates()))
	return n
}

// MaximalRewritingBounded is MaximalRewriting with a resource guard:
// the construction is doubly exponential in the worst case (Theorem 5),
// so the whole pipeline draws from a shared pool of maxStates states
// and the call fails with an error wrapping automata.ErrStateLimit
// (and the underlying *budget.ExceededError) instead of exhausting
// memory. Use it when the instance comes from untrusted input. It
// predates the unified budget and is kept as a thin wrapper over it:
// new callers should attach a budget.Budget to a context and call
// MaximalRewritingContext, which also supports transition caps,
// deadlines and shared pools spanning several calls.
func MaximalRewritingBounded(inst *Instance, maxStates int) (*Rewriting, error) { //invariantcall:checked delegates to MaximalRewritingContext, which validates
	if maxStates <= 0 {
		return nil, fmt.Errorf("core: %w: limit must be positive, got %d", automata.ErrStateLimit, maxStates)
	}
	b := budget.New(budget.MaxStates(maxStates))
	r, err := MaximalRewritingContext(budget.With(context.Background(), b), inst)
	if err != nil {
		var ex *budget.ExceededError
		if errors.As(err, &ex) {
			return nil, fmt.Errorf("core: %w: %w", automata.ErrStateLimit, ex)
		}
		return nil, err
	}
	return r, nil
}

// MaximalRewritingAutomata is MaximalRewriting with the inputs already
// compiled: the target language as an NFA over Σ (e0's alphabet) and
// each view as an ε-free NFA over the same Σ, keyed by its Σ_E symbol.
// The regular-path-query layer uses this entry point with grounded
// automata over the constant domain D in place of Σ (Theorem 11).
func MaximalRewritingAutomata(e0 *automata.NFA, sigmaE *alphabet.Alphabet, views map[alphabet.Symbol]*automata.NFA) *Rewriting { //invariantcall:checked delegates to maximalRewritingFromDFA, which validates
	// Step 1. A_d must be TOTAL: Step 2 needs s_j = ρ*(s_i, w) to exist
	// for every w, so rejection must be represented by a dead state
	// rather than by a missing transition. Minimization keeps the
	// automaton small and returns a total DFA.
	ad := automata.Determinize(e0).Minimize().Totalize()
	return maximalRewritingFromDFA(ad, e0.Alphabet(), sigmaE, views)
}

// MaximalRewritingAutomataContext is MaximalRewritingAutomata with
// cooperative cancellation and budget metering threaded into both
// determinizations, the minimization, and the A' transfer BFS.
func MaximalRewritingAutomataContext(ctx context.Context, e0 *automata.NFA, sigmaE *alphabet.Alphabet, views map[alphabet.Symbol]*automata.NFA) (*Rewriting, error) {
	ctx, span := obs.StartSpan(ctx, "core.maximal_rewriting")
	defer span.End()
	ad, err := adFromNFA(ctx, e0)
	if err != nil {
		return nil, err
	}
	ap, err := transferAutomatonContext(ctx, ad, sigmaE, views)
	if err != nil {
		return nil, err
	}
	for s := 0; s < ad.NumStates(); s++ {
		ap.SetAccept(automata.State(s), !ad.Accepting(automata.State(s))) // S − F
	}
	det, err := automata.DeterminizeContext(ctx, ap)
	if err != nil {
		return nil, fmt.Errorf("core: rewriting automaton: %w", err)
	}
	auto := complementSpanned(ctx, det)
	r := &Rewriting{
		Ad: ad, APrime: ap, Auto: auto,
		sigma: e0.Alphabet(), sigmaE: sigmaE, views: views,
	}
	debugValidateRewriting(r)
	return r, nil
}

// adFromNFA is Step 1 for a pre-compiled target language: determinize,
// minimize, totalize, under the same "core.a_d" span as the
// regex-driven path.
func adFromNFA(ctx context.Context, e0 *automata.NFA) (*automata.DFA, error) {
	ctx, span := obs.StartSpan(ctx, "core.a_d")
	defer span.End()
	d, err := automata.DeterminizeContext(ctx, e0)
	if err != nil {
		return nil, fmt.Errorf("core: A_d: %w", err)
	}
	m, err := d.MinimizeContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: A_d: %w", err)
	}
	return m.Totalize(), nil
}

// maximalRewritingFromDFA runs Steps 2–3 of the construction from an
// already-deterministic, total A_d.
func maximalRewritingFromDFA(ad *automata.DFA, sigma *alphabet.Alphabet, sigmaE *alphabet.Alphabet, views map[alphabet.Symbol]*automata.NFA) *Rewriting {
	// Step 2. Build A' with accepting set S − F.
	ap := transferAutomaton(ad, sigmaE, views)
	for s := 0; s < ad.NumStates(); s++ {
		ap.SetAccept(automata.State(s), !ad.Accepting(automata.State(s))) // S − F
	}

	// Step 3. R = complement of A'.
	r := automata.Determinize(ap).Complement()

	out := &Rewriting{
		Ad: ad, APrime: ap, Auto: r,
		sigma: sigma, sigmaE: sigmaE, views: views,
	}
	debugValidateRewriting(out)
	return out
}

// transferAutomaton builds the Σ_E-labeled transfer structure shared by
// the maximal-rewriting construction (A', Section 2) and the
// possibility-rewriting construction (dual.go): states are A_d's, and
// an e-edge s_i → s_j exists iff some w ∈ L(re(e)) drives A_d from s_i
// to s_j — found by a single product BFS over (view state, A_d state)
// pairs per view and start state. Acceptance is left all-false; each
// construction sets its own. Views with ε-transitions are normalized in
// place in the views map.
func transferAutomaton(ad *automata.DFA, sigmaE *alphabet.Alphabet, views map[alphabet.Symbol]*automata.NFA) *automata.NFA {
	ap, _ := transferAutomatonContext(context.Background(), ad, sigmaE, views) // a background context never cancels and carries no budget
	return ap
}

// transferAutomatonContext is transferAutomaton metered against the
// context's budget (stage "core.transfer"): A' has one state per A_d
// state, but the product fixpoint behind its edges can materialize
// |view|·|A_d| origin sets per view, and the e-edges themselves are
// charged as transitions. The per-view fixpoints are independent, so
// they can fan out over the context's worker pool (par.WithWorkers;
// default GOMAXPROCS) — whether they actually do is decided by the
// strategy dispatcher from the summed |view|·|A_d| product-pair cost:
// below the calibrated cutover the goroutine fan-out costs more than
// the fixpoints themselves (the Example 2 regression), so small
// instances run inline. The merge below runs in symbol order either
// way, so the resulting automaton is byte-identical across strategies
// (internal/oracle checks adaptive ≡ forced-sequential ≡
// forced-parallel). The choice is recorded on the "core.transfer" span
// and the strategy.fanout.* counters.
func transferAutomatonContext(ctx context.Context, ad *automata.DFA, sigmaE *alphabet.Alphabet, views map[alphabet.Symbol]*automata.NFA) (*automata.NFA, error) {
	ctx, span := obs.StartSpan(ctx, "core.transfer")
	defer span.End()
	meter := budget.Enter(ctx, "core.transfer")
	if err := meter.AddStates(ad.NumStates()); err != nil {
		return nil, err
	}
	ap := automata.NewNFA(sigmaE)
	ap.AddStates(ad.NumStates())
	ap.SetStart(ad.Start())

	// Collect the symbols that have a view, in symbol order, and
	// ε-normalize their automata up front: the fan-out shares the views
	// map read-only, so this in-place mutation must complete before it.
	syms := make([]alphabet.Symbol, 0, len(views))
	for _, e := range sigmaE.Symbols() {
		vnfa := views[e]
		if vnfa == nil {
			continue
		}
		if vnfa.HasEpsilon() {
			views[e] = vnfa.RemoveEpsilon()
		}
		syms = append(syms, e)
	}

	// Estimate the fan-out's total cost in product-pair units (one view
	// state × one A_d state ≈ one origin set the fixpoint may touch) and
	// let the dispatcher pick sequential vs parallel.
	totalCost := int64(0)
	for _, e := range syms {
		totalCost += int64(views[e].NumStates()) * int64(ad.NumStates())
	}
	choice := strategy.From(ctx).FanOutChoice(par.Workers(ctx), len(syms), totalCost)
	strategy.Record(ctx, span, "fanout", choice)
	fctx := ctx
	if choice == strategy.ChoiceSequential {
		fctx = par.WithWorkers(fctx, 1)
	}

	// One item per view. Each worker opens its own Meter — Meter is not
	// concurrency-safe, but the Budget behind the context is atomic, so
	// charges from all workers land in the same shared pool. Results go
	// into index-addressed slots; an error from any view (budget
	// exhaustion, cancellation) cancels the remaining ones and surfaces
	// as the root cause.
	targets := make([][][]automata.State, len(syms))
	err := par.ForEach(fctx, len(syms), func(wctx context.Context, i int) error {
		// With observability off this is the bare fixpoint call; with it
		// on, each view's fixpoint gets a "core.transfer:<view>" span —
		// and, when the fan-out actually runs parallel, pprof labels so
		// CPU profiles attribute samples per view symbol. The label copy
		// costs a goroutine-label swap per item, which on an inline
		// sequential fan-out is pure overhead (the EX2Observed tracing
		// cost), so the sequential arm skips it. The disabled path builds
		// no closure and assembles no label strings at all.
		if !obs.Enabled(wctx) {
			wm := budget.Enter(wctx, "core.transfer")
			ts, terr := transferTargets(wm, views[syms[i]], ad)
			if terr != nil {
				return terr
			}
			targets[i] = ts
			return nil
		}
		name := sigmaE.Name(syms[i])
		vctx, vspan := obs.StartSpan2(wctx, "core.transfer", name)
		defer vspan.End()
		if choice == strategy.ChoiceSequential {
			wm := budget.Enter(vctx, "core.transfer")
			var terr error
			targets[i], terr = transferTargets(wm, views[syms[i]], ad)
			return terr
		}
		var terr error
		obs.Do(vctx, func(lctx context.Context) {
			wm := budget.Enter(lctx, "core.transfer")
			targets[i], terr = transferTargets(wm, views[syms[i]], ad)
		}, "stage", "core.transfer", "view", name)
		return terr
	})
	if err != nil {
		return nil, err
	}

	for k, e := range syms {
		added := 0
		for i, ts := range targets[k] {
			for _, j := range ts {
				ap.AddTransition(automata.State(i), e, j)
				added++
			}
		}
		if err := meter.AddTransitions(added); err != nil {
			return nil, err
		}
	}
	return ap, nil
}

// transferTargets computes, for every A_d state i, the states j such
// that some w ∈ L(view) drives ad from i to j — all origins at once,
// by origin-set propagation: each product pair (view state, A_d state)
// carries the bitset of origins that reach it, and transitions union
// the sets forward until fixpoint. Compared with one BFS per origin
// (reachTargets, kept as the test oracle) the inner dimension runs 64
// origins per machine word. Each materialized origin set is charged as
// a state on the caller's meter; the fixpoint aborts on exhaustion or
// cancellation.
func transferTargets(meter *budget.Meter, view *automata.NFA, ad *automata.DFA) ([][]automata.State, error) {
	nAd := ad.NumStates()
	nView := view.NumStates()
	out := make([][]automata.State, nAd)
	if view.Start() == automata.NoState {
		return out, nil
	}

	// origins[v*nAd+d] = bitset of A_d states i with (start, i) →* (v, d).
	origins := make([]*bitsetWords, nView*nAd)
	idx := func(v automata.State, d automata.State) int { return int(v)*nAd + int(d) }

	words := (nAd + 63) / 64
	allocated := 0
	get := func(v, d automata.State) *bitsetWords {
		k := idx(v, d)
		if origins[k] == nil {
			origins[k] = newBitsetWords(words)
			allocated++
		}
		return origins[k]
	}

	type pair struct{ v, d automata.State }
	var queue []pair
	inQueue := map[pair]bool{}
	push := func(p pair) {
		if !inQueue[p] {
			inQueue[p] = true
			queue = append(queue, p)
		}
	}

	start := view.Start()
	for i := 0; i < nAd; i++ {
		get(start, automata.State(i)).set(i)
		push(pair{start, automata.State(i)})
	}

	charged := 0
	for len(queue) > 0 {
		// Charge the origin sets materialized since the last check.
		if err := meter.AddStates(allocated - charged); err != nil {
			return nil, err
		}
		charged = allocated
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		inQueue[p] = false
		src := get(p.v, p.d)
		for _, x := range view.OutSymbols(p.v) { //mapiter:unordered fixpoint propagation; the final origin sets are order-independent
			d2 := ad.Next(p.d, x)
			if d2 == automata.NoState {
				continue
			}
			for _, v2 := range view.Successors(p.v, x) {
				if get(v2, d2).unionWith(src) {
					push(pair{v2, d2})
				}
			}
		}
	}

	for _, v := range view.AcceptingStates() {
		for d := 0; d < nAd; d++ {
			set := origins[idx(v, automata.State(d))]
			if set == nil {
				continue
			}
			for _, i := range set.elements() {
				out[i] = append(out[i], automata.State(d))
			}
		}
	}
	// Deduplicate targets per origin (an origin can reach the same j
	// through several accepting view states).
	for i := range out {
		if len(out[i]) < 2 {
			continue
		}
		seen := map[automata.State]bool{}
		kept := out[i][:0]
		for _, j := range out[i] {
			if !seen[j] {
				seen[j] = true
				kept = append(kept, j)
			}
		}
		out[i] = kept
	}
	return out, nil
}

// bitsetWords is a minimal fixed-size bitset used by transferTargets
// (internal/automata's bitset is unexported there).
type bitsetWords struct{ w []uint64 }

func newBitsetWords(words int) *bitsetWords { return &bitsetWords{w: make([]uint64, words)} }

func (b *bitsetWords) set(i int) { b.w[i>>6] |= 1 << (uint(i) & 63) }

// unionWith ors o into b and reports whether b changed.
func (b *bitsetWords) unionWith(o *bitsetWords) bool {
	changed := false
	for i, word := range o.w {
		if b.w[i]|word != b.w[i] {
			b.w[i] |= word
			changed = true
		}
	}
	return changed
}

func (b *bitsetWords) elements() []int {
	var out []int
	for wi, word := range b.w {
		for word != 0 {
			out = append(out, wi*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// NewRewritingFromParts assembles a Rewriting from externally built
// automata: A_d (total DFA over Σ), A' (NFA over Σ_E), their complement
// R (total DFA over Σ_E), and the ε-free view automata over Σ. The
// regular-path-query layer uses this for the Section 4.2 construction,
// which builds the A' edges without materializing grounded view
// automata. Callers are responsible for the construction invariants
// (A_d total, A' acceptance flipped, R = complement of determinized A').
// The view automata are supplied lazily: viewsFn runs only if a caller
// needs the expansion (Expand, exactness or Σ-emptiness checks).
func NewRewritingFromParts(ad *automata.DFA, aprime *automata.NFA, r *automata.DFA, sigma, sigmaE *alphabet.Alphabet, viewsFn func() map[alphabet.Symbol]*automata.NFA) *Rewriting {
	out := &Rewriting{
		Ad: ad, APrime: aprime, Auto: r,
		sigma: sigma, sigmaE: sigmaE, viewsFn: viewsFn,
	}
	debugValidateRewriting(out)
	return out
}

// reachTargets returns the A_d states j such that some word w ∈ L(view)
// drives ad from state i to j, via BFS over the product of the ε-free
// view NFA and ad.
func reachTargets(view *automata.NFA, ad *automata.DFA, i automata.State) []automata.State {
	if view.Start() == automata.NoState {
		return nil
	}
	// view symbols are over the same Σ alphabet as ad by construction.
	type pair struct{ v, d automata.State }
	seen := map[pair]bool{}
	queue := []pair{{view.Start(), i}}
	seen[queue[0]] = true
	targetSet := map[automata.State]bool{}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if view.Accepting(p.v) {
			targetSet[p.d] = true
		}
		for _, x := range view.OutSymbols(p.v) { //mapiter:unordered BFS over a set; targets are sorted before return
			d := ad.Next(p.d, x)
			if d == automata.NoState {
				continue // cannot happen on a total A_d; kept for safety
			}
			for _, t := range view.Successors(p.v, x) {
				np := pair{t, d}
				if !seen[np] {
					seen[np] = true
					queue = append(queue, np)
				}
			}
		}
	}
	out := make([]automata.State, 0, len(targetSet))
	for j := range targetSet {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// NFA returns the rewriting as a trim NFA over Σ_E.
func (r *Rewriting) NFA() *automata.NFA {
	return r.Auto.TrimPartial().NFA()
}

// Regex returns the rewriting as a simplified regular expression over
// Σ_E (state elimination on the minimal DFA). It is unbounded; serving
// paths use RegexContext.
func (r *Rewriting) Regex() *regex.Node {
	return regex.FromDFA(r.MinimalDFA())
}

// RegexContext is Regex under the context's deadline and budget: the
// state elimination ticks the "regex.from_dfa" meter and stops with a
// *budget.ExceededError once the expression would render to more than
// regex.MaxRenderBytes. It charges no states.
func (r *Rewriting) RegexContext(ctx context.Context) (*regex.Node, error) {
	return regex.FromDFAContext(ctx, r.MinimalDFA())
}

// MinimalDFA returns the canonical minimal DFA of the rewriting,
// the size measure used by the Theorem 8 experiments. It is computed
// once per rewriting and shared by every caller, Regex included, so
// callers must not modify it.
func (r *Rewriting) MinimalDFA() *automata.DFA {
	r.minimalOnce.Do(func() { r.minimal = r.Auto.Minimize().TrimPartial() })
	return r.minimal
}

// Accepts reports whether the Σ_E-word (by view names) is in L(R).
func (r *Rewriting) Accepts(viewNames ...string) bool {
	return r.Auto.AcceptsNames(viewNames...)
}

// IsEmpty reports Σ_E-emptiness: L(R) = ∅ (Section 3.2).
func (r *Rewriting) IsEmpty() bool {
	return r.Auto.TrimPartial().NFA().IsEmpty()
}

// IsSigmaEmpty reports Σ-emptiness: exp(L(R)) = ∅ (Section 3.2). It
// differs from IsEmpty exactly when every word of L(R) uses some view
// whose language is empty: such words expand to nothing.
func (r *Rewriting) IsSigmaEmpty() bool {
	// Restrict R to view symbols whose language is non-empty; the
	// restricted language is empty iff the expansion is.
	return r.restrictToLiveViews().IsEmpty()
}

// ShortestWord returns a shortest Σ_E-word in L(R) whose expansion is
// non-empty, or ok=false if exp(L(R)) = ∅.
func (r *Rewriting) ShortestWord() ([]alphabet.Symbol, bool) {
	return r.restrictToLiveViews().ShortestWord()
}

// restrictToLiveViews returns R with every transition on a view whose
// language is empty removed: words of the restricted automaton are
// exactly the words of L(R) with a non-empty expansion.
func (r *Rewriting) restrictToLiveViews() *automata.NFA {
	views := r.Views()
	var live []alphabet.Symbol
	for _, e := range r.sigmaE.Symbols() {
		if v := views[e]; v != nil && !v.IsEmpty() {
			live = append(live, e)
		}
	}
	restricted := automata.NewNFA(r.sigmaE)
	restricted.AddStates(r.Auto.NumStates())
	restricted.SetStart(r.Auto.Start())
	for s := 0; s < r.Auto.NumStates(); s++ { //budget:exempt state-preserving restriction of the already-admitted rewriting DFA; transitions only shrink
		restricted.SetAccept(automata.State(s), r.Auto.Accepting(automata.State(s)))
		for _, e := range live {
			if t := r.Auto.Next(automata.State(s), e); t != automata.NoState {
				restricted.AddTransition(automata.State(s), e, t)
			}
		}
	}
	return restricted
}

// Views returns the compiled ε-free view NFAs keyed by Σ_E symbol,
// materializing them on first use when the rewriting was built with a
// lazy view supplier.
func (r *Rewriting) Views() map[alphabet.Symbol]*automata.NFA {
	if r.views == nil && r.viewsFn != nil {
		r.views = r.viewsFn()
		for e, v := range r.views { //mapiter:unordered in-place normalization; no ordering is observable
			if v != nil && v.HasEpsilon() {
				r.views[e] = v.RemoveEpsilon()
			}
		}
	}
	return r.views
}
