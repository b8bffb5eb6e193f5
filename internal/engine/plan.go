package engine

import (
	"context"
	"errors"
	"fmt"

	"regexrw/internal/alphabet"
	"regexrw/internal/automata"
	"regexrw/internal/budget"
	"regexrw/internal/core"
	"regexrw/internal/planstore"
	"regexrw/internal/regex"
	"regexrw/internal/rpq"
)

// Plan is the immutable compiled artifact of one rewriting problem:
// the Σ_E- (or Σ_Q-) maximal rewriting together with everything a
// serving layer answers from — the simplified regular expression, the
// exactness report, the canonical minimal DFA and the shortest witness
// word. A Plan is compiled once (Engine.Rewrite on a cache miss) and
// then shared by every request that hits its cache entry, so all of
// these derived views are computed eagerly at compile time; afterwards
// every method only reads precomputed state, which makes a Plan safe
// for unlimited concurrent use.
//
// The underlying core.Rewriting is reachable through Rewriting() for
// callers that need the construction's automata (A_d, A', diagnostics
// like ExplainRejection). Its own lazily-cached derivations (Expand)
// were forced during compile, so those accessors are concurrency-safe
// on a cached plan too.
type Plan struct {
	key  Key
	inst *core.Instance // nil for RPQ plans
	rw   *core.Rewriting
	rpq  *rpq.Rewriting // nil for regex plans

	expr         *regex.Node
	text         string // expr.String(), rendered once
	exact        core.ExactnessReport
	witnessNames []string // exact.Witness by Σ symbol name
	minimal      *automata.DFA
	shortest     []string // view names; nil when exp(L(R)) = ∅
	hasWord      bool
	partial      *core.AnytimePartialResult // only when requested
	partialText  string                     // partial's rewriting, rendered once
	states       int64                      // states the compile materialized

	// Restored plans (loaded from the persistent plan store rather than
	// compiled) have rw/rpq/inst == nil: only the serving artifacts
	// above survive a round trip through disk. restoredNFA holds the
	// rewriting's trim NFA and storedKind its "regex"/"rpq" tag so a
	// restored plan converts back to a StoredPlan losslessly.
	restoredNFA *automata.NFA
	storedKind  string
}

// Key returns the plan's canonical cache key (hex SHA-256 of the
// canonicalized instance). Two requests get the same key iff they
// canonicalize to the same problem.
func (p *Plan) Key() Key { return p.key }

// Instance returns the compiled regular-expression instance, or nil
// for an RPQ plan.
func (p *Plan) Instance() *core.Instance { return p.inst }

// Rewriting returns the underlying maximal rewriting with the
// construction's automata (A_d, A', R).
func (p *Plan) Rewriting() *core.Rewriting { return p.rw }

// RPQ returns the path-query rewriting when the plan was compiled from
// an RPQRequest, else nil.
func (p *Plan) RPQ() *rpq.Rewriting { return p.rpq }

// Regex returns the rewriting as a simplified expression over the view
// names, computed once at compile time.
func (p *Plan) Regex() *regex.Node { return p.expr }

// RegexString returns Regex().String(), rendered once when the plan
// was compiled or restored, so serving layers answer without
// re-rendering the expression per request.
func (p *Plan) RegexString() string { return p.text }

// Exactness returns the compile-time exactness report. Under the
// compile budget the verdict can be ExactUnknown — the plan is still a
// sound rewriting, only the converse inclusion is undecided; the
// report's Reason and Stage say what gave out.
func (p *Plan) Exactness() core.ExactnessReport { return p.exact }

// IsExact reports whether the compile proved the rewriting exact
// (false covers both ExactNo and ExactUnknown; see Exactness).
func (p *Plan) IsExact() bool { return p.exact.Verdict == core.ExactYes }

// Witness returns the shortest word of L(E0) \ exp(L(R)) (by symbol
// name) when the exactness verdict is no, else nil.
func (p *Plan) Witness() []string {
	if p.exact.Verdict != core.ExactNo {
		return nil
	}
	return p.witnessNames
}

// MinimalDFA returns the canonical minimal DFA of the rewriting.
func (p *Plan) MinimalDFA() *automata.DFA { return p.minimal }

// ShortestWord returns a shortest Σ_E-word of the rewriting with a
// non-empty expansion (by view name), or ok=false when exp(L(R)) = ∅.
func (p *Plan) ShortestWord() ([]string, bool) { return p.shortest, p.hasWord }

// IsEmpty reports Σ_E-emptiness of the rewriting: no shortest word
// even over views with empty languages.
func (p *Plan) IsEmpty() bool { return p.minimal.NumStates() == 0 || !anyAccepting(p.minimal) }

// IsSigmaEmpty reports Σ-emptiness: every word of the rewriting
// expands to nothing.
func (p *Plan) IsSigmaEmpty() bool { return !p.hasWord }

// Accepts reports whether the Σ_E-word (by view names) is in the
// rewriting. Reads only the immutable rewriting DFA; for a restored
// plan (no construction automata) the minimal DFA answers instead —
// same language, so the answer is identical.
func (p *Plan) Accepts(viewNames ...string) bool {
	if p.rw != nil {
		return p.rw.Accepts(viewNames...)
	}
	return p.minimal.AcceptsNames(viewNames...)
}

// Partial returns the anytime partial-rewriting result when the plan
// was compiled with Request.Partial, else nil.
func (p *Plan) Partial() *core.AnytimePartialResult { return p.partial }

// PartialRegexString returns the expression of the partial result's
// rewriting, rendered once at compile time under the compile's
// deadline and regex.MaxRenderBytes; "" when the plan has no partial
// result.
func (p *Plan) PartialRegexString() string { return p.partialText }

// States returns how many automaton states the compile materialized —
// the budget-meter total of the cold compile, retained so cache hits
// can report the work they saved.
func (p *Plan) States() int64 { return p.states }

// ---- Plan construction ----
//
// Everything below is the only code that writes Plan fields: a Plan is
// fully materialized on the compiling goroutine and then published to
// the cache, after which it is immutable — the planimmutable analyzer
// pins writes to this file.

// compileInstance runs the full compile of a regex instance: maximal
// rewriting, exactness report, minimal DFA, shortest witness, and —
// when requested — the anytime partial search and its expression,
// bounded like the plan's own. Everything a Plan serves is
// materialized here so the cached artifact is immutable.
func compileInstance(ctx context.Context, key Key, inst *core.Instance, partial bool) (*Plan, error) {
	before := budget.From(ctx).States()
	rw, err := core.MaximalRewritingContext(ctx, inst)
	if err != nil {
		return nil, err
	}
	p, err := finishPlan(ctx, key, rw)
	if err != nil {
		return nil, err
	}
	p.inst = inst
	if partial && p.exact.Verdict == core.ExactNo {
		pr, err := core.PartialRewritingAnytime(ctx, inst)
		if err != nil {
			return nil, err
		}
		expr, err := pr.Result.Rewriting.RegexContext(ctx)
		if err != nil {
			return nil, err
		}
		p.partial, p.partialText = pr, expr.String()
	}
	p.states = budget.From(ctx).States() - before
	return p, nil
}

// compileRPQ is compileInstance for regular path queries.
func compileRPQ(ctx context.Context, key Key, req RPQRequest) (*Plan, error) {
	before := budget.From(ctx).States()
	rrw, err := rpq.RewriteContext(ctx, req.Query, req.Views, req.Theory, req.Method)
	if err != nil {
		return nil, err
	}
	p, err := finishPlan(ctx, key, rrw.Rewriting)
	if err != nil {
		return nil, err
	}
	p.rpq = rrw
	p.states = budget.From(ctx).States() - before
	return p, nil
}

// finishPlan derives the served artifacts from a freshly built
// rewriting. The exactness check is the anytime variant: under a tight
// budget the plan still comes out sound, with Verdict ExactUnknown and
// the stopping stage in the report. The expression has no such
// fallback: past regex.MaxRenderBytes, or past the deadline, the
// compile fails, so it is built first. The rewriting is minimized
// once; the minimal DFA and the expression both come from that one
// DFA. The lazy caches inside core.Rewriting (the expansion automaton,
// lazily grounded views, the minimal DFA) are forced here, on the
// compiling goroutine, so the shared Plan never mutates afterwards.
func finishPlan(ctx context.Context, key Key, rw *core.Rewriting) (*Plan, error) {
	expr, err := rw.RegexContext(ctx)
	if err != nil {
		return nil, err
	}
	p := &Plan{key: key, rw: rw, expr: expr, text: expr.String(), minimal: rw.MinimalDFA()}
	p.exact = rw.TryExactness(ctx)
	if p.exact.Verdict == core.ExactNo {
		p.witnessNames = symbolNames(rw.Sigma(), p.exact.Witness)
	}
	if w, ok := rw.ShortestWord(); ok {
		p.shortest, p.hasWord = symbolNames(rw.SigmaE(), w), true
	}
	return p, nil
}

// storedFromPlan projects a Plan onto its persistent form: the serving
// artifacts only, never the construction automata (A_d, A') or the
// partial-search result — partial plans are not persisted at all. The
// rewriting itself travels as its trim NFA plus the canonical minimal
// DFA, both in the automata text codec inside the checksummed envelope.
func storedFromPlan(p *Plan) (*planstore.StoredPlan, error) {
	if p.partial != nil {
		return nil, fmt.Errorf("engine: partial plans are not persisted")
	}
	sp := &planstore.StoredPlan{
		Key:             string(p.key),
		Kind:            p.storedKind,
		Rewriting:       p.text,
		Verdict:         int(p.exact.Verdict),
		Witness:         p.witnessNames,
		Stage:           p.exact.Stage,
		ShortestWord:    p.shortest,
		HasShortestWord: p.hasWord,
		States:          p.states,
		MinimalDFA:      p.minimal,
		RewritingNFA:    p.restoredNFA,
	}
	if sp.Kind == "" {
		if p.rpq != nil {
			sp.Kind = "rpq"
		} else {
			sp.Kind = "regex"
		}
	}
	if p.exact.Reason != nil {
		sp.Reason = p.exact.Reason.Error()
	}
	if sp.RewritingNFA == nil {
		if p.rw == nil {
			return nil, fmt.Errorf("engine: plan has neither a rewriting nor a restored NFA")
		}
		sp.RewritingNFA = p.rw.NFA()
	}
	return sp, nil
}

// planFromStored rebuilds a servable Plan from its persistent form.
// The result is a restored plan: Rewriting()/RPQ()/Instance() are nil
// (the doubly exponential construction is not re-run), but every
// serving accessor — Regex, Exactness, Witness, MinimalDFA,
// ShortestWord, IsEmpty, IsSigmaEmpty, States, Accepts — answers from
// the stored artifacts exactly as it would on the freshly compiled
// plan.
func planFromStored(key Key, sp *planstore.StoredPlan) (*Plan, error) {
	if sp.Key != string(key) {
		return nil, fmt.Errorf("engine: stored plan key %s under cache key %s", sp.Key, key)
	}
	if v := core.ExactVerdict(sp.Verdict); v != core.ExactUnknown && v != core.ExactYes && v != core.ExactNo {
		return nil, fmt.Errorf("engine: stored plan has unknown exactness verdict %d", sp.Verdict)
	}
	expr, err := regex.Parse(sp.Rewriting)
	if err != nil {
		return nil, fmt.Errorf("engine: stored rewriting does not parse: %w", err)
	}
	p := &Plan{
		key:          key,
		expr:         expr,
		text:         sp.Rewriting, // stored from String(), which re-parses to itself
		witnessNames: sp.Witness,
		minimal:      sp.MinimalDFA,
		shortest:     sp.ShortestWord,
		hasWord:      sp.HasShortestWord,
		states:       sp.States,
		restoredNFA:  sp.RewritingNFA,
		storedKind:   sp.Kind,
	}
	p.exact = core.ExactnessReport{Verdict: core.ExactVerdict(sp.Verdict), Stage: sp.Stage}
	if sp.Reason != "" {
		p.exact.Reason = errors.New(sp.Reason)
	}
	return p, nil
}

func anyAccepting(d *automata.DFA) bool {
	for s := 0; s < d.NumStates(); s++ {
		if d.Accepting(automata.State(s)) {
			return true
		}
	}
	return false
}

func symbolNames(a *alphabet.Alphabet, word []alphabet.Symbol) []string {
	if word == nil {
		return nil
	}
	out := make([]string, len(word))
	for i, s := range word {
		out[i] = a.Name(s)
	}
	return out
}
