package core

import (
	"context"

	"regexrw/internal/alphabet"
	"regexrw/internal/automata"
	"regexrw/internal/budget"
	"regexrw/internal/obs"
	"regexrw/internal/regex"
)

// Possibility is the possibility rewriting of an instance: the language
//
//	R_poss = { u ∈ Σ_E* : exp(u) ∩ L(E0) ≠ ∅ }
//
// of view words that CAN produce a word of E0 — the natural upper
// envelope for the "minimal containing rewritings" the paper's
// conclusions raise as the dual of the maximal contained rewriting.
// Two facts anchor its role (both are exercised by tests):
//
//   - every minimal containing rewriting is a sublanguage of R_poss
//     (words outside R_poss contribute nothing to the expansion's
//     intersection with L(E0) and can always be dropped);
//   - a containing rewriting (exp(L(R)) ⊇ L(E0)) exists if and only if
//     R_poss itself is containing, decided by IsContaining.
//
// The construction mirrors Section 2 with the acceptance condition
// dualized: on the same transfer automaton as A', a word is accepted
// iff some run ends in an A_d-accepting state — no complementation, so
// the result is only singly exponential.
type Possibility struct {
	Instance *Instance

	// Ad is the deterministic total automaton for L(E0).
	Ad *automata.DFA
	// Transfer is the Σ_E transfer automaton with A_d's accepting set
	// (the existential dual of A').
	Transfer *automata.NFA
	// Auto is the determinized possibility rewriting.
	Auto *automata.DFA

	sigma  *alphabet.Alphabet
	sigmaE *alphabet.Alphabet
	views  map[alphabet.Symbol]*automata.NFA

	expanded *automata.NFA
}

// PossibilityRewriting computes R_poss for the instance.
func PossibilityRewriting(inst *Instance) *Possibility {
	p, _ := PossibilityRewritingContext(context.Background(), inst) // a background context never cancels and carries no budget
	return p
}

// PossibilityRewritingContext is PossibilityRewriting with cooperative
// cancellation and resource governance threaded into the query
// determinization, the transfer fixpoint and the final determinization.
func PossibilityRewritingContext(ctx context.Context, inst *Instance) (*Possibility, error) {
	ad, err := determinizeQueryContext(ctx, inst)
	if err != nil {
		return nil, err
	}
	p, err := possibilityFromDFAContext(ctx, ad, inst.sigma, inst.sigmaE, inst.ViewNFAs())
	if err != nil {
		return nil, err
	}
	p.Instance = inst
	return p, nil
}

// PossibilityRewritingAutomata is PossibilityRewriting with the inputs
// already compiled, the entry point the regular-path-query layer uses
// with grounded automata.
func PossibilityRewritingAutomata(e0 *automata.NFA, sigmaE *alphabet.Alphabet, views map[alphabet.Symbol]*automata.NFA) *Possibility {
	p, _ := PossibilityRewritingAutomataContext(context.Background(), e0, sigmaE, views) // a background context never cancels and carries no budget
	return p
}

// PossibilityRewritingAutomataContext is PossibilityRewritingAutomata
// with cooperative cancellation and budget metering threaded into the
// determinizations, the minimization and the transfer fixpoint.
func PossibilityRewritingAutomataContext(ctx context.Context, e0 *automata.NFA, sigmaE *alphabet.Alphabet, views map[alphabet.Symbol]*automata.NFA) (*Possibility, error) {
	d, err := automata.DeterminizeContext(ctx, e0)
	if err != nil {
		return nil, err
	}
	m, err := d.MinimizeContext(ctx)
	if err != nil {
		return nil, err
	}
	return possibilityFromDFAContext(ctx, m.Totalize(), e0.Alphabet(), sigmaE, views)
}

func possibilityFromDFAContext(ctx context.Context, ad *automata.DFA, sigma, sigmaE *alphabet.Alphabet, views map[alphabet.Symbol]*automata.NFA) (*Possibility, error) {
	tr, err := transferAutomatonContext(ctx, ad, sigmaE, views)
	if err != nil {
		return nil, err
	}
	for s := 0; s < ad.NumStates(); s++ {
		tr.SetAccept(automata.State(s), ad.Accepting(automata.State(s))) // F, not S − F
	}
	auto, err := automata.DeterminizeContext(ctx, tr)
	if err != nil {
		return nil, err
	}
	return &Possibility{
		Ad:       ad,
		Transfer: tr,
		Auto:     auto,
		sigma:    sigma,
		sigmaE:   sigmaE,
		views:    views,
	}, nil
}

// Accepts reports whether the Σ_E-word (by view names) is in R_poss.
func (p *Possibility) Accepts(viewNames ...string) bool {
	return p.Auto.AcceptsNames(viewNames...)
}

// NFA returns R_poss as a trim NFA over Σ_E.
func (p *Possibility) NFA() *automata.NFA {
	return p.Auto.TrimPartial().NFA()
}

// Regex returns R_poss as a simplified regular expression over Σ_E.
func (p *Possibility) Regex() *regex.Node {
	return regex.FromDFA(p.Auto.Minimize().TrimPartial())
}

// IsEmpty reports whether R_poss is empty — no view word can produce
// any word of L(E0).
func (p *Possibility) IsEmpty() bool {
	return p.Auto.TrimPartial().NFA().IsEmpty()
}

// Expand returns an automaton for exp(L(R_poss)) over Σ.
func (p *Possibility) Expand() *automata.NFA {
	if p.expanded != nil {
		return p.expanded
	}
	p.expanded = expandOverViews(p.Auto.TrimPartial(), p.sigma, p.sigmaE, p.views)
	return p.expanded
}

// IsContaining reports whether exp(L(R_poss)) ⊇ L(E0), i.e. whether a
// containing rewriting of E0 wrt the views exists at all. When it does
// not, witness is a shortest word of L(E0) that no composition of view
// languages can produce.
func (p *Possibility) IsContaining() (containing bool, witness []alphabet.Symbol) {
	ok, cex := automata.ContainedIn(p.Ad.NFA(), p.Expand())
	if ok {
		return true, nil
	}
	return false, cex
}

// ExistsContainingRewriting reports whether the instance admits any
// rewriting whose expansion contains L(E0).
func ExistsContainingRewriting(inst *Instance) bool {
	ok, _ := PossibilityRewriting(inst).IsContaining()
	return ok
}

// expandOverViews splices a fresh copy of each view automaton into
// every corresponding edge of base (shared by Rewriting.Expand and
// Possibility.Expand).
func expandOverViews(base *automata.DFA, sigma, sigmaE *alphabet.Alphabet, views map[alphabet.Symbol]*automata.NFA) *automata.NFA {
	out, _ := expandOverViewsContext(context.Background(), base, sigma, sigmaE, views) // a background context never cancels and carries no budget
	return out
}

// expandOverViewsContext is expandOverViews metered against the
// context's budget (stage "core.expand"): the expansion copies one view
// automaton per (state, view-edge) pair of base, so its size is
// |base| + Σ_edges |view| and can dwarf the rewriting itself.
func expandOverViewsContext(ctx context.Context, base *automata.DFA, sigma, sigmaE *alphabet.Alphabet, views map[alphabet.Symbol]*automata.NFA) (*automata.NFA, error) {
	ctx, span := obs.StartSpan(ctx, "core.expand")
	defer span.End()
	meter := budget.Enter(ctx, "core.expand")
	if err := meter.AddStates(base.NumStates()); err != nil {
		return nil, err
	}
	out := automata.NewNFA(sigma)
	out.AddStates(base.NumStates())
	out.SetStart(base.Start())
	for s := 0; s < base.NumStates(); s++ {
		out.SetAccept(automata.State(s), base.Accepting(automata.State(s)))
	}
	for s := 0; s < base.NumStates(); s++ {
		for _, e := range sigmaE.Symbols() {
			t := base.Next(automata.State(s), e)
			if t == automata.NoState {
				continue
			}
			v := views[e]
			if v == nil || v.Start() == automata.NoState {
				continue
			}
			if err := meter.AddStates(v.NumStates()); err != nil {
				return nil, err
			}
			m := automata.CopyInto(out, v)
			out.AddEpsilon(automata.State(s), m[v.Start()])
			for _, f := range v.AcceptingStates() {
				out.SetAccept(m[f], false)
				out.AddEpsilon(m[f], automata.State(t))
			}
		}
	}
	return out, nil
}
