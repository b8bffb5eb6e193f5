package core

import (
	"context"
	"sort"

	"regexrw/internal/automata"
	"regexrw/internal/budget"
)

// ViewCosts assigns an evaluation cost to each view, e.g. the
// cardinality of its materialized extension. Views absent from the map
// cost DefaultViewCost. The paper's Section 4.3 closes by noting that
// "cost models for path queries and preference criteria that take into
// account such cost models can be defined, leading to the development
// of techniques for choosing the best rewriting"; this file implements
// that direction.
type ViewCosts map[string]float64

// DefaultViewCost is charged for views without an entry in ViewCosts.
const DefaultViewCost = 1.0

func (c ViewCosts) of(name string) float64 {
	if v, ok := c[name]; ok {
		return v
	}
	return DefaultViewCost
}

// EstimatedCost scores a rewriting under the per-edge relation-scan
// model: evaluating the rewriting automaton over materialized views by
// product search scans, for each automaton transition labeled q, the
// extension of view q — so the estimate is the sum of the view costs
// over the transitions of the trimmed automaton. Cheaper automata scan
// fewer/lighter view extensions.
func (r *Rewriting) EstimatedCost(costs ViewCosts) float64 {
	base := r.MinimalDFA()
	total := 0.0
	for s := 0; s < base.NumStates(); s++ {
		for _, e := range r.sigmaE.Symbols() {
			if base.Next(automata.State(s), e) != automata.NoState {
				total += costs.of(r.sigmaE.Name(e))
			}
		}
	}
	return total
}

// PruneViews drops views that the rewriting does not need: it greedily
// removes the most expensive views first, keeping a removal only when
// the rewriting over the remaining views still has the same expansion
// language (hence returns the same answers on every database). The
// returned instance uses the surviving views; its rewriting is
// returned alongside.
func PruneViews(inst *Instance, costs ViewCosts) (*Instance, *Rewriting, error) { //invariantcall:checked delegates to PruneViewsContext
	return PruneViewsContext(context.Background(), inst, costs) // a background context never cancels and carries no budget
}

// PruneViewsContext is PruneViews with cooperative cancellation and
// resource governance: each removal trial costs a full
// rewriting-plus-expansion-plus-equivalence pipeline, all metered
// against the context's budget; the greedy loop itself ticks the meter
// (stage "core.prune") once per victim.
func PruneViewsContext(ctx context.Context, inst *Instance, costs ViewCosts) (*Instance, *Rewriting, error) { //invariantcall:checked every candidate rewriting comes from MaximalRewritingContext, which validates
	meter := budget.Enter(ctx, "core.prune")
	full, err := MaximalRewritingContext(ctx, inst)
	if err != nil {
		return nil, nil, err
	}
	fullExp, err := full.ExpandContext(ctx)
	if err != nil {
		return nil, nil, err
	}

	// Most expensive first; stable on ties for determinism.
	order := append([]View(nil), inst.Views...)
	sort.SliceStable(order, func(i, j int) bool {
		return costs.of(order[i].Name) > costs.of(order[j].Name)
	})

	kept := make(map[string]bool, len(inst.Views))
	for _, v := range inst.Views {
		kept[v.Name] = true
	}
	current := full
	for _, victim := range order {
		if err := meter.Check(); err != nil {
			return nil, nil, err
		}
		if len(kept) == 1 {
			break // keep at least one view
		}
		var trial []View
		for _, v := range inst.Views {
			if v.Name != victim.Name && kept[v.Name] {
				trial = append(trial, v)
			}
		}
		trialInst, err := NewInstance(inst.Query, trial)
		if err != nil {
			return nil, nil, err
		}
		r, err := MaximalRewritingContext(ctx, trialInst)
		if err != nil {
			return nil, nil, err
		}
		rExp, err := r.ExpandContext(ctx)
		if err != nil {
			return nil, nil, err
		}
		same, _, err := automata.ContainedInContext(ctx, rExp, fullExp)
		if err != nil {
			return nil, nil, err
		}
		if same {
			back, _, err := automata.ContainedInContext(ctx, fullExp, rExp)
			if err != nil {
				return nil, nil, err
			}
			same = back
		}
		if same {
			kept[victim.Name] = false
			current = r
		}
	}

	var finalViews []View
	for _, v := range inst.Views {
		if kept[v.Name] {
			finalViews = append(finalViews, v)
		}
	}
	finalInst, err := NewInstance(inst.Query, finalViews)
	if err != nil {
		return nil, nil, err
	}
	if len(finalViews) == len(inst.Views) {
		return inst, full, nil
	}
	// Recompute on the final instance so the rewriting's Instance and
	// alphabets match the pruned view set exactly.
	if current.Instance == nil || len(current.Instance.Views) != len(finalViews) {
		current, err = MaximalRewritingContext(ctx, finalInst)
		if err != nil {
			return nil, nil, err
		}
	}
	return finalInst, current, nil
}
