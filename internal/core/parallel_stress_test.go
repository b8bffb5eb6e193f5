package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"regexrw/internal/automata"
	"regexrw/internal/budget"
	"regexrw/internal/core"
	"regexrw/internal/par"
)

// These tests hammer the shared memo/intern caches and the atomic
// budget from concurrent rewriting pipelines. They are fast enough to
// run in -short mode, which is exactly where the CI race job wants them
// (go test -race -short ./...).

// sharedInstance is a small instance whose views exercise ε-removal,
// the transfer fixpoint, and both determinizations.
func sharedInstance(t *testing.T) *core.Instance {
	t.Helper()
	inst, err := core.ParseInstance("(a.b)*.(c+a.b)", map[string]string{
		"v1": "a.b",
		"v2": "c",
		"v3": "(a.b)*",
		"v4": "a.(b.a)*.b",
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestConcurrentMaximalRewriting runs many full pipelines at once over
// the SAME instance: every run shares the instance's query node, and
// runs racing on e0's lazy ε-closure memo must all see a valid table.
// Each result is compared byte-for-byte against a sequential reference.
func TestConcurrentMaximalRewriting(t *testing.T) {
	inst := sharedInstance(t)
	ref, err := core.MaximalRewritingContext(par.WithWorkers(context.Background(), 1), inst)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := serializeRewriting(t, ref)

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Mix worker counts so sequential and parallel transfer
			// constructions interleave on the shared caches.
			ctx := par.WithWorkers(context.Background(), 1+g%4)
			r, err := core.MaximalRewritingContext(ctx, inst)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: %v", g, err)
				return
			}
			if got := serializeRewriting(t, r); got != refBytes {
				errs <- fmt.Errorf("goroutine %d: rewriting differs from sequential reference", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentRewritingSharedViews runs concurrent pipelines that
// share the SAME pre-built view automata map (the normal path builds a
// fresh map per call): this maximizes contention on the per-NFA memo
// tables inside transferTargets.
func TestConcurrentRewritingSharedViews(t *testing.T) {
	inst := sharedInstance(t)
	e0 := inst.Query.ToNFA(inst.Sigma())
	views := inst.ViewNFAs() // shared across all goroutines below

	ref, err := core.MaximalRewritingAutomataContext(par.WithWorkers(context.Background(), 1), e0, inst.SigmaE(), views)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := serializeRewriting(t, ref)

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := par.WithWorkers(context.Background(), 1+g%4)
			r, err := core.MaximalRewritingAutomataContext(ctx, e0, inst.SigmaE(), views)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: %v", g, err)
				return
			}
			if got := serializeRewriting(t, r); got != refBytes {
				errs <- fmt.Errorf("goroutine %d: rewriting differs from sequential reference", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func serializeRewriting(t *testing.T, r *core.Rewriting) string {
	t.Helper()
	var sb1, sb2 stringsBuilder
	if _, err := r.APrime.WriteTo(&sb1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Auto.NFA().WriteTo(&sb2); err != nil {
		t.Fatal(err)
	}
	return sb1.String() + "\x00" + sb2.String()
}

// stringsBuilder avoids importing strings just for Builder.
type stringsBuilder struct{ buf []byte }

func (b *stringsBuilder) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}
func (b *stringsBuilder) String() string { return string(b.buf) }

// TestBudgetAccurateUnderConcurrency: N workers each charging k states
// through their own Meter against one shared Budget must account for
// exactly N*k, and a cap mid-way must trip exactly.
func TestBudgetAccurateUnderConcurrency(t *testing.T) {
	const workers, perWorker = 8, 1000
	b := budget.New(budget.MaxStates(workers*perWorker + 1))
	ctx := budget.With(context.Background(), b)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := budget.Enter(ctx, "core.transfer")
			for i := 0; i < perWorker; i++ {
				if err := m.AddStates(1); err != nil {
					t.Errorf("unexpected budget error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := b.States(); got != workers*perWorker {
		t.Fatalf("budget recorded %d states, want %d", got, workers*perWorker)
	}

	// The cap has 1 state left: exactly one more charge fits.
	m := budget.Enter(ctx, "core.transfer")
	if err := m.AddStates(1); err != nil {
		t.Fatalf("final state within cap rejected: %v", err)
	}
	if err := m.AddStates(1); err == nil {
		t.Fatal("charge beyond cap accepted")
	}
}

// TestParallelTransferBudgetTrips: a tight budget must surface a
// *budget.ExceededError through the parallel fan-out, not a masked
// cancellation error.
func TestParallelTransferBudgetTrips(t *testing.T) {
	inst := sharedInstance(t)
	b := budget.New(budget.MaxStates(3))
	ctx := budget.With(par.WithWorkers(context.Background(), 4), b)
	_, err := core.MaximalRewritingContext(ctx, inst)
	if err == nil {
		t.Fatal("expected budget exhaustion")
	}
	var ex *budget.ExceededError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *budget.ExceededError", err)
	}
}

// TestConcurrentRegexSharedRewriting: one rewriting's minimal DFA is
// computed once and shared, so concurrent MinimalDFA, Regex and
// RegexContext calls on the same rewriting must see the same DFA and
// print the same expression (run under -race).
func TestConcurrentRegexSharedRewriting(t *testing.T) {
	r, err := core.MaximalRewritingContext(context.Background(), sharedInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	dfas := make([]*automata.DFA, goroutines)
	texts := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dfas[g] = r.MinimalDFA()
			if g%2 == 0 {
				texts[g] = r.Regex().String()
				return
			}
			n, err := r.RegexContext(context.Background())
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			texts[g] = n.String()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if dfas[g] != dfas[0] || texts[g] != texts[0] {
			t.Fatalf("goroutine %d: minimal DFA shared %v, expression %q vs %q", g, dfas[g] == dfas[0], texts[g], texts[0])
		}
	}
}
