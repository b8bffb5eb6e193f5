package engine

import (
	"context"
	"testing"

	"regexrw/internal/core"
	"regexrw/internal/obs"
	"regexrw/internal/rpq"
	"regexrw/internal/theory"
)

var otherReq = Request{
	Query: "a·b*",
	Views: map[string]string{"v1": "a", "v2": "b"},
}

// TestWarmStartOwnershipFilter is the cluster scaling contract on the
// engine: under WithOwnership, WarmStart materializes only owned keys,
// so each replica restores ~1/N of the persisted plan universe — while
// the request path still serves non-owned keys (a degraded replica
// must be able to compute anything).
func TestWarmStartOwnershipFilter(t *testing.T) {
	dir := t.TempDir()
	e1 := newStoreEngine(t, openStore(t, dir))
	p1, err := e1.Rewrite(context.Background(), ex2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Rewrite(context.Background(), otherReq); err != nil {
		t.Fatal(err)
	}
	e1.FlushStore()
	if st := e1.Stats(); st.StoreSaves != 2 {
		t.Fatalf("want both plans persisted, got %+v", st)
	}

	// Replica that owns only ex2's key.
	owned := p1.Key()
	e2 := newStoreEngine(t, openStore(t, dir), WithOwnership(func(k Key) bool { return k == owned }))
	n, err := e2.WarmStart(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("warm start restored %d plans, want only the owned one", n)
	}
	if st := e2.Stats(); st.CachedPlans != 1 {
		t.Fatalf("cache holds %d plans, want 1", st.CachedPlans)
	}
	if !e2.Owns(owned) || e2.Owns(Key("deadbeef")) {
		t.Fatal("Owns must mirror the installed filter")
	}

	// The owned key is a cache hit; the non-owned one still serves —
	// through the store tier, not a compile (ownership never makes a
	// request slower than it has to be, it only bounds bulk restore).
	if _, err := e2.Rewrite(context.Background(), ex2); err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.Hits != 1 {
		t.Fatalf("owned key should be a warm hit: %+v", st)
	}
	if _, err := e2.Rewrite(context.Background(), otherReq); err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.Compiles != 0 {
		t.Fatalf("non-owned key should restore from the store on demand, not compile: %+v", st)
	}

	// Without a filter, everything is owned.
	e3 := New(WithMetrics(obs.NewRegistry()))
	if !e3.Owns(owned) || !e3.Owns(Key("anything")) {
		t.Fatal("unfiltered engine owns every key")
	}
}

// TestExportedKeyHelpers pins that the exported key constructors agree
// with the keys the engine actually caches under — the cluster router
// and client route by these, so disagreement would send requests to
// the wrong replica.
func TestExportedKeyHelpers(t *testing.T) {
	inst, err := core.ParseInstance(ex2.Query, ex2.Views)
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithMetrics(obs.NewRegistry()))
	p, err := e.Rewrite(context.Background(), ex2)
	if err != nil {
		t.Fatal(err)
	}
	if got := InstanceKey(inst, false); got != p.Key() {
		t.Fatalf("InstanceKey = %s, plan cached under %s", got, p.Key())
	}
	if InstanceKey(inst, true) == InstanceKey(inst, false) {
		t.Fatal("partial and full instances must key differently")
	}

	q0, err := rpq.ParseQuery("fa", map[string]string{"fa": "=a"})
	if err != nil {
		t.Fatal(err)
	}
	views := []rpq.View{{Name: "q1", Query: q0}}
	tt := theory.New()
	tt.AddConstants("a")
	rp, err := e.RewriteRPQ(context.Background(), RPQRequest{Query: q0, Views: views, Theory: tt})
	if err != nil {
		t.Fatal(err)
	}
	if got := RPQKey(q0, views, tt, rpq.Grounded); got != rp.Key() {
		t.Fatalf("RPQKey = %s, plan cached under %s", got, rp.Key())
	}
}
