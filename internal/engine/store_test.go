package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regexrw/internal/budget/faultinject"
	"regexrw/internal/obs"
	"regexrw/internal/planstore"
)

func openStore(t *testing.T, dir string, opts ...planstore.Option) *planstore.Store {
	t.Helper()
	s, err := planstore.Open(dir, append([]planstore.Option{
		planstore.WithMetrics(obs.NewRegistry()), planstore.WithoutSync(),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newStoreEngine builds an engine over the plan store and closes it
// when the test ends, so no write-behind save is still writing into
// the store's directory when t.TempDir removes it.
func newStoreEngine(t *testing.T, s *planstore.Store, opts ...Option) *Engine {
	t.Helper()
	e := New(append([]Option{WithMetrics(obs.NewRegistry()), WithPlanStore(s)}, opts...)...)
	t.Cleanup(e.Close)
	return e
}

// TestEngineStoreRestart is the crash-restart contract end to end: a
// first engine compiles and write-behinds; a second engine over the
// same directory serves the identical request from disk with zero
// compiles, and the restored plan answers every serving accessor like
// the compiled one did.
func TestEngineStoreRestart(t *testing.T) {
	dir := t.TempDir()
	e1 := newStoreEngine(t, openStore(t, dir))
	p1, err := e1.Rewrite(context.Background(), ex2)
	if err != nil {
		t.Fatal(err)
	}
	e1.FlushStore()
	if st := e1.Stats(); st.StoreSaves != 1 || st.Store == nil || st.Store.Writes != 1 {
		t.Fatalf("write-behind did not persist: %+v", st)
	}

	e2 := newStoreEngine(t, openStore(t, dir))
	p2, err := e2.Rewrite(context.Background(), ex2)
	if err != nil {
		t.Fatal(err)
	}
	st := e2.Stats()
	if st.Compiles != 0 {
		t.Fatalf("restart should not recompile: %+v", st)
	}
	if st.StoreLoads != 1 || st.Store.Hits != 1 {
		t.Fatalf("restart should hit the store: %+v", st)
	}
	if p2.Rewriting() != nil || p2.Instance() != nil {
		t.Fatal("restored plan should not carry construction state")
	}
	if p1.Regex().String() != p2.Regex().String() {
		t.Fatalf("restored regex %q != compiled %q", p2.Regex(), p1.Regex())
	}
	if p1.Exactness().Verdict != p2.Exactness().Verdict || p1.IsExact() != p2.IsExact() {
		t.Fatal("restored exactness differs")
	}
	if p1.States() != p2.States() || p1.Key() != p2.Key() {
		t.Fatal("restored states/key differ")
	}
	w1, ok1 := p1.ShortestWord()
	w2, ok2 := p2.ShortestWord()
	if ok1 != ok2 || len(w1) != len(w2) {
		t.Fatalf("shortest word differs: %v vs %v", w1, w2)
	}
	for _, word := range [][]string{{"e1"}, {"e2", "e1", "e3"}, {"e3"}, {}} {
		if p1.Accepts(word...) != p2.Accepts(word...) {
			t.Fatalf("Accepts(%v) differs between compiled and restored plan", word)
		}
	}
	if p1.IsEmpty() != p2.IsEmpty() || p1.IsSigmaEmpty() != p2.IsSigmaEmpty() {
		t.Fatal("emptiness answers differ")
	}
	// Third request on the same engine is now an in-memory hit.
	if _, err := e2.Rewrite(context.Background(), ex2); err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.Hits != 1 || st.Compiles != 0 {
		t.Fatalf("second request should be an LRU hit: %+v", st)
	}
}

// TestEngineStoreWitnessSurvives: an inexact plan's witness (a Σ-word,
// whose alphabet does not survive into the stored Σ_E automata)
// round-trips by name.
func TestEngineStoreWitnessSurvives(t *testing.T) {
	req := Request{Query: "a+b", Views: map[string]string{"e1": "a"}}
	dir := t.TempDir()
	e1 := newStoreEngine(t, openStore(t, dir))
	p1, err := e1.Rewrite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if p1.IsExact() || len(p1.Witness()) == 0 {
		t.Fatalf("fixture should be inexact with a witness, got %v", p1.Witness())
	}
	e1.FlushStore()
	e2 := newStoreEngine(t, openStore(t, dir))
	p2, err := e2.Rewrite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Stats().Compiles != 0 {
		t.Fatal("restart recompiled")
	}
	if got, want := p2.Witness(), p1.Witness(); len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("witness lost in restore: %v vs %v", got, want)
	}
}

// TestEngineWarmStart: WarmStart pre-populates the LRU from disk, so
// the first live request per restored key is already a cache hit.
func TestEngineWarmStart(t *testing.T) {
	dir := t.TempDir()
	e1 := newStoreEngine(t, openStore(t, dir))
	if _, err := e1.Rewrite(context.Background(), ex2); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Rewrite(context.Background(), Request{Query: "a·a", Views: map[string]string{"e1": "a"}}); err != nil {
		t.Fatal(err)
	}
	e1.FlushStore()

	e2 := newStoreEngine(t, openStore(t, dir))
	n, err := e2.WarmStart(context.Background())
	if err != nil || n != 2 {
		t.Fatalf("WarmStart = %d, %v; want 2, nil", n, err)
	}
	if st := e2.Stats(); st.StoreLoads != 2 || st.CachedPlans != 2 {
		t.Fatalf("after warm start: %+v", st)
	}
	if _, err := e2.Rewrite(context.Background(), ex2); err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.Hits != 1 || st.Compiles != 0 {
		t.Fatalf("request after warm start should be an LRU hit: %+v", st)
	}
	// A cancelled context stops the sweep with the loaded-so-far count.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	e3 := newStoreEngine(t, openStore(t, dir))
	if _, err := e3.WarmStart(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled WarmStart: %v", err)
	}
}

// TestEngineStoreDegradation: a store whose disk fails on every touch
// never fails a request — compiles serve the traffic — and the breaker
// opens and is visible on Stats.
func TestEngineStoreDegradation(t *testing.T) {
	hook := func(op, path string, data []byte) ([]byte, error) {
		return nil, errors.New("disk gone")
	}
	s := openStore(t, t.TempDir(), planstore.WithHook(hook), planstore.WithBreaker(2, time.Hour))
	e := newStoreEngine(t, s)
	for i, req := range []Request{
		ex2,
		{Query: "a·a", Views: map[string]string{"e1": "a"}},
		{Query: "a+b", Views: map[string]string{"e1": "a"}},
	} {
		if _, err := e.Rewrite(context.Background(), req); err != nil {
			t.Fatalf("request %d failed because of a sick store: %v", i, err)
		}
	}
	e.FlushStore()
	st := e.Stats()
	if st.Compiles != 3 || st.StoreLoads != 0 || st.StoreSaves != 0 {
		t.Fatalf("degraded stats: %+v", st)
	}
	if st.Store == nil || !st.Store.BreakerOpen || st.Store.IOErrors == 0 {
		t.Fatalf("breaker state not observable: %+v", st.Store)
	}
}

// TestEngineStoreCorruptEntryRecompiles: a bit-flipped entry is
// quarantined on load and the request transparently recompiles — the
// durability property that a corrupt plan is never served.
func TestEngineStoreCorruptEntryRecompiles(t *testing.T) {
	dir := t.TempDir()
	e1 := newStoreEngine(t, openStore(t, dir))
	p1, err := e1.Rewrite(context.Background(), ex2)
	if err != nil {
		t.Fatal(err)
	}
	e1.FlushStore()

	hook, _ := faultinject.IOFault(faultinject.IORead, 1, faultinject.IOBitFlip)
	s2 := openStore(t, dir, planstore.WithHook(hook))
	e2 := newStoreEngine(t, s2)
	p2, err := e2.Rewrite(context.Background(), ex2)
	if err != nil {
		t.Fatal(err)
	}
	st := e2.Stats()
	if st.Compiles != 1 || st.StoreLoads != 0 {
		t.Fatalf("corrupt entry should force a recompile: %+v", st)
	}
	if st.Store.Corrupt != 1 || st.Store.Quarantined != 1 {
		t.Fatalf("corrupt entry not quarantined: %+v", st.Store)
	}
	if p2.Regex().String() != p1.Regex().String() {
		t.Fatal("recompiled plan differs")
	}
}

// TestEnginePartialBypassesStore: partial plans carry an anytime search
// result that is not persisted; the store must see neither loads nor
// saves for them.
func TestEnginePartialBypassesStore(t *testing.T) {
	s := openStore(t, t.TempDir())
	e := newStoreEngine(t, s)
	if _, err := e.Rewrite(context.Background(), Request{
		Query: "a+b", Views: map[string]string{"e1": "a"}, Partial: true,
	}); err != nil {
		t.Fatal(err)
	}
	e.FlushStore()
	if n, err := s.Len(); err != nil || n != 0 {
		t.Fatalf("partial plan persisted: %d entries, %v", n, err)
	}
	if st := s.Stats(); st.Hits+st.Misses+st.Writes != 0 {
		t.Fatalf("partial plan touched the store: %+v", st)
	}
}

// TestEngineStoreSingleflightSharesLoad: concurrent identical misses
// produce exactly one disk load; followers share the leader's restored
// plan.
func TestEngineStoreSingleflightSharesLoad(t *testing.T) {
	dir := t.TempDir()
	e1 := newStoreEngine(t, openStore(t, dir))
	if _, err := e1.Rewrite(context.Background(), ex2); err != nil {
		t.Fatal(err)
	}
	e1.FlushStore()

	e2 := newStoreEngine(t, openStore(t, dir))
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e2.Rewrite(context.Background(), ex2); err != nil {
				failures.Add(1)
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatal("concurrent restored requests failed")
	}
	st := e2.Stats()
	if st.Compiles != 0 {
		t.Fatalf("restored key recompiled under concurrency: %+v", st)
	}
	if st.StoreLoads+st.Hits+st.Dedups != 8 || st.StoreLoads < 1 {
		t.Fatalf("loads+hits+dedups should cover all 8 requests: %+v", st)
	}
}

// TestRewriteWaiterCancellation pins the singleflight follower
// contract: a follower whose context is cancelled while the leader is
// still compiling detaches promptly with its own ctx error instead of
// blocking until the leader finishes. Run under -race in CI.
func TestRewriteWaiterCancellation(t *testing.T) {
	e := New(WithMetrics(obs.NewRegistry()))
	key := Key("deadbeef")
	release := make(chan struct{})
	started := make(chan struct{})

	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderErr = e.serve(context.Background(), key, false, 0, 0, 0,
			func(context.Context) (*Plan, error) {
				close(started)
				<-release
				return &Plan{key: key}, nil
			})
	}()
	<-started

	fctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := e.serve(fctx, key, false, 0, 0, 0,
			func(context.Context) (*Plan, error) { t.Error("follower must not compile"); return nil, nil })
		followerDone <- err
	}()
	// Wait until the follower is registered as a dedup waiter, then
	// cancel it while the leader still holds the call.
	deadline := time.After(5 * time.Second)
	for e.Stats().Dedups == 0 {
		select {
		case <-deadline:
			t.Fatal("follower never joined the in-flight call")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled follower returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower did not detach while leader was compiling")
	}
	close(release)
	wg.Wait()
	if leaderErr != nil {
		t.Fatalf("leader: %v", leaderErr)
	}
}

// TestEngineCloseWaitsForSaves: Close returns only after every
// write-behind save has reached the store, with no FlushStore, so a
// closed engine never writes into a directory its owner is removing.
// Requests racing Close either fail with ErrClosed or persist their
// plan before returning it.
func TestEngineCloseWaitsForSaves(t *testing.T) {
	s := openStore(t, t.TempDir())
	e := newStoreEngine(t, s)
	const n = 12
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{Query: fmt.Sprintf("a·b{%d}", i+1), Views: map[string]string{"e1": "a", "e2": "b"}}
			if _, err := e.Rewrite(context.Background(), req); err == nil {
				served.Add(1)
			} else if !errors.Is(err, ErrClosed) {
				t.Error(err)
			}
		}(i)
		if i == n/2 {
			e.Close()
		}
	}
	wg.Wait()
	e.Close()
	if got, err := s.Len(); err != nil || int64(got) != served.Load() {
		t.Fatalf("store holds %d plans (%v), want every served one (%d)", got, err, served.Load())
	}
}
