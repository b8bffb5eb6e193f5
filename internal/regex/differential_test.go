package regex_test

// Differential tests: the adjacency-based, memoized state elimination
// (regex.FromDFA) must print exactly the bytes of the quadratic
// reference it replaced (regexref), on every workload family the
// engine compiles and on fuzzed DFAs.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"regexrw/internal/alphabet"
	"regexrw/internal/automata"
	"regexrw/internal/budget"
	"regexrw/internal/core"
	"regexrw/internal/engine"
	"regexrw/internal/regex"
	"regexrw/internal/regex/regexref"
	"regexrw/internal/rpq"
	"regexrw/internal/theory"
	"regexrw/internal/workload"
)

// checkRewriting compares every way the rewriting's expression is
// produced — Regex, RegexContext, and FromDFA on the minimal DFA —
// against the reference.
func checkRewriting(t *testing.T, what string, rw *core.Rewriting) {
	t.Helper()
	want := regexref.Regex(rw.Auto).String()
	if got := rw.Regex().String(); got != want {
		t.Fatalf("%s: Regex\n got %q\nwant %q", what, got, want)
	}
	got, err := rw.RegexContext(context.Background())
	if err != nil {
		t.Fatalf("%s: RegexContext: %v", what, err)
	}
	if got.String() != want {
		t.Fatalf("%s: RegexContext\n got %q\nwant %q", what, got, want)
	}
	// The output is a Simplify fixpoint, which is what lets the engine
	// drop the second Simplify pass the reference makes.
	if s := regex.Simplify(got).String(); s != want {
		t.Fatalf("%s: Simplify(FromDFA) = %q, want the fixpoint %q", what, s, want)
	}
}

func TestDifferentialRandomInstances(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 2000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		inst := workload.RandomInstance(r, workload.InstanceConfig{
			AlphabetSize: 2 + r.Intn(2),
			NumViews:     2 + r.Intn(2),
			QueryDepth:   1 + r.Intn(4),
			ViewDepth:    1 + r.Intn(2),
		})
		checkRewriting(t, inst.Query.String(), core.MaximalRewriting(inst))
		p := core.PossibilityRewriting(inst)
		if got, want := p.Regex().String(), regexref.Regex(p.Auto).String(); got != want {
			t.Fatalf("possibility of %s:\n got %q\nwant %q", inst.Query, got, want)
		}
	}
}

func TestDifferentialDetBlowup(t *testing.T) {
	for n := 1; n <= 5; n++ {
		checkRewriting(t, "DetBlowupFamily", core.MaximalRewriting(workload.DetBlowupFamily(n)))
	}
}

// TestFromDFAAllocationBound pins where the saving is: converting the
// n=5 DetBlowup rewriting used to allocate about 62 MB in 2.9M
// objects (re-simplifying whole subtrees each step); now it must stay
// under 8 MB, rendering included.
func TestFromDFAAllocationBound(t *testing.T) {
	m := core.MaximalRewriting(workload.DetBlowupFamily(5)).MinimalDFA()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := regex.FromDFAContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	text := n.String()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("n=5 conversion allocated %d bytes for a %d-byte expression, want <= 8 MiB", grew, len(text))
	}
}

// TestFromDFAContextBound: the n=6 rewriting's expression is past
// MaxRenderBytes, so the metered conversion stops with the typed
// budget error instead of building it; a cancelled context stops it
// too.
func TestFromDFAContextBound(t *testing.T) {
	m := core.MaximalRewriting(workload.DetBlowupFamily(6)).MinimalDFA()
	_, err := regex.FromDFAContext(context.Background(), m)
	var ex *budget.ExceededError
	if !errors.As(err, &ex) || ex.Stage != "regex.from_dfa" || ex.Resource != budget.Bytes ||
		ex.Limit != regex.MaxRenderBytes || ex.Used <= ex.Limit {
		t.Fatalf("n=6: err = %v, want a regex.from_dfa bytes ExceededError", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := regex.FromDFAContext(ctx, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v", err)
	}
}

// TestDifferentialPaperExamples covers Examples 1–3 of the paper, with
// Example 2 also without its view for c, and the possibility
// rewritings of the regular-expression examples.
func TestDifferentialPaperExamples(t *testing.T) {
	for _, c := range []struct {
		query string
		views map[string]string
	}{
		{"a*", map[string]string{"e": "a*"}},
		{"a·(b·a+c)*", map[string]string{"e1": "a", "e2": "a·c*·b", "e3": "c"}},
		{"a·(b·a+c)*", map[string]string{"e1": "a", "e2": "a·c*·b"}},
	} {
		inst, err := core.ParseInstance(c.query, c.views)
		if err != nil {
			t.Fatal(err)
		}
		checkRewriting(t, c.query, core.MaximalRewriting(inst))
		p := core.PossibilityRewriting(inst)
		if got, want := p.Regex().String(), regexref.Regex(p.Auto).String(); got != want {
			t.Fatalf("possibility of %s: got %q want %q", c.query, got, want)
		}
	}
	tt := theory.New()
	tt.AddConstants("a", "b", "c")
	q0, err := rpq.ParseQuery("fa·(fb+fc)", map[string]string{"fa": "=a", "fb": "=b", "fc": "=c"})
	if err != nil {
		t.Fatal(err)
	}
	views := []rpq.View{
		{Name: "q1", Query: rpq.Atomic("fa", theory.Eq("a"))},
		{Name: "q2", Query: rpq.Atomic("fb", theory.Eq("b"))},
	}
	for _, m := range []rpq.Method{rpq.Grounded, rpq.Direct, rpq.Compressed} {
		r, err := rpq.Rewrite(q0, views, tt, m)
		if err != nil {
			t.Fatal(err)
		}
		checkRewriting(t, "Example 3", r.Rewriting)
	}
}

// TestDifferentialSiteRPQ covers the site path queries over
// SiteTheory, every view set and all three methods.
func TestDifferentialSiteRPQ(t *testing.T) {
	templates := []struct {
		expr     string
		formulas map[string]string
	}{
		{"reg·cityHop·dist·ven", map[string]string{"reg": "=region", "cityHop": "=city", "dist": "=district", "ven": "venue"}},
		{"reg·cityHop·rel*·dist·ven", map[string]string{"reg": "=region", "cityHop": "=city", "rel": "=related", "dist": "=district", "ven": "venue"}},
		{"(reg+cityHop)*·dist·ven", map[string]string{"reg": "=region", "cityHop": "=city", "dist": "=district", "ven": "venue"}},
		{"nav*·ven", map[string]string{"nav": "nav", "ven": "venue"}},
		{"reg·cityHop·(rel+cityHop)*·dist·ven?", map[string]string{"reg": "=region", "cityHop": "=city", "rel": "=related", "dist": "=district", "ven": "venue"}},
	}
	view := func(name, expr, formula string) rpq.View {
		q, err := rpq.ParseQuery(expr, map[string]string{"f": formula})
		if err != nil {
			t.Fatal(err)
		}
		return rpq.View{Name: name, Query: q}
	}
	base, err := workload.SiteViews()
	if err != nil {
		t.Fatal(err)
	}
	rel, nav := view("vRel", "f", "=related"), view("vNav", "f·f*", "nav")
	viewSets := [][]rpq.View{
		base,
		append(append([]rpq.View(nil), base...), rel),
		append(append([]rpq.View(nil), base...), nav),
		append(append([]rpq.View(nil), base...), rel, nav),
	}
	th := workload.SiteTheory()
	for _, tmpl := range templates {
		q, err := rpq.ParseQuery(tmpl.expr, tmpl.formulas)
		if err != nil {
			t.Fatal(err)
		}
		for _, views := range viewSets {
			for _, m := range []rpq.Method{rpq.Grounded, rpq.Direct, rpq.Compressed} {
				r, err := rpq.Rewrite(q, views, th, m)
				if err != nil {
					t.Fatal(err)
				}
				checkRewriting(t, tmpl.expr, r.Rewriting)
			}
		}
	}
}

// TestDifferentialEnginePlans: what a compiled plan serves is the
// reference's bytes too.
func TestDifferentialEnginePlans(t *testing.T) {
	eng := engine.New()
	defer eng.Close()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		inst := workload.RandomInstance(r, workload.InstanceConfig{AlphabetSize: 3, NumViews: 3, QueryDepth: 3, ViewDepth: 2})
		plan, err := eng.Rewrite(context.Background(), engine.Request{Instance: inst})
		if err != nil {
			t.Fatal(err)
		}
		if want := regexref.Regex(plan.Rewriting().Auto).String(); plan.RegexString() != want || plan.Regex().String() != want {
			t.Fatalf("plan for %s serves %q, want %q", inst.Query, plan.RegexString(), want)
		}
	}
}

// TestDifferentialWideAlphabet covers wide unions: a state reading 120
// view symbols into 60 distinct states that all lead to an accepting
// sink, so the elimination grows a 60-branch union and the sink's
// self-loop label has 120.
func TestDifferentialWideAlphabet(t *testing.T) {
	const m = 120
	al := alphabet.New()
	for i := 0; i < m; i++ {
		al.Intern("v" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
	}
	d := automata.NewDFA(al)
	n := m/2 + 2
	for i := 0; i < n; i++ {
		d.AddState()
	}
	d.SetStart(0)
	sink := automata.State(n - 1)
	d.SetAccept(sink, true)
	for i := 0; i < m; i++ {
		mid := automata.State(1 + i/2)
		d.SetTransition(0, alphabet.Symbol(i), mid)
		d.SetTransition(mid, alphabet.Symbol(i%7), sink)
		d.SetTransition(sink, alphabet.Symbol(i), sink)
	}
	if got, want := regex.FromDFA(d).String(), regexref.Simplify(regexref.FromDFA(d)).String(); got != want {
		t.Fatalf("FromDFA\n got %q\nwant %q", got, want)
	}
}

// randomTree draws an unsimplified expression over two symbols with ∅,
// ε, stars and options, nested unions and concatenations — small
// enough that duplicate and subsumed branches are common.
func randomTree(r *rand.Rand, depth int) *regex.Node {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(8) {
		case 0:
			return regex.Empty()
		case 1:
			return regex.Epsilon()
		default:
			return regex.Sym(string(rune('a' + r.Intn(2))))
		}
	}
	switch r.Intn(5) {
	case 0:
		return regex.Star(randomTree(r, depth-1))
	case 1:
		return regex.Opt(randomTree(r, depth-1))
	}
	subs := make([]*regex.Node, 2+r.Intn(3))
	for i := range subs {
		subs[i] = randomTree(r, depth-1)
	}
	// Built as raw nodes so that nested operators stay unflattened.
	if r.Intn(2) == 0 {
		return &regex.Node{Op: regex.OpConcat, Subs: subs}
	}
	return &regex.Node{Op: regex.OpUnion, Subs: subs}
}

// TestSimplifyMatchesReference: Simplify, now the converter's
// simplifier applied bottom-up, prints what the recursive reference
// printed, on random trees and on every parsable fuzz seed.
func TestSimplifyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		n := randomTree(r, 1+r.Intn(5))
		if got, want := regex.Simplify(n).String(), regexref.Simplify(n).String(); got != want {
			t.Fatalf("Simplify(%s) = %q, reference %q", n, got, want)
		}
	}
	// Wide unions (17 to 77 branches), with repeated and subsumed
	// branches, bare and under a star; the 20 starred and
	// optional symbols subsume their bare occurrences.
	var wide []*regex.Node
	for j := 0; j < 20; j++ {
		x := regex.Sym(string(rune('c' + j)))
		wide = append(wide, regex.Star(x), regex.Opt(regex.Sym(string(rune('c'+j)))))
	}
	for i := 0; i < 500; i++ {
		subs := make([]*regex.Node, 17+r.Intn(40))
		for j := range subs {
			subs[j] = randomTree(r, 2)
		}
		if i%2 == 0 {
			subs = append(subs, wide...)
			subs = append(subs, regex.Sym(string(rune('c'+r.Intn(20)))))
		}
		u := &regex.Node{Op: regex.OpUnion, Subs: subs}
		for _, n := range []*regex.Node{u, regex.Star(u)} {
			if got, want := regex.Simplify(n).String(), regexref.Simplify(n).String(); got != want {
				t.Fatalf("Simplify(%s) = %q, reference %q", n, got, want)
			}
		}
	}
}

// FuzzSimplify compares Simplify with the reference on parsed input.
func FuzzSimplify(f *testing.F) {
	for _, seed := range []string{
		"a·(b·a+c)*", "∅+ε·a·(a*)*+a", "(ε+a+a*)*", "a?+a*+ε", "(a*·a*)+(b?)?",
		"(a+b)*·(a+b)*·a", "ε+(a·b)?+a·b", "((a+ε)*+b?)*·∅",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		n, err := regex.Parse(expr)
		if err != nil {
			return
		}
		if got, want := regex.Simplify(n).String(), regexref.Simplify(n).String(); got != want {
			t.Fatalf("Simplify(%s) = %q, reference %q", expr, got, want)
		}
	})
}

// decodeDFA builds a DFA from fuzz bytes: the first two bytes pick the
// state count (1–12) and alphabet size (1–4), then one byte per
// (state, symbol) picks a target or none, and one per state its
// acceptance. Missing bytes read as zero.
func decodeDFA(data []byte) *automata.DFA {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	n, k := 1+next()%12, 1+next()%4
	al := alphabet.New()
	for x := 0; x < k; x++ {
		al.Intern(string(rune('a' + x)))
	}
	d := automata.NewDFA(al)
	for s := 0; s < n; s++ {
		d.AddState()
	}
	d.SetStart(0)
	for s := 0; s < n; s++ {
		for x := 0; x < k; x++ {
			if t := next() % (n + 1); t < n {
				d.SetTransition(automata.State(s), alphabet.Symbol(x), automata.State(t))
			}
		}
	}
	for s := 0; s < n; s++ {
		d.SetAccept(automata.State(s), next()%3 == 0)
	}
	return d
}

// FuzzFromDFA compares the two conversions on arbitrary DFAs, minimal
// or not: the new one prints what the reference prints after the
// extra Simplify pass Rewriting.Regex used to make, its output is a
// Simplify fixpoint, and the metered variant prints the same.
func FuzzFromDFA(f *testing.F) {
	f.Add([]byte{3, 1, 1, 2, 0, 1, 2, 3, 0, 3})
	f.Add([]byte{5, 2, 1, 2, 3, 4, 5, 0, 1, 2, 0, 4, 5, 1, 3, 3, 2, 0, 0, 3, 1})
	f.Add([]byte{11, 3, 7, 1, 9, 2, 4, 12, 3, 5, 8, 1, 0, 6, 2, 10, 11, 4, 3, 9, 1, 7, 5, 2, 8, 6, 0, 3, 1, 4, 12, 9, 2, 6, 11, 0, 3, 3, 0, 3, 1, 0, 3, 0, 0, 3, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decodeDFA(data)
		want := regexref.Simplify(regexref.FromDFA(d)).String()
		got := regex.FromDFA(d)
		if got.String() != want {
			t.Fatalf("FromDFA\n got %q\nwant %q\n%s", got, want, d)
		}
		if s := regex.Simplify(got).String(); s != want {
			t.Fatalf("FromDFA = %q is not a Simplify fixpoint: %q", want, s)
		}
		viaCtx, err := regex.FromDFAContext(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if viaCtx.String() != want {
			t.Fatalf("FromDFAContext = %q, want %q", viaCtx, want)
		}
	})
}
