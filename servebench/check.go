package main

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	regexrwclient "regexrw/client"
	"regexrw/internal/alphabet"
	"regexrw/internal/automata"
	"regexrw/internal/core"
	"regexrw/internal/graph"
	"regexrw/internal/language"
	"regexrw/internal/regex"
)

// checker verifies every response. Cheap checks run inline, on the
// client's goroutine; word-level soundness and reference evaluation run
// on a seeded sample after the measured phase (deferredCheck).
type checker struct {
	w *workloadSpec
	// expected holds rewrite-hot's answer per pool entry, as the fill
	// boot compiled it from the canonical spelling.
	expected []*regexrwclient.PlanResponse
	// rewritings holds query-stream's rewriting per plan, from the warm
	// pass.
	rewritings []string
	// graphs are the benchmark's own copies of query-stream's graphs.
	graphs map[string]*graph.DB

	mismatches atomic.Int64
}

func (c *checker) mismatch() { c.mismatches.Add(1) }

// deferredCheck is a sampled response kept for a deep check.
type deferredCheck struct {
	req     *request
	plan    *regexrwclient.PlanResponse
	query   *regexrwclient.QueryResult
	answers []regexrwclient.QueryAnswer
	// smp is the response's sample, taken back from the run's samples
	// if the deep check fails.
	smp sample
}

// maxDeepChecks bounds the deep checks of one run (n=5 DetBlowup
// responses aside), so checking stays short next to the measured phase.
const maxDeepChecks = 200

// inline checks one successful reply and returns the deep check to run
// later, if the request is sampled.
func (c *checker) inline(req *request, rep reply) (*deferredCheck, error) {
	if req.ep == epQuery {
		if err := c.checkQueryInline(req, rep.query); err != nil {
			return nil, err
		}
		if req.sample {
			return &deferredCheck{req: req, query: rep.query, answers: rep.answers}, nil
		}
		return nil, nil
	}
	if c.expected != nil {
		return nil, samePlan(rep.plan, c.expected[req.item])
	}
	if rep.plan.Key != req.key {
		return nil, fmt.Errorf("key %s, want %s", rep.plan.Key, req.key)
	}
	if err := consistentPlan(rep.plan); err != nil {
		return nil, err
	}
	if req.sample {
		return &deferredCheck{req: req, plan: rep.plan}, nil
	}
	return nil, nil
}

// consistentPlan checks the exactness fields agree with each other.
func consistentPlan(p *regexrwclient.PlanResponse) error {
	switch p.Verdict {
	case "yes", "no", "unknown":
	default:
		return fmt.Errorf("verdict %q", p.Verdict)
	}
	if p.Exact != (p.Verdict == "yes") {
		return fmt.Errorf("exact=%v with verdict %q", p.Exact, p.Verdict)
	}
	if p.Verdict == "no" && len(p.Witness) == 0 {
		return fmt.Errorf("verdict no without a witness")
	}
	if p.Rewriting == "" {
		return fmt.Errorf("empty rewriting")
	}
	return nil
}

// samePlan compares every answer field of two plan responses. The
// per-request fields (trace, degraded) are not part of the answer.
func samePlan(got, want *regexrwclient.PlanResponse) error {
	switch {
	case got.Key != want.Key:
		return fmt.Errorf("key %s, want %s", got.Key, want.Key)
	case got.Rewriting != want.Rewriting:
		return fmt.Errorf("rewriting %q, want %q", got.Rewriting, want.Rewriting)
	case got.Exact != want.Exact || got.Verdict != want.Verdict:
		return fmt.Errorf("exactness %v/%s, want %v/%s", got.Exact, got.Verdict, want.Exact, want.Verdict)
	case !slices.Equal(got.Witness, want.Witness):
		return fmt.Errorf("witness %v, want %v", got.Witness, want.Witness)
	case !slices.Equal(got.ShortestWord, want.ShortestWord):
		return fmt.Errorf("shortest word %v, want %v", got.ShortestWord, want.ShortestWord)
	case got.Empty != want.Empty || got.SigmaEmpty != want.SigmaEmpty:
		return fmt.Errorf("emptiness %v/%v, want %v/%v", got.Empty, got.SigmaEmpty, want.Empty, want.SigmaEmpty)
	case got.States != want.States:
		return fmt.Errorf("states %d, want %d", got.States, want.States)
	case (got.Partial == nil) != (want.Partial == nil):
		return fmt.Errorf("partial result presence differs")
	}
	return nil
}

func (c *checker) checkQueryInline(req *request, res *regexrwclient.QueryResult) error {
	h := res.Header
	q := req.query
	switch {
	case h.Type != "header":
		return fmt.Errorf("stream without a header line")
	case h.Key != req.key:
		return fmt.Errorf("key %s, want %s", h.Key, req.key)
	case h.Mode != q.Mode || h.Graph != q.Graph:
		return fmt.Errorf("header mode/graph %s/%s, want %s/%s", h.Mode, h.Graph, q.Mode, q.Graph)
	case c.rewritings != nil && h.Rewriting != c.rewritings[req.item]:
		return fmt.Errorf("rewriting %q, want %q", h.Rewriting, c.rewritings[req.item])
	}
	if q.Target != "" {
		if res.Matched == nil || res.Answers != 0 {
			return fmt.Errorf("boolean query: matched=%v with %d answer lines", res.Matched, res.Answers)
		}
		return nil
	}
	if res.Matched != nil {
		return fmt.Errorf("single-source query carries a boolean verdict")
	}
	if res.Answers > q.MaxAnswers || (res.Truncated && res.Answers != q.MaxAnswers) {
		return fmt.Errorf("%d answers (truncated=%v) under cap %d", res.Answers, res.Truncated, q.MaxAnswers)
	}
	return nil
}

// deep runs the sampled check for one response.
func (c *checker) deep(d deferredCheck) error {
	switch d.req.ep {
	case epRewrite:
		return checkRewriteSound(d.req, d.plan)
	case epRPQ:
		return checkRPQSound(d.req, d.plan)
	default:
		return c.checkQueryAnswers(d)
	}
}

// Bounds of the word-level soundness check: Σ_E-words of the rewriting
// up to soundLen (at most soundWords of them, shortest first), each view
// expanded to at most viewWords words of at most viewLen symbols.
// DetBlowupFamily rewritings are compared with the hand-written one on
// every {va, vb}-word up to detBlowupLen.
const (
	soundLen     = 3
	soundWords   = 60
	viewLen      = 4
	viewWords    = 8
	detBlowupLen = 8
)

// checkRewriteSound checks exp(L(R)) ⊆ L(E0) on short words, the
// non-exactness witness, and — for DetBlowupFamily — that R agrees with
// the hand-written rewriting on every short word.
func checkRewriteSound(req *request, plan *regexrwclient.PlanResponse) error {
	inst, err := core.ParseInstance(req.rewrite.Query, req.rewrite.Views)
	if err != nil {
		return fmt.Errorf("instance: %w", err)
	}
	e0 := automata.Determinize(inst.QueryNFA())
	r, err := parseRewriting(plan.Rewriting, inst.SigmaE())
	if err != nil {
		return err
	}
	if err := soundOnWords(r, inst.SigmaE(), inst.ViewNFAs(), inst.Sigma(), e0); err != nil {
		return err
	}
	if err := witnessInQuery(plan, inst.Sigma(), e0); err != nil {
		return err
	}
	if req.family != "detblowup" {
		return nil
	}
	var va, vb string
	for name, expr := range req.rewrite.Views {
		if expr == "a" {
			va = name
		} else {
			vb = name
		}
	}
	hand, err := parseRewriting(detBlowupExpected(req.n, va, vb), inst.SigmaE())
	if err != nil {
		return err
	}
	got := joinWords(r.acceptedWords([]string{va, vb}, detBlowupLen))
	want := joinWords(hand.acceptedWords([]string{va, vb}, detBlowupLen))
	if !slices.Equal(got, want) {
		return fmt.Errorf("DetBlowup n=%d rewriting differs from the hand-written one on words up to length %d (%d vs %d words)",
			req.n, detBlowupLen, len(got), len(want))
	}
	return nil
}

// checkRPQSound is checkRewriteSound for RPQ plans, over the grounded
// query and views: expansions are words of theory constants.
func checkRPQSound(req *request, plan *regexrwclient.PlanResponse) error {
	ereq, err := req.rpq.ToEngine()
	if err != nil {
		return fmt.Errorf("request: %w", err)
	}
	t := ereq.Theory
	e0 := automata.Determinize(ereq.Query.Ground(t))
	sigmaE := alphabet.New()
	views := map[alphabet.Symbol]*automata.NFA{}
	for _, v := range ereq.Views {
		views[sigmaE.Intern(v.Name)] = v.Query.Ground(t)
	}
	r, err := parseRewriting(plan.Rewriting, sigmaE)
	if err != nil {
		return err
	}
	if err := soundOnWords(r, sigmaE, views, t.Domain(), e0); err != nil {
		return err
	}
	if req.rpq.Method == "compressed" {
		// The compressed method's Σ is the theory's constant classes,
		// not its constants; its witness is a word of classes.
		return nil
	}
	return witnessInQuery(plan, t.Domain(), e0)
}

// parseRewriting parses a returned rewriting into the benchmark's own
// NFA; every symbol must name a view of the request.
func parseRewriting(expr string, sigmaE *alphabet.Alphabet) (*thompson, error) {
	n, err := regex.Parse(expr)
	if err != nil {
		return nil, fmt.Errorf("rewriting does not parse: %w", err)
	}
	for _, s := range n.SymbolNames() {
		if sigmaE.Lookup(s) == alphabet.None {
			return nil, fmt.Errorf("rewriting uses %q, which is no view of the request", s)
		}
	}
	return newThompson(n), nil
}

// soundOnWords enumerates R's shortest words and checks that every
// (bounded) expansion of each is a word of L(E0).
func soundOnWords(r *thompson, sigmaE *alphabet.Alphabet, views map[alphabet.Symbol]*automata.NFA, sigma *alphabet.Alphabet, e0 *automata.DFA) error {
	words := r.acceptedWords(sigmaE.Names(), soundLen)
	slices.SortStableFunc(words, func(a, b []string) int { return len(a) - len(b) })
	for _, names := range words[:min(len(words), soundWords)] {
		u := make(language.Word, len(names))
		for i, n := range names {
			u[i] = sigmaE.Lookup(n)
		}
		for _, w := range language.ExpandWords(u, views, sigma, viewLen, viewWords).Words() {
			if !e0.Accepts(w) {
				return fmt.Errorf("unsound: view word %v expands to %s, which is not in L(E0)", names, language.Key(sigma, w))
			}
		}
	}
	return nil
}

// witnessInQuery checks a non-exactness witness is a word of L(E0).
func witnessInQuery(plan *regexrwclient.PlanResponse, sigma *alphabet.Alphabet, e0 *automata.DFA) error {
	if plan.Verdict != "no" {
		return nil
	}
	w := make([]alphabet.Symbol, len(plan.Witness))
	for i, name := range plan.Witness {
		if w[i] = sigma.Lookup(name); w[i] == alphabet.None {
			return fmt.Errorf("witness symbol %q is not in Σ", name)
		}
	}
	if !e0.Accepts(w) {
		return fmt.Errorf("witness %v is not in L(E0)", plan.Witness)
	}
	return nil
}

func joinWords(ws [][]string) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = strings.Join(w, " ")
	}
	slices.Sort(out)
	return out
}

// checkQueryAnswers compares a sampled /v1/query response with the
// benchmark's reference product BFS.
func (c *checker) checkQueryAnswers(d deferredCheck) error {
	q := d.req.query
	db := c.graphs[q.Graph]
	if db == nil {
		return fmt.Errorf("no reference graph %q", q.Graph)
	}
	exprText := c.w.plans[d.req.item].query
	if q.Mode == "rewriting" {
		exprText = c.rewritings[d.req.item]
	}
	expr, err := regex.Parse(exprText)
	if err != nil {
		return fmt.Errorf("reference expression: %w", err)
	}
	src := db.NodeID(q.Source)
	if src < 0 {
		return fmt.Errorf("source %q is not in the graph", q.Source)
	}
	ref := refAnswers(expr, db, src)
	if q.Target != "" {
		want := ref[db.NodeID(q.Target)]
		if d.query.Matched == nil || *d.query.Matched != want {
			return fmt.Errorf("boolean %s→%s over %s: got %v, reference %v", q.Source, q.Target, q.Graph, d.query.Matched, want)
		}
		return nil
	}
	want := min(q.MaxAnswers, len(ref))
	if len(d.answers) != want {
		return fmt.Errorf("%d answers from %s over %s, reference has %d (cap %d)", len(d.answers), q.Source, q.Graph, len(ref), q.MaxAnswers)
	}
	if d.query.Truncated != (len(ref) > q.MaxAnswers) {
		return fmt.Errorf("truncated=%v with %d reference answers under cap %d", d.query.Truncated, len(ref), q.MaxAnswers)
	}
	seen := map[string]bool{}
	for _, a := range d.answers {
		if a.From != q.Source || seen[a.To] || !ref[db.NodeID(a.To)] {
			return fmt.Errorf("answer %s→%s is duplicated or not in the reference", a.From, a.To)
		}
		seen[a.To] = true
	}
	return nil
}

// runDeep runs the deep checks of a phase and files failures: every
// n=5 DetBlowup response, and an evenly spaced selection of at most
// maxDeepChecks of the other sampled responses. A response that fails
// its deep check no longer counts as a success: its samples are taken
// back and it counts as failed.
func (c *checker) runDeep(m *recorder) (checked int) {
	step := (len(m.deferred) + maxDeepChecks - 1) / maxDeepChecks
	for i, d := range m.deferred {
		if i%step != 0 && d.req.n != 5 {
			continue
		}
		checked++
		if err := c.deep(d); err != nil {
			c.mismatch()
			m.retract(d)
			m.fail(d.req, fmt.Errorf("deep check: %w", err))
		}
	}
	return checked
}

func joinFailures(fs []string) string { return strings.Join(fs, "; ") }
