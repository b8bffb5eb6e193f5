package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	regexrwclient "regexrw/client"
	"regexrw/internal/automata"
	"regexrw/internal/core"
	"regexrw/internal/regex"
	"regexrw/internal/workload"
)

// The three workloads. Each one stresses a different layer of the
// serving path; README.md records why each exists.
const (
	wRewriteHot  = "rewrite-hot"
	wCompileCold = "compile-cold"
	wQueryStream = "query-stream"
)

var workloadNames = []string{wRewriteHot, wCompileCold, wQueryStream}

type endpoint int

const (
	epRewrite endpoint = iota
	epRPQ
	epQuery
)

func (e endpoint) String() string {
	switch e {
	case epRewrite:
		return "rewrite"
	case epRPQ:
		return "rpq"
	default:
		return "query"
	}
}

// request is one generated request plus what the checker needs to know
// about it. Requests are immutable once generated: rewrite-hot hands
// the same pool entries to both clients.
type request struct {
	ep      endpoint
	rewrite regexrwclient.RewriteRequest
	rpq     regexrwclient.RPQRequest
	query   regexrwclient.QueryRequest

	item   int    // pool entry (rewrite-hot) or plan (query-stream); -1 if none
	family string // example2, random, detblowup, site
	n      int    // DetBlowupFamily parameter
	key    string // plan key the response must carry
	sample bool   // deep-checked after the measured phase
}

// body is the wire body the client sends for the request.
func (r *request) body() any {
	switch r.ep {
	case epRewrite:
		return r.rewrite
	case epRPQ:
		return r.rpq
	default:
		return r.query
	}
}

// planKey is the routing key the client computes on every call.
func (r *request) planKey() (string, error) {
	switch r.ep {
	case epRewrite:
		return r.rewrite.PlanKey()
	case epRPQ:
		return r.rpq.PlanKey()
	default:
		return r.query.PlanKey()
	}
}

// mix derives independent 63-bit seeds from the workload seed and a
// list of tags (splitmix64 finalizer), so each client stream, the
// pool and the warm-up streams draw from unrelated sources.
func mix(seed int64, tags ...int64) int64 {
	x := uint64(seed)
	for _, t := range tags {
		x ^= uint64(t) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// stream is one client's deterministic request sequence: request j
// depends only on the seed, the client index and j.
type stream struct {
	c   int
	j   int
	gen func(c, j int) *request
}

func (s *stream) next() *request {
	req := s.gen(s.c, s.j)
	s.j++
	return req
}

// Client indices 0 and 1 are the measured closed-loop clients; 2 and 3
// drive the untimed warm-up, so warm-up traffic never shifts the
// measured stream.
const (
	measuredClients = 2
	warmupClientOff = 2
)

// workloadSpec is a generated workload: its streams plus the fixed
// inputs (pool, plans, graphs) they draw from.
type workloadSpec struct {
	name string
	seed int64
	// newGen returns a stream's generator over its own random source;
	// the generator may keep per-stream state.
	newGen func(r *rand.Rand) func(c, j int) *request

	// rewrite-hot: the pool; entry i has one request per spelling.
	pool [][]*request
	// query-stream: the warm plans and the graph specs.
	plans  []queryPlan
	graphs []graphSpec
}

func (w *workloadSpec) stream(c int) *stream {
	r := rand.New(rand.NewSource(mix(w.seed, int64(len(w.name)), int64(c), 1)))
	return &stream{c: c, gen: w.newGen(r)}
}

func newWorkload(name string, seed int64) (*workloadSpec, error) {
	w := &workloadSpec{name: name, seed: seed}
	switch name {
	case wRewriteHot:
		return w, w.buildRewriteHot()
	case wCompileCold:
		w.newGen = coldGen
		return w, nil
	case wQueryStream:
		return w, w.buildQueryStream()
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
}

// ---- respelling ----

// spell renders a regex AST in one of several surface syntaxes that
// all parse back to the same AST, hence to the same plan key: style 0
// is the canonical rendering, 1 spaces the operators and parenthesizes
// the whole expression, 2 uses '.' and '|', 3 uses juxtaposition with
// redundant parentheses and surrounding blanks.
func spell(n *regex.Node, style int, r *rand.Rand) string {
	var b strings.Builder
	switch style {
	case 0:
		return n.String()
	case 1:
		b.WriteString("( ")
		spellInto(&b, n, style, r)
		b.WriteString(" )")
	case 3:
		b.WriteString("  ")
		spellInto(&b, n, style, r)
		b.WriteString(" ")
	default:
		spellInto(&b, n, style, r)
	}
	return b.String()
}

func prec(n *regex.Node) int {
	switch n.Op {
	case regex.OpUnion:
		return 0
	case regex.OpConcat:
		return 1
	}
	return 2
}

func spellInto(b *strings.Builder, n *regex.Node, style int, r *rand.Rand) {
	child := func(c *regex.Node, minPrec int) {
		wrap := prec(c) < minPrec || (style == 3 && r.Float64() < 0.35)
		if wrap {
			b.WriteByte('(')
		}
		spellInto(b, c, style, r)
		if wrap {
			b.WriteByte(')')
		}
	}
	sep, alt := " · ", " + "
	switch style {
	case 2:
		sep, alt = ".", "|"
	case 3:
		sep, alt = "  ", " +  "
	}
	switch n.Op {
	case regex.OpEmpty:
		b.WriteString("∅")
	case regex.OpEpsilon:
		b.WriteString("ε")
	case regex.OpSymbol:
		b.WriteString(n.Name)
	case regex.OpConcat:
		for i, s := range n.Subs {
			if i > 0 {
				b.WriteString(sep)
			}
			child(s, 2)
		}
	case regex.OpUnion:
		for i, s := range n.Subs {
			if i > 0 {
				b.WriteString(alt)
			}
			child(s, 1)
		}
	case regex.OpStar:
		child(n.Subs[0], 2)
		b.WriteString("*")
	case regex.OpOpt:
		child(n.Subs[0], 2)
		b.WriteString("?")
	}
}

const spellings = 4

// ---- instance builders ----

// example2 is the paper's Example 2; its rewriting e2*·e1·e3* is exact.
func example2() (string, map[string]string) {
	return "a·(b·a+c)*", map[string]string{"e1": "a", "e2": "a·c*·b", "e3": "c"}
}

// maxQueryDFA bounds the determinized query automaton of a random
// instance. The rewriting automaton is a determinization over sets of
// its states, so at most 2^(maxQueryDFA+1) = 32768 states: every random
// instance compiles under the production cap of 200000. Without the
// bound about one instance in 100000 exhausts the cap (a 422, the
// doubly exponential construction at work); about 2% of draws exceed
// the bound and are redrawn.
const maxQueryDFA = 14

// randomRewrite draws a seeded workload.RandomInstance with query depth
// at most 4 and renders it; suffix renames the views.
func randomRewrite(r *rand.Rand, suffix string) (*regex.Node, map[string]*regex.Node) {
	var inst *core.Instance
	for inst == nil || automata.Determinize(inst.QueryNFA()).NumStates() > maxQueryDFA {
		inst = workload.RandomInstance(r, workload.InstanceConfig{
			AlphabetSize: 2 + r.Intn(2),
			NumViews:     2 + r.Intn(2),
			QueryDepth:   1 + r.Intn(4),
			ViewDepth:    1 + r.Intn(2),
		})
	}
	views := make(map[string]*regex.Node, len(inst.Views))
	for _, v := range inst.Views {
		views[v.Name+suffix] = v.Expr
	}
	return inst.Query, views
}

// detBlowup is DetBlowupFamily(n) with its two views renamed.
func detBlowup(n int, suffix string) (string, map[string]string) {
	inst := workload.DetBlowupFamily(n)
	return inst.Query.String(), map[string]string{"va" + suffix: "a", "vb" + suffix: "b"}
}

// detBlowupExpected is the hand-written rewriting of DetBlowupFamily(n):
// (va+vb)*·va·(va+vb)^{n-1} over the given view names.
func detBlowupExpected(n int, va, vb string) string {
	parts := []string{"(" + va + "+" + vb + ")*", va}
	for i := 1; i < n; i++ {
		parts = append(parts, "("+va+"+"+vb+")")
	}
	return strings.Join(parts, "·")
}

// siteTemplates are SiteQuery and variants of it over SiteTheory.
var siteTemplates = []struct {
	expr     string
	formulas map[string]string
}{
	{"reg·cityHop·dist·ven", map[string]string{"reg": "=region", "cityHop": "=city", "dist": "=district", "ven": "venue"}},
	{"reg·cityHop·rel*·dist·ven", map[string]string{"reg": "=region", "cityHop": "=city", "rel": "=related", "dist": "=district", "ven": "venue"}},
	{"(reg+cityHop)*·dist·ven", map[string]string{"reg": "=region", "cityHop": "=city", "dist": "=district", "ven": "venue"}},
	{"nav*·ven", map[string]string{"nav": "nav", "ven": "venue"}},
	{"reg·cityHop·(rel+cityHop)*·dist·ven?", map[string]string{"reg": "=region", "cityHop": "=city", "rel": "=related", "dist": "=district", "ven": "venue"}},
}

// siteViewSets are SiteViews plus optional related/navigation views.
var siteViewSets = [][]regexrwclient.RPQView{
	siteBaseViews(),
	append(siteBaseViews(), regexrwclient.RPQView{Name: "vRel", Query: "f", Formulas: map[string]string{"f": "=related"}}),
	append(siteBaseViews(), regexrwclient.RPQView{Name: "vNav", Query: "f·f*", Formulas: map[string]string{"f": "nav"}}),
	append(siteBaseViews(),
		regexrwclient.RPQView{Name: "vRel", Query: "f", Formulas: map[string]string{"f": "=related"}},
		regexrwclient.RPQView{Name: "vNav", Query: "f·f*", Formulas: map[string]string{"f": "nav"}}),
}

func siteBaseViews() []regexrwclient.RPQView {
	return []regexrwclient.RPQView{
		{Name: "vReg", Query: "f", Formulas: map[string]string{"f": "=region"}},
		{Name: "vCity", Query: "f", Formulas: map[string]string{"f": "=city"}},
		{Name: "vDist", Query: "f", Formulas: map[string]string{"f": "=district"}},
		{Name: "vVen", Query: "f", Formulas: map[string]string{"f": "venue"}},
	}
}

var siteMethods = []string{"grounded", "direct", "compressed"}

// siteTheory is workload.SiteTheory in wire form.
func siteTheory() *regexrwclient.Theory {
	return &regexrwclient.Theory{
		Constants: []string{"region", "city", "district", "restaurant", "hotel", "related"},
		Predicates: map[string][]string{
			"venue": {"restaurant", "hotel"},
			"nav":   {"region", "city", "district"},
		},
	}
}

// siteRPQ builds one site request, respelled in the given style, with
// the views renamed by suffix and listed in a style-dependent order.
func siteRPQ(tmpl, viewSet, method int, suffix string, style int, r *rand.Rand) (regexrwclient.RPQRequest, error) {
	t := siteTemplates[tmpl]
	q, err := regex.Parse(t.expr)
	if err != nil {
		return regexrwclient.RPQRequest{}, err
	}
	req := regexrwclient.RPQRequest{
		Query: spell(q, style, r), Formulas: t.formulas,
		Theory: siteTheory(), Method: siteMethods[method],
	}
	for _, v := range siteViewSets[viewSet] {
		e, err := regex.Parse(v.Query)
		if err != nil {
			return regexrwclient.RPQRequest{}, err
		}
		req.Views = append(req.Views, regexrwclient.RPQView{Name: v.Name + suffix, Query: spell(e, style, r), Formulas: v.Formulas})
	}
	if style > 0 {
		r.Shuffle(len(req.Views), func(i, j int) { req.Views[i], req.Views[j] = req.Views[j], req.Views[i] })
	}
	return req, nil
}

// ---- rewrite-hot ----

// Pool composition of rewrite-hot: Example 2, seeded random instances
// and every site variant, each in `spellings` respellings. It is a few
// hundred plans, well inside the server's 1024-plan LRU. The RPQ share
// and the Zipf exponent are chosen, not measured (README.md says why).
const (
	hotRandomInstances = 220
	hotRPQShare        = 0.15
	hotZipfS           = 1.1
)

func (w *workloadSpec) buildRewriteHot() error {
	r := rand.New(rand.NewSource(mix(w.seed, 101)))
	seen := map[string]bool{}
	add := func(entry []*request) error {
		key, err := entry[0].planKey()
		if err != nil {
			return err
		}
		for _, e := range entry {
			k, err := e.planKey()
			if err != nil {
				return err
			}
			if k != key {
				return fmt.Errorf("respelling changed the plan key: %+v", e.body())
			}
			e.key = k
			e.item = len(w.pool)
		}
		if !seen[key] {
			seen[key] = true
			w.pool = append(w.pool, entry)
		}
		return nil
	}
	rewriteEntry := func(family string, q *regex.Node, views map[string]*regex.Node) []*request {
		names := make([]string, 0, len(views))
		for name := range views {
			names = append(names, name)
		}
		sort.Strings(names) // the spellings draw from r in a fixed order
		entry := make([]*request, spellings)
		for s := range entry {
			vs := make(map[string]string, len(views))
			for _, name := range names {
				vs[name] = spell(views[name], s, r)
			}
			entry[s] = &request{ep: epRewrite, family: family,
				rewrite: regexrwclient.RewriteRequest{Query: spell(q, s, r), Views: vs}}
		}
		return entry
	}

	q, views := example2()
	qn, vn, err := parseRewrite(q, views)
	if err != nil {
		return err
	}
	if err := add(rewriteEntry("example2", qn, vn)); err != nil {
		return err
	}
	for i := 0; i < hotRandomInstances; i++ {
		q, views := randomRewrite(r, "")
		if err := add(rewriteEntry("random", q, views)); err != nil {
			return err
		}
	}
	for tmpl := range siteTemplates {
		for vs := range siteViewSets {
			for m := range siteMethods {
				entry := make([]*request, spellings)
				for s := range entry {
					req, err := siteRPQ(tmpl, vs, m, "", s, r)
					if err != nil {
						return err
					}
					entry[s] = &request{ep: epRPQ, family: "site", rpq: req}
				}
				if err := add(entry); err != nil {
					return err
				}
			}
		}
	}

	var rewrites, rpqs []int
	for i, e := range w.pool {
		if e[0].ep == epRPQ {
			rpqs = append(rpqs, i)
		} else {
			rewrites = append(rewrites, i)
		}
	}
	// Zipf ranks map to pool entries through a seeded permutation, so
	// which instance is hottest varies with the seed.
	r.Shuffle(len(rewrites), func(i, j int) { rewrites[i], rewrites[j] = rewrites[j], rewrites[i] })
	r.Shuffle(len(rpqs), func(i, j int) { rpqs[i], rpqs[j] = rpqs[j], rpqs[i] })
	pool := w.pool
	w.newGen = func(r *rand.Rand) func(c, j int) *request {
		zw := rand.NewZipf(r, hotZipfS, 1, uint64(len(rewrites)-1))
		zq := rand.NewZipf(r, hotZipfS, 1, uint64(len(rpqs)-1))
		return func(c, j int) *request {
			var idx int
			if r.Float64() < hotRPQShare {
				idx = rpqs[zq.Uint64()]
			} else {
				idx = rewrites[zw.Uint64()]
			}
			return pool[idx][r.Intn(spellings)]
		}
	}
	return nil
}

func parseRewrite(q string, views map[string]string) (*regex.Node, map[string]*regex.Node, error) {
	qn, err := regex.Parse(q)
	if err != nil {
		return nil, nil, err
	}
	vn := make(map[string]*regex.Node, len(views))
	for name, v := range views {
		if vn[name], err = regex.Parse(v); err != nil {
			return nil, nil, err
		}
	}
	return qn, vn, nil
}

// ---- compile-cold ----

// Mix of compile-cold. Each client's stream is cut into blocks of
// coldBlock requests holding a fixed number of each class in a seeded
// order, so every seed and every stretch of a run carries the same mix:
// one DetBlowupFamily request per block (2%), site RPQs a sixth, the
// rest random instances. The DetBlowup n cycles over the blocks so n=4
// is a quarter and n=5 one in 200 of them (one request in 10000),
// keeping DetBlowup a minority of compile time (traced runs measure it
// as engine.rewrite_detblowup_share; README.md gives the reason for each
// share). Every request renames its views after (client, index), so no
// two requests share a plan key and each one compiles. Every n=5
// response and one in coldSampleEvery of the rest are deep-checked.
const (
	coldBlock       = 50
	coldSitePerBlk  = 8
	coldN5Every     = 200 // blocks
	coldSampleEvery = 64
)

type coldClass int

const (
	coldRandom coldClass = iota
	coldDetBlowup
	coldSite
)

// coldGen returns one client's compile-cold generator over r.
func coldGen(r *rand.Rand) func(c, j int) *request {
	var block []coldClass
	return func(c, j int) *request {
		if j%coldBlock == 0 || block == nil {
			block = make([]coldClass, coldBlock)
			block[0] = coldDetBlowup
			for i := 1; i <= coldSitePerBlk; i++ {
				block[i] = coldSite
			}
			r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		return genCompileCold(r, c, j, block[j%coldBlock])
	}
}

// coldN is the DetBlowup n of block k of client c: 5 once every
// coldN5Every blocks (at a different point for each client, so the
// clients do not stall together), else 4 in one block of four, else 3.
func coldN(c, k int) int {
	switch {
	case k%coldN5Every == (coldN5Every/2+c*coldN5Every/4)%coldN5Every:
		return 5
	case k%4 == 1:
		return 4
	}
	return 3
}

func genCompileCold(r *rand.Rand, c, j int, class coldClass) *request {
	suffix := fmt.Sprintf("_%d_%d", c, j)
	var req *request
	switch class {
	case coldDetBlowup:
		n := coldN(c, j/coldBlock)
		q, views := detBlowup(n, suffix)
		req = &request{ep: epRewrite, family: "detblowup", n: n,
			rewrite: regexrwclient.RewriteRequest{Query: q, Views: views}}
	case coldSite:
		rpq, err := siteRPQ(r.Intn(len(siteTemplates)), r.Intn(len(siteViewSets)), r.Intn(len(siteMethods)), suffix, 0, r)
		if err != nil {
			panic(err) // the templates are constants that parse
		}
		req = &request{ep: epRPQ, family: "site", rpq: rpq}
	default:
		q, views := randomRewrite(r, suffix)
		vs := make(map[string]string, len(views))
		for name, e := range views {
			vs[name] = e.String()
		}
		req = &request{ep: epRewrite, family: "random",
			rewrite: regexrwclient.RewriteRequest{Query: q.String(), Views: vs}}
	}
	req.item = -1
	req.sample = req.n == 5 || r.Intn(coldSampleEvery) == 0
	key, err := req.planKey()
	if err != nil {
		panic(fmt.Sprintf("compile-cold request %d/%d does not parse: %v", c, j, err))
	}
	req.key = key
	return req
}

// ---- query-stream ----

// queryPlan is one warm plan of query-stream: an instance over
// Σ = {a, b, c} with views e1, e2, e3, so the same plan answers over the
// Σ-labelled graph (mode query) and the view-labelled graph (mode
// rewriting).
type queryPlan struct {
	query string
	views map[string]string
}

var queryPlans = []queryPlan{
	{"a·(b·a+c)*", map[string]string{"e1": "a", "e2": "a·c*·b", "e3": "c"}},
	{"(a·b)*·c", map[string]string{"e1": "a·b", "e2": "c", "e3": "b·c"}},
	{"a·(b+c)*", map[string]string{"e1": "a", "e2": "b", "e3": "c"}},
	{"(a+b)·c*·b?", map[string]string{"e1": "a+b", "e2": "c", "e3": "b"}},
}

type graphSpec struct {
	name string
	mode string
	spec string
}

// The graphs are fixed, so the seed varies the request stream only:
// sources, targets, plans, modes and caps.
const queryGraphNodes = 20000

var queryGraphs = []graphSpec{
	{"gsigma", "query", fmt.Sprintf("powerlaw:%d:100000:7:a,b,c", queryGraphNodes)},
	{"gviews", "rewriting", fmt.Sprintf("powerlaw:%d:100000:8:e1,e2,e3", queryGraphNodes)},
}

const (
	queryBooleanShare = 0.4
	querySampleEvery  = 128
)

var queryCaps = []int{100, 500}

func (w *workloadSpec) buildQueryStream() error {
	w.plans = queryPlans
	w.graphs = queryGraphs
	keys := make([]string, len(w.plans))
	for i, p := range w.plans {
		k, err := (regexrwclient.QueryRequest{Query: p.query, Views: p.views}).PlanKey()
		if err != nil {
			return err
		}
		keys[i] = k
	}
	w.newGen = func(r *rand.Rand) func(c, j int) *request {
		return func(c, j int) *request { return w.genQuery(r, keys) }
	}
	return nil
}

func (w *workloadSpec) genQuery(r *rand.Rand, keys []string) *request {
	pi := r.Intn(len(w.plans))
	g := w.graphs[r.Intn(len(w.graphs))]
	q := regexrwclient.QueryRequest{
		Query: w.plans[pi].query, Views: w.plans[pi].views,
		Graph: g.name, Mode: g.mode,
		Source: fmt.Sprintf("p%d", r.Intn(queryGraphNodes)),
	}
	if r.Float64() < queryBooleanShare {
		q.Target = fmt.Sprintf("p%d", r.Intn(queryGraphNodes))
	} else {
		q.MaxAnswers = queryCaps[r.Intn(len(queryCaps))]
	}
	return &request{ep: epQuery, query: q, item: pi, family: "query",
		key: keys[pi], sample: r.Intn(querySampleEvery) == 0}
}

// warmRequests lists the requests a query-stream boot sends before it
// counts as set up: one per plan and graph, which compiles each plan
// and builds each evaluator.
func (w *workloadSpec) warmRequests() []*request {
	var out []*request
	for pi, p := range w.plans {
		for _, g := range w.graphs {
			out = append(out, &request{ep: epQuery, item: pi, family: "query",
				query: regexrwclient.QueryRequest{Query: p.query, Views: p.views, Graph: g.name, Mode: g.mode, Source: "p0", MaxAnswers: 1}})
		}
	}
	return out
}
