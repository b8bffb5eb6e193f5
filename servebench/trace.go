package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	regexrwclient "regexrw/client"
	"regexrw/internal/automata"
	"regexrw/internal/budget"
	"regexrw/internal/core"
	"regexrw/internal/engine"
	"regexrw/internal/eval"
	"regexrw/internal/graph"
	"regexrw/internal/obs"
	"regexrw/internal/planstore"
	"regexrw/internal/rpq"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of the program. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a request's root span
	Req    int32  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. A disabled tracer records nothing and costs two branches per
// span, which is what the untraced replay measures against.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) start(name string, parent, req int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: int32(len(t.spans)), Parent: parent, Req: req, Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover (children are clipped to the parent and
// overlapping children are merged, so nothing is subtracted twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, curS, curE := int64(0), int64(0), int64(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerSamples groups self times (µs) by span name.
func layerSamples(spans []span) map[string][]float64 {
	st := selfTimes(spans)
	self := map[string][]float64{}
	for i, s := range spans {
		self[s.Name] = append(self[s.Name], float64(st[i])/1e3)
	}
	return self
}

// serverPathUs returns, per request, the duration (µs) of its
// server.path span without its engine.key span: the server never
// computes the key itself (the engine derives it inside Rewrite), so
// the replay's key call is no part of what a round trip is compared
// with.
func serverPathUs(spans []span) []float64 {
	path, key := map[int32]int64{}, map[int32]int64{}
	for _, s := range spans {
		switch s.Name {
		case "server.path":
			path[s.Req] += s.End - s.Start
		case "engine.key":
			key[s.Req] += s.End - s.Start
		}
	}
	out := make([]float64, 0, len(path))
	for req, d := range path {
		out = append(out, float64(d-key[req])/1e3)
	}
	return out
}

// familyShare is the share of the named span's total self time spent
// in requests of the given family; families[i] is request i's family.
func familyShare(spans []span, families []string, name, family string) float64 {
	st := selfTimes(spans)
	var in, all int64
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		all += st[i]
		if int(s.Req) < len(families) && families[s.Req] == family {
			in += st[i]
		}
	}
	if all == 0 {
		return 0
	}
	return float64(in) / float64(all)
}

// replayer replays a workload's request stream in-process, calling the
// layers in the order the server does — decode, parse, key, engine,
// encode — each under a benchmark-owned span.
type replayer struct {
	s      *session
	eng    *engine.Engine
	tr     *tracer
	stages bool // compile-cold: replay the compile stages too

	evals          map[[2]int]*eval.Evaluator // query-stream: (plan, graph) → evaluator
	lineNs, lines  int64
	answersPerCall []float64
	families       []string // traced replay: request id → family
}

// replayEngine builds an engine configured like the server: the
// production state cap and plan LRU, rewrite-hot's filled plan store
// restored by WarmStart, query-stream's plans and evaluators warmed.
// It returns the WarmStart time for rewrite-hot.
func replayEngine(s *session) (*engine.Engine, time.Duration, error) {
	opts := []engine.Option{
		engine.WithBudgetDefaults(200000, 0),
		engine.WithPlanCache(1024),
		engine.WithMetrics(obs.NewRegistry()),
	}
	ctx := context.Background()
	switch s.w.name {
	case wRewriteHot:
		st, err := planstore.Open(s.store)
		if err != nil {
			return nil, 0, err
		}
		eng := engine.New(append(opts, engine.WithPlanStore(st))...)
		t0 := time.Now()
		n, err := eng.WarmStart(ctx)
		d := time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		if n != len(s.w.pool) {
			s.note("in-process warm start restored %d plans, want %d", n, len(s.w.pool))
		}
		return eng, d, nil
	case wQueryStream:
		eng := engine.New(opts...)
		for _, req := range s.w.warmRequests() {
			q := req.query
			_, err := eng.Query(ctx, engine.QueryRequest{
				Request: engine.Request{Query: q.Query, Views: q.Views},
				Graph:   s.chk.graphs[q.Graph], Mode: engine.QueryMode(q.Mode), Source: q.Source, MaxAnswers: q.MaxAnswers,
			})
			if err != nil {
				return nil, 0, fmt.Errorf("in-process warm pass: %w", err)
			}
		}
		return eng, 0, nil
	}
	return engine.New(opts...), 0, nil
}

// buildEvaluators builds the benchmark's own evaluators for the eval
// replay of query-stream and returns each eval.New time (ms).
func (rp *replayer) buildEvaluators(ctx context.Context) ([]float64, error) {
	rp.evals = map[[2]int]*eval.Evaluator{}
	var builds []float64
	for pi, p := range rp.s.w.plans {
		inst, err := core.ParseInstance(p.query, p.views)
		if err != nil {
			return nil, err
		}
		plan, err := rp.eng.Rewrite(ctx, engine.Request{Instance: inst})
		if err != nil {
			return nil, err
		}
		for gi, g := range rp.s.w.graphs {
			d := plan.MinimalDFA()
			if g.mode == "query" {
				det, err := automata.DeterminizeContext(ctx, inst.QueryNFA())
				if err != nil {
					return nil, err
				}
				d = det.Minimize().TrimPartial()
			}
			t0 := time.Now()
			ev, err := eval.New(d, rp.s.chk.graphs[g.name])
			builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e6)
			if err != nil {
				return nil, err
			}
			rp.evals[[2]int{pi, gi}] = ev
		}
	}
	return builds, nil
}

var errStop = errors.New("stop")

// replay runs one request through the layers. The request's JSON body
// is what the client would send.
func (rp *replayer) replay(ctx context.Context, id int32, req *request, body []byte) error {
	tr := rp.tr
	root := tr.start("request", -1, id)
	defer tr.end(root)

	k := tr.start("client.plan_key", root, id)
	_, err := req.planKey()
	tr.end(k)
	if err != nil {
		return err
	}
	if err := rp.serverPath(ctx, root, id, req, body); err != nil {
		return err
	}
	switch {
	case rp.stages:
		return rp.replayStages(ctx, root, id, req)
	case req.ep == epQuery:
		return rp.replayEval(ctx, root, id, req)
	}
	return nil
}

func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// serverPath mirrors the server's handler for the request's endpoint.
func (rp *replayer) serverPath(ctx context.Context, root, id int32, req *request, body []byte) error {
	tr := rp.tr
	sp := tr.start("server.path", root, id)
	defer tr.end(sp)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)

	switch req.ep {
	case epRewrite:
		var wr regexrwclient.RewriteRequest
		s := tr.start("wire.decode", sp, id)
		err := decodeStrict(body, &wr)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.start("core.parse", sp, id)
		inst, err := core.ParseInstance(wr.Query, wr.Views)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.start("engine.key", sp, id)
		engine.InstanceKey(inst, wr.Partial)
		tr.end(s)
		s = tr.start("engine.rewrite", sp, id)
		plan, err := rp.eng.Rewrite(ctx, engine.Request{Instance: inst, Partial: wr.Partial})
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.start("wire.encode", sp, id)
		err = enc.Encode(planWire(plan))
		tr.end(s)
		return err
	case epRPQ:
		var wr regexrwclient.RPQRequest
		s := tr.start("wire.decode", sp, id)
		err := decodeStrict(body, &wr)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.start("rpq.parse", sp, id)
		ereq, err := wr.ToEngine()
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.start("engine.key", sp, id)
		engine.RPQKey(ereq.Query, ereq.Views, ereq.Theory, ereq.Method)
		tr.end(s)
		s = tr.start("engine.rewrite", sp, id)
		plan, err := rp.eng.RewriteRPQ(ctx, ereq)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.start("wire.encode", sp, id)
		err = enc.Encode(planWire(plan))
		tr.end(s)
		return err
	}

	var wq regexrwclient.QueryRequest
	s := tr.start("wire.decode", sp, id)
	err := decodeStrict(body, &wq)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.start("core.parse", sp, id)
	inst, err := core.ParseInstance(wq.Query, wq.Views)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.start("engine.key", sp, id)
	engine.InstanceKey(inst, false)
	tr.end(s)
	s = tr.start("engine.rewrite", sp, id)
	plan, err := rp.eng.Rewrite(ctx, engine.Request{Instance: inst})
	tr.end(s)
	if err != nil {
		return err
	}
	db := rp.s.chk.graphs[wq.Graph]
	var answers []engine.QueryAnswer
	// Like the server, the evaluation gets the request's strings: mode
	// query parses the instance again inside the engine.
	s = tr.start("engine.query", sp, id)
	res, err := rp.eng.QueryFunc(ctx, engine.QueryRequest{
		Request: engine.Request{Query: wq.Query, Views: wq.Views},
		Graph:   db, Mode: engine.QueryMode(wq.Mode), Source: wq.Source, Target: wq.Target, MaxAnswers: wq.MaxAnswers,
	}, func(a engine.QueryAnswer) error {
		answers = append(answers, a)
		return nil
	})
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.start("wire.encode", sp, id)
	err = enc.Encode(regexrwclient.QueryHeader{
		Type: "header", Key: string(plan.Key()), Rewriting: plan.Regex().String(),
		Exact: plan.IsExact(), Mode: wq.Mode, Graph: wq.Graph, Nodes: db.NumNodes(), Edges: db.NumEdges(),
	})
	var t0 time.Time
	if tr.on {
		t0 = time.Now()
	}
	for _, a := range answers {
		if err == nil {
			err = enc.Encode(regexrwclient.QueryAnswer{Type: "answer", From: a.From, To: a.To})
		}
	}
	if tr.on && len(answers) > 0 {
		rp.lineNs += time.Since(t0).Nanoseconds()
		rp.lines += int64(len(answers))
	}
	trailer := regexrwclient.QueryTrailer{Type: "trailer", Answers: len(answers), Truncated: res.Truncated}
	if res.Boolean {
		trailer.Matched = &res.Matched
	}
	if err == nil {
		err = enc.Encode(trailer)
	}
	tr.end(s)
	return err
}

// planWire renders a plan the way the server's respond does.
func planWire(plan *engine.Plan) regexrwclient.PlanResponse {
	resp := regexrwclient.PlanResponse{
		Key:        string(plan.Key()),
		Rewriting:  plan.Regex().String(),
		Exact:      plan.IsExact(),
		Verdict:    plan.Exactness().Verdict.String(),
		Witness:    plan.Witness(),
		Empty:      plan.IsEmpty(),
		SigmaEmpty: plan.IsSigmaEmpty(),
		States:     plan.States(),
	}
	if w, ok := plan.ShortestWord(); ok {
		resp.ShortestWord = w
	}
	return resp
}

// replayStages replays compile-cold's compile stages on a private
// parsed copy of the instance, one child span per stage, under the same
// state cap as the server.
func (rp *replayer) replayStages(ctx context.Context, root, id int32, req *request) error {
	tr := rp.tr
	rs := tr.start("replay", root, id)
	defer tr.end(rs)
	bctx := budget.With(ctx, budget.New(budget.MaxStates(200000)))
	var rw *core.Rewriting
	switch req.ep {
	case epRewrite:
		inst, err := core.ParseInstance(req.rewrite.Query, req.rewrite.Views)
		if err != nil {
			return err
		}
		s := tr.start("core.maximal_rewriting", rs, id)
		rw, err = core.MaximalRewritingContext(bctx, inst)
		tr.end(s)
		if err != nil {
			return err
		}
	case epRPQ:
		ereq, err := req.rpq.ToEngine()
		if err != nil {
			return err
		}
		s := tr.start("rpq.rewrite", rs, id)
		rrw, err := rpq.RewriteContext(bctx, ereq.Query, ereq.Views, ereq.Theory, ereq.Method)
		tr.end(s)
		if err != nil {
			return err
		}
		rw = rrw.Rewriting
	default:
		return nil
	}
	s := tr.start("core.exactness", rs, id)
	rw.TryExactness(bctx)
	tr.end(s)
	s = tr.start("core.regex", rs, id)
	rw.Regex()
	tr.end(s)
	s = tr.start("automata.minimize", rs, id)
	rw.MinimalDFA()
	tr.end(s)
	return nil
}

// replayEval calls the evaluator directly for query-stream requests,
// with the same cap the engine applies.
func (rp *replayer) replayEval(ctx context.Context, root, id int32, req *request) error {
	tr := rp.tr
	q := req.query
	gi := 0
	for i, g := range rp.s.w.graphs {
		if g.name == q.Graph {
			gi = i
		}
	}
	ev := rp.evals[[2]int{req.item, gi}]
	db := rp.s.chk.graphs[q.Graph]
	src := db.NodeID(q.Source)
	rs := tr.start("replay", root, id)
	defer tr.end(rs)
	if q.Target != "" {
		s := tr.start("eval.boolean", rs, id)
		_, err := ev.Boolean(ctx, src, db.NodeID(q.Target))
		tr.end(s)
		return err
	}
	n := 0
	s := tr.start("eval.from", rs, id)
	err := ev.FromFunc(ctx, src, func(graph.NodeID) error {
		if n++; n > q.MaxAnswers {
			return errStop
		}
		return nil
	})
	tr.end(s)
	if err != nil && err != errStop {
		return err
	}
	if tr.on {
		rp.answersPerCall = append(rp.answersPerCall, float64(min(n, q.MaxAnswers)))
	}
	return nil
}

// replayStream replays the interleaved measured streams (client 0's
// request 0, client 1's request 0, client 0's request 1, …) until the
// deadline or until limit requests, whichever comes first, and returns
// how many it replayed and the wall time.
func (rp *replayer) replayStream(deadline time.Time, limit int) (int, time.Duration, error) {
	streams := []*stream{rp.s.w.stream(0), rp.s.w.stream(1)}
	ctx := context.Background()
	t0 := time.Now()
	n := 0
	for ; n < limit && (limit < 1<<30 || time.Now().Before(deadline)); n++ {
		req := streams[n%2].next()
		body, err := json.Marshal(req.body())
		if err != nil {
			return n, 0, err
		}
		if rp.tr.on {
			rp.families = append(rp.families, req.family)
		}
		if err := rp.replay(ctx, int32(n), req, body); err != nil {
			return n, 0, fmt.Errorf("replay of request %d (%s %s): %w", n, req.ep, req.family, err)
		}
	}
	return n, time.Since(t0), nil
}

// writeTrace writes the traced replay's spans as JSON.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
