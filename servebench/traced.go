package main

import (
	"context"
	"fmt"
	"time"

	"regexrw/internal/workload"
)

// Shares of --seconds the traced run spends in each phase: the
// untraced server phase (counters and client round trips), rewrite-hot's
// tracing-overhead phase, and the traced in-process replay. The
// untraced replay then repeats exactly the requests the traced one ran.
const (
	tracedServerShare = 0.4
	tracedObsShare    = 0.2
	tracedReplayShare = 0.3
	obsBlocks         = 6
)

// Streams 4 and 5 are untouched by the measured (0, 1) and warm-up
// (2, 3) clients; the tracing-overhead phase draws from them.
const obsStreamOff = 4

func share(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runTraced is the --trace 1 run. It reports the per-layer metrics:
// client round trips and counter deltas from an untraced server phase,
// then self times from an in-process replay of the same seeded streams
// under benchmark-owned spans.
func runTraced(s *session, dur time.Duration, rec *record, tracePath string) (result, error) {
	if err := s.setup(1); err != nil {
		return result{}, err
	}
	live := true
	defer func() {
		if live {
			s.srv.stop(stopGrace)
		}
	}()
	p, err := s.measure(share(dur, tracedServerShare), 0, nil)
	if err != nil {
		return result{}, err
	}
	rec.Failures = append(rec.Failures, p.rec.failures...)
	roundtrip := newDist(p.rec.samples.lats())
	obsRatio := 0.0
	if s.w.name == wRewriteHot {
		if obsRatio, err = s.traceOverhead(share(dur, tracedObsShare)); err != nil {
			return result{}, err
		}
	}
	s.srv.stop(stopGrace)
	live = false

	// In-process replays. The server is gone, so they have the machine
	// to themselves.
	ctx := context.Background()
	var warmStarts, graphBuilds, evalBuilds []float64
	if s.w.name == wQueryStream {
		for _, g := range s.w.graphs {
			t0 := time.Now()
			if _, err := workload.ParseGraphSpec(g.spec); err != nil {
				return result{}, err
			}
			graphBuilds = append(graphBuilds, msOf(time.Since(t0)))
		}
	}
	eng, ws, err := replayEngine(s)
	if err != nil {
		return result{}, err
	}
	warmStarts = append(warmStarts, msOf(ws))
	rp := &replayer{s: s, eng: eng, tr: newTracer(true), stages: s.w.name == wCompileCold}
	if s.w.name == wQueryStream {
		if evalBuilds, err = rp.buildEvaluators(ctx); err != nil {
			return result{}, err
		}
	}
	n, tracedWall, err := rp.replayStream(time.Now().Add(share(dur, tracedReplayShare)), 1<<30)
	eng.Close()
	if err != nil {
		return result{}, err
	}
	eng2, ws, err := replayEngine(s)
	if err != nil {
		return result{}, err
	}
	warmStarts = append(warmStarts, msOf(ws))
	plain := &replayer{s: s, eng: eng2, tr: newTracer(false), stages: rp.stages, evals: rp.evals}
	_, plainWall, err := plain.replayStream(time.Time{}, n)
	eng2.Close()
	if err != nil {
		return result{}, err
	}
	if s.w.name == wRewriteHot {
		eng3, ws, err := replayEngine(s)
		if err != nil {
			return result{}, err
		}
		eng3.Close()
		warmStarts = append(warmStarts, msOf(ws))
	}
	if err := writeTrace(tracePath, rp.tr.spans); err != nil {
		return result{}, err
	}

	self := layerSamples(rp.tr.spans)
	med := func(name string) float64 { return newDistF(self[name]).median() }
	p99 := func(name string) float64 {
		v, ok := newDistF(self[name]).p99()
		if !ok && len(self[name]) > 0 {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %d samples do not support p99; reported as 0", name, len(self[name])))
			return 0
		}
		return v
	}
	for name, xs := range self {
		rec.Samples[name] = len(xs)
	}
	rec.Samples["client.roundtrip"] = len(roundtrip)
	rec.Samples["replayed"] = n
	rec.Samples["deep_checks"] = p.deepRuns

	rtP99, ok := roundtrip.p99()
	if !ok {
		rtP99 = 0
		rec.Failures = append(rec.Failures, fmt.Sprintf("client.roundtrip: %d samples do not support p99; reported as 0", len(roundtrip)))
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	compiles := p.delta("engine.compiles")
	perCompile := func(name string) float64 {
		if compiles == 0 {
			return 0
		}
		return p.delta(name) / compiles
	}
	lineUs := 0.0
	if rp.lines > 0 {
		lineUs = float64(rp.lineNs) / float64(rp.lines) / 1e3
	}
	us, ms, count := "us", "ms", "count"
	metrics := map[string]metric{
		"client.plan_key_us":              {med("client.plan_key"), us},
		"client.roundtrip_us":             {roundtrip.median(), us},
		"client.roundtrip_p99_us":         {rtP99, us},
		"serve.residual_us":               {roundtrip.median() - newDistF(serverPathUs(rp.tr.spans)).median(), us},
		"wire.decode_us":                  {med("wire.decode"), us},
		"wire.encode_us":                  {med("wire.encode"), us},
		"wire.ndjson_line_us":             {lineUs, us},
		"core.parse_us":                   {med("core.parse"), us},
		"rpq.parse_us":                    {med("rpq.parse"), us},
		"engine.key_us":                   {med("engine.key"), us},
		"engine.rewrite_us":               {med("engine.rewrite"), us},
		"engine.rewrite_p99_us":           {p99("engine.rewrite"), us},
		"engine.rewrite_detblowup_share":  {familyShare(rp.tr.spans, rp.families, "engine.rewrite", "detblowup"), "ratio"},
		"engine.query_us":                 {med("engine.query"), us},
		"core.maximal_rewriting_us":       {med("core.maximal_rewriting"), us},
		"core.exactness_us":               {med("core.exactness"), us},
		"core.regex_us":                   {med("core.regex"), us},
		"core.regex_p99_us":               {p99("core.regex"), us},
		"automata.minimize_us":            {med("automata.minimize"), us},
		"rpq.rewrite_us":                  {med("rpq.rewrite"), us},
		"engine.requests":                 {p.delta("engine.requests"), count},
		"engine.compiles":                 {compiles, count},
		"engine.evictions":                {p.delta("cache.plan.evictions"), count},
		"engine.store_loads":              {p.delta("engine.store.loads"), count},
		"engine.plan_hit_ratio":           {ratio(p.delta("cache.plan.hits"), p.delta("cache.plan.misses")), "ratio"},
		"engine.eval_hit_ratio":           {ratio(p.delta("cache.eval.hits"), p.delta("cache.eval.misses")), "ratio"},
		"automata.determinize.states":     {perCompile("automata.determinize.states"), count},
		"core.transfer.states":            {perCompile("core.transfer.states"), count},
		"core.expand.states":              {perCompile("core.expand.states"), count},
		"automata.minimize.states":        {perCompile("automata.minimize.states"), count},
		"strategy.exactness.materialized": {perCompile("strategy.exactness.materialized"), count},
		"strategy.exactness.on_the_fly":   {perCompile("strategy.exactness.on_the_fly"), count},
		"strategy.kernel.dense":           {perCompile("strategy.kernel.dense"), count},
		"strategy.kernel.sparse":          {perCompile("strategy.kernel.sparse"), count},
		"strategy.fanout.sequential":      {perCompile("strategy.fanout.sequential"), count},
		"strategy.fanout.parallel":        {perCompile("strategy.fanout.parallel"), count},
		"eval.build_ms":                   {newDistF(evalBuilds).median(), ms},
		"graph.build_ms":                  {newDistF(graphBuilds).median(), ms},
		"eval.from_us":                    {med("eval.from"), us},
		"eval.boolean_us":                 {med("eval.boolean"), us},
		"eval.answers_per_call":           {newDistF(rp.answersPerCall).median(), count},
		"planstore.warm_start_ms":         {newDistF(warmStarts).median(), ms},
		"obs.trace_overhead_ratio":        {obsRatio, "ratio"},
		"bench.trace_overhead_ratio":      {tracedWall.Seconds() / plainWall.Seconds(), "ratio"},
		"bench.failed_share":              {float64(p.rec.failed) / float64(max(1, p.rec.attempted)), "ratio"},
	}
	return result{Attempted: p.rec.attempted + 2*n, Failed: p.rec.failed, Metrics: metrics}, nil
}

// traceOverhead measures obs.trace_overhead_ratio on the live server:
// blocks of rewrite-hot traffic alternate between untraced requests and
// requests with "trace": true, and the ratio compares the medians.
func (s *session) traceOverhead(dur time.Duration) (float64, error) {
	clients := make([]*loadClient, measuredClients)
	streams := make([]*stream, measuredClients)
	for i := range clients {
		c, err := newLoadClient(s.srv.addr)
		if err != nil {
			return 0, err
		}
		defer c.close()
		clients[i] = c
		streams[i] = s.w.stream(obsStreamOff + i)
	}
	traced := func(_ int, r *request) *request {
		t := *r
		t.rewrite.Trace = true
		t.rpq.Trace = true
		return &t
	}
	var plain, withTrace []time.Duration
	for b := 0; b < obsBlocks; b++ {
		var mutate func(int, *request) *request
		if b%2 == 1 {
			mutate = traced
		}
		m := closedLoop(clients, streams, dur/obsBlocks, s.chk, mutate).merged()
		if m.failed > 0 {
			s.note("tracing-overhead phase: %d of %d requests failed: %s", m.failed, m.attempted, joinFailures(m.failures))
		}
		if b%2 == 1 {
			withTrace = append(withTrace, m.samples.lats()...)
		} else {
			plain = append(plain, m.samples.lats()...)
		}
	}
	base := newDist(plain).median()
	if base == 0 {
		return 0, fmt.Errorf("tracing-overhead phase completed no untraced request")
	}
	return newDist(withTrace).median() / base, nil
}
