package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	regexrwclient "regexrw/client"
	"regexrw/internal/graph"
	"regexrw/internal/workload"
)

// session is one workload's server-side life in a run: set-up boots,
// the live server and the checker holding what the answers must be.
type session struct {
	w      *workloadSpec
	bin    string
	runDir string
	chk    *checker
	store  string // rewrite-hot's plan directory

	srv    *server   // the server the measured phase drives
	setups []float64 // seconds from exec until the warm pass was done
	notes  []string  // set-up check failures
}

func newSession(w *workloadSpec, bin, runDir string) *session {
	return &session{w: w, bin: bin, runDir: runDir, chk: &checker{w: w}}
}

func (s *session) note(format string, args ...any) {
	s.chk.mismatch()
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

func (s *session) log() string { return filepath.Join(s.runDir, "serve.log") }

// setup boots the workload's server `boots` times, timing each boot
// from exec until its warm pass is done, and keeps the last server
// running. rewrite-hot first fills a plan store with an untimed boot,
// so every timed boot is a warm restart from disk.
func (s *session) setup(boots int) error {
	var extra []string
	switch s.w.name {
	case wRewriteHot:
		s.store = filepath.Join(s.runDir, "plans")
		if err := s.fill(); err != nil {
			return err
		}
		extra = []string{"-plan-dir", s.store}
	case wQueryStream:
		for _, g := range s.w.graphs {
			extra = append(extra, "-graph", g.name+"="+g.spec)
		}
	}
	for b := 0; b < boots; b++ {
		srv, err := startServer(s.bin, s.log(), extra...)
		if err != nil {
			return err
		}
		ready, err := srv.waitReady()
		if err != nil {
			srv.stop(stopGrace)
			return err
		}
		switch s.w.name {
		case wRewriteHot:
			if got, _ := ready["restored"].(float64); int(got) != len(s.w.pool) {
				s.note("warm restart restored %v plans, want %d", ready["restored"], len(s.w.pool))
			}
		case wQueryStream:
			if err := s.warmQueries(srv); err != nil {
				srv.stop(stopGrace)
				return err
			}
		}
		s.setups = append(s.setups, time.Since(srv.started).Seconds())
		if b < boots-1 {
			srv.stop(stopGrace)
		} else {
			s.srv = srv
		}
	}
	if s.w.name == wQueryStream {
		s.chk.graphs = map[string]*graph.DB{}
		for _, g := range s.w.graphs {
			db, err := workload.ParseGraphSpec(g.spec)
			if err != nil {
				return err
			}
			s.chk.graphs[g.name] = db
		}
	}
	return nil
}

// fill boots a server on an empty plan store, compiles every pool entry
// from its canonical spelling, checks every other spelling returns the
// same answer, and shuts the server down so the store holds the pool.
func (s *session) fill() error {
	srv, err := startServer(s.bin, s.log(), "-plan-dir", s.store)
	if err != nil {
		return err
	}
	defer srv.stop(stopGrace)
	if _, err := srv.waitReady(); err != nil {
		return err
	}
	c, err := newLoadClient(srv.addr)
	if err != nil {
		return err
	}
	defer c.close()
	ctx := context.Background()
	s.chk.expected = make([]*regexrwclient.PlanResponse, len(s.w.pool))
	for i, entry := range s.w.pool {
		rep := c.send(ctx, entry[0], false)
		if rep.err != nil {
			return fmt.Errorf("fill: pool entry %d (%s) failed: %w", i, entry[0].family, rep.err)
		}
		if rep.plan.Key != entry[0].key {
			s.note("pool entry %d: key %s, client computed %s", i, rep.plan.Key, entry[0].key)
		}
		if err := consistentPlan(rep.plan); err != nil {
			s.note("pool entry %d: %v", i, err)
		}
		s.chk.expected[i] = rep.plan
		for k, sp := range entry[1:] {
			rep2 := c.send(ctx, sp, false)
			if rep2.err != nil {
				return fmt.Errorf("fill: pool entry %d spelling %d failed: %w", i, k+1, rep2.err)
			}
			if err := samePlan(rep2.plan, rep.plan); err != nil {
				s.note("pool entry %d spelling %d: %v", i, k+1, err)
			}
		}
	}
	if ex := s.chk.expected[0]; ex.Rewriting != "e2*·e1·e3*" || !ex.Exact {
		s.note("Example 2: rewriting %q exact=%v, want e2*·e1·e3* exact=true", ex.Rewriting, ex.Exact)
	}
	return nil
}

// warmQueries is query-stream's warm pass: one query per plan and
// graph, compiling every plan and building every evaluator. The first
// boot records each plan's rewriting; later boots must agree.
func (s *session) warmQueries(srv *server) error {
	c, err := newLoadClient(srv.addr)
	if err != nil {
		return err
	}
	defer c.close()
	first := s.chk.rewritings == nil
	if first {
		s.chk.rewritings = make([]string, len(s.w.plans))
	}
	for _, req := range s.w.warmRequests() {
		rep := c.send(context.Background(), req, false)
		if rep.err != nil {
			return fmt.Errorf("warm pass: %w", rep.err)
		}
		rw := rep.query.Header.Rewriting
		switch {
		case first && s.chk.rewritings[req.item] == "":
			s.chk.rewritings[req.item] = rw
		case rw != s.chk.rewritings[req.item]:
			s.note("plan %d: rewriting %q, earlier %q", req.item, rw, s.chk.rewritings[req.item])
		}
	}
	if rw := s.chk.rewritings[0]; rw != "e2*·e1·e3*" {
		s.note("Example 2 plan: rewriting %q, want e2*·e1·e3*", rw)
	}
	return nil
}

// phase is one measured closed-loop phase against the live server.
type phase struct {
	load     loadResult
	rec      *recorder
	before   map[string]float64
	after    map[string]float64
	cpu      time.Duration
	rssMB    float64
	deepRuns int
}

// warmupDur is the untimed traffic before each measured phase: it lets
// connections open and both heaps grow to their steady size.
const warmupDur = 400 * time.Millisecond

// measure runs the untimed warm-up and then dur of measured closed-loop
// load from measuredClients clients, with server CPU and counters taken
// around the measured part only. mutate may rewrite requests (the
// tracing-overhead phase sets the trace flag).
func (s *session) measure(dur time.Duration, streamOff int, mutate func(j int, r *request) *request) (*phase, error) {
	clients := make([]*loadClient, measuredClients)
	for i := range clients {
		c, err := newLoadClient(s.srv.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		clients[i] = c
	}
	warm := make([]*stream, measuredClients)
	streams := make([]*stream, measuredClients)
	for i := range streams {
		warm[i] = s.w.stream(warmupClientOff + streamOff + i)
		streams[i] = s.w.stream(streamOff + i)
	}
	wres := closedLoop(clients, warm, warmupDur, s.chk, mutate).merged()
	if wres.failed > 0 {
		s.note("warm-up: %d of %d requests failed: %s", wres.failed, wres.attempted, joinFailures(wres.failures))
	}

	p := &phase{}
	var err error
	if p.before, err = s.srv.metrics(); err != nil {
		return nil, err
	}
	cpu0, err := s.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	p.load = closedLoop(clients, streams, dur, s.chk, mutate)
	cpu1, err := s.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if p.after, err = s.srv.metrics(); err != nil {
		return nil, err
	}
	if p.rssMB, err = s.srv.rssPeakMB(); err != nil {
		return nil, err
	}
	p.rec = p.load.merged()
	p.deepRuns = s.chk.runDeep(p.rec)
	s.checkCounters(p)
	return p, nil
}

// checkCounters holds a measured phase to the workload's counter
// predictions, read from the server's /metrics: rewrite-hot never
// compiles and hits the plan cache on every request; compile-cold
// compiles once per request and never hits; query-stream compiles
// nothing and builds no evaluator. A prediction that fails is a
// checker mismatch.
func (s *session) checkCounters(p *phase) {
	compiles, hits, misses := p.delta("engine.compiles"), p.delta("cache.plan.hits"), p.delta("cache.plan.misses")
	switch s.w.name {
	case wRewriteHot:
		if compiles != 0 || misses != 0 || hits == 0 {
			s.note("counters: %v compiles, %v plan hits, %v misses; rewrite-hot wants 0 compiles and hit ratio 1", compiles, hits, misses)
		}
	case wCompileCold:
		if compiles != float64(p.rec.attempted) || hits != 0 {
			s.note("counters: %v compiles and %v plan hits for %d requests; compile-cold wants one compile per request and hit ratio 0", compiles, hits, p.rec.attempted)
		}
	case wQueryStream:
		if em := p.delta("cache.eval.misses"); compiles != 0 || em != 0 {
			s.note("counters: %v compiles, %v evaluator misses; query-stream wants 0 of each", compiles, em)
		}
	}
}

// delta is a counter's increase over the measured phase.
func (p *phase) delta(name string) float64 {
	prom := "regexrw_" + strings.NewReplacer(".", "_", "-", "_").Replace(name)
	return p.after[prom] - p.before[prom]
}
