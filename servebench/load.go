package main

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	regexrwclient "regexrw/client"
)

// latencyLimit is each workload's latency limit for goodput: a request
// counts towards goodput_rps only if it succeeds within it.
var latencyLimit = map[string]time.Duration{
	wRewriteHot:  2 * time.Millisecond,
	wCompileCold: 50 * time.Millisecond,
	wQueryStream: 25 * time.Millisecond,
}

// loadClient is one closed-loop client: a regexrwclient.Client on its
// own transport, limited to one connection, so each client holds one
// keep-alive connection for the whole run.
type loadClient struct {
	cl *regexrwclient.Client
	tr *http.Transport
}

func newLoadClient(addr string) (*loadClient, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	cl, err := regexrwclient.New([]string{addr}, regexrwclient.WithHTTPClient(&http.Client{Transport: tr, Timeout: 60 * time.Second}))
	if err != nil {
		return nil, err
	}
	return &loadClient{cl: cl, tr: tr}, nil
}

func (c *loadClient) close() { c.tr.CloseIdleConnections() }

// reply is what one request returned, before checking.
type reply struct {
	plan    *regexrwclient.PlanResponse
	query   *regexrwclient.QueryResult
	answers []regexrwclient.QueryAnswer // kept for sampled query requests
	first   time.Duration               // until the first answer line
	lat     time.Duration
	err     error
}

// send issues one request and times it from the send until the response
// is fully read (for a stream, until its trailer).
func (c *loadClient) send(ctx context.Context, req *request, keepAnswers bool) reply {
	var rep reply
	t0 := time.Now()
	switch req.ep {
	case epRewrite:
		rep.plan, rep.err = c.cl.Rewrite(ctx, req.rewrite)
	case epRPQ:
		rep.plan, rep.err = c.cl.RPQ(ctx, req.rpq)
	case epQuery:
		rep.query, rep.err = c.cl.Query(ctx, req.query, func(a regexrwclient.QueryAnswer) error {
			if rep.first == 0 {
				rep.first = time.Since(t0)
			}
			if keepAnswers {
				rep.answers = append(rep.answers, a)
			}
			return nil
		})
	}
	rep.lat = time.Since(t0)
	if req.ep != epQuery {
		rep.first = rep.lat
	}
	return rep
}

// sample is one successful response.
type sample struct {
	end     time.Duration // completion, measured from the phase's start
	lat     time.Duration
	first   time.Duration // until the first answer line; 0 if there was none
	answers int64         // answer lines, or one for a plan response
}

// samples is a run of successes, or a window of one.
type samples []sample

// recorder accumulates one client's outcomes.
type recorder struct {
	t0        time.Time // the phase's start
	samples   samples   // successful requests only
	attempted int
	failed    int
	failures  []string
	deferred  []deferredCheck
}

const keptFailures = 5

func (r *recorder) fail(req *request, err error) {
	r.failed++
	if len(r.failures) < keptFailures {
		r.failures = append(r.failures, fmt.Sprintf("%s %s: %v", req.ep, req.family, err))
	}
}

// record checks one reply and files its outcome.
func (r *recorder) record(chk *checker, req *request, rep reply) {
	r.attempted++
	if rep.err != nil {
		r.fail(req, rep.err)
		return
	}
	d, err := chk.inline(req, rep)
	if err != nil {
		r.fail(req, fmt.Errorf("check: %w", err))
		chk.mismatch()
		return
	}
	smp := sample{end: time.Since(r.t0), lat: rep.lat, first: rep.first, answers: 1}
	if req.ep == epQuery {
		smp.answers = int64(rep.query.Answers)
		if smp.answers == 0 {
			smp.first = 0
		}
	}
	if d != nil {
		d.smp = smp
		r.deferred = append(r.deferred, *d)
	}
	r.samples = append(r.samples, smp)
}

// retract takes back a success whose deferred deep check failed: its
// sample no longer counts. Equal samples are interchangeable for every
// statistic taken from them.
func (r *recorder) retract(d deferredCheck) {
	if i := slices.Index(r.samples, d.smp); i >= 0 {
		r.samples = slices.Delete(r.samples, i, i+1)
	}
}

// lats returns the latency of every success.
func (ss samples) lats() []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

// firsts returns the time to the first answer line of every success
// that had one.
func (ss samples) firsts() []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if s.first > 0 {
			out = append(out, s.first)
		}
	}
	return out
}

// answers is the number of answer lines (one per plan response) over
// every success.
func (ss samples) answers() (n int64) {
	for _, s := range ss {
		n += s.answers
	}
	return n
}

// good is the number of successes within the latency limit.
func (ss samples) good(limit time.Duration) (n int) {
	for _, s := range ss {
		if s.lat <= limit {
			n++
		}
	}
	return n
}

// loadResult merges the clients' recorders of one closed-loop phase.
type loadResult struct {
	elapsed time.Duration
	recs    []*recorder
	steal   []time.Duration // host steal time in each whole window
}

func (lr loadResult) merged() *recorder {
	m := &recorder{}
	for _, r := range lr.recs {
		m.samples = append(m.samples, r.samples...)
		m.attempted += r.attempted
		m.failed += r.failed
		m.failures = append(m.failures, r.failures...)
		m.deferred = append(m.deferred, r.deferred...)
	}
	return m
}

// closedLoop runs one client per stream for dur: each client sends its
// next request only when the previous one has completed. mutate, when
// non-nil, may replace a request before it is sent.
func closedLoop(clients []*loadClient, streams []*stream, dur time.Duration, chk *checker, mutate func(j int, req *request) *request) loadResult {
	recs := make([]*recorder, len(streams))
	ends := make([]time.Time, len(streams))
	start := time.Now()
	deadline := start.Add(dur)
	stop, stolen := make(chan struct{}), make(chan []time.Duration)
	go sampleSteal(stop, stolen)
	var wg sync.WaitGroup
	for i := range streams {
		recs[i] = &recorder{t0: start, samples: make([]sample, 0, 4096)}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			for j := 0; time.Now().Before(deadline); j++ {
				req := streams[i].next()
				if mutate != nil {
					req = mutate(j, req)
				}
				rep := clients[i].send(ctx, req, req.sample)
				recs[i].record(chk, req, rep)
			}
			ends[i] = time.Now()
		}(i)
	}
	wg.Wait()
	close(stop)
	steal := <-stolen
	last := start
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	return loadResult{elapsed: last.Sub(start), recs: recs, steal: steal}
}

// sampleSteal reads the host's steal time at every window boundary
// until stop is closed, then sends the steal of each whole window.
func sampleSteal(stop <-chan struct{}, out chan<- []time.Duration) {
	t := time.NewTicker(windowLen)
	defer t.Stop()
	var steal []time.Duration
	prev := hostSteal()
	for {
		select {
		case <-t.C:
			cur := hostSteal()
			steal = append(steal, cur-prev)
			prev = cur
		case <-stop:
			out <- steal
			return
		}
	}
}
