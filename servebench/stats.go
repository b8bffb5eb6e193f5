package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyondP99 is how many samples must lie above a p99 before the
// benchmark reports it: below 1000 samples a p99 is one or two outliers.
const minBeyondP99 = 10

// dist is a sorted sample of one timing, in microseconds.
type dist []float64

func newDist(ds []time.Duration) dist {
	out := make(dist, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	sort.Float64s(out)
	return out
}

func newDistF(xs []float64) dist {
	out := append(dist(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of every sample (0 for an
// empty sample).
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[max(0, min(i, len(d)-1))]
}

func (d dist) median() float64 { return d.quantile(0.5) }

// beyond is the number of samples ranked above the q-quantile.
func (d dist) beyond(q float64) int {
	if len(d) == 0 {
		return 0
	}
	return len(d) - int(math.Ceil(q*float64(len(d))))
}

// p99 returns the 99th percentile and whether the sample supports it:
// at least minBeyondP99 samples must lie beyond it.
func (d dist) p99() (float64, bool) {
	return d.quantile(0.99), d.beyond(0.99) >= minBeyondP99
}

// highestSupported returns the highest of p99, p90 and p50 the sample
// supports, with its name; p50 needs only one sample.
func (d dist) highestSupported() (float64, string) {
	for _, q := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.9, "p90"}} {
		if d.beyond(q.q) >= minBeyondP99 {
			return d.quantile(q.q), q.name
		}
	}
	return d.median(), "p50"
}

// quartiles returns Q1, Q2 and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so a summary here and one computed in Python
// agree. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64, ok bool) {
	if len(values) < 2 {
		return 0, 0, 0, false
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	m := len(d) + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, len(d)-1))
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}

// windowLen is the length of the windows a measured phase is cut into.
// Each end-to-end figure is computed per window and reported as the
// median over the calm windows (calmWindows), so a slow stretch of the
// host that covers fewer than half of them does not move it.
const windowLen = time.Second

// windows splits a phase's successes into consecutive windows of
// length w by completion time. Only whole windows count: a partial last
// window would weigh a fraction of a second like a full one.
func windows(ss samples, elapsed, w time.Duration) []samples {
	out := make([]samples, int(elapsed/w))
	for _, s := range ss {
		if k := int(s.end / w); k >= 0 && k < len(out) {
			out[k] = append(out[k], s)
		}
	}
	return out
}

// windowMedian is the median over windows of f applied to each window.
func windowMedian(ws []samples, f func(samples) float64) float64 {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = f(w)
	}
	return newDistF(vals).median()
}

// calmWindows keeps the windows in which the host stole no more CPU
// time from this machine than in the run's median window: at least half
// of them, all of them on a host without steal. On a shared host other
// tenants slow every figure of the windows in which the hypervisor
// gives them this machine's CPUs, and that is not the program's doing.
// The windows are chosen by the host's steal counter alone, never by
// the figures measured in them.
func calmWindows(ws []samples, steal []time.Duration) []samples {
	n := min(len(ws), len(steal))
	if n == 0 {
		return ws
	}
	sorted := slices.Clone(steal[:n])
	slices.Sort(sorted)
	limit := sorted[(n-1)/2]
	var out []samples
	for i, w := range ws[:n] {
		if steal[i] <= limit {
			out = append(out, w)
		}
	}
	return out
}

// windowP99 is the median over windows of each window's p99, taken over
// the windows whose sample supports their p99; ok is false when fewer
// than half of the windows do.
func windowP99(ws []samples) (v float64, supported int, ok bool) {
	var vals []float64
	for _, w := range ws {
		if p, sup := newDist(w.lats()).p99(); sup {
			vals = append(vals, p)
		}
	}
	if len(vals) == 0 || 2*len(vals) < len(ws) {
		return 0, len(vals), false
	}
	return newDistF(vals).median(), len(vals), true
}
