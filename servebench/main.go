// Command servebench is the repository's end-to-end benchmark: it boots
// cmd/serve as a child process, drives it over loopback through the
// public regexrw/client with a closed loop of two clients, checks every
// answer, and prints each metric by name and unit. With --trace 1 it
// replays the same seeded request streams in-process instead and
// splits them per layer. See README.md for the workloads, the metrics
// and how to run it; run.sh builds both binaries first.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// watchdog bounds a whole run: the benchmark must end within 180s even
// if the program under test hangs.
const watchdog = 170 * time.Second

// setupBoots is how many times a trace-0 run boots the server; setup_s
// is the median.
const setupBoots = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as appended to results.jsonl for --summarize.
type record struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      int            `json:"trace"`
	Seconds    int            `json:"seconds"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Clients    int            `json:"clients"`
	Time       string         `json:"time"`
	Samples    map[string]int `json:"samples"`
	Failures   []string       `json:"failures,omitempty"`
	Result     result         `json:"result"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: rewrite-hot, compile-cold or query-stream")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 35, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics against the live server; 1: per-layer metrics")
	root := fs.String("root", ".", "repository root (the checkout under test)")
	serveBin := fs.String("serve-bin", "", "cmd/serve binary built from the checkout")
	summarize := fs.Bool("summarize", false, "summarize results.jsonl across runs and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	outDir := filepath.Join(*root, ".bench_build", "servebench")
	if *summarize {
		bounds, err := loadBounds(filepath.Join(*root, "BENCHMARK.json"))
		if err == nil {
			err = summarizeResults(os.Stdout, filepath.Join(outDir, "results.jsonl"), bounds)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			return 1
		}
		return 0
	}
	if *serveBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --serve-bin, --seconds ≥ 1 and --trace 0|1 (use run.sh)")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}

	// Every exit path stops the server children: normal return, an
	// interrupt, and the watchdog.
	defer stopAll(stopGrace)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll(0)
		os.Exit(130)
	}()
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "servebench: run exceeded %v; stopping\n", watchdog)
		stopAll(0)
		os.Exit(3)
	})

	runDir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	rec := record{
		Workload: *name, Seed: *seed, Trace: *trace, Seconds: *seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: measuredClients,
		Time: time.Now().UTC().Format(time.RFC3339), Samples: map[string]int{},
	}
	s := newSession(w, *serveBin, runDir)
	dur := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		res, err = runEndToEnd(s, dur, &rec)
	} else {
		res, err = runTraced(s, dur, &rec, filepath.Join(outDir, "trace-"+*name+".json"))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v (server log: %s)\n", err, s.log())
		if tail := logTail(s.log()); tail != "" {
			fmt.Fprintln(os.Stderr, tail)
		}
		return 1
	}
	rec.Failures = append(s.notes, rec.Failures...)
	res.Correct = s.chk.mismatches.Load() == 0
	rec.Result = res

	printReport(os.Stdout, rec)
	if err := appendRecord(filepath.Join(outDir, "results.jsonl"), rec); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runEndToEnd is the --trace 0 run: setup_s over setupBoots boots, then
// the measured closed loop against the last one.
func runEndToEnd(s *session, dur time.Duration, rec *record) (result, error) {
	if err := s.setup(setupBoots); err != nil {
		return result{}, err
	}
	defer s.srv.stop(stopGrace)
	p, err := s.measure(dur, 0, nil)
	if err != nil {
		return result{}, err
	}
	m := p.rec
	limit := latencyLimit[s.w.name]
	all := windows(m.samples, p.load.elapsed, windowLen)
	ws := calmWindows(all, p.load.steal)
	if len(ws) == 0 {
		return result{}, fmt.Errorf("measured phase of %v is shorter than one %v window", p.load.elapsed, windowLen)
	}
	perSec := func(f func(samples) float64) float64 {
		return windowMedian(ws, func(w samples) float64 { return f(w) / windowLen.Seconds() })
	}
	// The run as a whole, with every sample: reported beside the window
	// medians, not instead of them.
	lat := newDist(m.samples.lats())
	p99, supported, ok := windowP99(ws)
	if !ok {
		v, q := lat.highestSupported()
		p99 = v
		rec.Failures = append(rec.Failures, fmt.Sprintf("latency_p99_us: only %d of %d windows support their p99; reporting the whole run's %s", supported, len(ws), q))
	}
	var steal time.Duration
	for _, d := range p.load.steal {
		steal += d
	}
	whole := fmt.Sprintf("whole run: %d successes in %.3fs, p50 %.1fus", len(lat), p.load.elapsed.Seconds(), lat.median())
	if v, q := lat.highestSupported(); q != "p50" {
		whole += fmt.Sprintf(", %s %.1fus", q, v)
	}
	rec.Failures = append(rec.Failures, whole+fmt.Sprintf("; host steal %.1f%% of %d CPUs", 100*steal.Seconds()/p.load.elapsed.Seconds()/float64(rec.NProc), rec.NProc))
	rec.Samples["latency"] = len(lat)
	rec.Samples["first_answer"] = len(m.samples.firsts())
	rec.Samples["windows"] = len(all)
	rec.Samples["calm_windows"] = len(ws)
	rec.Samples["setup"] = len(s.setups)
	rec.Samples["deep_checks"] = p.deepRuns
	rec.Failures = append(rec.Failures, m.failures...)
	metrics := map[string]metric{
		"throughput_rps": {perSec(func(w samples) float64 { return float64(len(w)) }), "1/s"},
		"goodput_rps":    {perSec(func(w samples) float64 { return float64(w.good(limit)) }), "1/s"},
		"latency_p50_us": {windowMedian(ws, func(w samples) float64 { return newDist(w.lats()).median() }), "us"},
		"latency_p99_us": {p99, "us"},
		"first_answer_p50_us": {windowMedian(ws, func(w samples) float64 {
			return newDist(w.firsts()).median()
		}), "us"},
		"answers_per_s":         {perSec(func(w samples) float64 { return float64(w.answers()) }), "1/s"},
		"server_cpu_us_per_req": {float64(p.cpu.Microseconds()) / float64(max(1, m.attempted)), "us"},
		"server_rss_peak_mb":    {p.rssMB, "MiB"},
		"success_share":         {1 - float64(m.failed)/float64(max(1, m.attempted)), "ratio"},
		"setup_s":               {newDistF(s.setups).median(), "s"},
	}
	return result{Attempted: m.attempted, Failed: m.failed, Metrics: metrics}, nil
}

// printReport writes the human-readable lines that precede the JSON
// result: the run's identity, every metric with its unit, and failures.
func printReport(w io.Writer, rec record) {
	fmt.Fprintf(w, "servebench %s seed=%d trace=%d seconds=%d nproc=%d GOMAXPROCS=%d clients=%d (closed loop, one keep-alive connection each)\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Seconds, rec.NProc, rec.GOMAXPROCS, rec.Clients)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fs := 0.0
	if rec.Result.Attempted > 0 {
		fs = float64(rec.Result.Failed) / float64(rec.Result.Attempted)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d failed_share=%.6f checker_mismatches=%v samples=%v\n",
		rec.Result.Attempted, rec.Result.Failed, fs, !rec.Result.Correct, rec.Samples)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  note: %s\n", f)
	}
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func logTail(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	return strings.Join(lines[max(0, len(lines)-10):], "\n")
}

// loadBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json.
func loadBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := make(map[string]float64, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// summarizeResults prints, per workload and trace mode, each metric's
// median and quartiles across the recorded runs — never the best run.
// An end-to-end metric whose spread (Q3 − Q1) ÷ median exceeds its
// bound is marked unresolved: those runs cannot tell a change within
// the bound from noise.
func summarizeResults(w io.Writer, path string, bounds map[string]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type group struct {
		trace   int
		seeds   []int64
		env     map[string]bool
		correct int
		runs    int
		values  map[string][]float64
		units   map[string]string
	}
	groups := map[string]*group{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		k := fmt.Sprintf("%s trace=%d seconds=%d", r.Workload, r.Trace, r.Seconds)
		g := groups[k]
		if g == nil {
			g = &group{trace: r.Trace, env: map[string]bool{}, values: map[string][]float64{}, units: map[string]string{}}
			groups[k] = g
		}
		g.runs++
		g.seeds = append(g.seeds, r.Seed)
		g.env[fmt.Sprintf("nproc=%d GOMAXPROCS=%d clients=%d", r.NProc, r.GOMAXPROCS, r.Clients)] = true
		if r.Result.Correct && r.Result.Failed == 0 {
			g.correct++
		}
		for n, m := range r.Result.Metrics {
			g.values[n] = append(g.values[n], m.Value)
			g.units[n] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(groups) == 0 {
		return errors.New("no recorded runs")
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		envs := make([]string, 0, len(g.env))
		for e := range g.env {
			envs = append(envs, e)
		}
		sort.Strings(envs)
		fmt.Fprintf(w, "%s: %d runs (%d correct with 0 failed), seeds %v, %s\n", k, g.runs, g.correct, g.seeds, strings.Join(envs, " | "))
		names := make([]string, 0, len(g.values))
		for n := range g.values {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  %-36s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "iqr/med", "bound")
		for _, n := range names {
			q1, q2, q3, ok := quartiles(g.values[n])
			if !ok {
				fmt.Fprintf(w, "  %-36s %14s %14.4f %14s %8s %s\n", n, "-", g.values[n][0], "-", "-", g.units[n])
				continue
			}
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			bound, verdict := "-", ""
			if b, ok := bounds[n]; ok && g.trace == 0 {
				bound = fmt.Sprintf("%.2f", b)
				if q2 == 0 || spread > b {
					verdict = " UNRESOLVED: spread exceeds the bound"
				}
			}
			fmt.Fprintf(w, "  %-36s %14.4f %14.4f %14.4f %8.4f %6s %s%s\n", n, q1, q2, q3, spread, bound, g.units[n], verdict)
		}
	}
	return nil
}
