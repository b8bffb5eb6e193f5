// Command bench runs the reproducible benchmark pipeline over the
// paper's benchmark families and writes a machine-readable report.
//
//	go run ./cmd/bench -sizes tiny -out BENCH_pipeline.json
//	go run ./cmd/bench -sizes tiny -out BENCH_ci.json -check -against BENCH_pipeline.json
//
// -check enforces the in-run regression guard (optimized ≤ 2x its own
// baseline for EX2Pipeline and THM6Exactness; warm plan-cache hits
// ≥ 10x faster than cold compiles for PlanCache; the frontier-bitset
// evaluator and its incremental updates ≥ 5x faster than the map BFS
// and from-scratch baselines for GraphEval/GraphEvalIncr at 100k+
// edges; for the Strategy* families — StrategyEX2, StrategyTHM5,
// StrategyTHM6, each timing the adaptive dispatcher against every
// forced arm — the adaptive run ≥ 0.95x the better forced arm, the
// dense minimization kernel ≥ 1.5x over forced sparse on StrategyTHM5,
// and the EX2Pipeline speedup at GOMAXPROCS > 1 ≥ 0.95x; state
// elimination ≥ 10x over the retained reference on RegexFromDFA n=5
// and ≥ 1.0x on its random-instance pool); -against
// verifies the report's schema and coverage against a committed
// reference without comparing wall-clock numbers
// (docs/PERFORMANCE.md §5).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"regexrw/internal/bench"
	"regexrw/internal/cliobs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sizes := fs.String("sizes", "tiny", "size class: smoke, tiny or full")
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	check := fs.Bool("check", false, "fail on an in-run >2x regression for EX2Pipeline/THM6Exactness")
	against := fs.String("against", "", "compare schema and coverage against this committed report")
	var obsFlags cliobs.Flags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec, err := bench.Sizes(*sizes)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ctx, finishObs := obsFlags.Install(context.Background(), stderr)
	defer finishObs()
	rep, err := bench.Run(ctx, spec)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := stdout.Write(data); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "bench: wrote %s (%d entries, sizes=%s)\n", *out, len(rep.Entries), rep.Sizes)
	}

	for _, e := range rep.Entries {
		if e.PlanHitRate > 0 {
			fmt.Fprintf(stdout, "bench: %-14s param=%-3d %12.0f ns/op  vs %-12s %12.0f ns/op  speedup %.2fx  plan-hit-rate %.2f\n",
				e.Family, e.Param, e.NsOp, e.Baseline, e.BaselineNsOp, e.Speedup, e.PlanHitRate)
		} else if e.BaselineNsOp > 0 {
			fmt.Fprintf(stdout, "bench: %-14s param=%-3d %12.0f ns/op  vs %-12s %12.0f ns/op  speedup %.2fx  hit-rate %.2f\n",
				e.Family, e.Param, e.NsOp, e.Baseline, e.BaselineNsOp, e.Speedup, e.SubsetHitRate)
		} else {
			fmt.Fprintf(stdout, "bench: %-14s param=%-3d %12.0f ns/op  states %d  hit-rate %.2f\n",
				e.Family, e.Param, e.NsOp, e.States, e.SubsetHitRate)
		}
	}

	if *against != "" {
		refData, err := os.ReadFile(*against)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		var ref bench.Report
		if err := json.Unmarshal(refData, &ref); err != nil {
			fmt.Fprintf(stderr, "bench: parse %s: %v\n", *against, err)
			return 1
		}
		if err := bench.CompareSchema(&ref, rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "bench: schema and coverage match %s\n", *against)
	}

	if *check {
		if err := bench.Check(rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, "bench: regression guard passed")
	}
	return 0
}
