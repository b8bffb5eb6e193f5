// Command rewrite computes the Σ_E-maximal rewriting of a regular
// expression in terms of views (Section 2 of Calvanese, De Giacomo,
// Lenzerini, Vardi, PODS 1999).
//
// Usage:
//
//	rewrite -query 'a·(b·a+c)*' -view 'e1=a' -view 'e2=a·c*·b' -view 'e3=c' [-dot] [-partial]
//
// It prints the rewriting as a regular expression over the view names,
// whether it is exact (with a witness word when it is not), and the
// emptiness diagnostics of Section 3.2. With -dot, the three automata
// of the construction (A_d, A', R) are emitted in Graphviz syntax.
// With -partial, a minimal set of elementary views making the
// rewriting exact is searched for (Section 4.3).
//
// With -server host[,host...], the request is answered through a
// running serve instance instead of compiling locally; several
// addresses route through the cluster-aware client straight to the
// replica owning the plan key. Flags needing the local automata
// (-dot, -explain, -possible, -cost) cannot be combined with -server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	regexrwclient "regexrw/client"
	"regexrw/internal/automata"
	"regexrw/internal/budget"
	"regexrw/internal/cliobs"
	"regexrw/internal/core"
	"regexrw/internal/engine"
)

type viewFlags map[string]string

func (v viewFlags) String() string { return fmt.Sprint(map[string]string(v)) }

func (v viewFlags) Set(s string) error {
	name, expr, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=expression, got %q", s)
	}
	if _, dup := v[name]; dup {
		return fmt.Errorf("duplicate view %q", name)
	}
	v[name] = expr
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with explicit streams so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rewrite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	query := fs.String("query", "", "regular expression E0 to rewrite (required)")
	views := viewFlags{}
	fs.Var(views, "view", "view definition name=expression (repeatable)")
	dot := fs.Bool("dot", false, "emit the construction's automata in Graphviz dot syntax")
	partial := fs.Bool("partial", false, "search for a minimal elementary-view extension making the rewriting exact")
	possible := fs.Bool("possible", false, "also compute the possibility (containing) rewriting")
	explain := fs.String("explain", "", "space-separated view word: report membership and, if rejected, an escaping expansion")
	costs := viewFlags{}
	fs.Var(costs, "cost", "view evaluation cost name=weight (repeatable); triggers cost-guided view pruning")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline for the whole run (0 = none); exceeding it exits 3")
	maxStates := fs.Int("max-states", 0, "cap on total materialized automaton states (0 = unlimited); exceeding it exits 3")
	server := fs.String("server", "", "answer through a running serve instance instead of compiling locally (comma-separated replica addresses route to the key's owner)")
	var obsFlags cliobs.Flags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *query == "" {
		fmt.Fprintln(stderr, "rewrite: -query is required")
		fs.Usage()
		return 2
	}
	if *server != "" {
		// The remote plan response carries the rewriting and its
		// diagnostics, not the construction's automata: flags that need
		// them stay local-only.
		if *dot || *explain != "" || *possible || len(costs) > 0 {
			fmt.Fprintln(stderr, "rewrite: -dot, -explain, -possible and -cost need the local automata and cannot be combined with -server")
			return 2
		}
		return runServer(*server, regexrwclient.RewriteRequest{
			Query:     *query,
			Views:     views,
			Partial:   *partial,
			MaxStates: *maxStates,
			TimeoutMS: timeout.Milliseconds(),
		}, *timeout, stdout, stderr)
	}

	// The constructions are doubly exponential in the worst case
	// (Theorems 5 and 8), so both guards govern every stage through the
	// shared context.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *maxStates > 0 {
		ctx = budget.With(ctx, budget.New(budget.MaxStates(*maxStates)))
	}
	// The deferred finish writes the trace/metrics even when a stage
	// fails — a truncated trace of an exhausted run is the diagnostic.
	ctx, finishObs := obsFlags.Install(ctx, stderr)
	defer finishObs()

	inst, err := core.ParseInstance(*query, views)
	if err != nil {
		fmt.Fprintln(stderr, "rewrite:", err)
		return 1
	}

	// The compile runs through the engine, which shares the run's
	// context budget, deadline and observability; the -partial search
	// rides on the same plan.
	eng := engine.New()
	plan, err := eng.Rewrite(ctx, engine.Request{Instance: inst, Partial: *partial})
	if err != nil {
		return fail(stderr, err)
	}
	r := plan.Rewriting()
	fmt.Fprintf(stdout, "E0        = %s\n", inst.Query)
	for _, v := range inst.Views {
		fmt.Fprintf(stdout, "re(%s)%s = %s\n", v.Name, strings.Repeat(" ", max(0, 4-len(v.Name))), v.Expr)
	}
	fmt.Fprintf(stdout, "rewriting = %s\n", plan.Regex())

	report := plan.Exactness()
	if report.Verdict == core.ExactUnknown && report.Reason != nil {
		return fail(stderr, report.Reason)
	}
	exact := plan.IsExact()
	fmt.Fprintf(stdout, "exact     = %v\n", exact)
	if !exact {
		fmt.Fprintf(stdout, "witness   = %s   (in L(E0) but not in exp(L(R)))\n",
			automata.FormatWord(inst.Sigma(), report.Witness))
	}
	fmt.Fprintf(stdout, "Σ_E-empty = %v, Σ-empty = %v\n", r.IsEmpty(), r.IsSigmaEmpty())
	if w, ok := r.ShortestWord(); ok {
		fmt.Fprintf(stdout, "shortest  = %s\n", automata.FormatWord(inst.SigmaE(), w))
	}

	if *explain != "" {
		names := strings.Fields(*explain)
		if r.Accepts(names...) {
			fmt.Fprintf(stdout, "\n%s ∈ L(R): every expansion lies in L(E0)\n", strings.Join(names, "·"))
		} else if w, ok := r.ExplainRejection(names...); ok {
			fmt.Fprintf(stdout, "\n%s ∉ L(R): expansion %s escapes L(E0)\n",
				strings.Join(names, "·"), automata.FormatWord(inst.Sigma(), w))
		} else {
			fmt.Fprintf(stdout, "\n%s ∉ L(R): unknown view name in the word\n", strings.Join(names, "·"))
		}
	}

	if *dot {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, r.Ad.DOT("Ad"))
		fmt.Fprint(stdout, r.APrime.DOT("Aprime"))
		fmt.Fprint(stdout, r.Auto.Minimize().TrimPartial().DOT("R"))
	}

	if *partial && !exact {
		res := plan.Partial()
		if res == nil {
			fmt.Fprintln(stderr, "rewrite: partial: no result on the plan")
			return 1
		}
		if !res.Exact {
			if code := resourceExit(stderr, res.Reason); code != 0 {
				return code
			}
			fmt.Fprintln(stderr, "rewrite: partial:", res.Reason)
			return 1
		}
		fmt.Fprintf(stdout, "\npartial rewriting: add elementary views %v\n", res.Result.Added)
		fmt.Fprintf(stdout, "extended rewriting = %s (exact)\n", plan.PartialRegexString())
	}

	if *possible {
		p, err := core.PossibilityRewritingContext(ctx, inst)
		if err != nil {
			return fail(stderr, err)
		}
		containing, cex := p.IsContaining()
		fmt.Fprintf(stdout, "\npossibility rewriting = %s\n", p.Regex())
		fmt.Fprintf(stdout, "containing rewriting exists = %v\n", containing)
		if !containing {
			fmt.Fprintf(stdout, "uncoverable word of L(E0) = %s\n",
				automata.FormatWord(inst.Sigma(), cex))
		}
	}

	if len(costs) > 0 {
		viewCosts := core.ViewCosts{}
		for name, weight := range costs {
			var v float64
			if _, err := fmt.Sscanf(weight, "%g", &v); err != nil {
				fmt.Fprintf(stderr, "rewrite: bad -cost %s=%s\n", name, weight)
				return 2
			}
			viewCosts[name] = v
		}
		pruned, pr, err := core.PruneViewsContext(ctx, inst, viewCosts)
		if err != nil {
			if code := resourceExit(stderr, err); code != 0 {
				return code
			}
			fmt.Fprintln(stderr, "rewrite: prune:", err)
			return 1
		}
		names := make([]string, len(pruned.Views))
		for i, v := range pruned.Views {
			names[i] = v.Name
		}
		fmt.Fprintf(stdout, "\ncost-guided pruning keeps views %v\n", names)
		fmt.Fprintf(stdout, "pruned rewriting = %s (estimated cost %.1f)\n",
			pr.Regex(), pr.EstimatedCost(viewCosts))
	}
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// resourceExit returns 3 with a one-line diagnostic naming the
// exhausted stage when err is a budget or deadline failure, and 0 for
// every other error.
func resourceExit(stderr io.Writer, err error) int {
	var ex *budget.ExceededError
	if errors.As(err, &ex) {
		fmt.Fprintf(stderr, "rewrite: resource budget exhausted in %s: used %d of %d %s\n",
			ex.Stage, ex.Used, ex.Limit, ex.Resource)
		return 3
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		fmt.Fprintf(stderr, "rewrite: deadline exceeded: %v\n", err)
		return 3
	}
	return 0
}

// fail reports err and picks the exit code: 3 for resource exhaustion,
// 1 otherwise.
func fail(stderr io.Writer, err error) int {
	if code := resourceExit(stderr, err); code != 0 {
		return code
	}
	fmt.Fprintln(stderr, "rewrite:", err)
	return 1
}
