// Command bench is the repository's benchmark: six workloads driven
// against the real binaries over loopback, eleven end-to-end metrics,
// and a traced run that explains them layer by layer. BENCHMARK.json
// at the repository root declares what it measures; README.md in this
// directory says why.
//
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is
//	    {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
//	go run -C bench . all [-seed N] [-seconds S] [-repeats R] [-traced] [-o FILE]
//	    every workload, end to end (and traced with -traced), written
//	    with the host fingerprint to FILE for compare
//	go run -C bench . compare A.json B.json
//	    per workload and metric: both sides' medians and quartiles and
//	    a verdict against the metric's declared bound
//
// It exits non-zero when an output check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"amnt/bench/e2e"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "all":
		err = allMain(ctx, args[1:], os.Stdout)
	default:
		err = oneMain(ctx, args, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the results have been printed when
// an output check failed.
var errIncorrect = errors.New("an output check failed")

// newEnv locates the repository and prepares its build and scratch
// directories; a directory that holds only the benchmark fails here.
func newEnv() (*e2e.Env, error) {
	root, err := e2e.FindRoot()
	if err != nil {
		return nil, err
	}
	return e2e.NewEnv(root)
}

// oneMain is the contract the benchmark harness drives: one workload,
// one run, and a last line with exactly the keys correct, attempted,
// failed and metrics.
func oneMain(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", e2e.Window, "measured window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := e2e.ByName(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q; run with --workload <name> (or the all / compare subcommands)", *workload)
	}
	// A run must end well inside the harness's 180 s limit even when
	// something hangs.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	env, err := newEnv()
	if err != nil {
		return err
	}
	defer env.Close()
	fmt.Fprintln(out, hostFingerprint(env.Root, *seed))
	res, err := e2e.Run(ctx, env, w, e2e.FullSizes(*seconds), *seed, *trace == 1, out)
	if err != nil {
		return err
	}
	printResult(out, res)
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]e2e.Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// printResult prints every metric of a run by name with its unit,
// marking the end-to-end metrics the workload measures natively, then
// the failed share and any failed check.
func printResult(out io.Writer, r *e2e.Result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "\n%s  seed %d  %s run\n", r.Workload, r.Seed, mode)
	native := map[string]bool{"setup_s": true, "ops_per_s": true}
	for _, n := range e2e.Native[r.Workload] {
		native[n] = true
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		note := ""
		switch {
		case r.Samples[n] > 0:
			note = fmt.Sprintf("  (%d samples)", r.Samples[n])
		case !r.Trace && !native[n]:
			note = "  (not native here: wall time of the measured phase)"
		}
		fmt.Fprintf(out, "  %-32s %16.4f %-6s%s\n", n, m.Value, m.Unit, note)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(out, "  attempted %d  failed %d  (failed share %.2e)\n", r.Attempted, r.Failed, share)
	for _, n := range r.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", p)
	}
}

// allMain runs the whole set once per repeat and writes a report.
func allMain(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", e2e.Window, "measured window in seconds")
	repeats := fs.Int("repeats", 1, "end-to-end runs per workload")
	traced := fs.Bool("traced", false, "also make one traced run per workload")
	path := fs.String("o", "", "report file (default bench/out/result-<time>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := newEnv()
	if err != nil {
		return err
	}
	defer env.Close()
	rep := report{Fingerprint: hostFingerprint(env.Root, *seed)}
	fmt.Fprintln(out, rep.Fingerprint)
	start := time.Now()
	incorrect := false
	run := func(w e2e.Workload, trace bool) error {
		res, err := e2e.Run(ctx, env, w, e2e.FullSizes(*seconds), *seed, trace, out)
		if err != nil {
			return err
		}
		printResult(out, res)
		rep.Runs = append(rep.Runs, res)
		incorrect = incorrect || !res.Correct
		return nil
	}
	for i := 0; i < *repeats; i++ {
		for _, w := range e2e.Workloads {
			if err := run(w, false); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(out, "\nend-to-end set: %d x %d workloads in %.1f s wall\n", *repeats, len(e2e.Workloads), time.Since(start).Seconds())
	if *traced {
		for _, w := range e2e.Workloads {
			if err := run(w, true); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "\nwith the traced set: %.1f s wall\n", time.Since(start).Seconds())
	}
	if *path == "" {
		*path = filepath.Join(env.Root, "bench", "out", "result-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	}
	if err := rep.write(*path); err != nil {
		return err
	}
	fmt.Fprintf(out, "report written to %s\n", *path)
	if incorrect {
		return errIncorrect
	}
	return nil
}
