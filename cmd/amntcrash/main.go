// Command amntcrash is the crash-matrix explorer: it sweeps crash
// points × fault kinds × persistence protocols on the parallel
// experiment engine and reports, for every cell, whether the
// protocol's recovery contract held — recovery terminated, the
// recovered root matched an independent shadow rebuild, all persisted
// data verified, and every injected corruption was repaired or loudly
// detected.
//
// The matrix is deterministic: the same -seed (and options) produces a
// byte-identical -json artifact at any -parallel width, so a matrix
// diff between two commits is meaningful. The process exits 1 when any
// cell violates an invariant, which is what makes it a CI gate.
//
// Examples:
//
//	amntcrash                                # all protocols, all kinds, 8 points
//	amntcrash -points 50 -json out.json      # the full acceptance matrix
//	amntcrash -protocols amnt,leaf -kinds torn,bitrot -v
//	amntcrash -http :6060                    # live fault counters at /vars
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"amnt/internal/experiments"
	"amnt/internal/faults"
	"amnt/internal/mee"
	"amnt/internal/telemetry"

	_ "amnt/internal/core" // register the AMNT protocol family
)

func main() {
	var (
		protocols = flag.String("protocols", "", "comma-separated protocols to sweep (default: every registered protocol)")
		kinds     = flag.String("kinds", "all", "comma-separated fault kinds: crash, torn, drop, reorder, bitrot (or all)")
		points    = flag.Int("points", 8, "crash points per protocol, spread evenly over its run")
		seed      = flag.Int64("seed", 1, "sweep seed; same seed = byte-identical matrix")
		memMB     = flag.Int("mem-mb", 32, "SCM capacity per cell, in MiB")
		accesses  = flag.Uint64("accesses", 0, "workload length per cell (0 = default fill trace)")
		level     = flag.Int("level", 3, "AMNT subtree level")
		parallel  = flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS); results are identical at any width")
		deadline  = flag.Duration("deadline", faults.DefaultDeadline, "per-cell recovery deadline; a hung recovery fails its cell")
		jsonOut   = flag.String("json", "", "write the deterministic matrix JSON to this file ('-' = stdout)")
		traceOut  = flag.String("trace", "", "write EvFault/EvInvariantViolation events as JSONL to this file")
		httpAddr  = flag.String("http", "", "serve live fault counters (/vars) and sweep progress (/progress) on this address")
		verbose   = flag.Bool("v", false, "stream live per-cell progress to stderr")
	)
	flag.Parse()

	kindList, err := faults.ParseKinds(*kinds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amntcrash:", err)
		os.Exit(2)
	}
	var protoList []string
	if *protocols != "" {
		registered := make(map[string]bool)
		for _, p := range mee.Registered() {
			registered[p] = true
		}
		for _, p := range strings.Split(*protocols, ",") {
			p = strings.TrimSpace(p)
			if !registered[p] {
				fmt.Fprintf(os.Stderr, "amntcrash: unknown protocol %q (registered: %s)\n",
					p, strings.Join(mee.Registered(), ", "))
				os.Exit(2)
			}
			protoList = append(protoList, p)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var counters faults.Counters
	trace := telemetry.NewTracer(0)
	opts := faults.SweepOptions{
		Protocols:    protoList,
		Kinds:        kindList,
		Points:       *points,
		Seed:         *seed,
		MemoryBytes:  uint64(*memMB) << 20,
		Accesses:     *accesses,
		SubtreeLevel: *level,
		Parallel:     *parallel,
		Deadline:     *deadline,
		Context:      ctx,
		Trace:        trace,
		Counters:     &counters,
	}

	// Live introspection: /vars exposes the sweep counters (atomics,
	// sampled on each scrape), /progress the last engine snapshot.
	var progressMu sync.Mutex
	var lastProgress experiments.Progress
	reg := telemetry.NewRegistry()
	counters.RegisterMetrics(reg, "faults")
	opts.Progress = func(p experiments.Progress) {
		progressMu.Lock()
		lastProgress = p
		progressMu.Unlock()
		if *verbose && p.Event != experiments.JobQueued {
			fmt.Fprintf(os.Stderr, "[%d queued %d running %d done %d failed] %s %s\n",
				p.Queued, p.Running, p.Done, p.Failed, p.Event, p.Job)
		}
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	if *httpAddr != "" {
		srv, serr := telemetry.Serve(*httpAddr, telemetry.ServeOptions{
			Metrics: func() *telemetry.Snapshot { return reg.Sample(0) },
			Progress: func() any {
				progressMu.Lock()
				defer progressMu.Unlock()
				return lastProgress
			},
		})
		if serr != nil {
			fmt.Fprintln(os.Stderr, "amntcrash: http:", serr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "amntcrash: introspection at http://%s/\n", srv.Addr())
		defer srv.Close()
	}

	start := time.Now()
	matrix, err := faults.Sweep(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amntcrash:", err)
		os.Exit(1)
	}

	if *traceOut != "" {
		f, ferr := os.Create(*traceOut)
		if ferr == nil {
			ferr = trace.WriteJSONL(f)
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "amntcrash: trace:", ferr)
			os.Exit(1)
		}
	}
	switch *jsonOut {
	case "":
		fmt.Println(matrix.Render().Render())
		fmt.Printf("%d cells, %d faults injected, %v elapsed\n",
			counters.Cells.Load(), counters.Faults.Load(), time.Since(start).Round(time.Millisecond))
	case "-":
		if err := matrix.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "amntcrash:", err)
			os.Exit(1)
		}
	default:
		f, ferr := os.Create(*jsonOut)
		if ferr == nil {
			ferr = matrix.WriteJSON(f)
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "amntcrash:", ferr)
			os.Exit(1)
		}
		fmt.Println(matrix.Render().Render())
		fmt.Printf("%d cells, %d faults injected, %v elapsed; matrix written to %s\n",
			counters.Cells.Load(), counters.Faults.Load(), time.Since(start).Round(time.Millisecond), *jsonOut)
	}

	if violations := matrix.Violations(); len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "amntcrash: %d invariant violations:\n", len(violations))
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  "+v)
		}
		os.Exit(1)
	}
}
