// Command amntbench regenerates the paper's evaluation: every figure
// and table from §6, using the experiment drivers shared with the
// repository's benchmark harness. The selected drivers run as one
// experiment grid (experiments.Run): identical cells (e.g. the
// volatile baselines Figure 5, Figures 6+7 and Table 2 all need)
// simulate once, and each distinct front end is recorded once.
//
// Examples:
//
//	amntbench -fig 4              # single-program PARSEC comparison
//	amntbench -table 4            # recovery-time model
//	amntbench -all -scale 0.25    # everything, quarter-length traces
//	amntbench -ablation           # design-choice ablation studies
//	amntbench -fig 6 -format csv  # machine-readable output
//	amntbench -all -parallel 8 -v # 8 workers, live progress on stderr
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"amnt/internal/experiments"
	"amnt/internal/telemetry"
)

// slugify turns a table title into a safe file stem.
func slugify(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case b.Len() > 0 && !strings.HasSuffix(b.String(), "-"):
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}

// progressLine renders one engine event for -v output.
func progressLine(p experiments.Progress) string {
	counts := fmt.Sprintf("[%d queued %d running %d done", p.Queued, p.Running, p.Done)
	if p.Cached > 0 {
		counts += fmt.Sprintf(" %d cached", p.Cached)
	}
	if p.Failed > 0 {
		counts += fmt.Sprintf(" %d failed", p.Failed)
	}
	counts += "]"
	switch p.Event {
	case experiments.JobDone:
		line := fmt.Sprintf("%s done   %s (%v", counts, p.Job, p.Wall.Round(time.Millisecond))
		if p.Cycles > 0 {
			line += fmt.Sprintf(", %d cycles", p.Cycles)
		}
		line += ")"
		if p.ETA > 0 {
			line += fmt.Sprintf(" eta %v", p.ETA.Round(time.Second))
		}
		return line
	case experiments.JobCached:
		return fmt.Sprintf("%s cached %s", counts, p.Job)
	case experiments.JobFailed:
		return fmt.Sprintf("%s FAILED %s: %v", counts, p.Job, p.Err)
	default:
		return fmt.Sprintf("%s %s %s", counts, p.Event, p.Job)
	}
}

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure to reproduce: 3, 4, 5, 6 (includes 7), 7, 8")
		table    = flag.Int("table", 0, "table to reproduce: 2, 3, 4")
		all      = flag.Bool("all", false, "run every figure and table")
		ablation = flag.Bool("ablation", false, "run the ablation studies")
		storage  = flag.Bool("storage", false, "run the in-memory storage (YCSB) study")
		scale    = flag.Float64("scale", 1.0, "trace length multiplier (smaller = faster)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		level    = flag.Int("level", 3, "AMNT subtree level")
		parallel = flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS); results are identical at any width")
		format   = flag.String("format", "table", "output format: table, csv, json")
		outDir   = flag.String("out", "", "also write each table as a CSV file into this directory")
		telDir   = flag.String("telemetry-dir", "", "write per-cell epoch time series + event traces into this directory")
		epoch    = flag.Uint64("epoch", 0, "telemetry sampling period in simulated cycles (0 = 100000)")
		httpAddr = flag.String("http", "", "serve pprof and engine /progress on this address (e.g. :6060)")
		verbose  = flag.Bool("v", false, "stream live per-job progress to stderr")
	)
	flag.Parse()

	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "amntbench: unknown format %q (want table, csv or json)\n", *format)
		os.Exit(2)
	}

	// Ctrl-C cancels in-flight simulations and exits with the
	// aggregated error instead of killing the process mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := experiments.Options{
		Scale: *scale, Seed: *seed, SubtreeLevel: *level,
		Parallel: *parallel, Context: ctx,
		TelemetryDir: *telDir, EpochCycles: *epoch,
	}
	// /progress serves the last engine event's counters.
	var progressMu sync.Mutex
	var lastProgress experiments.Progress
	opts.Progress = func(p experiments.Progress) {
		progressMu.Lock()
		lastProgress = p
		progressMu.Unlock()
		if *verbose && p.Event != experiments.JobQueued { // queue events are noise at CLI granularity
			fmt.Fprintln(os.Stderr, progressLine(p))
		}
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	if *httpAddr != "" {
		srv, err := telemetry.Serve(*httpAddr, telemetry.ServeOptions{
			Progress: func() any {
				progressMu.Lock()
				defer progressMu.Unlock()
				return lastProgress
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "amntbench: http:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "amntbench: introspection at http://%s/\n", srv.Addr())
	}

	// Each selector picks drivers by name; -all picks every one.
	picked := map[string]bool{
		"figure 3": *fig == 3, "figure 4": *fig == 4, "figure 5": *fig == 5,
		"figures 6+7": *fig == 6 || *fig == 7, "figure 8": *fig == 8,
		"table 2": *table == 2, "table 3": *table == 3,
		"table 4": *table == 4, "table 4 (measured)": *table == 4,
		"storage": *storage,
	}
	var drivers []experiments.Driver
	for _, d := range experiments.All {
		if *all || picked[d.Name] || *ablation && strings.HasPrefix(d.Name, "ablation") {
			drivers = append(drivers, d)
		}
	}
	if len(drivers) == 0 {
		fmt.Fprintln(os.Stderr, "amntbench: nothing selected; use -fig N, -table N, -storage, -ablation, or -all")
		flag.CommandLine.SetOutput(io.Discard)
		flag.Usage()
		os.Exit(2)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "amntbench:", err)
			os.Exit(1)
		}
	}
	tables, err := experiments.Run(opts, drivers...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amntbench:", err)
		os.Exit(1)
	}

	for _, t := range tables {
		switch *format {
		case "csv":
			fmt.Print(t.CSV())
		case "json":
			raw, err := json.MarshalIndent(t, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "amntbench:", err)
				os.Exit(1)
			}
			fmt.Println(string(raw))
		default:
			fmt.Println(t.Render())
		}
		if *outDir != "" {
			name := slugify(t.Title) + ".csv"
			if err := os.WriteFile(filepath.Join(*outDir, name), []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "amntbench:", err)
				os.Exit(1)
			}
		}
	}
}
