// Command amntsim runs one workload under one secure-SCM persistence
// protocol on the paper's machine configuration and prints the full
// result: cycles, CPI, cache behaviour, secure-memory traffic, and
// protocol-specific statistics (AMNT subtree hit rate and movements).
//
// Examples:
//
//	amntsim -workload lbm -protocol amnt
//	amntsim -workload canneal -protocol anubis -scale 0.5
//	amntsim -workload bodytrack,fluidanimate -protocol amnt++ -config multi
//	amntsim -workload lbm -record lbm.trace        # freeze the trace
//	amntsim -replay lbm.trace -protocol strict     # replay it exactly
//	amntsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"amnt/internal/cpu"
	"amnt/internal/sim"
	"amnt/internal/telemetry"
	"amnt/internal/workload"
)

func main() {
	var (
		workloads = flag.String("workload", "quickstart", "comma-separated workload name(s); one core per workload")
		protocol  = flag.String("protocol", "amnt", "persistence protocol: "+strings.Join(sim.PolicyNames(), ", "))
		config    = flag.String("config", "auto", "machine config: single, multi, threads, auto")
		scale     = flag.Float64("scale", 1.0, "trace length multiplier")
		level     = flag.Int("level", 3, "AMNT subtree level (paper numbering, root=1)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		memGB     = flag.Int("mem-gb", 8, "SCM capacity in GiB")
		churn     = flag.Int("churn", 40000, "allocator prefragmentation churn (0 = pristine)")
		crash     = flag.Bool("crash", false, "crash after the run and measure recovery")
		record    = flag.String("record", "", "write the workload's trace to this file and exit")
		saveCkpt  = flag.String("save-checkpoint", "", "write a machine checkpoint after the run")
		loadCkpt  = flag.String("load-checkpoint", "", "restore a machine checkpoint before the run")
		replay    = flag.String("replay", "", "run from a recorded trace file instead of -workload")
		statsFile = flag.String("stats-file", "", "also write gem5-style stats to this file")
		jsonOut   = flag.Bool("json", false, "print the result as JSON instead of the text report")
		traceOut  = flag.String("trace", "", "write the protocol event trace (JSONL) to this file")
		seriesOut = flag.String("timeseries", "", "write the epoch metric time series to this file (.csv = CSV, else JSONL)")
		epoch     = flag.Uint64("epoch", 0, "telemetry sampling period in simulated cycles (0 = 100000)")
		httpAddr  = flag.String("http", "", "serve pprof, /metrics, and /vars on this address (e.g. :6060)")
		list      = flag.Bool("list", false, "list workloads and registered protocols, then exit")
	)
	flag.Parse()

	if *list {
		// PolicyNames reflects the mee protocol registry, so policies
		// registered by other packages (the AMNT family lives in
		// internal/core) appear here automatically.
		fmt.Println("workloads:", strings.Join(workload.Names(), " "), "quickstart")
		fmt.Println("protocols:", strings.Join(sim.PolicyNames(), " "))
		return
	}

	var specs []workload.Spec
	var sources []workload.Source
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amntsim:", err)
			os.Exit(2)
		}
		defer f.Close()
		rec, err := workload.OpenRecorded(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amntsim:", err)
			os.Exit(2)
		}
		sources = append(sources, rec)
		specs = append(specs, rec.Spec())
	}
	for _, name := range strings.Split(*workloads, ",") {
		if *replay != "" {
			break
		}
		name = strings.TrimSpace(name)
		spec, ok := workload.ByName(name)
		if !ok {
			if name == "quickstart" {
				spec = workload.Quickstart()
			} else {
				fmt.Fprintf(os.Stderr, "amntsim: unknown workload %q (try -list)\n", name)
				os.Exit(2)
			}
		}
		specs = append(specs, spec.Scale(*scale))
	}

	if *record != "" {
		if len(specs) != 1 {
			fmt.Fprintln(os.Stderr, "amntsim: -record takes exactly one workload per file")
			os.Exit(2)
		}
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amntsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := workload.Record(specs[0], *seed, f); err != nil {
			fmt.Fprintln(os.Stderr, "amntsim: record:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %s (%d accesses) to %s\n", specs[0].Name, specs[0].Accesses, *record)
		return
	}

	cfg := sim.DefaultConfig()
	cfg.MemoryBytes = uint64(*memGB) << 30
	cfg.Seed = *seed
	cfg.SubtreeLevel = *level
	cfg.PrefragmentChurn = *churn
	cfg.AMNTPlusPlus = *protocol == "amnt++"
	kind := *config
	if kind == "auto" {
		if len(specs) > 1 {
			kind = "multi"
		} else {
			kind = "single"
		}
	}
	switch kind {
	case "single":
		cfg.Core = cpu.SingleProgram()
	case "multi":
		cfg.Core = cpu.MultiProgram()
		cfg.L3Bytes = 1 << 20
		cfg.StopAtFirstDone = true
	case "threads":
		cfg.Core = cpu.MultiThread()
		cfg.L3Bytes = 8 << 20
		cfg.SharedAddressSpace = true
		cfg.StopAtFirstDone = true
	default:
		fmt.Fprintf(os.Stderr, "amntsim: unknown config %q\n", kind)
		os.Exit(2)
	}

	policy, err := sim.PolicyByName(*protocol, *level)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amntsim:", err)
		os.Exit(2)
	}

	var m *sim.Machine
	if len(sources) > 0 {
		m = sim.NewMachineWithSources(cfg, policy, sources)
	} else {
		m = sim.NewMachine(cfg, policy, specs)
	}
	var tel *telemetry.Session
	if *traceOut != "" || *seriesOut != "" || *httpAddr != "" {
		tel = m.EnableTelemetry(telemetry.Config{EpochCycles: *epoch})
	}
	if *httpAddr != "" {
		srv, serr := telemetry.Serve(*httpAddr, telemetry.ServeOptions{Metrics: tel.Registry.Latest})
		if serr != nil {
			fmt.Fprintln(os.Stderr, "amntsim: http:", serr)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "amntsim: introspection at http://%s/\n", srv.Addr())
	}
	if *loadCkpt != "" {
		f, err := os.Open(*loadCkpt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amntsim:", err)
			os.Exit(1)
		}
		err = m.Controller().LoadCheckpoint(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "amntsim: load checkpoint:", err)
			os.Exit(1)
		}
		fmt.Printf("restored checkpoint from %s\n", *loadCkpt)
	}
	res, err := m.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "amntsim: run:", err)
		os.Exit(1)
	}

	if *jsonOut {
		raw, jerr := json.MarshalIndent(res, "", "  ")
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "amntsim:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(raw))
	} else {
		printReport(res, m)
	}

	if *statsFile != "" {
		f, err := os.Create(*statsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amntsim:", err)
			os.Exit(1)
		}
		werr := res.Dump(f)
		f.Close()
		if werr != nil {
			fmt.Fprintln(os.Stderr, "amntsim: stats:", werr)
			os.Exit(1)
		}
	}

	if *saveCkpt != "" {
		f, err := os.Create(*saveCkpt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amntsim:", err)
			os.Exit(1)
		}
		err = m.Controller().SaveCheckpoint(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "amntsim: save checkpoint:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint saved to %s\n", *saveCkpt)
	}

	if *crash {
		m.Crash()
		rep, err := m.Controller().Recover(m.Now())
		if err != nil {
			fmt.Fprintln(os.Stderr, "amntsim: recovery:", err)
			os.Exit(1)
		}
		fmt.Printf("recovery:         counters=%d data=%d nodes=%d shadow=%d stale=%.4f\n",
			rep.CounterReads, rep.DataReads, rep.NodeWrites, rep.ShadowReads, rep.StaleFraction)
		if err := m.Controller().VerifyAll(m.Now()); err != nil {
			fmt.Fprintln(os.Stderr, "amntsim: post-recovery verify:", err)
			os.Exit(1)
		}
		fmt.Println("post-recovery integrity: OK")
	}

	// Telemetry outputs are written last so crash/recovery and
	// checkpoint events land in the trace.
	if tel != nil {
		tel.Flush(m.Now())
		if *seriesOut != "" {
			f, err := os.Create(*seriesOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "amntsim:", err)
				os.Exit(1)
			}
			if strings.HasSuffix(*seriesOut, ".csv") {
				err = tel.Series.WriteCSV(f)
			} else {
				err = tel.Series.WriteJSONL(f)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "amntsim: timeseries:", err)
				os.Exit(1)
			}
			fmt.Printf("timeseries:       %d samples to %s\n", tel.Series.Len(), *seriesOut)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "amntsim:", err)
				os.Exit(1)
			}
			err = tel.Trace.WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "amntsim: trace:", err)
				os.Exit(1)
			}
			fmt.Printf("trace:            %d events to %s (%d overwritten)\n",
				tel.Trace.Total()-tel.Trace.Dropped(), *traceOut, tel.Trace.Dropped())
		}
	}
}

// printReport writes the human-readable result summary.
func printReport(res sim.Result, m *sim.Machine) {
	fmt.Printf("workloads:        %s\n", strings.Join(res.Workloads, "+"))
	fmt.Printf("protocol:         %s\n", res.Policy)
	fmt.Printf("cycles:           %d\n", res.Cycles)
	fmt.Printf("instructions:     %d (OS: %d)\n", res.Instructions, res.OSInstructions)
	fmt.Printf("CPI:              %.3f\n", res.CyclesPerInstruction())
	fmt.Printf("accesses:         %d\n", res.Accesses)
	fmt.Printf("L1 hit rate:      %.2f%%\n", 100*res.L1HitRate)
	fmt.Printf("meta hit rate:    %.2f%%\n", 100*res.MetaHitRate)
	fmt.Printf("MEE reads:        %d\n", res.Reads)
	fmt.Printf("MEE writes:       %d\n", res.Writes)
	fmt.Printf("device reads:     %d\n", res.DeviceReads)
	fmt.Printf("device writes:    %d\n", res.DeviceWrites)
	fmt.Printf("page faults:      %d\n", res.PageFaults)
	fmt.Printf("meta fetches:     %d\n", res.MetaFetches)
	fmt.Printf("sync persists:    %d\n", res.SyncPersists)
	fmt.Printf("posted writes:    %d (merged %d)\n", res.PostedWrites, res.MergedWrites)
	fmt.Printf("stall cycles:     %d\n", res.StallCycles)
	fmt.Printf("wq occupancy:     p50=%d p99=%d\n", res.WQOccupancyP50, res.WQOccupancyP99)
	fmt.Printf("counter overflow: %d\n", res.Overflows)
	if res.SubtreeHitRate > 0 || res.Movements > 0 {
		fmt.Printf("subtree hit rate: %.2f%%\n", 100*res.SubtreeHitRate)
		fmt.Printf("subtree moves:    %d (%.2f per 1000 writes)\n",
			res.Movements, 1000*float64(res.Movements)/float64(max64(res.Writes, 1)))
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
