// Command amntrecover explores the recovery-time trade-off space of
// §6.7: for a given memory size and tolerable downtime it reports the
// recovery time of every protocol and recommends the deepest AMNT
// subtree level (the one protecting the most memory) that still meets
// the downtime budget — the decision a system administrator makes in
// BIOS, per §4.1.
//
// With -measure it goes beyond the analytic model: each protocol runs
// a small functional workload through the fault-injection harness —
// crash at -crash-cycle (0 = quiescence), optionally with an injected
// fault (-inject torn|drop|reorder|bitrot), then real recovery —
// reporting simulated recovery cycles, the model's projection from the
// measured block counts, host wall-clock time, blocks scanned, and the
// invariant checker's verdict.
//
// Examples:
//
//	amntrecover -mem-tb 2
//	amntrecover -mem-tb 128 -budget 1s
//	amntrecover -sweep
//	amntrecover -measure -measure-mem-mb 128
//	amntrecover -measure -crash-cycle 2000000 -inject torn -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"amnt/internal/faults"
	"amnt/internal/recovery"
	"amnt/internal/stats"
	"amnt/internal/workload"
)

func main() {
	var (
		memTB    = flag.Float64("mem-tb", 2, "SCM capacity in decimal terabytes")
		budget   = flag.Duration("budget", time.Second, "tolerable recovery downtime")
		sweep    = flag.Bool("sweep", false, "print the full Table 4 sweep and exit")
		maxLvl   = flag.Int("max-level", 8, "deepest subtree level to consider")
		measure  = flag.Bool("measure", false, "crash a real (small) machine per protocol and measure recovery")
		measMB   = flag.Int("measure-mem-mb", 128, "SCM capacity for -measure, in MiB")
		seed     = flag.Int64("seed", 1, "machine/workload seed for -measure (also drives the fault choice)")
		crashCyc = flag.Uint64("crash-cycle", 0, "simulated cycle to crash at for -measure (0 = after the full run)")
		inject   = flag.String("inject", "crash", "fault to inject at the crash point for -measure: crash, torn, drop, reorder, bitrot")
	)
	flag.Parse()

	model := recovery.DefaultModel()
	if *sweep {
		fmt.Println(recovery.Table4(model).Render())
		return
	}
	if *measure {
		kind, err := faults.ParseKind(*inject)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amntrecover:", err)
			os.Exit(2)
		}
		measureRecovery(model, uint64(*measMB)<<20, *seed, *crashCyc, kind)
		return
	}
	memBytes := uint64(*memTB * 1e12)
	if memBytes == 0 {
		fmt.Fprintln(os.Stderr, "amntrecover: memory size must be positive")
		os.Exit(2)
	}

	t := stats.NewTable(
		fmt.Sprintf("Recovery at %.2f TB (budget %v)", *memTB, *budget),
		"protocol", "recovery time", "BMT stale", "meets budget")
	add := func(name string, d time.Duration, stale float64) {
		meets := "yes"
		if d > *budget {
			meets = "no"
		}
		t.AddRow(name, d.Round(time.Microsecond).String(), fmt.Sprintf("%.3f%%", 100*stale), meets)
	}
	add("strict", model.Strict(memBytes), 0)
	add("bmf", model.BMF(memBytes), 0)
	add("anubis", model.Anubis(memBytes), 0)
	add("leaf", model.Leaf(memBytes), 1)
	add("osiris", model.Osiris(memBytes), 1)
	add("triad-m2", model.Triad(memBytes, 2), 0)
	for level := 2; level <= *maxLvl; level++ {
		add(fmt.Sprintf("amnt-l%d", level), model.AMNT(memBytes, level),
			recovery.StaleFraction("amnt", level))
	}
	fmt.Println(t.Render())

	// Recommend the shallowest AMNT level meeting the budget: deeper
	// levels recover faster but relax less memory (lower subtree hit
	// rates), so the shallowest feasible level maximizes performance.
	for level := 2; level <= *maxLvl; level++ {
		if d := model.AMNT(memBytes, level); d <= *budget {
			cover := 100 * recovery.StaleFraction("amnt", level)
			fmt.Printf("recommendation: AMNT level %d (recovers in %v, fast subtree covers %.3f%% of memory)\n",
				level, d.Round(time.Microsecond), cover)
			return
		}
	}
	fmt.Printf("recommendation: no AMNT level within %d meets the %v budget; consider strict or BMF\n",
		*maxLvl, *budget)
}

// measureRecovery runs a functional crash/recovery per protocol
// through the fault-injection harness: real traffic fills the device,
// the machine crashes at crashCycle (0 = quiescence), the chosen fault
// lands on the device, and the protocol's actual recovery procedure
// runs under the invariant checker — timed in simulated cycles,
// projected through the analytic model, and timed on the host. The
// checker's verdict closes the loop: "recovered" means every
// independent invariant held, "detected" means the corruption surfaced
// loudly, and any violation fails the process.
func measureRecovery(model recovery.Model, memBytes uint64, seed int64, crashCycle uint64, kind faults.Kind) {
	title := fmt.Sprintf("Measured recovery at %d MiB (seed %d", memBytes>>20, seed)
	if crashCycle != 0 {
		title += fmt.Sprintf(", crash @%d", crashCycle)
	}
	if kind != faults.KindCrash {
		title += ", inject " + kind.String()
	}
	title += ")"
	t := stats.NewTable(title,
		"protocol", "sim cycles", "modeled time", "host wall",
		"counters", "data", "nodes", "shadow", "stale", "faults", "verdict")
	spec := workload.Spec{
		Name: "fill", Suite: "bench", FootprintBytes: memBytes / 2,
		WriteRatio: 0.6, GapMean: 2, Model: workload.Chase,
		Accesses: 60_000,
	}
	violations := 0
	for _, proto := range []string{"strict", "leaf", "osiris", "anubis", "bmf", "amnt", "amnt-multi"} {
		res := faults.RunCell(context.Background(), faults.CellSpec{
			Protocol:    proto,
			Kind:        kind,
			CrashCycle:  crashCycle,
			MachineSeed: seed,
			RNGSeed:     seed,
			MemoryBytes: memBytes,
			Workload:    spec,
		})
		verdict := res.Status
		switch {
		case res.Error != "":
			verdict += ": " + res.Error
		case res.RecoveryErr != "":
			verdict += ": " + res.RecoveryErr
		case res.VerifyErr != "":
			verdict += ": " + res.VerifyErr
		}
		if res.Status == faults.StatusViolation.String() {
			violations++
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "amntrecover: %s: VIOLATION: %s\n", proto, v)
			}
		}
		rep := res.Report
		t.AddRow(proto, rep.Cycles,
			model.FromReport(rep).Round(time.Microsecond).String(),
			res.RecoverWall.Round(time.Microsecond).String(),
			rep.CounterReads, rep.DataReads, rep.NodeWrites, rep.ShadowReads,
			fmt.Sprintf("%.3f%%", 100*rep.StaleFraction), len(res.Injections), verdict)
	}
	t.AddNote("modeled time projects the measured block counts through the Table 4 latency model; host wall is simulator time, not hardware")
	fmt.Println(t.Render())
	if violations > 0 {
		os.Exit(1)
	}
}
