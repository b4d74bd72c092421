// Command amntrecover explores the recovery-time trade-off space of
// §6.7 with the analytic model: for a given memory size and tolerable
// downtime it reports the recovery time of every protocol and
// recommends the shallowest AMNT subtree level (the one relaxing the
// most memory) that still meets the downtime budget — the decision a
// system administrator makes in BIOS, per §4.1. Measured recoveries
// are Table 4 (measured)'s job (amntbench -table 4).
//
// Examples:
//
//	amntrecover -mem-tb 2
//	amntrecover -mem-tb 128 -budget 1s
//	amntrecover -sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"amnt/internal/recovery"
	"amnt/internal/stats"
)

func main() {
	var (
		memTB  = flag.Float64("mem-tb", 2, "SCM capacity in decimal terabytes")
		budget = flag.Duration("budget", time.Second, "tolerable recovery downtime")
		sweep  = flag.Bool("sweep", false, "print the full Table 4 sweep and exit")
		maxLvl = flag.Int("max-level", 8, "deepest subtree level to consider")
	)
	flag.Parse()

	model := recovery.DefaultModel()
	if *sweep {
		fmt.Println(recovery.Table4(model).Render())
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

	if level := model.RecommendLevel(memBytes, *budget, *maxLvl); level != 0 {
		fmt.Printf("recommendation: AMNT level %d (recovers in %v, fast subtree covers %.3f%% of memory)\n",
			level, model.AMNT(memBytes, level).Round(time.Microsecond),
			100*recovery.StaleFraction("amnt", level))
		return
	}
	fmt.Printf("recommendation: no AMNT level within %d meets the %v budget; consider strict or BMF\n",
		*maxLvl, *budget)
}
