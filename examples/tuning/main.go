// tuning: the system-administrator's view (§4.1, §6.7). The AMNT
// subtree level is a BIOS knob trading run-time performance against
// recovery downtime. This example sweeps the level for a workload,
// measures run time and subtree hit rate in simulation, combines them
// with the analytic recovery model at a target memory size, and
// prints the resulting trade-off frontier with recovery.RecommendLevel's
// pick: the shallowest level whose recovery fits the budget.
package main

import (
	"fmt"
	"log"
	"time"

	"amnt/internal/core"
	"amnt/internal/recovery"
	"amnt/internal/sim"
	"amnt/internal/stats"
	"amnt/internal/workload"
)

func main() {
	const deployedTB = 16e12 // the fleet runs 16 TB boxes
	budget := 2 * time.Second

	spec, _ := workload.ByName("deepsjeng")
	spec = spec.Scale(0.4)
	model := recovery.DefaultModel()

	table := stats.NewTable(
		fmt.Sprintf("AMNT subtree level sweep (deepsjeng; recovery modeled at 16 TB, budget %v)", budget),
		"level", "regions", "cycles", "subtree hit", "recovery", "in budget")

	const maxLevel = 6
	for level := 2; level <= maxLevel; level++ {
		cfg := sim.DefaultConfig()
		cfg.PrefragmentChurn = 40_000
		policy := core.New(core.WithLevel(level))
		res, err := sim.Run(cfg, policy, spec)
		if err != nil {
			log.Fatal(err)
		}
		rec := model.AMNT(uint64(deployedTB), level)
		in := "yes"
		if rec > budget {
			in = "no"
		}
		table.AddRow(level, policy.Regions(), res.Cycles,
			fmt.Sprintf("%.1f%%", 100*res.SubtreeHitRate),
			rec.Round(time.Microsecond).String(), in)
	}
	fmt.Println(table.Render())

	level := model.RecommendLevel(uint64(deployedTB), budget, maxLevel)
	if level == 0 {
		fmt.Println("no level meets the budget; deploy strict persistence or shrink memory per node")
		return
	}
	fmt.Printf("recommendation: level %d — shallowest level whose recovery (%v) fits the %v budget\n",
		level, model.AMNT(uint64(deployedTB), level).Round(time.Microsecond), budget)
}
