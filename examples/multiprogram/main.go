// multiprogram: two programs share one machine and fight over the
// fast subtree — the scenario that motivates AMNT++. The example runs
// the paper's bodytrack+fluidanimate pair on the two-core
// configuration with the stock kernel and with the AMNT++ modified
// buddy allocator, and shows how the biased physical page placement
// restores subtree locality.
package main

import (
	"fmt"
	"log"

	"amnt/internal/core"
	"amnt/internal/sim"
	"amnt/internal/workload"
)

func main() {
	bodytrack, _ := workload.ByName("bodytrack")
	fluid, _ := workload.ByName("fluidanimate")
	specs := []workload.Spec{bodytrack.Scale(0.4), fluid.Scale(0.4)}

	run := func(plusplus bool) sim.Result {
		cfg, err := sim.ConfigFor("multi")
		if err != nil {
			log.Fatal(err)
		}
		cfg.PrefragmentChurn = 40_000 // an aged, fragmented system
		if plusplus {
			cfg.AMNTPlusPlusLevel = 3
		}
		res, err := sim.Run(cfg, core.New(core.WithLevel(3)), specs...)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	plain := run(false)
	biased := run(true)

	fmt.Println("bodytrack + fluidanimate, two cores, aged allocator")
	fmt.Printf("%-22s %15s %15s\n", "", "stock kernel", "AMNT++ kernel")
	fmt.Printf("%-22s %15d %15d\n", "cycles", plain.Cycles, biased.Cycles)
	fmt.Printf("%-22s %14.1f%% %14.1f%%\n", "subtree hit rate", 100*plain.SubtreeHitRate, 100*biased.SubtreeHitRate)
	fmt.Printf("%-22s %15d %15d\n", "subtree movements", plain.Movements, biased.Movements)
	fmt.Printf("%-22s %15d %15d\n", "OS instructions", plain.OSInstructions, biased.OSInstructions)
	speedup := float64(plain.Cycles)/float64(biased.Cycles) - 1
	fmt.Printf("\nAMNT++ speedup: %.1f%% — from physical page placement alone;\n", 100*speedup)
	fmt.Printf("the modified OS costs %.2f%% extra instructions.\n",
		100*(float64(biased.OSInstructions)/float64(plain.OSInstructions)-1))
}
