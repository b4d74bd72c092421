package main

import (
	"fmt"

	"amnt/internal/cme"
	"amnt/internal/scm"
)

// An SGX-style tree survives a crash under lazy interior persistence:
// the on-chip root's counters let recovery re-key the interior chain,
// while the strictly persisted leaf counters keep their values.
func Example() {
	dev := scm.New(scm.Config{CapacityBytes: 1 << 20})
	eng := cme.NewEngine(cme.Fast{}, 0xFEED)
	tree := NewTree(dev, eng, 64)

	for i := 0; i < 3; i++ {
		tree.Bump(100, LeafPersist)
	}
	tree.Crash()
	repaired, err := tree.Recover()
	if err != nil {
		fmt.Println("recovery failed:", err)
		return
	}
	counter, _ := tree.LeafCounter(100)
	fmt.Printf("repaired interior nodes: %v; leaf counter = %d\n", repaired > 0, counter)
	// Output:
	// repaired interior nodes: true; leaf counter = 3
}
