// sgx: the paper's §2.1 remark, demonstrated — "the proposed protocol
// can be used in an SGX-style BMT with small modifications". This
// example runs the counter-embedded SGX-style integrity tree
// (sgxtree.go) through the same story as the general BMT: lazy
// interior persistence, a crash, bounded recovery from an AMNT-style
// subtree register, and replay detection.
package main

import (
	"fmt"
	"log"

	"amnt/internal/cme"
	"amnt/internal/scm"
)

func main() {
	dev := scm.New(scm.Config{CapacityBytes: 4 << 20})
	eng := cme.NewEngine(cme.Fast{}, 0x5EED)
	tree := NewTree(dev, eng, 512) // 512 leaf nodes, 4 levels

	// Populate two regions strictly, then pin subtree (2,0) in an
	// AMNT-style NV register and let its interior go lazy.
	for i := uint64(0); i < 32; i++ {
		if _, err := tree.Bump(i, Strict); err != nil {
			log.Fatal(err)
		}
		if _, err := tree.Bump(3000+i, Strict); err != nil {
			log.Fatal(err)
		}
	}
	for i := uint64(0); i < 200; i++ {
		if _, err := tree.Bump(i%64, LeafPersist); err != nil {
			log.Fatal(err)
		}
	}
	reg, err := tree.CaptureSubtree(2, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fast subtree pinned at level %d index %d; %d interior nodes dirty\n",
		reg.Level, reg.Index, tree.DirtyNodes())

	// Power failure: the volatile node cache is gone; the register and
	// the leaf-persisted counters survive.
	tree.Crash()
	if _, err := tree.LeafCounter(5); err == nil {
		log.Fatal("stale interior verified without recovery?!")
	}
	repaired, err := tree.SubtreeRecover(reg)
	if err != nil {
		log.Fatal("subtree recovery: ", err)
	}
	c, err := tree.LeafCounter(5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: %d nodes re-keyed inside the subtree; leaf 5 counter = %d\n", repaired, c)

	// A replayed leaf node (old counters + old MAC) is caught by the
	// parent's embedded counter.
	snap := dev.SnapshotBlock(scm.Tree, devLeafIndex(tree, 0))
	if _, err := tree.Bump(0, Strict); err != nil {
		log.Fatal(err)
	}
	dev.ReplayBlock(scm.Tree, devLeafIndex(tree, 0), snap)
	tree.Crash()
	if _, err := tree.LeafCounter(0); err != nil {
		fmt.Println("replay detected:", err)
	} else {
		log.Fatal("replayed leaf node verified — freshness lost")
	}
}

// devLeafIndex computes the Tree-region index of leaf-node 0's block:
// levels 2..Levels-1 precede the leaf level in storage order.
func devLeafIndex(t *Tree, leafNode uint64) uint64 {
	off := uint64(0)
	for l := 2; l < t.Levels; l++ {
		off += uint64(1) << (3 * uint(l-1))
	}
	return off + leafNode
}
