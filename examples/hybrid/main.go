// hybrid: the paper's §7.3 sketch made concrete — one machine, one
// integrity tree, two memory technologies. The low half of physical
// memory is SCM (crash-consistent under AMNT), the high half is DRAM
// (plain write-back BMT; its data dies with power anyway). The
// example places a durable write-ahead log on SCM and a scratch cache
// on DRAM, crashes the machine, and shows the log surviving while the
// scratch region resets — with tampering detected on both sides.
package main

import (
	"fmt"
	"log"

	"amnt/internal/core"
	"amnt/internal/mee"
	"amnt/internal/scm"
)

func main() {
	dev := scm.New(scm.Config{CapacityBytes: 16 << 20})
	policy := NewPolicy(4, core.WithLevel(3)) // low 4/8 of memory is SCM
	ctrl := mee.New(dev, mee.DefaultConfig(), policy)
	fmt.Println("machine:", policy.String())

	// Geometry: 16 MiB => 4096 pages => blocks 0..262143; the SCM
	// partition is the low half.
	scmBase := uint64(0)       // durable write-ahead log lives here
	dramBase := uint64(200000) // scratch cache lives in the DRAM half

	writeString := func(block uint64, s string) {
		buf := make([]byte, scm.BlockSize)
		copy(buf, s)
		if _, err := ctrl.WriteBlock(0, block, buf); err != nil {
			log.Fatal(err)
		}
	}
	readString := func(block uint64) string {
		buf := make([]byte, scm.BlockSize)
		if _, err := ctrl.ReadBlock(0, block, buf); err != nil {
			log.Fatal(err)
		}
		n := 0
		for n < len(buf) && buf[n] != 0 {
			n++
		}
		return string(buf[:n])
	}

	// Commit three log records durably; stage scratch data in DRAM.
	for i := 0; i < 3; i++ {
		writeString(scmBase+uint64(i), fmt.Sprintf("log[%d]: commit txn %d", i, 100+i))
	}
	writeString(dramBase, "scratch: memoized query result")
	fmt.Println("before crash:")
	fmt.Println("  ", readString(scmBase+2))
	fmt.Println("  ", readString(dramBase))

	// Power failure.
	ctrl.Crash()
	rep, err := ctrl.Recover(0)
	if err != nil {
		log.Fatal("recovery: ", err)
	}
	fmt.Printf("recovered (%.3f%% of the tree was stale)\n", 100*rep.StaleFraction)

	fmt.Println("after crash:")
	for i := 0; i < 3; i++ {
		fmt.Println("  ", readString(scmBase+uint64(i)), "  [durable on SCM]")
	}
	if s := readString(dramBase); s == "" {
		fmt.Println("   scratch region: empty  [DRAM contents died with power, as they should]")
	} else {
		log.Fatalf("DRAM scratch survived a power failure: %q", s)
	}

	// The DRAM half remains integrity-protected for the new epoch.
	writeString(dramBase, "scratch: rebuilt after reboot")
	dev.TamperByte(scm.Data, dramBase, 2, 0xFF)
	buf := make([]byte, scm.BlockSize)
	if _, err := ctrl.ReadBlock(0, dramBase, buf); err != nil {
		fmt.Println("tamper on the DRAM side detected:", err)
	} else {
		log.Fatal("tampering on DRAM went undetected")
	}
}
