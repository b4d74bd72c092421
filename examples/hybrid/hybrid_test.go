package main

import (
	"bytes"
	"math/rand"
	"testing"

	"amnt/internal/core"
	"amnt/internal/mee"
	"amnt/internal/scm"
)

// 2 MiB device: 512 leaves, 4 levels. With scmSlots=4 the low 1 MiB
// (leaves 0..255, data blocks 0..16383) is SCM, the rest DRAM.
func newHybrid(scmSlots int) (*Policy, *mee.Controller) {
	dev := scm.New(scm.Config{CapacityBytes: 2 << 20, ReadCycles: 610, WriteCycles: 782})
	p := NewPolicy(scmSlots, core.WithLevel(3))
	c := mee.New(dev, mee.DefaultConfig(), p)
	return p, c
}

const (
	scmBlock  = uint64(100)    // leaf 1, level-2 slot 0: SCM
	dramBlock = uint64(20_000) // leaf 312, level-2 slot 4: DRAM (scmSlots=4)
)

func pattern(seed byte) []byte {
	b := make([]byte, scm.BlockSize)
	for i := range b {
		b[i] = seed ^ byte(i*7)
	}
	return b
}

func TestPartitionMath(t *testing.T) {
	p, c := newHybrid(4)
	g := c.Geometry()
	if g.Levels != 4 {
		t.Fatalf("levels = %d", g.Levels)
	}
	if !p.scmCounter(0) || !p.scmCounter(255) {
		t.Fatal("low leaves should be SCM")
	}
	if p.scmCounter(256) || p.scmCounter(511) {
		t.Fatal("high leaves should be DRAM")
	}
	if !p.scmNode(3, 31) || p.scmNode(3, 32) {
		t.Fatal("level-3 partition boundary wrong")
	}
	if !p.scmNode(2, 3) || p.scmNode(2, 4) {
		t.Fatal("level-2 partition boundary wrong")
	}
	if p.SCMSlots() != 4 {
		t.Fatalf("slots = %d", p.SCMSlots())
	}
}

func TestSlotClamping(t *testing.T) {
	if NewPolicy(0).scmSlots != 1 {
		t.Fatal("zero slots should clamp to 1")
	}
	if NewPolicy(99).scmSlots != 8 {
		t.Fatal("slots should clamp to arity")
	}
}

func TestRoundTripBothPartitions(t *testing.T) {
	_, c := newHybrid(4)
	for _, b := range []uint64{scmBlock, dramBlock} {
		if _, err := c.WriteBlock(0, b, pattern(byte(b))); err != nil {
			t.Fatalf("write %d: %v", b, err)
		}
		got := make([]byte, scm.BlockSize)
		if _, err := c.ReadBlock(0, b, got); err != nil {
			t.Fatalf("read %d: %v", b, err)
		}
		if !bytes.Equal(got, pattern(byte(b))) {
			t.Fatalf("block %d round trip mismatch", b)
		}
	}
}

func TestDRAMWritesPersistNothing(t *testing.T) {
	_, c := newHybrid(4)
	if _, err := c.WriteBlock(0, dramBlock, pattern(1)); err != nil {
		t.Fatal(err)
	}
	st := c.Device().Stats()
	if st.RegionWrites[scm.Counter].Value() != 0 {
		t.Fatal("DRAM write persisted a counter")
	}
	if st.RegionWrites[scm.Tree].Value() != 0 {
		t.Fatal("DRAM write persisted tree nodes")
	}
	// SCM writes do persist.
	if _, err := c.WriteBlock(0, scmBlock, pattern(2)); err != nil {
		t.Fatal(err)
	}
	if st.RegionWrites[scm.Counter].Value() == 0 {
		t.Fatal("SCM write did not persist its counter")
	}
}

func TestCrashKeepsSCMLosesDRAM(t *testing.T) {
	_, c := newHybrid(4)
	if _, err := c.WriteBlock(0, scmBlock, pattern(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteBlock(0, dramBlock, pattern(4)); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	rep, err := c.Recover(0)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if rep.Protocol != "hybrid" {
		t.Fatalf("protocol = %q", rep.Protocol)
	}
	got := make([]byte, scm.BlockSize)
	if _, err := c.ReadBlock(0, scmBlock, got); err != nil {
		t.Fatalf("SCM read after crash: %v", err)
	}
	if !bytes.Equal(got, pattern(3)) {
		t.Fatal("SCM data lost")
	}
	// DRAM contents are gone: the block reads as uninitialized zeros.
	if _, err := c.ReadBlock(0, dramBlock, got); err != nil {
		t.Fatalf("DRAM read after crash: %v", err)
	}
	if !bytes.Equal(got, make([]byte, scm.BlockSize)) {
		t.Fatal("DRAM data survived a power failure?!")
	}
	if err := c.VerifyAll(0); err != nil {
		t.Fatalf("post-recovery integrity: %v", err)
	}
}

// TestOnlineRecoveryServesBothPartitions: the hybrid plan is AMNT's
// plus the DRAM-reset pre-pass, so it recovers online. Degraded writes
// land in the fast subtree (SCM), elsewhere on SCM, and on DRAM; after
// Finish every write reads back and the tree survives a blocking power
// cycle, which keeps the SCM writes only.
func TestOnlineRecoveryServesBothPartitions(t *testing.T) {
	p, c := newHybrid(4)
	if _, err := c.WriteBlock(0, scmBlock, pattern(3)); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	s, err := c.BeginRecovery(0)
	if s == nil {
		t.Fatalf("hybrid must recover online: %v", err)
	}
	lo, _ := c.Geometry().LeafSpan(p.Level(), p.SubtreeIndex())
	want := map[uint64][]byte{scmBlock: pattern(3)}
	for i, b := range []uint64{lo * 64, lo*64 + 1, 8000, dramBlock} {
		want[b] = pattern(byte(10 + i))
		if _, err := c.WriteBlock(0, b, want[b]); err != nil {
			t.Fatalf("degraded write %d: %v", b, err)
		}
		s.Step(1)
	}
	if _, err := s.Finish(0); err != nil {
		t.Fatalf("finish: %v", err)
	}
	got := make([]byte, scm.BlockSize)
	for b, v := range want {
		if _, err := c.ReadBlock(0, b, got); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("block %d after finish: %v", b, err)
		}
	}
	c.Crash()
	if _, err := c.Recover(0); err != nil {
		t.Fatalf("blocking recovery after the session: %v", err)
	}
	if err := c.VerifyAll(0); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if _, err := c.ReadBlock(0, dramBlock, got); err != nil || !bytes.Equal(got, make([]byte, scm.BlockSize)) {
		t.Fatalf("DRAM block after a power cycle: %v", err)
	}
}

func TestDRAMReusableAfterRecovery(t *testing.T) {
	_, c := newHybrid(4)
	if _, err := c.WriteBlock(0, dramBlock, pattern(5)); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	// Fresh writes to the wiped partition verify normally.
	if _, err := c.WriteBlock(0, dramBlock+3, pattern(6)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, scm.BlockSize)
	if _, err := c.ReadBlock(0, dramBlock+3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(6)) {
		t.Fatal("post-recovery DRAM write lost")
	}
}

func TestSubtreeStaysOnSCM(t *testing.T) {
	p, c := newHybrid(4)
	// Hammer the DRAM side; the fast subtree must not chase it.
	for i := 0; i < 300; i++ {
		if _, err := c.WriteBlock(0, dramBlock+uint64(i%512), pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !p.scmNode(p.Level(), p.SubtreeIndex()) {
		t.Fatalf("fast subtree moved to the DRAM partition (idx %d)", p.SubtreeIndex())
	}
}

func TestStaleFractionScaled(t *testing.T) {
	_, c := newHybrid(4)
	if _, err := c.WriteBlock(0, scmBlock, pattern(1)); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	rep, err := c.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	// AMNT level 3 on this geometry => 64 regions; the SCM partition
	// is half... 4/8 of them. StaleFraction = (1/64)*(4/8).
	want := (1.0 / 64) * 0.5
	if rep.StaleFraction != want {
		t.Fatalf("stale fraction = %v, want %v", rep.StaleFraction, want)
	}
}

func TestTamperDetectedOnBothSides(t *testing.T) {
	_, c := newHybrid(4)
	for _, b := range []uint64{scmBlock, dramBlock} {
		if _, err := c.WriteBlock(0, b, pattern(byte(b))); err != nil {
			t.Fatal(err)
		}
		c.Device().TamperByte(scm.Data, b, 7, 0xFF)
		got := make([]byte, scm.BlockSize)
		if _, err := c.ReadBlock(0, b, got); err == nil {
			t.Fatalf("tamper on block %d undetected", b)
		}
	}
}

func TestRandomizedHybridCrashConsistency(t *testing.T) {
	_, c := newHybrid(4)
	rng := rand.New(rand.NewSource(77))
	scmWant := make(map[uint64][]byte)
	got := make([]byte, scm.BlockSize)
	for op := 0; op < 1500; op++ {
		switch r := rng.Intn(100); {
		case r < 30: // SCM write
			b := uint64(rng.Intn(16384))
			data := pattern(byte(rng.Int()))
			if _, err := c.WriteBlock(uint64(op), b, data); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			scmWant[b] = data
		case r < 55: // DRAM write
			b := uint64(16384 + rng.Intn(16384))
			if _, err := c.WriteBlock(uint64(op), b, pattern(byte(rng.Int()))); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		case r < 95: // read anywhere
			b := uint64(rng.Intn(32768))
			if _, err := c.ReadBlock(uint64(op), b, got); err != nil {
				t.Fatalf("op %d read %d: %v", op, b, err)
			}
		default: // crash
			c.Crash()
			if _, err := c.Recover(0); err != nil {
				t.Fatalf("op %d recover: %v", op, err)
			}
		}
	}
	for b, data := range scmWant {
		if _, err := c.ReadBlock(0, b, got); err != nil {
			t.Fatalf("final read %d: %v", b, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("SCM block %d lost data across crashes", b)
		}
	}
}

func TestOverheadAddsVolatileRegister(t *testing.T) {
	p, _ := newHybrid(4)
	amntOnly := core.New(core.WithLevel(3)).Overhead()
	hy := p.Overhead()
	if hy.VolOnChipBytes != amntOnly.VolOnChipBytes+64 {
		t.Fatalf("volatile overhead = %d, want +64 over AMNT", hy.VolOnChipBytes)
	}
	if hy.NVOnChipBytes != amntOnly.NVOnChipBytes {
		t.Fatal("NV overhead should match AMNT")
	}
}
