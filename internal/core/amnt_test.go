package core

import (
	"bytes"
	"math/rand"
	"testing"

	"amnt/internal/mee"
	"amnt/internal/scm"
)

func testDevice() *scm.Device {
	// 2 MiB => 512 counter leaves, 4 levels. Subtree level 3 => 64
	// regions of 8 leaves (pages) each.
	return scm.New(scm.Config{CapacityBytes: 2 << 20, ReadCycles: 610, WriteCycles: 782})
}

func newAMNT(opts ...Option) (*AMNT, *mee.Controller) {
	a := New(opts...)
	c := mee.New(testDevice(), mee.DefaultConfig(), a)
	return a, c
}

func pattern(seed byte) []byte {
	b := make([]byte, scm.BlockSize)
	for i := range b {
		b[i] = seed ^ byte(i*5)
	}
	return b
}

func TestDefaults(t *testing.T) {
	a, _ := newAMNT()
	if a.Level() != 3 {
		t.Fatalf("level = %d, want 3", a.Level())
	}
	if a.Regions() != 64 {
		t.Fatalf("regions = %d, want 64", a.Regions())
	}
	if a.Name() != "amnt" {
		t.Fatalf("name = %q", a.Name())
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

func TestLevelClamping(t *testing.T) {
	// The device tree has 4 levels; level 9 must clamp to 3 (deepest
	// inner level).
	a, _ := newAMNT(WithLevel(9))
	if a.Level() != 3 {
		t.Fatalf("level = %d, want clamp to 3", a.Level())
	}
	b := New(WithLevel(-2))
	if b.level != 1 {
		t.Fatalf("negative level = %d, want 1", b.level)
	}
	c := New(WithInterval(0))
	if c.interval != 1 {
		t.Fatalf("interval = %d, want 1", c.interval)
	}
}

func TestOverheadTable3(t *testing.T) {
	a, _ := newAMNT()
	o := a.Overhead()
	if o.NVOnChipBytes != 64 {
		t.Fatalf("NV = %d, want 64", o.NVOnChipBytes)
	}
	if o.VolOnChipBytes != 96 {
		t.Fatalf("vol = %d, want 96 (768-bit history buffer)", o.VolOnChipBytes)
	}
	if o.InMemoryBytes != 0 {
		t.Fatalf("in-memory = %d, want 0", o.InMemoryBytes)
	}
}

func TestRoundTrip(t *testing.T) {
	_, c := newAMNT()
	want := pattern(3)
	if _, err := c.WriteBlock(0, 7, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, scm.BlockSize)
	if _, err := c.ReadBlock(0, 7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
}

func TestSubtreeHitTracking(t *testing.T) {
	a, c := newAMNT()
	// Region 0 = leaves 0..7 = data blocks 0..511. Write only there:
	// the boot subtree is region 0, so every write is a hit.
	for i := uint64(0); i < 100; i++ {
		if _, err := c.WriteBlock(0, i%512, pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if a.SubtreeHitRate() != 1.0 {
		t.Fatalf("hit rate = %v, want 1.0", a.SubtreeHitRate())
	}
	if a.Movements() != 0 {
		t.Fatalf("movements = %d, want 0", a.Movements())
	}
	if a.SubtreeWrites() != 100 {
		t.Fatalf("writes = %d", a.SubtreeWrites())
	}
}

func TestSubtreeMovesToHotRegion(t *testing.T) {
	a, c := newAMNT()
	// Hammer region 5 (leaves 40..47 = data blocks 2560..3071).
	for i := uint64(0); i < 200; i++ {
		if _, err := c.WriteBlock(0, 2560+i%512, pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if a.SubtreeIndex() != 5 {
		t.Fatalf("subtree index = %d, want 5", a.SubtreeIndex())
	}
	if a.Movements() != 1 {
		t.Fatalf("movements = %d, want exactly 1", a.Movements())
	}
	// After the move, writes in region 5 are hits again.
	before := a.SubtreeHitRate()
	for i := uint64(0); i < 200; i++ {
		if _, err := c.WriteBlock(0, 2560+i%512, pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if a.SubtreeHitRate() <= before {
		t.Fatal("hit rate did not improve after movement")
	}
}

func TestTiesKeepCurrentSubtree(t *testing.T) {
	a, c := newAMNT(WithInterval(4))
	// Alternate equally between region 0 (current) and region 1: ties
	// must keep the current root.
	blocks := []uint64{0, 512, 1, 513} // regions 0,1,0,1
	for _, b := range blocks {
		if _, err := c.WriteBlock(0, b, pattern(1)); err != nil {
			t.Fatal(err)
		}
	}
	if a.Movements() != 0 {
		t.Fatalf("tie caused a movement (subtree now %d)", a.SubtreeIndex())
	}
}

func TestStrictOutsideLazyInside(t *testing.T) {
	_, c := newAMNT()
	// Inside write (region 0): no blocking persists, dirty tree nodes.
	if _, err := c.WriteBlock(0, 0, pattern(1)); err != nil {
		t.Fatal(err)
	}
	if c.Stats().SyncPersists.Value() != 0 {
		t.Fatal("inside-subtree write blocked on tree persists")
	}
	if len(c.DirtyTreeKeys(nil)) == 0 {
		t.Fatal("inside-subtree write left no dirty tree nodes")
	}
	// Outside write (region 63, leaf 504+): blocking persists.
	if _, err := c.WriteBlock(0, 511*64, pattern(2)); err != nil {
		t.Fatal(err)
	}
	if c.Stats().SyncPersists.Value() == 0 {
		t.Fatal("outside-subtree write did not persist strictly")
	}
}

func TestMovementFlushesDirtyNodes(t *testing.T) {
	a, c := newAMNT()
	for i := uint64(0); i < 63; i++ { // stay below the interval
		if _, err := c.WriteBlock(0, i%512, pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.DirtyTreeKeys(nil)) == 0 {
		t.Fatal("precondition: want dirty nodes before movement")
	}
	// Next interval is dominated by region 9.
	for i := uint64(0); i < 70; i++ {
		if _, err := c.WriteBlock(0, 9*512+(i%512), pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if a.SubtreeIndex() != 9 {
		t.Fatalf("subtree = %d, want 9", a.SubtreeIndex())
	}
	if a.FlushedNodes() == 0 {
		t.Fatal("movement flushed nothing")
	}
	// All surviving dirty nodes must belong to the new subtree's
	// universe (old subtree fully flushed at movement time).
	for _, key := range c.DirtyTreeKeys(func(level int, idx uint64) bool {
		return level >= a.Level() && idx>>(3*uint(level-a.Level())) != a.SubtreeIndex()
	}) {
		lvl, idx := key.TreeNode(c.Geometry())
		if lvl >= a.Level() {
			t.Fatalf("dirty node (%d,%d) outside new subtree", lvl, idx)
		}
	}
}

func TestCrashRecovery(t *testing.T) {
	for _, level := range []int{1, 2, 3} {
		a, c := newAMNT(WithLevel(level))
		rng := rand.New(rand.NewSource(int64(level)))
		want := make(map[uint64][]byte)
		for i := 0; i < 300; i++ {
			b := uint64(rng.Intn(4096))
			data := pattern(byte(rng.Int()))
			if _, err := c.WriteBlock(uint64(i), b, data); err != nil {
				t.Fatalf("level %d write: %v", level, err)
			}
			want[b] = data
		}
		c.Crash()
		rep, err := c.Recover(0)
		if err != nil {
			t.Fatalf("level %d recovery: %v", level, err)
		}
		wantStale := 1 / float64(a.Regions())
		if rep.StaleFraction != wantStale {
			t.Fatalf("level %d stale fraction = %v, want %v", level, rep.StaleFraction, wantStale)
		}
		if err := c.VerifyAll(0); err != nil {
			t.Fatalf("level %d post-recovery verify: %v", level, err)
		}
		got := make([]byte, scm.BlockSize)
		for b, data := range want {
			if _, err := c.ReadBlock(0, b, got); err != nil {
				t.Fatalf("level %d block %d: %v", level, b, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("level %d block %d lost data", level, b)
			}
		}
	}
}

func TestCrashAfterMovement(t *testing.T) {
	a, c := newAMNT()
	// Move the subtree, then keep writing in the new region, then
	// crash without a flush.
	for i := uint64(0); i < 100; i++ {
		if _, err := c.WriteBlock(0, 7*512+i%512, pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if a.SubtreeIndex() != 7 {
		t.Fatalf("subtree = %d, want 7", a.SubtreeIndex())
	}
	c.Crash()
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyAll(0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, scm.BlockSize)
	if _, err := c.ReadBlock(0, 7*512+99%512, got); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryBoundedToSubtree(t *testing.T) {
	_, c := newAMNT()
	// Touch every region so counters exist across the whole tree, but
	// only region 0 (the subtree) is lazy.
	for r := uint64(0); r < 64; r++ {
		if _, err := c.WriteBlock(0, r*512, pattern(byte(r))); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash()
	rep, err := c.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the subtree's counters (region with 8 leaves) should be
	// read during reconstruction, not all 64 touched pages.
	if rep.CounterReads > 8 {
		t.Fatalf("recovery read %d counter blocks, want <= 8 (one region)", rep.CounterReads)
	}
}

func TestTamperDetectedAcrossCrash(t *testing.T) {
	_, c := newAMNT()
	for i := uint64(0); i < 100; i++ {
		if _, err := c.WriteBlock(0, i*40, pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash()
	idxs := c.Device().Indices(scm.Counter)
	c.Device().TamperByte(scm.Counter, idxs[0], 2, 0xFF)
	_, err := c.Recover(0)
	if err == nil {
		err = c.VerifyAll(0)
	}
	if err == nil {
		t.Fatal("counter tamper survived crash+recovery undetected")
	}
}

func TestRandomizedCrashConsistency(t *testing.T) {
	for _, level := range []int{2, 3} {
		rng := rand.New(rand.NewSource(1234))
		_, c := newAMNT(WithLevel(level), WithInterval(16))
		want := make(map[uint64][]byte)
		got := make([]byte, scm.BlockSize)
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(100); {
			case r < 60:
				b := uint64(rng.Intn(4096))
				// Skew towards a hot region to trigger movements.
				if rng.Intn(3) > 0 {
					b = uint64(rng.Intn(512)) + 512*uint64(op/500)
				}
				data := pattern(byte(rng.Int()))
				if _, err := c.WriteBlock(uint64(op), b, data); err != nil {
					t.Fatalf("op %d write: %v", op, err)
				}
				want[b] = data
			case r < 95:
				b := uint64(rng.Intn(4096))
				if _, err := c.ReadBlock(uint64(op), b, got); err != nil {
					t.Fatalf("op %d read: %v", op, err)
				}
				if data, ok := want[b]; ok && !bytes.Equal(got, data) {
					t.Fatalf("op %d block %d stale", op, b)
				}
			default:
				c.Crash()
				if _, err := c.Recover(0); err != nil {
					t.Fatalf("op %d recover: %v", op, err)
				}
			}
		}
		for b, data := range want {
			if _, err := c.ReadBlock(0, b, got); err != nil {
				t.Fatalf("final read %d: %v", b, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("final block %d mismatch", b)
			}
		}
	}
}

func TestHistoryBufferHeadIsMax(t *testing.T) {
	a, _ := newAMNT(WithInterval(64))
	regions := []uint64{1, 2, 2, 3, 3, 3, 1, 2, 3, 3}
	for _, r := range regions {
		a.observe(r)
	}
	if a.history[0].region != 3 {
		t.Fatalf("head region = %d, want 3 (the max)", a.history[0].region)
	}
	// Invariant: head count >= every other count.
	for _, e := range a.history[1:] {
		if e.count > a.history[0].count {
			t.Fatalf("entry %+v exceeds head %+v", e, a.history[0])
		}
	}
}

func TestHistoryBufferCapacityBound(t *testing.T) {
	a, _ := newAMNT(WithInterval(8))
	for r := uint64(0); r < 100; r++ {
		a.observe(r)
	}
	if len(a.history) > 8 {
		t.Fatalf("history grew to %d entries, cap 8", len(a.history))
	}
}

func TestCheaperThanStrictCostlierThanNothing(t *testing.T) {
	run := func(p mee.Policy) uint64 {
		c := mee.New(testDevice(), mee.DefaultConfig(), p)
		var total uint64
		// Hot region workload: 90% of writes in region 2.
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 2000; i++ {
			b := uint64(2*512 + rng.Intn(512))
			if rng.Intn(10) == 0 {
				b = uint64(rng.Intn(32768))
			}
			cycles, err := c.WriteBlock(total, b, pattern(byte(i)))
			if err != nil {
				panic(err)
			}
			total += cycles
		}
		return total
	}
	amnt := run(New())
	strict := run(mee.NewStrict())
	leaf := run(mee.NewLeaf())
	if amnt >= strict {
		t.Fatalf("amnt (%d) should beat strict (%d) on hot-region writes", amnt, strict)
	}
	// AMNT should land in leaf's neighborhood (within 2x) on this
	// strongly localized workload.
	if amnt > 2*leaf {
		t.Fatalf("amnt (%d) should approach leaf (%d)", amnt, leaf)
	}
}

func TestCheckpointCarriesSubtreeRegister(t *testing.T) {
	a, c := newAMNT()
	// Move the subtree to region 5, then checkpoint.
	for i := uint64(0); i < 200; i++ {
		if _, err := c.WriteBlock(0, 5*512+i%512, pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if a.SubtreeIndex() != 5 {
		t.Fatalf("precondition: subtree at %d", a.SubtreeIndex())
	}
	var ckpt bytes.Buffer
	if err := c.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	// Wreck the live register, then restore.
	a.regs[0].idx = 0
	if err := c.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if a.SubtreeIndex() != 5 {
		t.Fatalf("subtree register = %d after restore, want 5", a.SubtreeIndex())
	}
	if err := c.VerifyAll(0); err != nil {
		t.Fatal(err)
	}
	// Crash + recover from the restored register.
	c.Crash()
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, scm.BlockSize)
	if _, err := c.ReadBlock(0, 5*512, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(0)) { // block 5*512 was written at i=0
		t.Fatalf("restored data mismatch")
	}
}
