package main

import (
	"testing"
	"testing/quick"

	"amnt/internal/cme"
	"amnt/internal/scm"
)

func newTree(leaves uint64) (*Tree, *scm.Device) {
	dev := scm.New(scm.Config{CapacityBytes: 1 << 20, ReadCycles: 1, WriteCycles: 1})
	eng := cme.NewEngine(cme.Fast{}, 0xFEED)
	return NewTree(dev, eng, leaves), dev
}

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	var n Node
	for i := range n.Counters {
		n.Counters[i] = uint64(i+1) * 0x1234567
	}
	n.MAC = 0xDEADBEEFCAFE
	raw := make([]byte, scm.BlockSize)
	n.Encode(raw)
	if got := DecodeNode(raw); got != n {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, n)
	}
}

func TestNodeEncodeDecodeProperty(t *testing.T) {
	f := func(seed [Arity]uint64, mac uint64) bool {
		var n Node
		for i := range n.Counters {
			n.Counters[i] = seed[i] & CounterMax
		}
		n.MAC = mac
		raw := make([]byte, scm.BlockSize)
		n.Encode(raw)
		return DecodeNode(raw) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometry(t *testing.T) {
	tr, _ := newTree(512)
	if tr.Levels != 4 {
		t.Fatalf("levels = %d, want 4", tr.Levels)
	}
	one, _ := newTree(1)
	if one.Levels != 2 {
		t.Fatalf("single-leaf levels = %d", one.Levels)
	}
}

func TestFreshTreeVerifies(t *testing.T) {
	tr, _ := newTree(64)
	for leaf := uint64(0); leaf < 64*Arity; leaf += 17 {
		c, err := tr.LeafCounter(leaf)
		if err != nil {
			t.Fatalf("leaf %d: %v", leaf, err)
		}
		if c != 0 {
			t.Fatalf("fresh counter = %d", c)
		}
	}
}

func TestBumpAndReadBack(t *testing.T) {
	tr, _ := newTree(64)
	for i := 0; i < 5; i++ {
		v, err := tr.Bump(100, Strict)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(i+1) {
			t.Fatalf("bump %d returned %d", i, v)
		}
	}
	got, err := tr.LeafCounter(100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Neighbors untouched.
	if c, _ := tr.LeafCounter(101); c != 0 {
		t.Fatalf("neighbor counter = %d", c)
	}
}

func TestStrictSurvivesCrash(t *testing.T) {
	tr, _ := newTree(64)
	for i := 0; i < 10; i++ {
		if _, err := tr.Bump(uint64(i*31), Strict); err != nil {
			t.Fatal(err)
		}
	}
	tr.Crash()
	for i := 0; i < 10; i++ {
		c, err := tr.LeafCounter(uint64(i * 31))
		if err != nil {
			t.Fatalf("leaf %d after crash: %v", i*31, err)
		}
		if c != 1 {
			t.Fatalf("leaf %d counter = %d", i*31, c)
		}
	}
}

func TestLazyCrashIsDetectedThenRecovered(t *testing.T) {
	tr, _ := newTree(64)
	if _, err := tr.Bump(7, LeafPersist); err != nil {
		t.Fatal(err)
	}
	tr.Crash()
	// The interior chain is stale: verification must fail before
	// recovery (this is the lack-of-crash-consistency failure mode
	// described in the paper's introduction).
	if _, err := tr.LeafCounter(7); err == nil {
		t.Fatal("stale interior chain verified without recovery")
	}
	repaired, err := tr.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if repaired == 0 {
		t.Fatal("recovery repaired nothing")
	}
	c, err := tr.LeafCounter(7)
	if err != nil {
		t.Fatal(err)
	}
	if c != 1 {
		t.Fatalf("leaf counter after recovery = %d, want 1", c)
	}
}

func TestFlushMakesLazyDurable(t *testing.T) {
	tr, _ := newTree(64)
	if _, err := tr.Bump(9, Lazy); err != nil {
		t.Fatal(err)
	}
	if tr.DirtyNodes() == 0 {
		t.Fatal("lazy bump left nothing dirty")
	}
	tr.Flush()
	if tr.DirtyNodes() != 0 {
		t.Fatal("flush left dirty nodes")
	}
	tr.Crash()
	c, err := tr.LeafCounter(9)
	if err != nil {
		t.Fatal(err)
	}
	if c != 1 {
		t.Fatalf("counter = %d", c)
	}
}

func TestTamperDetected(t *testing.T) {
	tr, dev := newTree(64)
	if _, err := tr.Bump(40, Strict); err != nil {
		t.Fatal(err)
	}
	tr.Crash() // force refetch from the device
	idxs := dev.Indices(scm.Tree)
	if len(idxs) == 0 {
		t.Fatal("no tree nodes persisted")
	}
	dev.TamperByte(scm.Tree, idxs[0], 3, 0x40)
	failed := false
	for leaf := uint64(0); leaf < 64*Arity; leaf++ {
		if _, err := tr.LeafCounter(leaf); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("tampered node verified")
	}
}

func TestReplayDetected(t *testing.T) {
	tr, dev := newTree(64)
	if _, err := tr.Bump(40, Strict); err != nil {
		t.Fatal(err)
	}
	leafFlat := tr.flat(tr.Levels, 40/Arity)
	snap := dev.SnapshotBlock(scm.Tree, leafFlat)
	if _, err := tr.Bump(40, Strict); err != nil {
		t.Fatal(err)
	}
	dev.ReplayBlock(scm.Tree, leafFlat, snap)
	tr.Crash()
	if _, err := tr.LeafCounter(40); err == nil {
		t.Fatal("replayed leaf node verified — freshness lost")
	}
}

func TestSubtreeRegisterBoundsRecovery(t *testing.T) {
	tr, _ := newTree(512) // 4 levels; level 2 nodes cover 1/8 each
	// Populate two separate subtrees strictly.
	if _, err := tr.Bump(0, Strict); err != nil { // subtree 0
		t.Fatal(err)
	}
	if _, err := tr.Bump(3000, Strict); err != nil { // subtree 5
		t.Fatal(err)
	}
	// Pin subtree 0 in a register, then go lazy inside it.
	reg, err := tr.CaptureSubtree(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := tr.Bump(uint64(i%8), LeafPersist); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh the register to the latest subtree state (AMNT keeps it
	// current in NV on every inside write).
	reg, err = tr.CaptureSubtree(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Crash()
	repaired, err := tr.SubtreeRecover(reg)
	if err != nil {
		t.Fatalf("subtree recovery: %v", err)
	}
	if repaired == 0 {
		t.Fatal("nothing repaired")
	}
	c, err := tr.LeafCounter(0)
	if err != nil {
		t.Fatal(err)
	}
	// Leaf 0 was bumped once strictly + ceil(20/8)=3 lazy rounds
	// hitting slot 0 (i%8==0 at i=0,8,16).
	if c != 4 {
		t.Fatalf("leaf 0 counter = %d, want 4", c)
	}
}

func TestCounterWrap(t *testing.T) {
	tr, _ := newTree(8)
	// Force a counter near the 56-bit limit and bump across it.
	n, err := tr.fetch(tr.Levels, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.Counters[0] = CounterMax
	// Re-key so the tree stays consistent after the manual edit.
	parent := &tr.root
	n.MAC = tr.macOf(tr.Levels, 0, n, parent.Counters[0])
	v, err := tr.Bump(0, Strict)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("wrapped counter = %d, want 0", v)
	}
}

func TestManyLeavesProperty(t *testing.T) {
	tr, _ := newTree(64)
	want := make(map[uint64]uint64)
	f := func(leafSeed uint16, lazy bool) bool {
		leaf := uint64(leafSeed) % (64 * Arity)
		mode := Strict
		if lazy {
			mode = LeafPersist
		}
		v, err := tr.Bump(leaf, mode)
		if err != nil {
			return false
		}
		want[leaf]++
		return v == want[leaf]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for leaf, w := range want {
		got, err := tr.LeafCounter(leaf)
		if err != nil {
			t.Fatalf("leaf %d: %v", leaf, err)
		}
		if got != w {
			t.Fatalf("leaf %d = %d, want %d", leaf, got, w)
		}
	}
}
