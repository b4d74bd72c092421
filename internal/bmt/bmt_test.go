package bmt

import (
	"testing"
	"testing/quick"

	"amnt/internal/cme"
	"amnt/internal/scm"
)

func eng() *cme.Engine { return cme.NewEngine(cme.Fast{}, 0xC0FFEE) }

func dev(capacity uint64) *scm.Device {
	return scm.New(scm.Config{CapacityBytes: capacity, ReadCycles: 1, WriteCycles: 1})
}

func TestGeometryPaperConfig(t *testing.T) {
	// 8 GB PCM: 2^21 counter-block leaves, 8 levels — the paper's
	// "8-level BMT" consistent with SGX.
	g := GeometryForCapacity(8 << 30)
	if g.Leaves != 1<<21 {
		t.Fatalf("leaves = %d, want 2^21", g.Leaves)
	}
	if g.Levels != 8 {
		t.Fatalf("levels = %d, want 8", g.Levels)
	}
	// Level 3 holds 64 nodes covering 128 MB each (paper §5).
	if got := g.NodesAt(3); got != 64 {
		t.Fatalf("nodes at level 3 = %d, want 64", got)
	}
	if got := g.CoverageBytes(3); got != 128<<20 {
		t.Fatalf("coverage at level 3 = %d, want 128 MiB", got)
	}
	if got := g.NodesAt(1); got != 1 {
		t.Fatalf("nodes at root = %d", got)
	}
	if got := g.NodesAt(8); got != 1<<21 {
		t.Fatalf("nodes at leaf level = %d", got)
	}
}

func TestGeometrySmallAndRagged(t *testing.T) {
	g := NewGeometry(10) // not a power of 8
	if g.Levels != 3 {   // 8^2 = 64 >= 10
		t.Fatalf("levels = %d, want 3", g.Levels)
	}
	if g.NodesAt(2) != 2 { // ceil(10/8)
		t.Fatalf("nodes at 2 = %d, want 2", g.NodesAt(2))
	}
	if g.NodesAt(3) != 10 {
		t.Fatalf("nodes at 3 = %d, want 10", g.NodesAt(3))
	}
	one := NewGeometry(1)
	if one.Levels != 2 {
		t.Fatalf("single-leaf levels = %d, want 2", one.Levels)
	}
}

func TestGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGeometry(0) should panic")
		}
	}()
	NewGeometry(0)
}

func TestAncestorAndSpan(t *testing.T) {
	g := NewGeometry(1 << 9) // 512 leaves, 4 levels
	if g.Levels != 4 {
		t.Fatalf("levels = %d", g.Levels)
	}
	if got := g.Ancestor(4, 100); got != 100 {
		t.Fatalf("self ancestor = %d", got)
	}
	if got := g.Ancestor(3, 100); got != 12 { // 100/8
		t.Fatalf("parent = %d, want 12", got)
	}
	if got := g.Ancestor(1, 100); got != 0 {
		t.Fatalf("root ancestor = %d", got)
	}
	lo, hi := g.LeafSpan(3, 12)
	if lo != 96 || hi != 104 {
		t.Fatalf("span = [%d,%d), want [96,104)", lo, hi)
	}
	lo, hi = g.LeafSpan(1, 0)
	if lo != 0 || hi != 512 {
		t.Fatalf("root span = [%d,%d)", lo, hi)
	}
}

func TestAncestorSpanProperty(t *testing.T) {
	g := NewGeometry(1 << 12)
	f := func(leaf uint64, lvl uint8) bool {
		leaf %= g.Leaves
		level := 1 + int(lvl)%g.Levels
		anc := g.Ancestor(level, leaf)
		lo, hi := g.LeafSpan(level, anc)
		return lo <= leaf && leaf < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParentChildRoundTrip(t *testing.T) {
	for slot := 0; slot < Arity; slot++ {
		cl, ci := Child(3, 7, slot)
		if cl != 4 {
			t.Fatalf("child level = %d", cl)
		}
		pl, pi := Parent(cl, ci)
		if pl != 3 || pi != 7 {
			t.Fatalf("parent of child = (%d,%d)", pl, pi)
		}
		if ChildSlot(ci) != slot {
			t.Fatalf("slot = %d, want %d", ChildSlot(ci), slot)
		}
	}
}

func TestFlatIndexDistinct(t *testing.T) {
	g := NewGeometry(1 << 9) // 4 levels; inner storage levels 2..3
	seen := make(map[uint64]bool)
	for l := 2; l <= g.Levels-1; l++ {
		for i := uint64(0); i < g.NodesAt(l); i++ {
			fi := g.FlatIndex(l, i)
			if seen[fi] {
				t.Fatalf("flat index collision at (%d,%d)", l, i)
			}
			seen[fi] = true
		}
	}
}

func TestFlatIndexPanicsOnRootAndLeaf(t *testing.T) {
	g := NewGeometry(64)
	for _, level := range []int{1, g.Levels} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FlatIndex(%d, 0) should panic", level)
				}
			}()
			g.FlatIndex(level, 0)
		}()
	}
}

func TestChildDigestHelpers(t *testing.T) {
	node := make([]byte, NodeSize)
	SetChildDigest(node, 3, 0xABCDEF)
	if got := ChildDigest(node, 3); got != 0xABCDEF {
		t.Fatalf("digest = %#x", got)
	}
	if got := ChildDigest(node, 2); got != 0 {
		t.Fatalf("neighbor digest = %#x, want 0", got)
	}
}

func TestZeroDigestsConsistent(t *testing.T) {
	e := eng()
	g := NewGeometry(1 << 9)
	zero := ZeroDigests(e, g)
	// The zero digest of level l must equal the hash of a node built
	// from level l+1 zero digests.
	for l := 1; l < g.Levels; l++ {
		node := make([]byte, NodeSize)
		for s := 0; s < Arity; s++ {
			SetChildDigest(node, s, zero[l+1])
		}
		if Hash(e, l, node) != zero[l] {
			t.Fatalf("zero digest inconsistent at level %d", l)
		}
	}
	zn := ZeroNode(e, g, 1)
	if Hash(e, 1, zn[:]) != zero[1] {
		t.Fatal("ZeroNode root hash mismatch")
	}
}

func TestRebuildEmptyTree(t *testing.T) {
	e := eng()
	d := dev(1 << 21) // 512 leaves
	g := GeometryForCapacity(1 << 21)
	res := Rebuild(d, e, g, 1, 0, false)
	zero := ZeroDigests(e, g)
	if res.Digest != zero[1] {
		t.Fatalf("empty rebuild digest = %#x, want zero root %#x", res.Digest, zero[1])
	}
	if res.CounterReads != 0 || res.NodeWrites != 0 {
		t.Fatalf("empty rebuild did I/O: %+v", res)
	}
}

func writeCounter(d *scm.Device, idx uint64, fill byte) {
	blk := make([]byte, scm.BlockSize)
	for i := range blk {
		blk[i] = fill
	}
	d.Write(scm.Counter, idx, blk)
}

func TestRebuildDetectsCounterChange(t *testing.T) {
	e := eng()
	d := dev(1 << 21)
	g := GeometryForCapacity(1 << 21)
	writeCounter(d, 5, 1)
	r1 := Rebuild(d, e, g, 1, 0, false)
	writeCounter(d, 5, 2)
	r2 := Rebuild(d, e, g, 1, 0, false)
	if r1.Digest == r2.Digest {
		t.Fatal("root digest did not change with counter contents")
	}
	writeCounter(d, 5, 1)
	r3 := Rebuild(d, e, g, 1, 0, false)
	if r3.Digest != r1.Digest {
		t.Fatal("rebuild is not deterministic on identical state")
	}
}

func TestRebuildPersistWritesInnerNodes(t *testing.T) {
	e := eng()
	d := dev(1 << 21) // 512 leaves, 4 levels => inner levels 2,3
	g := GeometryForCapacity(1 << 21)
	writeCounter(d, 0, 1)
	writeCounter(d, 511, 2)
	res := Rebuild(d, e, g, 1, 0, true)
	if res.CounterReads != 2 {
		t.Fatalf("counter reads = %d, want 2", res.CounterReads)
	}
	// Leaf 0 and 511 are in different level-2/level-3 subtrees:
	// expect 2 nodes at level 3 and 2 at level 2.
	if res.NodeWrites != 4 {
		t.Fatalf("node writes = %d, want 4", res.NodeWrites)
	}
	if d.BlocksWritten(scm.Tree) != 4 {
		t.Fatalf("tree blocks = %d, want 4", d.BlocksWritten(scm.Tree))
	}
}

func TestRebuildSubtreeMatchesWhole(t *testing.T) {
	e := eng()
	d := dev(1 << 21)
	g := GeometryForCapacity(1 << 21)
	for i := uint64(0); i < 20; i++ {
		writeCounter(d, i*13, byte(i+1))
	}
	whole := Rebuild(d, e, g, 1, 0, false)
	// Recomputing each level-2 child independently and hashing the
	// concatenation must equal the whole-tree root content.
	node := make([]byte, NodeSize)
	for slot := 0; slot < Arity; slot++ {
		sub := Rebuild(d, e, g, 2, uint64(slot), false)
		SetChildDigest(node, slot, sub.Digest)
	}
	for slot := 0; slot < Arity; slot++ {
		if ChildDigest(node, slot) != ChildDigest(whole.Content[:], slot) {
			t.Fatalf("slot %d digest mismatch", slot)
		}
	}
	if Hash(e, 1, node) != whole.Digest {
		t.Fatal("composed root digest != whole rebuild digest")
	}
}

func TestRebuildLeafLevel(t *testing.T) {
	e := eng()
	d := dev(1 << 21)
	g := GeometryForCapacity(1 << 21)
	writeCounter(d, 7, 3)
	res := Rebuild(d, e, g, g.Levels, 7, false)
	blk := make([]byte, scm.BlockSize)
	d.Read(scm.Counter, 7, blk)
	if res.Digest != Hash(e, g.Levels, blk) {
		t.Fatal("leaf-level rebuild digest mismatch")
	}
	// An absent leaf rebuilds to the leaf zero digest.
	zero := ZeroDigests(e, g)
	if got := Rebuild(d, e, g, g.Levels, 8, false).Digest; got != zero[g.Levels] {
		t.Fatalf("absent leaf digest = %#x, want %#x", got, zero[g.Levels])
	}
}

// Property: rebuilding twice from the same device state is
// deterministic, and any single-byte tamper of an occupied counter
// block changes the root digest.
func TestRebuildTamperProperty(t *testing.T) {
	e := eng()
	g := GeometryForCapacity(1 << 21)
	f := func(leafSeed []uint64, tamperPick uint16, mask byte) bool {
		if len(leafSeed) == 0 {
			return true
		}
		if mask == 0 {
			mask = 1
		}
		d := dev(1 << 21)
		for i, s := range leafSeed {
			writeCounter(d, s%g.Leaves, byte(i+1))
		}
		before := Rebuild(d, e, g, 1, 0, false).Digest
		occupied := d.Indices(scm.Counter)
		victim := occupied[int(tamperPick)%len(occupied)]
		d.TamperByte(scm.Counter, victim, int(tamperPick)%scm.BlockSize, mask)
		after := Rebuild(d, e, g, 1, 0, false).Digest
		return before != after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildAboveMatchesFullRebuild pins Triad-NVM's recovery: a
// Rebuilder whose source is a persisted Tree-region level (the
// boundary) reproduces the full rebuild's root from fewer reads.
func TestRebuildAboveMatchesFullRebuild(t *testing.T) {
	e := eng()
	d := dev(1 << 21) // 512 leaves, 4 levels
	g := GeometryForCapacity(1 << 21)
	for i := uint64(0); i < 30; i++ {
		writeCounter(d, i, byte(i+1)) // consecutive: few level-3 parents
	}
	// Persist the whole tree so every level is current in the device.
	full := Rebuild(d, e, g, 1, 0, true)
	// Rebuilding from level 3 (the deepest inner level) must agree.
	got := rebuildFrom(d, e, g, 3, false)
	if got.Content != full.Content || got.Digest != full.Digest {
		t.Fatalf("boundary rebuild root %#x differs from full rebuild root %#x", got.Digest, full.Digest)
	}
	// And it must be cheaper: boundary nodes, not counters.
	if got.CounterReads >= full.CounterReads {
		t.Fatalf("boundary reads %d not cheaper than counter reads %d",
			got.CounterReads, full.CounterReads)
	}
}

// TestRebuildAboveEmptyAndClamps pins the boundary rebuild's edges: an
// empty boundary level yields the zero root, and the leaf level as the
// boundary is a full counter-leaf rebuild.
func TestRebuildAboveEmptyAndClamps(t *testing.T) {
	e := eng()
	d := dev(1 << 21)
	g := GeometryForCapacity(1 << 21)
	zero := ZeroDigests(e, g)
	if got := rebuildFrom(d, e, g, 3, false).Digest; got != zero[1] {
		t.Fatalf("empty tree digest = %#x, want zero root", got)
	}
	writeCounter(d, 3, 9)
	full := Rebuild(d, e, g, 1, 0, false)
	if got := rebuildFrom(d, e, g, g.Levels, false); got.Digest != full.Digest {
		t.Fatal("leaf-boundary rebuild differs from full rebuild")
	}
}
