package bmt

import (
	"fmt"
	"math/rand"
	"testing"

	"amnt/internal/scm"
)

// stepSizes are the chunk widths the resumable-equivalence tests
// sweep: single-leaf, odd, typical, and everything-at-once.
var stepSizes = []int{1, 3, 64, 10000}

// TestRebuilderMatchesSerial pins the Rebuilder's contract: driving it
// in chunks of any size yields a RebuildResult, device statistics, and
// persisted tree bytes bit-identical to one RebuildWith (a single
// Step) over the same span.
func TestRebuilderMatchesSerial(t *testing.T) {
	shapes := map[string][]uint64{
		"dense-prefix": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		"sparse":       {0, 511, 1023, 2047, 4095},
		"single":       {1234},
		"empty":        {},
	}
	const leaves = 1 << 12
	g := NewGeometry(leaves)
	e := eng()
	for name, occ := range shapes {
		for _, persist := range []bool{false, true} {
			ds := dev(leaves * 4096)
			populate(ds, occ)
			serial := RebuildWith(ds, e, g, 1, 0, RebuildOptions{Persist: persist})
			wantStats := snapshotStats(ds)
			for _, step := range stepSizes {
				dp := dev(leaves * 4096)
				populate(dp, occ)
				r := NewRebuilder(dp, e, g, g.Levels, 1, 0, RebuildOptions{Persist: persist}, nil)
				steps := 0
				for !r.Step(step) {
					steps++
					if steps > leaves+2 {
						t.Fatalf("%s step=%d: rebuild did not terminate", name, step)
					}
				}
				if !r.Done() {
					t.Fatalf("%s step=%d: Step returned true but Done is false", name, step)
				}
				if got := r.Result(); got != serial {
					t.Fatalf("%s persist=%v step=%d: %+v != serial %+v", name, persist, step, got, serial)
				}
				if got := snapshotStats(dp); got != wantStats {
					t.Fatalf("%s persist=%v step=%d: device stats %+v != serial %+v", name, persist, step, got, wantStats)
				}
				for _, flat := range dp.Indices(scm.Tree) {
					if string(dp.Peek(scm.Tree, flat)) != string(ds.Peek(scm.Tree, flat)) {
						t.Fatalf("%s step=%d: tree node %d bytes differ", name, step, flat)
					}
				}
				if len(dp.Indices(scm.Tree)) != len(ds.Indices(scm.Tree)) {
					t.Fatalf("%s step=%d: tree footprint differs", name, step)
				}
			}
		}
	}
}

// TestRebuilderSubtreeProperty randomizes occupancy, subtree roots,
// and chunk sizes: the resumable result must match serial RebuildWith
// everywhere, including subtree rebuilds (the AMNT recovery root).
func TestRebuilderSubtreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		leaves := uint64(1) << (6 + rng.Intn(7))
		g := NewGeometry(leaves)
		e := eng()
		occ := make([]uint64, 1+rng.Intn(200))
		for i := range occ {
			occ[i] = rng.Uint64() % leaves
		}
		rootLevel, rootIdx := 1, uint64(0)
		if rng.Intn(2) == 0 && g.Levels > 2 {
			rootLevel = 2 + rng.Intn(g.Levels-2)
			rootIdx = rng.Uint64() % capacityAt(rootLevel)
		}
		persist := rng.Intn(2) == 0
		step := 1 + rng.Intn(40)

		ds := dev(leaves * 4096)
		populate(ds, occ)
		serial := RebuildWith(ds, e, g, rootLevel, rootIdx, RebuildOptions{Persist: persist})
		wantStats := snapshotStats(ds)

		dp := dev(leaves * 4096)
		populate(dp, occ)
		r := NewRebuilder(dp, e, g, g.Levels, rootLevel, rootIdx, RebuildOptions{Persist: persist}, nil)
		for !r.Step(step) {
		}
		ctx := fmt.Sprintf("round %d leaves=%d occ=%d root=(%d,%d) persist=%v step=%d",
			round, leaves, len(occ), rootLevel, rootIdx, persist, step)
		if got := r.Result(); got != serial {
			t.Fatalf("%s: %+v != serial %+v", ctx, got, serial)
		}
		if got := snapshotStats(dp); got != wantStats {
			t.Fatalf("%s: device stats %+v != serial %+v", ctx, got, wantStats)
		}
	}
}

// TestRebuilderFrozenOverrides pins the degraded-serving semantics:
// a non-nil override hashes the frozen bytes instead of the (since
// rewritten) device block, and a nil override excludes a leaf that
// was first-touched after the freeze — so the resumable rebuild over
// the live device equals a serial rebuild over the crash image.
func TestRebuilderFrozenOverrides(t *testing.T) {
	const leaves = 1 << 9
	g := NewGeometry(leaves)
	e := eng()

	// The crash image: leaves 3, 17, 200 with index-derived contents.
	crashOcc := []uint64{3, 17, 200}
	dImage := dev(leaves * 4096)
	populate(dImage, crashOcc)
	want := RebuildWith(dImage, e, g, 1, 0, RebuildOptions{Persist: true})

	// The live device: leaf 17 was overwritten after the freeze and
	// leaf 42 was first-touched; both must be masked by the overrides.
	dLive := dev(leaves * 4096)
	populate(dLive, crashOcc)
	frozen := map[uint64][]byte{
		17: dLive.SnapshotBlock(scm.Counter, 17),
		42: nil,
	}
	var scribble [scm.BlockSize]byte
	for i := range scribble {
		scribble[i] = 0xEE
	}
	dLive.Write(scm.Counter, 17, scribble[:])
	dLive.Write(scm.Counter, 42, scribble[:])

	r := NewRebuilder(dLive, e, g, g.Levels, 1, 0, RebuildOptions{Persist: true}, frozen)
	readsBefore := dLive.Stats().RegionReads[scm.Counter].Value()
	if r.Step(1) {
		t.Fatal("rebuild of three leaves done after one")
	}
	// With the walk parked after leaf 3, the foreground first-touches
	// leaf 100 and overwrites leaf 200, both ahead of it inside the
	// scanned range: the walk must step over the one and hash the
	// frozen image of the other.
	frozen[100] = nil
	dLive.Write(scm.Counter, 100, scribble[:])
	frozen[200] = dLive.SnapshotBlock(scm.Counter, 200)
	dLive.Write(scm.Counter, 200, scribble[:])
	for !r.Step(2) {
	}
	got := r.Result()
	if got.Digest != want.Digest || got.Content != want.Content {
		t.Fatalf("frozen rebuild root %x != crash-image root %x", got.Digest, want.Digest)
	}
	if got.CounterReads != want.CounterReads || got.Cycles != want.Cycles {
		t.Fatalf("frozen rebuild read %d leaves in %d cycles, crash image has %d in %d",
			got.CounterReads, got.Cycles, want.CounterReads, want.Cycles)
	}
	// Leaves stepped over are not charged as device reads.
	if reads := dLive.Stats().RegionReads[scm.Counter].Value() - readsBefore; reads != want.CounterReads {
		t.Fatalf("device charged %d counter reads for %d leaves hashed", reads, want.CounterReads)
	}
}

// TestRebuilderStepNoAllocs: a Step in the middle of a rebuild works
// in the buffers NewRebuilder sized; the serving goroutine that
// interleaves Steps with requests must not feed the collector.
func TestRebuilderStepNoAllocs(t *testing.T) {
	const leaves = 1 << 14
	g := NewGeometry(leaves)
	d := newBenchDevice(leaves)
	r := NewRebuilder(d, eng(), g, g.Levels, 1, 0, RebuildOptions{Persist: true, Progress: &Progress{}}, nil)
	r.Step(256) // so the measured Steps are mid-rebuild
	if n := testing.AllocsPerRun(20, func() { r.Step(256) }); n != 0 {
		t.Fatalf("Step(256): %v allocs per call, want 0", n)
	}
	if r.Done() {
		t.Fatal("rebuild finished inside the measured Steps")
	}
}

// TestRebuilderProgress checks the watermark bracket: begin at
// construction, done advancing with Step, end exactly once at
// completion (or Abort).
func TestRebuilderProgress(t *testing.T) {
	const leaves = 256
	g := NewGeometry(leaves)
	e := eng()
	d := dev(leaves * 4096)
	populate(d, []uint64{1, 2, 3, 4, 5})

	var p Progress
	p.Reset()
	r := NewRebuilder(d, e, g, g.Levels, 1, 0, RebuildOptions{Progress: &p}, nil)
	if s := p.Snapshot(); s.Total != 5 || !s.Active {
		t.Fatalf("after construction: %+v", s)
	}
	r.Step(2)
	if s := p.Snapshot(); s.Done != 2 {
		t.Fatalf("after Step(2): done=%d", s.Done)
	}
	for !r.Step(2) {
	}
	if s := p.Snapshot(); s.Done != 5 || s.Active {
		t.Fatalf("after completion: %+v", s)
	}
	r.Abort() // no-op after completion
	if s := p.Snapshot(); s.Active {
		t.Fatal("Abort after completion reopened the bracket")
	}

	p.Reset()
	r2 := NewRebuilder(d, e, g, g.Levels, 1, 0, RebuildOptions{Progress: &p}, nil)
	r2.Step(1)
	r2.Abort()
	if s := p.Snapshot(); s.Active {
		t.Fatal("Abort did not close the bracket")
	}
}
