package cpu

import (
	"errors"
	"testing"
)

// transfer is one call a hierarchy made to its memory.
type transfer struct {
	at, block uint64
	writeBack bool
}

// fakeMemory records every transfer and answers with err.
type fakeMemory struct {
	log []transfer
	err error
}

func (m *fakeMemory) Transfer(at, block uint64, writeBack bool) error {
	m.log = append(m.log, transfer{at, block, writeBack})
	return m.err
}

// count returns how many reads (writeBack false) or write-backs of
// block (any block when block is ^0) the memory saw.
func (m *fakeMemory) count(block uint64, writeBack bool) int {
	n := 0
	for _, tr := range m.log {
		if tr.writeBack == writeBack && (block == ^uint64(0) || tr.block == block) {
			n++
		}
	}
	return n
}

// tinyCore is a two-level private hierarchy: L1 2 sets x 2 ways, L2
// 4 sets x 4 ways.
var tinyCore = Config{
	L1: LevelConfig{SizeBytes: 4 * 64, Assoc: 2, HitCycles: 1},
	L2: LevelConfig{SizeBytes: 16 * 64, Assoc: 4, HitCycles: 12},
}

// testRig builds a tiny hierarchy over a recording memory.
type testRig struct {
	h   *Hierarchy
	mem *fakeMemory
}

func newRig(t *testing.T, shared bool) *testRig {
	t.Helper()
	rig := &testRig{mem: &fakeMemory{}}
	sharedCache := SharedL3(0)
	if shared {
		sharedCache = SharedL3(64 * 64)
	}
	rig.h = NewHierarchy("t", tinyCore, sharedCache, rig.mem)
	return rig
}

func TestPresets(t *testing.T) {
	if SingleProgram().L2.SizeBytes != 1<<20 {
		t.Fatal("single-program L2 should be 1 MB")
	}
	if MultiProgram().L2.SizeBytes != 128<<10 {
		t.Fatal("multiprogram L2 should be 128 kB")
	}
	if MultiThread().L2.SizeBytes != 512<<10 {
		t.Fatal("multithread L2 should be 512 kB")
	}
	if SharedL3(0) != nil {
		t.Fatal("SharedL3(0) should be nil")
	}
	if SharedL3(1<<20) == nil {
		t.Fatal("SharedL3(1MB) should exist")
	}
}

func TestHitIsCheap(t *testing.T) {
	rig := newRig(t, false)
	first, err := rig.h.Access(0, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	second, err := rig.h.Access(first, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if second >= first {
		t.Fatalf("L1 hit (%d) not cheaper than cold miss (%d)", second, first)
	}
	if second != rig.h.Levels()[0].HitCycles() {
		t.Fatalf("L1 hit = %d cycles, want %d", second, rig.h.Levels()[0].HitCycles())
	}
	// The miss filled once, at the static cycle it left the last level;
	// the hit reached no memory.
	if want := []transfer{{at: 13, block: 5}}; len(rig.mem.log) != 1 || rig.mem.log[0] != want[0] {
		t.Fatalf("transfers = %+v, want %+v", rig.mem.log, want)
	}
}

func TestDirtyEvictionReachesMEE(t *testing.T) {
	rig := newRig(t, false)
	// Store to block 0, then blow it out of both levels with a
	// conflicting stream; it must be written back to memory, once.
	if _, err := rig.h.Access(0, 0, true); err != nil {
		t.Fatal(err)
	}
	// Blocks ≡ 0 (mod 4) collide with block 0 in L2.
	for i := uint64(1); i <= 20; i++ {
		if _, err := rig.h.Access(uint64(i)*1000, i*4, false); err != nil {
			t.Fatal(err)
		}
	}
	if n := rig.mem.count(0, true); n != 1 {
		t.Fatalf("dirty block written back %d times, want 1", n)
	}
	if n := rig.mem.count(^uint64(0), true); n != 1 {
		t.Fatalf("%d write-backs, want only the dirty block's", n)
	}
}

func TestDrainFlushesEverything(t *testing.T) {
	rig := newRig(t, true)
	for i := uint64(0); i < 10; i++ {
		if _, err := rig.h.Access(0, i, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rig.h.Drain(0); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if n := rig.mem.count(i, true); n != 1 {
			t.Fatalf("block %d written back %d times, want 1", i, n)
		}
	}
	// Nothing dirty remains anywhere.
	for _, c := range rig.h.Levels() {
		if len(c.DirtyKeys(nil)) != 0 {
			t.Fatalf("%s still has dirty lines after drain", c.Config().Name)
		}
	}
}

func TestSharedL3BetweenCores(t *testing.T) {
	mem := &fakeMemory{}
	l3 := SharedL3(64 * 64)
	h1 := NewHierarchy("c0", tinyCore, l3, mem)
	h2 := NewHierarchy("c1", tinyCore, l3, mem)
	// Core 0 pulls a block through all levels; core 1 should then hit
	// in the shared L3 without touching memory.
	if _, err := h1.Access(0, 77, false); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Access(0, 77, false); err != nil {
		t.Fatal(err)
	}
	if n := mem.count(77, false); n != 1 {
		t.Fatalf("block read %d times, want 1: core 1 missed the shared L3", n)
	}
}

func TestInvalidateAllDropsDirty(t *testing.T) {
	rig := newRig(t, false)
	if _, err := rig.h.Access(0, 1, true); err != nil {
		t.Fatal(err)
	}
	rig.h.InvalidateAll()
	for _, c := range rig.h.Levels() {
		if c.Len() != 0 {
			t.Fatal("lines remain after InvalidateAll")
		}
	}
	// The dirty data was (deliberately) lost, not written back.
	if n := rig.mem.count(1, true); n != 0 {
		t.Fatal("InvalidateAll must not write back")
	}
}

// TestVerifyHookRuns: an error from the memory — the simulator's data
// oracle lives there — aborts the access that raised it, on a fill and
// on a write-back alike.
func TestVerifyHookRuns(t *testing.T) {
	rig := newRig(t, false)
	wantErr := errors.New("oracle mismatch")
	rig.mem.err = wantErr
	if _, err := rig.h.Access(0, 3, false); !errors.Is(err, wantErr) {
		t.Fatalf("fill error not surfaced: %v", err)
	}
	rig.mem.err = nil
	if _, err := rig.h.Access(0, 3, true); err != nil {
		t.Fatal(err)
	}
	rig.mem.err = wantErr
	if _, err := rig.h.Drain(0); !errors.Is(err, wantErr) {
		t.Fatalf("write-back error not surfaced: %v", err)
	}
}

func TestSnoopMigratesDirtyLine(t *testing.T) {
	mem := &fakeMemory{}
	a := NewHierarchy("a", tinyCore, nil, mem)
	b := NewHierarchy("b", tinyCore, nil, mem)
	b.SetSnoop(func(block uint64) bool { return a.ExtractDirty(block) })

	// Core A dirties block 9 in its private cache.
	if _, err := a.Access(0, 9, true); err != nil {
		t.Fatal(err)
	}
	// Core B misses everywhere; the snoop must migrate A's dirty copy
	// instead of reading (stale) memory.
	if _, err := b.Access(100, 9, false); err != nil {
		t.Fatal(err)
	}
	if n := mem.count(9, false); n != 1 {
		t.Fatal("snooped access still read memory")
	}
	// A no longer holds the block; B's L1 copy carries the dirty bit.
	if a.Levels()[0].Probe(9) || a.Levels()[1].Probe(9) {
		t.Fatal("dirty copy not extracted from core A")
	}
	l := b.Levels()[0].Lookup(9)
	if l == nil || !l.Dirty {
		t.Fatal("migrated copy is not dirty in core B")
	}
}

func TestExtractDirtyLeavesSharedLevels(t *testing.T) {
	l3 := SharedL3(64 * 64)
	h := NewHierarchy("c", tinyCore, l3, &fakeMemory{})
	if _, err := h.Access(0, 5, false); err != nil {
		t.Fatal(err)
	}
	if h.ExtractDirty(5) {
		t.Fatal("clean line reported dirty")
	}
	if !l3.Probe(5) {
		t.Fatal("ExtractDirty must not touch the shared level")
	}
	if h.Levels()[0].Probe(5) {
		t.Fatal("private copy should be gone")
	}
}
