package bmt

import (
	"math/rand"
	"testing"

	"amnt/internal/cme"
	"amnt/internal/scm"
)

func cmeEngineWithKey(key uint64) *cme.Engine { return cme.NewEngine(cme.Fast{}, key) }

// devStats snapshots the device counters a rebuild can touch.
type devStats struct {
	reads, writes, counterReads, treeReads, treeWrites uint64
}

func snapshotStats(d *scm.Device) devStats {
	st := d.Stats()
	return devStats{
		reads:        st.Reads.Value(),
		writes:       st.Writes.Value(),
		counterReads: st.RegionReads[scm.Counter].Value(),
		treeReads:    st.RegionReads[scm.Tree].Value(),
		treeWrites:   st.RegionWrites[scm.Tree].Value(),
	}
}

// populate writes the given counter indices with index-derived
// contents, so equal index sets produce equal devices.
func populate(d *scm.Device, idxs []uint64) {
	var blk [scm.BlockSize]byte
	for _, idx := range idxs {
		for i := range blk {
			blk[i] = byte(idx + uint64(i)*3)
		}
		blk[0] = byte(idx)
		blk[1] = byte(idx >> 8)
		d.Write(scm.Counter, idx, blk[:])
	}
}

// TestRebuildAboveDeterministic pins the satellite fix: RebuildAbove
// used to walk dev.Indices unsorted, so repeated runs over identical
// devices could write nodes in different orders. Every run over an
// identically-populated device must now return a bit-identical
// RebuildResult, for both Rebuild and RebuildAbove.
func TestRebuildAboveDeterministic(t *testing.T) {
	const leaves = 1 << 12
	g := NewGeometry(leaves)
	e := eng()
	rng := rand.New(rand.NewSource(42))
	idxs := make([]uint64, 0, 200)
	for i := 0; i < 200; i++ {
		idxs = append(idxs, rng.Uint64()%leaves)
	}
	run := func(boundary int) (RebuildResult, RebuildResult) {
		d := dev(leaves * 4096)
		populate(d, idxs)
		full := Rebuild(d, e, g, 1, 0, true)
		above := RebuildAbove(d, e, g, boundary, true)
		return full, above
	}
	for _, boundary := range []int{3, g.Levels} {
		firstFull, firstAbove := run(boundary)
		for i := 0; i < 5; i++ {
			full, above := run(boundary)
			if full != firstFull {
				t.Fatalf("Rebuild run %d diverged: %+v vs %+v", i, full, firstFull)
			}
			if above != firstAbove {
				t.Fatalf("RebuildAbove(boundary=%d) run %d diverged: %+v vs %+v",
					boundary, i, above, firstAbove)
			}
		}
	}
}

// TestRebuildAboveSortedMatchesFull cross-checks the sorted boundary
// walk: rebuilding above the leaf boundary must reproduce the full
// rebuild's root digest.
func TestRebuildAboveSortedMatchesFull(t *testing.T) {
	const leaves = 1 << 9
	g := NewGeometry(leaves)
	e := eng()
	d := dev(leaves * 4096)
	populate(d, []uint64{0, 3, 17, 63, 64, 200, 511})
	full := Rebuild(d, e, g, 1, 0, true)
	above := RebuildAbove(d, e, g, g.Levels, false)
	if above.Digest != full.Digest || above.Content != full.Content {
		t.Fatalf("RebuildAbove root %x != full rebuild root %x", above.Digest, full.Digest)
	}
}

// TestZeroDigestsCached pins the cache: same engine parameters and
// depth share one table; different keys get distinct tables.
func TestZeroDigestsCached(t *testing.T) {
	g := NewGeometry(512)
	e := eng()
	a := ZeroDigests(e, g)
	b := ZeroDigests(e, g)
	if &a[0] != &b[0] {
		t.Fatal("ZeroDigests did not return the cached table")
	}
	g2 := NewGeometry(300) // same depth, different leaf count
	if c := ZeroDigests(e, g2); &c[0] != &a[0] {
		t.Fatal("ZeroDigests should key on depth, not leaf count")
	}
	e2 := cmeEngineWithKey(0xDEAD)
	if d := ZeroDigests(e2, g); d[1] == a[1] {
		t.Fatal("different keys must produce different zero digests")
	}
}
