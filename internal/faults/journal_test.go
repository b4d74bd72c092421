package faults

import (
	"testing"

	"amnt/internal/mee"
	"amnt/internal/scm"
)

// TestJournalRingOrder: the pre-image ring is walked oldest first
// whether or not it has wrapped, a wrapped ring has forgotten exactly
// its oldest writes, and a first-touch pre-image reads as zeros even
// in a reused slot.
func TestJournalRingOrder(t *testing.T) {
	dev := scm.New(scm.Config{CapacityBytes: 1 << 20})
	j := NewInjector(mee.New(dev, mee.Config{}, mee.NewLeaf()))
	j.Attach()
	defer j.Detach()
	block := func(fill byte) []byte {
		b := make([]byte, scm.BlockSize)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	// Block 0 is written three times before the ring fills: its oldest
	// retained pre-image is the first touch.
	for v := byte(1); v <= 3; v++ {
		dev.Write(scm.Data, 0, block(v))
	}
	if pre, ok := j.preImage(scm.Data, 0); !ok || !pre.absent {
		t.Fatalf("unwrapped: preImage = %+v, %v; want the first-touch entry", pre, ok)
	}
	// Wrap the ring past those three entries, ending on two writes to
	// block 1 whose slots previously held block 0's non-zero pre-images.
	for i := 0; i < journalCap-3; i++ {
		dev.Write(scm.Data, 100+uint64(i), block(9))
	}
	dev.Write(scm.Data, 1, block(7))
	dev.Write(scm.Data, 1, block(8))
	if len(j.journal) != journalCap {
		t.Fatalf("ring holds %d entries, want %d", len(j.journal), journalCap)
	}
	if pre, ok := j.preImage(scm.Data, 0); !ok || pre.absent || pre.old[0] != 2 {
		t.Fatalf("wrapped: block 0 preImage = absent %v old %d, %v; want the third write's pre-image (2)", pre.absent, pre.old[0], ok)
	}
	pre, ok := j.preImage(scm.Data, 1)
	if !ok || !pre.absent || pre.old != [scm.BlockSize]byte{} {
		t.Fatalf("block 1 preImage = absent %v old[0] %d, %v; want first touch with zeroed content", pre.absent, pre.old[0], ok)
	}
	if last := j.entry(journalCap - 1); last.index != 1 || last.old[0] != 7 {
		t.Fatalf("newest entry = block %d pre-image %d, want block 1 pre-image 7", last.index, last.old[0])
	}
	if oldest := j.entry(0); oldest.index != 0 || oldest.old[0] != 2 {
		t.Fatalf("oldest entry = block %d pre-image %d, want block 0 pre-image 2", oldest.index, oldest.old[0])
	}
}
