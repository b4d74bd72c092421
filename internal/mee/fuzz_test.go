package mee

import (
	"bytes"
	"testing"

	"amnt/internal/scm"
)

// FuzzControllerOps drives a leaf-persisted controller with an
// arbitrary program of writes, reads, and crash/recover cycles, and
// checks full data fidelity throughout. The first byte shapes the
// program: its low five bits pick the epoch size (1…32) consecutive
// writes are staged into — size 1 is WriteBlock itself — and bit 5
// packs the 64 addressable blocks into one counter page instead of
// spreading them over 32. Every later byte encodes an action and an
// address. Together they walk the commit plan through repeats of one
// block, full and sparse pages, and minor-counter overflows landing
// mid-epoch.
func FuzzControllerOps(f *testing.F) {
	f.Add([]byte{0x01, 0x41, 0xFE, 0x01})
	f.Add([]byte{0x10, 0x90, 0xFF, 0x10, 0x55})
	// Many overwrites of one block: the 128th overflows its minor
	// counter in the middle of a 24-write epoch.
	f.Add(append([]byte{0x17}, bytes.Repeat([]byte{0x41}, 200)...))
	// One page filled, then one of its blocks written through an
	// overflow (all 64 neighbours re-encrypted), then read back.
	fill := []byte{0x2F}
	for slot := byte(0); slot < 64; slot++ {
		fill = append(fill, 0x40|slot)
	}
	fill = append(fill, bytes.Repeat([]byte{0x45}, 130)...)
	for slot := byte(0); slot < 64; slot++ {
		fill = append(fill, slot)
	}
	f.Add(fill)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if len(ops) > 513 { // the shape byte and 512 ops
			ops = ops[:513]
		}
		size, stride := int(ops[0]&0x1F)+1, uint64(37)
		if ops[0]&0x20 != 0 {
			stride = 1
		}
		c := New(testDevice(), tinyCacheConfig(), NewLeaf())
		want := make(map[uint64][]byte)
		got := make([]byte, scm.BlockSize)
		var ep *Epoch
		commit := func(i int) {
			if ep == nil {
				return
			}
			if _, err := ep.Commit(); err != nil {
				t.Fatalf("op %d commit of %d: %v", i, ep.Len(), err)
			}
			ep = nil
		}
		for i, op := range ops[1:] {
			block := uint64(op&0x3F) * stride % 4096
			switch {
			case op&0xC0 == 0xC0 && i%7 == 0:
				commit(i)
				c.Crash()
				if _, err := c.Recover(0); err != nil {
					t.Fatalf("op %d recover: %v", i, err)
				}
			case op&0x40 != 0:
				data := pattern(op)
				want[block] = data
				if size == 1 {
					if _, err := c.WriteBlock(uint64(i), block, data); err != nil {
						t.Fatalf("op %d write: %v", i, err)
					}
					break
				}
				if ep == nil {
					ep = c.BeginEpoch(uint64(i))
				}
				if err := ep.Put(block, data); err != nil {
					t.Fatalf("op %d stage: %v", i, err)
				}
				if ep.Len() == size {
					commit(i)
				}
			default:
				commit(i)
				if _, err := c.ReadBlock(uint64(i), block, got); err != nil {
					t.Fatalf("op %d read: %v", i, err)
				}
				if data, ok := want[block]; ok && !bytes.Equal(got, data) {
					t.Fatalf("op %d block %d stale", i, block)
				}
			}
		}
		commit(len(ops))
		c.Crash()
		if _, err := c.Recover(0); err != nil {
			t.Fatalf("final recover: %v", err)
		}
		for block, data := range want {
			if _, err := c.ReadBlock(0, block, got); err != nil {
				t.Fatalf("final read %d: %v", block, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("final block %d mismatch", block)
			}
		}
	})
}
