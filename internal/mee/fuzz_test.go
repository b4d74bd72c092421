package mee_test

import (
	"bytes"
	"errors"
	"testing"

	"amnt/internal/mee"
	"amnt/internal/scm"
)

// FuzzControllerOps drives a controller with an arbitrary program of
// writes, reads, and crash/recover cycles, and checks full data
// fidelity throughout. The first byte shapes the program: its low five
// bits pick the epoch size (1…32) consecutive writes are staged into —
// size 1 is WriteBlock itself — bit 5 packs the 64 addressable blocks
// into one counter page instead of spreading them over 32, and bit 6
// runs amnt instead of leaf, so reads also stop at the subtree
// register. Every later byte encodes an action and an address.
// Together they walk the commit plan through repeats of one block, full
// and sparse pages, and minor-counter overflows landing mid-epoch.
// Every read is made twice, serialized and off the read view, and the
// two must agree.
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
	// amnt over spread-out blocks, epochs of 4.
	f.Add([]byte{0x43, 0x41, 0x52, 0x63, 0x01, 0x12, 0x23, 0xC4, 0x41, 0x01})
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
		proto := "leaf"
		if ops[0]&0x40 != 0 {
			proto = "amnt"
		}
		policy, err := mee.NewPolicy(proto, mee.PolicyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := mee.DefaultConfig()
		cfg.MetaCacheBytes, cfg.MetaAssoc = 1<<10, 2 // 16 lines: heavy eviction
		c := mee.New(scm.New(scm.Config{CapacityBytes: 2 << 20, ReadCycles: 610, WriteCycles: 782}), cfg, policy)
		want := make(map[uint64][]byte)
		got := make([]byte, scm.BlockSize)
		view := make([]byte, scm.BlockSize)
		// read checks one block on both read paths against want.
		read := func(now uint64, block uint64) {
			_, err := c.ReadBlock(now, block, got)
			_, verr := c.ReadBlockConcurrent(block, view)
			if errClass(err) != errClass(verr) {
				t.Fatalf("block %d: ReadBlock %v, ReadBlockConcurrent %v", block, err, verr)
			}
			if err != nil {
				t.Fatalf("block %d read: %v", block, err)
			}
			if !bytes.Equal(got, view) {
				t.Fatalf("block %d: the read view disagrees with ReadBlock", block)
			}
			if data, ok := want[block]; ok && !bytes.Equal(got, data) {
				t.Fatalf("block %d stale", block)
			}
		}
		var ep *mee.Epoch
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
				read(uint64(i), block)
			}
		}
		commit(len(ops))
		c.Crash()
		if _, err := c.Recover(0); err != nil {
			t.Fatalf("final recover: %v", err)
		}
		for block := range want {
			read(0, block)
		}
	})
}

// errClass names the class of a read error, so two read paths can be
// compared by what went wrong rather than by message.
func errClass(err error) string {
	var ie *mee.IntegrityError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &ie):
		return "integrity"
	}
	return err.Error()
}

// pattern is the block content a write of seed stores.
func pattern(seed byte) []byte {
	b := make([]byte, scm.BlockSize)
	for i := range b {
		b[i] = seed + byte(i*3)
	}
	return b
}
