package core

import (
	"bytes"
	"testing"

	"amnt/internal/mee"
	"amnt/internal/scm"
)

// fuzzRegions are the subtree regions (level 3 of testDevice, 512 data
// blocks each) a FuzzSubtreeOps program addresses: siblings under one
// level-2 node (0, 1, 5), a second level-2 node (8, 9), and far ones.
var fuzzRegions = [8]uint64{0, 1, 5, 8, 9, 40, 62, 63}

// FuzzSubtreeOps drives the movable-subtree protocols through
// arbitrary programs of writes, reads, crash/recover cycles and online
// recovery sessions, in the shape of mee's FuzzControllerOps. The
// first byte picks the protocol (bits 0–1: amnt, indirect, amnt-multi
// with K=2, K=4) and the tracking interval (bits 2–4: 1…8); the second
// byte's low five bits pick the epoch size (1…32) consecutive writes
// are staged into, size 1 being WriteBlock itself. Every later byte is
// an action (a read commits the open epoch first, so programs mix
// epoch sizes) and an address: a region of fuzzRegions and a page
// inside it. A session action crashes and opens an online recovery;
// the ops after it are served degraded, each followed by Step(1), and
// the session finishes when its rebuild does (or before the next crash
// or session action, as the serving layer's barrier would). Short
// intervals make subtree movements land on every position of an epoch;
// every recovery must succeed, verify, and give back every acked write.
func FuzzSubtreeOps(f *testing.F) {
	// The three move-at-epoch-boundary reproducers: region 5 twice,
	// then region 0 — alone, or first of a 2-put epoch with region 5 —
	// with the interval ending on the region-0 write or after it.
	f.Add([]byte{0x08, 0x00, 0x42, 0x42, 0x40})
	f.Add([]byte{0x08, 0x01, 0x42, 0x00, 0x42, 0x00, 0x40, 0x42})
	f.Add([]byte{0x0C, 0x01, 0x42, 0x00, 0x42, 0x00, 0x40, 0x42})
	// Two hot regions under K=2, a crash at the eighth op.
	f.Add([]byte{0x1E, 0x07, 0x43, 0x44, 0x4B, 0x4C, 0x45, 0x4D, 0x42, 0xC1, 0x01})
	// A session at the fourth op under each protocol, degraded writes
	// and reads inside and outside the subtrees, epochs of 1 and 3.
	for sel := byte(0); sel < 4; sel++ {
		f.Add([]byte{0x1C | sel, 0x00, 0x42, 0x4A, 0x43, 0xC1, 0x42, 0x01, 0x4B, 0x0A, 0x44, 0x56, 0x02, 0x4C, 0x43, 0x03, 0x01, 0x4A})
		f.Add([]byte{0x04 | sel, 0x02, 0x40, 0x48, 0x41, 0xC2, 0x40, 0x49, 0x42, 0x00, 0x4D, 0x45, 0x08, 0x47, 0x40})
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		if len(ops) > 514 { // the shape bytes and 512 ops
			ops = ops[:514]
		}
		interval := int(ops[0]>>2&7) + 1
		var p mee.Policy
		switch ops[0] & 3 {
		case 0:
			p = New(WithInterval(interval))
		case 1:
			p = NewIndirect(WithInterval(interval))
		case 2:
			p = New(WithInterval(interval), WithRegisters(2))
		case 3:
			p = New(WithInterval(interval), WithRegisters(4))
		}
		size := int(ops[1]&0x1F) + 1
		c := mee.New(testDevice(), mee.DefaultConfig(), p)
		want := make(map[uint64][]byte)
		got := make([]byte, scm.BlockSize)
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
		var s *mee.RecoverySession
		finish := func(i int) {
			if s == nil {
				return
			}
			if _, err := s.Finish(uint64(i)); err != nil {
				t.Fatalf("op %d finish: %v", i, err)
			}
			s = nil
			if err := c.VerifyAll(uint64(i)); err != nil {
				t.Fatalf("op %d verify after finish: %v", i, err)
			}
			for b, data := range want {
				if _, err := c.ReadBlock(uint64(i), b, got); err != nil {
					t.Fatalf("op %d read %d after finish: %v", i, b, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("op %d block %d lost its value across the session", i, b)
				}
			}
		}
		for i, op := range ops[2:] {
			block := fuzzRegions[op&7]*512 + uint64(op>>3&7)*64
			switch {
			case op&0xC0 == 0xC0 && i%7 == 0:
				commit(i)
				finish(i)
				checkRecovers(t, c, want)
			case op&0xC0 == 0xC0 && i%7 == 3:
				commit(i)
				finish(i)
				c.Crash()
				var err error
				if s, err = c.BeginRecovery(uint64(i)); s == nil {
					t.Fatalf("op %d: %s declined online recovery: %v", i, p.Name(), err)
				}
			case op&0x40 != 0:
				data := pattern(op ^ byte(i))
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
			if s != nil && s.Step(1) {
				commit(i)
				finish(i)
			}
		}
		commit(len(ops))
		finish(len(ops))
		checkRecovers(t, c, want)
	})
}
