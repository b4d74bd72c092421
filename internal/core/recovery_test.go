package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"amnt/internal/mee"
	"amnt/internal/scm"
)

// seedAMNT writes a hot-skewed workload (so the subtree moves off
// region 0) and returns the policy, controller, and written values.
// opts are applied after the level and a 16-write interval.
func seedAMNT(t *testing.T, level int, writes int, opts ...Option) (*AMNT, *mee.Controller, map[uint64][]byte) {
	t.Helper()
	a, c := newAMNT(append([]Option{WithLevel(level), WithInterval(16)}, opts...)...)
	rng := rand.New(rand.NewSource(0xA31))
	vals := make(map[uint64][]byte)
	hotBase := c.Device().DataBlocks() / 2
	for i := 0; i < writes; i++ {
		b := hotBase + rng.Uint64()%64
		if i%5 == 0 {
			b = rng.Uint64() % c.Device().DataBlocks()
		}
		v := pattern(byte(i))
		if _, err := c.WriteBlock(0, b, v); err != nil {
			t.Fatalf("seed write %d: %v", i, err)
		}
		vals[b] = v
	}
	return a, c, vals
}

// TestAMNTOnlineRecoveryMatchesBlocking compares an idle online
// session against blocking Recover on identically-seeded machines, for
// K = 1, 2 and 4 registers: same report, same registers, same root,
// same device tree.
func TestAMNTOnlineRecoveryMatchesBlocking(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		for _, level := range []int{1, 3} {
			name := fmt.Sprintf("K=%d/level=%d", k, level)
			blockingA, blockingC, _ := seedAMNT(t, level, 200, WithRegisters(k))
			onlineA, onlineC, _ := seedAMNT(t, level, 200, WithRegisters(k))

			blockingC.Crash()
			want, err := blockingC.Recover(0)
			if err != nil {
				t.Fatalf("%s blocking recover: %v", name, err)
			}

			onlineC.Crash()
			s, err := onlineC.BeginRecovery(0)
			if s == nil {
				t.Fatalf("%s: AMNT must support online recovery: %v", name, err)
			}
			for !s.Step(5) {
			}
			got, err := s.Finish(0)
			if err != nil {
				t.Fatalf("%s online finish: %v", name, err)
			}
			if got != want {
				t.Fatalf("%s: online report %+v != blocking %+v", name, got, want)
			}
			if blockingC.Root() != onlineC.Root() {
				t.Fatalf("%s: root registers diverged", name)
			}
			if !bytes.Equal(onlineA.SaveNV(), blockingA.SaveNV()) {
				t.Fatalf("%s: subtree registers diverged", name)
			}
			bd, od := blockingC.Device(), onlineC.Device()
			if len(bd.Indices(scm.Tree)) != len(od.Indices(scm.Tree)) {
				t.Fatalf("%s: tree node counts diverged", name)
			}
			for _, flat := range bd.Indices(scm.Tree) {
				if !bytes.Equal(bd.Peek(scm.Tree, flat), od.Peek(scm.Tree, flat)) {
					t.Fatalf("%s: tree node %d diverged", name, flat)
				}
			}
			if err := onlineC.VerifyAll(0); err != nil {
				t.Fatalf("%s verify: %v", name, err)
			}
		}
	}
}

// TestAMNTOnlineRecoveryDegradedTraffic drives reads and writes —
// inside and outside the fast subtree — while the subtree rebuilds.
// Every write's deferred climb must be patched at Finish, including
// paths outside the subtree (strict territory) and through the
// subtree register, and the machine must survive a second, blocking
// power cycle.
func TestAMNTOnlineRecoveryDegradedTraffic(t *testing.T) {
	a, c, vals := seedAMNT(t, 3, 250)
	c.Crash()
	movesBefore := a.Movements()
	s, err := c.BeginRecovery(0)
	if s == nil {
		t.Fatalf("BeginRecovery not ok: %v", err)
	}

	// One counter leaf covers 64 data blocks (a 4 KB page), so leaf
	// span [lo, hi) covers data blocks [lo*64, hi*64).
	g := c.Geometry()
	lo, hi := g.LeafSpan(a.Level(), a.SubtreeIndex())
	outsideBlock := uint64(0)
	if lo == 0 {
		outsideBlock = hi * 64
	}

	rng := rand.New(rand.NewSource(7))
	var buf [scm.BlockSize]byte
	step := 0
	for !s.Done() {
		s.Step(2)
		step++
		var b uint64
		switch step % 3 {
		case 0: // inside the rebuilding subtree
			span := hi - lo
			b = (lo + rng.Uint64()%span) * 64
		case 1: // outside (strictly persisted territory)
			b = outsideBlock + rng.Uint64()%64
		default: // anywhere
			b = rng.Uint64() % c.Device().DataBlocks()
		}
		if b >= c.Device().DataBlocks() {
			b %= c.Device().DataBlocks()
		}
		v := pattern(byte(step * 7))
		if _, err := c.WriteBlock(0, b, v); err != nil {
			t.Fatalf("degraded write to %d: %v", b, err)
		}
		vals[b] = v
		if _, err := c.ReadBlock(0, b, buf[:]); err != nil {
			t.Fatalf("degraded readback of %d: %v", b, err)
		}
		if !bytes.Equal(buf[:], v) {
			t.Fatalf("degraded readback of %d wrong", b)
		}
	}
	if a.Movements() != movesBefore {
		t.Fatal("subtree moved during a recovery session")
	}
	if _, err := s.Finish(0); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if err := c.VerifyAll(0); err != nil {
		t.Fatalf("verify after session: %v", err)
	}
	for b, v := range vals {
		if _, err := c.ReadBlock(0, b, buf[:]); err != nil {
			t.Fatalf("post-recovery read of %d: %v", b, err)
		}
		if !bytes.Equal(buf[:], v) {
			t.Fatalf("post-recovery read of %d wrong", b)
		}
	}
	// The patched tree must be a valid AMNT crash image.
	c.Crash()
	if _, err := c.Recover(0); err != nil {
		t.Fatalf("blocking recover after online session: %v", err)
	}
	if err := c.VerifyAll(0); err != nil {
		t.Fatalf("verify after second power cycle: %v", err)
	}
}

// TestAMNTOnlineRecoveryDetectsSubtreeTamper: a counter leaf inside
// the fast subtree replayed before the session must fail the audit
// against the NV subtree register at Finish.
func TestAMNTOnlineRecoveryDetectsSubtreeTamper(t *testing.T) {
	a, c, _ := seedAMNT(t, 3, 200)
	g := c.Geometry()
	lo, hi := g.LeafSpan(a.Level(), a.SubtreeIndex())
	var victim uint64
	found := false
	for _, li := range c.Device().Indices(scm.Counter) {
		if li >= lo && li < hi {
			victim, found = li, true
			break
		}
	}
	if !found {
		t.Skip("no counter leaf inside the subtree (workload missed it)")
	}
	c.Crash()
	c.Device().TamperByte(scm.Counter, victim, 5, 0x80)
	s, err := c.BeginRecovery(0)
	if s == nil {
		t.Fatalf("BeginRecovery not ok: %v", err)
	}
	if _, err := s.Finish(0); err == nil {
		t.Fatal("tampered subtree counter not detected by online audit")
	}
}

// TestAMNTOnlineRecoveryDetectsReplayOutsideSubtree replays a block
// outside the fast subtree — its counter, data and HMAC blocks, a
// consistent older triple — across a crash. Outside the subtree the
// tree is strictly persisted, so the session must serve that block
// through the normal verified walk: no read may ever return the old
// value with a nil error, and the replay must surface as an integrity
// error from the read, the write to a sibling block, or Finish.
func TestAMNTOnlineRecoveryDetectsReplayOutsideSubtree(t *testing.T) {
	for _, variant := range []string{"read", "write", "read+write"} {
		t.Run(variant, func(t *testing.T) {
			a, c, _ := seedAMNT(t, 3, 200)
			g := c.Geometry()
			lo, hi := g.LeafSpan(a.Level(), a.SubtreeIndex())
			b := uint64(0) // page-aligned, so b+1 shares its counter and HMAC blocks
			if lo == 0 {
				b = hi * 64
			}
			dev := c.Device()
			v1, v2 := pattern(0xA1), pattern(0xB2)
			if _, err := c.WriteBlock(0, b, v1); err != nil {
				t.Fatal(err)
			}
			ctr, hm := b/64, b/8
			snapData := dev.SnapshotBlock(scm.Data, b)
			snapCtr := dev.SnapshotBlock(scm.Counter, ctr)
			snapHMAC := dev.SnapshotBlock(scm.HMAC, hm)
			if _, err := c.WriteBlock(0, b, v2); err != nil {
				t.Fatal(err)
			}
			if lo, hi := g.LeafSpan(a.Level(), a.SubtreeIndex()); ctr >= lo && ctr < hi {
				t.Fatalf("block %d's counter leaf %d moved into the subtree", b, ctr)
			}
			c.Crash()
			dev.ReplayBlock(scm.Data, b, snapData)
			dev.ReplayBlock(scm.Counter, ctr, snapCtr)
			dev.ReplayBlock(scm.HMAC, hm, snapHMAC)

			surfaced := false
			check := func(what string, err error) {
				t.Helper()
				if err == nil {
					return
				}
				var ie *mee.IntegrityError
				if !errors.As(err, &ie) {
					t.Fatalf("%s: %v, want an integrity error", what, err)
				}
				surfaced = true
			}
			buf := make([]byte, scm.BlockSize)
			readB := func(when string) {
				t.Helper()
				_, err := c.ReadBlock(0, b, buf)
				if err == nil && bytes.Equal(buf, v1) {
					t.Fatalf("%s: read of the replayed block returned the old value with a nil error", when)
				}
				check("read "+when, err)
			}

			s, err := c.BeginRecovery(0)
			if s == nil {
				t.Fatalf("BeginRecovery not ok: %v", err)
			}
			if variant != "write" {
				readB("during the session")
			}
			if variant != "read" {
				_, err := c.WriteBlock(0, b+1, pattern(0xC3))
				check("degraded write to a sibling block", err)
			}
			_, err = s.Finish(0)
			check("finish", err)
			if err == nil {
				readB("after Finish")
				if err := c.VerifyAll(0); err == nil {
					t.Fatal("VerifyAll passed over the replayed block")
				}
				c.Crash()
				if _, err := c.Recover(0); err == nil {
					readB("after a second power cycle")
				}
			}
			if !surfaced {
				t.Fatal("the replay surfaced as no integrity error")
			}
		})
	}
}
