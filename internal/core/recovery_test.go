package core

import (
	"bytes"
	"math/rand"
	"testing"

	"amnt/internal/mee"
	"amnt/internal/scm"
)

// seedAMNT writes a hot-skewed workload (so the subtree moves off
// region 0) and returns the policy, controller, and written values.
func seedAMNT(t *testing.T, level int, writes int) (*AMNT, *mee.Controller, map[uint64][]byte) {
	t.Helper()
	a, c := newAMNT(WithLevel(level), WithInterval(16))
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
// session against blocking Recover on identically-seeded machines:
// same report, same subtree register, same root, same device tree.
func TestAMNTOnlineRecoveryMatchesBlocking(t *testing.T) {
	for _, level := range []int{1, 3} {
		blockingA, blockingC, _ := seedAMNT(t, level, 200)
		onlineA, onlineC, _ := seedAMNT(t, level, 200)

		blockingC.Crash()
		want, err := blockingC.Recover(0)
		if err != nil {
			t.Fatalf("level %d blocking recover: %v", level, err)
		}

		onlineC.Crash()
		s, ok := onlineC.BeginRecovery(0)
		if !ok {
			t.Fatalf("level %d: AMNT must support online recovery", level)
		}
		for !s.Step(5) {
		}
		got, err := s.Finish(0)
		if err != nil {
			t.Fatalf("level %d online finish: %v", level, err)
		}
		if got != want {
			t.Fatalf("level %d: online report %+v != blocking %+v", level, got, want)
		}
		if blockingC.Root() != onlineC.Root() {
			t.Fatalf("level %d: root registers diverged", level)
		}
		if onlineA.SubtreeIndex() != blockingA.SubtreeIndex() {
			t.Fatalf("level %d: subtree registers diverged", level)
		}
		for _, flat := range blockingC.Device().Indices(scm.Tree) {
			if !bytes.Equal(blockingC.Device().Peek(scm.Tree, flat), onlineC.Device().Peek(scm.Tree, flat)) {
				t.Fatalf("level %d: tree node %d diverged", level, flat)
			}
		}
		if err := onlineC.VerifyAll(0); err != nil {
			t.Fatalf("level %d verify: %v", level, err)
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
	s, ok := c.BeginRecovery(0)
	if !ok {
		t.Fatal("BeginRecovery not ok")
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
	s, ok := c.BeginRecovery(0)
	if !ok {
		t.Fatal("BeginRecovery not ok")
	}
	if _, err := s.Finish(0); err == nil {
		t.Fatal("tampered subtree counter not detected by online audit")
	}
}
