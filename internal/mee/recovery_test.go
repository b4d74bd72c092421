package mee

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"amnt/internal/scm"
)

// seedController writes a deterministic workload into a fresh leaf
// controller and returns it with the written values.
func seedController(t *testing.T, writes int) (*Controller, map[uint64][]byte) {
	t.Helper()
	c := New(testDevice(), tinyCacheConfig(), NewLeaf())
	rng := rand.New(rand.NewSource(0xFACE))
	vals := make(map[uint64][]byte)
	for i := 0; i < writes; i++ {
		b := rng.Uint64() % c.Device().DataBlocks()
		v := pattern(byte(i))
		if _, err := c.WriteBlock(0, b, v); err != nil {
			t.Fatalf("seed write %d: %v", i, err)
		}
		vals[b] = v
	}
	return c, vals
}

// TestOnlineRecoveryMatchesBlocking recovers two identically-seeded
// controllers — one with blocking Recover, one with an idle online
// session (no degraded traffic) — and compares everything observable:
// report fields, root register, and persisted tree bytes.
func TestOnlineRecoveryMatchesBlocking(t *testing.T) {
	blockingC, _ := seedController(t, 120)
	onlineC, _ := seedController(t, 120)

	blockingC.Crash()
	want, err := blockingC.Recover(0)
	if err != nil {
		t.Fatalf("blocking recover: %v", err)
	}

	onlineC.Crash()
	s, err := onlineC.BeginRecovery(0)
	if s == nil {
		t.Fatalf("leaf policy must support online recovery: %v", err)
	}
	for !s.Step(7) {
	}
	got, err := s.Finish(0)
	if err != nil {
		t.Fatalf("online finish: %v", err)
	}
	if got != want {
		t.Fatalf("online report %+v != blocking %+v", got, want)
	}
	if blockingC.Root() != onlineC.Root() {
		t.Fatal("root registers diverged")
	}
	for _, flat := range blockingC.Device().Indices(scm.Tree) {
		if !bytes.Equal(blockingC.Device().Peek(scm.Tree, flat), onlineC.Device().Peek(scm.Tree, flat)) {
			t.Fatalf("tree node %d diverged", flat)
		}
	}
	if err := onlineC.VerifyAll(0); err != nil {
		t.Fatalf("verify after online recovery: %v", err)
	}
}

// TestOnlineRecoveryDegradedTraffic interleaves reads and writes with
// rebuild steps: every acked value must read back correctly both
// during the session and after Finish, the audit must pass, and the
// patched tree must fully verify.
func TestOnlineRecoveryDegradedTraffic(t *testing.T) {
	c, vals := seedController(t, 150)
	c.Crash()
	s, err := c.BeginRecovery(0)
	if s == nil {
		t.Fatalf("BeginRecovery not ok: %v", err)
	}

	rng := rand.New(rand.NewSource(0xD16))
	blocks := make([]uint64, 0, len(vals))
	for b := range vals {
		blocks = append(blocks, b)
	}
	var buf [scm.BlockSize]byte
	step := 0
	for !s.Done() {
		s.Step(3)
		step++
		// A degraded write (sometimes to a fresh block, sometimes an
		// overwrite) and a degraded read between every few steps.
		if step%2 == 0 {
			b := rng.Uint64() % c.Device().DataBlocks()
			v := pattern(byte(step))
			if _, err := c.WriteBlock(0, b, v); err != nil {
				t.Fatalf("degraded write: %v", err)
			}
			vals[b] = v
		}
		b := blocks[rng.Intn(len(blocks))]
		if _, err := c.ReadBlock(0, b, buf[:]); err != nil {
			t.Fatalf("degraded read of %d: %v", b, err)
		}
		if !bytes.Equal(buf[:], vals[b]) {
			t.Fatalf("degraded read of %d returned stale/wrong data", b)
		}
	}
	if s.DegradedWrites() == 0 {
		t.Fatal("test exercised no degraded writes")
	}
	if _, err := s.Finish(0); err != nil {
		t.Fatalf("finish after degraded traffic: %v", err)
	}
	if c.Session() != nil {
		t.Fatal("session still active after Finish")
	}
	if err := c.VerifyAll(0); err != nil {
		t.Fatalf("verify after degraded session: %v", err)
	}
	for b, v := range vals {
		if _, err := c.ReadBlock(0, b, buf[:]); err != nil {
			t.Fatalf("post-recovery read of %d: %v", b, err)
		}
		if !bytes.Equal(buf[:], v) {
			t.Fatalf("post-recovery read of %d wrong", b)
		}
	}
	// Survive one more crash/recover cycle: the patched tree must be
	// a valid leaf-recovery image.
	c.Crash()
	if _, err := c.Recover(0); err != nil {
		t.Fatalf("blocking recover after online session: %v", err)
	}
	if err := c.VerifyAll(0); err != nil {
		t.Fatalf("verify after second recovery: %v", err)
	}
}

// TestOnlineRecoveryDetectsTamper pins the deferred-detection bound:
// a counter block replayed before the session must fail the audit at
// Finish — even though degraded serving trusted it provisionally.
func TestOnlineRecoveryDetectsTamper(t *testing.T) {
	c, _ := seedController(t, 100)
	dev := c.Device()
	idxs := dev.Indices(scm.Counter)
	if len(idxs) == 0 {
		t.Fatal("no counters written")
	}
	c.Crash()
	if !dev.TamperByte(scm.Counter, idxs[0], 3, 0x40) {
		t.Fatal("tamper failed")
	}
	s, err := c.BeginRecovery(0)
	if s == nil {
		t.Fatalf("BeginRecovery not ok: %v", err)
	}
	_, err = s.Finish(0)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered counter not detected by audit: %v", err)
	}
}

// TestOnlineRecoveryGuards pins the barrier contract: operations that
// would observe half-rebuilt state refuse with ErrRecovering while a
// session is active, and a crash mid-session aborts it.
func TestOnlineRecoveryGuards(t *testing.T) {
	c, _ := seedController(t, 60)
	c.Crash()
	s, err := c.BeginRecovery(0)
	if s == nil {
		t.Fatalf("BeginRecovery not ok: %v", err)
	}
	if err := c.VerifyAll(0); !errors.Is(err, ErrRecovering) {
		t.Fatalf("VerifyAll during session: %v", err)
	}
	if err := c.SaveCheckpoint(&bytes.Buffer{}); !errors.Is(err, ErrRecovering) {
		t.Fatalf("SaveCheckpoint during session: %v", err)
	}
	if _, err := c.Recover(0); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Recover during session: %v", err)
	}
	// Power failure mid-session: the session dies with volatile state
	// and a fresh (blocking) recovery succeeds.
	c.Crash()
	if c.Session() != nil {
		t.Fatal("session survived Crash")
	}
	_ = s // the aborted session must not be Finished again
	if _, err := c.Recover(0); err != nil {
		t.Fatalf("recover after mid-session crash: %v", err)
	}
	if err := c.VerifyAll(0); err != nil {
		t.Fatalf("verify after mid-session crash: %v", err)
	}
}
