package mee_test

import (
	"bytes"
	"fmt"
	"testing"

	_ "amnt/internal/core" // register the AMNT protocol family
	"amnt/internal/mee"
	"amnt/internal/scm"
)

func newEpochTestController(t *testing.T, proto string) *mee.Controller {
	t.Helper()
	policy, err := mee.NewPolicy(proto, mee.PolicyOptions{})
	if err != nil {
		t.Fatalf("policy %s: %v", proto, err)
	}
	dev := scm.New(scm.Config{CapacityBytes: 1 << 20})
	return mee.New(dev, mee.Config{}, policy)
}

// epochTestOps builds a deterministic write sequence with spatial
// locality (so AMNT movement engages), overwrites (so write combining
// has work), and one block hot enough to overflow its minor counter
// mid-sequence (so page re-encryption runs inside an epoch).
func epochTestOps(n int, blocks uint64) ([]uint64, [][]byte) {
	ops := make([]uint64, 0, n)
	vals := make([][]byte, 0, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		var b uint64
		switch {
		case i%3 == 0:
			b = 7 // hot block: n/3 bumps overflows the 7-bit minor
		case i%3 == 1:
			b = state % 64 // hot page neighborhood
		default:
			b = state % blocks
		}
		v := make([]byte, scm.BlockSize)
		for j := range v {
			v[j] = byte(uint64(i)*31 + uint64(j) + state)
		}
		ops = append(ops, b)
		vals = append(vals, v)
	}
	return ops, vals
}

// TestEpochCommitMatchesPerOp is the group-commit equivalence
// property: replaying the same write sequence per-op on one controller
// and through epochs of varying size on another must converge to the
// same root register, and both must power-cycle back to the same
// (correct) data. Policy hooks are consulted per logical write in both
// modes, so stateful policies see the same sequence.
func TestEpochCommitMatchesPerOp(t *testing.T) {
	protocols := []string{"leaf", "strict", "osiris", "anubis", "plp", "bmf", "triad", "battery", "amnt"}
	for _, proto := range protocols {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			perOp := newEpochTestController(t, proto)
			grouped := newEpochTestController(t, proto)
			const n = 600
			ops, vals := epochTestOps(n, perOp.Device().DataBlocks())

			var nowA uint64
			for i, b := range ops {
				cycles, err := perOp.WriteBlock(nowA, b, vals[i])
				if err != nil {
					t.Fatalf("per-op write %d: %v", i, err)
				}
				nowA += cycles
			}

			chunks := []int{1, 2, 3, 5, 8, 16}
			var nowB uint64
			i := 0
			for c := 0; i < n; c++ {
				size := chunks[c%len(chunks)]
				ep := grouped.BeginEpoch(nowB)
				for j := 0; j < size && i < n; j++ {
					if err := ep.Put(ops[i], vals[i]); err != nil {
						t.Fatalf("stage %d: %v", i, err)
					}
					i++
				}
				res, err := ep.Commit()
				if err != nil {
					t.Fatalf("commit at op %d: %v", i, err)
				}
				nowB += res.Cycles
			}

			if perOp.Root() != grouped.Root() {
				t.Fatalf("roots diverge after %d ops: per-op %x, epoch %x", n, perOp.Root(), grouped.Root())
			}

			// Both modes must come back from a power cycle with every
			// acknowledged write intact and identical.
			for name, c := range map[string]*mee.Controller{"per-op": perOp, "epoch": grouped} {
				c.Crash()
				if _, err := c.Recover(0); err != nil {
					t.Fatalf("%s recover: %v", name, err)
				}
				if err := c.VerifyAll(0); err != nil {
					t.Fatalf("%s verify: %v", name, err)
				}
			}
			final := make(map[uint64][]byte)
			for i, b := range ops {
				final[b] = vals[i]
			}
			bufA := make([]byte, scm.BlockSize)
			bufB := make([]byte, scm.BlockSize)
			for b, want := range final {
				if _, err := perOp.ReadBlock(0, b, bufA); err != nil {
					t.Fatalf("per-op read %d: %v", b, err)
				}
				if _, err := grouped.ReadBlock(0, b, bufB); err != nil {
					t.Fatalf("epoch read %d: %v", b, err)
				}
				if !bytes.Equal(bufA, want) || !bytes.Equal(bufB, want) {
					t.Fatalf("block %d: per-op/epoch/expected contents diverge", b)
				}
			}
		})
	}
}

// TestEpochWriteCombining checks the dedup accounting: an epoch that
// overwrites one block many times reaches the device once and climbs
// each path node once.
func TestEpochWriteCombining(t *testing.T) {
	c := newEpochTestController(t, "leaf")
	ep := c.BeginEpoch(0)
	v := make([]byte, scm.BlockSize)
	for i := 0; i < 10; i++ {
		v[1] = byte(i)
		if err := ep.Put(3, v); err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
	}
	res, err := ep.Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if res.Ops != 10 || res.Blocks != 1 || res.Counters != 1 {
		t.Fatalf("result = %+v, want 10 ops, 1 block, 1 counter", res)
	}
	levels := c.Geometry().Levels
	if want := levels - 2; res.TreeNodes != want {
		t.Fatalf("tree nodes = %d, want one per inner level (%d)", res.TreeNodes, want)
	}
	buf := make([]byte, scm.BlockSize)
	if _, err := c.ReadBlock(0, 3, buf); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if buf[1] != 9 {
		t.Fatalf("read %d, want final overwrite 9", buf[1])
	}
}

// TestEpochLifecycle covers the single-use contract and the empty
// epoch.
func TestEpochLifecycle(t *testing.T) {
	c := newEpochTestController(t, "leaf")
	ep := c.BeginEpoch(0)
	if res, err := ep.Commit(); err != nil || res.Ops != 0 || res.Cycles != 0 {
		t.Fatalf("empty commit = %+v, %v", res, err)
	}
	if _, err := ep.Commit(); err == nil {
		t.Fatal("double commit succeeded")
	}
	v := make([]byte, scm.BlockSize)
	if err := ep.Put(0, v); err == nil {
		t.Fatal("Put after commit succeeded")
	}

	ep = c.BeginEpoch(0)
	if err := ep.Put(0, v); err != nil {
		t.Fatalf("stage: %v", err)
	}
	ep.Abort()
	if root, zero := c.Root(), newEpochTestController(t, "leaf").Root(); root != zero {
		t.Fatal("aborted epoch mutated the root")
	}
	if err := ep.Put(1, v); err == nil {
		t.Fatal("Put after abort succeeded")
	}

	ep = c.BeginEpoch(0)
	if err := ep.Put(c.Device().DataBlocks(), v); err == nil {
		t.Fatal("out-of-capacity Put succeeded")
	}
}

// TestDegradedEpochMatchesPerOp is the equivalence property for
// epochs committed during an online recovery session: a session that
// takes its writes as epochs of any size must end, after Finish, with
// the same root register, the same device tree bytes and the same
// read-back contents as one that takes them as per-op WriteBlocks —
// so the leaf pre-image freeze, the write-through of data, HMAC and
// counter, and the deferred climb all hold per staged op.
func TestDegradedEpochMatchesPerOp(t *testing.T) {
	for _, proto := range []string{"leaf", "amnt"} {
		for _, size := range []int{1, 2, 16, 128} {
			proto, size := proto, size
			t.Run(fmt.Sprintf("%s/%d", proto, size), func(t *testing.T) {
				t.Parallel()
				perOp := newEpochTestController(t, proto)
				grouped := newEpochTestController(t, proto)
				const seed, n = 300, 300
				ops, vals := epochTestOps(seed+n, perOp.Device().DataBlocks())
				sessions := make([]*mee.RecoverySession, 2)
				for k, c := range []*mee.Controller{perOp, grouped} {
					for i := 0; i < seed; i++ {
						if _, err := c.WriteBlock(0, ops[i], vals[i]); err != nil {
							t.Fatalf("seed write %d: %v", i, err)
						}
					}
					c.Crash()
					s, ok := c.BeginRecovery(0)
					if !ok {
						t.Fatalf("%s must support online recovery", proto)
					}
					sessions[k] = s
				}
				// Same interleaving on both sides: one rebuild step per
				// chunk of `size` writes.
				for i := seed; i < seed+n; {
					end := min(i+size, seed+n)
					ep := grouped.BeginEpoch(0)
					for ; i < end; i++ {
						if _, err := perOp.WriteBlock(0, ops[i], vals[i]); err != nil {
							t.Fatalf("degraded write %d: %v", i, err)
						}
						if err := ep.Put(ops[i], vals[i]); err != nil {
							t.Fatalf("stage %d: %v", i, err)
						}
					}
					if _, err := ep.Commit(); err != nil {
						t.Fatalf("degraded commit at op %d: %v", i, err)
					}
					sessions[0].Step(2)
					sessions[1].Step(2)
				}
				if a, b := sessions[0].DegradedWrites(), sessions[1].DegradedWrites(); a != n || b != n {
					t.Fatalf("degraded writes: per-op %d, epoch %d, want %d", a, b, n)
				}
				for k, s := range sessions {
					if _, err := s.Finish(0); err != nil {
						t.Fatalf("finish %d: %v", k, err)
					}
				}
				if perOp.Root() != grouped.Root() {
					t.Fatalf("roots diverge: per-op %x, epoch %x", perOp.Root(), grouped.Root())
				}
				da, db := perOp.Device(), grouped.Device()
				flats := da.Indices(scm.Tree)
				if len(flats) != len(db.Indices(scm.Tree)) {
					t.Fatalf("tree node count: per-op %d, epoch %d", len(flats), len(db.Indices(scm.Tree)))
				}
				for _, flat := range flats {
					if !bytes.Equal(da.Peek(scm.Tree, flat), db.Peek(scm.Tree, flat)) {
						t.Fatalf("tree node %d diverged", flat)
					}
				}
				final := make(map[uint64][]byte)
				for i, b := range ops {
					final[b] = vals[i]
				}
				buf := make([]byte, scm.BlockSize)
				for name, c := range map[string]*mee.Controller{"per-op": perOp, "epoch": grouped} {
					if err := c.VerifyAll(0); err != nil {
						t.Fatalf("%s verify: %v", name, err)
					}
					for b, want := range final {
						if _, err := c.ReadBlock(0, b, buf); err != nil {
							t.Fatalf("%s read %d: %v", name, b, err)
						}
						if !bytes.Equal(buf, want) {
							t.Fatalf("%s block %d: wrong contents", name, b)
						}
					}
				}
			})
		}
	}
}
