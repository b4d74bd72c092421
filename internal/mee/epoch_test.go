package mee_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	_ "amnt/internal/core" // register the AMNT protocol family
	"amnt/internal/mee"
	"amnt/internal/scm"
)

// epochProtocols are the protocols the write-path equivalence and
// golden tests run under.
var epochProtocols = []string{"leaf", "strict", "osiris", "anubis", "plp", "bmf", "triad", "battery", "amnt"}

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
	for _, proto := range epochProtocols {
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

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestPerOpGolden pins WriteBlock cycle for cycle. The golden was
// written at commit 564d0fc by the hand-written per-op routine that
// commit still carried beside commitEpoch; now that WriteBlock commits
// a 1-op epoch, the file is the independent oracle that a 1-op epoch
// is the per-op write: same root register, same simulated cycles, same
// controller statistics, same device traffic per region, under every
// protocol. Rerun with -update only for an intended change of the cost
// model, never to make a refactor of the write path pass.
func TestPerOpGolden(t *testing.T) {
	var out strings.Builder
	for _, proto := range epochProtocols {
		c := newEpochTestController(t, proto)
		ops, vals := epochTestOps(600, c.Device().DataBlocks())
		var now uint64
		written := make(map[uint64]bool)
		for i, b := range ops {
			cycles, err := c.WriteBlock(now, b, vals[i])
			if err != nil {
				t.Fatalf("%s write %d: %v", proto, i, err)
			}
			now += cycles
			written[b] = true
		}
		blocks := make([]uint64, 0, len(written))
		for b := range written {
			blocks = append(blocks, b)
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		buf := make([]byte, scm.BlockSize)
		for _, b := range blocks {
			cycles, err := c.ReadBlock(now, b, buf)
			if err != nil {
				t.Fatalf("%s read %d: %v", proto, b, err)
			}
			now += cycles
		}
		st := c.Stats()
		fmt.Fprintf(&out, "%s root=%x cycles=%d", proto, c.Root(), now)
		fmt.Fprintf(&out, " data_reads=%d data_writes=%d meta_fetches=%d sync_persists=%d posted_writes=%d",
			st.DataReads.Value(), st.DataWrites.Value(), st.MetaFetches.Value(),
			st.SyncPersists.Value(), st.PostedWrites.Value())
		fmt.Fprintf(&out, " stall_cycles=%d overflows=%d verify_hashes=%d policy_cycles=%d recoveries=%d recovery_cycles=%d",
			st.StallCycles.Value(), st.Overflows.Value(), st.VerifyHashes.Value(),
			st.PolicyCycles.Value(), st.Recoveries.Value(), st.RecoveryCycles.Value())
		fmt.Fprintf(&out, " merged_writes=%d", c.MergedWrites())
		ds := c.Device().Stats()
		for _, r := range []scm.Region{scm.Data, scm.Counter, scm.HMAC, scm.Tree, scm.Shadow} {
			fmt.Fprintf(&out, " dev.%s=%d/%d", r, ds.RegionReads[r].Value(), ds.RegionWrites[r].Value())
		}
		out.WriteByte('\n')
	}
	got := out.String()
	const golden = "testdata/perop_v1.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("per-op write path moved (one line per protocol; dev.region=reads/writes)\ngot:\n%swant:\n%s", got, want)
	}
}

// TestEpochWriteCombining checks the dedup accounting: an epoch that
// overwrites one block many times reaches the device once — one Data
// write, one Counter write — and climbs each path node once. With a
// recovery session open the climb is deferred (no tree node is
// touched) but the combining is the same, and the session still
// counts every staged write as a degraded write.
func TestEpochWriteCombining(t *testing.T) {
	const k = 10
	for _, tc := range []struct {
		proto   string
		session bool
	}{{"leaf", false}, {"leaf", true}, {"amnt", true}} {
		name := tc.proto
		if tc.session {
			name += "/session"
		}
		t.Run(name, func(t *testing.T) {
			c := newEpochTestController(t, tc.proto)
			v := make([]byte, scm.BlockSize)
			var session *mee.RecoverySession
			if tc.session {
				for b := uint64(0); b < 256; b += 17 {
					if _, err := c.WriteBlock(0, b, v); err != nil {
						t.Fatalf("seed write %d: %v", b, err)
					}
				}
				c.Crash()
				var err error
				if session, err = c.BeginRecovery(0); session == nil {
					t.Fatalf("%s must support online recovery: %v", tc.proto, err)
				}
			}
			ds := c.Device().Stats()
			dataBefore := ds.RegionWrites[scm.Data].Value()
			ctrBefore := ds.RegionWrites[scm.Counter].Value()
			ep := c.BeginEpoch(0)
			for i := 0; i < k; i++ {
				v[1] = byte(i)
				if err := ep.Put(3, v); err != nil {
					t.Fatalf("stage %d: %v", i, err)
				}
			}
			res, err := ep.Commit()
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			want := mee.EpochResult{Ops: k, Blocks: 1, Counters: 1, TreeNodes: c.Geometry().Levels - 2, Cycles: res.Cycles}
			if tc.session {
				want.TreeNodes = 0
			}
			res.ClimbNs, res.PersistNs = 0, 0
			if res != want {
				t.Fatalf("result = %+v, want %+v", res, want)
			}
			if d := ds.RegionWrites[scm.Data].Value() - dataBefore; d != 1 {
				t.Fatalf("%d data writes reached the device, want 1", d)
			}
			if d := ds.RegionWrites[scm.Counter].Value() - ctrBefore; d != 1 {
				t.Fatalf("%d counter writes reached the device, want 1", d)
			}
			if tc.session {
				if got := session.DegradedWrites(); got != k {
					t.Fatalf("degraded writes = %d, want %d", got, k)
				}
				if _, err := session.Finish(0); err != nil {
					t.Fatalf("finish: %v", err)
				}
			}
			buf := make([]byte, scm.BlockSize)
			if _, err := c.ReadBlock(0, 3, buf); err != nil {
				t.Fatalf("read back: %v", err)
			}
			if buf[1] != k-1 {
				t.Fatalf("read %d, want final overwrite %d", buf[1], k-1)
			}
		})
	}
}

// TestCommitErrorCarriesCycles: a write that fails part-way has still
// consumed simulated time, and every size of commit must say so — the
// serving layer advances its clock by what a failed commit returns. A
// tampered counter leaf fails verification at the staged write that
// first touches its page.
func TestCommitErrorCarriesCycles(t *testing.T) {
	const page = 5
	tampered := func(t *testing.T) *mee.Controller {
		c := newEpochTestController(t, "leaf")
		if _, err := c.WriteBlock(0, page*64, make([]byte, scm.BlockSize)); err != nil {
			t.Fatal(err)
		}
		if !c.Device().TamperByte(scm.Counter, page, 5, 0x40) {
			t.Fatal("tamper failed")
		}
		c.DropCached(mee.CounterKey(page))
		return c
	}
	v := make([]byte, scm.BlockSize)
	for _, size := range []int{1, 16} {
		c := tampered(t)
		ep := c.BeginEpoch(0)
		for j := size - 1; j >= 0; j-- { // the last staged write lands on the tampered page
			if err := ep.Put(uint64(page+j)*64+1, v); err != nil {
				t.Fatal(err)
			}
		}
		res, err := ep.Commit()
		var ie *mee.IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("size %d: commit error = %v, want IntegrityError", size, err)
		}
		if res.Cycles == 0 {
			t.Fatalf("size %d: failed commit reports no cycles: %+v", size, res)
		}
	}
	cycles, err := tampered(t).WriteBlock(0, page*64+1, v)
	if err == nil || cycles == 0 {
		t.Fatalf("WriteBlock on a tampered page = %d cycles, %v; want an error with its cycles", cycles, err)
	}
}

// TestEpochCommitAllocs keeps the commit's bookkeeping off the heap:
// the plan and the ciphertext buffer live in storage the controller
// reuses, so a warm 128-put commit allocates only the Epoch, its
// growing op slice, the fill buffers of metadata-cache misses and the
// write queue's sliding window (25 on the authoring host; the
// map-per-commit version this replaced made 274 over the same
// writes), and a warm WriteBlock — a 1-op epoch out of
// controller-owned scratch — less than one on average (it was 1: the
// escaping ciphertext). Means little under the race detector, which
// allocates on its own; CI runs it in the bench-smoke job.
func TestEpochCommitAllocs(t *testing.T) {
	policy, err := mee.NewPolicy("leaf", mee.PolicyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := mee.New(scm.New(scm.Config{CapacityBytes: 64 << 20}), mee.Config{}, policy)
	const span = 1 << 12 // blocks: 64 counter pages, 512 HMAC blocks
	v := make([]byte, scm.BlockSize)
	var now uint64
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33 % span
	}
	write := func() {
		v[0]++
		cycles, err := c.WriteBlock(now, next(), v)
		if err != nil {
			t.Fatal(err)
		}
		now += cycles
	}
	commit := func() {
		ep := c.BeginEpoch(now)
		for j := 0; j < 128; j++ {
			v[0]++
			if err := ep.Put(next(), v); err != nil {
				t.Fatal(err)
			}
		}
		res, err := ep.Commit()
		if err != nil {
			t.Fatal(err)
		}
		now += res.Cycles
	}
	for i := 0; i < 4*span; i++ {
		write()
	}
	commit()
	if n := testing.AllocsPerRun(20, commit); n > 40 {
		t.Errorf("warm 128-put commit: %.0f allocs, want <= 40", n)
	}
	if n := testing.AllocsPerRun(2000, write); n != 0 {
		t.Errorf("warm WriteBlock: %.0f allocs per write, want less than one", n)
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
					s, err := c.BeginRecovery(0)
					if s == nil {
						t.Fatalf("%s must support online recovery: %v", proto, err)
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
