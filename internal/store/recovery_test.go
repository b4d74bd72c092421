package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amnt/internal/bmt"
	"amnt/internal/cme"
	"amnt/internal/core"
	"amnt/internal/faults"
	"amnt/internal/mee"
	"amnt/internal/scm"
	"amnt/internal/stats"
)

// newBareShard hand-builds a shard around a real controller without
// starting its worker goroutine, so tests can drive the degraded-mode
// state machine deterministically from one goroutine.
func newBareShard(t *testing.T, protocol string, mem uint64) *shard {
	t.Helper()
	policy, err := mee.NewPolicy(protocol, mee.PolicyOptions{})
	if err != nil {
		t.Fatalf("policy %q: %v", protocol, err)
	}
	dev := scm.New(scm.Config{CapacityBytes: mem})
	ctrl := mee.New(dev, mee.Config{}, policy)
	sh := &shard{
		id:             0,
		dev:            dev,
		ctrl:           ctrl,
		ch:             make(chan request, 8),
		done:           make(chan struct{}),
		blocks:         mem / scm.BlockSize,
		batchMax:       8,
		epochSizes:     stats.NewHistogram(),
		epochCycles:    stats.NewHistogram(),
		prog:           &bmt.Progress{},
		recChunk:       1,
		healBackoff:    time.Millisecond,
		healBackoffMax: 4 * time.Millisecond,
		healMax:        8,
	}
	ctrl.SetRecoveryProgress(sh.prog)
	sh.inj = faults.NewInjector(ctrl)
	sh.inj.Attach()
	return sh
}

// putReq builds the 1-entry put request Store.Put submits.
func putReq(block uint64, v []byte) request {
	return request{op: opPut, kvs: []kvPair{{block, v}}, resp: make(chan response, 1)}
}

// firstErr collapses a 1-entry response to its outcome: the
// whole-request error if any, else the entry's.
func firstErr(r response) error {
	if r.err != nil || len(r.errs) == 0 {
		return r.err
	}
	return r.errs[0]
}

// barePut and bareGet drive one request through the worker's drain
// from the test's own goroutine.
func barePut(t *testing.T, sh *shard, block uint64, v []byte) {
	t.Helper()
	req := putReq(block, v)
	sh.serveBatch([]request{req})
	if err := firstErr(<-req.resp); err != nil {
		t.Fatalf("put block %d: %v", block, err)
	}
}

func bareGet(t *testing.T, sh *shard, block uint64) ([]byte, error) {
	t.Helper()
	req := request{op: opGet, kvs: []kvPair{{block: block}}, resp: make(chan response, 1)}
	sh.serveBatch([]request{req})
	resp := <-req.resp
	if resp.err != nil {
		return nil, resp.err
	}
	return resp.values[0], resp.errs[0]
}

// TestShardDegradedServingDeterministic drives the full degraded-mode
// state machine by hand: power cycle into an online session, serve
// verified traffic between rebuild chunks, finish back to serving,
// and survive a second cycle through the barrier path.
func TestShardDegradedServingDeterministic(t *testing.T) {
	sh := newBareShard(t, "leaf", 256<<10)
	const keys = 128
	for b := uint64(0); b < keys; b++ {
		barePut(t, sh, b, stamp(b))
	}
	if err := sh.powerCycle(); err != nil {
		t.Fatalf("power cycle: %v", err)
	}
	if sh.session == nil {
		t.Fatal("leaf shard must power-cycle into an online session")
	}
	if st := sh.load(); st != stateRecoveringOnline {
		t.Fatalf("state = %d (%s), want recovering-online", st, st)
	}

	// Interleave a degraded overwrite + verified readback with every
	// rebuild chunk until the session is done.
	b := uint64(0)
	for {
		done := sh.session.Step(sh.recChunk)
		barePut(t, sh, b%keys, stamp(b%keys))
		v, err := bareGet(t, sh, b%keys)
		if err != nil {
			t.Fatalf("degraded get %d: %v", b%keys, err)
		}
		checkStamp(t, b%keys, v)
		b++
		if done {
			break
		}
	}
	sh.finishRecovery()
	if h := sh.load(); h != stateServing {
		t.Fatalf("health after finish = %s, want serving", h)
	}
	if sh.session != nil {
		t.Fatal("session state not cleared after finish")
	}
	if sh.m[cDegradedWrites].Load() == 0 {
		t.Fatal("no degraded writes recorded")
	}
	if sh.m[cRecoveries].Load() != 1 {
		t.Fatalf("recoveries = %d, want 1", sh.m[cRecoveries].Load())
	}
	for b := uint64(0); b < keys; b++ {
		v, err := bareGet(t, sh, b)
		if err != nil {
			t.Fatalf("post-recovery get %d: %v", b, err)
		}
		checkStamp(t, b, v)
	}
	// The patched tree must be a valid crash image: cycle again and
	// complete the session synchronously via the control barrier.
	if err := sh.powerCycle(); err != nil {
		t.Fatalf("second power cycle: %v", err)
	}
	sh.barrier()
	if h := sh.load(); h != stateServing {
		t.Fatalf("health after barrier = %s, want serving", h)
	}
	for b := uint64(0); b < keys; b++ {
		v, err := bareGet(t, sh, b)
		if err != nil {
			t.Fatalf("post-barrier get %d: %v", b, err)
		}
		checkStamp(t, b, v)
	}
}

// TestStoreAdmissionByHealth pins the one admission decision over its
// whole input space — state × fenced × stopped × {get, put, control} —
// both at admit itself and through the public API that consults it,
// plus the external health vocabulary each state publishes.
func TestStoreAdmissionByHealth(t *testing.T) {
	type health struct {
		name    string
		serving bool
	}
	states := map[shardState]health{
		stateServing:            {"serving", true},
		stateRecoveringOnline:   {"recovering", true},
		stateRecoveringBlocking: {"recovering", true},
		stateQuarantined:        {"quarantined", false},
	}
	ops := map[string]func(context.Context, *Store) error{
		"get":     func(ctx context.Context, s *Store) error { _, err := s.Get(ctx, 0); return err },
		"put":     func(ctx context.Context, s *Store) error { return s.Put(ctx, 0, []byte("x")) },
		"control": func(ctx context.Context, s *Store) error { return s.Flush(ctx) },
	}
	ctrl := idleController(t)
	for st, h := range states {
		for _, fenced := range []bool{false, true} {
			for _, stopped := range []bool{false, true} {
				for op, call := range ops {
					var want error
					switch {
					case st == stateQuarantined:
						want = ErrShardFailed
					case st == stateRecoveringBlocking:
						want = ErrRecovering
					case fenced && op == "put":
						want = ErrFenced
					case stopped:
						want = ErrNotOwned
					}
					name := fmt.Sprintf("state%d/fenced=%v/stopped=%v/%s", st, fenced, stopped, op)
					// A shard with no worker: an admitted request parks
					// in the queue until its deadline.
					sh := &shard{id: 0, ctrl: ctrl, ch: make(chan request, 4), done: make(chan struct{}), blocks: 1 << 10, batchMax: 1}
					sh.setState(st)
					sh.fenced.Store(fenced)
					sh.stopped.Store(stopped)
					s := &Store{cfg: Config{Partitions: 1}, staging: map[int]*shard{}}
					s.tab.Store(newShardTable([]*shard{sh}))

					if err := sh.admit(op == "put"); !errors.Is(err, want) || (want == nil && err != nil) {
						t.Fatalf("%s: admit = %v, want %v", name, err, want)
					}
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
					err := call(ctx, s)
					cancel()
					if want == nil {
						if !errors.Is(err, context.DeadlineExceeded) || len(sh.ch) != 1 {
							t.Fatalf("%s: %v with %d queued, want deadline (admitted)", name, err, len(sh.ch))
						}
					} else if !errors.Is(err, want) || len(sh.ch) != 0 {
						t.Fatalf("%s: %v with %d queued, want %v", name, err, len(sh.ch), want)
					}
					var noe *NotOwnedError
					if want == ErrNotOwned && (!errors.As(err, &noe) || noe.Partition != sh.id) {
						t.Fatalf("%s: %v does not name partition %d", name, err, sh.id)
					}
					// Each nack is counted where it is produced: once by the
					// admit above, once by the API call.
					nacks := func(sentinel error) uint64 {
						if want == sentinel {
							return 2
						}
						return 0
					}
					if n := sh.m[cRecoveringNacks].Load(); n != nacks(ErrRecovering) {
						t.Fatalf("%s: recovering_nacks = %d", name, n)
					}
					if n := sh.m[cFencedNacks].Load(); n != nacks(ErrFenced) {
						t.Fatalf("%s: fenced_nacks = %d", name, n)
					}
					if ss := s.Stats().Shards[0]; ss.Health != h.name || ss.Serving != h.serving || ss.Fenced != fenced {
						t.Fatalf("%s: snapshot %+v, want health %q serving %v", name, ss, h.name, h.serving)
					}
				}
			}
		}
	}
}

// degradedBatch seeds keys 0..seeded-1 into a bare shard, one block
// every stride blocks, power-cycles it into an online session, and
// drives one multi-put request (the shape a PutBatch leg builds) of the
// first n keys through the worker's drain while the session is open.
func degradedBatch(t *testing.T, protocol string, mem, seeded, n, stride uint64) *shard {
	t.Helper()
	sh := seededShard(t, protocol, mem, seeded, stride)
	epochs := sh.m[cEpochs].Load()
	req := request{op: opPut, kvs: make([]kvPair, n), resp: make(chan response, 1)}
	for k := range req.kvs {
		req.kvs[k] = kvPair{uint64(k) * stride, stamp(uint64(k) + 1000)}
	}
	sh.serveBatch([]request{req})
	resp := <-req.resp
	if resp.err != nil {
		t.Fatalf("degraded batch: %v", resp.err)
	}
	for b, err := range resp.errs {
		if err != nil {
			t.Fatalf("degraded batch block %d: %v", b, err)
		}
	}
	if got := sh.m[cEpochs].Load(); got != epochs+1 {
		t.Fatalf("epochs = %d after a degraded batch, want %d: the batch did not commit as one epoch", got, epochs+1)
	}
	if sh.m[cEpochFallbacks].Load() != 0 {
		t.Fatal("degraded batch fell back to per-op replay")
	}
	return sh
}

// seededShard is degradedBatch's setup: the seeded shard, power-cycled
// into an online session. Keys are written in descending order, so
// AMNT's fast subtree ends over the low keys a degraded batch writes.
func seededShard(t *testing.T, protocol string, mem, seeded, stride uint64) *shard {
	t.Helper()
	sh := newBareShard(t, protocol, mem)
	for k := seeded; k > 0; k-- {
		barePut(t, sh, (k-1)*stride, stamp(k-1))
	}
	if err := sh.powerCycle(); err != nil {
		t.Fatalf("power cycle: %v", err)
	}
	if sh.session == nil {
		t.Fatalf("%s shard must power-cycle into an online session", protocol)
	}
	return sh
}

// TestShardDegradedEpoch: a 128-put batch written while a recovery
// session is open commits as one epoch; the writes under a rebuild root
// (all of them for leaf, the fast subtree's for amnt) defer their climb,
// and Finish climbs the union of those paths — each distinct ancestor
// once, which the session's node writes over an idle twin's pin — after
// which the tree is a valid crash image: a second power cycle reads
// every acknowledged key back.
func TestShardDegradedEpoch(t *testing.T) {
	const mem, seeded, n, stride = 2 << 20, 256, 128, 64 // one key per counter leaf
	for _, protocol := range []string{"leaf", "amnt"} {
		t.Run(protocol, func(t *testing.T) {
			idle := seededShard(t, protocol, mem, seeded, stride).barrier()
			sh := degradedBatch(t, protocol, mem, seeded, n, stride)
			g := sh.ctrl.Geometry()
			stale := func(leaf uint64) bool { return true }
			if a, ok := sh.ctrl.Policy().(*core.AMNT); ok {
				lo, hi := g.LeafSpan(a.Level(), a.SubtreeIndex())
				stale = func(leaf uint64) bool { return leaf >= lo && leaf < hi }
			}
			ancestors := map[[2]uint64]bool{}
			for k := uint64(0); k < n; k++ {
				if leaf := k * stride / 64; stale(leaf) {
					for level := g.Levels - 1; level >= 2; level-- {
						ancestors[[2]uint64{uint64(level), g.Ancestor(level, leaf)}] = true
					}
				}
			}
			rep := sh.barrier()
			if h := sh.load(); h != stateServing {
				t.Fatalf("state after finish = %s, want serving", h)
			}
			if got := rep.NodeWrites - idle.NodeWrites; got != uint64(len(ancestors)) {
				t.Fatalf("finish patched %d nodes over an idle session, want %d: one per distinct ancestor", got, len(ancestors))
			}
			if got := sh.m[cDegradedWrites].Load(); got != n {
				t.Fatalf("degraded_writes = %d, want %d (one per key written)", got, n)
			}
			if err := sh.powerCycle(); err != nil {
				t.Fatalf("second power cycle: %v", err)
			}
			sh.barrier()
			if h := sh.load(); h != stateServing {
				t.Fatalf("state after second cycle = %s, want serving", h)
			}
			for k := uint64(0); k < seeded; k++ {
				v, err := bareGet(t, sh, k*stride)
				if err != nil {
					t.Fatalf("get %d after second cycle: %v", k, err)
				}
				if k < n {
					checkStamp(t, k+1000, v)
				} else {
					checkStamp(t, k, v)
				}
			}
		})
	}
}

// TestShardDegradedEpochTamper: tampered state met while the shard
// serves degraded batches must quarantine the shard at Finish — never
// serve silently. For leaf, a counter leaf tampered on the device fails
// the rebuild audit. For amnt, a consistent replay of a block outside
// the fast subtree (its counter, data and HMAC) is outside every
// rebuild root, so a degraded get walks the strictly persisted tree and
// fails, and the session that served it cannot finish clean.
func TestShardDegradedEpochTamper(t *testing.T) {
	for _, tc := range []struct {
		protocol string
		tamper   func(t *testing.T, sh *shard)
	}{
		{"leaf", func(t *testing.T, sh *shard) {
			// The batch dirties leaf 0 only; leaf 3 (blocks 192-255) holds
			// seeded data it never touched: the rebuild reads it from the
			// device, not from a frozen pre-image.
			if !sh.dev.TamperByte(scm.Counter, 3, 3, 0x20) {
				t.Fatal("tamper failed")
			}
		}},
		{"amnt", func(t *testing.T, sh *shard) {
			g := sh.ctrl.Geometry()
			a := sh.ctrl.Policy().(*core.AMNT)
			outside := func(b uint64) bool {
				lo, hi := g.LeafSpan(a.Level(), a.SubtreeIndex())
				return b/64 < lo || b/64 >= hi
			}
			b := uint64(0)
			if lo, hi := g.LeafSpan(a.Level(), a.SubtreeIndex()); lo == 0 {
				b = hi * 64
			}
			regions := [3]scm.Region{scm.Data, scm.Counter, scm.HMAC}
			idx := [3]uint64{b, b / 64, b / 8}
			var snaps [3][]byte
			sh.barrier()
			barePut(t, sh, b, stamp(b))
			for i := range snaps {
				snaps[i] = sh.dev.SnapshotBlock(regions[i], idx[i])
			}
			barePut(t, sh, b, stamp(b+1))
			if err := sh.powerCycle(); err != nil {
				t.Fatalf("power cycle: %v", err)
			}
			if !outside(b) {
				t.Fatalf("block %d moved into the fast subtree", b)
			}
			for i := range snaps {
				sh.dev.ReplayBlock(regions[i], idx[i], snaps[i])
			}
			if v, err := bareGet(t, sh, b); err == nil {
				t.Fatalf("degraded get of the replayed block served %x with a nil error", v)
			}
		}},
	} {
		t.Run(tc.protocol, func(t *testing.T) {
			const seeded, n = 256, 64 // the batch dirties leaf 0 only
			sh := degradedBatch(t, tc.protocol, 256<<10, seeded, n, 1)
			tc.tamper(t, sh)
			sh.barrier()
			if h := sh.load(); h != stateQuarantined {
				t.Fatalf("state after tampered session = %s, want quarantined", h)
			}
			if sh.m[cFailures].Load() != 1 || sh.m[cIntegrityErrors].Load() == 0 {
				t.Fatalf("failures = %d, integrity_errors = %d", sh.m[cFailures].Load(), sh.m[cIntegrityErrors].Load())
			}
			if _, err := bareGet(t, sh, 0); !errors.Is(err, ErrShardFailed) {
				t.Fatalf("get on tampered shard: %v, want ErrShardFailed", err)
			}
		})
	}
}

// TestShardHealBackoffAndEscalation: a quarantined shard with
// corrupted media fails its in-place heal, backs off exponentially to
// the cap, and — when a checkpoint exists — escalates to a
// checkpoint restore that clears the damage and restores service.
func TestShardHealBackoffAndEscalation(t *testing.T) {
	sh := newBareShard(t, "leaf", 128<<10)
	sh.ckpt = filepath.Join(t.TempDir(), "shard.ckpt")
	const keys = 64
	for b := uint64(0); b < keys; b++ {
		barePut(t, sh, b, stamp(b))
	}
	sh.now += sh.ctrl.Flush(sh.now)
	if err := sh.checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Corrupt a counter block on media: every in-place recovery must
	// fail its audit until the checkpoint restore replaces the image.
	idxs := sh.dev.Indices(scm.Counter)
	if len(idxs) == 0 {
		t.Fatal("no counters on device")
	}
	if !sh.dev.TamperByte(scm.Counter, idxs[0], 3, 0x20) {
		t.Fatal("tamper failed")
	}
	sh.inj.Detach()
	sh.fail()
	if h := sh.load(); h != stateQuarantined {
		t.Fatalf("health after fail = %s", h)
	}
	if sh.healWait != sh.healBackoff {
		t.Fatalf("initial backoff = %v, want %v", sh.healWait, sh.healBackoff)
	}

	// Attempt 1 recovers in place and must fail on the tampered media.
	sh.healOnce()
	if h := sh.load(); h != stateQuarantined {
		t.Fatal("in-place heal succeeded on tampered media")
	}
	if sh.healWait != 2*sh.healBackoff {
		t.Fatalf("backoff after failure = %v, want %v", sh.healWait, 2*sh.healBackoff)
	}
	// Attempt 2 escalates to the checkpoint image, clearing the
	// tamper.
	sh.healOnce()
	if h := sh.load(); h != stateServing {
		t.Fatal("checkpoint-restore heal did not restore service")
	}
	if got, want := sh.m[cHealAttempts].Load(), uint64(2); got != want {
		t.Fatalf("heal_attempts = %d, want %d", got, want)
	}
	if got := sh.m[cHeals].Load(); got != 1 {
		t.Fatalf("heals = %d, want 1", got)
	}
	for b := uint64(0); b < keys; b++ {
		v, err := bareGet(t, sh, b)
		if err != nil {
			t.Fatalf("post-heal get %d: %v", b, err)
		}
		checkStamp(t, b, v)
	}
}

// TestShardHealBackoffCap: without a checkpoint every attempt is
// in-place; repeated failures saturate the backoff at the cap, and a
// later attempt succeeds once the media damage is reverted — with no
// data loss, since in-place healing never discards writes.
func TestShardHealBackoffCap(t *testing.T) {
	sh := newBareShard(t, "leaf", 128<<10)
	const keys = 48
	for b := uint64(0); b < keys; b++ {
		barePut(t, sh, b, stamp(b))
	}
	sh.now += sh.ctrl.Flush(sh.now)
	idxs := sh.dev.Indices(scm.Counter)
	if !sh.dev.TamperByte(scm.Counter, idxs[0], 7, 0x11) {
		t.Fatal("tamper failed")
	}
	sh.inj.Detach()
	sh.fail()
	for i := 0; i < 5; i++ {
		sh.healOnce()
		if h := sh.load(); h != stateQuarantined {
			t.Fatalf("heal attempt %d succeeded on tampered media", i+1)
		}
	}
	if sh.healWait != sh.healBackoffMax {
		t.Fatalf("backoff = %v, want cap %v", sh.healWait, sh.healBackoffMax)
	}
	if got := sh.m[cHealAttempts].Load(); got != 5 {
		t.Fatalf("heal_attempts = %d, want 5", got)
	}
	// Revert the damage (XOR is its own inverse); the next attempt
	// restores service with every write intact.
	sh.dev.TamperByte(scm.Counter, idxs[0], 7, 0x11)
	sh.healOnce()
	if h := sh.load(); h != stateServing {
		t.Fatal("heal after media repair did not restore service")
	}
	for b := uint64(0); b < keys; b++ {
		v, err := bareGet(t, sh, b)
		if err != nil {
			t.Fatalf("post-heal get %d: %v", b, err)
		}
		checkStamp(t, b, v)
	}
}

// TestStoreQuarantineHealsLive quarantines a live shard through the
// public API and waits for the supervised heal loop to restore it,
// with every acknowledged key intact.
func TestStoreQuarantineHealsLive(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	cfg.HealBackoff = 2 * time.Millisecond
	cfg.HealBackoffMax = 10 * time.Millisecond
	s := mustOpen(t, cfg)
	ctx := context.Background()
	const keyspace = 100
	for key := uint64(0); key < keyspace; key++ {
		if err := s.Put(ctx, key, stamp(key)); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	if err := s.Quarantine(ctx, 1); err != nil {
		t.Fatalf("quarantine: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ss := s.Stats().Shards[1]
		if ss.Health == "serving" && ss.counts[cHeals] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 never healed: %+v", ss)
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap := s.Stats()
	if snap.Shards[1].counts[cFailures] == 0 || snap.Shards[1].counts[cHealAttempts] == 0 {
		t.Fatalf("quarantine episode not accounted: %+v", snap.Shards[1])
	}
	for key := uint64(0); key < keyspace; key++ {
		v, err := s.Get(ctx, key)
		if err != nil {
			t.Fatalf("post-heal get %d: %v", key, err)
		}
		checkStamp(t, key, v)
	}
}

// TestStoreQuarantineExhaustsAttempts: with healing disabled the
// quarantined shard stays down — the pre-heal behavior, selectable.
func TestStoreQuarantineExhaustsAttempts(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	cfg.HealMaxAttempts = -1
	s := mustOpen(t, cfg)
	ctx := context.Background()
	if err := s.Put(ctx, 1, stamp(1)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.Quarantine(ctx, 1); err != nil {
		t.Fatalf("quarantine: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if ss := s.Stats().Shards[1]; ss.Health != "quarantined" || ss.counts[cHealAttempts] != 0 {
		t.Fatalf("heal ran with healing disabled: %+v", ss)
	}
	if err := s.Put(ctx, 1, stamp(1)); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("put to dead shard: %v, want ErrShardFailed", err)
	}
	// The untouched shard is unaffected.
	if err := s.Put(ctx, 0, stamp(0)); err != nil {
		t.Fatalf("put to healthy shard: %v", err)
	}
}

// TestStoreServeDuringRecoveryMatrix is the chaos-matrix extension
// for online recovery: for every protocol × fault kind, concurrent
// clients hammer the store while every shard rebuilds online, with
// zero integrity violations and no foreign or stale-and-silent reads;
// then the standard fault injection runs, and finally the victim
// shard is quarantined and must heal back into service.
func TestStoreServeDuringRecoveryMatrix(t *testing.T) {
	for _, protocol := range []string{"leaf", "amnt", "amnt-multi"} {
		for _, kind := range []string{"torn", "drop", "reorder", "bitrot"} {
			t.Run(protocol+"/"+kind, func(t *testing.T) {
				cfg := testConfig()
				cfg.Shards = 2
				cfg.Protocol = protocol
				cfg.RecoveryChunk = 1 // maximize the degraded window
				cfg.HealBackoff = 2 * time.Millisecond
				cfg.HealBackoffMax = 10 * time.Millisecond
				s := mustOpen(t, cfg)
				ctx := context.Background()
				const keyspace = uint64(200)
				// Two identical seed rounds (see TestStoreChaosMatrix:
				// makes a legal in-flight revert land on identical
				// bytes).
				for round := 0; round < 2; round++ {
					for key := uint64(0); key < keyspace; key++ {
						if err := s.Put(ctx, key, stamp(key)); err != nil {
							t.Fatalf("seed put %d: %v", key, err)
						}
					}
				}

				// Concurrent clients across the online power cycle. A
				// shard that serves while it recovers never refuses one
				// as recovering.
				var stop atomic.Bool
				var refused atomic.Int64
				var wg sync.WaitGroup
				errCh := make(chan error, 4)
				for c := 0; c < 4; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := 0; !stop.Load(); i++ {
							key := uint64(c*1733+i) % keyspace
							var err error
							if i%3 == 0 {
								err = s.Put(ctx, key, stamp(key))
							} else {
								var v []byte
								v, err = s.Get(ctx, key)
								if err == nil {
									if len(v) != 16 {
										errCh <- fmt.Errorf("key %d: bad value %x", key, v)
										return
									}
								}
							}
							if errors.Is(err, ErrRecovering) {
								refused.Add(1)
							}
							// Explicit degradation signals are the
							// contract; anything else is a failure.
							if err != nil && !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrRecovering) {
								errCh <- fmt.Errorf("client %d key %d: %w", c, key, err)
								return
							}
						}
					}(c)
				}
				time.Sleep(5 * time.Millisecond)
				if err := s.Recover(ctx); err != nil {
					stop.Store(true)
					wg.Wait()
					t.Fatalf("online recover: %v", err)
				}
				time.Sleep(30 * time.Millisecond)
				stop.Store(true)
				wg.Wait()
				close(errCh)
				for err := range errCh {
					t.Fatal(err)
				}
				if n := refused.Load(); n != 0 {
					t.Fatalf("%d requests refused as recovering: the shards did not serve while they recovered", n)
				}

				// Rebuilds complete once the queues go idle.
				deadline := time.Now().Add(10 * time.Second)
				for {
					snap := s.Stats()
					allServing := true
					for _, ss := range snap.Shards {
						if ss.Health != "serving" {
							allServing = false
						}
						if ss.counts[cIntegrityErrors] != 0 {
							t.Fatalf("shard %d: %d integrity errors during degraded serving", ss.Shard, ss.counts[cIntegrityErrors])
						}
					}
					if allServing {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("rebuild never completed: %+v", snap.Shards)
					}
					time.Sleep(time.Millisecond)
				}
				// Every key reads back its own stamp after the audit.
				for key := uint64(0); key < keyspace; key++ {
					v, err := s.Get(ctx, key)
					if err != nil {
						t.Fatalf("key %d after online recovery: %v", key, err)
					}
					checkStamp(t, key, v)
				}

				// One more full write round (repopulates the fault
				// journal the detached-injector recovery skipped), then
				// the standard fault cell.
				for key := uint64(0); key < keyspace; key++ {
					if err := s.Put(ctx, key, stamp(key)); err != nil {
						t.Fatalf("rewrite %d: %v", key, err)
					}
				}
				res, err := s.Chaos(ctx, ChaosSpec{Shard: 1, Kind: kind, Seed: 42})
				if err != nil {
					t.Fatalf("chaos: %v", err)
				}
				if res.Status == "violation" {
					t.Fatalf("silent corruption: %+v", res)
				}
				if !res.Serving {
					t.Fatalf("shard out of service after %s: %+v", kind, res)
				}
				mayMiss := map[uint64]bool{}
				if res.Status == "recovered" {
					for _, blk := range res.DataBlocks {
						mayMiss[blk*uint64(cfg.Shards)+1] = true
					}
				}

				// Quarantine the chaos victim; the heal loop must bring
				// it back under this fault kind's end state.
				if err := s.Quarantine(ctx, 1); err != nil {
					t.Fatalf("quarantine: %v", err)
				}
				deadline = time.Now().Add(10 * time.Second)
				for {
					ss := s.Stats().Shards[1]
					if ss.Health == "serving" && ss.counts[cHeals] >= 1 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("victim shard never healed: %+v", ss)
					}
					time.Sleep(2 * time.Millisecond)
				}
				for key := uint64(0); key < keyspace; key++ {
					v, err := s.Get(ctx, key)
					if errors.Is(err, ErrNotFound) && mayMiss[key] {
						continue
					}
					if err != nil {
						t.Fatalf("key %d after heal (%s): %v", key, res.Status, err)
					}
					checkStamp(t, key, v)
				}
			})
		}
	}
}

// TestStoreDegradedBootFromCheckpoint: reopening a checkpointed store
// must serve correct data immediately — Open returns with shards in
// recovering state and the rebuild completes in the background.
func TestStoreDegradedBootFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CheckpointDir = dir
	cfg.RecoveryChunk = 1
	ctx := context.Background()

	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const keyspace = uint64(300)
	for key := uint64(0); key < keyspace; key++ {
		if err := s.Put(ctx, key, stamp(key)); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2 := mustOpen(t, cfg)
	// First requests land while the rebuild is (or may still be) in
	// flight; they must be served, verified, and correct.
	for key := uint64(0); key < keyspace; key++ {
		v, err := s2.Get(ctx, key)
		if err != nil {
			t.Fatalf("degraded-boot get %d: %v", key, err)
		}
		checkStamp(t, key, v)
	}
	// Writes during/after the degraded boot are acknowledged durably.
	for key := keyspace; key < keyspace+32; key++ {
		if err := s2.Put(ctx, key, stamp(key)); err != nil {
			t.Fatalf("degraded-boot put %d: %v", key, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := s2.Stats()
		allServing := true
		for _, ss := range snap.Shards {
			if ss.Health != "serving" {
				allServing = false
			}
		}
		if allServing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("boot rebuild never completed: %+v", snap.Shards)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s2.Recover(ctx); err != nil {
		t.Fatalf("post-boot recover: %v", err)
	}
	for key := uint64(0); key < keyspace+32; key++ {
		v, err := s2.Get(ctx, key)
		if err != nil {
			t.Fatalf("post-boot get %d: %v", key, err)
		}
		checkStamp(t, key, v)
	}
}

// TestRecoverShardRunsThePlanOnce: a power cycle whose root-path audit
// fails runs the recovery plan once. An amnt node on the subtree
// register's path is tampered on a child slot the path patch does not
// set; the shard's device then sees exactly the Tree writes of one
// blocking Recover of the same image, the same audit error comes back,
// and the shard is quarantined.
func TestRecoverShardRunsThePlanOnce(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	cfg.Protocol = "amnt"
	cfg.ShardMemBytes = 2 << 20 // the subtree's parent is a device node
	cfg.HealMaxAttempts = -1
	s := mustOpen(t, cfg)
	ctx := context.Background()
	for key := uint64(0); key < 32768; key += 128 {
		if err := s.Put(ctx, key, stamp(key)); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// The worker is idle between requests: the test may touch its
	// controller until the next one.
	sh := s.table().list[0]
	var img bytes.Buffer
	if err := sh.ctrl.SaveCheckpoint(&img); err != nil {
		t.Fatalf("save: %v", err)
	}
	a := sh.ctrl.Policy().(*core.AMNT)
	g := sh.ctrl.Geometry()
	flat := g.FlatIndex(a.Level()-1, a.SubtreeIndex()>>3)
	slot := (bmt.ChildSlot(a.SubtreeIndex()) + 1) % bmt.Arity
	tamper := func(dev *scm.Device) {
		if !dev.TamperByte(scm.Tree, flat, slot*cme.MACSize, 0x20) {
			t.Fatalf("tree node %d absent", flat)
		}
	}
	treeWrites := func(dev *scm.Device) uint64 { return dev.Stats().RegionWrites[scm.Tree].Value() }

	policy, err := mee.NewPolicy(cfg.Protocol, cfg.PolicyOptions)
	if err != nil {
		t.Fatal(err)
	}
	ref := mee.New(scm.New(scm.Config{CapacityBytes: cfg.ShardMemBytes}), cfg.MEE, policy)
	if err := ref.LoadCheckpoint(&img); err != nil {
		t.Fatalf("load: %v", err)
	}
	tamper(ref.Device())
	before := treeWrites(ref.Device())
	_, wantErr := ref.Recover(0)
	if wantErr == nil {
		t.Fatal("reference recovery passed its path audit over a tampered path")
	}
	want := treeWrites(ref.Device()) - before

	tamper(sh.dev)
	before = treeWrites(sh.dev)
	err = s.RecoverShard(ctx, 0)
	if got := treeWrites(sh.dev) - before; got != want {
		t.Fatalf("power cycle wrote %d tree nodes, one plan run writes %d", got, want)
	}
	if !errors.Is(err, ErrShardFailed) || !strings.Contains(err.Error(), wantErr.Error()) {
		t.Fatalf("power cycle: %v, want ErrShardFailed carrying %q", err, wantErr)
	}
	if st := sh.load(); st != stateQuarantined {
		t.Fatalf("state = %s, want quarantined", st)
	}
}

// TestTamperedCheckpointRefused: a strict shard's checkpoint with one
// tampered data block is refused by both ways a store takes in an
// image — MigrateAttach and a boot from CheckpointDir — because both
// verify the recovered shard before it serves.
func TestTamperedCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Shards = 1
	cfg.Protocol = "strict"
	cfg.CheckpointDir = dir
	sh := newBareShard(t, cfg.Protocol, cfg.ShardMemBytes)
	sh.ckpt = filepath.Join(dir, "shard-000.ckpt")
	for b := uint64(0); b < 64; b++ {
		barePut(t, sh, b, stamp(b))
	}
	sh.now += sh.ctrl.Flush(sh.now)
	if !sh.dev.TamperByte(scm.Data, 5, 9, 0x40) {
		t.Fatal("tamper failed")
	}
	if err := sh.checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	dstCfg := cfg
	dstCfg.CheckpointDir = ""
	dstCfg.Owned = []int{}
	dst := mustOpen(t, dstCfg)
	f, err := os.Open(sh.ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dst.MigrateAttach(0, f); err == nil {
		t.Fatal("MigrateAttach staged a tampered image")
	}
	if s, err := Open(cfg); err == nil {
		s.Close(context.Background())
		t.Fatal("Open booted a tampered checkpoint")
	}
}
