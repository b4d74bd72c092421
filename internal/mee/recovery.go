package mee

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"amnt/internal/bmt"
	"amnt/internal/scm"
	"amnt/internal/telemetry"
)

// ErrRecovering reports that an operation cannot run while an online
// recovery session is active on the controller. The serving layer
// finishes the session (a barrier) before such operations; this
// sentinel is the defensive backstop for direct callers.
var ErrRecovering = errors.New("mee: online recovery in progress")

// OnlineRecoverer is an optional policy extension: policies whose
// recovery is a single bottom-up rebuild over write-through counters
// can run it incrementally while the controller keeps serving.
//
// Only policies that write counters AND data HMACs through on every
// write may implement this. Degraded serving trusts device counter
// blocks provisionally (the per-access data-MAC check still binds
// counter values, ciphertext, and address together, so any tamper of
// one of the three fails immediately); the deferred rebuild audit
// against the NV root register then catches the remaining attack — a
// consistent replay of all three — before recovery is declared done.
// Under a writeback-counter policy (Volatile) an old consistent
// triple is indistinguishable from the lost freshest state, so online
// recovery would permit silently stale reads; such policies must keep
// blocking recovery.
type OnlineRecoverer interface {
	// RecoveryPlan reports the rebuild root of the policy's recovery
	// audit — (1, 0) for whole-tree leaf recovery, the subtree
	// register for AMNT — or ok=false when online recovery is not
	// possible right now.
	RecoveryPlan() (rootLevel int, rootIdx uint64, ok bool)
	// FinishRecover completes recovery from the finished rebuild:
	// compare the rebuilt root against the policy's trust anchor and
	// patch any remaining path state, exactly as the blocking Recover
	// would. It must not assume cache or device state beyond what the
	// rebuild persisted.
	FinishRecover(now uint64, res bmt.RebuildResult) (RecoveryReport, error)
}

// RecoverySession is one online (serve-while-rebuilding) recovery in
// progress on a Controller. The owner goroutine — the same one that
// drives the controller — alternates foreground operations with
// Step calls, then calls Finish to audit and complete.
//
// While a session is active the controller serves degraded:
//   - Counter-leaf fetch misses load device content provisionally
//     (no parent authentication — the tree above is being rebuilt).
//   - Every write — WriteBlock or an epoch of any size; they are one
//     routine, commitEpoch — freezes each touched counter leaf's
//     pre-write content for the rebuild audit, skips the ancestral
//     tree climb, and defers the root-register update; Finish patches
//     the dirty paths, one climb per dirty leaf, after the audit
//     passes.
//   - Checkpoints, flushes, and further recoveries are refused
//     (ErrRecovering) — the serving layer finishes the session first.
type RecoverySession struct {
	c  *Controller
	rb *bmt.Rebuilder
	or OnlineRecoverer
	// frozen maps counter-leaf index -> content at first degraded
	// write (nil = absent then). Shared with the Rebuilder, which
	// hashes these images instead of the moving device blocks.
	frozen map[uint64][]byte
	// dirty is the set of counter leaves written during the session,
	// whose ancestral paths Finish must patch.
	dirty       map[uint64]struct{}
	started     time.Time
	writes      uint64 // degraded data writes observed
	provisional uint64 // counter leaves fetched without parent auth
	finished    bool
}

// finishChunk is the leaf batch size Finish drives the rebuilder with
// when the session is completed before the background loop got there.
const finishChunk = 4096

// BeginRecovery starts an online recovery session after Crash (or
// LoadCheckpoint), returning ok=false when the active policy does not
// support serve-during-recovery — the caller falls back to blocking
// Recover. It panics if a session is already active: sessions are
// barriered (finished) before any operation that could start another.
func (c *Controller) BeginRecovery(now uint64) (*RecoverySession, bool) {
	c.enter()
	defer c.exit()
	if c.session != nil {
		panic("mee: BeginRecovery while a recovery session is active")
	}
	or, ok := c.policy.(OnlineRecoverer)
	if !ok {
		return nil, false
	}
	rootLevel, rootIdx, ok := or.RecoveryPlan()
	if !ok {
		return nil, false
	}
	c.recProg.Reset()
	s := &RecoverySession{
		c:       c,
		or:      or,
		frozen:  make(map[uint64][]byte),
		dirty:   make(map[uint64]struct{}),
		started: time.Now(),
	}
	s.rb = bmt.NewRebuilder(c.dev, c.eng, c.geo, rootLevel, rootIdx,
		bmt.RebuildOptions{Persist: true, Progress: c.recProg}, s.frozen)
	c.session = s
	if c.trace != nil {
		c.trace.Emit(telemetry.Event{
			Cycle: now,
			Kind:  telemetry.EvRecovery,
			Note:  c.policy.Name() + " (online begin)",
		})
	}
	return s, true
}

// Session returns the active online recovery session, nil when none.
func (c *Controller) Session() *RecoverySession { return c.session }

// Step advances the background rebuild by up to maxLeaves source
// leaves, returning true once the rebuild (not the session — see
// Finish) is complete. It takes the controller's single-writer guard,
// so it must be interleaved with, never concurrent to, foreground
// operations.
func (s *RecoverySession) Step(maxLeaves int) bool {
	s.c.enter()
	defer s.c.exit()
	if s.finished {
		return true
	}
	return s.rb.Step(maxLeaves)
}

// Done reports whether the background rebuild has consumed every
// source leaf. Finish must still run to audit and patch.
func (s *RecoverySession) Done() bool { return s.finished || s.rb.Done() }

// DegradedWrites returns how many data writes the session served with
// a deferred tree climb.
func (s *RecoverySession) DegradedWrites() uint64 { return s.writes }

// ProvisionalFetches returns how many counter leaves were fetched
// without parent authentication during the session.
func (s *RecoverySession) ProvisionalFetches() uint64 { return s.provisional }

// Finish drives the rebuild to completion, audits the rebuilt root
// against the policy's trust anchor, patches the tree paths of every
// leaf written during the session, and ends degraded mode. On error
// (audit mismatch = an integrity violation surfaced by recovery) the
// controller's metadata must be considered untrusted; the serving
// layer quarantines and heals. The session is spent either way.
func (s *RecoverySession) Finish(now uint64) (RecoveryReport, error) {
	c := s.c
	c.enter()
	defer c.exit()
	if s.finished {
		return RecoveryReport{}, fmt.Errorf("mee: Finish on a finished recovery session")
	}
	s.finished = true
	for !s.rb.Step(finishChunk) {
	}
	res := s.rb.Result()
	rep, err := s.or.FinishRecover(now, res)
	c.session = nil
	if err == nil {
		c.patchDirty(now, s.dirty, &rep)
	}
	wallNs := uint64(time.Since(s.started).Nanoseconds())
	c.recProg.SetWall(wallNs)
	c.recoveryWallNs.Add(wallNs)
	c.st.Recoveries.Inc()
	c.st.RecoveryCycles.Add(rep.Cycles)
	if c.trace != nil {
		note := rep.Protocol + " (online)"
		if err != nil {
			note += " (failed)"
		}
		c.trace.Emit(telemetry.Event{
			Cycle:  now,
			Kind:   telemetry.EvRecovery,
			From:   wallNs,
			Cycles: rep.Cycles,
			Count:  rep.CounterReads + rep.DataReads + rep.ShadowReads,
			Note:   note,
		})
	}
	return rep, err
}

// abort tears the session down without an audit (power failure or
// checkpoint restore mid-recovery). Caller holds the guard.
func (s *RecoverySession) abort() {
	s.finished = true
	s.rb.Abort()
}

// noteWrite records a degraded write to counter leaf ctrIdx: on first
// touch the leaf's current (pre-write) device content is frozen as
// the rebuild audit's source image, and the leaf joins the dirty set
// Finish will patch. Caller holds the guard and has not yet mutated
// the leaf.
func (s *RecoverySession) noteWrite(ctrIdx uint64) {
	if _, seen := s.frozen[ctrIdx]; !seen {
		s.frozen[ctrIdx] = s.c.dev.SnapshotBlock(scm.Counter, ctrIdx)
	}
	s.dirty[ctrIdx] = struct{}{}
	s.writes++
}

// patchDirty re-climbs the ancestral path of every counter leaf
// written during a session, after the audit validated the frozen
// image: each leaf's current (write-through, trusted-by-construction)
// device content is hashed and folded into its ancestors up to the
// root register, write-through all the way, leaving the device tree
// and the register exactly as if the climbs had run eagerly.
func (c *Controller) patchDirty(now uint64, dirty map[uint64]struct{}, rep *RecoveryReport) {
	if len(dirty) == 0 {
		return
	}
	leaves := make([]uint64, 0, len(dirty))
	for li := range dirty {
		leaves = append(leaves, li)
	}
	slices.Sort(leaves)
	g := c.geo
	var buf [scm.BlockSize]byte
	var node [scm.BlockSize]byte
	for _, li := range leaves {
		rep.Cycles += c.dev.Read(scm.Counter, li, buf[:])
		rep.CounterReads++
		digest := bmt.Hash(c.eng, g.Levels, buf[:])
		childIdx := li
		for level := g.Levels - 1; level >= 2; level-- {
			idx := childIdx >> 3
			flat := g.FlatIndex(level, idx)
			if rc, ok := c.dev.ReadIfPresent(scm.Tree, flat, node[:]); ok {
				rep.Cycles += rc
			} else {
				node = c.zeroNode[level]
			}
			bmt.SetChildDigest(node[:], bmt.ChildSlot(childIdx), digest)
			rep.Cycles += c.dev.Write(scm.Tree, flat, node[:])
			rep.NodeWrites++
			// Keep policy anchors (the AMNT subtree register) in sync
			// with the patched node.
			c.policy.OnTreeUpdate(now, level, idx, node[:])
			digest = bmt.Hash(c.eng, level, node[:])
			childIdx = idx
		}
		bmt.SetChildDigest(c.rootNV[:], bmt.ChildSlot(childIdx), digest)
	}
	// Cached copies of patched tree nodes are stale (the climbs were
	// skipped); drop them so the next fetch re-verifies against the
	// patched device state. Counter leaves stay — their cache content
	// matches the device (write-through).
	for _, k := range c.meta.Keys() {
		if key := MetaKey(k); key.IsTree() {
			c.DropCached(key)
		}
	}
}
