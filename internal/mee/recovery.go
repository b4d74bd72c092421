package mee

import (
	"cmp"
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

// RecoveryPlan is a policy's crash recovery declared as data: what a
// crash may leave stale, and what vouches for it. One executor runs
// every plan — BeginRecovery, Step and Finish; Recover is the session
// that serves nothing in between — in this order: the pre-pass; each
// anchored root's path patched and audited against the root register
// (before the first degraded op); one bmt.Rebuilder per root, stepped
// in turn; at Finish each rebuilt root audited against its anchor, then
// the deferred climb of the leaves written under a root while serving.
type RecoveryPlan struct {
	// Prepass, when non-nil, runs first and adds its work to the report:
	// Osiris's counter replay, Anubis's shadow-table recompute, BMF's
	// root-set recompute, the hybrid machine's DRAM-slot reset.
	Prepass func(rep *RecoveryReport) error
	// Roots are the stale subtrees; those below level 1 share a level.
	Roots []RebuildRoot
	// Persist writes every rebuilt node back. Without it a rebuild only
	// validates, and the report counts none of its work.
	Persist bool
	// Online lets the controller serve while the roots rebuild: only for
	// write-through counters and HMACs under every root, and roots
	// rebuilt from the counters (see RecoverySession).
	Online        bool
	StaleFraction float64
	// Name is the protocol audit failures name (default: the policy's).
	Name string
}

// RebuildRoot is one stale subtree: its root node (Level, Idx), the
// level its rebuild reads (Source: the geometry's Levels for the
// counters, or a persisted level in between, Triad-NVM's boundary), and
// the NV register the rebuilt root must equal (Anchor: AMNT's subtree
// registers, read at Finish; nil for a level-1 root, audited against
// the root register).
type RebuildRoot struct {
	Level  int
	Idx    uint64
	Source int
	Anchor *[bmt.NodeSize]byte
}

// RecoverySession is one recovery in progress on a Controller. The
// owner goroutine alternates foreground operations with Step calls,
// then calls Finish to audit and complete.
//
// While an online session is open the controller serves degraded, but
// only under a rebuild root; everywhere else the tree is whole (the
// roots' paths were patched and audited first) and the normal verified
// walk and climb run. Under a root:
//   - A counter leaf that misses the cache loads provisionally (no
//     parent authentication — the tree above it is being rebuilt); an
//     inner node that misses is ErrRecovering. The data MAC still binds
//     counter, ciphertext and address on every access, and the rebuild
//     audit at Finish catches the one attack left, a consistent replay
//     of all three — which is why Online needs write-through counters
//     and HMACs.
//   - A write freezes its leaf's pre-write content for the rebuild
//     audit and defers its climb to Finish.
//
// Policy write hooks (OnDataWrite, OnWriteComplete) do not run, so the
// roots stay put; checkpoints, flushes, and further recoveries are
// refused (ErrRecovering). An integrity error any operation returns
// fails the session at Finish.
type RecoverySession struct {
	c    *Controller
	plan RecoveryPlan
	rbs  []*bmt.Rebuilder // parallel to plan.Roots
	cur  int              // the rebuilder Step advances
	// rep is the pre-pass's share of the report; path is the root-path
	// patch's, added (and pathErr reported) once the roots pass their
	// audits, as one blocking procedure would.
	rep, path RecoveryReport
	prepErr   error // the pre-pass's; it ends the recovery
	pathErr   error
	opErr     error // the first integrity error an operation returned
	// frozen maps counter-leaf index -> content at first degraded
	// write (nil = absent then). Shared with the Rebuilders, which hash
	// these images instead of the moving device blocks; its keys are
	// the leaves whose climb Finish owes.
	frozen      map[uint64][]byte
	started     time.Time
	writes      uint64 // data writes served while the session was open
	provisional uint64 // counter leaves fetched without parent auth
	finished    bool
}

// Recover runs the active policy's recovery plan to completion, serving
// nothing. Host wall-clock time goes to telemetry (RecoveryWallNs, the
// EvRecovery event), never into simulated results.
func (c *Controller) Recover(now uint64) (RecoveryReport, error) {
	c.enter()
	defer c.exit()
	if c.session != nil {
		return RecoveryReport{}, ErrRecovering
	}
	return c.begin(c.policy.RecoveryPlan()).finish(now)
}

// BeginRecovery starts the recovery after Crash (or LoadCheckpoint):
// an Online plan whose root paths pass their audit returns its session,
// to step and Finish while serving. Otherwise it finishes the recovery
// it began, serving nothing, and returns a nil session with its
// verdict. It panics if a session is active.
func (c *Controller) BeginRecovery(now uint64) (*RecoverySession, error) {
	c.enter()
	defer c.exit()
	if c.session != nil {
		panic("mee: BeginRecovery while a recovery session is active")
	}
	s := c.begin(c.policy.RecoveryPlan())
	if s.prepErr != nil || s.pathErr != nil || !s.plan.Online {
		_, err := s.finish(now)
		return nil, err
	}
	c.session = s
	if c.trace != nil {
		c.trace.Emit(telemetry.Event{
			Cycle: now,
			Kind:  telemetry.EvRecovery,
			Note:  c.policy.Name() + " (online begin)",
		})
	}
	return s, nil
}

// begin runs the pre-pass (its error ends the recovery), the path patch
// (its verdict waits for Finish), and plans one Rebuilder per root.
func (c *Controller) begin(plan RecoveryPlan) *RecoverySession {
	c.recProg.Reset()
	s := &RecoverySession{
		c:       c,
		plan:    plan,
		frozen:  make(map[uint64][]byte),
		started: time.Now(),
	}
	if s.plan.Name == "" {
		s.plan.Name = c.policy.Name()
	}
	s.rep = RecoveryReport{Protocol: c.policy.Name(), StaleFraction: plan.StaleFraction}
	if plan.Prepass != nil {
		if s.prepErr = plan.Prepass(&s.rep); s.prepErr != nil {
			return s
		}
	}
	s.pathErr = s.patchRootPaths()
	opts := bmt.RebuildOptions{Persist: plan.Persist, Progress: c.recProg}
	for _, r := range plan.Roots {
		s.rbs = append(s.rbs, bmt.NewRebuilder(c.dev, c.eng, c.geo, r.Source, r.Level, r.Idx, opts, s.frozen))
	}
	return s
}

// patchRootPaths writes each anchored root's register content home,
// then patches the union of their paths bottom-up: outside the roots
// everything is strictly persisted but the child slots on a root's
// path, so each ancestor is read once, those slots set, and written
// back. The level-2 digests must then match the root register.
func (s *RecoverySession) patchRootPaths() error {
	c, g, rep := s.c, s.c.geo, &s.path
	var path []planNode
	level := 0
	for _, r := range s.plan.Roots {
		if r.Anchor == nil {
			continue
		}
		level = r.Level
		rep.Cycles += c.dev.Write(scm.Tree, g.FlatIndex(r.Level, r.Idx), r.Anchor[:])
		rep.NodeWrites++
		path = append(path, planNode{idx: r.Idx, digest: bmt.Hash(c.eng, r.Level, r.Anchor[:])})
	}
	slices.SortFunc(path, func(x, y planNode) int { return cmp.Compare(x.idx, y.idx) })
	var node [bmt.NodeSize]byte
	for level--; level >= 2; level-- {
		parents := path[:0] // a parent never overtakes its first child
		for j := 0; j < len(path); {
			pidx := path[j].idx >> 3
			flat := g.FlatIndex(level, pidx)
			if rc, ok := c.dev.ReadIfPresent(scm.Tree, flat, node[:]); ok {
				rep.Cycles += rc
			} else {
				node = c.zeroNode[level]
			}
			for ; j < len(path) && path[j].idx>>3 == pidx; j++ {
				bmt.SetChildDigest(node[:], bmt.ChildSlot(path[j].idx), path[j].digest)
			}
			rep.Cycles += c.dev.Write(scm.Tree, flat, node[:])
			rep.NodeWrites++
			parents = append(parents, planNode{idx: pidx, digest: bmt.Hash(c.eng, level, node[:])})
		}
		path = parents
	}
	for _, n := range path {
		if bmt.ChildDigest(c.rootNV[:], bmt.ChildSlot(n.idx)) != n.digest {
			return &IntegrityError{What: s.plan.Name + " recovered path does not match root register", Addr: n.idx}
		}
	}
	return nil
}

// stale reports whether node (level, idx) — level Levels for a counter
// leaf — lies under a rebuild root, where the degraded rules apply.
// Nil-safe: without a session nothing is stale.
func (s *RecoverySession) stale(level int, idx uint64) bool {
	if s == nil {
		return false
	}
	for _, r := range s.plan.Roots {
		if level > r.Level && idx>>(3*uint(level-r.Level)) == r.Idx {
			return true
		}
	}
	return false
}

// Session returns the active online recovery session, nil when none.
func (c *Controller) Session() *RecoverySession { return c.session }

// Step advances the rebuild by up to maxLeaves source leaves (all when
// maxLeaves <= 0), returning true once every root is rebuilt; Finish
// must still run. It takes the single-writer guard: interleave it with
// foreground operations, never run it concurrently.
func (s *RecoverySession) Step(maxLeaves int) bool {
	s.c.enter()
	defer s.c.exit()
	return s.step(maxLeaves)
}

// step is Step under the caller's guard.
func (s *RecoverySession) step(maxLeaves int) bool {
	for !s.finished && s.cur < len(s.rbs) && s.rbs[s.cur].Step(maxLeaves) {
		s.cur++
		if maxLeaves > 0 {
			break
		}
	}
	return s.Done()
}

// Done reports whether every root's rebuild is complete.
func (s *RecoverySession) Done() bool { return s.finished || s.cur == len(s.rbs) }

// DegradedWrites returns how many data writes the session served.
func (s *RecoverySession) DegradedWrites() uint64 { return s.writes }

// ProvisionalFetches returns how many counter leaves were fetched
// without parent authentication during the session.
func (s *RecoverySession) ProvisionalFetches() uint64 { return s.provisional }

// Finish completes the rebuild, audits each root against its anchor,
// runs the deferred climb, and ends degraded mode. On error (an audit
// mismatch, or an integrity error an operation returned) the metadata
// is untrusted; the serving layer quarantines and heals. The session is
// spent either way.
func (s *RecoverySession) Finish(now uint64) (RecoveryReport, error) {
	c := s.c
	c.enter()
	defer c.exit()
	if s.finished {
		return RecoveryReport{}, fmt.Errorf("mee: Finish on a finished recovery session")
	}
	return s.finish(now)
}

func (s *RecoverySession) finish(now uint64) (RecoveryReport, error) {
	if s.prepErr != nil {
		return s.end(now, s.rep, s.prepErr)
	}
	s.step(0)
	s.finished = true
	s.c.session = nil
	rep := s.rep
	err := s.audit(&rep)
	if err == nil {
		rep.Cycles += s.path.Cycles
		rep.NodeWrites += s.path.NodeWrites
		err = cmp.Or(s.pathErr, s.opErr)
	}
	if err == nil {
		err = s.climbDeferred(now, &rep)
	}
	return s.end(now, rep, err)
}

// audit adds each rebuild to rep and compares its root against the
// anchor, stopping at the first mismatch.
func (s *RecoverySession) audit(rep *RecoveryReport) error {
	for i, r := range s.plan.Roots {
		res := s.rbs[i].Result()
		if s.plan.Persist {
			rep.CounterReads += res.CounterReads
			rep.NodeWrites += res.NodeWrites
			rep.Cycles += res.Cycles
		}
		switch {
		case r.Anchor == nil && res.Content != s.c.rootNV:
			return &IntegrityError{What: s.plan.Name + " recovery root mismatch", Addr: 0}
		case r.Anchor != nil && res.Content != *r.Anchor:
			return &IntegrityError{What: s.plan.Name + " subtree register mismatch", Addr: r.Idx}
		}
	}
	return nil
}

// climbDeferred is the climb the session's writes under a root owed:
// commitEpoch's phase 4 over the union of their paths, seeded with
// each leaf's current (write-through) device content, so every distinct
// ancestor is patched once. Nothing is written through: a crash
// rebuilds what lies under a root and patches an anchored root's path.
func (s *RecoverySession) climbDeferred(now uint64, rep *RecoveryReport) error {
	if len(s.frozen) == 0 {
		return nil
	}
	c, g, plan := s.c, s.c.geo, &s.c.plan
	plan.keys = plan.keys[:0]
	for li := range s.frozen {
		plan.keys = append(plan.keys, li)
	}
	slices.Sort(plan.keys)
	plan.layout(g, nil)
	var buf [scm.BlockSize]byte
	for i, li := range plan.keys {
		rep.Cycles += c.dev.Read(scm.Counter, li, buf[:])
		rep.CounterReads++
		plan.nodes[i].digest = bmt.Hash(c.eng, g.Levels, buf[:])
	}
	var res EpochResult
	err := c.climbPlan(now, plan, &res)
	rep.Cycles += res.Cycles
	rep.NodeWrites += uint64(res.TreeNodes)
	return err
}

// end closes the recovery's books — wall time, counters, the
// EvRecovery event — and returns its verdict.
func (s *RecoverySession) end(now uint64, rep RecoveryReport, err error) (RecoveryReport, error) {
	c := s.c
	s.abort()
	wallNs := uint64(time.Since(s.started).Nanoseconds())
	c.recProg.SetWall(wallNs)
	c.recoveryWallNs.Add(wallNs)
	c.st.Recoveries.Inc()
	c.st.RecoveryCycles.Add(rep.Cycles)
	if c.trace != nil {
		note := rep.Protocol
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
	for _, rb := range s.rbs {
		rb.Abort()
	}
}

// observe keeps the first integrity error an operation returned while
// the session was open. Nil-safe: no session, nothing to keep.
func (s *RecoverySession) observe(err error) {
	if s == nil || s.opErr != nil || err == nil {
		return
	}
	var ie *IntegrityError
	if errors.As(err, &ie) {
		s.opErr = err
	}
}

// freeze records a write to counter leaf ctrIdx under a root: on first
// touch its pre-write device content becomes the rebuild's source image
// and Finish owes its climb. Caller holds the guard.
func (s *RecoverySession) freeze(ctrIdx uint64) {
	if _, seen := s.frozen[ctrIdx]; !seen {
		s.frozen[ctrIdx] = s.c.dev.SnapshotBlock(scm.Counter, ctrIdx)
	}
}
