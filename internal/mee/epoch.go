package mee

import (
	"fmt"
	"slices"
	"time"

	"amnt/internal/bmt"
	"amnt/internal/counters"
	"amnt/internal/scm"
	"amnt/internal/telemetry"
)

// Epoch is a group-commit accumulator over one Controller: writes are
// staged with Put, then made durable together by Commit. Staging does
// not touch the controller at all — no cache, device, or policy state
// changes until Commit — so a power failure anywhere before Commit
// exposes exactly the pre-epoch committed state, and a failure is
// never observable mid-epoch (Commit runs under the controller's
// single-writer guard, and crashes are only injected between guarded
// operations).
//
// Commit runs the four phases of commitEpoch over the staged writes.
// That routine is the controller's only write path — WriteBlock is the
// epoch of one write — so committing N writes together or one at a
// time ends in the same counter bumps, the same tree content, the same
// root register and the same persistence-policy consultations per
// logical write (TestEpochCommitMatchesPerOp, nine protocols); what
// grouping changes is that shared work is done once: each counter
// block is encoded and persisted once, each dirty tree node is hashed
// and climbed once per epoch instead of once per write, and a block
// overwritten several times in the epoch reaches the device only with
// its final value (write combining). What one write costs, cycle for
// cycle, is pinned by testdata/perop_v1.golden. The durability
// contract does not depend on the grouping because nothing in the
// epoch is acknowledged until Commit returns: an acked write survives
// a power cycle whatever epoch carried it, and an unacked write may
// vanish wholesale.
//
// An Epoch is single-use: after Commit or Abort it rejects further
// calls. Like the Controller itself it is not safe for concurrent use.
type Epoch struct {
	c    *Controller
	now  uint64
	ops  []epochOp
	done bool
}

// epochOp is one staged write: the block index and a private copy of
// the plaintext.
type epochOp struct {
	block uint64
	value [scm.BlockSize]byte
}

// EpochResult summarizes one committed epoch.
type EpochResult struct {
	// Ops is the number of staged writes committed.
	Ops int
	// Blocks is the number of distinct data blocks written to the
	// device (Ops minus write-combined overwrites).
	Blocks int
	// Counters is the number of distinct counter blocks encoded.
	Counters int
	// TreeNodes is the number of distinct inner tree nodes rehashed.
	TreeNodes int
	// Cycles is the simulated latency of the whole commit.
	Cycles uint64
	// ClimbNs and PersistNs split the commit's host wall-clock time
	// for latency attribution: PersistNs covers the data-block device
	// write phase (encrypt + post + MAC), ClimbNs everything else
	// (counter accumulation, hashing, the tree climb). Telemetry only —
	// never part of simulated results, and zero when not measured.
	ClimbNs, PersistNs int64
}

// BeginEpoch starts an empty epoch at simulated time now. The epoch
// holds no controller state; beginning one is free and aborting one
// has no effect.
func (c *Controller) BeginEpoch(now uint64) *Epoch {
	return &Epoch{c: c, now: now}
}

// Len returns the number of staged writes.
func (e *Epoch) Len() int { return len(e.ops) }

// Put stages an encrypted, integrity-maintained write of plaintext src
// to data block b. The value is copied; src may be reused. Nothing
// reaches the controller or the device until Commit.
func (e *Epoch) Put(b uint64, src []byte) error {
	if e.done {
		return fmt.Errorf("mee: Put on a committed epoch")
	}
	if len(src) != scm.BlockSize {
		panic("mee: epoch Put buffer must be BlockSize bytes")
	}
	if b >= e.c.dev.DataBlocks() {
		return fmt.Errorf("mee: write of block %d beyond capacity (%d blocks)", b, e.c.dev.DataBlocks())
	}
	e.ops = append(e.ops, epochOp{block: b})
	copy(e.ops[len(e.ops)-1].value[:], src)
	return nil
}

// Abort discards the staged writes. Safe on a committed epoch.
func (e *Epoch) Abort() {
	e.done = true
	e.ops = nil
}

// Commit makes every staged write durable as one group by running
// commitEpoch's phases over them, and splits the commit's host
// wall-clock time into EpochResult.ClimbNs/PersistNs for the serving
// layer's spans. On error the epoch's effects may be partially applied
// to volatile state (the caller re-commits each op as its own epoch,
// which remains individually verifiable) and the result still carries
// the cycles consumed up to the failure; device state is never left
// integrity-inconsistent with what a subsequent commit can repair or
// loudly detect.
func (e *Epoch) Commit() (EpochResult, error) {
	if e.done {
		return EpochResult{}, fmt.Errorf("mee: Commit on a committed epoch")
	}
	e.done = true
	if len(e.ops) == 0 {
		return EpochResult{}, nil
	}
	c := e.c
	c.enter()
	defer c.exit()
	res, err := c.commitEpoch(e.now, e.ops, true)
	c.session.observe(err)
	if err == nil && c.trace != nil {
		c.trace.Emit(telemetry.Event{
			Cycle:  e.now + res.Cycles,
			Kind:   telemetry.EvEpochCommit,
			Count:  uint64(res.Ops),
			From:   uint64(res.Blocks),
			To:     uint64(res.TreeNodes),
			Cycles: res.Cycles,
			Note:   "group commit",
		})
	}
	return res, err
}

// epochPlan is what a commit works out about its staged writes before
// it touches the controller: the counter page each write lands in,
// which write is the last to its block, and the writes' ancestral
// paths merged into one ascending run of nodes per tree level. It is
// built once per commit, in slices the controller keeps from one
// commit to the next, so a warm commit — the 1-op commit WriteBlock
// makes above all — does its bookkeeping without allocating.
type epochPlan struct {
	one   [1]epochOp          // WriteBlock's staged write
	ct    [scm.BlockSize]byte // phase 2's ciphertext, or a read's (a local would escape to the heap)
	keys  []uint64            // distinct counter-block indices, ascending
	ops   []planOp            // parallel to the staged writes
	pages []planPage          // parallel to keys
	// nodes holds the merged paths level by level, counter blocks
	// first: level l is nodes[start[l]:start[l-1]], ascending by idx,
	// so the children of one parent are adjacent and in slot order —
	// all the climb needs. The counter level is parallel to pages.
	nodes []planNode
	start []int
	order []int32 // pages in the order phase 1 first touched them
}

// planOp is one staged write's place in the plan.
type planOp struct {
	page int32 // position of its counter block in pages
	last bool  // no later staged write targets the same data block
}

// planPage is the counter state of one touched page: cur accumulates
// the epoch's bumps, dev is what the page's ciphertext on the device
// is encrypted under (they part ways until a minor overflow
// re-encrypts the page).
type planPage struct {
	cur, dev counters.Block
	claimed  uint64 // minor slots a later staged write already owns
	loaded   bool
}

// planNode is one counter block or inner node on a merged path.
type planNode struct {
	idx    uint64 // index within its level
	digest uint64 // hash of its final content, once the climb has passed
	parent int32  // position in nodes of idx>>3 one level up; staleLeaf: none
	wt     bool   // some staged write's policy consult asked for write-through
}

// staleLeaf is the parent of a counter block under a recovery
// session's rebuild root: its climb is deferred to Finish.
const staleLeaf = -1

// build lays the plan out for ops; under s, the open recovery session
// if any, a counter block below a rebuild root gets no path.
func (p *epochPlan) build(g bmt.Geometry, ops []epochOp, s *RecoverySession) {
	p.keys = p.keys[:0]
	for i := range ops {
		p.keys = append(p.keys, counters.CounterIndex(ops[i].block))
	}
	slices.Sort(p.keys)
	p.keys = slices.Compact(p.keys)
	p.layout(g, s)

	// Last writers, in one reverse pass: a write is the last to its
	// block iff no later write has claimed the block's minor slot.
	p.pages = slices.Grow(p.pages[:0], len(p.keys))[:len(p.keys)]
	clear(p.pages)
	p.ops = slices.Grow(p.ops[:0], len(ops))[:len(ops)]
	for i := len(ops) - 1; i >= 0; i-- {
		b := ops[i].block
		pos, _ := slices.BinarySearch(p.keys, counters.CounterIndex(b))
		pg := &p.pages[pos]
		bit := uint64(1) << counters.MinorSlot(b)
		p.ops[i] = planOp{page: int32(pos), last: pg.claimed&bit == 0}
		pg.claimed |= bit
	}
	p.order = p.order[:0]
}

// layout merges the paths of the counter blocks in p.keys (ascending)
// into p.nodes, all but those s says are stale.
func (p *epochPlan) layout(g bmt.Geometry, s *RecoverySession) {
	p.nodes = p.nodes[:0]
	for _, idx := range p.keys {
		n := planNode{idx: idx}
		if s.stale(g.Levels, idx) {
			n.parent = staleLeaf
		}
		p.nodes = append(p.nodes, n)
	}
	if len(p.start) != g.Levels+1 {
		p.start = make([]int, g.Levels+1)
	}
	p.start[g.Levels] = 0
	for level := g.Levels - 1; level >= 1; level-- {
		end := len(p.nodes) // of the level below; this level starts here
		p.start[level] = end
		if level == 1 {
			continue // level 1 is the root register, not a node
		}
		for child := p.start[level+1]; child < end; child++ {
			if p.nodes[child].parent == staleLeaf {
				continue
			}
			idx := p.nodes[child].idx >> 3
			if len(p.nodes) == end || p.nodes[len(p.nodes)-1].idx != idx {
				p.nodes = append(p.nodes, planNode{idx: idx})
			}
			p.nodes[child].parent = int32(len(p.nodes) - 1)
		}
	}
}

// commitEpoch is the write path: every data-block write the controller
// performs is one of its ops, staged by Epoch.Put or, for WriteBlock,
// sitting alone in the plan's scratch. It runs under the single-writer
// guard. timed asks for the host wall-clock split Epoch.Commit reports.
//
// Phase 1 replays the policy/counter sequence: per staged write, the
// policy's OnDataWrite fires (AMNT movement and BMF maintenance are
// decided here, carried out by the completion hooks), the write's
// counter bump accumulates in the plan — never encoded into the cache,
// so no half-climbed counter can be evicted to the device — and the
// write-through consults for its counter block and every node on its
// ancestral path are OR-ed into the plan. Minor-counter overflows
// re-encrypt their page immediately; the data there is still pre-epoch
// content, verified under the exact counter state the device reflects.
//
// Phase 2 writes each distinct data block once, encrypted under its
// final counter, and updates its MAC.
//
// Phase 3 encodes the final counter values into the cache and hashes
// them; phase 4 is climbPlan over the merged paths. A node is persisted
// if any staged write would have persisted it: a policy's
// WriteThroughTree answer is constant for the whole epoch (anything
// that changes it runs from OnWriteComplete), so phase 1's consults are
// exact. Completion hooks then fire once per staged write.
//
// An open recovery session is a set of conditions on those phases, not
// another route. Its roots stay put, so OnDataWrite and OnWriteComplete
// (hot-region tracking and the movements it triggers) are not called.
// A write to a leaf under a rebuild root first freezes the leaf's
// pre-write device image for the rebuild audit, and its leaf gets no
// path: nothing is hashed or climbed for it here, and Finish climbs it
// once the audit has passed. Every other write climbs as always.
//
// The iteration orders are load-bearing for the simulated cycle count
// (every fetch can evict, every post can stall): staged order in
// phases 1 and 2 and for the completion hooks, first-touch order in
// phase 3, ascending index per level in phase 4. A 1-op epoch visits
// exactly what the per-op write this routine replaced visited, in the
// same order (testdata/perop_v1.golden).
//
// Every return, error or not, carries the cycles consumed so far.
func (c *Controller) commitEpoch(now uint64, ops []epochOp, timed bool) (EpochResult, error) {
	g := c.geo
	s := c.session
	var wallStart time.Time
	if timed {
		wallStart = time.Now()
	}
	plan := &c.plan
	plan.build(g, ops, s)
	res := EpochResult{Ops: len(ops), Counters: len(plan.keys)}

	// Phase 1: policy sequencing and counter accumulation.
	for i := range ops {
		b := ops[i].block
		pos := plan.ops[i].page
		pg := &plan.pages[pos]
		ctrIdx := plan.nodes[pos].idx
		stale := plan.nodes[pos].parent == staleLeaf
		c.st.DataWrites.Inc()
		if s == nil {
			pc := c.policy.OnDataWrite(now+res.Cycles, b)
			c.st.PolicyCycles.Add(pc)
			res.Cycles += pc
		} else {
			s.writes++
		}
		if stale {
			s.freeze(ctrIdx)
		}
		if !pg.loaded {
			content, cc, err := c.FetchVerified(now+res.Cycles, g.Levels, ctrIdx)
			res.Cycles += cc
			if err != nil {
				return res, err
			}
			pg.cur = counters.Decode(content)
			pg.dev = pg.cur
			pg.loaded = true
			plan.order = append(plan.order, pos)
		}
		if pg.cur.Bump(counters.MinorSlot(b)) {
			c.st.Overflows.Inc()
			if c.trace != nil {
				c.trace.Emit(telemetry.Event{
					Cycle: now + res.Cycles,
					Kind:  telemetry.EvOverflow,
					Addr:  ctrIdx,
					Note:  "page re-encryption",
				})
			}
			rc, err := c.reencryptPage(now+res.Cycles, ctrIdx, &pg.dev, &pg.cur, b)
			res.Cycles += rc
			if err != nil {
				return res, err
			}
			pg.dev = pg.cur
		}
		if c.policy.WriteThroughCounter(ctrIdx) {
			plan.nodes[pos].wt = true
		}
		if stale {
			continue
		}
		at := pos
		for level := g.Levels - 1; level >= 2; level-- {
			at = plan.nodes[at].parent
			if n := &plan.nodes[at]; c.policy.WriteThroughTree(level, n.idx) {
				n.wt = true
			}
		}
	}

	// Phase 2: one device write per distinct block, final value under
	// the final counter (in staged order of the last overwrite).
	var persistStart time.Duration
	if timed {
		persistStart = time.Since(wallStart)
	}
	for i := range ops {
		if !plan.ops[i].last {
			continue
		}
		b := ops[i].block
		res.Blocks++
		major, minor := plan.pages[plan.ops[i].page].cur.Get(counters.MinorSlot(b))
		ct := plan.ct[:]
		c.eng.Encrypt(dataAddr(b), major, minor, ct, ops[i].value[:])
		res.Cycles += c.PostDeviceWrite(now+res.Cycles, scm.Data, b, ct, false)
		mac := c.eng.MAC(dataAddr(b), major, minor, ct)
		res.Cycles += c.cfg.HashCycles
		c.st.VerifyHashes.Inc()
		hmacIdx := b / hmacSlotsPerBlock
		hmacBlk, hc := c.fetchHMAC(now+res.Cycles, hmacIdx)
		res.Cycles += hc
		bmt.SetChildDigest(hmacBlk, int(b%hmacSlotsPerBlock), mac)
		hkey := HMACKey(hmacIdx)
		c.markDirty(hkey)
		if c.policy.WriteThroughHMAC(hmacIdx) {
			res.Cycles += c.PersistMeta(now+res.Cycles, hkey, false)
		}
	}
	if timed {
		res.PersistNs = (time.Since(wallStart) - persistStart).Nanoseconds()
	}

	// Phase 3: encode final counters into the cache, once per block
	// (refetched: phase 2's HMAC traffic may have evicted it). The
	// digest is taken immediately after encoding, so a later eviction
	// never forces a refetch of a bumped-but-unclimbed block.
	for _, pos := range plan.order {
		n := &plan.nodes[pos]
		content, cc, err := c.FetchVerified(now+res.Cycles, g.Levels, n.idx)
		res.Cycles += cc
		if err != nil {
			return res, err
		}
		plan.pages[pos].cur.Encode(content)
		ckey := CounterKey(n.idx)
		c.markDirty(ckey)
		if n.wt {
			res.Cycles += c.PersistMeta(now+res.Cycles, ckey, false)
		}
		if n.parent == staleLeaf {
			continue
		}
		n.digest = bmt.Hash(c.eng, g.Levels, content)
		res.Cycles += c.cfg.HashCycles
		c.st.VerifyHashes.Inc()
	}

	// Phase 4: one bottom-up climb over the merged paths.
	if err := c.climbPlan(now, plan, &res); err != nil {
		return res, err
	}

	// Completion hooks, once per logical write (PLP's persist barrier,
	// AMNT's subtree movement, BMF's prune/merge).
	if s == nil {
		for i := range ops {
			pc := c.policy.OnWriteComplete(now+res.Cycles, ops[i].block)
			c.st.PolicyCycles.Add(pc)
			res.Cycles += pc
		}
	}

	if timed {
		if climb := time.Since(wallStart).Nanoseconds() - res.PersistNs; climb > 0 {
			res.ClimbNs = climb
		}
	}
	return res, nil
}

// climbPlan is phase 4 of a commit, and the climb a recovery session
// defers to Finish: one bottom-up pass over the plan's merged paths,
// seeded with its counter blocks' digests, one SetChildDigest per child
// and one hash per node, applying the policy's tree hooks (OnTreeUpdate
// sees the final content in cache, so PLP's posted persists and
// BMF/AMNT's register copies capture what will be durable), persisting
// the nodes marked write-through, and folding the level-2 digests into
// the root register. Stale counter blocks have no path.
func (c *Controller) climbPlan(now uint64, plan *epochPlan, res *EpochResult) error {
	g := c.geo
	for level := g.Levels - 1; level >= 2; level-- {
		child, end := plan.start[level+1], plan.start[level]
		for at := end; at < plan.start[level-1]; at++ {
			n := &plan.nodes[at]
			res.TreeNodes++
			content, fc, err := c.FetchVerified(now+res.Cycles, level, n.idx)
			res.Cycles += fc
			if err != nil {
				return err
			}
			for ; child < end; child++ {
				ch := &plan.nodes[child]
				if ch.parent == staleLeaf {
					continue
				}
				if ch.parent != int32(at) {
					break
				}
				bmt.SetChildDigest(content, bmt.ChildSlot(ch.idx), ch.digest)
			}
			key := TreeKey(g, level, n.idx)
			c.markDirty(key)
			pc := c.policy.OnTreeUpdate(now+res.Cycles, level, n.idx, content)
			c.st.PolicyCycles.Add(pc)
			res.Cycles += pc
			if n.wt {
				res.Cycles += c.PersistMeta(now+res.Cycles, key, true)
			}
			n.digest = bmt.Hash(c.eng, level, content)
			res.Cycles += c.cfg.HashCycles
			c.st.VerifyHashes.Inc()
		}
	}
	for _, n := range plan.nodes[plan.start[2]:plan.start[1]] {
		if n.parent != staleLeaf {
			bmt.SetChildDigest(c.rootNV[:], bmt.ChildSlot(n.idx), n.digest)
		}
	}
	return nil
}
