package mee

import (
	"fmt"
	"sort"
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
// Commit is equivalent to replaying the staged writes through
// WriteBlock one at a time — same counter bumps, same final tree
// content, same root register, same persistence-policy consultations
// per logical write — but the shared work is deduplicated: each
// counter block is encoded and persisted once, each dirty tree node is
// hashed and climbed once per epoch instead of once per write, and a
// block overwritten several times in the epoch reaches the device only
// with its final value (write combining). The durability contract is
// unchanged because nothing in the epoch is acknowledged until Commit
// returns: an acked write survives a power cycle exactly as a per-op
// acked write does, and an unacked write may vanish wholesale.
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

// Commit makes every staged write durable as one group: counters are
// bumped per logical write but encoded and persisted once per block,
// the ancestral tree paths are merged and climbed bottom-up with one
// hash per dirty node, and the persistence policy is consulted for
// every logical write so stateful policies (Osiris stop-loss, AMNT
// movement) observe the same sequence a per-op replay would. On error
// the epoch's effects may be partially applied to volatile state (the
// caller re-commits each op as its own epoch, which remains
// individually verifiable); device state is never left
// integrity-inconsistent with what a subsequent per-op write path can
// repair or loudly detect.
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
	return c.commitEpoch(e.now, e.ops)
}

// commitEpoch runs the group commit under the single-writer guard.
//
// Phase 1 replays the policy/ counter sequence: per staged write, the
// policy's OnDataWrite fires (AMNT movement decisions happen here,
// against a still-consistent pre-epoch tree), the write's counter bump
// accumulates in a local counters.Block — never encoded into the
// cache, so no half-climbed counter can be evicted to the device —
// and the write's ancestral path is merged into the dirty-node sets.
// Minor-counter overflows re-encrypt their page immediately; the data
// there is still pre-epoch content, verified under the exact counter
// state the device reflects.
//
// Phase 2 writes each distinct data block once, encrypted under its
// final counter, and updates its MAC.
//
// Phase 3 encodes the final counter values into the cache and hashes
// them; phase 4 climbs the merged tree paths bottom-up, one
// SetChildDigest+hash per dirty node, applying each policy's tree
// hooks (OnTreeUpdate sees the final content in cache, so PLP's
// posted persists and BMF/AMNT's register copies capture what will
// actually be durable), and finally folds the level-2 digests into
// the root register. Write-through decisions are OR-merged: a node is
// persisted if any staged write would have persisted it, and the
// policy is re-consulted at climb time so positional policies (AMNT
// after a mid-epoch movement) keep their strict-outside guarantee.
//
// Ordering is deterministic: phases iterate in first-touch or sorted
// index order, so equal inputs commit identically.
func (c *Controller) commitEpoch(now uint64, ops []epochOp) (EpochResult, error) {
	g := c.geo
	res := EpochResult{Ops: len(ops)}
	wallStart := time.Now()
	if len(ops) == 1 || c.session != nil {
		// A one-write epoch is exactly one per-op write (the property
		// the equivalence test pins); skip the dedup bookkeeping. An
		// epoch committed during a recovery session takes the same
		// route for every op: the merged climb below would mix in
		// unaudited ancestors, while writeBlock freezes the leaf
		// pre-image, writes data, HMAC and counter through, and leaves
		// the climb to the session's Finish. Dedup is what degraded
		// mode gives up.
		for i := range ops {
			cycles, err := c.writeBlock(now+res.Cycles, ops[i].block, ops[i].value[:])
			res.Cycles += cycles
			if err != nil {
				return res, err
			}
		}
		res.Blocks, res.Counters = len(ops), len(ops)
		if c.session == nil {
			res.TreeNodes = g.Levels - 2
		}
		res.ClimbNs = time.Since(wallStart).Nanoseconds()
		return res, nil
	}
	var cycles uint64
	var persistNs int64

	cur := make(map[uint64]*counters.Block)      // accumulated counter state
	devCtr := make(map[uint64]counters.Block)    // counter state device data reflects
	wtCtr := make(map[uint64]bool)               // counter write-through, OR over ops
	wtTree := make(map[MetaKey]bool)             // tree write-through, OR over ops
	dirty := make([]map[uint64]bool, g.Levels+1) // dirty inner nodes per level
	var ctrOrder []uint64                        // first-touch order, for determinism
	lastWriter := make(map[uint64]int, len(ops))
	for i, op := range ops {
		lastWriter[op.block] = i
	}

	// Phase 1: policy sequencing and local counter accumulation.
	for i := range ops {
		b := ops[i].block
		c.st.DataWrites.Inc()
		pc := c.policy.OnDataWrite(now+cycles, b)
		c.st.PolicyCycles.Add(pc)
		cycles += pc

		ctrIdx := counters.CounterIndex(b)
		slot := counters.MinorSlot(b)
		blk := cur[ctrIdx]
		if blk == nil {
			content, cc, err := c.FetchVerified(now+cycles, g.Levels, ctrIdx)
			cycles += cc
			if err != nil {
				return res, err
			}
			v := counters.Decode(content)
			blk = &v
			cur[ctrIdx] = blk
			devCtr[ctrIdx] = v
			ctrOrder = append(ctrOrder, ctrIdx)
		}
		if blk.Bump(slot) {
			c.st.Overflows.Inc()
			if c.trace != nil {
				c.trace.Emit(telemetry.Event{
					Cycle: now + cycles,
					Kind:  telemetry.EvOverflow,
					Addr:  ctrIdx,
					Note:  "page re-encryption",
				})
			}
			old := devCtr[ctrIdx]
			rc, err := c.reencryptPage(now+cycles, ctrIdx, &old, blk, b)
			cycles += rc
			if err != nil {
				return res, err
			}
			devCtr[ctrIdx] = *blk
		}
		if c.policy.WriteThroughCounter(ctrIdx) {
			wtCtr[ctrIdx] = true
		}
		childIdx := ctrIdx
		for level := g.Levels - 1; level >= 2; level-- {
			idx := childIdx >> 3
			if dirty[level] == nil {
				dirty[level] = make(map[uint64]bool)
			}
			dirty[level][idx] = true
			if c.policy.WriteThroughTree(level, idx) {
				wtTree[TreeKey(g, level, idx)] = true
			}
			childIdx = idx
		}
	}

	// Phase 2: one device write per distinct block, final value under
	// the final counter (in staged order of the last overwrite).
	persistStart := time.Now()
	for i := range ops {
		b := ops[i].block
		if lastWriter[b] != i {
			continue
		}
		res.Blocks++
		major, minor := cur[counters.CounterIndex(b)].Get(counters.MinorSlot(b))
		var ct [scm.BlockSize]byte
		c.eng.Encrypt(dataAddr(b), major, minor, ct[:], ops[i].value[:])
		cycles += c.PostDeviceWrite(now+cycles, scm.Data, b, ct[:], false)
		mac := c.eng.MAC(dataAddr(b), major, minor, ct[:])
		cycles += c.cfg.HashCycles
		c.st.VerifyHashes.Inc()
		hmacIdx := b / hmacSlotsPerBlock
		hmacBlk, hc := c.fetchHMAC(now+cycles, hmacIdx)
		cycles += hc
		bmt.SetChildDigest(hmacBlk, int(b%hmacSlotsPerBlock), mac)
		hkey := HMACKey(hmacIdx)
		c.markDirty(hkey)
		if c.policy.WriteThroughHMAC(hmacIdx) {
			cycles += c.PersistMeta(now+cycles, hkey, false)
		}
	}
	persistNs = time.Since(persistStart).Nanoseconds()

	// Phase 3: encode final counters into the cache, once per block.
	// The digest is taken immediately after encoding, so a later
	// eviction never forces a refetch of a bumped-but-unclimbed block.
	res.Counters = len(ctrOrder)
	digest := make(map[uint64]uint64, len(ctrOrder))
	for _, ctrIdx := range ctrOrder {
		content, cc, err := c.FetchVerified(now+cycles, g.Levels, ctrIdx)
		cycles += cc
		if err != nil {
			return res, err
		}
		cur[ctrIdx].Encode(content)
		ckey := CounterKey(ctrIdx)
		c.markDirty(ckey)
		if wtCtr[ctrIdx] {
			cycles += c.PersistMeta(now+cycles, ckey, false)
		}
		digest[ctrIdx] = bmt.Hash(c.eng, g.Levels, content)
		cycles += c.cfg.HashCycles
		c.st.VerifyHashes.Inc()
	}

	// Phase 4: one bottom-up climb over the merged dirty paths.
	for level := g.Levels - 1; level >= 2; level-- {
		idxs := make([]uint64, 0, len(dirty[level]))
		for idx := range dirty[level] {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		next := make(map[uint64]uint64, len(idxs))
		for _, idx := range idxs {
			res.TreeNodes++
			content, fc, err := c.FetchVerified(now+cycles, level, idx)
			cycles += fc
			if err != nil {
				return res, err
			}
			for slot := uint64(0); slot < bmt.Arity; slot++ {
				ci := idx<<3 | slot
				if d, ok := digest[ci]; ok {
					bmt.SetChildDigest(content, bmt.ChildSlot(ci), d)
				}
			}
			key := TreeKey(g, level, idx)
			c.markDirty(key)
			pc := c.policy.OnTreeUpdate(now+cycles, level, idx, content)
			c.st.PolicyCycles.Add(pc)
			cycles += pc
			if wtTree[key] || c.policy.WriteThroughTree(level, idx) {
				cycles += c.PersistMeta(now+cycles, key, true)
			}
			next[idx] = bmt.Hash(c.eng, level, content)
			cycles += c.cfg.HashCycles
			c.st.VerifyHashes.Inc()
		}
		digest = next
	}
	rootIdxs := make([]uint64, 0, len(digest))
	for idx := range digest {
		rootIdxs = append(rootIdxs, idx)
	}
	sort.Slice(rootIdxs, func(i, j int) bool { return rootIdxs[i] < rootIdxs[j] })
	for _, idx := range rootIdxs {
		bmt.SetChildDigest(c.rootNV[:], bmt.ChildSlot(idx), digest[idx])
	}

	// Completion hooks, once per logical write (PLP's persist barrier,
	// movement bookkeeping).
	for i := range ops {
		pc := c.policy.OnWriteComplete(now+cycles, ops[i].block)
		c.st.PolicyCycles.Add(pc)
		cycles += pc
	}

	res.Cycles = cycles
	res.PersistNs = persistNs
	if climb := time.Since(wallStart).Nanoseconds() - persistNs; climb > 0 {
		res.ClimbNs = climb
	}
	if c.trace != nil {
		c.trace.Emit(telemetry.Event{
			Cycle:  now + cycles,
			Kind:   telemetry.EvEpochCommit,
			Count:  uint64(res.Ops),
			From:   uint64(res.Blocks),
			To:     uint64(res.TreeNodes),
			Cycles: cycles,
			Note:   "group commit",
		})
	}
	return res, nil
}
