// Package core implements A Midsummer Night's Tree (AMNT), the
// paper's contribution: a "tree within a tree" hybrid metadata
// persistence protocol for secure SCM.
//
// One internal BMT node — the *fast subtree root* — is held in an
// on-chip non-volatile register. Writes to data under that node enjoy
// leaf persistence (counter and HMAC persist, tree nodes only dirty
// the metadata cache); writes everywhere else follow strict
// persistence (the whole ancestral path is written through). After a
// crash only the fast subtree is stale, so recovery work is bounded
// by the subtree's span: 1/8^(level-1) of memory, selectable in the
// BIOS via the subtree level.
//
// A 64-entry history buffer tracks which subtree region received the
// most recent writes; every interval the hottest region is adopted as
// the new subtree root, after the epoch that ended the interval.
// Movement flushes the old subtree's dirty nodes and persists its path
// to the global root, preserving crash consistency across the move.
//
// With K registers the history buffer's top K regions are fast: the
// §5 per-core-subtrees alternative the paper rejects, registered as
// amnt-multi so K×64 B of NV flash can be weighed against its hit rate.
package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"amnt/internal/bmt"
	"amnt/internal/counters"
	"amnt/internal/mee"
	"amnt/internal/scm"
	"amnt/internal/stats"
	"amnt/internal/telemetry"
)

// Option configures an AMNT policy.
type Option func(*AMNT)

// WithLevel sets the subtree root level in the paper's numbering
// (root = level 1; level k has 8^(k-1) candidate regions). Default 3.
func WithLevel(level int) Option { return func(a *AMNT) { a.level = level } }

// WithInterval sets the number of data writes per hot-region tracking
// interval (and the history buffer capacity). Default 64.
func WithInterval(n int) Option { return func(a *AMNT) { a.interval = n } }

// WithRegisters sets the number K of fast subtrees, each with its own
// NV register (clamped to the region count at Attach). Default 1, the
// paper's AMNT.
func WithRegisters(k int) Option { return func(a *AMNT) { a.k = k } }

// AMNT is the fast-subtree persistence policy. Construct with New and
// install into an mee.Controller.
type AMNT struct {
	name     string
	level    int
	interval int
	k        int

	ctrl *mee.Controller

	// The subtree root registers, non-volatile on-chip state that
	// survives Crash: which node is fast, and its current content.
	regs []subtreeReg

	// Volatile state. history is ordered by count, an entry ahead of
	// every entry with a smaller count, so its first K entries are the
	// hottest regions.
	history     []histEntry
	roundWrites int
	curInside   bool // whether the in-flight write targets a fast subtree

	// Statistics.
	subtreeHits stats.Ratio
	movements   stats.Counter
	flushes     stats.Counter
}

type subtreeReg struct {
	idx     uint64
	content [bmt.NodeSize]byte
	next    uint64 // volatile: the region the last interval end chose for this register
}

type histEntry struct {
	region uint64
	count  uint32
}

// New returns an AMNT policy with the paper's defaults (subtree level
// 3, 64-write interval, 64-entry history buffer, one register).
func New(opts ...Option) *AMNT {
	a := &AMNT{name: "amnt", level: 3, interval: 64, k: 1}
	for _, o := range opts {
		o(a)
	}
	a.level = max(a.level, 1)
	a.interval = max(a.interval, 1)
	a.k = max(a.k, 1)
	return a
}

// Name implements mee.Policy.
func (a *AMNT) Name() string { return a.name }

// Attach implements mee.Policy. The K subtrees boot over the first K
// regions with the zero-tree content, matching the zeroed device.
func (a *AMNT) Attach(c *mee.Controller) {
	a.ctrl = c
	g := c.Geometry()
	a.level = max(min(a.level, g.Levels-1), 1) // the subtree root must be an inner node
	a.k = int(min(uint64(a.k), a.Regions()))
	a.regs = make([]subtreeReg, a.k)
	zero := bmt.ZeroNode(c.Engine(), g, a.level)
	for i := range a.regs {
		a.regs[i] = subtreeReg{idx: uint64(i), content: zero, next: uint64(i)}
	}
	a.history = make([]histEntry, 0, a.interval)
}

// Level returns the configured subtree root level.
func (a *AMNT) Level() int { return a.level }

// SubtreeIndex returns the first subtree root's index within its level.
func (a *AMNT) SubtreeIndex() uint64 { return a.regs[0].idx }

// SubtreeHitRate reports the fraction of data writes that landed in a
// fast subtree (the paper's Figure 7 metric).
func (a *AMNT) SubtreeHitRate() float64 { return a.subtreeHits.Rate() }

// SubtreeWrites returns total data writes observed.
func (a *AMNT) SubtreeWrites() uint64 { return a.subtreeHits.Total }

// Movements reports how many register retargets occurred (§6.2).
func (a *AMNT) Movements() uint64 { return a.movements.Value() }

// FlushedNodes reports dirty tree nodes written back by movements.
func (a *AMNT) FlushedNodes() uint64 { return a.flushes.Value() }

// Regions returns the number of candidate subtree regions (8^(level-1)).
func (a *AMNT) Regions() uint64 { return 1 << (3 * uint(a.level-1)) }

// RegisterMetrics implements telemetry.MetricSource: subtree tracking
// statistics under prefix ("policy").
func (a *AMNT) RegisterMetrics(reg *telemetry.Registry) {
	reg.Gauge("policy.subtree_hit_rate", "fraction of data writes inside the fast subtree", a.SubtreeHitRate)
	reg.Counter("policy.subtree_writes", "data writes observed by the hot-region tracker", a.SubtreeWrites)
	reg.Counter("policy.movements", "subtree movements performed", a.Movements)
	reg.Counter("policy.flushed_nodes", "dirty tree nodes flushed by movements", a.FlushedNodes)
	reg.Gauge("policy.subtree_index", "current subtree root index within its level", func() float64 {
		return float64(a.SubtreeIndex())
	})
}

// regFor returns the register holding region, or -1.
func (a *AMNT) regFor(region uint64) int {
	for i := range a.regs {
		if a.regs[i].idx == region {
			return i
		}
	}
	return -1
}

// --- persistence decisions -------------------------------------------

// WriteThroughCounter implements mee.Policy: counters always persist
// (both the leaf and strict halves of the hybrid require it).
func (*AMNT) WriteThroughCounter(uint64) bool { return true }

// WriteThroughHMAC implements mee.Policy.
func (*AMNT) WriteThroughHMAC(uint64) bool { return true }

// WriteThroughTree implements mee.Policy: lazy inside the fast
// subtrees; strict outside. Ancestors of the subtree roots persist
// only when the in-flight write is itself outside every subtree —
// inside writes stop at the NV subtree register.
func (a *AMNT) WriteThroughTree(level int, idx uint64) bool {
	if level >= a.level {
		return a.regFor(idx>>(3*uint(level-a.level))) < 0
	}
	return !a.curInside
}

// AnchorContent implements mee.Policy: the subtree root registers are
// trust anchors.
func (a *AMNT) AnchorContent(level int, idx uint64) ([]byte, bool) {
	if level == a.level {
		if i := a.regFor(idx); i >= 0 {
			return a.regs[i].content[:], true
		}
	}
	return nil, false
}

// OnTreeUpdate implements mee.Policy: updates to a subtree root land in
// its NV register. (The controller's FetchVerified already aliases the
// register through AnchorContent, so the content is current; this hook
// exists for clarity and for the level-1 case.)
func (a *AMNT) OnTreeUpdate(_ uint64, level int, idx uint64, content []byte) uint64 {
	if level == a.level {
		if i := a.regFor(idx); i >= 0 {
			copy(a.regs[i].content[:], content)
		}
	}
	return 0
}

// OnDataRead implements mee.Policy: AMNT's membership check is an
// address comparison against the subtree register — free, the point
// of §7.3's argument against indirection.
func (*AMNT) OnDataRead(uint64, uint64) uint64 { return 0 }

// ConcurrentReadSafe opts AMNT into mee's concurrent read view: the
// read-path hooks are pure (OnDataRead is the free address compare
// above; AnchorContent reads the registers, mutated only under the
// controller's writer lock).
func (*AMNT) ConcurrentReadSafe() bool { return true }

// OnMetaFill implements mee.Policy (no bookkeeping on fills — AMNT's
// area budget has no room for shadow structures).
func (*AMNT) OnMetaFill(uint64, mee.MetaKey) uint64 { return 0 }

// OnMetaEvict implements mee.Policy.
func (*AMNT) OnMetaEvict(uint64, mee.MetaKey, bool) uint64 { return 0 }

// OnWriteComplete implements mee.Policy: the movement an interval end
// decided runs here, after the epoch's climb, so the subtrees — and
// with them every WriteThroughTree answer — are constant for a whole
// epoch.
func (a *AMNT) OnWriteComplete(now uint64, _ uint64) uint64 {
	for i := range a.regs {
		if a.regs[i].next != a.regs[i].idx {
			return a.move(now)
		}
	}
	return 0
}

// --- hot-region tracking ----------------------------------------------

// OnDataWrite implements mee.Policy: classify the write, update the
// history buffer, and run the end-of-interval adoption decision (the
// movement itself waits for OnWriteComplete).
func (a *AMNT) OnDataWrite(_ uint64, dataBlock uint64) uint64 {
	region := a.ctrl.Geometry().Ancestor(a.level, counters.CounterIndex(dataBlock))
	a.curInside = a.regFor(region) >= 0
	a.subtreeHits.Observe(a.curInside)
	a.observe(region)
	a.roundWrites++
	if a.roundWrites >= a.interval {
		a.endOfInterval()
	}
	return 0
}

// observe counts a write to region, moving its entry ahead of every
// entry with a strictly smaller count (so among equal counts the
// first to reach it stays ahead).
func (a *AMNT) observe(region uint64) {
	i := slices.IndexFunc(a.history, func(e histEntry) bool { return e.region == region })
	if i < 0 {
		// Unseen region: allocate an entry (the buffer has one entry per
		// write in the interval, so capacity cannot be exceeded).
		if len(a.history) == cap(a.history) {
			return
		}
		a.history = append(a.history, histEntry{region: region})
		i = len(a.history) - 1
	}
	a.history[i].count++
	for ; i > 0 && a.history[i-1].count < a.history[i].count; i-- {
		a.history[i-1], a.history[i] = a.history[i], a.history[i-1]
	}
}

// endOfInterval decides each register's next region, then resets the
// tracker. The first K history entries are the candidates; a candidate
// no register holds replaces the coldest register outside the
// candidates, but only on a strictly greater count (ties keep the
// incumbent). At K=1 that is: adopt the head when it beat the current
// root. A later interval end in the same epoch overrides the decision.
func (a *AMNT) endOfInterval() {
	top := min(len(a.history), len(a.regs))
	// rank returns region's count and whether it is a candidate.
	rank := func(region uint64) (uint32, bool) {
		i := slices.IndexFunc(a.history, func(e histEntry) bool { return e.region == region })
		if i < 0 {
			return 0, false
		}
		return a.history[i].count, i < top
	}
	for i := range a.regs {
		a.regs[i].next = a.regs[i].idx
	}
	for _, e := range a.history[:top] {
		if a.regFor(e.region) >= 0 {
			continue
		}
		victim, vc := -1, uint32(0)
		for i := range a.regs {
			r := &a.regs[i]
			if c, cand := rank(r.idx); r.next == r.idx && !cand && (victim < 0 || c < vc) {
				victim, vc = i, c
			}
		}
		if victim < 0 || e.count <= vc {
			break // later candidates are no hotter
		}
		a.regs[victim].next = e.region
	}
	a.history = a.history[:0]
	a.roundWrites = 0
}

// move retargets every register whose next region differs: flush every
// dirty tree node once (all of them belong to the old subtrees or their
// root paths, since everything else is write-through), persist the
// register content of each old root, drain the queue, then load and
// adopt each new root.
func (a *AMNT) move(now uint64) uint64 {
	c := a.ctrl
	g := c.Geometry()
	var cycles, flushed uint64

	// 1. Persist the old subtrees' dirty interiors and the dirty
	// ancestors on their root paths (the dirty-bit scan of §4.2).
	for _, key := range c.DirtyTreeKeys(nil) {
		cycles += c.PersistMeta(now+cycles, key, false)
		a.flushes.Inc()
		flushed++
	}
	// 2. An old subtree root's freshest content lives in its register;
	// write it to its home in the Tree region.
	for i := range a.regs {
		if r := &a.regs[i]; r.next != r.idx && a.level >= 2 {
			cycles += c.PostDeviceWrite(now+cycles, scm.Tree, g.FlatIndex(a.level, r.idx), r.content[:], false)
		}
	}
	// 3. Drain the queue: the transition must be durable before the
	// new regions may relax (crash consistency across movement).
	cycles += c.Barrier(now + cycles)

	// 4. Fetch and verify each new subtree root, then promote it into
	// its register. Its cached copy (if any) is dropped so the register
	// is the single source of truth.
	for i := range a.regs {
		r := &a.regs[i]
		if r.next == r.idx {
			continue
		}
		from, to := r.idx, r.next
		r.next = r.idx
		content, fc, err := c.FetchVerified(now+cycles, a.level, to)
		cycles += fc
		if err != nil {
			// An integrity failure here means off-chip tampering; the
			// controller surfaces it on the triggering access. Keep the
			// old (still consistent) subtree.
			continue
		}
		copy(r.content[:], content)
		r.idx, r.next = to, to
		if a.level >= 2 {
			c.DropCached(mee.TreeKey(g, a.level, to))
		}
		a.movements.Inc()
		if t := c.Tracer(); t != nil {
			t.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvSubtreeMove, Level: a.level,
				From: from, To: to, Cycles: cycles, Count: flushed})
		}
	}
	return cycles
}

// SaveNV implements mee.NVSnapshotter: the subtree registers (index +
// content, K×72 bytes) are AMNT's only NV state beyond the root
// register.
func (a *AMNT) SaveNV() []byte {
	out := make([]byte, 0, len(a.regs)*(8+bmt.NodeSize))
	for i := range a.regs {
		out = binary.LittleEndian.AppendUint64(out, a.regs[i].idx)
		out = append(out, a.regs[i].content[:]...)
	}
	return out
}

// RestoreNV implements mee.NVSnapshotter.
func (a *AMNT) RestoreNV(data []byte) error {
	if len(data) != len(a.regs)*(8+bmt.NodeSize) {
		return fmt.Errorf("core: bad AMNT NV snapshot size %d", len(data))
	}
	for i := range a.regs {
		r := &a.regs[i]
		r.idx = binary.LittleEndian.Uint64(data)
		r.next = r.idx
		copy(r.content[:], data[8:])
		data = data[8+bmt.NodeSize:]
	}
	return nil
}

// --- crash & recovery ---------------------------------------------------

// Crash implements mee.Policy: the history buffer, interval state and
// any undone movement decision are volatile; the registers are NV.
func (a *AMNT) Crash() {
	a.history = a.history[:0]
	a.roundWrites = 0
	a.curInside = false
	for i := range a.regs {
		a.regs[i].next = a.regs[i].idx
	}
}

// RecoveryPlan implements mee.Policy: only the fast subtrees are stale
// after a crash, so each is rebuilt from its counters and audited
// against its NV register; the (strictly persisted) paths from the
// subtree roots up to the global root register need only the
// registers. Counters and HMACs are write-through everywhere, so the
// rebuilds can run while serving.
func (a *AMNT) RecoveryPlan() mee.RecoveryPlan {
	g := a.ctrl.Geometry()
	p := mee.RecoveryPlan{
		Roots:         make([]mee.RebuildRoot, len(a.regs)),
		Persist:       true,
		Online:        true,
		StaleFraction: float64(len(a.regs)) / float64(a.Regions()),
		Name:          "amnt",
	}
	for i := range a.regs {
		p.Roots[i] = mee.RebuildRoot{Level: a.level, Idx: a.regs[i].idx, Source: g.Levels, Anchor: &a.regs[i].content}
		if a.level == 1 {
			// Degenerate configuration (whole tree fast, pure leaf
			// persistence): the global root register is the subtree
			// register.
			p.Roots[i].Anchor = nil
		}
	}
	return p
}

// Overhead implements mee.Policy per Table 3: one 64 B NV register per
// subtree and a 96 B (768-bit) volatile history buffer.
func (a *AMNT) Overhead() mee.Overhead {
	historyBits := uint64(a.interval) * 2 * uint64(bits.Len(uint(a.interval-1)))
	return mee.Overhead{
		NVOnChipBytes:  uint64(a.k) * bmt.NodeSize,
		VolOnChipBytes: (historyBits + 7) / 8,
	}
}

// String describes the configuration.
func (a *AMNT) String() string {
	return fmt.Sprintf("amnt(level=%d, interval=%d, regions=%d, registers=%d)", a.level, a.interval, a.Regions(), a.k)
}
