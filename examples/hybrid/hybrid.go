// The paper's §7.3 extension: AMNT on a hybrid SCM+DRAM machine. One
// integrity tree covers both devices; the physical address space is
// partitioned at level-2 subtree granularity, with the low partition on
// persistent SCM (protected by the full AMNT protocol) and the high
// partition on volatile DRAM (protected by an ordinary write-back BMT —
// there is nothing to persist because the data itself dies with power).
//
// As the paper observes, the only additions over plain AMNT are "an
// additional (volatile) register for the BMT and knowledge at the
// memory controller of the SCM/DRAM physical address partition":
// persistence decisions consult the partition, and recovery rebuilds
// the SCM half against the NV registers while re-initializing the
// DRAM half of the tree to the zero state (its leaves' data no longer
// exist).

package main

import (
	"fmt"

	"amnt/internal/bmt"
	"amnt/internal/core"
	"amnt/internal/counters"
	"amnt/internal/mee"
	"amnt/internal/scm"
)

// Policy is the hybrid persistence policy: AMNT semantics on the SCM
// partition, volatile write-back semantics on the DRAM partition. The
// embedded AMNT supplies the subtree register hooks, its NV snapshot
// and its statistics unchanged.
type Policy struct {
	*core.AMNT
	// scmSlots is how many of the eight level-2 subtrees are SCM
	// (the rest are DRAM).
	scmSlots int
	ctrl     *mee.Controller
}

// NewPolicy builds a hybrid policy whose low scmSlots/8 of physical
// memory is SCM. opts configure the embedded AMNT (subtree level,
// interval).
func NewPolicy(scmSlots int, opts ...core.Option) *Policy {
	if scmSlots < 1 {
		scmSlots = 1
	}
	if scmSlots > bmt.Arity {
		scmSlots = bmt.Arity
	}
	return &Policy{AMNT: core.New(opts...), scmSlots: scmSlots}
}

// Name implements mee.Policy.
func (*Policy) Name() string { return "hybrid" }

// SCMSlots returns the number of level-2 subtrees on SCM.
func (p *Policy) SCMSlots() int { return p.scmSlots }

// Attach implements mee.Policy.
func (p *Policy) Attach(c *mee.Controller) {
	p.ctrl = c
	p.AMNT.Attach(c)
	if p.AMNT.Level() < 2 {
		panic("hybrid: AMNT subtree level must be >= 2 so the fast subtree stays inside the SCM partition")
	}
}

// scmCounter reports whether a counter block lives on SCM.
func (p *Policy) scmCounter(ctrIdx uint64) bool {
	return p.ctrl.Geometry().Ancestor(2, ctrIdx) < uint64(p.scmSlots)
}

// scmNode reports whether an inner tree node's subtree is entirely on
// SCM (its level-2 ancestor-or-self is an SCM slot).
func (p *Policy) scmNode(level int, idx uint64) bool {
	if level < 2 {
		return true // the root spans both; treated as SCM for persistence
	}
	return idx>>(3*uint(level-2)) < uint64(p.scmSlots)
}

// --- persistence decisions -------------------------------------------

// WriteThroughCounter implements mee.Policy.
func (p *Policy) WriteThroughCounter(ctrIdx uint64) bool {
	if !p.scmCounter(ctrIdx) {
		return false // DRAM: nothing to make durable
	}
	return p.AMNT.WriteThroughCounter(ctrIdx)
}

// WriteThroughHMAC implements mee.Policy.
func (p *Policy) WriteThroughHMAC(hmacIdx uint64) bool {
	// One HMAC block covers 8 data blocks = 8 slots of one page, so
	// its partition is its page's partition.
	ctrIdx := counters.CounterIndex(hmacIdx * 8)
	if !p.scmCounter(ctrIdx) {
		return false
	}
	return p.AMNT.WriteThroughHMAC(hmacIdx)
}

// WriteThroughTree implements mee.Policy.
func (p *Policy) WriteThroughTree(level int, idx uint64) bool {
	if !p.scmNode(level, idx) {
		return false // DRAM side: ordinary write-back BMT
	}
	return p.AMNT.WriteThroughTree(level, idx)
}

// OnDataWrite implements mee.Policy: only SCM-side writes feed the
// hot-region tracker (a DRAM region can never be the fast subtree —
// it needs no fast persistence in the first place).
func (p *Policy) OnDataWrite(now uint64, dataBlock uint64) uint64 {
	if !p.scmCounter(counters.CounterIndex(dataBlock)) {
		return 0
	}
	return p.AMNT.OnDataWrite(now, dataBlock)
}

// --- crash & recovery ---------------------------------------------------

// Crash implements mee.Policy: beyond AMNT's volatile state, the DRAM
// partition physically loses its contents.
func (p *Policy) Crash() {
	p.AMNT.Crash()
	p.wipeDRAM()
}

// wipeDRAM drops every DRAM-partition block from the device: data,
// counters, HMACs, and the tree nodes beneath DRAM level-2 slots.
func (p *Policy) wipeDRAM() {
	dev := p.ctrl.Device()
	g := p.ctrl.Geometry()
	leafLo, _ := g.LeafSpan(2, uint64(p.scmSlots))
	leafHi := g.Leaves
	dev.DropRange(scm.Counter, leafLo, leafHi)
	dev.DropRange(scm.Data, leafLo*counters.BlocksPerPage, leafHi*counters.BlocksPerPage)
	dev.DropRange(scm.HMAC, leafLo*counters.BlocksPerPage/8, leafHi*counters.BlocksPerPage/8)
	for level := 2; level <= g.Levels-1; level++ {
		idxLo := uint64(p.scmSlots) << (3 * uint(level-2))
		idxHi := uint64(1) << (3 * uint(level-1))
		if idxLo >= idxHi {
			continue
		}
		dev.DropRange(scm.Tree, g.FlatIndex(level, idxLo), g.FlatIndex(level, idxHi-1)+1)
	}
}

// RecoveryPlan implements mee.Policy: the AMNT plan for the SCM half,
// behind a pre-pass that re-initializes the DRAM half of the tree —
// its data is gone, so its level-2 digests in the root register become
// the zero-subtree digests again before the SCM-side audit walks the
// shared root. Only the SCM partition's share of the tree ever needs
// reconstruction.
func (p *Policy) RecoveryPlan() mee.RecoveryPlan {
	plan := p.AMNT.RecoveryPlan()
	plan.Prepass = p.resetDRAM
	plan.StaleFraction *= float64(p.scmSlots) / float64(bmt.Arity)
	return plan
}

// resetDRAM is the hybrid pre-pass: the root register's DRAM slots
// return to the zero tree.
func (p *Policy) resetDRAM(*mee.RecoveryReport) error {
	c := p.ctrl
	root := c.Root()
	for slot := p.scmSlots; slot < bmt.Arity; slot++ {
		bmt.SetChildDigest(root[:], slot, c.ZeroDigest(2))
	}
	c.SetRoot(root)
	return nil
}

// Overhead implements mee.Policy: AMNT's hardware plus the extra
// volatile root register the paper calls out.
func (p *Policy) Overhead() mee.Overhead {
	o := p.AMNT.Overhead()
	o.VolOnChipBytes += bmt.NodeSize
	return o
}

// String describes the partition.
func (p *Policy) String() string {
	return fmt.Sprintf("hybrid(scm=%d/8, %s)", p.scmSlots, p.AMNT.String())
}
