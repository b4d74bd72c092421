package mee

import (
	"encoding/binary"
	"sort"

	"amnt/internal/bmt"
	"amnt/internal/scm"
)

// Anubis implements the shadow-table protocol (Zubair & Awad, ISCA
// 2019) as described by the AMNT paper: counters and HMACs follow leaf
// persistence, while a "shadow table" in SCM records the address of
// every block resident in the metadata cache. After a crash, only the
// logged (possibly stale) tree nodes are recomputed, giving a fixed,
// cache-sized recovery time. The price is the slow path: every
// metadata cache fill updates the shadow table atomically — so
// workloads with poor metadata cache locality (the paper's canneal)
// pay a device write per miss.
//
// The shadow table is integrity-protected by an auxiliary shadow
// Merkle tree whose cache is pinned on-chip; we charge its hash
// latency and account its 37 kB of volatile area in Overhead, and
// trust the Shadow region's headers at recovery (tampering with data,
// counters, or the tree proper is still fully detected).
type Anubis struct {
	base
	// slots maps a resident metadata key to its shadow-table slot.
	slots map[MetaKey]int
	// free lists unoccupied shadow slots.
	free []int
	// totalSlots is the shadow table capacity (= metadata cache lines).
	totalSlots int
	// hdr stages a shadow-table record for the device (a local would
	// escape to the heap on every metadata fill and eviction).
	hdr [scm.BlockSize]byte
}

// NewAnubis returns an Anubis policy.
func NewAnubis() *Anubis { return &Anubis{} }

// Name implements Policy.
func (*Anubis) Name() string { return "anubis" }

// Attach implements Policy.
func (a *Anubis) Attach(c *Controller) {
	a.base.Attach(c)
	a.totalSlots = c.MetaCache().Lines()
	a.reset()
}

func (a *Anubis) reset() {
	a.slots = make(map[MetaKey]int, a.totalSlots)
	a.free = a.free[:0]
	for i := a.totalSlots - 1; i >= 0; i-- {
		a.free = append(a.free, i)
	}
}

// WriteThroughCounter implements Policy (leaf semantics).
func (*Anubis) WriteThroughCounter(uint64) bool { return true }

// WriteThroughHMAC implements Policy (leaf semantics).
func (*Anubis) WriteThroughHMAC(uint64) bool { return true }

// WriteThroughTree implements Policy: the tree is lazy; staleness is
// bounded by the shadow table instead.
func (*Anubis) WriteThroughTree(int, uint64) bool { return false }

// shadowHeader encodes a slot's occupancy record into a.hdr.
func (a *Anubis) shadowHeader(key MetaKey, valid bool) []byte {
	binary.LittleEndian.PutUint64(a.hdr[:8], uint64(key))
	a.hdr[8] = 0
	if valid {
		a.hdr[8] = 1
	}
	return a.hdr[:]
}

// OnMetaFill implements MetaObserver: log the incoming block's address in
// the shadow table. The update must be durable before the fill is
// architecturally visible, so it blocks — this is Anubis's slow path.
func (a *Anubis) OnMetaFill(now uint64, key MetaKey) uint64 {
	if len(a.free) == 0 {
		// The cache can never hold more lines than slots; a missing
		// slot means fill/evict pairing was violated.
		panic("anubis: shadow table overflow")
	}
	slot := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.slots[key] = slot
	cycles := a.ctrl.PostDeviceWrite(now, scm.Shadow, uint64(slot), a.shadowHeader(key, true), true)
	cycles += a.ctrl.Config().HashCycles // shadow Merkle tree update (on-chip)
	return cycles
}

// OnMetaEvict implements MetaObserver: clear the departing block's shadow
// entry (posted; the eviction writeback itself carries the ordering).
func (a *Anubis) OnMetaEvict(now uint64, key MetaKey, dirty bool) uint64 {
	slot, ok := a.slots[key]
	if !ok {
		return 0
	}
	delete(a.slots, key)
	a.free = append(a.free, slot)
	cycles := a.ctrl.PostDeviceWrite(now, scm.Shadow, uint64(slot), a.shadowHeader(key, false), false)
	cycles += a.ctrl.Config().HashCycles
	return cycles
}

// Crash implements Policy.
func (a *Anubis) Crash() { a.reset() }

// RecoveryPlan implements Policy: scan the shadow table for the
// addresses resident at crash time and recompute exactly those tree
// nodes from their (persisted) children, deepest level first; the tree
// is then current in SCM and is validated against the NV root.
func (a *Anubis) RecoveryPlan() RecoveryPlan {
	p := a.wholeTree(false)
	p.Prepass = a.recompute
	return p
}

// recompute is Anubis's pre-pass: the shadow-table scan and the
// recomputation of the nodes it names.
func (a *Anubis) recompute(rep *RecoveryReport) error {
	c := a.ctrl
	dev := c.Device()
	g := c.Geometry()

	type node struct {
		level int
		idx   uint64
	}
	var stale []node
	var blk [scm.BlockSize]byte
	for slot := 0; slot < a.totalSlots; slot++ {
		if !dev.Contains(scm.Shadow, uint64(slot)) {
			continue
		}
		rep.Cycles += dev.Read(scm.Shadow, uint64(slot), blk[:])
		rep.ShadowReads++
		if blk[8] != 1 {
			continue
		}
		key := MetaKey(binary.LittleEndian.Uint64(blk[:8]))
		// Consume the entry so a future crash does not replay it.
		rep.Cycles += dev.Write(scm.Shadow, uint64(slot), a.shadowHeader(key, false))
		if !key.IsTree() {
			continue // counters and HMACs are write-through, never stale
		}
		level, idx, ok := innerNode(g, key.index())
		if !ok {
			// The shadow table is device content: an entry naming no
			// inner node of this tree is tampering.
			return &IntegrityError{What: "anubis: shadow entry names no tree node", Addr: uint64(slot)}
		}
		stale = append(stale, node{level, idx})
	}
	// Children before parents: recompute deepest levels first.
	sort.Slice(stale, func(i, j int) bool {
		if stale[i].level != stale[j].level {
			return stale[i].level > stale[j].level
		}
		return stale[i].idx < stale[j].idx
	})
	var content [bmt.NodeSize]byte
	var child [scm.BlockSize]byte
	for _, n := range stale {
		for slot := 0; slot < bmt.Arity; slot++ {
			cl, ci := bmt.Child(n.level, n.idx, slot)
			var digest uint64
			switch {
			case cl == g.Levels && dev.Contains(scm.Counter, ci):
				rep.Cycles += dev.Read(scm.Counter, ci, child[:])
				rep.CounterReads++
				digest = bmt.Hash(c.Engine(), cl, child[:])
			case cl == g.Levels:
				digest = c.ZeroDigest(cl)
			case dev.Contains(scm.Tree, g.FlatIndex(cl, ci)):
				rep.Cycles += dev.Read(scm.Tree, g.FlatIndex(cl, ci), child[:])
				digest = bmt.Hash(c.Engine(), cl, child[:])
			default:
				digest = c.ZeroDigest(cl)
			}
			bmt.SetChildDigest(content[:], slot, digest)
		}
		rep.Cycles += dev.Write(scm.Tree, g.FlatIndex(n.level, n.idx), content[:])
		rep.NodeWrites++
	}
	return nil
}

// innerNode is the (level, index) of an inner tree node at Tree-region
// position flat, or false when no node of g lies there.
func innerNode(g bmt.Geometry, flat uint64) (level int, idx uint64, ok bool) {
	for l := 2; l < g.Levels; l++ {
		if lo := g.FlatIndex(l, 0); flat >= lo && flat-lo < g.NodesAt(l) {
			return l, flat - lo, true
		}
	}
	return 0, 0, false
}

// Overhead implements Policy, following the paper's Table 3: a 64 B NV
// register for the shadow-tree root, ~37 kB of volatile on-chip shadow
// Merkle tree cache, and an equally sized in-memory shadow table (for
// the default 64 kB metadata cache; both scale with cache size).
func (a *Anubis) Overhead() Overhead {
	perLine := uint64(37) // ≈36 B shadow entry + tree amortization
	lines := uint64(a.totalSlots)
	return Overhead{
		NVOnChipBytes:  64,
		VolOnChipBytes: lines * perLine,
		InMemoryBytes:  lines * perLine,
	}
}
