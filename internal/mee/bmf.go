package mee

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"

	"amnt/internal/bmt"
	"amnt/internal/scm"
)

// BMF implements the Bonsai Merkle Forest protocol (Freij, Zhou &
// Solihin, MICRO 2021) as described by the AMNT paper: the single NV
// root register is extended into a non-volatile on-chip cache holding
// a *persistent root set* — a frontier of tree nodes that partitions
// the leaves. Every leaf is covered by exactly one persistent root;
// updates persist strictly from the leaf up to (but excluding) the
// covering root, whose content lives on-chip. Periodically the
// hottest root is "pruned" into its eight children (shortening the
// strict persist path under hot data) and cold sibling groups are
// "merged" back into their parent to reclaim NV capacity.
//
// Because every node is covered, recovery is immediate (nothing below
// the frontier is stale; the few nodes above it are recomputed from
// the NV roots) — but the protocol can never relax below-frontier
// persistence, so it behaves like strict persistence whenever the
// frontier cannot chase the workload's hot set.
type BMF struct {
	base
	// Capacity is the number of NV root slots (64 × 64 B = 4 kB).
	Capacity int
	// Interval is the number of data writes between prune/merge steps.
	Interval uint64

	roots  map[nodeID]*[bmt.NodeSize]byte // NV persistent root set
	freq   map[nodeID]uint64              // volatile access counters
	writes uint64
	due    bool // an interval ended; maintain after the epoch's climb
	prunes uint64
	merges uint64
}

type nodeID struct {
	level int
	idx   uint64
}

// byLevelIdx orders nodes by (level, idx), so scans over a root set
// never depend on map order.
func byLevelIdx(x, y nodeID) int {
	return cmp.Or(cmp.Compare(x.level, y.level), cmp.Compare(x.idx, y.idx))
}

// errShortNV reports a truncated NV snapshot blob.
var errShortNV = errors.New("mee: truncated NV snapshot")

// NewBMF returns a BMF policy with the paper's defaults (4 kB NV root
// cache = 64 roots; prune/merge every 1024 writes).
func NewBMF() *BMF { return &BMF{Capacity: 64, Interval: 1024} }

// Name implements Policy.
func (*BMF) Name() string { return "bmf" }

// Attach implements Policy: the forest starts as the global root
// alone, i.e. pure strict persistence, and prunes from there.
func (b *BMF) Attach(c *Controller) {
	b.base.Attach(c)
	b.roots = map[nodeID]*[bmt.NodeSize]byte{{1, 0}: {}}
	b.freq = make(map[nodeID]uint64)
}

// Prunes returns how many prune operations have occurred.
func (b *BMF) Prunes() uint64 { return b.prunes }

// Merges returns how many merge operations have occurred.
func (b *BMF) Merges() uint64 { return b.merges }

// RootCount returns the current persistent root set size.
func (b *BMF) RootCount() int { return len(b.roots) }

// coveringRoot returns the unique persistent root on the path from
// leaf ctrIdx to the global root.
func (b *BMF) coveringRoot(ctrIdx uint64) nodeID {
	g := b.ctrl.Geometry()
	for level := g.Levels - 1; level >= 1; level-- {
		id := nodeID{level, g.Ancestor(level, ctrIdx)}
		if _, ok := b.roots[id]; ok {
			return id
		}
	}
	// The forest partitions the leaves; reaching here means the
	// invariant was broken.
	panic("bmf: leaf not covered by any persistent root")
}

// isRoot reports set membership.
func (b *BMF) isRoot(level int, idx uint64) bool {
	_, ok := b.roots[nodeID{level, idx}]
	return ok
}

// belowRoot reports whether (level, idx) lies strictly below a
// persistent root (and therefore persists strictly).
func (b *BMF) belowRoot(level int, idx uint64) bool {
	for l := level - 1; l >= 1; l-- {
		if b.isRoot(l, idx>>uint(3*(level-l))) {
			return true
		}
	}
	return false
}

// WriteThroughCounter implements Policy (strict family).
func (*BMF) WriteThroughCounter(uint64) bool { return true }

// WriteThroughHMAC implements Policy (strict family).
func (*BMF) WriteThroughHMAC(uint64) bool { return true }

// WriteThroughTree implements Policy: strict below the frontier, NV
// at the frontier, lazy above it.
func (b *BMF) WriteThroughTree(level int, idx uint64) bool {
	if b.isRoot(level, idx) {
		return false // lives in the NV root cache
	}
	return b.belowRoot(level, idx)
}

// AnchorContent implements Policy: persistent roots are trust anchors.
func (b *BMF) AnchorContent(level int, idx uint64) ([]byte, bool) {
	if r, ok := b.roots[nodeID{level, idx}]; ok {
		return r[:], true
	}
	return nil, false
}

// OnTreeUpdate implements Policy: keep the NV copy of an updated
// persistent root current.
func (b *BMF) OnTreeUpdate(_ uint64, level int, idx uint64, content []byte) uint64 {
	if r, ok := b.roots[nodeID{level, idx}]; ok {
		copy(r[:], content)
	}
	return 0
}

// OnDataWrite implements Policy: track per-root access frequency and
// mark the prune/merge maintenance step due once per interval.
func (b *BMF) OnDataWrite(_ uint64, dataBlock uint64) uint64 {
	b.freq[b.coveringRoot(dataBlock/64)]++
	b.writes++
	b.due = b.due || b.writes%b.Interval == 0
	return 0
}

// OnWriteComplete implements Policy: a due maintenance step runs after
// the epoch's climb, so the frontier is constant within an epoch.
func (b *BMF) OnWriteComplete(now uint64, _ uint64) uint64 {
	if !b.due {
		return 0
	}
	b.due = false
	return b.maintain(now)
}

// maintain prunes the hottest root (merging the coldest sibling group
// first if NV capacity is short) and resets frequencies.
func (b *BMF) maintain(now uint64) uint64 {
	var cycles uint64
	g := b.ctrl.Geometry()
	var hot nodeID
	var hotCount uint64
	for id, n := range b.freq {
		if id.level > g.Levels-2 || n < hotCount || n == 0 {
			continue
		}
		// Equally hot roots tie-break on (level, index), never on map
		// order, so identical runs prune identical roots.
		if n > hotCount || id.level < hot.level || (id.level == hot.level && id.idx < hot.idx) {
			hot, hotCount = id, n
		}
	}
	if hotCount == 0 {
		b.resetFreq()
		return 0
	}
	if len(b.roots)+7 > b.Capacity {
		cycles += b.mergeColdest(now)
	}
	if len(b.roots)+7 <= b.Capacity {
		cycles += b.prune(now, hot)
	}
	b.resetFreq()
	return cycles
}

func (b *BMF) resetFreq() { b.freq = make(map[nodeID]uint64) }

// prune replaces root id by its eight children. Children are strictly
// persisted below the old root, so their current contents come from
// the metadata cache or the device.
func (b *BMF) prune(now uint64, id nodeID) uint64 {
	old, ok := b.roots[id]
	if !ok {
		return 0
	}
	var cycles uint64
	delete(b.roots, id)
	g := b.ctrl.Geometry()
	// The old root leaves the NV set and becomes an ordinary (lazy,
	// above-frontier) node; persist its freshest content so a later
	// fetch verifies against the root register's live chain.
	if id.level >= 2 {
		cycles += b.ctrl.PostDeviceWrite(now, scm.Tree, g.FlatIndex(id.level, id.idx), old[:], false)
	}
	for slot := 0; slot < bmt.Arity; slot++ {
		cl, ci := bmt.Child(id.level, id.idx, slot)
		content := new([bmt.NodeSize]byte)
		cycles += b.nodeContent(now+cycles, cl, ci, content)
		b.roots[nodeID{cl, ci}] = content
		// The NV copy is now the single source of truth; a stale
		// cached line must not shadow it (or dirty-write over it).
		b.ctrl.DropCached(TreeKey(g, cl, ci))
	}
	b.prunes++
	return cycles
}

// nodeContent loads the current content of inner node (level, idx)
// from cache, device, or the zero tree.
func (b *BMF) nodeContent(now uint64, level int, idx uint64, out *[bmt.NodeSize]byte) uint64 {
	c := b.ctrl
	g := c.Geometry()
	if cached, ok := c.CachedContent(TreeKey(g, level, idx)); ok {
		copy(out[:], cached)
		return c.Config().MetaHitCycles
	}
	flat := g.FlatIndex(level, idx)
	if c.Device().Contains(scm.Tree, flat) {
		return c.Device().Read(scm.Tree, flat, out[:])
	}
	zn := bmt.ZeroNode(c.Engine(), g, level)
	copy(out[:], zn[:])
	return 0
}

// mergeColdest merges the sibling group (all eight children of one
// parent, all of them roots) with the lowest combined frequency back
// into their parent, freeing seven NV slots.
func (b *BMF) mergeColdest(now uint64) uint64 {
	// Group roots by parent and keep only complete groups.
	groups := make(map[nodeID][]nodeID)
	for id := range b.roots {
		if id.level < 2 {
			continue
		}
		pl, pi := bmt.Parent(id.level, id.idx)
		p := nodeID{pl, pi}
		groups[p] = append(groups[p], id)
	}
	var coldest nodeID
	var coldCount uint64
	found := false
	// Deterministic scan order for reproducible simulations.
	parents := make([]nodeID, 0, len(groups))
	for p, kids := range groups {
		if len(kids) == bmt.Arity {
			parents = append(parents, p)
		}
	}
	slices.SortFunc(parents, byLevelIdx)
	for _, p := range parents {
		var total uint64
		for _, k := range groups[p] {
			total += b.freq[k]
		}
		if !found || total < coldCount {
			coldest, coldCount, found = p, total, true
		}
	}
	if !found {
		return 0
	}
	// Parent content = digests of the eight NV children. Each child
	// leaves the NV set and re-enters strictly-persisted territory, so
	// its freshest content must be written to the device first (and
	// any stale cached line dropped so it cannot shadow that write).
	g := b.ctrl.Geometry()
	var cycles uint64
	content := new([bmt.NodeSize]byte)
	for slot := 0; slot < bmt.Arity; slot++ {
		cl, ci := bmt.Child(coldest.level, coldest.idx, slot)
		id := nodeID{cl, ci}
		child := b.roots[id]
		bmt.SetChildDigest(content[:], slot, bmt.Hash(b.ctrl.Engine(), cl, child[:]))
		b.ctrl.DropCached(TreeKey(g, cl, ci))
		cycles += b.ctrl.PostDeviceWrite(now+cycles, scm.Tree, g.FlatIndex(cl, ci), child[:], false)
		delete(b.roots, id)
	}
	if coldest.level == 1 {
		// Merging back to the global root: the register already holds
		// this content; keep the set's copy consistent anyway.
		root := b.ctrl.Root()
		copy(content[:], root[:])
	} else {
		b.ctrl.DropCached(TreeKey(g, coldest.level, coldest.idx))
	}
	b.roots[coldest] = content
	b.merges++
	return cycles + uint64(bmt.Arity)*b.ctrl.Config().HashCycles
}

// SaveNV implements NVSnapshotter: serialize the persistent root set.
func (b *BMF) SaveNV() []byte {
	ids := make([]nodeID, 0, len(b.roots))
	for id := range b.roots {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, byLevelIdx)
	out := make([]byte, 0, 4+len(ids)*(1+8+bmt.NodeSize))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ids)))
	for _, id := range ids {
		out = append(out, byte(id.level))
		out = binary.LittleEndian.AppendUint64(out, id.idx)
		out = append(out, b.roots[id][:]...)
	}
	return out
}

// RestoreNV implements NVSnapshotter.
func (b *BMF) RestoreNV(data []byte) error {
	if len(data) < 4 {
		return errShortNV
	}
	count := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint64(count)*(1+8+bmt.NodeSize) > uint64(len(data)) {
		return errShortNV
	}
	roots := make(map[nodeID]*[bmt.NodeSize]byte, count)
	for i := uint32(0); i < count; i++ {
		if len(data) < 1+8+bmt.NodeSize {
			return errShortNV
		}
		id := nodeID{level: int(data[0]), idx: binary.LittleEndian.Uint64(data[1:])}
		content := new([bmt.NodeSize]byte)
		copy(content[:], data[9:9+bmt.NodeSize])
		roots[id] = content
		data = data[1+8+bmt.NodeSize:]
	}
	b.roots = roots
	b.resetFreq()
	return nil
}

// Crash implements Policy: frequencies are volatile; the root set is
// NV and survives.
func (b *BMF) Crash() {
	b.resetFreq()
	b.writes = 0
	b.due = false
}

// RecoveryPlan implements Policy: nothing below the frontier is stale,
// so there is no rebuild root; the pre-pass recomputes the (few)
// ancestors of the persistent roots from the NV contents and
// validates the register.
func (b *BMF) RecoveryPlan() RecoveryPlan { return RecoveryPlan{Prepass: b.recompute} }

// recompute is BMF's pre-pass over its persistent root set.
func (b *BMF) recompute(rep *RecoveryReport) error {
	c := b.ctrl
	g := c.Geometry()

	// Digests of recomputed/known nodes per (level, idx).
	digests := make(map[nodeID]uint64)
	for id, content := range b.roots {
		digests[id] = bmt.Hash(c.Engine(), id.level, content[:])
	}
	// Collect proper ancestors of all roots, deepest first.
	ancestors := make(map[nodeID]bool)
	for id := range b.roots {
		level, idx := id.level, id.idx
		for level > 1 {
			level, idx = bmt.Parent(level, idx)
			ancestors[nodeID{level, idx}] = true
		}
	}
	order := make([]nodeID, 0, len(ancestors))
	for id := range ancestors {
		order = append(order, id)
	}
	slices.SortFunc(order, func(x, y nodeID) int { return cmp.Or(cmp.Compare(y.level, x.level), cmp.Compare(x.idx, y.idx)) })
	var content [bmt.NodeSize]byte
	for _, id := range order {
		for slot := 0; slot < bmt.Arity; slot++ {
			cl, ci := bmt.Child(id.level, id.idx, slot)
			d, ok := digests[nodeID{cl, ci}]
			if !ok {
				// A child that is neither a root nor an ancestor of
				// one cannot exist under the partition invariant.
				return &IntegrityError{What: "bmf: uncovered child during recovery", Addr: ci}
			}
			bmt.SetChildDigest(content[:], slot, d)
		}
		digests[id] = bmt.Hash(c.Engine(), id.level, content[:])
		if id.level >= 2 {
			rep.Cycles += c.Device().Write(scm.Tree, g.FlatIndex(id.level, id.idx), content[:])
			rep.NodeWrites++
		} else if content != c.Root() {
			return &IntegrityError{What: "bmf recovery root mismatch", Addr: 0}
		}
	}
	return nil
}

// Overhead implements Policy per Table 3: a 4 kB NV root cache plus
// 6 bits of volatile frequency counter per metadata cache line
// (768 B for the 64 kB cache).
func (b *BMF) Overhead() Overhead {
	lines := uint64(0)
	if b.ctrl != nil {
		lines = uint64(b.ctrl.MetaCache().Lines())
	}
	return Overhead{
		NVOnChipBytes:  uint64(b.Capacity) * bmt.NodeSize,
		VolOnChipBytes: lines * 6 / 8,
	}
}
