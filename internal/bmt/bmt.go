// Package bmt implements the Bonsai Merkle Tree: an 8-ary general BMT
// (inner nodes are the concatenated keyed digests of their eight
// children) whose leaves are the split-counter blocks of counter-mode
// encryption.
//
// Level numbering follows the paper: the root is level 1 and level k
// holds 8^(k-1) nodes, so a subtree root "at level 3" is one of 64
// nodes, each covering 1/64th of physical memory (Table 4's 1.56%
// stale fraction). The leaf level holds the counter blocks themselves;
// they are stored in the device's Counter region, while inner levels
// 2..L-1 live in the Tree region. The level-1 node (the root content)
// is never stored in untrusted memory — it lives in an on-chip
// register owned by the memory controller.
//
// The simulated device is sparse, so the package precomputes the
// digest of an all-zero subtree at every level ("zero digests"); an
// absent child contributes its level's zero digest, making tree
// construction and recovery O(occupied footprint) instead of
// O(memory size).
//
// Every rebuild runs on one engine, the Rebuilder: a flat,
// index-sorted pipeline (no per-level maps) fed by one ordered walk of
// the device (scm.Device.PeekScan: no index enumeration, no sort, no
// per-node lookup). A blocking Rebuild is a Rebuilder stepped to
// completion in one call.
package bmt

import (
	"encoding/binary"
	"fmt"
	"sync"

	"amnt/internal/cme"
	"amnt/internal/scm"
)

// Arity is the tree fan-out.
const Arity = 8

// arityShift is log2(Arity).
const arityShift = 3

// NodeSize is the byte size of a tree node (Arity children × 8-byte
// digests), equal to one device block.
const NodeSize = Arity * cme.MACSize

// Geometry captures the shape of the tree over a given number of
// counter-block leaves.
type Geometry struct {
	// Leaves is the number of counter blocks covered (capacity/4 KB).
	Leaves uint64
	// Levels is the total number of levels including the leaf level;
	// the root is level 1, leaves are level Levels.
	Levels int
	// levelOffset[l] is the flat Tree-region offset of level l's first
	// node, defined for inner levels 2..Levels-1.
	levelOffset []uint64
}

// NewGeometry builds the geometry for the given leaf count. It panics
// if leaves is zero (an empty tree has no meaningful root).
func NewGeometry(leaves uint64) Geometry {
	if leaves == 0 {
		panic("bmt: geometry requires at least one leaf")
	}
	levels := 1
	for capacity := uint64(1); capacity < leaves; capacity <<= arityShift {
		levels++
	}
	if levels < 2 {
		levels = 2 // always keep a distinct root above the leaves
	}
	g := Geometry{Leaves: leaves, Levels: levels}
	g.levelOffset = make([]uint64, levels+1)
	off := uint64(0)
	for l := 2; l <= levels-1; l++ {
		g.levelOffset[l] = off
		off += capacityAt(l)
	}
	return g
}

// GeometryForCapacity builds the geometry for a data capacity in
// bytes (one leaf per 4 KB page).
func GeometryForCapacity(capacityBytes uint64) Geometry {
	leaves := capacityBytes / 4096
	if leaves == 0 {
		leaves = 1
	}
	return NewGeometry(leaves)
}

// capacityAt returns the theoretical node count of a level: 8^(l-1).
func capacityAt(level int) uint64 { return 1 << (arityShift * (level - 1)) }

// NodesAt returns the number of occupied node slots at a level —
// ceil(Leaves / 8^(Levels-level)) — i.e. how many nodes have at least
// one real leaf underneath them.
func (g Geometry) NodesAt(level int) uint64 {
	if level < 1 || level > g.Levels {
		panic(fmt.Sprintf("bmt: level %d out of range [1,%d]", level, g.Levels))
	}
	shift := uint(arityShift * (g.Levels - level))
	return (g.Leaves + (1 << shift) - 1) >> shift
}

// Ancestor returns the index at the given level of the ancestor of
// leaf leafIdx.
func (g Geometry) Ancestor(level int, leafIdx uint64) uint64 {
	return leafIdx >> uint(arityShift*(g.Levels-level))
}

// LeafSpan returns the half-open range [lo, hi) of leaf indices
// covered by node (level, idx).
func (g Geometry) LeafSpan(level int, idx uint64) (lo, hi uint64) {
	shift := uint(arityShift * (g.Levels - level))
	return idx << shift, (idx + 1) << shift
}

// CoverageBytes returns how many bytes of data one node at the given
// level protects (LeafSpan size × 4 KB), clamped to the real capacity.
func (g Geometry) CoverageBytes(level int) uint64 {
	lo, hi := g.LeafSpan(level, 0)
	span := hi - lo
	if span > g.Leaves {
		span = g.Leaves
	}
	return span * 4096
}

// Parent returns the (level, index) of a node's parent.
func Parent(level int, idx uint64) (int, uint64) { return level - 1, idx >> arityShift }

// ChildSlot returns a node's slot (0..7) within its parent.
func ChildSlot(idx uint64) int { return int(idx & (Arity - 1)) }

// Child returns the (level, index) of the slot-th child of node
// (level, idx).
func Child(level int, idx uint64, slot int) (int, uint64) {
	return level + 1, idx<<arityShift | uint64(slot)
}

// FlatIndex maps an inner node (level in [2, Levels-1]) to its index
// in the device Tree region.
func (g Geometry) FlatIndex(level int, idx uint64) uint64 {
	if level < 2 || level > g.Levels-1 {
		panic(fmt.Sprintf("bmt: level %d has no Tree-region storage", level))
	}
	return g.levelOffset[level] + idx
}

// Unflatten inverts FlatIndex, recovering the (level, index) of an
// inner node from its Tree-region position.
func (g Geometry) Unflatten(flat uint64) (level int, idx uint64) {
	for l := 2; l <= g.Levels-1; l++ {
		next := g.levelOffset[l] + capacityAt(l)
		if flat < next {
			return l, flat - g.levelOffset[l]
		}
	}
	panic(fmt.Sprintf("bmt: flat index %d beyond tree storage", flat))
}

// ChildDigest extracts the slot-th child digest from node content.
func ChildDigest(node []byte, slot int) uint64 {
	return binary.LittleEndian.Uint64(node[slot*cme.MACSize:])
}

// SetChildDigest stores a child digest into node content.
func SetChildDigest(node []byte, slot int, digest uint64) {
	binary.LittleEndian.PutUint64(node[slot*cme.MACSize:], digest)
}

// Hash computes the position-bound digest of a node's content. Tree
// digests bind the level only: two equal subtrees at the same level
// hash equally (which the sparse zero-digest optimization requires);
// relocating unequal nodes is still detected through the parent's
// content mismatch, and data-block splicing is covered by the
// address-bound data HMACs.
func Hash(e *cme.Engine, level int, content []byte) uint64 {
	return e.NodeHash(level, 0, content)
}

// zeroKey identifies one zero-digest table: the hash backend, the
// device key, and the tree depth fully determine every entry (zero
// digests do not depend on the leaf count, only on Levels).
type zeroKey struct {
	hasher string
	key    uint64
	levels int
}

// zeroCache memoizes zero-digest tables across rebuilds and
// controllers. Values are []uint64 slices shared by all callers.
var zeroCache sync.Map

// ZeroDigests returns the digest of an all-zero subtree rooted at each
// level, indexed by level (entry 0 unused). zero[Levels] is the digest
// of a zeroed counter block; zero[l] is the digest of a node whose
// eight children are all-zero subtrees at level l+1.
//
// The returned slice is cached and shared between callers (rebuilds
// run it on every invocation, so recomputing it per call would
// dominate small recoveries): treat it as read-only.
func ZeroDigests(e *cme.Engine, g Geometry) []uint64 {
	k := zeroKey{hasher: e.Hasher().Name(), key: e.Key(), levels: g.Levels}
	if v, ok := zeroCache.Load(k); ok {
		return v.([]uint64)
	}
	zero := make([]uint64, g.Levels+1)
	var leaf [scm.BlockSize]byte
	zero[g.Levels] = Hash(e, g.Levels, leaf[:])
	var node [NodeSize]byte
	for l := g.Levels - 1; l >= 1; l-- {
		for slot := 0; slot < Arity; slot++ {
			SetChildDigest(node[:], slot, zero[l+1])
		}
		zero[l] = Hash(e, l, node[:])
	}
	v, _ := zeroCache.LoadOrStore(k, zero)
	return v.([]uint64)
}

// ZeroNode returns the content of an all-zero-children node at the
// given inner level (children are zero subtrees at level+1).
func ZeroNode(e *cme.Engine, g Geometry, level int) [NodeSize]byte {
	zero := ZeroDigests(e, g)
	var node [NodeSize]byte
	for slot := 0; slot < Arity; slot++ {
		SetChildDigest(node[:], slot, zero[level+1])
	}
	return node
}

// RebuildResult reports a (sub)tree recomputation.
type RebuildResult struct {
	// Content is the recomputed content of the rebuild root node.
	Content [NodeSize]byte
	// Digest is Hash(level, Content).
	Digest uint64
	// CounterReads counts occupied counter blocks fetched.
	CounterReads uint64
	// NodeWrites counts inner nodes written back to the Tree region.
	NodeWrites uint64
	// Cycles is the device time consumed (when persisting).
	Cycles uint64
}

// RebuildOptions selects how a rebuild runs. The zero value is a
// non-persisting rebuild.
type RebuildOptions struct {
	// Persist writes every recomputed inner node (levels 2..Levels-1)
	// back to the device Tree region.
	Persist bool
	// Progress, when non-nil, receives a live leaves-rehashed
	// watermark as the rebuild runs (read concurrently by telemetry;
	// never affects the result).
	Progress *Progress
}

// source describes where a rebuild's bottom level lives on the
// device: tree level, device region, and the region offset of the
// level's node 0 (non-zero only for Tree-region boundary levels).
type source struct {
	level   int
	region  scm.Region
	flatOff uint64
}

// Rebuild recomputes the subtree rooted at (rootLevel, rootIdx) from
// the counter blocks currently stored in the device, exactly as
// recovery does after a crash under a lazy persistence scheme. If
// persist is true, every recomputed inner node (levels 2..Levels-1
// within the subtree) is written back to the Tree region.
//
// Only occupied counter blocks are read; absent subtrees contribute
// precomputed zero digests. The caller compares Result.Digest (or
// Content) against its trusted register.
func Rebuild(dev *scm.Device, e *cme.Engine, g Geometry, rootLevel int, rootIdx uint64, persist bool) RebuildResult {
	return RebuildWith(dev, e, g, rootLevel, rootIdx, RebuildOptions{Persist: persist})
}

// RebuildWith is Rebuild with explicit options.
func RebuildWith(dev *scm.Device, e *cme.Engine, g Geometry, rootLevel int, rootIdx uint64, opts RebuildOptions) RebuildResult {
	r := NewRebuilder(dev, e, g, g.Levels, rootLevel, rootIdx, opts, nil)
	r.Step(0)
	return r.res
}

// RebuildAbove recomputes tree levels [2, boundary) from the nodes
// persisted at the boundary level, as Triad-NVM-style recovery does:
// when the bottom of the tree is write-through, only the levels above
// the persisted boundary are stale, and they derive from the boundary
// nodes without touching the (much larger) counter level. Recomputed
// nodes are written back when persist is set; the result carries the
// level-1 content for comparison against the root register.
func RebuildAbove(dev *scm.Device, e *cme.Engine, g Geometry, boundary int, persist bool) RebuildResult {
	if boundary <= 2 {
		// Nothing above the boundary is stored off-chip; the root
		// register itself is the only level-1 state.
		return RebuildResult{Digest: ZeroDigests(e, g)[1]}
	}
	r := NewRebuilder(dev, e, g, min(boundary, g.Levels), 1, 0, RebuildOptions{Persist: persist}, nil)
	r.Step(0)
	return r.res
}

// persistEmitter returns the node sink of the climb: write recomputed
// inner nodes through when persisting, and capture the rebuild root's
// content.
func persistEmitter(dev *scm.Device, g Geometry, rootLevel int, rootIdx uint64, persist bool, res *RebuildResult) func(level int, idx uint64, node *[NodeSize]byte) {
	return func(level int, idx uint64, node *[NodeSize]byte) {
		if persist && level >= 2 && level <= g.Levels-1 {
			res.Cycles += dev.Write(scm.Tree, g.FlatIndex(level, idx), node[:])
			res.NodeWrites++
		}
		if level == rootLevel && idx == rootIdx {
			res.Content = *node
		}
	}
}

// climb folds index-sorted (idx, digest) pairs at level from upward
// to level to, one level at a time: consecutive runs sharing a parent
// are gathered into a node buffer seeded with the child level's zero
// digest, hashed, and emitted. Output pairs stay sorted, so the two
// scratch slices ping-pong across levels and the whole climb performs
// a constant number of allocations. emit sees every computed node
// (levels to..from-1).
func climb(e *cme.Engine, g Geometry, zero []uint64, from, to int, idxs, digs []uint64, emit func(level int, idx uint64, node *[NodeSize]byte)) ([]uint64, []uint64) {
	if from <= to || len(idxs) == 0 {
		return idxs, digs
	}
	var node [NodeSize]byte
	nIdx := make([]uint64, 0, (len(idxs)+Arity-1)/Arity)
	nDig := make([]uint64, 0, cap(nIdx))
	for level := from; level > to; level-- {
		nIdx, nDig = nIdx[:0], nDig[:0]
		for i := 0; i < len(idxs); {
			parent := idxs[i] >> arityShift
			for slot := 0; slot < Arity; slot++ {
				SetChildDigest(node[:], slot, zero[level])
			}
			for ; i < len(idxs) && idxs[i]>>arityShift == parent; i++ {
				SetChildDigest(node[:], ChildSlot(idxs[i]), digs[i])
			}
			nIdx = append(nIdx, parent)
			nDig = append(nDig, Hash(e, level-1, node[:]))
			emit(level-1, parent, &node)
		}
		idxs, digs, nIdx, nDig = nIdx, nDig, idxs, digs
	}
	return idxs, digs
}

// finish resolves the rebuild root digest from the climbed pairs, or
// synthesizes the zero-subtree result when the span was unoccupied.
func finish(zero []uint64, g Geometry, rootLevel int, idxs, digs []uint64, rootIdx uint64, res *RebuildResult) {
	for i, idx := range idxs {
		if idx == rootIdx {
			res.Digest = digs[i]
			return
		}
	}
	// The subtree is entirely unoccupied: its root is the zero node
	// for this level.
	res.Digest = zero[rootLevel]
	if rootLevel < g.Levels {
		var node [NodeSize]byte
		for slot := 0; slot < Arity; slot++ {
			SetChildDigest(node[:], slot, zero[rootLevel+1])
		}
		res.Content = node
	}
}
