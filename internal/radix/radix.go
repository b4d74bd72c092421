// Package radix provides Table, a sparse array keyed by uint64 for the
// simulator's per-access lookups (virtual page → physical page, data
// block → version). A Go map costs a hash and a probe sequence per
// lookup; a Table costs one indexed load per level, and its height
// follows the largest key stored, so the small, dense key ranges the
// generated traces produce sit one or two levels deep while any 64-bit
// key still works. Nothing is sized up front: nodes and leaves of 512
// entries are created by the first store that reaches them.
package radix

const (
	bits = 9
	fan  = 1 << bits
)

// Table maps uint64 keys to values of type V; absent keys hold V's zero
// value. The zero Table is empty. Not safe for concurrent use.
type Table[V any] struct {
	// Nodes refer to their children by 1+position in inner (or, from
	// the lowest inner level, in leaves); 0 is "no child". Both node
	// kinds are pointer-free, so the collector never walks the tree.
	inner  []*[fan]int32
	leaves []*[fan]V
	root   int32
	height int // inner levels above the leaves
}

// Get returns the value stored at key.
func (t *Table[V]) Get(key uint64) (v V) {
	if key>>(bits*(t.height+1)) != 0 {
		return v
	}
	n := t.root
	for h := t.height; h > 0 && n != 0; h-- {
		n = t.inner[n-1][key>>(bits*h)%fan]
	}
	if n == 0 {
		return v
	}
	return t.leaves[n-1][key%fan]
}

// At returns the address of key's value, creating its leaf if needed.
// The pointer stays valid for the life of the table.
func (t *Table[V]) At(key uint64) *V {
	for key>>(bits*(t.height+1)) != 0 { // grow: the old root becomes child 0
		if t.root != 0 {
			t.inner = append(t.inner, &[fan]int32{t.root})
			t.root = int32(len(t.inner))
		}
		t.height++
	}
	n := &t.root
	for h := t.height; h > 0; h-- {
		if *n == 0 {
			t.inner = append(t.inner, new([fan]int32))
			*n = int32(len(t.inner))
		}
		n = &t.inner[*n-1][key>>(bits*h)%fan]
	}
	if *n == 0 {
		t.leaves = append(t.leaves, new([fan]V))
		*n = int32(len(t.leaves))
	}
	return &t.leaves[*n-1][key%fan]
}

// Range calls f for every entry of every leaf in ascending key order,
// unset entries (zero values) included; f may change the value in place.
func (t *Table[V]) Range(f func(key uint64, v *V)) {
	t.walk(t.root, t.height, 0, f)
}

func (t *Table[V]) walk(n int32, h int, base uint64, f func(uint64, *V)) {
	if n == 0 {
		return
	}
	if h == 0 {
		leaf := t.leaves[n-1]
		for i := range leaf {
			f(base|uint64(i), &leaf[i])
		}
		return
	}
	for i, kid := range t.inner[n-1] {
		t.walk(kid, h-1, base|uint64(i)<<(bits*h), f)
	}
}
