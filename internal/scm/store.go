package scm

import (
	"cmp"
	"math/bits"
	"slices"
)

// slabBlocks is how many blocks one slab holds (64 KiB of block
// bytes). Slabs are allocated whole and never move, so a block's
// address is stable until it is erased.
const (
	slabShift  = 10
	slabBlocks = 1 << slabShift
	slabMask   = slabBlocks - 1
)

// entry is one (index, slab position) pair. It is both the slot of
// the open-addressing index — where ref 0 marks an empty slot and
// ref-1 is the position — and the element of the cached ordering.
type entry struct {
	key uint64
	ref uint32
}

// regionStore holds one region's blocks. Block bytes live in
// pointer-free slabs in first-write order; a linear-probing hash
// index (also pointer-free) maps a block index to its slab position.
// Nothing here is a per-block heap object, so the garbage collector
// scans only the short slab list however many blocks are present.
//
// find and block never write to the store; every other method does.
type regionStore struct {
	slabs []*[slabBlocks][BlockSize]byte
	next  uint32   // positions handed out so far
	free  []uint32 // positions of erased blocks, reused first
	tab   []entry  // power-of-two sized, at most 3/4 full
	shift uint8    // 64 - log2(len(tab))
	live  int
	// ord lists the present blocks in ascending index order when
	// ordOK. Only a change of the key set (add, remove) can
	// invalidate it; overwrites never do.
	ord   []entry
	ordOK bool
}

// block returns the storage of slab position pos.
func (s *regionStore) block(pos uint32) *[BlockSize]byte {
	return &s.slabs[pos>>slabShift][pos&slabMask]
}

// home is key's preferred slot (Fibonacci hashing: sequential block
// indices spread evenly, which linear probing needs).
func (s *regionStore) home(key uint64) uint64 {
	return key * 0x9E3779B97F4A7C15 >> s.shift
}

// slot returns the index-table slot holding key, or -1.
func (s *regionStore) slot(key uint64) int {
	if len(s.tab) == 0 {
		return -1
	}
	mask := uint64(len(s.tab) - 1)
	for i := s.home(key); ; i = (i + 1) & mask {
		e := &s.tab[i]
		if e.ref == 0 {
			return -1
		}
		if e.key == key {
			return int(i)
		}
	}
}

// find returns the storage of block key, or nil when absent.
func (s *regionStore) find(key uint64) *[BlockSize]byte {
	if i := s.slot(key); i >= 0 {
		return s.block(s.tab[i].ref - 1)
	}
	return nil
}

// add stores src as the new block key, which must be absent.
func (s *regionStore) add(key uint64, src []byte) {
	if (s.live+1)*4 > len(s.tab)*3 {
		s.grow()
	}
	var pos uint32
	if n := len(s.free); n > 0 {
		pos, s.free = s.free[n-1], s.free[:n-1]
	} else {
		pos = s.next
		if pos == ^uint32(0) {
			panic("scm: region holds too many blocks")
		}
		if int(pos>>slabShift) == len(s.slabs) {
			s.slabs = append(s.slabs, new([slabBlocks][BlockSize]byte))
		}
		s.next++
	}
	copy(s.block(pos)[:], src)
	e := entry{key: key, ref: pos + 1}
	s.place(e)
	s.live++
	if s.ordOK && (len(s.ord) == 0 || key > s.ord[len(s.ord)-1].key) {
		s.ord = append(s.ord, e) // a key past the maximum keeps the ordering current
	} else {
		s.ordOK = false
	}
}

// place puts e into the first empty slot of its probe sequence.
func (s *regionStore) place(e entry) {
	mask := uint64(len(s.tab) - 1)
	i := s.home(e.key)
	for s.tab[i].ref != 0 {
		i = (i + 1) & mask
	}
	s.tab[i] = e
}

// grow doubles the index table (keeping it at most 3/4 full).
func (s *regionStore) grow() {
	old := s.tab
	size := 2 * len(old)
	if size == 0 {
		size = 16
	}
	s.tab = make([]entry, size)
	s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.ref != 0 {
			s.place(e)
		}
	}
}

// remove deletes block key, reporting whether it was present. The
// freed position is reused by a later add; the index hole is closed
// by shifting the probe run back, so lookups never see tombstones.
func (s *regionStore) remove(key uint64) bool {
	at := s.slot(key)
	if at < 0 {
		return false
	}
	s.free = append(s.free, s.tab[at].ref-1)
	mask := uint64(len(s.tab) - 1)
	i := uint64(at)
	for j := (i + 1) & mask; s.tab[j].ref != 0; j = (j + 1) & mask {
		// An entry may move back to the hole only if the hole is not
		// before its home slot in probe order.
		if (j-s.home(s.tab[j].key))&mask >= (j-i)&mask {
			s.tab[i] = s.tab[j]
			i = j
		}
	}
	s.tab[i] = entry{}
	s.live--
	s.ordOK = false
	return true
}

// order returns the present blocks in ascending index order,
// rebuilding the cached ordering if the key set changed since it was
// last taken.
func (s *regionStore) order() []entry {
	if !s.ordOK {
		if cap(s.ord) < s.live {
			s.ord = make([]entry, 0, s.live)
		}
		s.ord = s.ord[:0]
		for _, e := range s.tab {
			if e.ref != 0 {
				s.ord = append(s.ord, e)
			}
		}
		slices.SortFunc(s.ord, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
		s.ordOK = true
	}
	return s.ord
}

// span returns the part of the ordering whose indices lie in
// [lo, hi).
func (s *regionStore) span(lo, hi uint64) []entry {
	ord := s.order()
	below := func(bound uint64) int {
		i, _ := slices.BinarySearchFunc(ord, bound, func(e entry, k uint64) int { return cmp.Compare(e.key, k) })
		return i
	}
	i, j := below(lo), below(hi)
	if j < i {
		j = i
	}
	return ord[i:j]
}
