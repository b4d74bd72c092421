package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refCache is the per-set move-to-front model the flat cache replaced
// (a slice of lines per set, MRU first, victims handed out by pointer),
// kept here as the oracle for TestDifferentialAgainstReference.
type refCache struct {
	cfg     Config
	sets    [][]Line
	numSets uint64
	evicted uint64
	rng     uint64
}

func newRef(cfg Config) *refCache {
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	r := &refCache{cfg: cfg, numSets: uint64(numSets), rng: 0x9E3779B97F4A7C15}
	r.sets = make([][]Line, numSets)
	return r
}

func (r *refCache) access(key uint64, write bool) (hit bool, victim *Victim) {
	si := key % r.numSets
	set := r.sets[si]
	for i := range set {
		if set[i].Key == key {
			if write {
				set[i].Dirty = true
			}
			if r.cfg.Replacement == LRU {
				line := set[i]
				copy(set[1:i+1], set[:i])
				set[0] = line
			}
			return true, nil
		}
	}
	newLine := Line{Key: key, Dirty: write}
	if len(set) < r.cfg.Assoc {
		set = append(set, Line{})
		copy(set[1:], set[:len(set)-1])
		set[0] = newLine
		r.sets[si] = set
		return false, nil
	}
	vi := len(set) - 1
	if r.cfg.Replacement == Random {
		r.rng ^= r.rng << 13
		r.rng ^= r.rng >> 7
		r.rng ^= r.rng << 17
		vi = int(r.rng % uint64(len(set)))
	}
	v := set[vi]
	victim = &Victim{Key: v.Key, Dirty: v.Dirty, Aux: v.Aux}
	r.evicted++
	copy(set[1:vi+1], set[:vi])
	set[0] = newLine
	return false, victim
}

func (r *refCache) lookup(key uint64) *Line {
	set := r.sets[key%r.numSets]
	for i := range set {
		if set[i].Key == key {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) invalidate(key uint64) (present, dirty bool) {
	si := key % r.numSets
	set := r.sets[si]
	for i := range set {
		if set[i].Key == key {
			dirty = set[i].Dirty
			r.sets[si] = append(set[:i], set[i+1:]...)
			return true, dirty
		}
	}
	return false, false
}

// keys returns resident keys in the reference's scan order (sets
// ascending, MRU first); dirtyOnly restricts it to dirty lines that
// pass filter, clean additionally clears their dirty bits.
func (r *refCache) keys(dirtyOnly, clean bool, filter func(uint64) bool) []uint64 {
	var out []uint64
	for _, set := range r.sets {
		for i := range set {
			if dirtyOnly && !(set[i].Dirty && filter(set[i].Key)) {
				continue
			}
			if clean {
				set[i].Dirty = false
			}
			out = append(out, set[i].Key)
		}
	}
	return out
}

// TestDifferentialAgainstReference drives the flat cache and the
// reference model with the same random program per replacement policy
// and geometry, and requires identical hits, victims, scan orders and
// eviction counts, plus the slot contract: resident lines hold distinct
// slots in [0, Lines()).
func TestDifferentialAgainstReference(t *testing.T) {
	geometries := []struct{ lines, assoc int }{
		{8, 2},   // 4 sets, mask path
		{24, 2},  // 12 sets, modulo path
		{16, 16}, // one fully associative set
		{64, 8},  // 8 sets of 8
		{5, 1},   // direct mapped, odd set count
	}
	for _, repl := range []Replacement{LRU, FIFO, Random} {
		for _, g := range geometries {
			t.Run(fmt.Sprintf("%v/%dx%d", repl, g.lines, g.assoc), func(t *testing.T) {
				cfg := Config{Name: "d", SizeBytes: g.lines * 64, LineBytes: 64, Assoc: g.assoc, Replacement: repl}
				differential(t, cfg, 100_000)
			})
		}
	}
}

func differential(t *testing.T, cfg Config, ops int) {
	c, ref := New(cfg), newRef(cfg)
	rng := rand.New(rand.NewSource(int64(cfg.SizeBytes)*31 + int64(cfg.Replacement)))
	keyspace := uint64(4 * c.Lines())
	odd := func(k uint64) bool { return k%2 == 1 }
	for i := 0; i < ops; i++ {
		key := rng.Uint64() % keyspace
		switch op := rng.Intn(100); {
		case op < 80:
			write := rng.Intn(3) == 0
			hit, slot, v, evicted := c.Access(key, write)
			refHit, refV := ref.access(key, write)
			if hit != refHit || evicted != (refV != nil) || (evicted && v != *refV) {
				t.Fatalf("op %d: Access(%d) = hit %v victim %+v/%v, reference hit %v victim %+v", i, key, hit, v, evicted, refHit, refV)
			}
			if l := c.Lookup(key); l == nil || l.Slot() != slot {
				t.Fatalf("op %d: Access(%d) returned slot %d, line is %+v", i, key, slot, l)
			}
		case op < 85:
			hitSlot, hit := c.Touch(key, false)
			l := ref.lookup(key)
			if hit != (l != nil) {
				t.Fatalf("op %d: Touch(%d) hit %v, reference %v", i, key, hit, l != nil)
			}
			if hit {
				ref.access(key, false)
				if c.Lookup(key).Slot() != hitSlot {
					t.Fatalf("op %d: Touch(%d) returned a slot that is not the line's", i, key)
				}
			}
		case op < 90:
			p, d := c.Invalidate(key)
			rp, rd := ref.invalidate(key)
			if p != rp || d != rd {
				t.Fatalf("op %d: Invalidate(%d) = %v/%v, reference %v/%v", i, key, p, d, rp, rd)
			}
		case op < 94:
			l, rl := c.Lookup(key), ref.lookup(key)
			if (l == nil) != (rl == nil) {
				t.Fatalf("op %d: Lookup(%d) residency differs", i, key)
			}
			if l != nil {
				l.Aux, rl.Aux = uint64(i), uint64(i)
			}
		case op < 97:
			rl := ref.lookup(key)
			want := rl != nil && rl.Dirty
			if rl != nil {
				rl.Dirty = false
			}
			if got := c.Clean(key); got != want {
				t.Fatalf("op %d: Clean(%d) = %v, reference %v", i, key, got, want)
			}
		case op < 99:
			if got, want := c.FlushDirty(odd), ref.keys(true, true, odd); !slices.Equal(got, want) {
				t.Fatalf("op %d: FlushDirty = %v, reference %v", i, got, want)
			}
		default:
			if rng.Intn(20) == 0 { // rare: it empties the cache
				c.InvalidateAll()
				clear(ref.sets)
			}
		}
		if i%257 != 0 {
			continue
		}
		all := func(uint64) bool { return true }
		if got, want := c.Keys(), ref.keys(false, false, nil); !slices.Equal(got, want) {
			t.Fatalf("op %d: Keys = %v, reference %v", i, got, want)
		}
		if got, want := c.DirtyKeys(nil), ref.keys(true, false, all); !slices.Equal(got, want) {
			t.Fatalf("op %d: DirtyKeys = %v, reference %v", i, got, want)
		}
		if c.Evictions() != ref.evicted {
			t.Fatalf("op %d: Evictions = %d, reference %d", i, c.Evictions(), ref.evicted)
		}
		seen := make([]bool, c.Lines())
		for _, k := range c.Keys() {
			s := c.Lookup(k).Slot()
			if s < 0 || s >= c.Lines() || seen[s] {
				t.Fatalf("op %d: key %d holds slot %d: out of range or shared", i, k, s)
			}
			seen[s] = true
		}
		if c.Len() != len(c.Keys()) {
			t.Fatalf("op %d: Len = %d, %d keys", i, c.Len(), len(c.Keys()))
		}
	}
}

// TestCacheAccessNoAllocs pins the eviction path off the heap: the
// victim comes back by value.
func TestCacheAccessNoAllocs(t *testing.T) {
	c := small()
	key, dirtyVictims := uint64(0), 0
	allocs := testing.AllocsPerRun(10_000, func() {
		_, _, v, evicted := c.Access(key, true) // every key is new: all misses
		if evicted && v.Dirty {
			dirtyVictims++
		}
		key++
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per evicting Access, want 0", allocs)
	}
	if dirtyVictims < 9_000 {
		t.Fatalf("only %d dirty victims: the eviction path did not run", dirtyVictims)
	}
}
