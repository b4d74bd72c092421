// Package cache implements a generic set-associative, write-back
// cache model (LRU by default). The CPU hierarchy (L1/L2/L3) and the
// 64 kB secure metadata cache are all instances of this one model.
//
// The cache tracks presence, dirtiness, and a per-line Aux word (used
// by BMF for frequency counters), but holds no contents: it is an
// inclusion/timing structure. What it does hand out is a place to keep
// them. Every resident line owns a content slot, an id in [0, Lines())
// that no other resident line shares, that stays with the line however
// replacement reorders its set, and that a new line takes over from the
// victim it displaces. An owner with contents (the memory controller
// and its metadata blocks) keeps them in one array indexed by slot and
// needs no lookup structure of its own: Touch and Access return the
// slot, Lookup's Line reports it, and a victim's bytes are still in the
// slot Access returned until the owner overwrites them. The CPU caches
// ignore slots; their bytes live in the SCM device.
//
// Keys are opaque uint64s — the metadata cache composes (region, index)
// pairs, the CPU caches use physical block numbers. A cache is one flat
// array of lines and reports victims by value, so no operation on the
// access path allocates.
package cache

import (
	"fmt"

	"amnt/internal/stats"
	"amnt/internal/telemetry"
)

// Replacement selects a cache's victim-selection policy.
type Replacement int

// Replacement policies.
const (
	// LRU promotes on hit and evicts the least recently used way.
	LRU Replacement = iota
	// FIFO evicts in insertion order, ignoring hits.
	FIFO
	// Random evicts a pseudo-random way (deterministic per cache).
	Random
)

func (r Replacement) String() string {
	switch r {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return fmt.Sprintf("replacement(%d)", int(r))
}

// Config describes one cache instance.
type Config struct {
	// Name labels the cache in stats output (e.g. "L2", "meta").
	Name string
	// SizeBytes is the total capacity. Must be a multiple of
	// LineBytes*Assoc.
	SizeBytes int
	// LineBytes is the line size (64 for every cache in the paper).
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// HitCycles is the access latency charged on a hit (and added
	// beneath misses by the hierarchy model).
	HitCycles uint64
	// Replacement selects the victim policy (default LRU).
	Replacement Replacement
}

// Line is one cache line's metadata.
type Line struct {
	Key uint64
	// Aux is protocol-private per-line state (e.g. BMF frequency
	// counters, Anubis slot tags). The cache never interprets it.
	Aux   uint64
	slot  int32
	Dirty bool
}

// Slot returns the line's content slot: an id in [0, Lines()) that no
// other resident line shares and that stays with the line until it
// leaves the cache.
func (l *Line) Slot() int { return int(l.slot) }

// Victim describes a line evicted by an allocation.
type Victim struct {
	Key   uint64
	Dirty bool
	Aux   uint64
}

// Cache is a set-associative cache. Not safe for concurrent use.
type Cache struct {
	cfg Config
	// lines holds set s in lines[s*Assoc:(s+1)*Assoc]: the first
	// fill[s] entries are its resident lines, MRU first; the rest are
	// free and hold only the slot ids the next allocations will take.
	lines   []Line
	fill    []int32
	numSets uint64
	mask    uint64 // numSets-1 when numSets is a power of two, else 0
	ratio   stats.Ratio
	evicted stats.Counter
	rng     uint64 // xorshift state for Random replacement
}

// New builds a cache from cfg. It panics on an invalid geometry, since
// configurations are static experiment inputs, not runtime data.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.Assoc <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache %q: non-positive geometry %+v", cfg.Name, cfg))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines%cfg.Assoc != 0 || lines == 0 {
		panic(fmt.Sprintf("cache %q: %d lines not divisible into %d-way sets", cfg.Name, lines, cfg.Assoc))
	}
	numSets := uint64(lines / cfg.Assoc)
	c := &Cache{cfg: cfg, numSets: numSets, rng: 0x9E3779B97F4A7C15}
	if numSets&(numSets-1) == 0 {
		c.mask = numSets - 1
	}
	c.lines = make([]Line, lines)
	for i := range c.lines {
		c.lines[i].slot = int32(i)
	}
	c.fill = make([]int32, numSets)
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// HitCycles returns the configured hit latency.
func (c *Cache) HitCycles() uint64 { return c.cfg.HitCycles }

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return len(c.lines) }

// find returns key's set — its index and its resident lines — and
// key's position among them, -1 when it is not resident.
func (c *Cache) find(key uint64) (si uint64, set []Line, i int) {
	si = key & c.mask
	if c.mask == 0 {
		si = key % c.numSets
	}
	base := si * uint64(c.cfg.Assoc)
	set = c.lines[base : base+uint64(c.fill[si]) : base+uint64(c.cfg.Assoc)]
	for i = range set {
		if set[i].Key == key {
			return si, set, i
		}
	}
	return si, set, -1
}

// toFront moves set[i] to the MRU position with content l.
func toFront(set []Line, i int, l Line) {
	copy(set[1:i+1], set[:i])
	set[0] = l
}

// hit applies a hit on set[i] and returns the line's slot.
func (c *Cache) hit(set []Line, i int, write bool) int {
	if write {
		set[i].Dirty = true
	}
	slot := int(set[i].slot)
	if c.cfg.Replacement == LRU {
		toFront(set, i, set[i])
	}
	c.ratio.Observe(true)
	return slot
}

// Touch is the hit half of Access: when key is resident it refreshes
// the replacement state, counts the hit and returns the line's slot.
// On a miss it changes nothing, statistics included, so the caller can
// do whatever the miss requires and allocate with Access afterwards.
func (c *Cache) Touch(key uint64, write bool) (slot int, hit bool) {
	_, set, i := c.find(key)
	if i < 0 {
		return 0, false
	}
	return c.hit(set, i, write), true
}

// Access looks up key, allocating it on a miss (read and write
// allocate). It returns whether the access hit, the content slot of
// key's line and, when evicted is set, the line the allocation
// displaced; the new line takes over its victim's slot. write marks
// the line dirty.
func (c *Cache) Access(key uint64, write bool) (hit bool, slot int, v Victim, evicted bool) {
	si, set, i := c.find(key)
	if i >= 0 {
		return true, c.hit(set, i, write), v, false
	}
	c.ratio.Observe(false)
	// Miss: allocate at the head, evicting per policy when full.
	vi := len(set) // not full: take the first free entry's slot
	if vi < c.cfg.Assoc {
		set = set[:vi+1]
		c.fill[si]++
	} else {
		vi-- // LRU and FIFO evict the oldest (tail)
		if c.cfg.Replacement == Random {
			c.rng ^= c.rng << 13
			c.rng ^= c.rng >> 7
			c.rng ^= c.rng << 17
			vi = int(c.rng % uint64(len(set)))
		}
		v, evicted = Victim{Key: set[vi].Key, Dirty: set[vi].Dirty, Aux: set[vi].Aux}, true
		c.evicted.Inc()
	}
	// Entries before vi shift right one; entries after vi stay put.
	l := Line{Key: key, Dirty: write, slot: set[vi].slot}
	toFront(set, vi, l)
	return false, int(l.slot), v, evicted
}

// Probe reports whether key is resident without touching LRU state or
// hit statistics.
func (c *Cache) Probe(key uint64) bool { return c.Lookup(key) != nil }

// Lookup returns a pointer to the line holding key, or nil. It does
// not update LRU order or statistics. The pointer is invalidated by
// the next Access to the same set.
func (c *Cache) Lookup(key uint64) *Line {
	if _, set, i := c.find(key); i >= 0 {
		return &set[i]
	}
	return nil
}

// Invalidate drops key from the cache, reporting whether it was
// present and dirty at the time.
func (c *Cache) Invalidate(key uint64) (present, dirty bool) {
	si, set, i := c.find(key)
	if i < 0 {
		return false, false
	}
	// Close the gap; the freed slot id parks past the end.
	free, dirty := Line{slot: set[i].slot}, set[i].Dirty
	copy(set[i:], set[i+1:])
	set[len(set)-1] = free
	c.fill[si]--
	return true, dirty
}

// InvalidateAll clears the entire cache (the volatile state lost on a
// crash). Statistics are preserved.
func (c *Cache) InvalidateAll() { clear(c.fill) }

// Clean clears the dirty bit of key if present, reporting whether the
// line was dirty.
func (c *Cache) Clean(key uint64) bool {
	if l := c.Lookup(key); l != nil && l.Dirty {
		l.Dirty = false
		return true
	}
	return false
}

// resident calls f on every resident line: sets ascending, MRU first
// within a set. Simulated cycle counts depend on this order wherever a
// caller writes back what DirtyKeys or FlushDirty returned.
func (c *Cache) resident(f func(l *Line)) {
	for si, n := range c.fill {
		set := c.lines[si*c.cfg.Assoc:][:n:n]
		for i := range set {
			f(&set[i])
		}
	}
}

// DirtyKeys returns the keys of all dirty lines for which filter
// returns true (filter == nil selects all). This models the dirty-bit
// scan AMNT performs on subtree movement.
func (c *Cache) DirtyKeys(filter func(key uint64) bool) []uint64 { return c.dirty(filter, false) }

// FlushDirty clears the dirty bits of all lines selected by filter and
// returns their keys; the caller performs the writebacks.
func (c *Cache) FlushDirty(filter func(key uint64) bool) []uint64 { return c.dirty(filter, true) }

func (c *Cache) dirty(filter func(key uint64) bool, clean bool) []uint64 {
	var out []uint64
	c.resident(func(l *Line) {
		if l.Dirty && (filter == nil || filter(l.Key)) {
			l.Dirty = !clean
			out = append(out, l.Key)
		}
	})
	return out
}

// Keys returns all resident keys.
func (c *Cache) Keys() []uint64 {
	var out []uint64
	c.resident(func(l *Line) { out = append(out, l.Key) })
	return out
}

// Len returns the number of resident lines.
func (c *Cache) Len() int {
	n := 0
	for _, f := range c.fill {
		n += int(f)
	}
	return n
}

// HitRate returns the lifetime hit rate of Access calls.
func (c *Cache) HitRate() float64 { return c.ratio.Rate() }

// Accesses returns the lifetime number of Access calls.
func (c *Cache) Accesses() uint64 { return c.ratio.Total }

// Evictions returns the number of capacity evictions performed.
func (c *Cache) Evictions() uint64 { return c.evicted.Value() }

// ResetStats clears hit/eviction statistics without touching contents.
func (c *Cache) ResetStats() {
	c.ratio.Reset()
	c.evicted.Reset()
}

// RegisterMetrics publishes the cache's statistics into a telemetry
// registry under prefix (e.g. "core0.l1"). The registered closures
// only read existing counters, so registration never changes cache
// behaviour or timing.
func (c *Cache) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".accesses", "lifetime cache accesses", c.Accesses)
	reg.Counter(prefix+".hits", "lifetime cache hits", func() uint64 { return c.ratio.Hits })
	reg.Gauge(prefix+".hit_rate", "lifetime hit rate", c.HitRate)
	reg.Counter(prefix+".evictions", "capacity evictions", c.Evictions)
	reg.Gauge(prefix+".occupancy", "resident lines / capacity", func() float64 {
		return float64(c.Len()) / float64(c.Lines())
	})
}
