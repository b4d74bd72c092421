// Package cpu models the on-chip cache hierarchy in front of the
// secure memory controller: per-core L1/L2 (optionally a shared L3),
// write-back with write-allocate, and dirty-victim cascades that end
// in write-backs to the memory below. The paper's single-program,
// multiprogram, and multithread processor configurations (§6) are
// provided as presets.
//
// The hierarchy knows nothing of the protocol beneath it: it hands
// every fill and write-back to a Memory and charges only its own
// static hit latencies, so one hierarchy's traffic can drive any
// memory controller (DESIGN.md §2.1).
package cpu

import (
	"amnt/internal/cache"
	"amnt/internal/scm"
)

// Memory is what lies below a hierarchy's last level: the secure
// memory controller, or a recorder of the traffic that would reach it.
// Transfer fills block into the hierarchy (writeBack false) or writes a
// dirty block back (true). at is the static cycle the transfer issues
// at — the access's start plus the hit latency of every level it
// passed — and never includes a memory latency: the memory adds its
// own. A non-nil error aborts the access.
type Memory interface {
	Transfer(at, block uint64, writeBack bool) error
}

// LevelConfig sizes one cache level.
type LevelConfig struct {
	SizeBytes int
	Assoc     int
	HitCycles uint64
}

// Config describes one core's private hierarchy. Shared outer levels
// are attached separately via NewHierarchy.
type Config struct {
	L1 LevelConfig
	L2 LevelConfig
}

// SingleProgram returns the paper's single-program configuration:
// 32 kB L1D, 1 MB L2 (the 48 kB L1I is not modeled — the simulator is
// data-trace driven).
func SingleProgram() Config {
	return Config{
		L1: LevelConfig{SizeBytes: 32 << 10, Assoc: 8, HitCycles: 1},
		L2: LevelConfig{SizeBytes: 1 << 20, Assoc: 16, HitCycles: 12},
	}
}

// MultiProgram returns the paper's two-core configuration: 32 kB L1D
// and 128 kB private L2 per core (a 1 MB shared L3 is added by the
// machine).
func MultiProgram() Config {
	return Config{
		L1: LevelConfig{SizeBytes: 32 << 10, Assoc: 8, HitCycles: 1},
		L2: LevelConfig{SizeBytes: 128 << 10, Assoc: 8, HitCycles: 12},
	}
}

// MultiThread returns the paper's four-core SPEC configuration:
// 32 kB L1D, 512 kB private L2 (8 MB shared L3 added by the machine).
func MultiThread() Config {
	return Config{
		L1: LevelConfig{SizeBytes: 32 << 10, Assoc: 8, HitCycles: 1},
		L2: LevelConfig{SizeBytes: 512 << 10, Assoc: 8, HitCycles: 12},
	}
}

// SharedL3 builds a shared last-level cache of the given size.
func SharedL3(sizeBytes int) *cache.Cache {
	if sizeBytes == 0 {
		return nil
	}
	return cache.New(cache.Config{
		Name:      "L3",
		SizeBytes: sizeBytes,
		LineBytes: scm.BlockSize,
		Assoc:     16,
		HitCycles: 30,
	})
}

// Hierarchy is one core's view of the cache stack. Multiple cores may
// share the outermost level and always share the memory below.
type Hierarchy struct {
	levels []*cache.Cache
	shared int // index of the first shared level, len(levels) if none
	mem    Memory
	snoop  func(block uint64) bool
}

// SetSnoop installs the coherence probe used when an access misses
// the whole local stack: the machine queries the other cores' private
// caches, migrating a dirty copy here instead of reading stale bytes
// from memory (a minimal MESI-style dirty-migration protocol; only
// needed for shared-address-space configurations).
func (h *Hierarchy) SetSnoop(f func(block uint64) bool) { h.snoop = f }

// snoopLatency is the cross-core cache-to-cache transfer cost.
const snoopLatency = 60

// ExtractDirty removes every private copy of block from this
// hierarchy, reporting whether any was dirty (i.e. the caller now
// owns the only up-to-date copy). Shared levels are left alone: their
// copies are visible to every core and written back on eviction.
func (h *Hierarchy) ExtractDirty(block uint64) bool {
	dirty := false
	for i := 0; i < h.shared; i++ {
		if _, d := h.levels[i].Invalidate(block); d {
			dirty = true
		}
	}
	return dirty
}

// NewHierarchy builds a core hierarchy over mem. shared may be nil (L2
// is the LLC) or a cache shared between cores (typically from
// SharedL3).
func NewHierarchy(name string, cfg Config, shared *cache.Cache, mem Memory) *Hierarchy {
	l1 := cache.New(cache.Config{
		Name: name + ".L1", SizeBytes: cfg.L1.SizeBytes, LineBytes: scm.BlockSize,
		Assoc: cfg.L1.Assoc, HitCycles: cfg.L1.HitCycles,
	})
	l2 := cache.New(cache.Config{
		Name: name + ".L2", SizeBytes: cfg.L2.SizeBytes, LineBytes: scm.BlockSize,
		Assoc: cfg.L2.Assoc, HitCycles: cfg.L2.HitCycles,
	})
	levels := []*cache.Cache{l1, l2}
	sharedIdx := len(levels)
	if shared != nil {
		levels = append(levels, shared)
	}
	return &Hierarchy{levels: levels, shared: sharedIdx, mem: mem}
}

// Levels exposes the cache stack (L1 first).
func (h *Hierarchy) Levels() []*cache.Cache { return h.levels }

// Access performs a load (write=false) or store (write=true) of the
// physical block at static cycle now. It returns the access's static
// latency: level hit cycles and snoop transfers, without the latency
// of the memory transfers it raised.
func (h *Hierarchy) Access(now uint64, block uint64, write bool) (uint64, error) {
	var cycles uint64
	for i, c := range h.levels {
		cycles += c.HitCycles()
		hit, _, victim, _ := c.Access(block, write && i == 0)
		if victim.Dirty {
			vc, err := h.spill(now+cycles, i+1, victim.Key)
			cycles += vc
			if err != nil {
				return cycles, err
			}
		}
		if hit {
			return cycles, nil
		}
	}
	// Missed the whole local stack. Another core's private cache may
	// hold the only up-to-date (dirty) copy; migrate it instead of
	// reading stale bytes from memory.
	if h.snoop != nil && h.snoop(block) {
		cycles += snoopLatency
		// This hierarchy now owns the dirty data: mark the L1 copy
		// (installed during the walk above) dirty so it is eventually
		// written back.
		if l := h.levels[0].Lookup(block); l != nil {
			l.Dirty = true
		}
		return cycles, nil
	}
	// Fill from memory (stores are write-allocate, so they fill too).
	// The block is now resident in every level; dirtiness was set at
	// L1 above.
	return cycles, h.mem.Transfer(now+cycles, block, false)
}

// spill installs a dirty victim into level idx (or writes it back to
// memory when the hierarchy is exhausted), cascading further victims
// downward.
func (h *Hierarchy) spill(now uint64, idx int, block uint64) (uint64, error) {
	if idx >= len(h.levels) {
		return 0, h.mem.Transfer(now, block, true)
	}
	c := h.levels[idx]
	cycles := c.HitCycles()
	_, _, victim, _ := c.Access(block, true)
	if victim.Dirty {
		vc, err := h.spill(now+cycles, idx+1, victim.Key)
		cycles += vc
		if err != nil {
			return cycles, err
		}
	}
	return cycles, nil
}

// Drain writes every dirty line in this hierarchy back to memory (an
// orderly shutdown, or a full-system persist barrier) and returns the
// static cycles it spent. Shared levels are drained too, so call Drain
// on one hierarchy per shared level or accept idempotent extra scans.
func (h *Hierarchy) Drain(now uint64) (uint64, error) {
	var cycles uint64
	// Inner levels spill into outer ones first.
	for i, c := range h.levels {
		for _, key := range c.FlushDirty(nil) {
			if i+1 < len(h.levels) {
				vc, err := h.spill(now+cycles, i+1, key)
				cycles += vc
				if err != nil {
					return cycles, err
				}
			} else if err := h.mem.Transfer(now+cycles, key, true); err != nil {
				return cycles, err
			}
		}
	}
	return cycles, nil
}

// InvalidateAll drops all cached lines without writeback (a crash's
// effect on the volatile hierarchy).
func (h *Hierarchy) InvalidateAll() {
	for _, c := range h.levels {
		c.InvalidateAll()
	}
}
