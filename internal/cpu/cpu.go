// Package cpu models the on-chip cache hierarchy in front of the
// secure memory controller: per-core L1/L2 (optionally a shared L3),
// write-back with write-allocate, and dirty-victim cascades that end
// in encrypted writes at the memory encryption engine. The paper's
// single-program, multiprogram, and multithread processor
// configurations (§6) are provided as presets.
package cpu

import (
	"amnt/internal/cache"
	"amnt/internal/mee"
	"amnt/internal/scm"
)

// ContentFunc supplies the current plaintext of a data block when a
// dirty line is written back to the MEE. The simulator derives block
// contents deterministically from (block, version) so the functional
// crypto path operates on real, checkable bytes without storing the
// whole memory image.
type ContentFunc func(block uint64) []byte

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
// share the outermost level and always share the controller.
type Hierarchy struct {
	levels  []*cache.Cache
	shared  int // index of the first shared level, len(levels) if none
	ctrl    *mee.Controller
	content ContentFunc
	verify  func(block uint64, data []byte) error
	snoop   func(block uint64) bool
	// buf receives the plaintext of an MEE read. A local would escape
	// through the verify callback and cost an allocation per miss.
	buf [scm.BlockSize]byte
}

// SetVerify installs an oracle called with the plaintext of every MEE
// read this hierarchy performs; a non-nil return aborts the access.
// The simulator uses it as an end-to-end data-fidelity check.
func (h *Hierarchy) SetVerify(f func(block uint64, data []byte) error) { h.verify = f }

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

// NewHierarchy builds a core hierarchy. shared may be nil (L2 is the
// LLC) or a cache shared between cores (typically from SharedL3).
func NewHierarchy(name string, cfg Config, shared *cache.Cache, ctrl *mee.Controller, content ContentFunc) *Hierarchy {
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
	return &Hierarchy{levels: levels, shared: sharedIdx, ctrl: ctrl, content: content}
}

// Levels exposes the cache stack (L1 first).
func (h *Hierarchy) Levels() []*cache.Cache { return h.levels }

// Controller returns the MEE beneath this hierarchy.
func (h *Hierarchy) Controller() *mee.Controller { return h.ctrl }

// Access performs a load (write=false) or store (write=true) of the
// physical block. It returns the access latency in cycles, including
// any secure-memory work triggered by misses and dirty evictions.
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
	// Fetch through the MEE (stores are write-allocate, so they fetch
	// too). The block is now resident in every level; dirtiness was
	// set at L1 above.
	mc, err := h.ctrl.ReadBlock(now+cycles, block, h.buf[:])
	cycles += mc
	if err != nil {
		return cycles, err
	}
	if h.verify != nil {
		if err := h.verify(block, h.buf[:]); err != nil {
			return cycles, err
		}
	}
	return cycles, nil
}

// spill installs a dirty victim into level idx (or the MEE when the
// hierarchy is exhausted), cascading further victims downward.
func (h *Hierarchy) spill(now uint64, idx int, block uint64) (uint64, error) {
	if idx >= len(h.levels) {
		return h.ctrl.WriteBlock(now, block, h.content(block))
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

// Drain writes every dirty line in this hierarchy back through the
// MEE (an orderly shutdown, or a full-system persist barrier). Shared
// levels are drained too, so call Drain on one hierarchy per shared
// level or accept idempotent extra scans.
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
			} else {
				vc, err := h.ctrl.WriteBlock(now+cycles, key, h.content(key))
				cycles += vc
				if err != nil {
					return cycles, err
				}
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
