package mee

import "fmt"

// Triad implements Triad-NVM (Awad et al., ISCA 2019), the *static*
// multi-level persistence scheme the paper positions AMNT against
// (§7.3): the counters plus the bottom M inner tree levels are
// written through, the upper levels stay lazy, and recovery rebuilds
// only the upper levels from the persisted boundary. It is the static
// counterpart of AMNT's dynamic split — every address gets the same
// treatment, so the persist path shortens uniformly but never adapts
// to hot regions.
type Triad struct {
	base
	// M is how many inner tree levels above the counters persist
	// strictly (0 = plain leaf persistence).
	M int
}

// NewTriad returns a Triad-NVM policy persisting M inner levels.
func NewTriad(m int) *Triad {
	if m < 0 {
		m = 0
	}
	return &Triad{M: m}
}

// Name implements Policy.
func (*Triad) Name() string { return "triad" }

// boundary returns the highest (closest-to-root) strictly persisted
// level; levels above it (2..boundary-1) are lazy.
func (t *Triad) boundary() int {
	b := t.ctrl.Geometry().Levels - t.M
	if b < 2 {
		b = 2
	}
	return b
}

// WriteThroughCounter implements Policy.
func (*Triad) WriteThroughCounter(uint64) bool { return true }

// WriteThroughHMAC implements Policy.
func (*Triad) WriteThroughHMAC(uint64) bool { return true }

// WriteThroughTree implements Policy: strict at and below the
// boundary, lazy above it.
func (t *Triad) WriteThroughTree(level int, _ uint64) bool {
	return level >= t.boundary()
}

// RecoveryPlan implements Policy: rebuild levels [2, boundary) from
// the persisted boundary nodes and validate against the root register.
// With every inner level persisted (boundary 2) nothing is stale, and
// the tree is validated from the counters, like strict.
func (t *Triad) RecoveryPlan() RecoveryPlan {
	g := t.ctrl.Geometry()
	b := t.boundary()
	if b <= 2 {
		return t.wholeTree(false)
	}
	p := RecoveryPlan{Roots: []RebuildRoot{{Level: 1, Source: b}}, Persist: true}
	// Stale share: the lazy levels as a fraction of inner tree nodes.
	var lazy, total float64
	for l := 2; l <= g.Levels-1; l++ {
		n := float64(uint64(1) << (3 * uint(l-1)))
		total += n
		if l < b {
			lazy += n
		}
	}
	if total > 0 {
		p.StaleFraction = lazy / total
	}
	return p
}

// Overhead implements Policy: Triad-NVM adds no on-chip structures
// beyond the baseline root register.
func (*Triad) Overhead() Overhead { return Overhead{} }

// String describes the configuration.
func (t *Triad) String() string { return fmt.Sprintf("triad(M=%d)", t.M) }
