package bmt

import (
	"sync/atomic"
	"time"
)

// Progress is a live watermark for a recovery rebuild: how many
// occupied source nodes (counter-level leaves, or boundary-level nodes
// for a Triad-style rebuild) have been rehashed out of how many total.
// It is written by the goroutine that runs the rebuild and read by
// telemetry gauges on arbitrary goroutines, so every field is atomic
// and every method is nil-safe. A recovery pass may run several
// rebuilds (e.g. a strict protocol verifying subtree by subtree);
// totals accumulate across them until the next Reset.
type Progress struct {
	total   atomic.Uint64
	done    atomic.Uint64
	passes  atomic.Uint64 // rebuilds begun since Reset
	active  atomic.Int64  // rebuilds currently running
	startNs atomic.Int64  // wall clock of the last Reset (UnixNano)
	wallNs  atomic.Uint64 // wall time of the last completed recovery
}

// ProgressSnapshot is one consistent-enough read of a Progress: the
// fields are loaded individually, so a snapshot taken mid-rebuild may
// be at most one increment skewed — fine for a watermark.
type ProgressSnapshot struct {
	// Done and Total count source leaves rehashed vs. discovered.
	Done, Total uint64
	// Passes counts rebuild invocations since the last Reset.
	Passes uint64
	// Active reports whether a rebuild is running right now.
	Active bool
	// WallNs is the wall time of the last completed recovery pass
	// (set by the caller via SetWall; 0 until one completes).
	WallNs uint64
	// StartUnixNs is when the current (or last) recovery began.
	StartUnixNs int64
}

// Reset zeroes the watermark at the start of a recovery pass.
func (p *Progress) Reset() {
	if p == nil {
		return
	}
	p.total.Store(0)
	p.done.Store(0)
	p.passes.Store(0)
	p.wallNs.Store(0)
	p.startNs.Store(time.Now().UnixNano())
}

// SetWall records the wall time of a completed recovery pass.
func (p *Progress) SetWall(ns uint64) {
	if p == nil {
		return
	}
	p.wallNs.Store(ns)
}

// Snapshot returns the current watermark.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	return ProgressSnapshot{
		Done:        p.done.Load(),
		Total:       p.total.Load(),
		Passes:      p.passes.Load(),
		Active:      p.active.Load() > 0,
		WallNs:      p.wallNs.Load(),
		StartUnixNs: p.startNs.Load(),
	}
}

// begin announces a rebuild over n source nodes.
func (p *Progress) begin(n uint64) {
	if p == nil {
		return
	}
	p.total.Add(n)
	p.passes.Add(1)
	p.active.Add(1)
}

// add records n more source nodes rehashed. It is an atomic
// read-modify-write, several times the cost of one leaf hash, so the
// Rebuilder calls it once per Step — never per node.
func (p *Progress) add(n uint64) {
	if p == nil {
		return
	}
	p.done.Add(n)
}

// end closes the rebuild begun by begin.
func (p *Progress) end() {
	if p == nil {
		return
	}
	p.active.Add(-1)
}
