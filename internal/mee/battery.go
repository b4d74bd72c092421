package mee

// Battery models a battery-backed metadata cache (the related-work
// direction of BBB and transiently-persistent caches, §7.2): at
// runtime it behaves exactly like the volatile baseline — nothing is
// written through — and at power failure the residual energy flushes
// every dirty metadata block to SCM, making recovery trivial.
//
// The paper's critique is the open sizing question ("knowing how much
// battery is required for data-dependent flushing remains an open
// issue"): FlushedBlocks records the worst-case burst the battery
// must cover, which is bounded only by the metadata cache capacity.
type Battery struct {
	base
	flushed     uint64
	flushEvents uint64
}

// NewBattery returns a battery-backed policy.
func NewBattery() *Battery { return &Battery{} }

// Name implements Policy.
func (*Battery) Name() string { return "battery" }

// WriteThroughCounter implements Policy.
func (*Battery) WriteThroughCounter(uint64) bool { return false }

// WriteThroughHMAC implements Policy.
func (*Battery) WriteThroughHMAC(uint64) bool { return false }

// WriteThroughTree implements Policy.
func (*Battery) WriteThroughTree(int, uint64) bool { return false }

// PreCrash implements PreCrasher: spend the battery flushing dirty
// metadata.
func (b *Battery) PreCrash(now uint64) uint64 {
	before := b.ctrl.Stats().PostedWrites.Value()
	// flush, not Flush: PreCrash runs inside the guarded Crash.
	cycles := b.ctrl.flush(now)
	b.flushed += b.ctrl.Stats().PostedWrites.Value() - before
	b.flushEvents++
	return cycles
}

// FlushedBlocks reports the total blocks flushed on power failures —
// the demand placed on the battery.
func (b *Battery) FlushedBlocks() uint64 { return b.flushed }

// RecoveryPlan implements Policy: the pre-crash flush left SCM
// current, so recovery only validates, like strict persistence.
func (b *Battery) RecoveryPlan() RecoveryPlan { return b.wholeTree(false) }

// Overhead implements Policy: no extra on-chip state, but the
// platform must provision flush energy for a full metadata cache —
// reported as the in-memory-equivalent burst (informational).
func (*Battery) Overhead() Overhead { return Overhead{} }
