package mee

// PLP implements Persist-Level Parallelism (Freij, Yuan, Zhou &
// Solihin, MICRO 2020), the related work the paper contrasts with in
// §7.3: strict persistence's recoverability, but the ancestral path's
// tree persists issue in parallel and the write waits once — for the
// slowest — instead of serializing level by level. The paper's
// critique, which the simulator reproduces, is that PLP is not
// *dynamic*: every write still pays a full-path persist, so its
// common-case overhead tracks strict persistence's write traffic even
// though its stalls are shorter. It adds queue tagging logic but no
// named on-chip structure beyond the baseline.
type PLP struct {
	base
	barriers uint64
}

// NewPLP returns a PLP policy.
func NewPLP() *PLP { return &PLP{} }

// Name implements Policy.
func (*PLP) Name() string { return "plp" }

// WriteThroughCounter implements Policy.
func (*PLP) WriteThroughCounter(uint64) bool { return true }

// WriteThroughHMAC implements Policy.
func (*PLP) WriteThroughHMAC(uint64) bool { return true }

// WriteThroughTree implements Policy: the controller must NOT block
// per level — PLP's whole point — so tree persists are issued from
// OnTreeUpdate as posted writes instead.
func (*PLP) WriteThroughTree(int, uint64) bool { return false }

// OnTreeUpdate implements Policy: write the updated node through as a
// posted (parallel) persist.
func (p *PLP) OnTreeUpdate(now uint64, level int, idx uint64, _ []byte) uint64 {
	return p.ctrl.PersistMeta(now, TreeKey(p.ctrl.Geometry(), level, idx), false)
}

// OnWriteComplete implements Policy: the strict-ordering epoch waits
// once, for the slowest member of the parallel batch — one full
// device write latency (the posted persists above already charged any
// queue back-pressure, so bandwidth limits still bite under
// saturation; only the serialization is gone).
func (p *PLP) OnWriteComplete(now uint64, _ uint64) uint64 {
	p.barriers++
	return p.ctrl.Device().Config().WriteCycles
}

// Barriers reports how many persist epochs completed.
func (p *PLP) Barriers() uint64 { return p.barriers }

// RecoveryPlan implements Policy: like strict, nothing is stale.
func (p *PLP) RecoveryPlan() RecoveryPlan { return p.wholeTree(false) }
