// Package faults is the crash-point fault-injection subsystem: a
// deterministic, seed-driven injector that models what a power
// failure (or an attacker with physical access) can do to the SCM
// device at an arbitrary simulated cycle, plus a recovery invariant
// checker that decides — for every registered persistence protocol —
// whether the paper's recoverability and tamper-detection guarantees
// held.
//
// The functional simulator applies queued writes to the device at
// issue time (ADR semantics: once admitted to the write-pending
// queue, a write is durable). The injector explores the weaker models
// the related work argues about: a persist granule torn mid-block, an
// in-flight queue entry that never completed, completion reordering
// across entries, and single-bit rot in stored metadata. Injection
// targets come from two sources kept during the run — the
// controller's live write-queue window and a ring journal of write
// pre-images captured through scm.Device's write observer — so every
// fault is a state the physical device could really have held.
//
// The invariant checker (checker.go) then asserts the contract every
// protocol in the mee registry claims: recovery terminates, the
// recovered root matches an independently rebuilt shadow (oracle)
// tree, all persisted data verifies, and injected corruption is
// either repaired by recovery or detected loudly — never silently
// accepted. The crash-matrix explorer (sweep.go) drives the full
// (crash point × fault kind × protocol) product on the experiment
// engine.
package faults

import (
	"fmt"
	"math/rand"
	"strings"

	"amnt/internal/mee"
	"amnt/internal/scm"
)

// Kind is a fault category the injector can apply at a crash point.
type Kind int

// Fault kinds. KindCrash is the pure power failure every other kind
// builds on; the rest additionally corrupt device state.
const (
	// KindCrash: power failure only — volatile state is lost, the
	// device is untouched. Crash-consistent protocols must recover.
	KindCrash Kind = iota
	// KindTorn: one write inside the atomic persist granule tears — a
	// prefix of the new content is durable, the suffix still holds the
	// pre-image (zeros on first touch).
	KindTorn
	// KindDrop: one in-flight write-queue entry never completes; the
	// block reverts to its pre-image (or to never-written).
	KindDrop
	// KindReorder: queue completion reorders — the oldest in-flight
	// entry is lost while entries admitted after it are durable.
	KindReorder
	// KindBitRot: a single bit of a stored counter (or, when no
	// counters exist, tree) block flips — the paper's active-attacker
	// tamper, applied via scm.Device.TamperByte.
	KindBitRot
	numKinds
)

var kindNames = [...]string{"crash", "torn", "drop", "reorder", "bitrot"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind resolves a fault-kind name ("crash", "torn", ...).
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q (known: %s)",
		s, strings.Join(kindNames[:], ", "))
}

// Kinds returns all fault kinds in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKinds resolves a comma-separated kind list; "all" (or empty)
// selects every kind.
func ParseKinds(s string) ([]Kind, error) {
	if s == "" || s == "all" {
		return Kinds(), nil
	}
	var out []Kind
	for _, part := range strings.Split(s, ",") {
		k, err := ParseKind(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// Injection records one fault applied to the device, with enough
// detail for the checker's silent-acceptance audit and for the trace.
type Injection struct {
	Kind   Kind       `json:"kind"`
	Region scm.Region `json:"-"`
	// RegionName is Region's name, stable in JSON output.
	RegionName string `json:"region"`
	Index      uint64 `json:"index"`
	// Offset/Mask describe a bit-rot flip; Cut is a torn write's
	// prefix length in bytes.
	Offset int  `json:"offset,omitempty"`
	Mask   byte `json:"mask,omitempty"`
	Cut    int  `json:"cut,omitempty"`
	// Original is the durable content before the fault was applied
	// (nil when the block was absent).
	Original []byte `json:"-"`
	// Note describes fallbacks ("no in-flight writes: replayed last
	// retired write").
	Note string `json:"note,omitempty"`
}

func (in Injection) String() string {
	return fmt.Sprintf("%s %s[%d]", in.Kind, in.Region, in.Index)
}

// journalEntry is one observed device write with its pre-image.
type journalEntry struct {
	region scm.Region
	index  uint64
	// old is the content the write overwrote; absent marks first
	// touch (the pre-image is "never written", not zeros).
	old    [scm.BlockSize]byte
	absent bool
}

// journalCap bounds the pre-image ring. The write queue holds at most
// WriteQueueDepth (16) tracked entries, so 512 journaled writes give
// ample slack to still hold the first pre-image of every in-flight
// block even under heavy coalescing.
const journalCap = 512

// Injector watches a machine's device during a run and applies one
// fault at the crash point. Attach before running, Detach before
// recovery (so recovery's own writes are not journaled).
type Injector struct {
	dev  *scm.Device
	ctrl *mee.Controller
	// journal is the pre-image ring: it grows to journalCap, then next
	// is both its oldest entry and the one the next write replaces.
	journal []journalEntry
	next    int
	// window is the in-flight write set snapshotted by CaptureWindow;
	// captured is set even when the snapshot is empty, so Apply never
	// falls back to reading the (by then reset) live queue.
	window   []candidate
	captured bool
}

// NewInjector builds an injector over the controller's device.
func NewInjector(ctrl *mee.Controller) *Injector {
	return &Injector{dev: ctrl.Device(), ctrl: ctrl}
}

// Attach starts journaling device writes.
func (j *Injector) Attach() {
	j.dev.SetWriteObserver(j.observe)
}

// Detach stops journaling.
func (j *Injector) Detach() {
	j.dev.SetWriteObserver(nil)
}

// observe journals one device write. It runs on every write of every
// serving shard, so it fills the ring slot in place.
func (j *Injector) observe(region scm.Region, index uint64, old, _ []byte) {
	var e *journalEntry
	if len(j.journal) < journalCap {
		j.journal = append(j.journal, journalEntry{})
		e = &j.journal[len(j.journal)-1]
	} else {
		e = &j.journal[j.next]
		j.next = (j.next + 1) % journalCap
	}
	e.region, e.index, e.absent = region, index, old == nil
	if old == nil {
		clear(e.old[:])
	} else {
		copy(e.old[:], old)
	}
}

// entry returns the i-th oldest journaled write.
func (j *Injector) entry(i int) *journalEntry {
	return &j.journal[(j.next+i)%len(j.journal)]
}

// preImage finds the oldest journaled pre-image for a block. When
// several writes to the block are retained, the oldest one's
// pre-image is the content the device held before the burst — the
// state a crash that lost the whole burst would expose.
func (j *Injector) preImage(region scm.Region, index uint64) (journalEntry, bool) {
	for i := range j.journal {
		if e := j.entry(i); e.region == region && e.index == index {
			return *e, true
		}
	}
	return journalEntry{}, false
}

// candidate is one revertible write target.
type candidate struct {
	pw   mee.PendingWrite
	pre  journalEntry
	note string
}

// CaptureWindow snapshots the in-flight write window at crash time
// now. It MUST run before the machine's Crash(): a power failure
// freezes the queue's state at the failing cycle, but the simulator's
// Crash() resets the queue — so the window has to be read while the
// controller is still live. Apply then consumes the snapshot after
// Crash() has dropped volatile state.
func (j *Injector) CaptureWindow(now uint64) {
	j.window = j.assemble(now)
	j.captured = true
}

// candidates returns the revert targets for crash time now: the
// snapshot taken by CaptureWindow when there is one, otherwise the
// live queue (the direct-use path, where the caller injects before
// crashing).
func (j *Injector) candidates(now uint64) []candidate {
	if j.captured {
		return j.window
	}
	return j.assemble(now)
}

// assemble builds revert targets: the live write-queue window first
// (oldest first), falling back to the most recently journaled write
// when the queue happens to be drained (a revert there models a
// replay of the last persist — still a state the paper's threat model
// grants the attacker).
func (j *Injector) assemble(now uint64) []candidate {
	var out []candidate
	for _, pw := range j.ctrl.PendingWrites(now) {
		if pre, ok := j.preImage(pw.Region, pw.Index); ok {
			out = append(out, candidate{pw: pw, pre: pre})
		}
	}
	if len(out) > 0 {
		return out
	}
	if len(j.journal) == 0 {
		return nil
	}
	last := j.entry(len(j.journal) - 1)
	return []candidate{{
		pw:   mee.PendingWrite{Region: last.region, Index: last.index},
		pre:  *last,
		note: "queue drained: replayed last retired write",
	}}
}

// record fills the bookkeeping fields shared by all injections.
func (j *Injector) record(in Injection) Injection {
	in.RegionName = in.Region.String()
	if in.Original == nil {
		in.Original = j.dev.Peek(in.Region, in.Index)
	}
	return in
}

// Apply injects one fault of the given kind at crash time now, driven
// by rng (callers seed it per cell, which is what makes the whole
// matrix reproducible). It returns the applied injections — empty for
// KindCrash, and for degenerate windows (nothing written yet).
//
// The sequence is CaptureWindow → machine.Crash → Apply: the in-flight
// window is frozen at the failing cycle (Crash resets the queue), while
// the device mutation lands after any pre-crash flush — the battery
// protocol's residual-energy window is part of the power-failure
// sequence and precedes the device reaching its final state.
func (j *Injector) Apply(rng *rand.Rand, kind Kind, now uint64) []Injection {
	switch kind {
	case KindCrash:
		return nil
	case KindTorn:
		return j.applyTorn(rng, now)
	case KindDrop:
		return j.applyDrop(rng, now, false)
	case KindReorder:
		return j.applyDrop(rng, now, true)
	case KindBitRot:
		return j.applyBitRot(rng)
	}
	return nil
}

// applyTorn tears one candidate write: the durable block keeps a
// prefix of its current (new) content and reverts the suffix to the
// pre-image. Cut points are word-granular, matching an 8-byte device
// write word.
func (j *Injector) applyTorn(rng *rand.Rand, now uint64) []Injection {
	cands := j.candidates(now)
	if len(cands) == 0 {
		return nil
	}
	c := cands[rng.Intn(len(cands))]
	cur := j.dev.Peek(c.pw.Region, c.pw.Index)
	if cur == nil {
		return nil
	}
	cut := (1 + rng.Intn(scm.BlockSize/8-1)) * 8 // in [8, 56]
	torn := make([]byte, scm.BlockSize)
	copy(torn, c.pre.old[:]) // zeros when the pre-image is first-touch
	copy(torn[:cut], cur[:cut])
	in := j.record(Injection{
		Kind:     KindTorn,
		Region:   c.pw.Region,
		Index:    c.pw.Index,
		Cut:      cut,
		Original: append([]byte(nil), cur...),
		Note:     c.note,
	})
	j.dev.ReplayBlock(c.pw.Region, c.pw.Index, torn)
	return []Injection{in}
}

// applyDrop loses one candidate write entirely. With reorder set it
// targets the oldest in-flight entry while newer entries stay durable
// — completion order inverted; otherwise the entry is chosen at
// random.
func (j *Injector) applyDrop(rng *rand.Rand, now uint64, reorder bool) []Injection {
	cands := j.candidates(now)
	if len(cands) == 0 {
		return nil
	}
	c := cands[0] // oldest: the reordering victim
	kind := KindReorder
	if !reorder {
		c = cands[rng.Intn(len(cands))]
		kind = KindDrop
	} else if len(cands) < 2 {
		c.note = strings.TrimSpace(c.note + " (single entry: degenerates to drop)")
	}
	in := j.record(Injection{
		Kind:   kind,
		Region: c.pw.Region,
		Index:  c.pw.Index,
		Note:   c.note,
	})
	if c.pre.absent {
		j.dev.Erase(c.pw.Region, c.pw.Index)
	} else {
		j.dev.ReplayBlock(c.pw.Region, c.pw.Index, c.pre.old[:])
	}
	return []Injection{in}
}

// applyBitRot flips one bit of a stored counter block (or a tree
// block when no counters exist yet). Counters are preferred because
// every protocol's recovery consumes them, making the flip a
// guaranteed-reachable tamper.
func (j *Injector) applyBitRot(rng *rand.Rand) []Injection {
	region := scm.Counter
	indices := j.dev.Indices(region)
	if len(indices) == 0 {
		region = scm.Tree
		indices = j.dev.Indices(region)
	}
	if len(indices) == 0 {
		return nil
	}
	idx := indices[rng.Intn(len(indices))]
	offset := rng.Intn(scm.BlockSize)
	mask := byte(1) << rng.Intn(8)
	in := j.record(Injection{
		Kind:   KindBitRot,
		Region: region,
		Index:  idx,
		Offset: offset,
		Mask:   mask,
	})
	j.dev.TamperByte(region, idx, offset, mask)
	return []Injection{in}
}
