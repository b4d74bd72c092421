package mee

import (
	"amnt/internal/bmt"
	"amnt/internal/cme"
	"amnt/internal/counters"
	"amnt/internal/scm"
)

// Policy is a metadata persistence protocol. The controller consults
// the policy on every metadata update to decide write-through versus
// writeback, calls its hooks on data writes (where AMNT tracks its hot
// region), and runs the crash recovery it declares. Bookkeeping on
// metadata cache events or data reads is opt-in, through MetaObserver
// and ReadObserver.
type Policy interface {
	// Name identifies the protocol ("amnt", "anubis", ...).
	Name() string
	// Attach hands the policy its controller, once, at construction.
	Attach(c *Controller)
	// WriteThroughCounter reports whether the updated counter block
	// must be persisted (posted, ADR-ordered) on this write.
	WriteThroughCounter(counterIdx uint64) bool
	// WriteThroughHMAC likewise for the data-HMAC block.
	WriteThroughHMAC(hmacIdx uint64) bool
	// WriteThroughTree reports whether an updated inner tree node must
	// be written through synchronously (blocking) on this write. The
	// answer for a node may depend on the write being consulted for,
	// but not on where in its epoch that write sits: whatever moves the
	// policy's persistence frontier (AMNT's subtree, BMF's root set)
	// runs from OnWriteComplete, never from OnDataWrite.
	WriteThroughTree(level int, idx uint64) bool
	// OnDataWrite runs once per data-block write before metadata
	// updates; returns extra cycles (AMNT hot-region tracking).
	OnDataWrite(now uint64, dataBlock uint64) uint64
	// OnTreeUpdate runs after an inner node's content is updated in
	// the cache (AMNT subtree register, BMF persistent-root copies).
	OnTreeUpdate(now uint64, level int, idx uint64, content []byte) uint64
	// OnWriteComplete runs at the end of every data-block write, after
	// the climb of the epoch carrying it (PLP places its single persist
	// barrier here). It is where a policy changes its WriteThroughTree
	// answers: a frontier move decided by OnDataWrite runs from the
	// first completion hook after it, so nothing is pending between
	// epochs. A recovery session calls neither hook.
	OnWriteComplete(now uint64, dataBlock uint64) uint64
	// AnchorContent returns trusted content for (level, idx) if the
	// policy holds it in on-chip NV state (BMF roots, AMNT subtree).
	AnchorContent(level int, idx uint64) ([]byte, bool)
	// Crash drops the policy's volatile state.
	Crash()
	// RecoveryPlan declares how to re-establish a trusted tree after
	// Crash: what may be stale and what vouches for it (see
	// RecoveryPlan). The controller's executor runs it.
	RecoveryPlan() RecoveryPlan
	// Overhead reports the protocol's extra hardware (Table 3).
	Overhead() Overhead
}

// MetaObserver is implemented by a policy that keeps bookkeeping on
// metadata cache events (Anubis's shadow table). Each hook returns the
// cycles it charges.
type MetaObserver interface {
	// OnMetaFill runs when a metadata block enters the cache.
	OnMetaFill(now uint64, key MetaKey) uint64
	// OnMetaEvict runs when a metadata block leaves the cache.
	OnMetaEvict(now uint64, key MetaKey, dirty bool) uint64
}

// ReadObserver is implemented by a policy that does work on every data
// read: indirection-based protocols charge their membership lookup in
// OnDataRead, which runs once per read before verification. The
// untimed concurrent read view cannot run such a hook, so a policy
// with one always reads on the serialized path (see readview.go).
type ReadObserver interface {
	OnDataRead(now uint64, dataBlock uint64) uint64
}

// Overhead is the additional hardware a protocol requires beyond the
// baseline metadata cache and BMT root register (the paper's Table 3).
type Overhead struct {
	NVOnChipBytes  uint64
	VolOnChipBytes uint64
	InMemoryBytes  uint64
}

// RecoveryReport describes the work a recovery performed.
type RecoveryReport struct {
	Protocol string
	// CounterReads is the number of counter blocks fetched.
	CounterReads uint64
	// DataReads is the number of data blocks fetched (Osiris).
	DataReads uint64
	// NodeWrites is the number of tree nodes recomputed and persisted.
	NodeWrites uint64
	// ShadowReads is the number of shadow-table blocks read (Anubis).
	ShadowReads uint64
	// StaleFraction is the fraction of the tree that had to be
	// reconstructed (1.0 for leaf, 0 for strict, 1/regions for AMNT).
	StaleFraction float64
	// Cycles is the simulated device time spent recovering.
	Cycles uint64
}

// base provides no-op defaults for the hooks most protocols leave
// empty; concrete policies embed it.
type base struct {
	ctrl *Controller
}

func (b *base) Attach(c *Controller) { b.ctrl = c }

func (b *base) OnDataWrite(uint64, uint64) uint64 { return 0 }

func (b *base) OnTreeUpdate(uint64, int, uint64, []byte) uint64 { return 0 }

func (b *base) OnWriteComplete(uint64, uint64) uint64 { return 0 }

func (b *base) AnchorContent(int, uint64) ([]byte, bool) { return nil, false }

func (b *base) Crash() {}

func (b *base) Overhead() Overhead { return Overhead{} }

// wholeTree declares the whole tree one root, (1, 0), read from the
// counters: rebuilt and persisted when the inner nodes are writeback,
// only validated when they were written through.
func (b *base) wholeTree(persist bool) RecoveryPlan {
	p := RecoveryPlan{Roots: []RebuildRoot{{Level: 1, Source: b.ctrl.geo.Levels}}, Persist: persist}
	if persist {
		p.StaleFraction = 1
	}
	return p
}

// --- Volatile ---------------------------------------------------------

// Volatile is the writeback secure-memory baseline the paper
// normalizes to: no metadata persistence at all. It is fast and not
// crash consistent — recovery fails whenever dirty metadata was lost.
type Volatile struct{ base }

// NewVolatile returns the volatile baseline policy.
func NewVolatile() *Volatile { return &Volatile{} }

// Name implements Policy.
func (*Volatile) Name() string { return "volatile" }

// WriteThroughCounter implements Policy.
func (*Volatile) WriteThroughCounter(uint64) bool { return false }

// WriteThroughHMAC implements Policy.
func (*Volatile) WriteThroughHMAC(uint64) bool { return false }

// WriteThroughTree implements Policy.
func (*Volatile) WriteThroughTree(int, uint64) bool { return false }

// RecoveryPlan implements Policy: a full rebuild. Unless the crash
// happened with a clean metadata cache its audit fails, demonstrating
// why volatile secure memory cannot be retrofitted onto SCM. Writeback
// counters rule out serving while it runs.
func (v *Volatile) RecoveryPlan() RecoveryPlan { return v.wholeTree(true) }

// --- Strict -----------------------------------------------------------

// Strict persists every metadata update through to SCM synchronously.
// Trivial recovery, steep runtime cost (the paper's upper baseline).
type Strict struct{ base }

// NewStrict returns the strict persistence policy.
func NewStrict() *Strict { return &Strict{} }

// Name implements Policy.
func (*Strict) Name() string { return "strict" }

// WriteThroughCounter implements Policy.
func (*Strict) WriteThroughCounter(uint64) bool { return true }

// WriteThroughHMAC implements Policy.
func (*Strict) WriteThroughHMAC(uint64) bool { return true }

// WriteThroughTree implements Policy.
func (*Strict) WriteThroughTree(int, uint64) bool { return true }

// RecoveryPlan implements Policy: nothing is stale; the report shows
// zero reconstruction. The tree is validated against the root register.
func (s *Strict) RecoveryPlan() RecoveryPlan { return s.wholeTree(false) }

// --- Leaf -------------------------------------------------------------

// Leaf persists counters and HMACs atomically with data, leaving the
// inner tree to writeback; after a crash the whole tree is rebuilt
// from the leaves (the paper's lower baseline).
type Leaf struct{ base }

// NewLeaf returns the leaf persistence policy.
func NewLeaf() *Leaf { return &Leaf{} }

// Name implements Policy.
func (*Leaf) Name() string { return "leaf" }

// WriteThroughCounter implements Policy.
func (*Leaf) WriteThroughCounter(uint64) bool { return true }

// WriteThroughHMAC implements Policy.
func (*Leaf) WriteThroughHMAC(uint64) bool { return true }

// WriteThroughTree implements Policy.
func (*Leaf) WriteThroughTree(int, uint64) bool { return false }

// RecoveryPlan implements Policy with a full bottom-up reconstruction.
// Counters and HMACs are write-through, so the controller may serve
// degraded while it runs.
func (l *Leaf) RecoveryPlan() RecoveryPlan {
	p := l.wholeTree(true)
	p.Online = true
	return p
}

// --- Osiris -----------------------------------------------------------

// Osiris relaxes leaf persistence with a stop-loss: a counter block is
// only persisted on every Nth update, so a crashed counter is at most
// N bumps stale and is recovered by replaying candidate counters
// against the (always persisted) data HMAC.
type Osiris struct {
	base
	// N is the stop-loss interval.
	N uint64
	// pending counts unpersisted updates per counter block (volatile).
	pending map[uint64]uint64
}

// NewOsiris returns an Osiris policy with stop-loss interval n
// (the original work uses 4).
func NewOsiris(n uint64) *Osiris {
	if n == 0 {
		n = 4
	}
	return &Osiris{N: n, pending: make(map[uint64]uint64)}
}

// Name implements Policy.
func (*Osiris) Name() string { return "osiris" }

// WriteThroughCounter implements Policy: persist on every Nth update.
func (o *Osiris) WriteThroughCounter(counterIdx uint64) bool {
	o.pending[counterIdx]++
	if o.pending[counterIdx] >= o.N {
		o.pending[counterIdx] = 0
		return true
	}
	return false
}

// WriteThroughHMAC implements Policy. HMACs must be fresh in SCM for
// the stop-loss replay to identify the correct counter.
func (*Osiris) WriteThroughHMAC(uint64) bool { return true }

// WriteThroughTree implements Policy.
func (*Osiris) WriteThroughTree(int, uint64) bool { return false }

// Crash implements Policy.
func (o *Osiris) Crash() { o.pending = make(map[uint64]uint64) }

// RecoveryPlan implements Policy: replay candidate counters against
// data HMACs to restore the freshest counter values, then rebuild the
// tree.
func (o *Osiris) RecoveryPlan() RecoveryPlan {
	p := o.wholeTree(true)
	p.Prepass = o.replay
	return p
}

// replay is Osiris's pre-pass: every stop-loss counter back to the value
// its data HMAC was computed under. Its counter reads are charged but
// counted once, by the rebuild that re-reads the same blocks.
func (o *Osiris) replay(rep *RecoveryReport) error {
	c := o.ctrl
	dev := c.Device()
	eng := c.Engine()

	// Walk the initialized data in address order, a page at a time.
	// The page set derives from the data, not from the counter region:
	// with the stop-loss a counter block with fewer than N lifetime
	// updates may never have been persisted at all — its device copy
	// is the (valid) zero state, and the replay advances it to the
	// live value.
	//
	// Every slot is replayed against the original (possibly stale)
	// decoded counters, collecting corrections that are applied
	// together when the walk leaves the page: a major bump found by
	// one slot applies to the whole page (overflow re-encrypts the
	// page atomically).
	var ctrRaw, hm [scm.BlockSize]byte
	var orig, fixed counters.Block
	page, open, changed := uint64(0), false, false
	closePage := func() {
		if changed {
			fixed.Encode(ctrRaw[:])
			rep.Cycles += dev.Write(scm.Counter, page, ctrRaw[:])
		}
	}
	var err error
	dataCycles := dev.Scan(scm.Data, 0, dev.DataBlocks(), func(db uint64, ct []byte) bool {
		if ctrIdx := counters.CounterIndex(db); !open || ctrIdx != page {
			closePage()
			page, open, changed = ctrIdx, true, false
			rep.Cycles += dev.Read(scm.Counter, page, ctrRaw[:])
			orig = counters.Decode(ctrRaw[:])
			fixed = orig
		}
		rep.DataReads++
		rep.Cycles += dev.Read(scm.HMAC, db/hmacSlotsPerBlock, hm[:])
		stored := bmt.ChildDigest(hm[:], int(db%hmacSlotsPerBlock))
		j := counters.MinorSlot(db)
		major, minor := orig.Get(j)
		cand, ok := o.replayCounter(eng, db, major, minor, stored, ct)
		if !ok {
			err = &IntegrityError{What: "osiris: no counter candidate matches HMAC", Addr: dataAddr(db)}
			return false
		}
		if cand.major != major || cand.minor != minor {
			fixed.Major = cand.major
			fixed.Minors[j] = cand.minor
			changed = true
		}
		return true
	})
	rep.Cycles += dataCycles // not "+=" on the call: the walk adds to rep.Cycles itself
	if err != nil {
		return err
	}
	closePage()
	return nil
}

type counterCand struct {
	major uint64
	minor uint8
}

// replayCounter searches the stop-loss window for the counter under
// which the stored HMAC authenticates the ciphertext.
func (o *Osiris) replayCounter(eng *cme.Engine, db, major uint64, minor uint8, stored uint64, ct []byte) (counterCand, bool) {
	for k := uint64(0); k <= o.N; k++ {
		m := uint64(minor) + k
		if m <= counters.MinorMax {
			if eng.MAC(dataAddr(db), major, uint8(m), ct) == stored {
				return counterCand{major, uint8(m)}, true
			}
		}
	}
	// The minor may have wrapped into a major bump within the window.
	for k := uint64(0); k <= o.N; k++ {
		if eng.MAC(dataAddr(db), major+1, uint8(k), ct) == stored {
			return counterCand{major + 1, uint8(k)}, true
		}
	}
	return counterCand{}, false
}

// Overhead implements Policy: Osiris adds no extra on-chip structures
// beyond a small persist counter per cached line, which we fold into
// the volatile figure (one byte per metadata cache line).
func (o *Osiris) Overhead() Overhead {
	lines := uint64(0)
	if o.ctrl != nil {
		lines = uint64(o.ctrl.MetaCache().Lines())
	}
	return Overhead{VolOnChipBytes: lines}
}
