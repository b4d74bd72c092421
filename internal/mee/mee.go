// Package mee implements the memory encryption engine: the on-chip
// secure memory controller that sits between the last-level cache and
// the SCM device. It provides counter-mode encryption, per-block
// HMACs, and Bonsai Merkle Tree integrity verification, with a
// pluggable metadata persistence Policy — the axis the paper explores.
//
// The controller is functional and timed. Functional: every data block
// is really encrypted into the device, counters really tick, tree
// hashes are really verified on every metadata miss, and tampering
// with the device raises *IntegrityError. Timed: each operation
// returns its cost in cycles, built from metadata cache hits, device
// latencies, hash latencies, and a bounded write queue that charges
// posted writes only on back-pressure but blocking persists in full —
// the mechanism that makes strict persistence expensive and leaf
// persistence cheap, exactly as in the paper.
//
// Built-in policies: Volatile (the paper's normalization baseline),
// Strict, Leaf, Osiris (stop-loss counters), Anubis (shadow table),
// and BMF (Bonsai Merkle Forest). The paper's contribution, AMNT,
// implements Policy in package core.
package mee

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"amnt/internal/bmt"
	"amnt/internal/cache"
	"amnt/internal/cme"
	"amnt/internal/counters"
	"amnt/internal/scm"
	"amnt/internal/stats"
	"amnt/internal/telemetry"
)

// Config holds the controller's hardware parameters. Defaults follow
// the paper's Table 1 (64 kB metadata cache, 2-cycle latency).
type Config struct {
	// MetaCacheBytes is the unified metadata cache capacity.
	MetaCacheBytes int
	// MetaAssoc is the metadata cache associativity.
	MetaAssoc int
	// MetaHitCycles is the metadata cache access latency.
	MetaHitCycles uint64
	// MetaReplacement selects the metadata cache's victim policy
	// (default LRU).
	MetaReplacement cache.Replacement
	// HashCycles is the latency of one keyed-hash/HMAC computation.
	HashCycles uint64
	// WriteQueueDepth bounds in-flight SCM writes.
	WriteQueueDepth int
	// WriteDrainCycles is the service time per queued write (device
	// write latency divided across channels/banks).
	WriteDrainCycles uint64
	// ReadOverlap is the memory-level-parallelism divisor applied to
	// device read latency: an out-of-order core overlaps independent
	// misses, so each read charges ReadCycles/ReadOverlap.
	ReadOverlap uint64
	// PostedWriteCycles is the fixed cost of inserting one (uncoalesced)
	// ordered write into the persist queue.
	PostedWriteCycles uint64
	// NoCoalesce disables write-queue address coalescing (ablation:
	// every posted persist occupies its own drain slot).
	NoCoalesce bool
	// Hasher selects the hash backend (cme.Fast by default).
	Hasher cme.Hasher
	// Key is the device encryption key.
	Key uint64
}

// DefaultConfig returns the paper's secure-memory configuration.
func DefaultConfig() Config {
	return Config{
		MetaCacheBytes:    64 << 10,
		MetaAssoc:         8,
		MetaHitCycles:     2,
		HashCycles:        24,
		WriteQueueDepth:   16,
		WriteDrainCycles:  scm.DefaultWriteCycles / 2, // two persist channels
		ReadOverlap:       4,
		PostedWriteCycles: 12,
		Hasher:            cme.Fast{},
		Key:               0x414D4E54, // "AMNT"
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MetaCacheBytes == 0 {
		c.MetaCacheBytes = d.MetaCacheBytes
	}
	if c.MetaAssoc == 0 {
		c.MetaAssoc = d.MetaAssoc
	}
	if c.MetaHitCycles == 0 {
		c.MetaHitCycles = d.MetaHitCycles
	}
	if c.HashCycles == 0 {
		c.HashCycles = d.HashCycles
	}
	if c.WriteQueueDepth == 0 {
		c.WriteQueueDepth = d.WriteQueueDepth
	}
	if c.WriteDrainCycles == 0 {
		c.WriteDrainCycles = d.WriteDrainCycles
	}
	if c.ReadOverlap == 0 {
		c.ReadOverlap = d.ReadOverlap
	}
	if c.PostedWriteCycles == 0 {
		c.PostedWriteCycles = d.PostedWriteCycles
	}
	if c.Hasher == nil {
		c.Hasher = d.Hasher
	}
	if c.Key == 0 {
		c.Key = d.Key
	}
	return c
}

// IntegrityError reports an authentication failure: corrupted,
// spliced, or replayed off-chip state.
type IntegrityError struct {
	What string
	Addr uint64
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("mee: integrity violation: %s at %#x", e.What, e.Addr)
}

// MetaKey identifies a metadata block in the unified metadata cache.
// The top bits carry the kind, the low bits the region-local index.
type MetaKey uint64

const (
	keyKindShift         = 62
	kindCounter   uint64 = 0
	kindTree      uint64 = 1
	kindHMAC      uint64 = 2
	kindShadowAux uint64 = 3
)

// CounterKey returns the MetaKey of a counter block.
func CounterKey(idx uint64) MetaKey { return MetaKey(kindCounter<<keyKindShift | idx) }

// HMACKey returns the MetaKey of an HMAC block.
func HMACKey(idx uint64) MetaKey { return MetaKey(kindHMAC<<keyKindShift | idx) }

// TreeKey returns the MetaKey of an inner tree node.
func TreeKey(g bmt.Geometry, level int, idx uint64) MetaKey {
	return MetaKey(kindTree<<keyKindShift | g.FlatIndex(level, idx))
}

// kind returns the key's kind tag.
func (k MetaKey) kind() uint64 { return uint64(k) >> keyKindShift }

// index returns the key's region-local index.
func (k MetaKey) index() uint64 { return uint64(k) &^ (uint64(3) << keyKindShift) }

// IsTree reports whether the key names an inner tree node.
func (k MetaKey) IsTree() bool { return k.kind() == kindTree }

// IsCounter reports whether the key names a counter block.
func (k MetaKey) IsCounter() bool { return k.kind() == kindCounter }

// TreeNode returns the (level, index) of a tree key.
func (k MetaKey) TreeNode(g bmt.Geometry) (level int, idx uint64) {
	if !k.IsTree() {
		panic("mee: TreeNode on non-tree key")
	}
	return g.Unflatten(k.index())
}

// CounterIndex returns the counter-block index of a counter key.
func (k MetaKey) CounterIndex() uint64 {
	if !k.IsCounter() {
		panic("mee: CounterIndex on non-counter key")
	}
	return k.index()
}

// region returns the device region and index backing the key.
func (k MetaKey) region() (scm.Region, uint64) {
	switch k.kind() {
	case kindCounter:
		return scm.Counter, k.index()
	case kindTree:
		return scm.Tree, k.index()
	case kindHMAC:
		return scm.HMAC, k.index()
	case kindShadowAux:
		return scm.Shadow, k.index()
	}
	panic("mee: unknown key kind")
}

// ErrConcurrentUse is the message of the panic raised when two
// controller operations overlap in time — the single-writer contract
// (see Controller) was violated.
const ErrConcurrentUse = "mee: Controller is not safe for concurrent use: " +
	"overlapping operations detected — each Controller must be driven by " +
	"one goroutine at a time (wrap it in internal/store for a concurrent front-end)"

// Stats aggregates controller activity.
type Stats struct {
	DataReads    stats.Counter
	DataWrites   stats.Counter
	MetaFetches  stats.Counter // metadata blocks fetched from SCM
	SyncPersists stats.Counter // blocking metadata persists
	PostedWrites stats.Counter // posted (queued) SCM writes
	// StallCycles counts cycles spent waiting on the write queue:
	// posted-write back-pressure stalls plus the full wait of blocking
	// persists and barriers.
	StallCycles  stats.Counter
	Overflows    stats.Counter // minor-counter overflows (page re-encryption)
	VerifyHashes stats.Counter // tree/MAC hash computations
	PolicyCycles stats.Counter // cycles charged by policy hooks
	// Recoveries counts completed Recover calls; RecoveryCycles sums
	// their simulated device time. Both are deterministic (host
	// wall-clock recovery time is exposed via telemetry only).
	Recoveries     stats.Counter
	RecoveryCycles stats.Counter
}

// Controller is the secure memory controller.
//
// Concurrency contract: a Controller is single-writer. Every
// operation mutates shared state (metadata cache, write-queue timing,
// the root register), so exactly one goroutine may drive a Controller
// at any moment. Sequential hand-off between goroutines is fine
// (e.g. the fault checker running Recover on a watchdog goroutine, or
// a store shard worker taking ownership at construction) as long as
// the hand-off establishes happens-before (channel send/receive,
// WaitGroup, mutex). Overlapping calls are a programming error: the
// top-level operations (ReadBlock, WriteBlock, Flush, Crash, Recover,
// VerifyAll, Save/LoadCheckpoint) carry an atomic in-use guard that
// panics with ErrConcurrentUse when two of them run at once, so
// misuse fails loudly — including under -race — instead of silently
// corrupting metadata. Concurrent serving is built by sharding, one
// controller per worker goroutine (see internal/store).
type Controller struct {
	cfg  Config
	dev  *scm.Device
	eng  *cme.Engine
	geo  bmt.Geometry
	meta *cache.Cache
	// buf holds the metadata cache's contents, one block per line,
	// indexed by the line's slot (see cache.Line.Slot).
	buf [][scm.BlockSize]byte
	// miss is where a missing HMAC or shadow block is read before it is
	// installed.
	miss [scm.BlockSize]byte
	// walk is the owner's verified-read chain (see climb).
	walk     chain
	rootNV   [bmt.NodeSize]byte // level-1 node content, on-chip NV register
	wq       *writeQueue
	policy   Policy
	zero     []uint64              // zero-subtree digests per level
	zeroNode [][scm.BlockSize]byte // zero-node contents per inner level
	st       Stats
	// levelHits tracks the metadata cache hit ratio of FetchVerified
	// per tree level (index == level; levels 0..1 unused — the root
	// register and policy anchors satisfy those without the cache).
	levelHits []stats.Ratio
	// trace, when non-nil, receives protocol events (stalls, overflows,
	// crash/recovery). Nil when telemetry is disabled; every emit site
	// is guarded so the disabled path allocates nothing.
	trace *telemetry.Tracer
	// busy is the single-writer guard: set while a top-level operation
	// runs, so an overlapping call from another goroutine panics
	// (ErrConcurrentUse) instead of racing on controller state.
	busy atomic.Int32
	// viewMu and viewSeq implement the concurrent read view (see
	// readview.go). Every guarded top-level operation holds viewMu
	// exclusively and bumps viewSeq on entry; ReadBlockConcurrent
	// snapshots under short TryRLock sections and uses viewSeq to
	// detect a writer slipping between them. The busy CAS stays the
	// first action of enter() so an overlapping guarded call still
	// panics instead of queueing on the mutex.
	viewMu  sync.RWMutex
	viewSeq atomic.Uint64
	// viewOK is whether the attached policy's read-path hooks are
	// pure (computed once at New; see ConcurrentReadsSupported).
	viewOK bool
	// viewHook, when non-nil, runs between the two snapshot sections
	// of a concurrent read attempt. Test-only: lets a test inject a
	// writer at the exact window a seq conflict is possible.
	viewHook func(attempt int)
	// Concurrent-read accounting. The rest of Stats is non-atomic and
	// owner-written; these are reader-written, so they live apart.
	viewReads     atomic.Uint64 // verified reads served off the view
	viewRetries   atomic.Uint64 // snapshot attempts retried on a seq change
	viewConflicts atomic.Uint64 // reads abandoned to the serialized path
	viewFetches   atomic.Uint64 // metadata blocks the view peeked from the device
	// recoveryWallNs accumulates the host wall-clock time spent inside
	// Recover. Atomic because the telemetry HTTP server reads it
	// concurrently; never folded into simulated results.
	recoveryWallNs atomic.Uint64
	// recProg, when non-nil, is the live rebuild watermark every
	// recovery path reports into (via RebuildOptions). All-atomic and
	// read concurrently by telemetry gauges while recovery runs.
	recProg *bmt.Progress
	// session, when non-nil, is the active online recovery session:
	// the controller serves degraded (see RecoverySession) until the
	// owner finishes it. Only touched under the single-writer guard.
	session *RecoverySession
	// plan is commitEpoch's per-commit bookkeeping, kept between
	// commits so a warm write allocates nothing for it. Only touched
	// under the single-writer guard.
	plan epochPlan
}

// enter claims the controller for one top-level operation; exit
// releases it. Guarded methods never nest (internal helpers call the
// unexported variants), so a failed claim is always a second
// goroutine overlapping the first.
func (c *Controller) enter() {
	if !c.busy.CompareAndSwap(0, 1) {
		panic(ErrConcurrentUse)
	}
	c.viewMu.Lock()
	c.viewSeq.Add(1)
}

func (c *Controller) exit() {
	c.viewMu.Unlock()
	c.busy.Store(0)
}

// New builds a controller over dev with the given policy. The tree
// geometry is derived from the device capacity; the root register is
// initialized to the all-zero tree (the device starts zeroed).
func New(dev *scm.Device, cfg Config, policy Policy) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg: cfg,
		dev: dev,
		eng: cme.NewEngine(cfg.Hasher, cfg.Key),
		geo: bmt.GeometryForCapacity(dev.Config().CapacityBytes),
		wq:  newWriteQueue(cfg.WriteQueueDepth, cfg.WriteDrainCycles),
	}
	c.wq.noCoalesce = cfg.NoCoalesce
	c.meta = cache.New(cache.Config{
		Name:        "meta",
		SizeBytes:   cfg.MetaCacheBytes,
		LineBytes:   scm.BlockSize,
		Assoc:       cfg.MetaAssoc,
		HitCycles:   cfg.MetaHitCycles,
		Replacement: cfg.MetaReplacement,
	})
	c.buf = make([][scm.BlockSize]byte, c.meta.Lines())
	c.walk.links = make([]link, 0, c.geo.Levels)
	c.zero = bmt.ZeroDigests(c.eng, c.geo)
	c.zeroNode = make([][scm.BlockSize]byte, c.geo.Levels)
	for l := 1; l <= c.geo.Levels-1; l++ {
		var node [scm.BlockSize]byte
		for slot := 0; slot < bmt.Arity; slot++ {
			bmt.SetChildDigest(node[:], slot, c.zero[l+1])
		}
		c.zeroNode[l] = node
	}
	c.rootNV = c.zeroNode[1]
	c.levelHits = make([]stats.Ratio, c.geo.Levels+1)
	c.policy = policy
	policy.Attach(c)
	if cr, ok := policy.(interface{ ConcurrentReadSafe() bool }); ok {
		c.viewOK = cr.ConcurrentReadSafe()
	}
	return c
}

// Accessors used by policies, recovery, and the simulator.

// Device returns the underlying SCM device.
func (c *Controller) Device() *scm.Device { return c.dev }

// Engine returns the crypto engine.
func (c *Controller) Engine() *cme.Engine { return c.eng }

// Geometry returns the BMT geometry.
func (c *Controller) Geometry() bmt.Geometry { return c.geo }

// MetaCache returns the metadata cache.
func (c *Controller) MetaCache() *cache.Cache { return c.meta }

// Policy returns the active persistence policy.
func (c *Controller) Policy() Policy { return c.policy }

// Stats returns the controller's counters.
func (c *Controller) Stats() *Stats { return &c.st }

// Config returns the controller configuration (with defaults applied).
func (c *Controller) Config() Config { return c.cfg }

// SetRecoveryProgress installs (or, with nil, removes) the live
// rebuild watermark recovery reports into. The serving layer installs
// one per shard so /vars can show recovery progress while it runs.
func (c *Controller) SetRecoveryProgress(p *bmt.Progress) { c.recProg = p }

// RecoveryWallNs returns the cumulative host wall-clock nanoseconds
// spent inside Recover (telemetry only; not part of simulated time).
func (c *Controller) RecoveryWallNs() uint64 { return c.recoveryWallNs.Load() }

// SetTracer installs (or, with nil, removes) a protocol event trace
// sink. The simulator sets this when telemetry is enabled.
func (c *Controller) SetTracer(t *telemetry.Tracer) { c.trace = t }

// Tracer returns the active trace sink, nil when tracing is disabled.
// Policies use it to emit their own events (subtree movements).
func (c *Controller) Tracer() *telemetry.Tracer { return c.trace }

// Root returns the current root register content (level-1 node).
func (c *Controller) Root() [bmt.NodeSize]byte { return c.rootNV }

// SetRoot overwrites the root register; recovery uses this after
// validating a reconstructed tree.
func (c *Controller) SetRoot(content [bmt.NodeSize]byte) { c.rootNV = content }

// ZeroDigest returns the digest of an all-zero subtree at a level.
func (c *Controller) ZeroDigest(level int) uint64 { return c.zero[level] }

// --- metadata cache plumbing -----------------------------------------

// wqKey composes a write-queue coalescing key from a device location.
func wqKey(region scm.Region, idx uint64) uint64 {
	return uint64(region)<<56 | idx
}

// postCharge enqueues a posted write and charges back-pressure plus
// the fixed queue-insertion cost (free when the write coalesced).
func (c *Controller) postCharge(now uint64, key uint64) uint64 {
	stall, merged := c.wq.post(now, key)
	if stall > 0 {
		c.st.StallCycles.Add(stall)
		if c.trace != nil {
			c.trace.Emit(telemetry.Event{
				Cycle:  now,
				Kind:   telemetry.EvWQStall,
				Cycles: stall,
				Count:  uint64(c.wq.n),
			})
		}
	}
	if merged {
		return stall
	}
	return stall + c.cfg.PostedWriteCycles
}

// readCharge converts a raw device read latency into the cycles
// charged to the requester, applying the read-overlap divisor.
func (c *Controller) readCharge(raw uint64) uint64 {
	charged := raw / c.cfg.ReadOverlap
	if charged == 0 {
		charged = 1
	}
	return charged
}

// metaKeyFor maps a verified-tree node position to its cache key.
// level must be in [2, Levels].
func (c *Controller) metaKeyFor(level int, idx uint64) MetaKey {
	if level == c.geo.Levels {
		return CounterKey(idx)
	}
	return TreeKey(c.geo, level, idx)
}

// install inserts content for key into the metadata cache, writing
// back any dirty victim (whose slot, and so whose place in buf, the new
// line takes over). Returns the cached copy and the cycles charged.
func (c *Controller) install(now uint64, key MetaKey, content *[scm.BlockSize]byte) ([]byte, uint64) {
	var cycles uint64
	_, slot, victim, evicted := c.meta.Access(uint64(key), false)
	if evicted {
		vk := MetaKey(victim.Key)
		if victim.Dirty {
			region, idx := vk.region()
			c.dev.Write(region, idx, c.buf[slot][:])
			cycles += c.postCharge(now+cycles, wqKey(region, idx))
			c.st.PostedWrites.Inc()
		}
		cycles += c.policy.OnMetaEvict(now+cycles, vk, victim.Dirty)
	}
	c.buf[slot] = *content
	cycles += c.policy.OnMetaFill(now+cycles, key)
	return c.buf[slot][:], cycles
}

// cached returns the content of key's line, nil when it is not
// resident, without touching replacement state or statistics.
func (c *Controller) cached(key MetaKey) []byte {
	if l := c.meta.Lookup(uint64(key)); l != nil {
		return c.buf[l.Slot()][:]
	}
	return nil
}

// --- the verified-read walk -------------------------------------------
//
// A tree node (a counter block is a level-Levels node) is trusted once
// a walk climbs from it to the first trusted rung — the root register,
// a policy anchor, or a cache-resident node — and descends again,
// hashing each link read from the device into its parent. The chain's
// source carries every difference between callers: the owner
// (FetchVerified) touches, charges, counts and installs; a snapshot
// (the read view) looks up, copies and peeks, with no side effects.
// The owner's cycles are one running total: climbing adds
// MetaHitCycles plus the read charge per rung, descending adds
// HashCycles per link and installs it at now plus the total — exactly
// a per-rung recursion's sums and install times.

// chain is one walk's state: the links captured below the trusted
// rung, leaf first, and that rung's content.
type chain struct {
	snapshot bool
	links    []link
	// top is the trusted rung: controller state for the owner, own for
	// a snapshot, nil above a provisionally loaded counter leaf.
	top []byte
	own [scm.BlockSize]byte
}

// link is one untrusted rung: a node's position and the content read
// for it, to be checked against its parent.
type link struct {
	level   int
	idx     uint64
	content [scm.BlockSize]byte
}

// climb captures the chain from node (level, idx) up to the first
// trusted rung and returns the owner's cycles so far. Under a recovery
// session's rebuild root the tree is mid-rebuild: a missing counter
// leaf there ends the climb unverified (top nil; the data MAC still
// binds its values and the rebuild audit covers replay) and a missing
// inner node there is ErrRecovering.
func (c *Controller) climb(ch *chain, level int, idx uint64) (uint64, error) {
	var cycles uint64
	var stale bool
	ch.links, ch.top = ch.links[:0], nil
	for ; level > 1; level, idx = bmt.Parent(level, idx) {
		if content, ok := c.policy.AnchorContent(level, idx); ok {
			ch.top = content
			break
		}
		key := c.metaKeyFor(level, idx)
		if ch.snapshot {
			if ch.top = c.cached(key); ch.top != nil {
				break
			}
		} else {
			cycles += c.cfg.MetaHitCycles
			slot, hit := c.meta.Touch(uint64(key), false)
			c.levelHits[level].Observe(hit)
			if hit {
				ch.top = c.buf[slot][:]
				break
			}
			if stale = c.session.stale(level, idx); stale && level < c.geo.Levels {
				return cycles, ErrRecovering
			}
		}
		ch.links = slices.Grow(ch.links, 1)[:len(ch.links)+1] // content is overwritten below
		l := &ch.links[len(ch.links)-1]
		l.level, l.idx = level, idx
		content := &l.content
		// An inner node never written is the zero-tree node for its level
		// — a real system would find the boot-time initialized content
		// there; the sparse device synthesizes it instead.
		region, devIdx := key.region()
		if ch.snapshot {
			if !c.dev.PeekInto(region, devIdx, content[:]) && region == scm.Tree {
				*content = c.zeroNode[level]
			}
			continue
		}
		if region != scm.Tree {
			cycles += c.readCharge(c.dev.Read(region, devIdx, content[:]))
		} else if rc, ok := c.dev.ReadIfPresent(region, devIdx, content[:]); ok {
			cycles += c.readCharge(rc)
		} else {
			cycles += c.readCharge(c.dev.Config().ReadCycles)
			*content = c.zeroNode[level]
		}
		c.st.MetaFetches.Inc()
		if stale {
			return cycles, nil
		}
	}
	if level == 1 {
		ch.top = c.rootNV[:]
	}
	if ch.snapshot {
		copy(ch.own[:], ch.top)
		ch.top = ch.own[:]
	}
	return cycles, nil
}

// descend authenticates the chain's links top down, each against its
// parent, and returns the node's trusted content with the owner's
// running total of cycles. The owner's content aliases the cache.
func (c *Controller) descend(ch *chain, now, cycles uint64) ([]byte, uint64, error) {
	parent := ch.top
	for i := len(ch.links) - 1; i >= 0; i-- {
		l := &ch.links[i]
		if parent == nil {
			c.session.provisional++
		} else {
			want := bmt.ChildDigest(parent, bmt.ChildSlot(l.idx))
			got := bmt.Hash(c.eng, l.level, l.content[:])
			if !ch.snapshot {
				cycles += c.cfg.HashCycles
				c.st.VerifyHashes.Inc()
			}
			if got != want {
				region, _ := c.metaKeyFor(l.level, l.idx).region()
				return nil, cycles, &IntegrityError{What: fmt.Sprintf("%s node level %d", region, l.level), Addr: l.idx}
			}
		}
		if ch.snapshot {
			parent = l.content[:]
			continue
		}
		var ic uint64
		parent, ic = c.install(now+cycles, c.metaKeyFor(l.level, l.idx), &l.content)
		cycles += ic
	}
	return parent, cycles, nil
}

// FetchVerified returns trusted content for tree node (level, idx),
// where level Levels addresses counter blocks: the owner's walk. The
// returned slice aliases controller state and is valid until the next
// operation.
func (c *Controller) FetchVerified(now uint64, level int, idx uint64) ([]byte, uint64, error) {
	cycles, err := c.climb(&c.walk, level, idx)
	if err != nil {
		return nil, cycles, err
	}
	return c.descend(&c.walk, now, cycles)
}

// fetchHMAC returns the (unverified — data MACs are self-checking)
// HMAC block hmacIdx, caching it in the metadata cache.
func (c *Controller) fetchHMAC(now uint64, hmacIdx uint64) ([]byte, uint64) {
	key := HMACKey(hmacIdx)
	cycles := c.cfg.MetaHitCycles
	if slot, hit := c.meta.Touch(uint64(key), false); hit {
		return c.buf[slot][:], cycles
	}
	content := &c.miss
	cycles += c.readCharge(c.dev.Read(scm.HMAC, hmacIdx, content[:]))
	c.st.MetaFetches.Inc()
	cached, ic := c.install(now+cycles, key, content)
	return cached, cycles + ic
}

// FetchShadow accesses a protocol-private Shadow-region block through
// the metadata cache (indirection tables, membership maps). Contents
// are policy-managed; the controller provides caching and timing.
func (c *Controller) FetchShadow(now uint64, idx uint64) uint64 {
	key := MetaKey(kindShadowAux<<keyKindShift | idx)
	cycles := c.cfg.MetaHitCycles
	if _, hit := c.meta.Touch(uint64(key), false); hit {
		return cycles
	}
	content := &c.miss
	cycles += c.readCharge(c.dev.Read(scm.Shadow, idx, content[:]))
	c.st.MetaFetches.Inc()
	_, ic := c.install(now+cycles, key, content)
	return cycles + ic
}

// markDirty flags a resident metadata block dirty after an in-cache
// update.
func (c *Controller) markDirty(key MetaKey) {
	if l := c.meta.Lookup(uint64(key)); l != nil {
		l.Dirty = true
	}
}

// PersistMeta writes the cached content of key through to the device
// and cleans its dirty bit. blocking selects strict (wait for
// completion) versus posted (ADR-ordered) semantics. Returns cycles.
func (c *Controller) PersistMeta(now uint64, key MetaKey, blocking bool) uint64 {
	l := c.meta.Lookup(uint64(key))
	if l == nil {
		return 0
	}
	region, idx := key.region()
	c.dev.Write(region, idx, c.buf[l.Slot()][:])
	l.Dirty = false
	if blocking {
		c.st.SyncPersists.Inc()
		wait := c.wq.block(now)
		c.st.StallCycles.Add(wait)
		return wait
	}
	c.st.PostedWrites.Inc()
	return c.postCharge(now, wqKey(region, idx))
}

// PostDeviceWrite enqueues a raw device write (data blocks, shadow
// tables) through the timing queue. blocking as in PersistMeta.
func (c *Controller) PostDeviceWrite(now uint64, region scm.Region, idx uint64, content []byte, blocking bool) uint64 {
	c.dev.Write(region, idx, content)
	if blocking {
		c.st.SyncPersists.Inc()
		wait := c.wq.block(now)
		c.st.StallCycles.Add(wait)
		return wait
	}
	c.st.PostedWrites.Inc()
	return c.postCharge(now, wqKey(region, idx))
}

// Barrier drains the write queue's ordering point: the caller waits
// until a freshly admitted marker completes (AMNT uses this to make a
// subtree movement durable before relaxing the new region).
func (c *Controller) Barrier(now uint64) uint64 {
	wait := c.wq.block(now)
	c.st.StallCycles.Add(wait)
	return wait
}

// MergedWrites reports how many posted writes coalesced in the queue.
func (c *Controller) MergedWrites() uint64 { return c.wq.mergedWrites() }

// PendingWrite identifies one in-flight write-queue entry by its
// device location.
type PendingWrite struct {
	Region scm.Region
	Index  uint64
}

// PendingWrites returns the device locations of writes admitted to
// the queue but not yet complete at time now, oldest first. In the
// functional model queued writes already reached the device at issue
// time (ADR semantics); the fault-injection harness uses this window
// to explore the weaker model in which a power failure tears, drops,
// or reorders exactly these entries.
func (c *Controller) PendingWrites(now uint64) []PendingWrite {
	keys := c.wq.inFlight(now)
	out := make([]PendingWrite, len(keys))
	for i, k := range keys {
		out[i] = PendingWrite{Region: scm.Region(k >> 56), Index: k &^ (uint64(0xff) << 56)}
	}
	return out
}

// WriteQueueOccupancy returns the admit-time occupancy distribution of
// the write queue (keys are entry counts, bounded by the queue depth).
func (c *Controller) WriteQueueOccupancy() *stats.Histogram { return c.wq.occupancy() }

// LevelHitRates returns the metadata cache hit rate of verified
// fetches per tree level, indexed by level (entries 0 and 1 are always
// zero: the root register and policy anchors bypass the cache).
func (c *Controller) LevelHitRates() []float64 {
	out := make([]float64, len(c.levelHits))
	for i := range c.levelHits {
		out[i] = c.levelHits[i].Rate()
	}
	return out
}

// RegisterMetrics publishes controller activity into a telemetry
// registry under prefix ("mee"): all Stats counters, write-queue depth
// and occupancy, the metadata cache, and per-level hit rates.
func (c *Controller) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".data_reads", "verified data block reads", c.st.DataReads.Value)
	reg.Counter(prefix+".data_writes", "encrypted data block writes", c.st.DataWrites.Value)
	reg.Counter(prefix+".meta_fetches", "metadata blocks fetched from SCM", c.MetaFetches)
	reg.Counter(prefix+".sync_persists", "blocking metadata persists", c.st.SyncPersists.Value)
	reg.Counter(prefix+".posted_writes", "posted (queued) SCM writes", c.st.PostedWrites.Value)
	reg.Counter(prefix+".stall_cycles", "cycles spent waiting on the write queue", c.st.StallCycles.Value)
	reg.Counter(prefix+".overflows", "minor-counter overflows (page re-encryption)", c.st.Overflows.Value)
	reg.Counter(prefix+".verify_hashes", "tree/MAC hash computations", c.st.VerifyHashes.Value)
	reg.Counter(prefix+".policy_cycles", "cycles charged by policy hooks", c.st.PolicyCycles.Value)
	reg.Counter(prefix+".merged_writes", "posted writes coalesced in the write queue", c.MergedWrites)
	reg.Counter(prefix+".recoveries", "completed crash recoveries", c.st.Recoveries.Value)
	reg.Counter(prefix+".recovery_cycles", "simulated device cycles spent recovering", c.st.RecoveryCycles.Value)
	reg.Counter(prefix+".recovery_wall_ns", "host wall-clock nanoseconds spent recovering", c.RecoveryWallNs)
	reg.Gauge(prefix+".wq_depth", "write-queue entries in flight", func() float64 {
		return float64(c.wq.n)
	})
	reg.Histogram(prefix+".wq_occupancy", "write-queue occupancy at admit", c.WriteQueueOccupancy)
	reg.Counter(prefix+".view_reads", "verified reads served off the concurrent read view", c.viewReads.Load)
	reg.Counter(prefix+".view_retries", "concurrent-read snapshot attempts retried on a seq change", c.viewRetries.Load)
	reg.Counter(prefix+".view_conflicts", "concurrent reads abandoned to the serialized path", c.viewConflicts.Load)
	c.meta.RegisterMetrics(reg, prefix+".meta")
	for level := 2; level <= c.geo.Levels; level++ {
		level := level
		reg.Gauge(fmt.Sprintf("%s.meta.hit_rate.l%d", prefix, level),
			fmt.Sprintf("metadata cache hit rate for level-%d fetches", level),
			func() float64 { return c.levelHits[level].Rate() })
	}
}

// --- data path --------------------------------------------------------

// dataAddr converts a data block index to its byte address for MAC
// binding.
func dataAddr(block uint64) uint64 { return block * scm.BlockSize }

// hmacSlotsPerBlock is how many 8-byte MACs fit one HMAC block.
const hmacSlotsPerBlock = scm.BlockSize / cme.MACSize

// ReadBlock performs a verified read of data block b into dst
// (BlockSize bytes), returning the latency in cycles. A block never
// written reads as zeroes without verification (first touch).
func (c *Controller) ReadBlock(now uint64, b uint64, dst []byte) (uint64, error) {
	c.enter()
	defer c.exit()
	cycles, err := c.readBlock(now, b, dst)
	c.session.observe(err)
	return cycles, err
}

func (c *Controller) readBlock(now uint64, b uint64, dst []byte) (uint64, error) {
	if len(dst) != scm.BlockSize {
		panic("mee: ReadBlock buffer must be BlockSize bytes")
	}
	if b >= c.dev.DataBlocks() {
		return 0, fmt.Errorf("mee: read of block %d beyond capacity (%d blocks)", b, c.dev.DataBlocks())
	}
	c.st.DataReads.Inc()
	var cycles uint64
	rc := c.policy.OnDataRead(now, b)
	c.st.PolicyCycles.Add(rc)
	cycles += rc
	// One lookup both detects first touch and fetches the ciphertext;
	// its cost is charged where the access sits in the modelled
	// sequence, after the counter fetch.
	ct := c.plan.ct[:] // no commit is in flight during a read
	dataCycles, ok := c.dev.ReadIfPresent(scm.Data, b, ct)
	if !ok {
		clear(dst)
		return cycles + c.readCharge(c.dev.Config().ReadCycles), nil
	}
	ctrContent, cc, err := c.FetchVerified(now+cycles, c.geo.Levels, counters.CounterIndex(b))
	cycles += cc
	if err != nil {
		return cycles, err
	}
	// Decoded now: the HMAC fetch may evict the counter line.
	ctr := counters.Decode(ctrContent)
	cycles += c.readCharge(dataCycles)
	hmacBlk, hc := c.fetchHMAC(now+cycles, b/hmacSlotsPerBlock)
	cycles += hc + c.cfg.HashCycles
	c.st.VerifyHashes.Inc()
	return cycles, c.openData(b, &ctr, hmacBlk, ct, dst)
}

// openData is the tail of every verified read: it checks ciphertext ct
// of block b against its MAC in hmacBlk under the block's counters,
// then decrypts it into dst.
func (c *Controller) openData(b uint64, ctr *counters.Block, hmacBlk, ct, dst []byte) error {
	major, minor := ctr.Get(counters.MinorSlot(b))
	if bmt.ChildDigest(hmacBlk, int(b%hmacSlotsPerBlock)) != c.eng.MAC(dataAddr(b), major, minor, ct) {
		return &IntegrityError{What: "data HMAC mismatch", Addr: dataAddr(b)}
	}
	c.eng.Decrypt(dataAddr(b), major, minor, dst, ct)
	return nil
}

// WriteBlock performs an encrypted, integrity-maintained write of
// plaintext src to data block b, applying the persistence policy to
// every metadata update. Returns the latency in cycles. It is the
// epoch of one write: the op is staged in controller-owned scratch and
// committed by commitEpoch, the controller's only write path.
func (c *Controller) WriteBlock(now uint64, b uint64, src []byte) (uint64, error) {
	c.enter()
	defer c.exit()
	if len(src) != scm.BlockSize {
		panic("mee: WriteBlock buffer must be BlockSize bytes")
	}
	if b >= c.dev.DataBlocks() {
		return 0, fmt.Errorf("mee: write of block %d beyond capacity (%d blocks)", b, c.dev.DataBlocks())
	}
	op := &c.plan.one[0]
	op.block = b
	copy(op.value[:], src)
	res, err := c.commitEpoch(now, c.plan.one[:], false)
	c.session.observe(err)
	return res.Cycles, err
}

// reencryptPage handles a minor-counter overflow: every initialized
// block in the page is re-encrypted under the new major counter and
// its MAC refreshed. skip identifies the block being overwritten by
// the caller (its old content need not survive, but it is refreshed
// anyway for uniformity).
func (c *Controller) reencryptPage(now uint64, ctrIdx uint64, old, fresh *counters.Block, skip uint64) (uint64, error) {
	var cycles uint64
	first := counters.PageFirstBlock(ctrIdx)
	var ct, pt [scm.BlockSize]byte
	for j := uint64(0); j < counters.BlocksPerPage; j++ {
		db := first + j
		rc, ok := c.dev.ReadIfPresent(scm.Data, db, ct[:])
		if !ok {
			continue
		}
		cycles += c.readCharge(rc)
		oldMajor, oldMinor := old.Get(int(j))
		if db != skip {
			// Verify with the old MAC before trusting the ciphertext.
			hmacBlk, hc := c.fetchHMAC(now+cycles, db/hmacSlotsPerBlock)
			cycles += hc
			stored := bmt.ChildDigest(hmacBlk, int(db%hmacSlotsPerBlock))
			if stored != c.eng.MAC(dataAddr(db), oldMajor, oldMinor, ct[:]) {
				return cycles, &IntegrityError{What: "re-encryption HMAC mismatch", Addr: dataAddr(db)}
			}
			cycles += c.cfg.HashCycles
			c.st.VerifyHashes.Inc()
		}
		c.eng.Decrypt(dataAddr(db), oldMajor, oldMinor, pt[:], ct[:])
		newMajor, newMinor := fresh.Get(int(j))
		c.eng.Encrypt(dataAddr(db), newMajor, newMinor, ct[:], pt[:])
		cycles += c.PostDeviceWrite(now+cycles, scm.Data, db, ct[:], false)
		mac := c.eng.MAC(dataAddr(db), newMajor, newMinor, ct[:])
		cycles += c.cfg.HashCycles
		c.st.VerifyHashes.Inc()
		hmacBlk, hc := c.fetchHMAC(now+cycles, db/hmacSlotsPerBlock)
		cycles += hc
		bmt.SetChildDigest(hmacBlk, int(db%hmacSlotsPerBlock), mac)
		hkey := HMACKey(db / hmacSlotsPerBlock)
		c.markDirty(hkey)
		if c.policy.WriteThroughHMAC(db / hmacSlotsPerBlock) {
			cycles += c.PersistMeta(now+cycles, hkey, false)
		}
	}
	return cycles, nil
}

// --- lifecycle --------------------------------------------------------

// Flush writes back every dirty metadata block (a clean shutdown).
func (c *Controller) Flush(now uint64) uint64 {
	c.enter()
	defer c.exit()
	return c.flush(now)
}

// flush is Flush without the concurrency guard, for callers already
// inside a guarded operation (battery's PreCrash runs inside Crash,
// SaveCheckpoint flushes before serializing).
func (c *Controller) flush(now uint64) uint64 {
	var cycles uint64
	for _, k := range c.meta.FlushDirty(nil) {
		key := MetaKey(k)
		region, idx := key.region()
		c.dev.Write(region, idx, c.cached(key))
		cycles += c.postCharge(now+cycles, wqKey(region, idx))
		c.st.PostedWrites.Inc()
	}
	return cycles
}

// PreCrasher is an optional policy extension: PreCrash runs at power
// failure *before* volatile state is lost, with whatever energy
// budget the platform's battery/capacitors provide. Battery-backed
// designs (the paper's §7.2 related work) flush dirty metadata here.
type PreCrasher interface {
	PreCrash(now uint64) uint64
}

// Crash models a power failure: all volatile state (metadata cache
// and its contents, write-queue timing, policy volatile state) is
// lost; the device and NV registers survive. A PreCrasher policy gets
// its residual-energy window first.
func (c *Controller) Crash() {
	c.enter()
	defer c.exit()
	if c.trace != nil {
		c.trace.Emit(telemetry.Event{
			Kind: telemetry.EvCrash,
			Note: "power failure: volatile state lost",
		})
	}
	if c.session != nil {
		// Power failure mid-recovery: the session dies with the other
		// volatile state; the next Recover/BeginRecovery starts over.
		c.session.abort()
		c.session = nil
	}
	if p, ok := c.policy.(PreCrasher); ok {
		p.PreCrash(0)
	}
	c.meta.InvalidateAll()
	c.wq.reset()
	c.policy.Crash()
}

// VerifyAll reads back and authenticates every initialized data block;
// it is the whole-memory integrity check used by attack and recovery
// tests. Returns the first violation encountered.
func (c *Controller) VerifyAll(now uint64) error {
	c.enter()
	defer c.exit()
	if c.session != nil {
		// Provisional counter fetches would make this check vacuous
		// for the tree; finish the recovery session first.
		return ErrRecovering
	}
	var buf [scm.BlockSize]byte
	var err error
	c.dev.PeekScan(scm.Data, 0, c.dev.DataBlocks(), func(b uint64, _ []byte) bool {
		_, err = c.readBlock(now, b, buf[:])
		return err == nil
	})
	return err
}

// DirtyTreeKeys returns the tree-node keys currently dirty in the
// metadata cache, optionally filtered; AMNT's subtree movement scan.
func (c *Controller) DirtyTreeKeys(filter func(level int, idx uint64) bool) []MetaKey {
	raw := c.meta.DirtyKeys(func(k uint64) bool {
		key := MetaKey(k)
		if !key.IsTree() {
			return false
		}
		if filter == nil {
			return true
		}
		level, idx := key.TreeNode(c.geo)
		return filter(level, idx)
	})
	out := make([]MetaKey, len(raw))
	for i, k := range raw {
		out[i] = MetaKey(k)
	}
	return out
}

// DropCached removes a metadata block from the cache without writing
// it back. AMNT uses this when a node is promoted into the NV subtree
// register, which becomes its single source of truth.
func (c *Controller) DropCached(key MetaKey) {
	c.meta.Invalidate(uint64(key))
}

// CachedContent returns the cached bytes of a metadata block, if
// resident. The slice aliases controller state.
func (c *Controller) CachedContent(key MetaKey) ([]byte, bool) {
	b := c.cached(key)
	return b, b != nil
}
