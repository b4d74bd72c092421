// Package store is the concurrent serving layer over the functional
// MEE stack: a key/value store sharded across N independent
// mee.Controller instances. Each shard's controller, device, and
// fault injector are owned by exactly one worker goroutine —
// respecting the Controller single-writer contract — and clients
// reach a shard only through a bounded request channel, so the store
// is safe for any number of concurrent callers while the protocol
// code underneath stays strictly sequential per shard.
//
// Keys are uint64, partitioned key % Partitions (shard) and
// key / Partitions (block within the shard). One key maps to one 64 B
// SCM block; the first byte encodes the value length, so values are
// limited to MaxValueLen bytes and an all-zero (never-written) block
// reads as ErrNotFound.
//
// Cluster mode: the partition space may be wider than the set of
// shards one store hosts (Config.Owned). A key whose partition is not
// hosted here fails with a NotOwnedError naming the partition, so the
// serving layer can answer with an ownership hint instead of a
// retryable 5xx. Partitions can be detached from one store and
// attached to another at runtime through the migration API
// (migrate.go): the shard table is copy-on-write behind an atomic
// pointer, so routing reads never take a lock.
//
// Admission control: every request either enters its shard's bounded
// queue immediately or fails with ErrOverloaded — the store never
// blocks a caller on a full queue. Callers bound their wait for the
// response with a context deadline; an abandoned request still
// completes in the worker (responses are buffered), it just has
// nobody listening.
//
// Persist ordering: a Put is acknowledged after the shard's
// controller has run the full secure-write path (counter bump, MAC,
// tree update, persist policy). In the functional model queued
// persists reach the device at issue time (ADR semantics), so an
// acknowledged Put survives a clean power cycle under every
// crash-consistent protocol; the chaos path (chaos.go) explores the
// weaker model where the in-flight persist window can be torn,
// dropped, or reordered.
package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amnt/internal/bmt"
	"amnt/internal/faults"
	"amnt/internal/mee"
	"amnt/internal/scm"
	"amnt/internal/stats"
	"amnt/internal/telemetry/span"
)

// MaxValueLen is the largest value a single key can hold: one SCM
// block minus the length byte.
const MaxValueLen = scm.BlockSize - 1

// Sentinel errors returned by the Store API.
var (
	// ErrOverloaded: the shard's bounded queue is full. Degradation
	// is explicit — callers retry or shed load; the store never
	// queues unboundedly.
	ErrOverloaded = errors.New("store: shard queue full")
	// ErrNotFound: the key has never been written.
	ErrNotFound = errors.New("store: key not found")
	// ErrClosed: the store is shut down.
	ErrClosed = errors.New("store: closed")
	// ErrValueTooLarge: the value exceeds MaxValueLen.
	ErrValueTooLarge = fmt.Errorf("store: value exceeds %d bytes", MaxValueLen)
	// ErrOutOfRange: the key maps past the shard's capacity.
	ErrOutOfRange = errors.New("store: key out of range")
	// ErrShardFailed: the shard's protocol broke its recovery
	// contract (chaos violation); it is quarantined and nacks
	// requests until the heal loop restores it.
	ErrShardFailed = errors.New("store: shard failed")
	// ErrRecovering: the shard is rebuilding its integrity tree and
	// this request cannot be served yet. Degraded-capable shards keep
	// serving through a rebuild, so this surfaces only inside a
	// blocking recovery (a protocol without online support, a chaos
	// run), or when a request needs metadata that is genuinely not yet
	// reconstructible. Retryable.
	ErrRecovering = errors.New("store: shard recovering")
	// ErrNotOwned: the key's partition is not hosted by this store.
	// Routing-layer callers match NotOwnedError for the partition id.
	ErrNotOwned = errors.New("store: partition not owned")
	// ErrFenced: the partition is write-fenced for the final hand-off
	// step of a live migration. Reads still serve; writes must retry
	// (the fence lasts one delta-replay round, typically
	// milliseconds) and land on the new owner.
	ErrFenced = errors.New("store: partition write-fenced for migration")
)

// NotOwnedError reports a request routed to a store that does not
// host the key's partition. It unwraps to ErrNotOwned.
type NotOwnedError struct {
	Partition int
}

func (e *NotOwnedError) Error() string {
	return fmt.Sprintf("store: partition %d not owned", e.Partition)
}

// Is makes errors.Is(err, ErrNotOwned) true for NotOwnedError.
func (e *NotOwnedError) Is(target error) bool { return target == ErrNotOwned }

// shardState is the shard's one serving-state word, published for
// lock-free reads by admit and metric scrapes. Only the worker
// writes it (and Open, before the worker starts).
type shardState int32

const (
	// stateServing: normal operation.
	stateServing shardState = iota
	// stateRecoveringOnline: a recovery session is open; the tree is
	// rebuilding between request waves and degraded traffic is
	// admitted.
	stateRecoveringOnline
	// stateRecoveringBlocking: the worker is inside a blocking
	// recovery (a plan that may not serve, a chaos run); requests nack
	// ErrRecovering so callers back off instead of piling into the
	// queue.
	stateRecoveringBlocking
	// stateQuarantined: the recovery contract was violated; the shard
	// nacks everything while the heal loop retries.
	stateQuarantined
)

// health is the external vocabulary (/v1/health, /v1/store/stats,
// the health gauge), which does not tell the two recovering states
// apart.
var health = [...]struct {
	name  string
	gauge float64
}{
	stateServing:            {"serving", 0},
	stateRecoveringOnline:   {"recovering", 1},
	stateRecoveringBlocking: {"recovering", 1},
	stateQuarantined:        {"quarantined", 2},
}

func (st shardState) String() string { return health[st].name }

// Config sizes the store.
type Config struct {
	// Shards is the number of independent controllers. Default 4.
	// When Partitions/Owned are unset this is also the partition
	// count, preserving the single-node key layout.
	Shards int
	// Partitions is the global partition count keys are hashed over
	// (key % Partitions). In cluster mode every node and every
	// client must agree on it — it fixes the key→partition layout
	// independent of which node hosts which partition. 0 defaults to
	// Shards.
	Partitions int
	// Owned lists the partition ids this store hosts, each backed by
	// its own controller. nil means all partitions (the single-node
	// layout); an explicit empty slice opens a store with no shards,
	// valid for a node that will receive partitions by migration.
	Owned []int
	// ShardMemBytes is each shard's SCM data capacity. Default 1 MiB.
	ShardMemBytes uint64
	// Protocol is the persistence policy name (mee registry).
	// Default "leaf".
	Protocol string
	// PolicyOptions parameterizes the protocol (subtree level etc.).
	PolicyOptions mee.PolicyOptions
	// MEE configures each shard's controller; zero fields take
	// mee.DefaultConfig values.
	MEE mee.Config
	// QueueDepth bounds each shard's request queue. Default 64.
	QueueDepth int
	// BatchMax is the most requests a worker drains per wakeup, and
	// the most staged writes one group-commit epoch holds before the
	// worker commits it. One request is never split across epochs, so
	// a single oversized batch request may exceed the cap. Default 16.
	BatchMax int
	// ReadConcurrency, when positive, serves gets on healthy shards
	// through a per-shard pool of at most this many concurrent
	// verified readers (mee.ReadBlockConcurrent on the caller's
	// goroutine), bypassing the write queue. Recovering, quarantined,
	// and detached shards, policies without pure read hooks, and
	// snapshot conflicts all fall back to the serialized queue path,
	// whose degradation semantics are unchanged. 0 (the default)
	// serializes every get through the owner goroutine.
	ReadConcurrency int
	// CheckpointDir, when set, is where Checkpoint persists shard
	// images and where Open looks for them; Close writes a final
	// checkpoint there. Checkpoint files are keyed by partition id,
	// so a cluster sharing one directory can hand partitions between
	// nodes through it (Adopt).
	CheckpointDir string
	// RecoveryChunk is how many BMT leaves an online recovery rebuilds
	// per idle worker wakeup. Smaller chunks bound the latency a
	// degraded request can queue behind; larger chunks finish the
	// rebuild sooner. Default 256.
	RecoveryChunk int
	// HealBackoff is the delay before a quarantined shard's first
	// heal attempt; each failed attempt doubles it up to
	// HealBackoffMax. Default 100ms.
	HealBackoff time.Duration
	// HealBackoffMax caps the heal backoff. Default 5s.
	HealBackoffMax time.Duration
	// HealMaxAttempts bounds heal attempts per quarantine episode.
	// 0 defaults to 8; negative disables healing entirely (a failed
	// shard stays down, the pre-heal behavior).
	HealMaxAttempts int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Partitions <= 0 {
		c.Partitions = c.Shards
	}
	if c.Owned == nil {
		c.Owned = make([]int, c.Partitions)
		for i := range c.Owned {
			c.Owned[i] = i
		}
	}
	if c.ShardMemBytes == 0 {
		c.ShardMemBytes = 1 << 20
	}
	if c.Protocol == "" {
		c.Protocol = "leaf"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.RecoveryChunk <= 0 {
		c.RecoveryChunk = 256
	}
	if c.HealBackoff <= 0 {
		c.HealBackoff = 100 * time.Millisecond
	}
	if c.HealBackoffMax <= 0 {
		c.HealBackoffMax = 5 * time.Second
	}
	if c.HealMaxAttempts == 0 {
		c.HealMaxAttempts = 8
	}
	return c
}

type opKind int

const (
	opGet opKind = iota
	opPut
	// Everything past opPut is a control op: it observes whole-shard
	// state, so the worker commits the open epoch and completes any
	// in-flight rebuild before running it.
	opFlush
	opCheckpoint
	opRecover
	opChaos
	opQuarantine
	opMigrateBegin
	opMigrateFence
	opMigrateAbort
)

// kvPair is one key's share of a get or put, already resolved to its
// shard-local block. A get leaves value nil.
type kvPair struct {
	block uint64
	value []byte
}

// request is one shard's share of a client call. Gets and puts carry
// the same shape — a slice of entries — and Store.Get / Store.Put are
// its 1-entry case.
type request struct {
	op     opKind
	ctx    context.Context // caller's context; expired requests are nacked, not served
	sp     *span.Span      // latency-attribution span (nil = untraced)
	kvs    []kvPair        // get blocks / put payload, owned by the request
	chaos  *ChaosSpec
	migBuf *bytes.Buffer // opMigrateBegin: checkpoint image sink
	resp   chan response // buffered(1), made by submit: the worker's send never blocks
}

// response answers one request: err is a whole-request failure (nack,
// control-op error); otherwise errs (and, for gets, values) are
// parallel to request.kvs.
type response struct {
	values [][]byte
	errs   []error
	chaos  *ChaosResult
	err    error
}

// shard bundles everything one worker goroutine owns. Its id is the
// global partition id it hosts, not a dense local index.
type shard struct {
	id       int // partition id
	dev      *scm.Device
	ctrl     *mee.Controller
	inj      *faults.Injector
	ch       chan request
	done     chan struct{}
	blocks   uint64 // data blocks this shard can hold
	now      uint64 // simulated cycle clock, worker-owned
	batchMax int
	ckpt     string        // checkpoint path, "" = none
	prog     *bmt.Progress // live recovery rebuild watermark
	closeErr error         // final flush/checkpoint error, read after done
	m        shardMetrics

	// readSem, when non-nil, bounds the concurrent verified readers
	// serving gets off this shard's read view from caller goroutines
	// (see readpath.go). Nil = every get goes through the queue.
	readSem chan struct{}

	state atomic.Int32 // shardState; see load/setState/admit

	// Migration state. stopped marks a shard detached from the table
	// (set under the store write lock before its channel closes, so
	// submit can never send to it). fenced nacks writes during the
	// hand-off window; noFinalCkpt suppresses the shutdown checkpoint
	// of a detached shard so it cannot clobber the new owner's image.
	stopped     atomic.Bool
	fenced      atomic.Bool
	noFinalCkpt atomic.Bool

	// Write-delta journal, live while an outbound migration copies
	// this shard. The worker appends an entry at every put ack point
	// under migMu; MigrateDelta drains from another goroutine.
	// migActive mirrors migOn so the common no-migration put path
	// pays one atomic load, not a mutex.
	migActive   atomic.Bool
	migMu       sync.Mutex
	migOn       bool
	migLog      []DeltaOp
	migOverflow bool

	// Online-recovery session, worker-owned: the rebuild advances
	// recChunk leaves at a time whenever the queue is idle.
	session  *mee.RecoverySession
	recChunk int

	// Quarantine heal loop, worker-owned.
	healBackoff    time.Duration
	healBackoffMax time.Duration
	healMax        int
	healWait       time.Duration // current backoff
	healAt         time.Time     // next attempt due
	healTried      int           // attempts this episode

	// Epoch histograms, worker-written; readers clone under histMu.
	histMu      sync.Mutex
	epochSizes  *stats.Histogram // staged writes per committed epoch
	epochCycles *stats.Histogram // commit latency, 256-cycle buckets
}

// shardTable is the immutable partition→shard map. Mutations
// (migration attach/detach) build a new table under the store write
// lock and swap the pointer, so shardFor never locks.
type shardTable struct {
	parts map[int]*shard
	list  []*shard // sorted by partition id, for stable iteration
}

func newShardTable(shards []*shard) *shardTable {
	t := &shardTable{parts: make(map[int]*shard, len(shards))}
	for _, sh := range shards {
		t.parts[sh.id] = sh
	}
	t.list = append(t.list, shards...)
	sort.Slice(t.list, func(i, j int) bool { return t.list[i].id < t.list[j].id })
	return t
}

// with returns a copy of the table that also maps sh's partition.
func (t *shardTable) with(sh *shard) *shardTable {
	next := make([]*shard, 0, len(t.list)+1)
	next = append(next, t.list...)
	next = append(next, sh)
	return newShardTable(next)
}

// without returns a copy of the table minus one partition.
func (t *shardTable) without(part int) *shardTable {
	next := make([]*shard, 0, len(t.list))
	for _, sh := range t.list {
		if sh.id != part {
			next = append(next, sh)
		}
	}
	return newShardTable(next)
}

// Store is the concurrent front-end. All methods are safe for
// concurrent use.
type Store struct {
	cfg Config
	tab atomic.Pointer[shardTable]

	mu      sync.RWMutex // guards closed + table mutations vs. in-flight enqueues
	closed  bool
	staging map[int]*shard // inbound migrations not yet serving
}

// table returns the current partition→shard map, lock-free.
func (s *Store) table() *shardTable { return s.tab.Load() }

// Open builds the store: one device + controller + injector per
// owned partition. When cfg.CheckpointDir holds a checkpoint for a
// partition, the shard boots from it (load, then run the protocol's
// recovery — the reboot path); otherwise it starts empty. Workers
// take ownership of their shard when their goroutine starts.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	seen := make(map[int]bool, len(cfg.Owned))
	for _, p := range cfg.Owned {
		if p < 0 || p >= cfg.Partitions {
			return nil, fmt.Errorf("store: owned partition %d out of range [0,%d)", p, cfg.Partitions)
		}
		if seen[p] {
			return nil, fmt.Errorf("store: partition %d owned twice", p)
		}
		seen[p] = true
	}
	s := &Store{cfg: cfg, staging: make(map[int]*shard)}
	shards := make([]*shard, 0, len(cfg.Owned))
	for _, p := range cfg.Owned {
		sh, err := s.newShard(p)
		if err != nil {
			return nil, err
		}
		// The reboot path: an online plan comes up recovering+degraded
		// and rebuilds in the background, so time-to-first-request is
		// independent of the shard's leaf count.
		img, err := sh.openCheckpoint()
		if img != nil {
			err = sh.restart(img, false)
			img.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("store: shard %d: %w", p, err)
		}
		shards = append(shards, sh)
	}
	s.tab.Store(newShardTable(shards))
	for _, sh := range shards {
		go sh.run()
	}
	return s, nil
}

// newShard builds one partition's controller stack, empty and serving;
// a shard with an image to load restarts from it.
func (s *Store) newShard(part int) (*shard, error) {
	cfg := s.cfg
	policy, err := mee.NewPolicy(cfg.Protocol, cfg.PolicyOptions)
	if err != nil {
		return nil, err
	}
	dev := scm.New(scm.Config{CapacityBytes: cfg.ShardMemBytes})
	ctrl := mee.New(dev, cfg.MEE, policy)
	sh := &shard{
		id:             part,
		dev:            dev,
		ctrl:           ctrl,
		ch:             make(chan request, cfg.QueueDepth),
		done:           make(chan struct{}),
		blocks:         cfg.ShardMemBytes / scm.BlockSize,
		batchMax:       cfg.BatchMax,
		epochSizes:     stats.NewHistogram(),
		epochCycles:    stats.NewHistogram(),
		prog:           &bmt.Progress{},
		recChunk:       cfg.RecoveryChunk,
		healBackoff:    cfg.HealBackoff,
		healBackoffMax: cfg.HealBackoffMax,
		healMax:        cfg.HealMaxAttempts,
	}
	if cfg.ReadConcurrency > 0 && ctrl.ConcurrentReadsSupported() {
		sh.readSem = make(chan struct{}, cfg.ReadConcurrency)
	}
	ctrl.SetRecoveryProgress(sh.prog)
	if cfg.CheckpointDir != "" {
		sh.ckpt = filepath.Join(cfg.CheckpointDir, fmt.Sprintf("shard-%03d.ckpt", part))
	}
	sh.rejoin()
	return sh, nil
}

// openCheckpoint opens the shard's checkpoint image; nil, nil when
// there is none.
func (sh *shard) openCheckpoint() (io.ReadCloser, error) {
	if sh.ckpt == "" {
		return nil, nil
	}
	f, err := os.Open(sh.ckpt)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			err = nil
		}
		return nil, err
	}
	return f, nil
}

// Shards returns the number of partitions this store currently hosts.
func (s *Store) Shards() int { return len(s.table().list) }

// Partitions returns the global partition count keys are hashed over.
func (s *Store) Partitions() int { return s.cfg.Partitions }

// Owned returns the sorted partition ids this store currently hosts.
func (s *Store) Owned() []int {
	t := s.table()
	out := make([]int, len(t.list))
	for i, sh := range t.list {
		out[i] = sh.id
	}
	return out
}

// shardFor maps a key to its hosted shard and block, or a
// NotOwnedError naming the partition a different node hosts.
func (s *Store) shardFor(key uint64) (*shard, uint64, error) {
	p := int(key % uint64(s.cfg.Partitions))
	sh := s.table().parts[p]
	if sh == nil {
		return nil, 0, &NotOwnedError{Partition: p}
	}
	return sh, key / uint64(s.cfg.Partitions), nil
}

// lookup resolves a partition id to its hosted shard.
func (s *Store) lookup(id int) (*shard, error) {
	if id < 0 || id >= s.cfg.Partitions {
		return nil, fmt.Errorf("store: no shard %d", id)
	}
	sh := s.table().parts[id]
	if sh == nil {
		return nil, &NotOwnedError{Partition: id}
	}
	return sh, nil
}

// load reads the shard's state word.
func (sh *shard) load() shardState { return shardState(sh.state.Load()) }

// setState publishes a state transition. Worker-only.
func (sh *shard) setState(st shardState) { sh.state.Store(int32(st)) }

// admit is the shard's one admission decision, consulted by submit
// before a request may queue, by the worker again at drain time (the
// state, the fence or the table may have changed while the request
// waited), and by the reader pool. nil means serve it.
func (sh *shard) admit(write bool) error {
	switch sh.load() {
	case stateQuarantined:
		return ErrShardFailed
	case stateRecoveringBlocking:
		sh.m[cRecoveringNacks].Add(1)
		return ErrRecovering
	}
	if write && sh.fenced.Load() {
		sh.m[cFencedNacks].Add(1)
		return ErrFenced
	}
	if sh.stopped.Load() {
		return &NotOwnedError{Partition: sh.id}
	}
	return nil
}

// control runs one control op on partition id's worker.
func (s *Store) control(ctx context.Context, id int, req request) error {
	sh, err := s.lookup(id)
	if err != nil {
		return err
	}
	_, err = s.submit(ctx, sh, req)
	return err
}

// submit enqueues req on sh, failing fast with ErrOverloaded on a
// full queue, then waits for the response or ctx. The closed and
// admission checks and the send share the read lock so Close and
// MigrateDetach (which hold the write lock while closing channels)
// can never race a send onto a closed channel.
func (s *Store) submit(ctx context.Context, sh *shard, req request) (response, error) {
	req.ctx, req.resp = ctx, make(chan response, 1)
	if req.sp == nil {
		req.sp = span.FromContext(ctx)
	}
	req.sp.SetShard(sh.id)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return response{}, ErrClosed
	}
	if err := sh.admit(req.op == opPut); err != nil {
		s.mu.RUnlock()
		return response{}, err
	}
	select {
	case sh.ch <- req:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		sh.m[cOverloads].Add(1)
		return response{}, ErrOverloaded
	}
	select {
	case resp := <-req.resp:
		return resp, resp.err
	case <-ctx.Done():
		// The worker still serves the request; the buffered response
		// channel absorbs its send.
		return response{}, ctx.Err()
	}
}

// Get returns the value stored at key.
func (s *Store) Get(ctx context.Context, key uint64) ([]byte, error) {
	sh, block, err := s.shardFor(key)
	if err != nil {
		return nil, err
	}
	if block >= sh.blocks {
		return nil, ErrOutOfRange
	}
	var v [1][]byte
	var e [1]error
	s.readLeg(ctx, sh, []kvPair{{block: block}}, span.FromContext(ctx), v[:], e[:])
	return v[0], e[0]
}

// Put stores value (at most MaxValueLen bytes) at key.
func (s *Store) Put(ctx context.Context, key uint64, value []byte) error {
	if len(value) > MaxValueLen {
		return ErrValueTooLarge
	}
	sh, block, err := s.shardFor(key)
	if err != nil {
		return err
	}
	if block >= sh.blocks {
		return ErrOutOfRange
	}
	v := make([]byte, len(value)) // callers may reuse their buffer
	copy(v, value)
	resp, err := s.submit(ctx, sh, request{op: opPut, kvs: []kvPair{{block, v}}})
	if err != nil {
		return err
	}
	return resp.errs[0]
}

// broadcast sends one control op to every hosted shard concurrently
// and waits for all responses (or ctx). The lowest-numbered failing
// partition's error wins.
func (s *Store) broadcast(ctx context.Context, op opKind) error {
	shards := s.table().list
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			_, errs[i] = s.submit(ctx, sh, request{op: op})
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", shards[i].id, err)
		}
	}
	return nil
}

// Flush forces every shard's dirty metadata to SCM (a global persist
// barrier).
func (s *Store) Flush(ctx context.Context) error { return s.broadcast(ctx, opFlush) }

// Checkpoint persists every shard's durable image to
// Config.CheckpointDir. Each shard flushes first, so the checkpoint
// is self-consistent.
func (s *Store) Checkpoint(ctx context.Context) error {
	if s.cfg.CheckpointDir == "" {
		return errors.New("store: no checkpoint dir configured")
	}
	return s.broadcast(ctx, opCheckpoint)
}

// Recover power-cycles every shard in place: crash (volatile state
// lost), run the protocol's recovery, and verify the whole shard. A
// crash-consistent protocol must come back serving every
// acknowledged write.
func (s *Store) Recover(ctx context.Context) error { return s.broadcast(ctx, opRecover) }

// RecoverShard power-cycles a single shard.
func (s *Store) RecoverShard(ctx context.Context, id int) error {
	return s.control(ctx, id, request{op: opRecover})
}

// Quarantine deliberately takes one shard out of service — a
// chaos-engineering control that exercises the exact quarantine/heal
// path a real recovery violation takes. The shard nacks requests with
// ErrShardFailed until the supervised heal loop restores it.
func (s *Store) Quarantine(ctx context.Context, id int) error {
	return s.control(ctx, id, request{op: opQuarantine})
}

// Close drains every shard's queue, flushes, writes a final
// checkpoint (when a checkpoint dir is configured), and stops the
// workers. ctx bounds the wait. Idempotent.
func (s *Store) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	shards := s.table().list
	for _, sh := range shards {
		close(sh.ch)
	}
	s.staging = nil // staged shards have no worker; just drop them
	s.mu.Unlock()
	var firstErr error
	for _, sh := range shards {
		select {
		case <-sh.done:
			if sh.closeErr != nil && firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", sh.id, sh.closeErr)
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return firstErr
}

// --- worker -----------------------------------------------------------

// run is the shard worker: it owns the controller. In normal
// operation requests are drained in batches — one blocking receive,
// then opportunistic ones — so bursty load amortizes both the
// per-wakeup bookkeeping and the group-commit climb.
//
// While an online recovery session is active the worker instead
// interleaves rebuild chunks with request service: traffic takes
// priority (a chunk only runs when the queue is idle), so a degraded
// request queues behind at most one RecoveryChunk of rebuild work.
// While quarantined the worker parks on the heal timer and nacks
// whatever slips into the queue.
func (sh *shard) run() {
	defer close(sh.done)
	batch := make([]request, 0, sh.batchMax)
	open := true
	for open {
		if sh.session != nil {
			select {
			case req, ok := <-sh.ch:
				if !ok {
					open = false
					continue
				}
				batch, open = sh.serveWave(batch, req)
			default:
				if sh.session.Step(sh.recChunk) {
					sh.finishRecovery()
				}
				sh.publish()
				// Yield between chunks: on a starved scheduler (one
				// CPU, many shards) a spinning rebuild would otherwise
				// run to completion before a waiting client ever gets
				// to enqueue, defeating degraded serving.
				runtime.Gosched()
			}
			continue
		}
		if sh.load() == stateQuarantined {
			open = sh.quarantineTick()
			continue
		}
		req, ok := <-sh.ch
		if !ok {
			break
		}
		batch, open = sh.serveWave(batch, req)
	}
	// Shutdown: queue fully drained above. Complete any in-flight
	// rebuild so the final flush and checkpoint see a whole, audited
	// tree, then leave a durable image. A detached (migrated-away)
	// shard skips the checkpoint: the partition's image now belongs
	// to its new owner.
	sh.barrier()
	if sh.load() != stateQuarantined {
		sh.now += sh.ctrl.Flush(sh.now)
		if sh.ckpt != "" && !sh.noFinalCkpt.Load() {
			sh.closeErr = sh.checkpoint()
		}
	}
	sh.publish()
}

// serveWave drains a batch behind req and serves it. Returns the
// (possibly regrown) batch buffer and false once the request channel
// is closed.
func (sh *shard) serveWave(batch []request, req request) ([]request, bool) {
	// Dequeue stamps close the queue_wait phase per request.
	req.sp.Mark(span.QueueWait)
	batch = append(batch[:0], req)
	open := true
fill:
	for len(batch) < sh.batchMax {
		select {
		case r, ok := <-sh.ch:
			if !ok {
				open = false
				break fill
			}
			r.sp.Mark(span.QueueWait)
			batch = append(batch, r)
		default:
			break fill
		}
	}
	sh.serveBatch(batch)
	sh.m[cBatches].Add(1)
	sh.m[cBatchItems].Add(uint64(len(batch)))
	sh.publish()
	return batch, open
}

// stagedAck is one put request whose acknowledgment is deferred until
// its epoch commits: the durability contract is that a response is
// sent only once the write is durable.
type stagedAck struct {
	req  request
	errs []error // per-entry results, parallel to req.kvs
}

// serveBatch executes one drained batch. Every put is staged into a
// group-commit epoch and acknowledged after it commits; an open
// recovery session is something the commit consults (mee.commitEpoch),
// not a reason to route around it. Reads are served inline against the
// pre-epoch state (legal — the staged writes are unacknowledged, so a
// concurrent reader may be ordered before them); control operations
// (flush, checkpoint, power cycle, chaos, quarantine, migration)
// commit the open epoch and complete any in-flight rebuild first, so
// they observe and persist exactly the acknowledged state.
//
// Admission is re-decided here, at drain time: a put queued before
// MigrateFence but drained after it must be nacked, not acknowledged
// against the stale source — FIFO order through the queue makes the
// fence a precise cut between journaled and refused writes — and a
// control op's barrier may itself have quarantined the shard.
func (sh *shard) serveBatch(batch []request) {
	var ep *mee.Epoch
	var acks []stagedAck
	commit := func() {
		sh.commitStaged(ep, acks)
		ep, acks = nil, nil
	}
	for _, r := range batch {
		if r.ctx != nil && r.ctx.Err() != nil {
			// The caller already gave up (deadline or cancel); never
			// report an abandoned request as having succeeded.
			r.resp <- response{err: r.ctx.Err()}
			continue
		}
		if r.op > opPut {
			commit()
			sh.barrier()
		}
		if err := sh.admit(r.op == opPut); err != nil {
			r.resp <- response{err: err}
			continue
		}
		if r.op != opPut {
			r.resp <- sh.serve(r)
			continue
		}
		if ep == nil {
			ep = sh.ctrl.BeginEpoch(sh.now)
		}
		acks = append(acks, sh.stage(ep, r))
		if ep.Len() >= sh.batchMax {
			commit()
		}
	}
	commit()
}

// stage buffers one put request into the open epoch.
func (sh *shard) stage(ep *mee.Epoch, r request) stagedAck {
	a := stagedAck{req: r, errs: make([]error, len(r.kvs))}
	sh.m[cPuts].Add(uint64(len(r.kvs)))
	var blk [scm.BlockSize]byte
	for i, kv := range r.kvs {
		packValue(&blk, kv.value)
		if err := ep.Put(kv.block, blk[:]); err != nil {
			sh.countErr(err)
			a.errs[i] = err
		}
	}
	return a
}

// commitStaged commits the open epoch and acknowledges every staged
// request. A failed commit may be half applied; the repair is to
// re-commit each staged write as its own 1-op epoch, so one poisoned
// write fails alone instead of nacking the whole batch.
func (sh *shard) commitStaged(ep *mee.Epoch, acks []stagedAck) {
	if ep == nil {
		return
	}
	// The staging wait ends here: everything since dequeue was epoch
	// residency (buffering, earlier batch items).
	for _, a := range acks {
		a.req.sp.Mark(span.EpochStage)
	}
	staged := ep.Len()
	res, err := ep.Commit()
	switch {
	case err != nil:
		sh.m[cEpochFallbacks].Add(1)
		sh.countErr(err)
		for _, a := range acks {
			for i, kv := range a.req.kvs {
				if a.errs[i] == nil {
					a.errs[i] = sh.commitOne(kv)
				}
			}
			a.req.sp.Mark(span.EpochFallback)
		}
	case staged > 0: // else every entry was rejected at staging
		sh.now += res.Cycles
		sh.m[cEpochs].Add(1)
		sh.m[cEpochOps].Add(uint64(staged))
		sh.histMu.Lock()
		sh.epochSizes.Observe(uint64(staged))
		sh.epochCycles.Observe(res.Cycles >> 8)
		sh.histMu.Unlock()
		for _, a := range acks {
			// Every staged write shares the commit's climb/persist wall
			// split (the commit IS their shared critical path); Reset
			// discards the near-identical raw interval so it is not
			// double counted.
			a.req.sp.Add(span.CommitClimb, res.ClimbNs)
			a.req.sp.Add(span.Persist, res.PersistNs)
			a.req.sp.Reset()
		}
	}
	for _, a := range acks {
		// The ack point: what is now durable goes into an outbound
		// migration's delta journal, then the answer goes out.
		sh.journal(a.req.kvs, a.errs)
		a.req.resp <- response{errs: a.errs}
	}
}

// commitOne commits one write as its own epoch.
func (sh *shard) commitOne(kv kvPair) error {
	var blk [scm.BlockSize]byte
	packValue(&blk, kv.value)
	ep := sh.ctrl.BeginEpoch(sh.now)
	err := ep.Put(kv.block, blk[:])
	if err == nil {
		var res mee.EpochResult
		res, err = ep.Commit()
		sh.now += res.Cycles
	}
	if err != nil {
		sh.countErr(err)
		return asStoreErr(err)
	}
	return nil
}

// packValue frames a value into its 64 B block image (length prefix +
// payload).
func packValue(blk *[scm.BlockSize]byte, value []byte) {
	blk[0] = byte(len(value) + 1)
	copy(blk[1:], value)
	for i := len(value) + 1; i < scm.BlockSize; i++ {
		blk[i] = 0
	}
}

// unpackValue unframes a block image packValue wrote; a block never
// written is ErrNotFound.
func unpackValue(blk *[scm.BlockSize]byte) ([]byte, error) {
	n := int(blk[0])
	if n == 0 {
		return nil, ErrNotFound
	}
	v := make([]byte, n-1)
	copy(v, blk[1:n])
	return v, nil
}

// getBlock runs the verified read path and unframes the value.
func (sh *shard) getBlock(block uint64) ([]byte, error) {
	var blk [scm.BlockSize]byte
	cycles, err := sh.ctrl.ReadBlock(sh.now, block, blk[:])
	sh.now += cycles
	if err != nil {
		sh.countErr(err)
		return nil, asStoreErr(err)
	}
	v, err := unpackValue(&blk)
	if err != nil {
		sh.m[cMisses].Add(1)
	}
	return v, err
}

// serve executes one admitted get or control request against the
// worker-owned controller. Puts never come here: they are staged.
func (sh *shard) serve(r request) response {
	switch r.op {
	case opGet:
		values := make([][]byte, len(r.kvs))
		errs := make([]error, len(r.kvs))
		sh.m[cGets].Add(uint64(len(r.kvs)))
		// In-batch wait since dequeue is staging-equivalent residency;
		// the verified read walk itself is the climb.
		r.sp.Mark(span.EpochStage)
		for i, kv := range r.kvs {
			values[i], errs[i] = sh.getBlock(kv.block)
		}
		r.sp.Mark(span.CommitClimb)
		return response{values: values, errs: errs}
	case opFlush:
		sh.now += sh.ctrl.Flush(sh.now)
		sh.m[cFlushes].Add(1)
		return response{}
	case opCheckpoint:
		if err := sh.checkpoint(); err != nil {
			return response{err: err}
		}
		sh.m[cCheckpoints].Add(1)
		return response{}
	case opRecover:
		return response{err: sh.powerCycle()}
	case opChaos:
		res := sh.runChaos(*r.chaos)
		return response{chaos: res, err: res.startErr}
	case opQuarantine:
		sh.fail()
		return response{}
	case opMigrateBegin:
		// The control-op barrier committed the open epoch and finished
		// any rebuild, so the image is exactly the acknowledged state.
		sh.now += sh.ctrl.Flush(sh.now)
		if err := sh.ctrl.SaveCheckpoint(r.migBuf); err != nil {
			return response{err: err}
		}
		sh.setJournal(true)
		sh.m[cMigrations].Add(1)
		return response{}
	case opMigrateFence:
		sh.fenced.Store(true)
		return response{}
	case opMigrateAbort:
		sh.fenced.Store(false)
		sh.setJournal(false)
		return response{}
	}
	return response{err: fmt.Errorf("store: unknown op %d", r.op)}
}

// powerCycle crashes the shard's controller and restarts it.
func (sh *shard) powerCycle() error {
	if err := sh.restart(nil, false); err != nil {
		return fmt.Errorf("%w: %v", ErrShardFailed, err)
	}
	return nil
}

// leave takes the shard out of serving before anything touches its
// controller: the state word moves to st (a quarantined shard stays
// quarantined), the injector stops journaling, and the readers already
// past readEligible are waited out.
func (sh *shard) leave(st shardState) {
	if sh.load() != stateQuarantined {
		sh.setState(st)
	}
	sh.inj.Detach()
	for range cap(sh.readSem) {
		sh.readSem <- struct{}{}
	}
	for range cap(sh.readSem) {
		<-sh.readSem
	}
}

// restart is the shard's one way back up: leave serving, replace the
// controller's volatile state — from img, a checkpoint image, or by a
// power failure when img is nil — and begin the protocol's recovery.
// An online plan's session goes to the worker, which steps it between
// request waves and resumes at Finish (its audit stands in for the
// whole-shard verify: bounded deferred detection). With block set, or
// a plan that may not serve (recovering-blocking: admission nacks),
// the recovery finishes here and VerifyAll checks the whole shard
// before it serves again. On failure the shard is quarantined (a heal
// attempt leaves it so).
func (sh *shard) restart(img io.Reader, block bool) error {
	st := stateRecoveringOnline
	if block || !sh.ctrl.Policy().RecoveryPlan().Online {
		st = stateRecoveringBlocking
	}
	sh.leave(st)
	var err error
	if img == nil {
		sh.ctrl.Crash()
	} else {
		err = sh.ctrl.LoadCheckpoint(img)
	}
	var sess *mee.RecoverySession
	if err == nil {
		sess, err = sh.ctrl.BeginRecovery(sh.now)
	}
	if sess != nil && !block {
		sh.session = sess
		return nil
	}
	if sess != nil {
		_, err = sess.Finish(sh.now)
	}
	if err == nil {
		if err = sh.ctrl.VerifyAll(sh.now); err != nil {
			err = fmt.Errorf("post-recovery verify: %w", err)
		}
	}
	if err != nil {
		if sh.load() != stateQuarantined {
			sh.fail()
		}
		return err
	}
	sh.resume()
	return nil
}

// resume returns a recovered shard to service.
func (sh *shard) resume() {
	sh.m[cRecoveries].Add(1)
	sh.rejoin()
}

// rejoin puts the shard in service with a fresh fault journal: the one
// place the state word becomes serving and the injector attaches.
func (sh *shard) rejoin() {
	sh.inj = faults.NewInjector(sh.ctrl)
	sh.inj.Attach()
	sh.setState(stateServing)
}

// barrier completes any in-flight online recovery synchronously so
// the next operation observes a whole, audited tree, and returns the
// session's report. Control operations and shutdown call it; a no-op
// outside a session.
func (sh *shard) barrier() mee.RecoveryReport {
	if sh.session == nil {
		return mee.RecoveryReport{}
	}
	for !sh.session.Step(sh.recChunk) {
	}
	return sh.finishRecovery()
}

// finishRecovery runs the session's audit + deferred climb, returns
// the shard to serving, and hands back the session's report. An audit
// failure means integrity was violated while the shard served degraded
// traffic — it quarantines and the heal loop takes over.
func (sh *shard) finishRecovery() mee.RecoveryReport {
	sess := sh.session
	sh.session = nil
	sh.m[cDegradedWrites].Add(sess.DegradedWrites())
	sh.m[cProvisionalLoads].Add(sess.ProvisionalFetches())
	rep, err := sess.Finish(sh.now)
	if err != nil {
		sh.countErr(err)
		sh.fail()
		return rep
	}
	// What was admitted during the audit waited in the queue and is
	// served off the audited tree.
	sh.resume()
	return rep
}

// quarantineTick parks the worker until the next heal attempt is due,
// nacking any request that was admitted before the quarantine. Returns
// false when the store is closing.
func (sh *shard) quarantineTick() bool {
	var due <-chan time.Time
	if sh.healMax >= 0 && sh.healTried < sh.healMax {
		t := time.NewTimer(time.Until(sh.healAt))
		defer t.Stop()
		due = t.C
	}
	select {
	case req, ok := <-sh.ch:
		if !ok {
			return false
		}
		req.sp.Mark(span.QueueWait)
		req.resp <- response{err: sh.admit(req.op == opPut)}
	case <-due:
		sh.healOnce()
	}
	return true
}

// healOnce runs one supervised blocking restart of the quarantined
// shard. The first attempt re-recovers in place — the violation may
// stem from volatile state a clean power cycle clears. Later attempts
// escalate to restoring the last good checkpoint first: acknowledged-
// but-uncheckpointed writes are lost, but the shard returns with a
// provably intact tree. Failures back off exponentially up to the cap.
func (sh *shard) healOnce() {
	sh.healTried++
	sh.m[cHealAttempts].Add(1)
	var img io.ReadCloser
	var err error
	if sh.healTried > 1 {
		img, err = sh.openCheckpoint()
	}
	if err == nil {
		err = sh.restart(img, true)
	}
	if img != nil {
		img.Close()
	}
	if err != nil {
		sh.countErr(err)
		sh.healWait = min(2*sh.healWait, sh.healBackoffMax)
		sh.healAt = time.Now().Add(sh.healWait)
	} else {
		sh.m[cHeals].Add(1)
	}
	sh.publish()
}

// checkpoint writes the shard's durable image atomically
// (temp + rename), so a crash mid-checkpoint leaves the previous
// image intact.
func (sh *shard) checkpoint() error {
	if err := os.MkdirAll(filepath.Dir(sh.ckpt), 0o755); err != nil {
		return err
	}
	tmp := sh.ckpt + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := sh.ctrl.SaveCheckpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, sh.ckpt)
}

// fail quarantines the shard and arms the heal loop. Worker-only.
func (sh *shard) fail() {
	sh.leave(stateQuarantined)
	sh.m[cFailures].Add(1)
	sh.healTried = 0
	sh.healWait = sh.healBackoff
	sh.healAt = time.Now().Add(sh.healWait)
}

func (sh *shard) countErr(err error) {
	var ie *mee.IntegrityError
	switch {
	case errors.As(err, &ie):
		sh.m[cIntegrityErrors].Add(1)
	case errors.Is(err, mee.ErrRecovering) || errors.Is(err, ErrRecovering):
		sh.m[cRecoveringNacks].Add(1)
	default:
		sh.m[cOtherErrors].Add(1)
	}
}

// asStoreErr maps controller-level recovery refusals onto the store's
// retryable sentinel so callers see one error vocabulary.
func asStoreErr(err error) error {
	if errors.Is(err, mee.ErrRecovering) {
		return fmt.Errorf("%w: %v", ErrRecovering, err)
	}
	return err
}
