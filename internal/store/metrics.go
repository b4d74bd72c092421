package store

import (
	"fmt"
	"sync/atomic"

	"amnt/internal/stats"
	"amnt/internal/telemetry"
)

// shardMetrics is the shard's externally visible state. The worker
// owns the controller, so telemetry must not read mee state directly
// (Registry.Sample and HTTP handlers run on other goroutines);
// instead the worker publishes snapshots into these atomics after
// every batch and readers see the last published value.
type shardMetrics struct {
	gets, puts, flushes, checkpoints, recoveries atomic.Uint64
	misses, integrityErrs, otherErrs, overloads  atomic.Uint64
	batches, batchItems, failures                atomic.Uint64

	// Degraded-serving and quarantine-heal accounting: requests
	// nacked because metadata was not yet reconstructible, heal
	// attempts started, and heals that restored service.
	recoveringNacks, healAttempts, heals atomic.Uint64
	// Cumulative work served under recovery sessions: writes whose
	// climb was deferred to the finish audit, and counter leaves
	// loaded provisionally (authenticated later by that audit).
	degradedWrites, provisionalLoads atomic.Uint64

	chaosRuns, chaosRecovered, chaosDetected atomic.Uint64
	chaosRepaired, chaosViolations           atomic.Uint64

	// Group-commit accounting: committed epochs, writes they carried,
	// and commits that degraded to per-op replay.
	epochs, epochOps, epochFallbacks atomic.Uint64

	// Migration accounting: outbound migrations begun on this shard,
	// and writes nacked during a hand-off fence.
	migrations, fencedNacks atomic.Uint64

	// Reader-pool accounting (written by caller goroutines, not the
	// worker): gets served off the concurrent read view, snapshot
	// retries on seq conflicts, and attempts abandoned to the queue.
	concurrentReads, readRetries, readFallbacks atomic.Uint64

	// Controller snapshot, published by the worker.
	cycles, dataReads, dataWrites, metaFetches atomic.Uint64
	postedWrites, stallCycles, mergedWrites    atomic.Uint64
}

// publish snapshots the worker-owned controller counters into the
// shared atomics. Worker-goroutine only.
func (sh *shard) publish() {
	st := sh.ctrl.Stats()
	m := &sh.m
	m.cycles.Store(sh.now)
	m.dataReads.Store(st.DataReads.Value())
	m.dataWrites.Store(st.DataWrites.Value())
	m.metaFetches.Store(st.MetaFetches.Value())
	m.postedWrites.Store(st.PostedWrites.Value())
	m.stallCycles.Store(st.StallCycles.Value())
	m.mergedWrites.Store(sh.ctrl.MergedWrites())
}

// metaFetches is the shard's metadata blocks fetched from the device:
// the worker's published count plus what the reader pool fetched off
// the read view, which no worker wakeup publishes.
func (sh *shard) metaFetches() uint64 {
	return sh.m.metaFetches.Load() + sh.ctrl.ViewMetaFetches()
}

// ShardSnapshot is one shard's published counters. Shard is the
// global partition id the shard hosts.
type ShardSnapshot struct {
	Shard int `json:"shard"`
	// Health is the serving state: "serving", "recovering" (tree
	// rebuild in flight; degraded traffic may still be admitted), or
	// "quarantined" (heal loop retrying).
	Health string `json:"health"`
	// Serving is whether the shard currently accepts requests — true
	// for both "serving" and degraded "recovering" shards.
	Serving bool `json:"serving"`
	// Fenced is whether the shard is write-fenced for a migration
	// hand-off (reads still serve).
	Fenced         bool    `json:"fenced,omitempty"`
	QueueLen       int     `json:"queue_len"`
	Gets           uint64  `json:"gets"`
	Puts           uint64  `json:"puts"`
	Misses         uint64  `json:"misses"`
	Flushes        uint64  `json:"flushes"`
	Checkpoints    uint64  `json:"checkpoints"`
	Recoveries     uint64  `json:"recoveries"`
	Failures       uint64  `json:"failures"`
	HealAttempts   uint64  `json:"heal_attempts"`
	Heals          uint64  `json:"heals"`
	RecoveringNack uint64  `json:"recovering_nacks"`
	DegradedWrites uint64  `json:"degraded_writes"`
	ProvisionalRds uint64  `json:"provisional_loads"`
	Overloads      uint64  `json:"overloads"`
	IntegrityErrs  uint64  `json:"integrity_errors"`
	OtherErrs      uint64  `json:"other_errors"`
	Batches        uint64  `json:"batches"`
	BatchItems     uint64  `json:"batch_items"`
	Epochs         uint64  `json:"epochs"`
	EpochOps       uint64  `json:"epoch_ops"`
	EpochFallback  uint64  `json:"epoch_fallbacks"`
	Migrations     uint64  `json:"migrations,omitempty"`
	FencedNacks    uint64  `json:"fenced_nacks,omitempty"`
	ConcurrentRds  uint64  `json:"concurrent_reads"`
	ReadRetries    uint64  `json:"read_retries"`
	ReadFallbacks  uint64  `json:"read_fallbacks"`
	ChaosRuns      uint64  `json:"chaos_runs"`
	RecoveryDone   uint64  `json:"recovery_leaves_done"`
	RecoveryTotal  uint64  `json:"recovery_leaves_total"`
	RecoveryWallMs float64 `json:"recovery_wall_ms"`
	Cycles         uint64  `json:"sim_cycles"`
	DataReads      uint64  `json:"data_reads"`
	DataWrites     uint64  `json:"data_writes"`
	MetaFetches    uint64  `json:"meta_fetches"`
	PostedWrites   uint64  `json:"posted_writes"`
	StallCycles    uint64  `json:"stall_cycles"`
	MergedWrites   uint64  `json:"merged_writes"`
}

// Snapshot is the whole store's published state.
type Snapshot struct {
	// Partitions is the global partition count; Shards holds only the
	// partitions this store hosts (cluster mode), keyed by id.
	Partitions int             `json:"partitions"`
	Shards     []ShardSnapshot `json:"shards"`
	// Staging lists partitions with an inbound migration attached but
	// not yet activated.
	Staging   []int  `json:"staging,omitempty"`
	Ops       uint64 `json:"ops"`
	Overloads uint64 `json:"overloads"`
}

// Stats returns the current published counters for every shard plus
// aggregates. Safe to call from any goroutine.
func (s *Store) Stats() Snapshot {
	shards := s.table().list
	out := Snapshot{
		Partitions: s.cfg.Partitions,
		Shards:     make([]ShardSnapshot, len(shards)),
		Overloads:  s.overloads.Load(),
	}
	if st := s.Staging(); len(st) > 0 {
		out.Staging = st
	}
	for i, sh := range shards {
		m := &sh.m
		state := sh.load()
		ss := ShardSnapshot{
			Shard:          sh.id,
			Health:         state.String(),
			Serving:        state != stateQuarantined,
			Fenced:         sh.fenced.Load(),
			QueueLen:       len(sh.ch),
			Gets:           m.gets.Load(),
			Puts:           m.puts.Load(),
			Misses:         m.misses.Load(),
			Flushes:        m.flushes.Load(),
			Checkpoints:    m.checkpoints.Load(),
			Recoveries:     m.recoveries.Load(),
			Failures:       m.failures.Load(),
			HealAttempts:   m.healAttempts.Load(),
			Heals:          m.heals.Load(),
			RecoveringNack: m.recoveringNacks.Load(),
			DegradedWrites: m.degradedWrites.Load(),
			ProvisionalRds: m.provisionalLoads.Load(),
			Overloads:      m.overloads.Load(),
			IntegrityErrs:  m.integrityErrs.Load(),
			OtherErrs:      m.otherErrs.Load(),
			Batches:        m.batches.Load(),
			BatchItems:     m.batchItems.Load(),
			Epochs:         m.epochs.Load(),
			EpochOps:       m.epochOps.Load(),
			EpochFallback:  m.epochFallbacks.Load(),
			Migrations:     m.migrations.Load(),
			FencedNacks:    m.fencedNacks.Load(),
			ConcurrentRds:  m.concurrentReads.Load(),
			ReadRetries:    m.readRetries.Load(),
			ReadFallbacks:  m.readFallbacks.Load(),
			ChaosRuns:      m.chaosRuns.Load(),
			Cycles:         m.cycles.Load(),
			DataReads:      m.dataReads.Load(),
			DataWrites:     m.dataWrites.Load(),
			MetaFetches:    sh.metaFetches(),
			PostedWrites:   m.postedWrites.Load(),
			StallCycles:    m.stallCycles.Load(),
			MergedWrites:   m.mergedWrites.Load(),
		}
		if ps := sh.prog.Snapshot(); ps.Total > 0 {
			ss.RecoveryDone = ps.Done
			ss.RecoveryTotal = ps.Total
			ss.RecoveryWallMs = float64(ps.WallNs) / 1e6
		}
		out.Shards[i] = ss
		out.Ops += ss.Gets + ss.Puts
	}
	return out
}

// Where a shardCounter is registered.
const (
	perShard  = 1 << iota // store.shardN.<suffix>
	aggregate             // store.<suffix>, summed over hosted shards
)

// shardCounters declares every counter column that is one published
// atomic once; RegisterMetrics derives the per-shard and the aggregate
// series from it (meta_fetches, a sum of two, is registered by hand).
var shardCounters = []struct {
	suffix, help string
	pick         func(*shardMetrics) *atomic.Uint64
	where        int
}{
	{"gets", "get requests served", func(m *shardMetrics) *atomic.Uint64 { return &m.gets }, perShard | aggregate},
	{"puts", "put requests served", func(m *shardMetrics) *atomic.Uint64 { return &m.puts }, perShard | aggregate},
	{"misses", "gets of never-written keys", func(m *shardMetrics) *atomic.Uint64 { return &m.misses }, perShard},
	{"overloads", "requests rejected by the bounded queue", func(m *shardMetrics) *atomic.Uint64 { return &m.overloads }, perShard},
	{"integrity_errors", "requests failed on integrity violations", func(m *shardMetrics) *atomic.Uint64 { return &m.integrityErrs }, perShard | aggregate},
	{"recoveries", "successful power-cycle recoveries", func(m *shardMetrics) *atomic.Uint64 { return &m.recoveries }, perShard},
	{"batch_items", "requests drained in batches", func(m *shardMetrics) *atomic.Uint64 { return &m.batchItems }, aggregate},
	{"batches", "worker batch wakeups", func(m *shardMetrics) *atomic.Uint64 { return &m.batches }, aggregate},
	{"epochs", "group-commit epochs committed", func(m *shardMetrics) *atomic.Uint64 { return &m.epochs }, perShard | aggregate},
	{"epoch_ops", "writes committed through epochs", func(m *shardMetrics) *atomic.Uint64 { return &m.epochOps }, perShard | aggregate},
	{"epoch_fallbacks", "epoch commits repaired by per-op replay", func(m *shardMetrics) *atomic.Uint64 { return &m.epochFallbacks }, perShard | aggregate},
	{"chaos_runs", "chaos injections executed", func(m *shardMetrics) *atomic.Uint64 { return &m.chaosRuns }, perShard},
	{"sim_cycles", "simulated cycles consumed", func(m *shardMetrics) *atomic.Uint64 { return &m.cycles }, perShard},
	{"data_reads", "verified data block reads", func(m *shardMetrics) *atomic.Uint64 { return &m.dataReads }, perShard},
	{"data_writes", "encrypted data block writes", func(m *shardMetrics) *atomic.Uint64 { return &m.dataWrites }, perShard},
	{"posted_writes", "posted SCM writes", func(m *shardMetrics) *atomic.Uint64 { return &m.postedWrites }, perShard},
	{"stall_cycles", "write-queue stall cycles", func(m *shardMetrics) *atomic.Uint64 { return &m.stallCycles }, perShard},
	{"failures", "recovery-contract violations that quarantined the shard", func(m *shardMetrics) *atomic.Uint64 { return &m.failures }, perShard},
	{"heal_attempts", "supervised heal attempts on quarantined shards", func(m *shardMetrics) *atomic.Uint64 { return &m.healAttempts }, perShard | aggregate},
	{"heals", "heal attempts that restored service", func(m *shardMetrics) *atomic.Uint64 { return &m.heals }, perShard | aggregate},
	{"recovering_nacks", "requests nacked with ErrRecovering", func(m *shardMetrics) *atomic.Uint64 { return &m.recoveringNacks }, perShard | aggregate},
	{"degraded_writes", "writes served during recovery sessions", func(m *shardMetrics) *atomic.Uint64 { return &m.degradedWrites }, perShard | aggregate},
	{"provisional_loads", "counter leaves loaded provisionally during recovery sessions", func(m *shardMetrics) *atomic.Uint64 { return &m.provisionalLoads }, perShard},
	{"concurrent_reads", "gets served off the concurrent read view", func(m *shardMetrics) *atomic.Uint64 { return &m.concurrentReads }, perShard | aggregate},
	{"read_retries", "read-view snapshot retries on seq conflicts", func(m *shardMetrics) *atomic.Uint64 { return &m.readRetries }, perShard | aggregate},
	{"read_fallbacks", "read-view attempts abandoned to the queue path", func(m *shardMetrics) *atomic.Uint64 { return &m.readFallbacks }, perShard | aggregate},
}

// total folds fn over the currently hosted shards.
func (s *Store) total(fn func(*shard) float64) func() float64 {
	return func() float64 {
		var t float64
		for _, sh := range s.table().list {
			t += fn(sh)
		}
		return t
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// RegisterMetrics adds per-shard and aggregate store columns to reg.
// Every column reads only published atomics or channel lengths, so
// sampling never races the shard workers. Per-shard columns are
// minted for the partitions hosted at registration time; partitions
// that attach later feed the aggregate columns (which read the live
// table) but get no dedicated columns until the next restart.
func (s *Store) RegisterMetrics(reg *telemetry.Registry) {
	for _, c := range shardCounters {
		if c.where&perShard != 0 {
			for _, sh := range s.table().list {
				reg.Counter(fmt.Sprintf("store.shard%d.%s", sh.id, c.suffix), c.help, c.pick(&sh.m).Load)
			}
		}
		if c.where&aggregate != 0 {
			reg.Counter("store."+c.suffix, c.help+", all shards", func() uint64 {
				var t uint64
				for _, sh := range s.table().list {
					t += c.pick(&sh.m).Load()
				}
				return t
			})
		}
	}
	reg.Counter("store.overloads", "requests rejected by bounded queues", s.overloads.Load)

	active := func(sh *shard) float64 { return b2f(sh.prog.Snapshot().Active) }
	done := func(sh *shard) float64 { return float64(sh.prog.Snapshot().Done) }
	leaves := func(sh *shard) float64 { return float64(sh.prog.Snapshot().Total) }
	serving := func(sh *shard) float64 { return b2f(sh.load() != stateQuarantined) }
	for _, sh := range s.table().list {
		p := fmt.Sprintf("store.shard%d", sh.id)
		reg.Histogram(p+".epoch_size", "staged writes per committed epoch", sh.epochSizeHistogram)
		reg.Histogram(p+".epoch_kcycles", "epoch commit latency (256-cycle buckets)", sh.epochCycleHistogram)
		reg.Counter(p+".meta_fetches", "metadata blocks fetched from SCM", sh.metaFetches)
		reg.Gauge(p+".queue_len", "requests waiting in the shard queue", func() float64 { return float64(len(sh.ch)) })
		reg.Gauge(p+".recovery_leaves_done", "BMT leaves rebuilt by the latest recovery", func() float64 { return done(sh) })
		reg.Gauge(p+".recovery_leaves_total", "BMT leaves the latest recovery must rebuild", func() float64 { return leaves(sh) })
		reg.Gauge(p+".recovery_active", "1 while a recovery rebuild is in flight", func() float64 { return active(sh) })
		reg.Gauge(p+".recovery_wall_ms", "wall time of the latest completed recovery, ms", func() float64 {
			return float64(sh.prog.Snapshot().WallNs) / 1e6
		})
		reg.Gauge(p+".serving", "1 while the shard accepts requests", func() float64 { return serving(sh) })
		reg.Gauge(p+".health", "serving state: 0 serving, 1 recovering, 2 quarantined", func() float64 { return health[sh.load()].gauge })
	}
	reg.Gauge("store.recovery_leaves_done", "BMT leaves rebuilt by the latest recoveries, all shards", s.total(done))
	reg.Gauge("store.recovery_leaves_total", "BMT leaves the latest recoveries must rebuild, all shards", s.total(leaves))
	reg.Gauge("store.recoveries_active", "shards with a recovery rebuild in flight", s.total(active))
	reg.Gauge("store.shards_serving", "shards currently in service", s.total(serving))
	reg.Gauge("store.shards_recovering", "shards with a rebuild in flight", s.total(func(sh *shard) float64 {
		st := sh.load()
		return b2f(st == stateRecoveringOnline || st == stateRecoveringBlocking)
	}))
	reg.Gauge("store.shards_quarantined", "shards waiting on the heal loop", s.total(func(sh *shard) float64 {
		return b2f(sh.load() == stateQuarantined)
	}))
}

// epochSizeHistogram returns a race-free clone of the shard's
// epoch-size distribution.
func (sh *shard) epochSizeHistogram() *stats.Histogram {
	sh.histMu.Lock()
	defer sh.histMu.Unlock()
	return sh.epochSizes.Clone()
}

// epochCycleHistogram returns a race-free clone of the shard's
// epoch commit-latency distribution (256-cycle buckets).
func (sh *shard) epochCycleHistogram() *stats.Histogram {
	sh.histMu.Lock()
	defer sh.histMu.Unlock()
	return sh.epochCycles.Clone()
}

// TotalCycles returns the largest published shard clock — the store's
// simulated-time high-water mark, used as the sample cycle.
func (s *Store) TotalCycles() uint64 {
	var max uint64
	for _, sh := range s.table().list {
		if c := sh.m.cycles.Load(); c > max {
			max = c
		}
	}
	return max
}
