package store

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"

	"amnt/internal/stats"
	"amnt/internal/telemetry"
)

// counter indexes the shard counter table: one row per published
// shard counter. The worker and the reader pool increment a row by
// index; Stats, RegisterMetrics and the snapshot JSON all loop over
// the table, so adding a counter is a constant, its row and its
// increment sites.
type counter int

const (
	cGets counter = iota
	cPuts
	cMisses
	cFlushes
	cCheckpoints
	cRecoveries
	cFailures
	cHealAttempts
	cHeals
	cRecoveringNacks
	cDegradedWrites
	cProvisionalLoads
	cOverloads
	cIntegrityErrors
	cOtherErrors
	cBatches
	cBatchItems
	cEpochs
	cEpochOps
	cEpochFallbacks
	cMigrations
	cFencedNacks
	cConcurrentReads
	cReadRetries
	cReadFallbacks
	cChaosRuns
	// Controller snapshot, stored (not added) by publish.
	cSimCycles
	cDataReads
	cDataWrites
	cMetaFetches
	cPostedWrites
	cStallCycles
	cMergedWrites
	numCounters
)

// counterTable declares every shard counter once: its wire name (the
// /v1/store/stats and /v1/health key, and the suffix of both its
// store.shardN.<name> and store.<name> columns) and its help string.
var counterTable = [numCounters]struct{ name, help string }{
	cGets:             {"gets", "get requests served"},
	cPuts:             {"puts", "put requests served"},
	cMisses:           {"misses", "gets of never-written keys"},
	cFlushes:          {"flushes", "persist barriers served"},
	cCheckpoints:      {"checkpoints", "checkpoint images written"},
	cRecoveries:       {"recoveries", "successful power-cycle recoveries"},
	cFailures:         {"failures", "recovery-contract violations that quarantined the shard"},
	cHealAttempts:     {"heal_attempts", "supervised heal attempts on quarantined shards"},
	cHeals:            {"heals", "heal attempts that restored service"},
	cRecoveringNacks:  {"recovering_nacks", "requests nacked with ErrRecovering"},
	cDegradedWrites:   {"degraded_writes", "writes served during recovery sessions"},
	cProvisionalLoads: {"provisional_loads", "counter leaves loaded provisionally during recovery sessions"},
	cOverloads:        {"overloads", "requests rejected by the bounded queue"},
	cIntegrityErrors:  {"integrity_errors", "requests failed on integrity violations"},
	cOtherErrors:      {"other_errors", "requests failed on errors other than integrity or recovery"},
	cBatches:          {"batches", "worker batch wakeups"},
	cBatchItems:       {"batch_items", "requests drained in batches"},
	cEpochs:           {"epochs", "group-commit epochs committed"},
	cEpochOps:         {"epoch_ops", "writes committed through epochs"},
	cEpochFallbacks:   {"epoch_fallbacks", "epoch commits repaired by per-op replay"},
	cMigrations:       {"migrations", "outbound migrations begun"},
	cFencedNacks:      {"fenced_nacks", "writes nacked during a migration hand-off fence"},
	cConcurrentReads:  {"concurrent_reads", "gets served off the concurrent read view"},
	cReadRetries:      {"read_retries", "read-view snapshot retries on seq conflicts"},
	cReadFallbacks:    {"read_fallbacks", "read-view attempts abandoned to the queue path"},
	cChaosRuns:        {"chaos_runs", "chaos injections executed"},
	cSimCycles:        {"sim_cycles", "simulated cycles consumed"},
	cDataReads:        {"data_reads", "verified data block reads"},
	cDataWrites:       {"data_writes", "encrypted data block writes"},
	cMetaFetches:      {"meta_fetches", "metadata blocks fetched from SCM"},
	cPostedWrites:     {"posted_writes", "posted SCM writes"},
	cStallCycles:      {"stall_cycles", "write-queue stall cycles"},
	cMergedWrites:     {"merged_writes", "posted writes coalesced in the write queue"},
}

// shardMetrics holds one atomic per counter-table row. The worker owns
// the controller, so telemetry must not read mee state directly
// (scrapes and HTTP handlers run on other goroutines); instead the
// worker publishes its controller counters here after every batch and
// readers see the last published value.
type shardMetrics [numCounters]atomic.Uint64

// publish snapshots the worker-owned controller counters into the
// shared atomics. Worker-goroutine only.
func (sh *shard) publish() {
	st := sh.ctrl.Stats()
	m := &sh.m
	m[cSimCycles].Store(sh.now)
	m[cDataReads].Store(st.DataReads.Value())
	m[cDataWrites].Store(st.DataWrites.Value())
	m[cMetaFetches].Store(st.MetaFetches.Value())
	m[cPostedWrites].Store(st.PostedWrites.Value())
	m[cStallCycles].Store(st.StallCycles.Value())
	m[cMergedWrites].Store(sh.ctrl.MergedWrites())
}

// counter reads one table row. meta_fetches is the one computed row:
// the worker's published count plus what the reader pool fetched off
// the read view, which no worker wakeup publishes.
func (sh *shard) counter(c counter) uint64 {
	v := sh.m[c].Load()
	if c == cMetaFetches {
		v += sh.ctrl.ViewMetaFetches()
	}
	return v
}

// ShardSnapshot is one shard's published state and counters. Shard is
// the global partition id the shard hosts. On the wire (MarshalJSON)
// the counters are flat keys named by the counter table, next to the
// typed state fields.
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
	Fenced         bool    `json:"fenced"`
	QueueLen       int     `json:"queue_len"`
	RecoveryDone   uint64  `json:"recovery_leaves_done"`
	RecoveryTotal  uint64  `json:"recovery_leaves_total"`
	RecoveryWallMs float64 `json:"recovery_wall_ms"`

	counts [numCounters]uint64
}

// Counter returns the value of the counter-table row with the given
// wire name ("epochs", "heals", ...). It panics on a name the table
// does not declare.
func (ss ShardSnapshot) Counter(name string) uint64 {
	for c, row := range counterTable {
		if row.name == name {
			return ss.counts[c]
		}
	}
	panic(fmt.Sprintf("store: no shard counter %q", name))
}

// shardHead is ShardSnapshot's typed state fields alone (no methods,
// so encoding/json handles them the default way).
type shardHead ShardSnapshot

// MarshalJSON writes the state fields, then every counter-table row as
// a flat key.
func (ss ShardSnapshot) MarshalJSON() ([]byte, error) {
	b, err := json.Marshal(shardHead(ss))
	if err != nil {
		return nil, err
	}
	b = b[:len(b)-1] // reopen the object
	for c, row := range counterTable {
		b = append(b, `,"`...)
		b = append(b, row.name...)
		b = append(b, `":`...)
		b = strconv.AppendUint(b, ss.counts[c], 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads what MarshalJSON writes. Like encoding/json, it
// leaves fields whose keys are absent unchanged.
func (ss *ShardSnapshot) UnmarshalJSON(data []byte) error {
	if err := json.Unmarshal(data, (*shardHead)(ss)); err != nil {
		return err
	}
	var flat map[string]json.RawMessage
	if err := json.Unmarshal(data, &flat); err != nil {
		return err
	}
	for c, row := range counterTable {
		if raw, ok := flat[row.name]; ok {
			if err := json.Unmarshal(raw, &ss.counts[c]); err != nil {
				return fmt.Errorf("store: shard counter %q: %w", row.name, err)
			}
		}
	}
	return nil
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
	}
	if st := s.Staging(); len(st) > 0 {
		out.Staging = st
	}
	for i, sh := range shards {
		state := sh.load()
		ss := ShardSnapshot{
			Shard:    sh.id,
			Health:   state.String(),
			Serving:  state != stateQuarantined,
			Fenced:   sh.fenced.Load(),
			QueueLen: len(sh.ch),
		}
		for c := range ss.counts {
			ss.counts[c] = sh.counter(counter(c))
		}
		if ps := sh.prog.Snapshot(); ps.Total > 0 {
			ss.RecoveryDone = ps.Done
			ss.RecoveryTotal = ps.Total
			ss.RecoveryWallMs = float64(ps.WallNs) / 1e6
		}
		out.Shards[i] = ss
		out.Ops += ss.counts[cGets] + ss.counts[cPuts]
		out.Overloads += ss.counts[cOverloads]
	}
	return out
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

// RegisterMetrics adds the store's columns to reg: each counter-table
// row as store.shardN.<name> and as store.<name> (the sum over hosted
// shards), plus the state gauges and epoch histograms. Every column
// reads only published atomics, channel lengths or histograms cloned
// under a lock, so a scrape may sample from any goroutine without
// racing the shard workers. Per-shard columns are minted for the
// partitions hosted at registration time, so a caller that must follow
// migrations registers into a fresh registry per scrape.
func (s *Store) RegisterMetrics(reg *telemetry.Registry) {
	for c, row := range counterTable {
		c := counter(c)
		for _, sh := range s.table().list {
			reg.Counter(fmt.Sprintf("store.shard%d.%s", sh.id, row.name), row.help, func() uint64 { return sh.counter(c) })
		}
		reg.Counter("store."+row.name, row.help+", all shards", func() uint64 {
			var t uint64
			for _, sh := range s.table().list {
				t += sh.counter(c)
			}
			return t
		})
	}

	active := func(sh *shard) float64 { return b2f(sh.prog.Snapshot().Active) }
	done := func(sh *shard) float64 { return float64(sh.prog.Snapshot().Done) }
	leaves := func(sh *shard) float64 { return float64(sh.prog.Snapshot().Total) }
	serving := func(sh *shard) float64 { return b2f(sh.load() != stateQuarantined) }
	for _, sh := range s.table().list {
		p := fmt.Sprintf("store.shard%d", sh.id)
		reg.Histogram(p+".epoch_size", "staged writes per committed epoch", sh.epochSizeHistogram)
		reg.Histogram(p+".epoch_kcycles", "epoch commit latency (256-cycle buckets)", sh.epochCycleHistogram)
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
		if c := sh.m[cSimCycles].Load(); c > max {
			max = c
		}
	}
	return max
}
