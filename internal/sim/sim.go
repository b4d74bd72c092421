// Package sim assembles the full machine — OS kernel with demand
// paging, per-core cache hierarchies, the secure memory controller
// with a persistence policy, and the SCM device — and drives it with
// synthetic workload traces. It is the engine behind every figure and
// table reproduction.
//
// The timing model is a serialized global clock: cores interleave
// accesses round-robin, each access advancing the clock by its
// compute gap plus its memory latency. This keeps all protocols under
// an identical access stream, which is what normalized comparisons
// (cycles relative to the volatile baseline) require.
//
// The data path is functional end to end: every store bumps a block
// version, dirty LLC evictions encrypt version-derived bytes into the
// device, and every MEE read is checked against the expected bytes —
// a whole-system integrity oracle that fails loudly if any protocol
// mismanages metadata.
package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"

	"amnt/internal/cache"
	_ "amnt/internal/core" // registers the AMNT family with mee's registry
	"amnt/internal/cpu"
	"amnt/internal/kernel"
	"amnt/internal/mee"
	"amnt/internal/radix"
	"amnt/internal/scm"
	"amnt/internal/stats"
	"amnt/internal/telemetry"
	"amnt/internal/workload"
)

// Config describes a machine.
type Config struct {
	// MemoryBytes sizes the SCM device (default 8 GB, Table 1).
	MemoryBytes uint64
	// Core selects the per-core cache configuration.
	Core cpu.Config
	// L3Bytes adds a shared L3 (0 = none; the paper's single-program
	// config has none, multiprogram 1 MB, multithread 8 MB).
	L3Bytes int
	// MEE configures the secure memory controller.
	MEE mee.Config
	// AMNTPlusPlus runs the modified (biased) buddy allocator.
	AMNTPlusPlus bool
	// SubtreeLevel is the AMNT subtree level used to size AMNT++
	// regions (and, for the amnt policy itself, its fast subtree).
	SubtreeLevel int
	// PrefragmentChurn shuffles the allocator's free lists before the
	// run so placement policy matters (0 = pristine boot state).
	PrefragmentChurn int
	// Seed drives all stochastic components.
	Seed int64
	// CollectPageHist records per-physical-page access counts
	// (Figure 3).
	CollectPageHist bool
	// StopAtFirstDone ends a multiprogram run when the first trace
	// finishes (the paper's multiprogram region-of-interest rule);
	// otherwise all traces run to completion.
	StopAtFirstDone bool
	// SharedAddressSpace runs all traces in one process (the paper's
	// multithreaded SPEC configuration) instead of one process each.
	SharedAddressSpace bool
}

// DefaultConfig returns the paper's single-program machine.
func DefaultConfig() Config {
	return Config{
		MemoryBytes:  8 << 30,
		Core:         cpu.SingleProgram(),
		MEE:          mee.DefaultConfig(),
		SubtreeLevel: 3,
		Seed:         1,
	}
}

// Result summarizes one run. The JSON field names are a stable,
// machine-readable encoding (snake_case, mirroring Dump's gem5-style
// stat names) consumed by amntsim -json and amntbench -format json;
// treat them as public API and only ever add fields.
type Result struct {
	Workloads []string `json:"workloads"`
	Policy    string   `json:"policy"`
	// Cycles is the total simulated time.
	Cycles uint64 `json:"cycles"`
	// Instructions counts trace compute gaps + memory ops + OS work.
	Instructions uint64 `json:"instructions"`
	// OSInstructions is the kernel's share of Instructions.
	OSInstructions uint64 `json:"os_instructions"`
	// Accesses/Reads/Writes count memory references issued.
	Accesses uint64 `json:"accesses"`
	Reads    uint64 `json:"reads"`
	Writes   uint64 `json:"writes"`
	// MetaHitRate is the metadata cache hit rate.
	MetaHitRate float64 `json:"meta_hit_rate"`
	// L1HitRate aggregates L1 hit rate over cores.
	L1HitRate float64 `json:"l1_hit_rate"`
	// PageFaults counts demand-paging faults.
	PageFaults uint64 `json:"page_faults"`
	// SubtreeHitRate and Movements are AMNT-specific (0 otherwise).
	SubtreeHitRate float64 `json:"subtree_hit_rate"`
	Movements      uint64  `json:"movements"`
	// DeviceReads/Writes count SCM block transfers.
	DeviceReads  uint64 `json:"device_reads"`
	DeviceWrites uint64 `json:"device_writes"`
	// Remaining MEE counters (the full mee.Stats set).
	MetaFetches  uint64 `json:"meta_fetches"`
	SyncPersists uint64 `json:"sync_persists"`
	PostedWrites uint64 `json:"posted_writes"`
	MergedWrites uint64 `json:"merged_writes"`
	StallCycles  uint64 `json:"stall_cycles"`
	Overflows    uint64 `json:"overflows"`
	VerifyHashes uint64 `json:"verify_hashes"`
	PolicyCycles uint64 `json:"policy_cycles"`
	// MetaLevelHitRates is the metadata cache hit rate of verified
	// fetches per tree level, indexed by level (entries 0 and 1 are
	// always zero: root register and policy anchors bypass the cache).
	MetaLevelHitRates []float64 `json:"meta_level_hit_rates"`
	// WQOccupancy is the write-queue occupancy distribution: entry i
	// counts admitted writes that found i entries already in flight.
	WQOccupancy    []uint64 `json:"wq_occupancy"`
	WQOccupancyP50 uint64   `json:"wq_occupancy_p50"`
	WQOccupancyP99 uint64   `json:"wq_occupancy_p99"`
	// PageHist is per-physical-page access counts when requested; it
	// is a raw histogram, not part of the JSON encoding.
	PageHist *stats.Histogram `json:"-"`
}

// CyclesPerInstruction returns the run's effective CPI.
func (r Result) CyclesPerInstruction() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// Machine is an assembled system ready to run traces.
type Machine struct {
	cfg    Config
	dev    *scm.Device
	ctrl   *mee.Controller
	kern   *kernel.Kernel
	l3     *cache.Cache
	cores  []*cpu.Hierarchy
	procs  []*kernel.Process
	traces []workload.Source
	// versions counts the stores to each data block. Leaves appear on
	// first store, so the table follows the touched footprint, never
	// MemoryBytes.
	versions radix.Table[uint32]
	// scratch is the one buffer block contents are derived into, for a
	// write-back and for the verify oracle alike; each use ends before
	// the next begins.
	scratch  [scm.BlockSize]byte
	now      uint64
	pageHist *stats.Histogram
	policy   mee.Policy
	// tel is nil unless EnableTelemetry ran; every use is nil-safe, so
	// the disabled path costs one pointer check per step.
	tel *telemetry.Session
}

// NewMachine builds a machine running one freshly generated trace
// per core.
func NewMachine(cfg Config, policy mee.Policy, specs []workload.Spec) *Machine {
	sources := make([]workload.Source, len(specs))
	for i, spec := range specs {
		sources[i] = workload.NewTrace(spec, baseSeed(cfg)+int64(i)*7919)
	}
	return NewMachineWithSources(cfg, policy, sources)
}

func baseSeed(cfg Config) int64 { return cfg.Seed }

// NewMachineWithSources builds a machine over externally supplied
// access streams — typically traces recorded with workload.Record and
// replayed with workload.OpenRecorded, for bit-identical experiment
// reproduction.
func NewMachineWithSources(cfg Config, policy mee.Policy, sources []workload.Source) *Machine {
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 8 << 30
	}
	if cfg.MEE.MetaCacheBytes == 0 {
		cfg.MEE = mee.DefaultConfig()
	}
	dev := scm.New(scm.Config{CapacityBytes: cfg.MemoryBytes})
	ctrl := mee.New(dev, cfg.MEE, policy)

	level := cfg.SubtreeLevel
	if level <= 0 {
		level = 3
	}
	regionPages := ctrl.Geometry().CoverageBytes(level) / kernel.PageSize
	kern := kernel.New(kernel.Config{
		MemoryBytes:        cfg.MemoryBytes,
		AMNTPlusPlus:       cfg.AMNTPlusPlus,
		SubtreeRegionPages: regionPages,
	})

	m := &Machine{
		cfg:    cfg,
		dev:    dev,
		ctrl:   ctrl,
		kern:   kern,
		policy: policy,
	}
	if cfg.CollectPageHist {
		m.pageHist = stats.NewHistogram()
	}
	if cfg.PrefragmentChurn > 0 {
		kern.Prefragment(newRand(cfg.Seed), cfg.PrefragmentChurn)
		if cfg.AMNTPlusPlus {
			// One reclamation pass so the biased ordering is in place
			// at first allocation, as after any uptime.
			kern.Allocator().Restructure(regionPages)
		}
	}
	m.l3 = cpu.SharedL3(cfg.L3Bytes)
	for i, src := range sources {
		spec := src.Spec()
		name := fmt.Sprintf("core%d", i)
		h := cpu.NewHierarchy(name, cfg.Core, m.l3, ctrl, m.content)
		// End-to-end oracle: everything the MEE decrypts must match
		// the version-derived bytes the machine last evicted.
		h.SetVerify(func(block uint64, data []byte) error {
			if want := m.content(block); !bytes.Equal(data, want) {
				j := 0
				for data[j] == want[j] {
					j++
				}
				return fmt.Errorf("sim: block %d plaintext diverged at byte %d", block, j)
			}
			return nil
		})
		m.cores = append(m.cores, h)
		if cfg.SharedAddressSpace && i > 0 {
			m.procs = append(m.procs, m.procs[0])
		} else {
			m.procs = append(m.procs, kern.NewProcess(spec.Name))
		}
		m.traces = append(m.traces, src)
	}
	if cfg.SharedAddressSpace {
		// Threads share data: wire the dirty-migration snoop so a
		// line dirtied in one core's private cache is transferred, not
		// re-read stale from memory.
		for i := range m.cores {
			i := i
			m.cores[i].SetSnoop(func(block uint64) bool {
				for j, other := range m.cores {
					if j != i && other.ExtractDirty(block) {
						return true
					}
				}
				return false
			})
		}
	}
	return m
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// content derives a block's current plaintext from its version into
// the machine's scratch; see the package comment.
func (m *Machine) content(block uint64) []byte {
	blockContent(m.scratch[:], block, m.versions.Get(block))
	return m.scratch[:]
}

// blockContent fills out (BlockSize bytes) with the plaintext of block
// at version.
func blockContent(out []byte, block uint64, version uint32) {
	if version == 0 {
		clear(out) // never written: zeros
		return
	}
	binary.LittleEndian.PutUint64(out[0:], block)
	binary.LittleEndian.PutUint32(out[8:], version)
	for i := 12; i < scm.BlockSize; i++ {
		out[i] = byte(block) ^ byte(version) ^ byte(i)
	}
}

// Controller exposes the MEE (for recovery experiments and stats).
func (m *Machine) Controller() *mee.Controller { return m.ctrl }

// ProcessPages returns each core's process's mapped physical pages
// (deduplicated when cores share an address space).
func (m *Machine) ProcessPages() [][]uint64 {
	seen := make(map[*kernel.Process]bool)
	var out [][]uint64
	for _, p := range m.procs {
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p.PhysicalPages())
	}
	return out
}

// Kernel exposes the OS model.
func (m *Machine) Kernel() *kernel.Kernel { return m.kern }

// EnableTelemetry attaches an instrumentation session to the machine:
// every component registers its metric columns, the controller gets a
// protocol event trace sink, and the epoch sampler snapshots all
// metrics every cfg.EpochCycles simulated cycles. Telemetry only reads
// existing statistics, so enabling it never changes simulation results;
// when it is not enabled the machine carries a nil session and the
// per-step overhead is a single pointer check.
func (m *Machine) EnableTelemetry(cfg telemetry.Config) *telemetry.Session {
	s := telemetry.NewSession(cfg)
	reg := s.Registry
	reg.Gauge("sim.cycle", "current simulated cycle", func() float64 { return float64(m.now) })
	m.ctrl.RegisterMetrics(reg, "mee")
	m.dev.RegisterMetrics(reg, "scm")
	m.kern.RegisterMetrics(reg, "os")
	if m.l3 != nil {
		m.l3.RegisterMetrics(reg, "l3")
	}
	for i, h := range m.cores {
		for li, c := range h.Levels() {
			c.RegisterMetrics(reg, fmt.Sprintf("core%d.l%d", i, li+1))
		}
	}
	if src, ok := m.policy.(telemetry.MetricSource); ok {
		src.RegisterMetrics(reg)
	}
	m.ctrl.SetTracer(s.Trace)
	m.tel = s
	return s
}

// Telemetry returns the attached session, nil when telemetry is off.
func (m *Machine) Telemetry() *telemetry.Session { return m.tel }

// Now returns the current simulated cycle.
func (m *Machine) Now() uint64 { return m.now }

// Step runs one access from trace/core i. done reports trace
// exhaustion.
func (m *Machine) Step(i int) (done bool, err error) {
	acc, ok := m.traces[i].Next()
	if !ok {
		return true, nil
	}
	m.now += uint64(acc.Gap) // 1 IPC for non-memory instructions
	paddr, fault := m.procs[i].Translate(acc.VAddr)
	if fault {
		// Charge the fault handler's instructions as cycles.
		m.now += 150
	}
	block := paddr / scm.BlockSize
	if m.pageHist != nil {
		m.pageHist.Observe(paddr / kernel.PageSize)
	}
	cycles, err := m.cores[i].Access(m.now, block, acc.Write)
	if err != nil {
		return false, fmt.Errorf("core %d @%d: %w", i, m.now, err)
	}
	if acc.Write {
		// Bump after the (write-allocate) access: any MEE fetch during
		// the access sees the pre-store contents; the eviction that
		// eventually writes this line back will see the new version.
		*m.versions.At(block)++
	}
	m.now += cycles
	if m.tel != nil {
		m.tel.Tick(m.now)
	}
	return false, nil
}

// Run drives all traces round-robin to completion (or until the first
// finishes under StopAtFirstDone) and returns the result summary.
func (m *Machine) Run() (Result, error) {
	return m.RunContext(context.Background())
}

// cancelCheckMask sets how often RunContext polls for cancellation:
// every (mask+1) round-robin sweeps. A sweep is a handful of
// microseconds of host time, so a cancelled run aborts in well under
// a millisecond while the common (never-cancelled) path pays one
// counter increment and a branch per sweep.
const cancelCheckMask = 1<<10 - 1

// RunContext is Run with cancellation: the simulation loop polls ctx
// between round-robin sweeps and aborts with ctx's error once it is
// done. Experiment sweeps use it so ^C (or a failed sibling job's
// cleanup) stops multi-minute simulations promptly instead of running
// them to completion.
func (m *Machine) RunContext(ctx context.Context) (Result, error) {
	res, _, err := m.RunUntil(ctx, 0)
	return res, err
}

// RunUntil is RunContext with a mid-run stopping point: the loop
// halts as soon as the simulated clock reaches stopCycle (0 = run to
// completion), returning the partial result and stopped=true. The
// machine is left at a step boundary — no access is half-executed —
// which is exactly the state a power failure at that cycle would
// find, so the fault-injection harness uses this as its crash-point
// hook: run to the crash cycle, inject, Crash, Recover.
func (m *Machine) RunUntil(ctx context.Context, stopCycle uint64) (Result, bool, error) {
	live := make([]bool, len(m.traces))
	for i := range live {
		live[i] = true
	}
	remaining := len(live)
	for sweep := uint64(0); remaining > 0; sweep++ {
		if sweep&cancelCheckMask == 0 {
			select {
			case <-ctx.Done():
				return Result{}, false, fmt.Errorf("sim: run aborted at cycle %d: %w", m.now, ctx.Err())
			default:
			}
		}
		for i := range m.traces {
			if !live[i] {
				continue
			}
			done, err := m.Step(i)
			if err != nil {
				return Result{}, false, err
			}
			if done {
				live[i] = false
				remaining--
				if m.cfg.StopAtFirstDone {
					remaining = 0
				}
			}
			if stopCycle != 0 && m.now >= stopCycle {
				return m.result(), true, nil
			}
		}
	}
	return m.result(), false, nil
}

// Drain writes all dirty data back through the MEE (clean shutdown).
func (m *Machine) Drain() error {
	for _, h := range m.cores {
		cycles, err := h.Drain(m.now)
		m.now += cycles
		if err != nil {
			return err
		}
	}
	m.now += m.ctrl.Flush(m.now)
	return nil
}

// Crash drops all volatile state: CPU caches and the controller's
// volatile structures. Dirty cache lines are lost, exactly as on a
// power failure.
func (m *Machine) Crash() {
	for _, h := range m.cores {
		h.InvalidateAll()
	}
	m.ctrl.Crash()
}

func (m *Machine) result() Result {
	r := Result{
		Policy:         m.policy.Name(),
		Cycles:         m.now,
		PageFaults:     m.kern.PageFaults(),
		OSInstructions: m.kern.Instructions(),
		MetaHitRate:    m.ctrl.MetaCache().HitRate(),
		DeviceReads:    m.dev.Stats().Reads.Value(),
		DeviceWrites:   m.dev.Stats().Writes.Value(),
		PageHist:       m.pageHist,
	}
	st := m.ctrl.Stats()
	r.Reads = st.DataReads.Value()
	r.Writes = st.DataWrites.Value()
	r.MetaFetches = st.MetaFetches.Value()
	r.SyncPersists = st.SyncPersists.Value()
	r.PostedWrites = st.PostedWrites.Value()
	r.MergedWrites = m.ctrl.MergedWrites()
	r.StallCycles = st.StallCycles.Value()
	r.Overflows = st.Overflows.Value()
	r.VerifyHashes = st.VerifyHashes.Value()
	r.PolicyCycles = st.PolicyCycles.Value()
	r.MetaLevelHitRates = m.ctrl.LevelHitRates()
	if occ := m.ctrl.WriteQueueOccupancy(); occ.Total() > 0 {
		keys := occ.Keys()
		r.WQOccupancy = make([]uint64, keys[len(keys)-1]+1)
		for _, k := range keys {
			r.WQOccupancy[k] = occ.Count(k)
		}
		r.WQOccupancyP50 = occ.Quantile(0.50)
		r.WQOccupancyP99 = occ.Quantile(0.99)
	}
	var l1Hits, l1Total uint64
	for i, h := range m.cores {
		r.Workloads = append(r.Workloads, m.traces[i].Spec().Name)
		l1 := h.Levels()[0]
		l1Total += l1.Accesses()
		l1Hits += uint64(float64(l1.Accesses()) * l1.HitRate())
		r.Accesses += m.traces[i].Spec().Accesses - m.traces[i].Remaining()
	}
	if l1Total > 0 {
		r.L1HitRate = float64(l1Hits) / float64(l1Total)
	}
	// Instructions = compute gaps + one per memory op + OS work. The
	// gap total is implicit in the clock; approximate it as accesses ×
	// mean gap, which is exact in expectation and consistent across
	// policies (same traces).
	var gapTotal uint64
	for _, tr := range m.traces {
		done := tr.Spec().Accesses - tr.Remaining()
		gapTotal += done * uint64(tr.Spec().GapMean)
	}
	r.Instructions = gapTotal + r.Accesses + r.OSInstructions
	if a, ok := m.policy.(interface {
		SubtreeHitRate() float64
		Movements() uint64
	}); ok {
		r.SubtreeHitRate = a.SubtreeHitRate()
		r.Movements = a.Movements()
	}
	return r
}

// Run is the one-call entry: build a machine, run the traces, return
// the result.
func Run(cfg Config, policy mee.Policy, specs ...workload.Spec) (Result, error) {
	m := NewMachine(cfg, policy, specs)
	return m.Run()
}

// RunWithContext is Run with cancellation; see Machine.RunContext.
func RunWithContext(ctx context.Context, cfg Config, policy mee.Policy, specs ...workload.Spec) (Result, error) {
	m := NewMachine(cfg, policy, specs)
	return m.RunContext(ctx)
}

// PolicyByName constructs a registered policy. It is a thin
// compatibility wrapper over mee.NewPolicy: protocols self-register
// with the mee registry (the AMNT family from internal/core's init,
// which importing this package triggers), so the set of selectable
// names is open — new protocol packages add themselves without
// touching this function. amnt uses the given subtree level; amnt++
// additionally expects the modified kernel (the caller sets
// cfg.AMNTPlusPlus when selecting it).
func PolicyByName(name string, subtreeLevel int) (mee.Policy, error) {
	return mee.NewPolicy(name, mee.PolicyOptions{SubtreeLevel: subtreeLevel})
}

// PolicyNames lists the selectable policies, sorted; it mirrors
// mee.Registered.
func PolicyNames() []string {
	return mee.Registered()
}
