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
//
// A machine is two halves joined at the cache hierarchy's memory
// port (DESIGN.md §2.1). The front end — traces, kernel, caches,
// version table — never depends on the protocol; the back end —
// device, controller, policy — sees only the front end's transfers.
// Machine runs both in lockstep. Record runs the front end alone and
// keeps its transfers as a Stream; Replay feeds a Stream to any
// protocol's back end, so a comparison across protocols generates its
// shared access stream once.
package sim

import (
	"context"
	"fmt"

	_ "amnt/internal/core" // registers the AMNT family with mee's registry
	"amnt/internal/cpu"
	"amnt/internal/kernel"
	"amnt/internal/mee"
	"amnt/internal/stats"
	"amnt/internal/telemetry"
	"amnt/internal/workload"
)

// FrontEndConfig is everything the front end reads (DESIGN.md §2.1):
// two machines with equal FrontEndConfigs and specs raise the same
// transfers, whatever their controllers.
type FrontEndConfig struct {
	// MemoryBytes sizes the SCM device (default 8 GB, Table 1).
	MemoryBytes uint64
	// Core selects the per-core cache configuration.
	Core cpu.Config
	// L3Bytes adds a shared L3 (0 = none; the paper's single-program
	// config has none, multiprogram 1 MB, multithread 8 MB).
	L3Bytes int
	// AMNTPlusPlusLevel selects the kernel: 0 runs the stock buddy
	// allocator, n > 0 AMNT++'s modified allocator, which biases
	// placement toward the regions of a level-n subtree.
	AMNTPlusPlusLevel int
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

// Config describes a machine: its front end plus the secure memory
// controller. Both halves are comparable, so the experiment engine
// keys cached runs and recorded streams by them.
type Config struct {
	FrontEndConfig
	// MEE configures the secure memory controller.
	MEE mee.Config
}

// withDefaults fills the memory size and controller config a zero
// Config leaves out.
func (cfg Config) withDefaults() Config {
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 8 << 30
	}
	if cfg.MEE.MetaCacheBytes == 0 {
		cfg.MEE = mee.DefaultConfig()
	}
	return cfg
}

// DefaultConfig returns the paper's single-program machine.
func DefaultConfig() Config {
	return Config{
		FrontEndConfig: FrontEndConfig{
			MemoryBytes: 8 << 30,
			Core:        cpu.SingleProgram(),
			Seed:        1,
		},
		MEE: mee.DefaultConfig(),
	}
}

// ConfigFor returns the paper's §6 machine of the given kind on the
// default memory size and seed: "single" (one core, no L3), "multi"
// (two programs on two cores sharing a 1 MB L3, ending when the first
// finishes) or "threads" (one multithreaded program in a shared
// address space over an 8 MB L3, likewise).
func ConfigFor(kind string) (Config, error) {
	cfg := DefaultConfig()
	switch kind {
	case "single":
	case "multi":
		cfg.Core = cpu.MultiProgram()
		cfg.L3Bytes = 1 << 20
		cfg.StopAtFirstDone = true
	case "threads":
		cfg.Core = cpu.MultiThread()
		cfg.L3Bytes = 8 << 20
		cfg.SharedAddressSpace = true
		cfg.StopAtFirstDone = true
	default:
		return Config{}, fmt.Errorf("unknown machine kind %q (single, multi, threads)", kind)
	}
	return cfg, nil
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

// Machine is an assembled system ready to run traces: a front end
// whose every transfer is applied to the back end as it happens.
type Machine struct {
	fe *frontEnd
	be *backEnd
	// tel is nil unless EnableTelemetry ran; every use is nil-safe, so
	// the disabled path costs one pointer check per step.
	tel *telemetry.Session
}

// NewMachine builds a machine running one freshly generated trace
// per core.
func NewMachine(cfg Config, policy mee.Policy, specs []workload.Spec) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{be: newBackEnd(cfg, policy), fe: newFrontEnd(cfg.FrontEndConfig, traces(cfg.FrontEndConfig, specs))}
	m.fe.be = m.be
	return m
}

// traces generates one trace per spec; core i's seed is Seed + i*7919.
func traces(cfg FrontEndConfig, specs []workload.Spec) []*workload.Trace {
	out := make([]*workload.Trace, len(specs))
	for i, spec := range specs {
		out[i] = workload.NewTrace(spec, cfg.Seed+int64(i)*7919)
	}
	return out
}

// Controller exposes the MEE (for recovery experiments and stats).
func (m *Machine) Controller() *mee.Controller { return m.be.ctrl }

// ProcessPages returns each core's process's mapped physical pages
// (deduplicated when cores share an address space).
func (m *Machine) ProcessPages() [][]uint64 {
	seen := make(map[*kernel.Process]bool)
	var out [][]uint64
	for _, p := range m.fe.procs {
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p.PhysicalPages())
	}
	return out
}

// Kernel exposes the OS model.
func (m *Machine) Kernel() *kernel.Kernel { return m.fe.kern }

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
	reg.Gauge("sim.cycle", "current simulated cycle", func() float64 { return float64(m.Now()) })
	m.be.ctrl.RegisterMetrics(reg, "mee")
	m.be.dev.RegisterMetrics(reg, "scm")
	m.fe.kern.RegisterMetrics(reg, "os")
	if m.fe.l3 != nil {
		m.fe.l3.RegisterMetrics(reg, "l3")
	}
	for i, h := range m.fe.cores {
		for li, c := range h.Levels() {
			c.RegisterMetrics(reg, fmt.Sprintf("core%d.l%d", i, li+1))
		}
	}
	if src, ok := m.be.policy.(telemetry.MetricSource); ok {
		src.RegisterMetrics(reg)
	}
	m.be.ctrl.SetTracer(s.Trace)
	m.tel = s
	return s
}

// Telemetry returns the attached session, nil when telemetry is off.
func (m *Machine) Telemetry() *telemetry.Session { return m.tel }

// Now returns the current simulated cycle: the full clock at the
// latest event plus the static time since.
func (m *Machine) Now() uint64 { return m.be.now + m.fe.static - m.fe.last }

// Step runs one access from trace/core i. done reports trace
// exhaustion.
func (m *Machine) Step(i int) (done bool, err error) {
	now := m.Now()
	if done, err = m.fe.step(i); err != nil {
		return false, fmt.Errorf("core %d @%d: %w", i, now, err)
	}
	if m.tel != nil && !done {
		m.tel.Tick(m.Now())
	}
	return done, nil
}

// Run drives all traces round-robin to completion (or until the first
// finishes under StopAtFirstDone) and returns the result summary.
func (m *Machine) Run() (Result, error) {
	return m.RunContext(context.Background())
}

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
	stopped, err := m.fe.roundRobin(ctx, func(i int) (bool, bool, error) {
		done, err := m.Step(i)
		return done, stopCycle != 0 && m.Now() >= stopCycle, err
	})
	if err != nil {
		if err == ctx.Err() {
			return Result{}, false, fmt.Errorf("sim: run aborted at cycle %d: %w", m.Now(), err)
		}
		return Result{}, false, err
	}
	return m.result(), stopped, nil
}

// Drain writes all dirty data back through the MEE (clean shutdown).
func (m *Machine) Drain() error {
	for _, h := range m.fe.cores {
		cycles, err := h.Drain(m.fe.static)
		m.fe.static += cycles
		if err != nil {
			return err
		}
	}
	m.be.now, m.fe.last = m.Now(), m.fe.static
	m.be.now += m.be.ctrl.Flush(m.be.now)
	return nil
}

// Crash drops all volatile state: CPU caches and the controller's
// volatile structures. Dirty cache lines are lost, exactly as on a
// power failure.
func (m *Machine) Crash() {
	for _, h := range m.fe.cores {
		h.InvalidateAll()
	}
	m.be.ctrl.Crash()
}

func (m *Machine) result() Result {
	r := m.fe.result()
	m.be.fill(&r, m.Now())
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
// cfg.AMNTPlusPlusLevel when selecting it).
func PolicyByName(name string, subtreeLevel int) (mee.Policy, error) {
	return mee.NewPolicy(name, mee.PolicyOptions{SubtreeLevel: subtreeLevel})
}

// PolicyNames lists the selectable policies, sorted; it mirrors
// mee.Registered.
func PolicyNames() []string {
	return mee.Registered()
}
