package faults

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amnt/internal/cpu"
	"amnt/internal/experiments"
	"amnt/internal/mee"
	"amnt/internal/sim"
	"amnt/internal/stats"
	"amnt/internal/telemetry"
	"amnt/internal/workload"
)

// CellSpec describes one crash/recovery cell: run one protocol's
// machine to a crash cycle, inject one fault kind, recover, check.
type CellSpec struct {
	// Protocol is a registered policy name ("amnt++" also enables the
	// modified kernel, as everywhere else).
	Protocol string
	// Kind is the fault to inject at the crash point.
	Kind Kind
	// CrashCycle is the simulated cycle to fail at (0 = after the full
	// run — a crash at quiescence).
	CrashCycle uint64
	// MachineSeed drives the machine and workload; cells that share it
	// see the identical access stream up to their crash cycle.
	MachineSeed int64
	// RNGSeed drives the fault choice (which entry tears, which bit
	// flips); the sweep derives it per cell.
	RNGSeed int64
	// SubtreeLevel is AMNT's configured level (default 3).
	SubtreeLevel int
	// MemoryBytes sizes the SCM device (default 32 MiB — small enough
	// that thousands of cells sweep in minutes).
	MemoryBytes uint64
	// Workload overrides the default fill trace (zero Accesses = use
	// the default).
	Workload workload.Spec
	// Deadline bounds recovery wall time (0 = DefaultDeadline).
	Deadline time.Duration
	// PlainCrashMayFail marks a protocol that is not crash consistent
	// by design (volatile); see CheckOptions.
	PlainCrashMayFail bool
	// Factory, when non-nil, constructs the policy instead of the mee
	// registry — the hook tests use to run adversarial (panicking,
	// hanging) policies without registering them globally.
	Factory mee.Factory
	// Emit, when non-nil, receives telemetry events (EvFault per
	// injection, EvInvariantViolation per broken invariant). The sweep
	// passes a mutex-guarded sink; callbacks may come from any cell's
	// goroutine otherwise.
	Emit func(telemetry.Event)
}

// fillSpec is the default cell workload: enough dirty state across
// half the device that every crash point finds in-flight metadata.
func fillSpec(memBytes uint64) workload.Spec {
	return workload.Spec{
		Name: "fill", Suite: "bench", FootprintBytes: memBytes / 2,
		WriteRatio: 0.6, GapMean: 2, Model: workload.Chase,
		Accesses: 24_000,
	}
}

// cellCore is the crash cell's cache hierarchy: deliberately tiny
// (4 kB L1, 16 kB L2) so dirty evictions reach the device from the
// first few hundred accesses on. The paper-sized hierarchies absorb a
// short fill trace almost entirely, which would leave early crash
// points with an empty device — nothing to tear, drop, or rot.
func cellCore() cpu.Config {
	return cpu.Config{
		L1: cpu.LevelConfig{SizeBytes: 4 << 10, Assoc: 4, HitCycles: 1},
		L2: cpu.LevelConfig{SizeBytes: 16 << 10, Assoc: 8, HitCycles: 12},
	}
}

// CellResult is one cell's verdict. The JSON encoding is deterministic
// — same seeds produce byte-identical results — so wall-clock fields
// are excluded.
type CellResult struct {
	Protocol   string `json:"protocol"`
	Kind       string `json:"kind"`
	CrashCycle uint64 `json:"crash_cycle"`
	// Status is "recovered", "detected" or "violation".
	Status string `json:"status"`
	// Injections/Resolutions record what was done to the device and
	// what became of it (parallel slices).
	Injections  []Injection `json:"injections,omitempty"`
	Resolutions []string    `json:"resolutions,omitempty"`
	Violations  []string    `json:"violations,omitempty"`
	RecoveryErr string      `json:"recovery_error,omitempty"`
	VerifyErr   string      `json:"verify_error,omitempty"`
	// RecoveryCycles is the protocol's simulated recovery time.
	RecoveryCycles uint64 `json:"recovery_cycles,omitempty"`
	// Error records a harness-level failure (the run itself erroring
	// before the crash point), also counted as a violation.
	Error string `json:"error,omitempty"`
	// Report is the raw recovery report (not part of the JSON matrix).
	Report mee.RecoveryReport `json:"-"`
	// RecoverWall is recovery's host time — informational only, and
	// excluded from the deterministic JSON encoding.
	RecoverWall time.Duration `json:"-"`
}

// RunCell executes one cell end to end: build the machine, run to the
// crash point, capture the in-flight window, crash, inject, recover,
// check. Panics anywhere in the cell are contained and reported as a
// violation of that cell only.
func RunCell(ctx context.Context, spec CellSpec) (out CellResult) {
	out = CellResult{
		Protocol:   spec.Protocol,
		Kind:       spec.Kind.String(),
		CrashCycle: spec.CrashCycle,
	}
	defer func() {
		if r := recover(); r != nil {
			out.Status = StatusViolation.String()
			out.Violations = append(out.Violations, fmt.Sprintf("cell panicked: %v", r))
			emitViolations(spec, out.CrashCycle, out.Violations[len(out.Violations)-1:])
		}
	}()

	memBytes := spec.MemoryBytes
	if memBytes == 0 {
		memBytes = 32 << 20
	}
	level := spec.SubtreeLevel
	if level == 0 {
		level = 3
	}
	cfg := sim.DefaultConfig()
	cfg.MemoryBytes = memBytes
	cfg.Seed = spec.MachineSeed
	cfg.SubtreeLevel = level
	cfg.Core = cellCore()
	cfg.AMNTPlusPlus = spec.Protocol == "amnt++"

	var policy mee.Policy
	if spec.Factory != nil {
		policy = spec.Factory(mee.PolicyOptions{SubtreeLevel: level}.WithDefaults())
	} else {
		var perr error
		policy, perr = sim.PolicyByName(spec.Protocol, level)
		if perr != nil {
			out.Status = StatusViolation.String()
			out.Error = perr.Error()
			return out
		}
	}
	wspec := spec.Workload
	if wspec.Accesses == 0 {
		wspec = fillSpec(memBytes)
	}
	m := sim.NewMachine(cfg, policy, []workload.Spec{wspec})

	inj := NewInjector(m.Controller())
	inj.Attach()
	if _, _, err := m.RunUntil(ctx, spec.CrashCycle); err != nil {
		inj.Detach()
		out.Status = StatusViolation.String()
		out.Error = err.Error()
		out.Violations = append(out.Violations, "run failed before the crash point: "+err.Error())
		emitViolations(spec, m.Now(), out.Violations[len(out.Violations)-1:])
		return out
	}
	now := m.Now()
	out.CrashCycle = now

	// Power-failure sequence: freeze the in-flight window, stop
	// journaling (recovery's own writes are not faults), drop volatile
	// state (battery's residual-energy flush happens here), then let
	// the fault land on the device.
	inj.CaptureWindow(now)
	inj.Detach()
	m.Crash()
	rng := rand.New(rand.NewSource(spec.RNGSeed))
	injections := inj.Apply(rng, spec.Kind, now)
	out.Injections = injections
	if spec.Emit != nil {
		for _, in := range injections {
			spec.Emit(telemetry.Event{
				Cycle: now,
				Kind:  telemetry.EvFault,
				Addr:  in.Index,
				Note:  fmt.Sprintf("%s/%s/%s", spec.Protocol, in.Kind, in.RegionName),
			})
		}
	}

	oc := CheckRecovery(ctx, m.Controller(), now, CheckOptions{
		Injections:        injections,
		Deadline:          spec.Deadline,
		PlainCrashMayFail: spec.PlainCrashMayFail,
	})
	out.Status = oc.Status.String()
	out.Resolutions = oc.Resolutions
	out.Violations = oc.Violations
	out.RecoveryErr = oc.RecoveryErr
	out.VerifyErr = oc.VerifyErr
	out.RecoveryCycles = oc.Report.Cycles
	out.Report = oc.Report
	out.RecoverWall = oc.RecoverWall
	emitViolations(spec, now, oc.Violations)
	return out
}

func emitViolations(spec CellSpec, cycle uint64, violations []string) {
	if spec.Emit == nil {
		return
	}
	for _, v := range violations {
		spec.Emit(telemetry.Event{
			Cycle: cycle,
			Kind:  telemetry.EvInvariantViolation,
			Note:  spec.Protocol + ": " + v,
		})
	}
}

// SweepOptions configures a crash-matrix exploration.
type SweepOptions struct {
	// Protocols to sweep (default mee.Registered()).
	Protocols []string
	// Kinds to inject (default all).
	Kinds []Kind
	// Points is the number of crash points per protocol, spread evenly
	// over that protocol's full-run cycle count (default 8).
	Points int
	// Seed drives machines and (via per-cell derivation) fault
	// choices; the matrix is a pure function of the options.
	Seed int64
	// MemoryBytes sizes each cell's device (default 32 MiB).
	MemoryBytes uint64
	// Accesses overrides the default workload length (0 = default).
	Accesses uint64
	// SubtreeLevel is AMNT's level (default 3).
	SubtreeLevel int
	// Parallel bounds the engine pool (0 = GOMAXPROCS). Results are
	// identical at any width.
	Parallel int
	// Deadline bounds each cell's recovery wall time.
	Deadline time.Duration
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Progress receives structured engine events.
	Progress func(experiments.Progress)
	// Context cancels the sweep.
	Context context.Context
	// Trace, when non-nil, receives EvFault/EvInvariantViolation
	// events (emission is serialized by the sweep).
	Trace *telemetry.Tracer
	// Counters, when non-nil, receives live fault/outcome counts (the
	// amntcrash -http /vars backing).
	Counters *Counters
	// Factories overrides policy construction per protocol name —
	// test-only adversarial policies enter here without polluting the
	// global registry. Names present only here must also be listed in
	// Protocols.
	Factories map[string]mee.Factory
	// FragileProtocols may fail a plain crash loudly without it being
	// a violation; defaults to {"volatile"} when nil.
	FragileProtocols []string
}

func (o SweepOptions) withDefaults() SweepOptions {
	if len(o.Protocols) == 0 {
		o.Protocols = mee.Registered()
	}
	if len(o.Kinds) == 0 {
		o.Kinds = Kinds()
	}
	if o.Points <= 0 {
		o.Points = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MemoryBytes == 0 {
		o.MemoryBytes = 32 << 20
	}
	if o.SubtreeLevel == 0 {
		o.SubtreeLevel = 3
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.FragileProtocols == nil {
		o.FragileProtocols = []string{"volatile"}
	}
	return o
}

func (o SweepOptions) fragile(proto string) bool {
	for _, p := range o.FragileProtocols {
		if p == proto {
			return true
		}
	}
	return false
}

func (o SweepOptions) workload() workload.Spec {
	spec := fillSpec(o.MemoryBytes)
	if o.Accesses != 0 {
		spec.Accesses = o.Accesses
	}
	return spec
}

// cellSeed derives a cell's fault rng seed from its coordinates, so
// every cell draws independent — but reproducible — choices.
func cellSeed(seed int64, proto string, point int, kind Kind) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d/%s", seed, proto, point, kind)
	return int64(h.Sum64())
}

// ProtocolSummary aggregates one protocol's row of the matrix.
type ProtocolSummary struct {
	Recovered  int `json:"recovered"`
	Detected   int `json:"detected"`
	Violations int `json:"violations"`
}

// Matrix is a full sweep result: one cell per (protocol × crash point
// × fault kind). Its JSON encoding is deterministic for fixed options.
type Matrix struct {
	Seed      int64                      `json:"seed"`
	Points    int                        `json:"points"`
	Kinds     []string                   `json:"kinds"`
	Protocols []string                   `json:"protocols"`
	Cells     []CellResult               `json:"cells"`
	Summary   map[string]ProtocolSummary `json:"summary"`
}

// Violations returns every violation cell's description.
func (m *Matrix) Violations() []string {
	var out []string
	for _, c := range m.Cells {
		if c.Status != StatusViolation.String() {
			continue
		}
		for _, v := range c.Violations {
			out = append(out, fmt.Sprintf("%s/%s@%d: %s", c.Protocol, c.Kind, c.CrashCycle, v))
		}
		if len(c.Violations) == 0 {
			out = append(out, fmt.Sprintf("%s/%s@%d: violation", c.Protocol, c.Kind, c.CrashCycle))
		}
	}
	return out
}

// WriteJSON writes the matrix as indented, deterministic JSON.
func (m *Matrix) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Render lays the matrix out as one row per protocol with outcome
// counts per fault kind.
func (m *Matrix) Render() *stats.Table {
	header := append([]string{"protocol"}, m.Kinds...)
	header = append(header, "recovered", "detected", "violations")
	t := stats.NewTable(fmt.Sprintf("Crash matrix — %d crash points × %d fault kinds (seed %d)",
		m.Points, len(m.Kinds), m.Seed), header...)
	perCell := make(map[string]map[string][2]int) // proto → kind → {ok, violation}
	for _, c := range m.Cells {
		if perCell[c.Protocol] == nil {
			perCell[c.Protocol] = make(map[string][2]int)
		}
		v := perCell[c.Protocol][c.Kind]
		if c.Status == StatusViolation.String() {
			v[1]++
		} else {
			v[0]++
		}
		perCell[c.Protocol][c.Kind] = v
	}
	for _, proto := range m.Protocols {
		row := []interface{}{proto}
		for _, kind := range m.Kinds {
			v := perCell[proto][kind]
			cell := fmt.Sprintf("%d ok", v[0])
			if v[1] > 0 {
				cell = fmt.Sprintf("%d ok, %d VIOLATION", v[0], v[1])
			}
			row = append(row, cell)
		}
		s := m.Summary[proto]
		row = append(row, s.Recovered, s.Detected, s.Violations)
		t.AddRow(row...)
	}
	t.AddNote("ok = recovered or loudly detected; any VIOLATION is a broken recovery contract")
	return t
}

// Counters are live sweep statistics, safe for concurrent update, for
// the /vars endpoint.
type Counters struct {
	Cells      atomic.Uint64
	Faults     atomic.Uint64
	Recovered  atomic.Uint64
	Detected   atomic.Uint64
	Violations atomic.Uint64
}

// RegisterMetrics exposes the counters on a telemetry registry.
func (c *Counters) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".cells", "crash cells completed", c.Cells.Load)
	reg.Counter(prefix+".injected", "faults injected", c.Faults.Load)
	reg.Counter(prefix+".recovered", "cells fully recovered", c.Recovered.Load)
	reg.Counter(prefix+".detected", "cells with loud corruption detection", c.Detected.Load)
	reg.Counter(prefix+".violations", "cells with invariant violations", c.Violations.Load)
}

func (c *Counters) observe(res CellResult) {
	if c == nil {
		return
	}
	c.Cells.Add(1)
	c.Faults.Add(uint64(len(res.Injections)))
	switch res.Status {
	case StatusRecovered.String():
		c.Recovered.Add(1)
	case StatusDetected.String():
		c.Detected.Add(1)
	default:
		c.Violations.Add(1)
	}
}

// Sweep explores the full (protocol × crash point × fault kind)
// product on the experiment engine. Per protocol it first probes one
// uncrashed run for the total cycle count, spreads Points crash cycles
// evenly across it, then runs every cell in parallel. The returned
// matrix is a pure function of the options: same options, byte-
// identical JSON at any pool width.
func Sweep(o SweepOptions) (*Matrix, error) {
	o = o.withDefaults()
	protos := append([]string(nil), o.Protocols...)
	sort.Strings(protos)
	eng := experiments.NewEngine(experiments.Options{Parallel: o.Parallel, Progress: o.Progress})
	wspec := o.workload()

	// Phase 1: probe each protocol's full-run length so crash points
	// land at meaningful fractions of its own timeline (protocols run
	// at very different speeds under the same trace).
	totals := make([]uint64, len(protos))
	probes := make([]experiments.Job, len(protos))
	for i, proto := range protos {
		i, proto := i, proto
		probes[i] = experiments.Job{
			Label: "probe/" + proto,
			Fn: func(ctx context.Context) error {
				res := RunCell(ctx, CellSpec{
					Protocol:          proto,
					Kind:              KindCrash,
					CrashCycle:        0, // full run, crash at quiescence
					MachineSeed:       o.Seed,
					RNGSeed:           cellSeed(o.Seed, proto, -1, KindCrash),
					SubtreeLevel:      o.SubtreeLevel,
					MemoryBytes:       o.MemoryBytes,
					Workload:          wspec,
					Deadline:          o.Deadline,
					PlainCrashMayFail: o.fragile(proto),
					Factory:           o.factory(proto),
				})
				if res.Error != "" {
					return fmt.Errorf("probe %s: %s", proto, res.Error)
				}
				totals[i] = res.CrashCycle
				return nil
			},
		}
	}
	if err := eng.Do(o.Context, probes...); err != nil {
		return nil, err
	}
	if o.Log != nil {
		for i, proto := range protos {
			fmt.Fprintf(o.Log, "probe %-12s %d cycles\n", proto, totals[i])
		}
	}

	// Phase 2: the full cell grid.
	kindNames := make([]string, len(o.Kinds))
	for i, k := range o.Kinds {
		kindNames[i] = k.String()
	}
	m := &Matrix{
		Seed:      o.Seed,
		Points:    o.Points,
		Kinds:     kindNames,
		Protocols: protos,
		Cells:     make([]CellResult, len(protos)*o.Points*len(o.Kinds)),
		Summary:   make(map[string]ProtocolSummary),
	}
	var emitMu sync.Mutex
	emit := func(e telemetry.Event) {
		emitMu.Lock()
		defer emitMu.Unlock()
		o.Trace.Emit(e)
	}
	var jobs []experiments.Job
	for pi, proto := range protos {
		for point := 0; point < o.Points; point++ {
			// Crash cycles at total*(i+1)/(points+1): strictly inside the
			// run, never at cycle 0 or quiescence.
			crash := totals[pi] * uint64(point+1) / uint64(o.Points+1)
			if crash == 0 {
				crash = 1
			}
			for ki, kind := range o.Kinds {
				idx := (pi*o.Points+point)*len(o.Kinds) + ki
				spec := CellSpec{
					Protocol:          proto,
					Kind:              kind,
					CrashCycle:        crash,
					MachineSeed:       o.Seed,
					RNGSeed:           cellSeed(o.Seed, proto, point, kind),
					SubtreeLevel:      o.SubtreeLevel,
					MemoryBytes:       o.MemoryBytes,
					Workload:          wspec,
					Deadline:          o.Deadline,
					PlainCrashMayFail: o.fragile(proto),
					Factory:           o.factory(proto),
					Emit:              emit,
				}
				jobs = append(jobs, experiments.Job{
					Label: fmt.Sprintf("cell/%s/%s@%d", proto, kind, crash),
					Fn: func(ctx context.Context) error {
						res := RunCell(ctx, spec)
						o.Counters.observe(res)
						m.Cells[idx] = res
						return nil
					},
				})
			}
		}
	}
	if err := eng.Do(o.Context, jobs...); err != nil {
		return nil, err
	}
	for _, c := range m.Cells {
		s := m.Summary[c.Protocol]
		switch c.Status {
		case StatusRecovered.String():
			s.Recovered++
		case StatusDetected.String():
			s.Detected++
		default:
			s.Violations++
		}
		m.Summary[c.Protocol] = s
	}
	return m, nil
}

// factory resolves a per-protocol override, nil for registry lookup.
func (o SweepOptions) factory(proto string) mee.Factory {
	if o.Factories == nil {
		return nil
	}
	return o.Factories[proto]
}
