package faults_test

import (
	"bytes"
	"context"
	"sort"
	"testing"
	"time"

	"amnt/internal/faults"
	"amnt/internal/mee"
	"amnt/internal/scm"
	"amnt/internal/sim"
	"amnt/internal/telemetry"
	"amnt/internal/workload"

	_ "amnt/internal/core" // register the AMNT protocol family
)

const testMem = 8 << 20

// testWorkload is a short fill trace: enough writes that every region
// holds blocks and the write queue stays busy, short enough that a
// cell runs in tens of milliseconds.
func testWorkload(accesses uint64) workload.Spec {
	return workload.Spec{
		Name: "fill", Suite: "bench", FootprintBytes: testMem / 2,
		WriteRatio: 0.6, GapMean: 2, Model: workload.Chase,
		Accesses: accesses,
	}
}

// crashedMachine runs proto's machine to completion and crashes it.
func crashedMachine(t *testing.T, proto string) *sim.Machine {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.MemoryBytes = testMem
	cfg.Seed = 1
	cfg.AMNTPlusPlus = proto == "amnt++"
	policy, err := sim.PolicyByName(proto, cfg.SubtreeLevel)
	if err != nil {
		t.Fatalf("policy %s: %v", proto, err)
	}
	m := sim.NewMachine(cfg, policy, []workload.Spec{testWorkload(2500)})
	if _, err := m.Run(); err != nil {
		t.Fatalf("%s run: %v", proto, err)
	}
	m.Crash()
	return m
}

// TestPlainCrashEveryProtocol crashes every registered protocol
// mid-run with no injected fault: crash-consistent protocols must
// recover cleanly; the volatile baseline may fail loudly but never
// violate an invariant.
func TestPlainCrashEveryProtocol(t *testing.T) {
	for _, proto := range mee.Registered() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			res := faults.RunCell(context.Background(), faults.CellSpec{
				Protocol:          proto,
				Kind:              faults.KindCrash,
				CrashCycle:        400_000,
				MachineSeed:       1,
				RNGSeed:           7,
				MemoryBytes:       testMem,
				Workload:          testWorkload(2500),
				PlainCrashMayFail: proto == "volatile",
			})
			if res.Status == faults.StatusViolation.String() {
				t.Fatalf("plain crash violated invariants: %v (err=%s)", res.Violations, res.Error)
			}
			if proto != "volatile" && res.Status != faults.StatusRecovered.String() {
				t.Fatalf("status = %s (recovery err %q), want recovered", res.Status, res.RecoveryErr)
			}
		})
	}
}

// TestTamperByteDetectedEveryProtocol is the tamper-detection property
// table: for every registered protocol and every populated region
// class, a single flipped bit in a stored block must be repaired or
// loudly detected by recovery + whole-memory verification — never
// silently accepted.
func TestTamperByteDetectedEveryProtocol(t *testing.T) {
	regions := []scm.Region{scm.Counter, scm.Tree, scm.Data}
	for _, proto := range mee.Registered() {
		for _, region := range regions {
			proto, region := proto, region
			t.Run(proto+"/"+region.String(), func(t *testing.T) {
				t.Parallel()
				m := crashedMachine(t, proto)
				dev := m.Controller().Device()
				indices := dev.Indices(region)
				if len(indices) == 0 {
					t.Skipf("no %s blocks persisted by %s", region, proto)
				}
				sort.Slice(indices, func(a, b int) bool { return indices[a] < indices[b] })
				idx := indices[len(indices)/2]
				orig := dev.Peek(region, idx)
				if !dev.TamperByte(region, idx, 3, 0x10) {
					t.Fatalf("tamper %s[%d] failed", region, idx)
				}
				oc := faults.CheckRecovery(context.Background(), m.Controller(), m.Now(), faults.CheckOptions{
					Injections: []faults.Injection{{
						Kind: faults.KindBitRot, Region: region, RegionName: region.String(),
						Index: idx, Offset: 3, Mask: 0x10, Original: orig,
					}},
					PlainCrashMayFail: proto == "volatile",
				})
				if oc.Status == faults.StatusViolation {
					t.Fatalf("tampered %s[%d] violated invariants: %v", region, idx, oc.Violations)
				}
			})
		}
	}
}

// TestSweepDeterministic runs the same small matrix twice and requires
// byte-identical JSON — the property that makes a crash-matrix diff
// meaningful across commits — and zero violations from correct
// protocols.
func TestSweepDeterministic(t *testing.T) {
	run := func() *faults.Matrix {
		// 12k accesses: past the cache hierarchy's capacity, so dirty
		// evictions populate the device and every fault kind has
		// material to corrupt at the later crash points.
		m, err := faults.Sweep(faults.SweepOptions{
			Protocols:   []string{"leaf", "strict"},
			Points:      2,
			Seed:        42,
			MemoryBytes: testMem,
			Accesses:    12_000,
			Parallel:    4,
		})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return m
	}
	a, b := run(), run()
	var ab, bb bytes.Buffer
	if err := a.WriteJSON(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatalf("matrix JSON not deterministic:\n--- run 1\n%s\n--- run 2\n%s", ab.String(), bb.String())
	}
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("correct protocols violated invariants: %v", v)
	}
	if len(a.Cells) != 2*2*len(faults.Kinds()) {
		t.Fatalf("cells = %d, want %d", len(a.Cells), 2*2*len(faults.Kinds()))
	}
}

// panicPolicy declares a recovery whose pre-pass panics; hangPolicy's
// never returns. Both wrap a real protocol so the run phase behaves
// normally.
type panicPolicy struct{ mee.Policy }

func (panicPolicy) Name() string { return "panicky" }
func (p panicPolicy) RecoveryPlan() mee.RecoveryPlan {
	plan := p.Policy.RecoveryPlan()
	plan.Prepass = func(*mee.RecoveryReport) error { panic("injected recovery panic") }
	return plan
}

type hangPolicy struct{ mee.Policy }

func (hangPolicy) Name() string { return "hangy" }
func (p hangPolicy) RecoveryPlan() mee.RecoveryPlan {
	plan := p.Policy.RecoveryPlan()
	plan.Prepass = func(*mee.RecoveryReport) error {
		select {} // wedge forever; the checker's deadline abandons us
	}
	return plan
}

// TestSweepIsolatesPanicAndHang injects a panicking and a hanging
// protocol (via the Factories hook, not the global registry) next to a
// correct one: each adversarial cell must fail as a violation of that
// cell only, with the correct protocol's cells untouched.
func TestSweepIsolatesPanicAndHang(t *testing.T) {
	wrap := func(mk func(mee.Policy) mee.Policy) mee.Factory {
		return func(opts mee.PolicyOptions) mee.Policy {
			inner, err := mee.NewPolicy("strict", opts)
			if err != nil {
				panic(err)
			}
			return mk(inner)
		}
	}
	var trace telemetry.Tracer
	m, err := faults.Sweep(faults.SweepOptions{
		Protocols:   []string{"panicky", "hangy", "strict"},
		Kinds:       []faults.Kind{faults.KindCrash},
		Points:      1,
		Seed:        3,
		MemoryBytes: testMem,
		Accesses:    1500,
		Parallel:    4,
		Deadline:    300 * time.Millisecond,
		Trace:       &trace,
		Factories: map[string]mee.Factory{
			"panicky": wrap(func(p mee.Policy) mee.Policy { return panicPolicy{p} }),
			"hangy":   wrap(func(p mee.Policy) mee.Policy { return hangPolicy{p} }),
		},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if s := m.Summary["panicky"]; s.Violations == 0 {
		t.Fatalf("panicking protocol not flagged: %+v", s)
	}
	if s := m.Summary["hangy"]; s.Violations == 0 {
		t.Fatalf("hanging protocol not flagged: %+v", s)
	}
	if s := m.Summary["strict"]; s.Violations != 0 || s.Recovered == 0 {
		t.Fatalf("correct protocol damaged by adversarial siblings: %+v", s)
	}
	var violations int
	for _, e := range trace.Events() {
		if e.Kind == telemetry.EvInvariantViolation {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("no EvInvariantViolation events emitted")
	}
}

// TestSweepCountersAndEvents checks the live counter and EvFault
// plumbing on a tiny injected sweep.
func TestSweepCountersAndEvents(t *testing.T) {
	var trace telemetry.Tracer
	var counters faults.Counters
	m, err := faults.Sweep(faults.SweepOptions{
		Protocols:   []string{"leaf"},
		Kinds:       []faults.Kind{faults.KindBitRot},
		Points:      2,
		Seed:        5,
		MemoryBytes: testMem,
		Accesses:    12_000,
		Parallel:    2,
		Trace:       &trace,
		Counters:    &counters,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if v := m.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if counters.Cells.Load() != 2 {
		t.Fatalf("cells counter = %d, want 2", counters.Cells.Load())
	}
	if counters.Faults.Load() == 0 {
		t.Fatal("no faults counted despite bitrot kind")
	}
	var evFaults int
	for _, e := range trace.Events() {
		if e.Kind == telemetry.EvFault {
			evFaults++
		}
	}
	if uint64(evFaults) != counters.Faults.Load() {
		t.Fatalf("EvFault events = %d, counter = %d", evFaults, counters.Faults.Load())
	}
	// Every injected bit flip must have been repaired or detected.
	for _, c := range m.Cells {
		if c.Status == faults.StatusRecovered.String() {
			for i, r := range c.Resolutions {
				if r == "forged" {
					t.Fatalf("cell %s/%s injection %d silently accepted", c.Protocol, c.Kind, i)
				}
			}
		}
	}
}

// TestInjectorTornWrite exercises the torn-write path directly: the
// torn block must hold the new prefix and the pre-image suffix.
func TestInjectorTornWrite(t *testing.T) {
	res := faults.RunCell(context.Background(), faults.CellSpec{
		Protocol:    "leaf",
		Kind:        faults.KindTorn,
		CrashCycle:  4_000_000,
		MachineSeed: 1,
		RNGSeed:     11,
		MemoryBytes: testMem,
		Workload:    testWorkload(12_000),
	})
	if res.Status == faults.StatusViolation.String() {
		t.Fatalf("torn write violated invariants: %v", res.Violations)
	}
	if len(res.Injections) == 0 {
		t.Skip("no write in flight at the chosen crash point")
	}
	in := res.Injections[0]
	if in.Cut%8 != 0 || in.Cut < 8 || in.Cut > scm.BlockSize-8 {
		t.Fatalf("torn cut %d not word-granular inside the block", in.Cut)
	}
}
