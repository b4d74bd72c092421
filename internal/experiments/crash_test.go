package experiments

import (
	"bytes"
	"testing"
	"time"

	"amnt/internal/faults"
	"amnt/internal/mee"
	"amnt/internal/telemetry"
)

// crashTestMem keeps sweep cells short: an 8 MiB device.
const crashTestMem = 8 << 20

// TestSweepDeterministic runs the same small matrix twice and requires
// byte-identical JSON — the property that makes a crash-matrix diff
// meaningful across commits — and zero violations from correct
// protocols.
func TestSweepDeterministic(t *testing.T) {
	run := func() *Matrix {
		// 12k accesses: past the cache hierarchy's capacity, so dirty
		// evictions populate the device and every fault kind has
		// material to corrupt at the later crash points.
		m, err := Sweep(SweepOptions{
			Protocols:   []string{"leaf", "strict"},
			Points:      2,
			Seed:        42,
			MemoryBytes: crashTestMem,
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
	m, err := Sweep(SweepOptions{
		Protocols:   []string{"panicky", "hangy", "strict"},
		Kinds:       []faults.Kind{faults.KindCrash},
		Points:      1,
		Seed:        3,
		MemoryBytes: crashTestMem,
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
	var counters Counters
	m, err := Sweep(SweepOptions{
		Protocols:   []string{"leaf"},
		Kinds:       []faults.Kind{faults.KindBitRot},
		Points:      2,
		Seed:        5,
		MemoryBytes: crashTestMem,
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
