package sim

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"amnt/internal/core"
	"amnt/internal/cpu"
	"amnt/internal/mee"
	"amnt/internal/scm"
	"amnt/internal/workload"
)

// smallConfig keeps runs fast: 64 MB memory and deliberately small
// caches so traffic reaches the memory controller.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 64 << 20
	cfg.Core.L1 = cpu.LevelConfig{SizeBytes: 4 << 10, Assoc: 4, HitCycles: 1}
	cfg.Core.L2 = cpu.LevelConfig{SizeBytes: 32 << 10, Assoc: 8, HitCycles: 12}
	cfg.Seed = 3
	return cfg
}

func tinySpec(name string, writeRatio float64) workload.Spec {
	return workload.Spec{
		Name: name, Suite: "test", FootprintBytes: 16 << 20,
		WriteRatio: writeRatio, GapMean: 10, Model: workload.Zipf,
		HotFraction: 0.25, ZipfS: 1.2, Accesses: 8_000,
	}
}

func TestRunProducesResult(t *testing.T) {
	res, err := Run(smallConfig(), mee.NewLeaf(), tinySpec("t", 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Accesses != 8000 {
		t.Fatalf("result = %+v", res)
	}
	if res.Policy != "leaf" {
		t.Fatalf("policy = %q", res.Policy)
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Fatal("no MEE traffic — caches too big or trace broken?")
	}
	if res.PageFaults == 0 {
		t.Fatal("demand paging never faulted")
	}
	if res.CyclesPerInstruction() <= 0 {
		t.Fatal("CPI not computed")
	}
	if res.L1HitRate <= 0 || res.L1HitRate > 1 {
		t.Fatalf("L1 hit rate = %v", res.L1HitRate)
	}
}

func TestDeterminism(t *testing.T) {
	r1, err := Run(smallConfig(), mee.NewLeaf(), tinySpec("t", 0.3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(smallConfig(), mee.NewLeaf(), tinySpec("t", 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Reads != r2.Reads || r1.Writes != r2.Writes {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

func TestProtocolOrdering(t *testing.T) {
	// The paper's fundamental ordering: volatile <= leaf < strict on a
	// write-heavy workload.
	spec := tinySpec("w", 0.5)
	run := func(p mee.Policy) uint64 {
		res, err := Run(smallConfig(), p, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	volatileC := run(mee.NewVolatile())
	leafC := run(mee.NewLeaf())
	strictC := run(mee.NewStrict())
	amntC := run(core.New())
	if !(volatileC <= leafC) {
		t.Fatalf("volatile (%d) should not exceed leaf (%d)", volatileC, leafC)
	}
	if !(leafC < strictC) {
		t.Fatalf("leaf (%d) should beat strict (%d)", leafC, strictC)
	}
	if amntC >= strictC {
		t.Fatalf("amnt (%d) should beat strict (%d)", amntC, strictC)
	}
}

func TestAMNTStatsSurface(t *testing.T) {
	res, err := Run(smallConfig(), core.New(), tinySpec("t", 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if res.SubtreeHitRate <= 0 {
		t.Fatalf("subtree hit rate = %v", res.SubtreeHitRate)
	}
}

// TestSubtreeStatsForEveryMovablePolicy: the result's subtree stats
// come from any policy that reports them, not only a bare *core.AMNT
// (indirect embeds it; amnt-multi is it with K registers).
func TestSubtreeStatsForEveryMovablePolicy(t *testing.T) {
	for _, name := range []string{"indirect", "amnt-multi"} {
		policy, err := PolicyByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(smallConfig(), policy, tinySpec("t", 0.4))
		if err != nil {
			t.Fatal(err)
		}
		if res.SubtreeHitRate <= 0 {
			t.Fatalf("%s: subtree hit rate = %v", name, res.SubtreeHitRate)
		}
	}
}

func TestMultiProgramRun(t *testing.T) {
	cfg := smallConfig()
	cfg.L3Bytes = 256 << 10
	cfg.StopAtFirstDone = true
	specA := tinySpec("a", 0.3)
	specB := tinySpec("b", 0.2)
	specB.Accesses = 12_000 // longer; run stops when A finishes
	res, err := Run(cfg, mee.NewLeaf(), specA, specB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 2 {
		t.Fatalf("workloads = %v", res.Workloads)
	}
	if res.Accesses >= 20_000 {
		t.Fatal("StopAtFirstDone did not stop early")
	}
	if res.Accesses < 8_000 {
		t.Fatal("run too short")
	}
}

func TestPageHistogramCollected(t *testing.T) {
	cfg := smallConfig()
	cfg.CollectPageHist = true
	res, err := Run(cfg, mee.NewVolatile(), tinySpec("t", 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if res.PageHist == nil || res.PageHist.Total() != 8000 {
		t.Fatal("page histogram missing or incomplete")
	}
}

func TestCrashRecoverDuringRun(t *testing.T) {
	cfg := smallConfig()
	m := NewMachine(cfg, core.New(), []workload.Spec{tinySpec("t", 0.5)})
	for i := 0; i < 4000; i++ {
		if done, err := m.Step(0); err != nil || done {
			t.Fatalf("step %d: done=%v err=%v", i, done, err)
		}
	}
	m.Crash()
	if _, err := m.Controller().Recover(m.Now()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	// NOTE: dirty CPU-cache data was legitimately lost in the crash
	// (the paper's protocols cover metadata consistency; data-level
	// crash consistency is the application's job via flushes). The
	// machine's version oracle would flag those as stale, so continue
	// with integrity-only verification.
	if err := m.Controller().VerifyAll(m.Now()); err != nil {
		t.Fatalf("post-crash integrity: %v", err)
	}
}

func TestDrainThenCrashKeepsData(t *testing.T) {
	cfg := smallConfig()
	m := NewMachine(cfg, mee.NewLeaf(), []workload.Spec{tinySpec("t", 0.5)})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.Controller().Recover(m.Now()); err != nil {
		t.Fatal(err)
	}
	if err := m.Controller().VerifyAll(m.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := name
		if name == "amnt++" {
			want = "amnt"
		}
		if p.Name() != want {
			t.Fatalf("PolicyByName(%s).Name() = %s", name, p.Name())
		}
	}
	if _, err := PolicyByName("bogus", 3); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("bogus policy error = %v", err)
	}
}

func TestAMNTPlusPlusRunsRestructure(t *testing.T) {
	cfg := smallConfig()
	cfg.AMNTPlusPlus = true
	cfg.PrefragmentChurn = 2000
	m := NewMachine(cfg, core.New(), []workload.Spec{tinySpec("t", 0.4)})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Restructure ran at boot (prefragment) — the kernel path is live.
	if m.Kernel().Config().SubtreeRegionPages == 0 {
		t.Fatal("subtree region pages not derived")
	}
}

func TestBlockContent(t *testing.T) {
	content := func(block uint64, version uint32) string {
		out := bytes.Repeat([]byte{0xAA}, scm.BlockSize)
		blockContent(out, block, version)
		return string(out)
	}
	if content(5, 0) != string(make([]byte, scm.BlockSize)) {
		t.Fatal("version 0 must be zeros")
	}
	a := content(5, 1)
	if a == content(5, 2) || a == content(6, 1) {
		t.Fatal("contents must differ by version and block")
	}
	if a != content(5, 1) {
		t.Fatal("content not deterministic")
	}
}

func TestReplayedTraceMatchesLiveRun(t *testing.T) {
	cfg := smallConfig()
	spec := tinySpec("replay", 0.4)

	live, err := Run(cfg, mee.NewLeaf(), spec)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	// The machine seeds trace i with Seed + i*7919; core 0 uses Seed.
	if err := workload.Record(spec, cfg.Seed, &buf); err != nil {
		t.Fatal(err)
	}
	rec, err := workload.OpenRecorded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachineWithSources(cfg, mee.NewLeaf(), []workload.Source{rec})
	replayed, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Cycles != live.Cycles || replayed.Reads != live.Reads || replayed.Writes != live.Writes {
		t.Fatalf("replay diverged: live %+v vs replay %+v", live, replayed)
	}
}

func TestDump(t *testing.T) {
	res, err := Run(smallConfig(), core.New(), tinySpec("t", 0.3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Begin Simulation Statistics (amnt / t)",
		"sim.cycles", "system.mee.meta_hit_rate", "system.os.page_faults",
		"End Simulation Statistics",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestTamperSurfacesThroughMachine(t *testing.T) {
	cfg := smallConfig()
	m := NewMachine(cfg, mee.NewLeaf(), []workload.Spec{tinySpec("t", 0.5)})
	for i := 0; i < 3000; i++ {
		if _, err := m.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	// Physical attacker corrupts a persisted counter mid-run; the very
	// next fetch of that counter must fail the tree walk.
	dev := m.Controller().Device()
	idxs := dev.Indices(scm.Counter)
	if len(idxs) == 0 {
		t.Fatal("no persisted counters to attack")
	}
	for _, idx := range idxs {
		dev.TamperByte(scm.Counter, idx, 5, 0xA5)
		m.Controller().DropCached(mee.CounterKey(idx))
	}
	var sawViolation bool
	for i := 0; i < 5000; i++ {
		if _, err := m.Step(0); err != nil {
			sawViolation = true
			break
		}
	}
	if !sawViolation {
		t.Fatal("tampering never surfaced through the machine")
	}
}

// TestBMFCellIsBitIdentical runs one bmf cell repeatedly and requires
// every field of the result to repeat. Uniform writes over a small
// footprint touch the forest's roots about equally often, so most
// maintenance intervals choose the root to prune among exact ties;
// the choice once followed map iteration order, and Figure 4's bmf
// column moved between identical runs.
func TestBMFCellIsBitIdentical(t *testing.T) {
	spec := workload.Spec{
		Name: "uniform", Suite: "test", FootprintBytes: 4 << 20,
		WriteRatio: 1, GapMean: 4, Model: workload.Chase, Accesses: 40_000,
	}
	first, err := Run(smallConfig(), mee.NewBMF(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.PolicyCycles == 0 {
		t.Fatal("bmf never ran its prune/merge maintenance; the cell decides nothing")
	}
	for i := 0; i < 4; i++ {
		again, err := Run(smallConfig(), mee.NewBMF(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d of the same bmf cell differs:\n%+v\n%+v", i+2, first, again)
		}
	}
}

// steadyMachine returns a one-core machine running protocol over a
// footprint small enough that warm-up touches all of it: every page is
// mapped, every block has been stored to and written back, so from
// here on an access creates nothing — it only moves state around.
func steadyMachine(tb testing.TB, protocol string) *Machine {
	tb.Helper()
	policy, err := PolicyByName(protocol, 3)
	if err != nil {
		tb.Fatal(err)
	}
	spec := workload.Spec{
		Name: "steady", Suite: "test", FootprintBytes: 1 << 20,
		WriteRatio: 0.5, GapMean: 10, Model: workload.Chase, Accesses: 1 << 40,
	}
	m := NewMachine(smallConfig(), policy, []workload.Spec{spec})
	stepN(tb, m, 400_000)
	return m
}

func stepN(tb testing.TB, m *Machine, n int) {
	for i := 0; i < n; i++ {
		if _, err := m.Step(0); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestMachineStepNoAllocs pins the per-access path off the heap: in
// steady state a Step allocates nothing, whatever the protocol's
// metadata traffic (leaf: posted persists; amnt: subtree register;
// amnt-multi: K registers and their movements; anubis: a blocking
// shadow-table write per metadata fill).
func TestMachineStepNoAllocs(t *testing.T) {
	for _, protocol := range []string{"leaf", "amnt", "amnt-multi", "anubis"} {
		t.Run(protocol, func(t *testing.T) {
			m := steadyMachine(t, protocol)
			before := m.Controller().Stats().MetaFetches.Value()
			// AllocsPerRun counts the whole process: take the quietest of
			// three windows, so a goroutine an earlier test left behind
			// cannot fail the guard, while an allocation on the access
			// path — deterministic, so present in every window — still does.
			allocs := math.Inf(1)
			for window := 0; window < 3 && allocs != 0; window++ {
				allocs = min(allocs, testing.AllocsPerRun(1, func() { stepN(t, m, 10_000) }))
			}
			if allocs != 0 {
				t.Fatalf("%v allocations in 10000 steady-state steps, want 0", allocs)
			}
			if m.Controller().Stats().MetaFetches.Value() == before {
				t.Fatal("no metadata misses while measuring: the guard saw only the hit path")
			}
		})
	}
}

// BenchmarkMachineStep reports host time and heap allocations per
// simulated access, per protocol.
func BenchmarkMachineStep(b *testing.B) {
	for _, protocol := range []string{"volatile", "leaf", "strict", "anubis", "bmf", "amnt", "amnt-multi"} {
		b.Run(protocol, func(b *testing.B) {
			m := steadyMachine(b, protocol)
			b.ReportAllocs()
			b.ResetTimer()
			stepN(b, m, b.N)
		})
	}
}
