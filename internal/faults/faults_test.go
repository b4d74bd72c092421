package faults_test

import (
	"context"
	"sort"
	"testing"

	"amnt/internal/experiments"
	"amnt/internal/faults"
	"amnt/internal/mee"
	"amnt/internal/scm"
	"amnt/internal/sim"
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

// testMachine is the crash cell's machine on a testMem device.
func testMachine() sim.Config {
	cfg := experiments.CrashMachine()
	cfg.MemoryBytes = testMem
	return cfg
}

// crashedMachine runs proto's machine to completion and crashes it.
func crashedMachine(t *testing.T, proto string) *sim.Machine {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.MemoryBytes = testMem
	cfg.Seed = 1
	if proto == "amnt++" {
		cfg.AMNTPlusPlusLevel = 3
	}
	policy, err := sim.PolicyByName(proto, 3)
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
			res := experiments.RunCell(context.Background(), experiments.CellSpec{
				Protocol:          proto,
				Kind:              faults.KindCrash,
				CrashCycle:        400_000,
				Machine:           testMachine(),
				RNGSeed:           7,
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

// TestInjectorTornWrite exercises the torn-write path directly: the
// torn block must hold the new prefix and the pre-image suffix.
func TestInjectorTornWrite(t *testing.T) {
	res := experiments.RunCell(context.Background(), experiments.CellSpec{
		Protocol:   "leaf",
		Kind:       faults.KindTorn,
		CrashCycle: 4_000_000,
		Machine:    testMachine(),
		RNGSeed:    11,
		Workload:   testWorkload(12_000),
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
