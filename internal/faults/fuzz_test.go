package faults_test

import (
	"context"
	"sort"
	"testing"

	"amnt/internal/cpu"
	"amnt/internal/faults"
	"amnt/internal/mee"
	"amnt/internal/scm"
	"amnt/internal/sim"
	"amnt/internal/workload"

	_ "amnt/internal/core" // register the AMNT protocol family
)

// fuzzMem keeps per-execution machines cheap: a 4 MiB device filled by
// a 2000-access trace builds and crashes in a few milliseconds.
const fuzzMem = 4 << 20

// FuzzRecoveryCorruptDevice is the recovery-robustness fuzz target:
// for any registered protocol, any persisted region, any block, and
// any single-byte corruption, crash recovery must either succeed with
// every invariant intact or fail with a loud integrity error — never
// panic, never hang, and never adopt a root the persisted counters
// cannot reproduce.
func FuzzRecoveryCorruptDevice(f *testing.F) {
	protos := mee.Registered()
	f.Add(uint8(0), uint8(0), uint64(0), uint8(0), uint8(0x01))
	f.Add(uint8(3), uint8(1), uint64(7), uint8(3), uint8(0x10))
	f.Add(uint8(7), uint8(2), uint64(41), uint8(63), uint8(0x80))
	f.Add(uint8(11), uint8(3), uint64(97), uint8(17), uint8(0xff))
	f.Add(uint8(5), uint8(4), uint64(13), uint8(32), uint8(0x40))
	f.Fuzz(func(t *testing.T, protoSel, regionSel uint8, idxSeed uint64, offset, mask uint8) {
		proto := protos[int(protoSel)%len(protos)]
		regions := []scm.Region{scm.Data, scm.Counter, scm.HMAC, scm.Tree, scm.Shadow}
		region := regions[int(regionSel)%len(regions)]
		if mask == 0 {
			mask = 0x01 // a zero mask is a no-op, not a corruption
		}
		off := int(offset) % scm.BlockSize

		cfg := sim.DefaultConfig()
		cfg.MemoryBytes = fuzzMem
		cfg.Seed = 1
		if proto == "amnt++" {
			cfg.AMNTPlusPlusLevel = 3
		}
		// Tiny cache hierarchy: paper-sized caches absorb a 2000-access
		// trace entirely, leaving every region empty and nothing to
		// corrupt. Small caches push dirty evictions to the device.
		cfg.Core = cpu.Config{
			L1: cpu.LevelConfig{SizeBytes: 4 << 10, Assoc: 4, HitCycles: 1},
			L2: cpu.LevelConfig{SizeBytes: 16 << 10, Assoc: 8, HitCycles: 12},
		}
		policy, err := sim.PolicyByName(proto, 3)
		if err != nil {
			t.Fatalf("policy %s: %v", proto, err)
		}
		spec := workload.Spec{
			Name: "fill", Suite: "bench", FootprintBytes: fuzzMem / 2,
			WriteRatio: 0.6, GapMean: 2, Model: workload.Chase,
			Accesses: 2000,
		}
		m := sim.NewMachine(cfg, policy, []workload.Spec{spec})
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s run: %v", proto, err)
		}
		m.Crash()

		dev := m.Controller().Device()
		indices := dev.Indices(region)
		if len(indices) == 0 {
			t.Skipf("no %s blocks persisted by %s", region, proto)
		}
		sort.Slice(indices, func(a, b int) bool { return indices[a] < indices[b] })
		idx := indices[idxSeed%uint64(len(indices))]
		orig := dev.Peek(region, idx)
		if !dev.TamperByte(region, idx, off, mask) {
			t.Fatalf("tamper %s[%d]+%d failed", region, idx, off)
		}

		oc := faults.CheckRecovery(context.Background(), m.Controller(), m.Now(), faults.CheckOptions{
			Injections: []faults.Injection{{
				Kind: faults.KindBitRot, Region: region, RegionName: region.String(),
				Index: idx, Offset: off, Mask: mask, Original: orig,
			}},
			PlainCrashMayFail: proto == "volatile",
		})
		if oc.Status == faults.StatusViolation {
			t.Fatalf("%s: corrupting %s[%d]+%d mask %#x violated invariants: %v",
				proto, region, idx, off, mask, oc.Violations)
		}
	})
}
