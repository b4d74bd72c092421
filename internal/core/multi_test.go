package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"amnt/internal/mee"
	"amnt/internal/scm"
)

func newMulti(k, level int) (*AMNT, *mee.Controller) {
	m := New(WithLevel(level), WithRegisters(k))
	c := mee.New(testDevice(), mee.DefaultConfig(), m)
	return m, c
}

func TestMultiDefaultsAndClamps(t *testing.T) {
	m, _ := newMulti(0, 3)
	if len(m.regs) != 1 {
		t.Fatalf("k = %d, want clamp to 1", len(m.regs))
	}
	// More registers than regions clamps to the region count.
	m2, _ := newMulti(100, 2) // level 2 => 8 regions
	if len(m2.regs) != 8 {
		t.Fatalf("k = %d, want clamp to 8", len(m2.regs))
	}
	m3, _ := newMulti(4, 1) // level 1 => the root is the only region
	if len(m3.regs) != 1 {
		t.Fatalf("k = %d at level 1, want 1", len(m3.regs))
	}
}

func TestMultiOverheadScalesWithK(t *testing.T) {
	m1, _ := newMulti(1, 3)
	m4, _ := newMulti(4, 3)
	if m4.Overhead().NVOnChipBytes != 4*m1.Overhead().NVOnChipBytes {
		t.Fatalf("NV overhead should scale with K: %d vs %d",
			m4.Overhead().NVOnChipBytes, m1.Overhead().NVOnChipBytes)
	}
}

func TestMultiCoversTwoHotRegions(t *testing.T) {
	// Two interleaved hot regions (5 and 9): K=1 thrashes, K=2 covers
	// both.
	run := func(k int) float64 {
		m, c := newMulti(k, 3)
		for i := uint64(0); i < 2000; i++ {
			region := uint64(5)
			if i%2 == 1 {
				region = 9
			}
			b := region*512 + (i % 512)
			if _, err := c.WriteBlock(0, b, pattern(byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		return m.SubtreeHitRate()
	}
	k1 := run(1)
	k2 := run(2)
	if k2 <= k1 {
		t.Fatalf("K=2 hit rate (%.3f) should beat K=1 (%.3f) on two hot regions", k2, k1)
	}
	if k2 < 0.9 {
		t.Fatalf("K=2 should cover both regions, hit rate %.3f", k2)
	}
}

func TestMultiCrashRecovery(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		_, c := newMulti(k, 3)
		rng := rand.New(rand.NewSource(int64(k)))
		want := make(map[uint64][]byte)
		for i := 0; i < 400; i++ {
			// Concentrate on a few regions so the fast set engages.
			b := uint64(rng.Intn(3))*512*4 + uint64(rng.Intn(2048))
			data := pattern(byte(rng.Int()))
			if _, err := c.WriteBlock(uint64(i), b, data); err != nil {
				t.Fatalf("k=%d write: %v", k, err)
			}
			want[b] = data
		}
		c.Crash()
		rep, err := c.Recover(0)
		if err != nil {
			t.Fatalf("k=%d recovery: %v", k, err)
		}
		wantStale := float64(k) / 64
		if rep.StaleFraction != wantStale {
			t.Fatalf("k=%d stale = %v, want %v", k, rep.StaleFraction, wantStale)
		}
		if err := c.VerifyAll(0); err != nil {
			t.Fatalf("k=%d post-recovery: %v", k, err)
		}
		got := make([]byte, scm.BlockSize)
		for b, data := range want {
			if _, err := c.ReadBlock(0, b, got); err != nil {
				t.Fatalf("k=%d block %d: %v", k, b, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("k=%d block %d lost", k, b)
			}
		}
	}
}

func TestMultiRandomizedCrashConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	_, c := newMulti(2, 3)
	want := make(map[uint64][]byte)
	got := make([]byte, scm.BlockSize)
	for op := 0; op < 1500; op++ {
		switch r := rng.Intn(100); {
		case r < 55:
			b := uint64(rng.Intn(4096))
			data := pattern(byte(rng.Int()))
			if _, err := c.WriteBlock(uint64(op), b, data); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			want[b] = data
		case r < 96:
			b := uint64(rng.Intn(4096))
			if _, err := c.ReadBlock(uint64(op), b, got); err != nil {
				t.Fatalf("op %d read: %v", op, err)
			}
		default:
			c.Crash()
			if _, err := c.Recover(0); err != nil {
				t.Fatalf("op %d recover: %v", op, err)
			}
		}
	}
	for b, data := range want {
		if _, err := c.ReadBlock(0, b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %d lost", b)
		}
	}
}

func TestMultiTamperDetected(t *testing.T) {
	_, c := newMulti(2, 3)
	for i := uint64(0); i < 100; i++ {
		if _, err := c.WriteBlock(0, i*40, pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash()
	idxs := c.Device().Indices(scm.Counter)
	c.Device().TamperByte(scm.Counter, idxs[0], 1, 0x3C)
	_, err := c.Recover(0)
	if err == nil {
		err = c.VerifyAll(0)
	}
	if err == nil {
		t.Fatal("tamper survived multi-subtree recovery")
	}
}

func TestIndirectChargesLookups(t *testing.T) {
	p := NewIndirect(WithLevel(3))
	c := mee.New(testDevice(), mee.DefaultConfig(), p)
	for i := uint64(0); i < 200; i++ {
		if _, err := c.WriteBlock(0, i%512, pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, scm.BlockSize)
	for i := uint64(0); i < 200; i++ {
		if _, err := c.ReadBlock(0, i%512, got); err != nil {
			t.Fatal(err)
		}
	}
	if p.Lookups() != 400 {
		t.Fatalf("lookups = %d, want one per access (400)", p.Lookups())
	}
	if p.Overhead().InMemoryBytes == 0 {
		t.Fatal("indirection table must report in-memory overhead")
	}
}

func TestIndirectCostsMoreThanAMNT(t *testing.T) {
	run := func(p mee.Policy) uint64 {
		c := mee.New(testDevice(), mee.DefaultConfig(), p)
		var total uint64
		// Scattered accesses: indirection entries miss the cache.
		for i := uint64(0); i < 1000; i++ {
			cycles, err := c.WriteBlock(total, (i*389)%32768, pattern(byte(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += cycles
		}
		return total
	}
	amnt := run(New(WithLevel(3)))
	indirect := run(NewIndirect(WithLevel(3)))
	if indirect <= amnt {
		t.Fatalf("indirect (%d) should cost more than amnt (%d) — the lookup is not free", indirect, amnt)
	}
}

func TestIndirectCrashRecovery(t *testing.T) {
	p := NewIndirect(WithLevel(3))
	c := mee.New(testDevice(), mee.DefaultConfig(), p)
	want := make(map[uint64][]byte)
	for i := uint64(0); i < 300; i++ {
		b := (i * 41) % 4096
		data := pattern(byte(i))
		if _, err := c.WriteBlock(0, b, data); err != nil {
			t.Fatal(err)
		}
		want[b] = data
	}
	c.Crash()
	rep, err := c.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Protocol != "indirect" {
		t.Fatalf("report protocol = %q", rep.Protocol)
	}
	got := make([]byte, scm.BlockSize)
	for b, data := range want {
		if _, err := c.ReadBlock(0, b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %d lost", b)
		}
	}
}

// TestReadViewOffOnlyForIndirect: of every registered protocol, only
// indirect has a data-read hook, so only it is kept off mee's
// concurrent read view.
func TestReadViewOffOnlyForIndirect(t *testing.T) {
	names := mee.Registered()
	if !slices.Contains(names, "indirect") {
		t.Fatalf("indirect is not registered: %v", names)
	}
	for _, name := range names {
		p, err := mee.NewPolicy(name, mee.PolicyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		c := mee.New(testDevice(), mee.DefaultConfig(), p)
		if got, want := c.ConcurrentReadsSupported(), name != "indirect"; got != want {
			t.Errorf("%s: ConcurrentReadsSupported() = %v, want %v", name, got, want)
		}
	}
}
