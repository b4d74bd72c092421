// Benchmark harness: one benchmark per table and figure in the
// paper's evaluation (§6), plus controller micro-benchmarks. Each
// experiment benchmark runs its driver end to end at a reduced trace
// scale (set AMNT_BENCH_SCALE to change it; cmd/amntbench runs the
// same drivers at full scale) and reports the experiment's headline
// number as a custom metric so regressions in the reproduced result —
// not just in wall-clock speed — are visible.
package amnt_test

import (
	"os"
	"strconv"
	"testing"

	"amnt/internal/core"
	"amnt/internal/experiments"
	"amnt/internal/mee"
	"amnt/internal/recovery"
	"amnt/internal/scm"
	"amnt/internal/sim"
	"amnt/internal/stats"
	"amnt/internal/workload"
)

// benchScale returns the trace-length multiplier for experiment
// benchmarks (default 0.1).
func benchScale() float64 {
	if s := os.Getenv("AMNT_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

func benchOpts() experiments.Options {
	return experiments.Options{Scale: benchScale(), Seed: 1}
}

// runDriver runs one experiment driver and returns its first table.
func runDriver(o experiments.Options, d experiments.Driver) (*stats.Table, error) {
	tables, err := experiments.Run(o, d)
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// meanOf extracts a named column from a table's "mean" row.
func meanOf(b *testing.B, t *stats.Table, col string) float64 {
	b.Helper()
	header := t.Header()
	idx := -1
	for i, h := range header {
		if h == col {
			idx = i
		}
	}
	if idx < 0 {
		b.Fatalf("no column %q", col)
	}
	rows := t.Rows()
	last := rows[len(rows)-1]
	v, err := strconv.ParseFloat(last[idx], 64)
	if err != nil {
		b.Fatalf("mean cell %q: %v", last[idx], err)
	}
	return v
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runDriver(benchOpts(), experiments.Figure3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	var amnt, strict float64
	for i := 0; i < b.N; i++ {
		t, err := runDriver(benchOpts(), experiments.Figure4)
		if err != nil {
			b.Fatal(err)
		}
		amnt = meanOf(b, t, "amnt")
		strict = meanOf(b, t, "strict")
	}
	b.ReportMetric(amnt, "amnt-mean-norm")
	b.ReportMetric(strict, "strict-mean-norm")
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runDriver(benchOpts(), experiments.Figure5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigures6And7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runDriver(benchOpts(), experiments.Figures6And7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	// The four-core SPEC configuration has an 8 MB shared L3; traces
	// shorter than ~60k accesses never pressure it, so this benchmark
	// enforces a scale floor to keep the reported metric meaningful.
	opts := benchOpts()
	if opts.Scale < 0.3 {
		opts.Scale = 0.3
	}
	var amnt, anubis float64
	for i := 0; i < b.N; i++ {
		t, err := runDriver(opts, experiments.Figure8)
		if err != nil {
			b.Fatal(err)
		}
		amnt = meanOf(b, t, "amnt")
		anubis = meanOf(b, t, "anubis")
	}
	b.ReportMetric(amnt, "amnt-mean-norm")
	b.ReportMetric(anubis, "anubis-mean-norm")
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runDriver(benchOpts(), experiments.Table2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runDriver(benchOpts(), experiments.Table3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	var leaf2TB float64
	for i := 0; i < b.N; i++ {
		if _, err := runDriver(benchOpts(), experiments.Table4); err != nil {
			b.Fatal(err)
		}
		leaf2TB = float64(recovery.DefaultModel().Leaf(2e12).Milliseconds())
	}
	b.ReportMetric(leaf2TB, "leaf-2TB-recovery-ms")
}

func BenchmarkTable4Measured(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runDriver(benchOpts(), experiments.Table4Measured); err != nil {
			b.Fatal(err)
		}
	}
}

// --- controller micro-benchmarks ---------------------------------------

func benchPolicies() map[string]func() mee.Policy {
	return map[string]func() mee.Policy{
		"volatile": func() mee.Policy { return mee.NewVolatile() },
		"strict":   func() mee.Policy { return mee.NewStrict() },
		"leaf":     func() mee.Policy { return mee.NewLeaf() },
		"osiris":   func() mee.Policy { return mee.NewOsiris(4) },
		"anubis":   func() mee.Policy { return mee.NewAnubis() },
		"bmf":      func() mee.Policy { return mee.NewBMF() },
		"amnt":     func() mee.Policy { return core.New() },
	}
}

func BenchmarkWriteBlock(b *testing.B) {
	for name, mk := range benchPolicies() {
		b.Run(name, func(b *testing.B) {
			dev := scm.New(scm.Config{CapacityBytes: 64 << 20})
			ctrl := mee.New(dev, mee.DefaultConfig(), mk())
			buf := make([]byte, scm.BlockSize)
			b.SetBytes(scm.BlockSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ctrl.WriteBlock(uint64(i), uint64(i)%65536, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReadBlock(b *testing.B) {
	dev := scm.New(scm.Config{CapacityBytes: 64 << 20})
	ctrl := mee.New(dev, mee.DefaultConfig(), mee.NewLeaf())
	buf := make([]byte, scm.BlockSize)
	for i := 0; i < 65536; i++ {
		if _, err := ctrl.WriteBlock(0, uint64(i), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(scm.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.ReadBlock(uint64(i), uint64(i)%65536, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrashRecovery(b *testing.B) {
	for name, mk := range benchPolicies() {
		if name == "volatile" {
			continue // cannot recover by design
		}
		b.Run(name, func(b *testing.B) {
			dev := scm.New(scm.Config{CapacityBytes: 64 << 20})
			ctrl := mee.New(dev, mee.DefaultConfig(), mk())
			buf := make([]byte, scm.BlockSize)
			for i := 0; i < 20000; i++ {
				if _, err := ctrl.WriteBlock(0, uint64(i*13)%65536, buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctrl.Crash()
				if _, err := ctrl.Recover(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatedWorkload reports simulator throughput (accesses
// per second of host time) for the default workload under AMNT.
func BenchmarkSimulatedWorkload(b *testing.B) {
	spec := workload.Quickstart()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.MemoryBytes = 256 << 20
		if _, err := sim.Run(cfg, core.New(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(spec.Accesses), "accesses/op")
}

func BenchmarkStorage(b *testing.B) {
	var amnt, anubis float64
	for i := 0; i < b.N; i++ {
		t, err := runDriver(benchOpts(), experiments.Storage)
		if err != nil {
			b.Fatal(err)
		}
		amnt = meanOf(b, t, "amnt")
		anubis = meanOf(b, t, "anubis")
	}
	b.ReportMetric(amnt, "amnt-mean-norm")
	b.ReportMetric(anubis, "anubis-mean-norm")
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(benchOpts(),
			experiments.AblationHistoryInterval, experiments.AblationMetaCache,
			experiments.AblationCoalescing, experiments.AblationStopLoss,
			experiments.AblationReadOverlap, experiments.AblationReplacement,
			experiments.AblationMultiSubtree); err != nil {
			b.Fatal(err)
		}
	}
}
