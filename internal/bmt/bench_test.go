package bmt

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"amnt/internal/scm"
	"amnt/internal/stats"
)

// -benchjson gates TestWriteRecoveryBench, which measures the rebuild
// benchmarks via testing.Benchmark and writes the before/after
// BENCH_recovery.json to the given path.
var benchJSON = flag.String("benchjson", "", "write rebuild benchmark results (BENCH_recovery.json) to this path")

// benchGeometries are the three leaf counts the benchmarks sweep:
// 16 MB, 128 MB, and 1 GB of protected data.
var benchGeometries = []uint64{4096, 32768, 262144}

// benchWorkers are the pool sizes BenchmarkRebuildParallel sweeps.
var benchWorkers = []int{1, 2, 4, 8}

// newBenchDevice returns a fully-occupied device with the paper's
// default timing — the worst-case (whole footprint) recovery input.
func newBenchDevice(leaves uint64) *scm.Device {
	d := scm.New(scm.Config{CapacityBytes: leaves * 4096})
	var blk [scm.BlockSize]byte
	for i := uint64(0); i < leaves; i++ {
		blk[0] = byte(i)
		blk[8] = byte(i >> 8)
		blk[16] = byte(i >> 16)
		d.Write(scm.Counter, i, blk[:])
	}
	return d
}

func benchRebuild(b *testing.B, leaves uint64, workers int) {
	g := NewGeometry(leaves)
	e := eng()
	d := newBenchDevice(leaves)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RebuildWith(d, e, g, 1, 0, RebuildOptions{Persist: true, Workers: workers})
	}
}

func BenchmarkRebuildSerial(b *testing.B) {
	for _, leaves := range benchGeometries {
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			benchRebuild(b, leaves, 1)
		})
	}
}

func BenchmarkRebuildParallel(b *testing.B) {
	for _, leaves := range benchGeometries {
		for _, w := range benchWorkers {
			b.Run(fmt.Sprintf("leaves=%d/workers=%d", leaves, w), func(b *testing.B) {
				benchRebuild(b, leaves, w)
			})
		}
	}
}

// seedBaseline is the seed tree's map-pipeline serial rebuild,
// measured with this file's exact setup (persist=true, full
// occupancy, default device timing, -benchtime 10x) at commit 3d040e6
// — the "before" column of BENCH_recovery.json.
var seedBaseline = stats.BenchSet{
	Label: "seed map-pipeline serial rebuild (commit 3d040e6)",
	Results: []stats.BenchResult{
		{Name: "BenchmarkRebuildSerial/leaves=4096", N: 10, NsPerOp: 1335619, AllocsPerOp: 737, BytesPerOp: 575460},
		{Name: "BenchmarkRebuildSerial/leaves=32768", N: 10, NsPerOp: 12844483, AllocsPerOp: 5538, BytesPerOp: 4643720},
		{Name: "BenchmarkRebuildSerial/leaves=262144", N: 10, NsPerOp: 157134262, AllocsPerOp: 43804, BytesPerOp: 37214264},
	},
}

// parentBaseline is the same sweep on the map-backed device
// (enumerate, sort, look each leaf up), measured with this file's
// setup at commit 83417ad in the session that took the committed
// "after" column — the "parent" column of BENCH_recovery.json.
var parentBaseline = stats.BenchSet{
	Label: "flat-slice rebuild over the map-backed device (commit 83417ad, same session)",
	Results: []stats.BenchResult{
		{Name: "BenchmarkRebuildSerial/leaves=4096", N: 2029, NsPerOp: 553750, AllocsPerOp: 6, BytesPerOp: 73894},
		{Name: "BenchmarkRebuildParallel/leaves=4096/workers=1", N: 2224, NsPerOp: 540953, AllocsPerOp: 6, BytesPerOp: 73891},
		{Name: "BenchmarkRebuildParallel/leaves=4096/workers=2", N: 2259, NsPerOp: 544363, AllocsPerOp: 122, BytesPerOp: 279954},
		{Name: "BenchmarkRebuildParallel/leaves=4096/workers=4", N: 1990, NsPerOp: 589696, AllocsPerOp: 665, BytesPerOp: 278395},
		{Name: "BenchmarkRebuildParallel/leaves=4096/workers=8", N: 1927, NsPerOp: 586788, AllocsPerOp: 673, BytesPerOp: 279422},
		{Name: "BenchmarkRebuildSerial/leaves=32768", N: 236, NsPerOp: 5109556, AllocsPerOp: 26, BytesPerOp: 592482},
		{Name: "BenchmarkRebuildParallel/leaves=32768/workers=1", N: 235, NsPerOp: 5052052, AllocsPerOp: 26, BytesPerOp: 592492},
		{Name: "BenchmarkRebuildParallel/leaves=32768/workers=2", N: 255, NsPerOp: 4600448, AllocsPerOp: 157, BytesPerOp: 1595026},
		{Name: "BenchmarkRebuildParallel/leaves=32768/workers=4", N: 240, NsPerOp: 5093181, AllocsPerOp: 877, BytesPerOp: 2238749},
		{Name: "BenchmarkRebuildParallel/leaves=32768/workers=8", N: 237, NsPerOp: 5036663, AllocsPerOp: 885, BytesPerOp: 2239804},
		{Name: "BenchmarkRebuildSerial/leaves=262144", N: 15, NsPerOp: 70240519, AllocsPerOp: 2521, BytesPerOp: 5036170},
		{Name: "BenchmarkRebuildParallel/leaves=262144/workers=1", N: 15, NsPerOp: 70760879, AllocsPerOp: 2521, BytesPerOp: 5036170},
		{Name: "BenchmarkRebuildParallel/leaves=262144/workers=2", N: 22, NsPerOp: 50222816, AllocsPerOp: 1901, BytesPerOp: 18586354},
		{Name: "BenchmarkRebuildParallel/leaves=262144/workers=4", N: 21, NsPerOp: 48724086, AllocsPerOp: 2782, BytesPerOp: 12965152},
		{Name: "BenchmarkRebuildParallel/leaves=262144/workers=8", N: 21, NsPerOp: 48324109, AllocsPerOp: 2790, BytesPerOp: 12966191},
	},
}

// TestWriteRecoveryBench regenerates BENCH_recovery.json: the fixed
// seed and parent baselines alongside live measurements of the serial
// and parallel rebuild over the slab device. Run with
//
//	go test ./internal/bmt -run WriteRecoveryBench -benchjson BENCH_recovery.json
func TestWriteRecoveryBench(t *testing.T) {
	if *benchJSON == "" {
		t.Skip("-benchjson not set")
	}
	after := stats.BenchSet{Label: "scan-driven rebuild over the slab device (this tree)"}
	for _, leaves := range benchGeometries {
		leaves := leaves
		r := testing.Benchmark(func(b *testing.B) { benchRebuild(b, leaves, 1) })
		after.Add(stats.BenchResult{
			Name:        fmt.Sprintf("BenchmarkRebuildSerial/leaves=%d", leaves),
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: uint64(r.AllocsPerOp()),
			BytesPerOp:  uint64(r.AllocedBytesPerOp()),
		})
		for _, w := range benchWorkers {
			w := w
			r := testing.Benchmark(func(b *testing.B) { benchRebuild(b, leaves, w) })
			after.Add(stats.BenchResult{
				Name:        fmt.Sprintf("BenchmarkRebuildParallel/leaves=%d/workers=%d", leaves, w),
				N:           r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: uint64(r.AllocsPerOp()),
				BytesPerOp:  uint64(r.AllocedBytesPerOp()),
			})
		}
	}
	t.Logf("baseline:\n%s", seedBaseline.Benchstat())
	t.Logf("parent:\n%s", parentBaseline.Benchstat())
	t.Logf("after:\n%s", after.Benchstat())
	doc := struct {
		Note     string         `json:"note"`
		GoOS     string         `json:"goos"`
		GoArch   string         `json:"goarch"`
		CPUs     int            `json:"cpus"`
		Baseline stats.BenchSet `json:"baseline"`
		Parent   stats.BenchSet `json:"parent"`
		After    stats.BenchSet `json:"after"`
	}{
		Note: "BMT recovery rebuild, persist=true over a fully occupied counter span; " +
			"baseline is the seed's per-level map pipeline, parent the flat-slice engine " +
			"(serial and sharded-parallel) over the map-backed device, after the same " +
			"engine driven by one ordered walk of the slab device",
		GoOS:     runtime.GOOS,
		GoArch:   runtime.GOARCH,
		CPUs:     runtime.NumCPU(),
		Baseline: seedBaseline,
		Parent:   parentBaseline,
		After:    after,
	}
	f, err := os.Create(*benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
}
