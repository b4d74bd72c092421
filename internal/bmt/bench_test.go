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

func benchRebuild(b *testing.B, leaves uint64) {
	g := NewGeometry(leaves)
	e := eng()
	d := newBenchDevice(leaves)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Rebuild(d, e, g, 1, 0, true)
	}
}

func BenchmarkRebuildSerial(b *testing.B) {
	for _, leaves := range benchGeometries {
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			benchRebuild(b, leaves)
		})
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

// parentBaseline is the same sweep at commit 7739a40, the last tree
// with a worker-pool rebuild (RebuildOptions.Workers), measured with
// this file's setup back to back with the committed "after"
// column — the "parent" column of BENCH_recovery.json. The pool rows
// are the evidence it was deleted on: slower than the serial walk at
// every shard-sized geometry (4–32 MiB is 1024–8192 leaves).
var parentBaseline = stats.BenchSet{
	Label: "serial walk and the worker-pool rebuild (commit 7739a40, measured alongside after)",
	Results: []stats.BenchResult{
		{Name: "BenchmarkRebuildSerial/leaves=4096", N: 6273, NsPerOp: 182885, AllocsPerOp: 5, BytesPerOp: 73819},
		{Name: "BenchmarkRebuildParallel/leaves=4096/workers=2", N: 5403, NsPerOp: 243030, AllocsPerOp: 119, BytesPerOp: 246839},
		{Name: "BenchmarkRebuildParallel/leaves=4096/workers=4", N: 3746, NsPerOp: 300103, AllocsPerOp: 660, BytesPerOp: 243025},
		{Name: "BenchmarkRebuildSerial/leaves=32768", N: 783, NsPerOp: 1638921, AllocsPerOp: 5, BytesPerOp: 591316},
		{Name: "BenchmarkRebuildParallel/leaves=32768/workers=2", N: 646, NsPerOp: 1745220, AllocsPerOp: 135, BytesPerOp: 1331934},
		{Name: "BenchmarkRebuildParallel/leaves=32768/workers=4", N: 606, NsPerOp: 1930424, AllocsPerOp: 852, BytesPerOp: 1973353},
		{Name: "BenchmarkRebuildSerial/leaves=262144", N: 46, NsPerOp: 21918990, AllocsPerOp: 6, BytesPerOp: 4908163},
		{Name: "BenchmarkRebuildParallel/leaves=262144/workers=2", N: 92, NsPerOp: 13336067, AllocsPerOp: 184, BytesPerOp: 16367176},
		{Name: "BenchmarkRebuildParallel/leaves=262144/workers=4", N: 76, NsPerOp: 14922986, AllocsPerOp: 981, BytesPerOp: 10753339},
	},
}

// TestWriteRecoveryBench regenerates BENCH_recovery.json: the fixed
// seed and parent baselines alongside live measurements of the
// rebuild over the slab device. Run from the repository root with
//
//	go test ./internal/bmt -run WriteRecoveryBench -benchjson $PWD/BENCH_recovery.json
//
// (a test runs in its package directory, so a relative path would land
// in internal/bmt).
func TestWriteRecoveryBench(t *testing.T) {
	if *benchJSON == "" {
		t.Skip("-benchjson not set")
	}
	after := stats.BenchSet{Label: "one Rebuilder engine, no worker pool (this tree)"}
	for _, leaves := range benchGeometries {
		leaves := leaves
		r := testing.Benchmark(func(b *testing.B) { benchRebuild(b, leaves) })
		after.Add(stats.BenchResult{
			Name:        fmt.Sprintf("BenchmarkRebuildSerial/leaves=%d", leaves),
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: uint64(r.AllocsPerOp()),
			BytesPerOp:  uint64(r.AllocedBytesPerOp()),
		})
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
			"baseline is the seed's per-level map pipeline, parent the serial walk of the " +
			"slab device beside the worker-pool rebuild it then also had, after the one " +
			"Rebuilder engine that replaced both",
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
