package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"amnt/internal/sim"
	"amnt/internal/workload"
)

// TestDoReportsAllErrors is the regression test for the old fanOut's
// two failure modes: it reported only the first error, and a panicking
// job killed the whole process. The engine must surface BOTH a failing
// and a panicking job in one aggregated error, and still run the
// healthy jobs.
func TestDoReportsAllErrors(t *testing.T) {
	e := NewEngine(Options{Parallel: 2})
	boom := errors.New("boom")
	ran := false
	err := e.Do(context.Background(),
		Job{Label: "fails", Fn: func(ctx context.Context) error { return boom }},
		Job{Label: "panics", Fn: func(ctx context.Context) error { panic("kaboom") }},
		Job{Label: "works", Fn: func(ctx context.Context) error { ran = true; return nil }},
	)
	if err == nil {
		t.Fatal("Do returned nil for failing jobs")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("aggregated error lost the plain failure: %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"fails", "panics", "kaboom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("aggregated error missing %q:\n%s", want, msg)
		}
	}
	if !ran {
		t.Fatal("healthy job did not run alongside failing ones")
	}
}

func TestDoCancellation(t *testing.T) {
	e := NewEngine(Options{Parallel: 1})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var executed sync.Map
	jobs := []Job{{
		Label: "blocker",
		Fn: func(ctx context.Context) error {
			close(started)
			<-ctx.Done()
			return ctx.Err()
		},
	}}
	for i := 0; i < 4; i++ {
		label := fmt.Sprintf("queued-%d", i)
		jobs = append(jobs, Job{Label: label, Fn: func(ctx context.Context) error {
			executed.Store(label, true)
			return nil
		}})
	}
	go func() {
		<-started
		cancel()
	}()
	err := e.Do(ctx, jobs...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancellation storm must collapse: the joined error mentions
	// cancellation once, not once per queued job.
	if n := strings.Count(err.Error(), context.Canceled.Error()); n != 1 {
		t.Fatalf("cancellation reported %d times:\n%v", n, err)
	}
}

// TestRunCacheDedupes submits the same cell several times — serially
// and concurrently — and asserts it simulates exactly once, with the
// duplicates served as JobCached events.
func TestRunCacheDedupes(t *testing.T) {
	var mu sync.Mutex
	counts := map[Event]int{}
	o := Options{Scale: 0.02, Seed: 1, Parallel: 4, Progress: func(p Progress) {
		mu.Lock()
		counts[p.Event]++
		mu.Unlock()
	}}
	e := NewEngine(o)
	o = o.WithEngine(e)
	spec, _ := workload.ByName("lbm")
	cell := RunSpec{Kind: "single", Protocol: "amnt", Specs: []workload.Spec{spec}}

	res, err := e.RunAll(context.Background(), o, []RunSpec{cell, cell, cell})
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Run(context.Background(), o, cell)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Cycles != again.Cycles {
			t.Fatalf("result %d diverged: %d vs %d cycles", i, r.Cycles, again.Cycles)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if counts[JobDone] != 1 {
		t.Fatalf("cell simulated %d times, want 1", counts[JobDone])
	}
	if counts[JobCached] != 3 {
		t.Fatalf("cached hits = %d, want 3", counts[JobCached])
	}
}

// TestRunCacheKeysDiscriminate: differing level, seed, or ConfigKey
// must not collide in the cache.
func TestRunCacheKeysDiscriminate(t *testing.T) {
	var mu sync.Mutex
	counts := map[Event]int{}
	e := NewEngine(Options{Parallel: 2, Progress: func(p Progress) {
		mu.Lock()
		counts[p.Event]++
		mu.Unlock()
	}})
	spec, _ := workload.ByName("lbm")
	base := RunSpec{Kind: "single", Protocol: "amnt", Specs: []workload.Spec{spec}}
	lvl := base
	lvl.Level = 5
	mut := base
	mut.ConfigKey = "meta=8kB"
	mut.Mutate = func(cfg *sim.Config) { cfg.MEE.MetaCacheBytes = 8 << 10 }

	ctx := context.Background()
	opts := Options{Scale: 0.02, Seed: 1}.WithEngine(e)
	seed2 := Options{Scale: 0.02, Seed: 2}.WithEngine(e)
	// Four distinct keys (level, mutation discriminator, seed), then a
	// genuine duplicate: only the last may hit the cache.
	for _, c := range []struct {
		o  Options
		rs RunSpec
	}{{opts, base}, {opts, lvl}, {opts, mut}, {seed2, base}, {opts, base}} {
		if _, err := e.Run(ctx, c.o, c.rs); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if counts[JobDone] != 4 {
		t.Fatalf("distinct cells simulated %d times, want 4", counts[JobDone])
	}
	if counts[JobCached] != 1 {
		t.Fatalf("cache hits = %d, want 1 (only the true duplicate)", counts[JobCached])
	}
}

// TestNestedDoRunDoesNotDeadlock: a Do job that itself calls Run must
// not deadlock a single-slot pool (the job's slot is reentrant).
func TestNestedDoRunDoesNotDeadlock(t *testing.T) {
	o := Options{Scale: 0.02, Seed: 1, Parallel: 1}
	e := NewEngine(o)
	o = o.WithEngine(e)
	spec, _ := workload.ByName("lbm")
	err := e.Do(context.Background(), Job{
		Label: "outer",
		Fn: func(ctx context.Context) error {
			_, err := e.Run(ctx, o, RunSpec{Kind: "single", Protocol: "volatile", Specs: []workload.Spec{spec}})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// serialFigure4Reference recomputes Figure 4's normalized matrix the
// way the pre-engine code did: one sim.Run per cell, strictly in
// order, no pool, no cache. The engine-backed driver must reproduce it
// bit-for-bit.
func serialFigure4Reference(t *testing.T, o Options) map[string]map[string]float64 {
	t.Helper()
	o = o.withScalars()
	out := map[string]map[string]float64{}
	for _, spec := range workload.PARSEC() {
		runOne := func(protocol string) sim.Result {
			cfg := o.machineFor("single")
			cfg.AMNTPlusPlus = protocol == "amnt++"
			policy, err := sim.PolicyByName(protocol, o.SubtreeLevel)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(cfg, policy, spec.Scale(o.Scale))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		base := runOne("volatile")
		row := map[string]float64{}
		for _, p := range comparedProtocols {
			row[p] = float64(runOne(p).Cycles) / float64(base.Cycles)
		}
		out[spec.Name] = row
	}
	return out
}

// TestDeterminismAcrossParallelism is the determinism suite the issue
// asks for: Figure 4 and Table 2 rendered at -parallel 1, at
// -parallel 8, and against the serial pre-engine reference must be
// identical, byte for byte.
func TestDeterminismAcrossParallelism(t *testing.T) {
	const scale = 0.03
	render := func(parallel int) (fig4, table2 string) {
		o := Options{Scale: scale, Seed: 1, Parallel: parallel}
		f, err := Figure4(o)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := Table2(Options{Scale: scale, Seed: 1, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return f.Render(), tb.Render()
	}
	fig4p1, table2p1 := render(1)
	fig4p8, table2p8 := render(8)
	if fig4p1 != fig4p8 {
		t.Fatalf("figure 4 differs between -parallel 1 and 8:\n%s\nvs\n%s", fig4p1, fig4p8)
	}
	if table2p1 != table2p8 {
		t.Fatalf("table 2 differs between -parallel 1 and 8:\n%s\nvs\n%s", table2p1, table2p8)
	}

	// Cross-check the engine against the serial reference path.
	ref := serialFigure4Reference(t, Options{Scale: scale, Seed: 1})
	tbl, err := Figure4(Options{Scale: scale, Seed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	header := tbl.Header()
	for _, row := range tbl.Rows() {
		want, ok := ref[row[0]]
		if !ok {
			continue // mean row
		}
		for i := 1; i < len(row); i++ {
			if got, exp := row[i], fmt.Sprintf("%.3f", want[header[i]]); got != exp {
				t.Fatalf("%s/%s: engine %s, serial reference %s", row[0], header[i], got, exp)
			}
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestFigure4Golden pins the reproduction itself: the table
// `amntbench -fig 4 -scale 0.25 -format json` prints, byte for byte
// (the golden was written by that command at commit 564d0fc). Every
// cell is a ratio of simulated cycle totals, so any drift in the
// controller's write or read path, the cache model, the workload
// generators or the engine shows up here before it reaches a
// full-scale run. Rerun with -update only for an intended change of
// the simulated model.
func TestFigure4Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ten PARSEC traces under seven protocols")
	}
	tbl, err := Figure4(Options{Scale: 0.25, Seed: 1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(tbl, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := string(raw) + "\n"
	const golden = "testdata/figure4_scale025.golden.json"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("figure 4 at scale 0.25 moved\ngot:\n%swant:\n%s", got, want)
	}
}

// TestSharedEngineDedupesAcrossDrivers: Figure 5 and Table 2 need the
// same volatile multiprogram baselines; bound to one engine, the
// second driver must hit the cache.
func TestSharedEngineDedupesAcrossDrivers(t *testing.T) {
	var mu sync.Mutex
	cached := 0
	o := Options{Scale: 0.02, Seed: 1, Parallel: 4, Progress: func(p Progress) {
		if p.Event == JobCached {
			mu.Lock()
			cached++
			mu.Unlock()
		}
	}}
	e := NewEngine(o)
	o = o.WithEngine(e)
	if _, err := Figure5(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Table2(o); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// Table 2's three stock (volatile, unmutated) cells are exactly
	// Figure 5's baselines.
	if cached < 3 {
		t.Fatalf("cross-driver cache hits = %d, want >= 3", cached)
	}
}

// TestCellTimeoutIsolatesHungJob gives the engine a per-cell deadline:
// a job that blocks on its context must fail with DeadlineExceeded
// while a sibling submitted in the same batch completes untouched.
func TestCellTimeoutIsolatesHungJob(t *testing.T) {
	e := NewEngine(Options{Parallel: 2, CellTimeout: 50 * time.Millisecond})
	var sibling bool
	err := e.Do(context.Background(),
		Job{Label: "hung", Fn: func(ctx context.Context) error {
			<-ctx.Done() // well-behaved job observing its own deadline
			return ctx.Err()
		}},
		Job{Label: "quick", Fn: func(ctx context.Context) error {
			sibling = true
			return nil
		}},
	)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from the hung cell", err)
	}
	if !strings.Contains(err.Error(), "hung") {
		t.Fatalf("error does not name the hung job: %v", err)
	}
	if !sibling {
		t.Fatal("sibling job did not complete alongside the timed-out one")
	}
}
