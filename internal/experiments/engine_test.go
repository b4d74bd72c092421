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

// eventCounts tallies Progress events by kind, front-end jobs apart
// from cells.
type eventCounts struct {
	mu               sync.Mutex
	cells, frontEnds map[Event]int
}

func newEventCounts() *eventCounts {
	return &eventCounts{cells: map[Event]int{}, frontEnds: map[Event]int{}}
}

func (c *eventCounts) progress(p Progress) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if strings.HasPrefix(p.Job, frontEndPrefix) {
		c.frontEnds[p.Event]++
	} else {
		c.cells[p.Event]++
	}
}

// runCells runs cells as one plan on e.
func runCells(ctx context.Context, e *Engine, o Options, cells ...RunSpec) ([]sim.Result, error) {
	res, err := e.runPlans(ctx, o, []Plan{{Cells: cells}})
	return res[0], err
}

// TestRunCacheDedupes submits the same cell several times — serially
// and concurrently — and asserts it simulates exactly once, with the
// duplicates served as JobCached events.
func TestRunCacheDedupes(t *testing.T) {
	ec := newEventCounts()
	o := Options{Scale: 0.02, Seed: 1, Parallel: 4, Progress: ec.progress}
	e := NewEngine(o)
	spec, _ := workload.ByName("lbm")
	cell := RunSpec{Kind: "single", Protocol: "amnt", Specs: []workload.Spec{spec}}

	res, err := runCells(context.Background(), e, o, cell, cell, cell)
	if err != nil {
		t.Fatal(err)
	}
	again, err := runCells(context.Background(), e, o, cell)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Cycles != again[0].Cycles {
			t.Fatalf("result %d diverged: %d vs %d cycles", i, r.Cycles, again[0].Cycles)
		}
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	counts, frontEnds := ec.cells, ec.frontEnds
	if counts[JobDone] != 1 {
		t.Fatalf("cell simulated %d times, want 1", counts[JobDone])
	}
	if counts[JobCached] != 3 {
		t.Fatalf("cached hits = %d, want 3", counts[JobCached])
	}
	if frontEnds[JobDone] != 1 {
		t.Fatalf("stream recorded %d times, want 1", frontEnds[JobDone])
	}
}

// TestRunCacheKeysDiscriminate: differing level, seed, or mutation
// must not collide in the cache; the mutation needs no name, since
// the mutated config is the key.
func TestRunCacheKeysDiscriminate(t *testing.T) {
	ec := newEventCounts()
	e := NewEngine(Options{Parallel: 2, Progress: ec.progress})
	spec, _ := workload.ByName("lbm")
	base := RunSpec{Kind: "single", Protocol: "amnt", Specs: []workload.Spec{spec}}
	lvl := base
	lvl.Level = 5
	mut := base
	mut.Mutate = func(cfg *sim.Config) { cfg.MEE.MetaCacheBytes = 8 << 10 }

	ctx := context.Background()
	opts := Options{Scale: 0.02, Seed: 1}
	seed2 := Options{Scale: 0.02, Seed: 2}
	// Four distinct keys (level, mutation, seed), then a
	// genuine duplicate: only the last may hit the cache.
	for _, c := range []struct {
		o  Options
		rs RunSpec
	}{{opts, base}, {opts, lvl}, {opts, mut}, {seed2, base}, {opts, base}} {
		if _, err := runCells(ctx, e, c.o, c.rs); err != nil {
			t.Fatal(err)
		}
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	counts, frontEnds := ec.cells, ec.frontEnds
	if counts[JobDone] != 4 {
		t.Fatalf("distinct cells simulated %d times, want 4", counts[JobDone])
	}
	if counts[JobCached] != 1 {
		t.Fatalf("cache hits = %d, want 1 (only the true duplicate)", counts[JobCached])
	}
	// Run serially, each stream is released before the next cell
	// claims one, so every simulated cell records its own.
	if frontEnds[JobDone] != 4 {
		t.Fatalf("streams recorded %d times, want 4", frontEnds[JobDone])
	}
}

// TestNestedDoRunDoesNotDeadlock: a Do job that itself runs a cell
// must not deadlock a single-slot pool (the job's slot is reentrant).
func TestNestedDoRunDoesNotDeadlock(t *testing.T) {
	o := Options{Scale: 0.02, Seed: 1, Parallel: 1}
	e := NewEngine(o)
	spec, _ := workload.ByName("lbm")
	err := e.Do(context.Background(), Job{
		Label: "outer",
		Fn: func(ctx context.Context) error {
			_, err := runCells(ctx, e, o, RunSpec{Kind: "single", Protocol: "volatile", Specs: []workload.Spec{spec}})
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
	o = o.withDefaults()
	out := map[string]map[string]float64{}
	for _, spec := range workload.PARSEC() {
		runOne := func(protocol string) sim.Result {
			cfg := o.machineFor("single")
			if protocol == "amnt++" {
				cfg.AMNTPlusPlusLevel = o.SubtreeLevel
			}
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
		tables, err := Run(Options{Scale: scale, Seed: 1, Parallel: parallel}, Figure4, Table2)
		if err != nil {
			t.Fatal(err)
		}
		return tables[0].Render(), tables[1].Render()
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
	tbl, err := runOne(Options{Scale: scale, Seed: 1, Parallel: 8}, Figure4)
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
	tbl, err := runOne(Options{Scale: 0.25, Seed: 1, Parallel: 2}, Figure4)
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
// same volatile multiprogram baselines; run together, one of each
// pair of duplicates must hit the cache.
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
	if _, err := Run(o, Figure5, Table2); err != nil {
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

// TestFigure4RecordsEachStreamOnce: Figure 4's 70 cells (ten workloads
// × volatile and six protocols) share 20 front ends — each workload on
// the stock and on the modified kernel — and every stream is released
// once its cells are done.
func TestFigure4RecordsEachStreamOnce(t *testing.T) {
	ec := newEventCounts()
	o := Options{Scale: 0.05, Seed: 1, Parallel: 2, Progress: ec.progress}
	e := NewEngine(o)
	if _, err := e.runDrivers(o.withDefaults(), []Driver{Figure4}); err != nil {
		t.Fatal(err)
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if got := ec.frontEnds[JobStarted]; got != 20 {
		t.Fatalf("%d front-end jobs started, want 20", got)
	}
	if got := ec.cells[JobStarted]; got != 70 {
		t.Fatalf("%d cells started, want 70", got)
	}
	if n := len(e.streams); n != 0 {
		t.Fatalf("%d streams still held after the figure", n)
	}
}

// TestAllRecordsEachFrontEndOnce: run together, the cells of every
// driver record each distinct front end once — 62 of them, whichever
// driver uses a stream first or last — and no stream outlives the run.
func TestAllRecordsEachFrontEndOnce(t *testing.T) {
	var mu sync.Mutex
	recorded := map[string]int{}
	o := Options{Scale: 0.02, Seed: 1, Parallel: 2, Progress: func(p Progress) {
		if p.Event == JobDone && strings.HasPrefix(p.Job, frontEndPrefix) {
			mu.Lock()
			recorded[p.Job]++
			mu.Unlock()
		}
	}}
	e := NewEngine(o)
	if _, err := e.runDrivers(o.withDefaults(), All); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for label, n := range recorded {
		if n != 1 {
			t.Errorf("%s recorded %d times, want 1", label, n)
		}
	}
	if len(recorded) != 62 {
		t.Fatalf("%d front ends recorded, want 62", len(recorded))
	}
	if n := len(e.streams); n != 0 {
		t.Fatalf("%d streams still held after the run", n)
	}
}

// TestSharedStreamsFollowFrontEndConfig: the stream key is the front
// end's config, so cells that differ only in what the controller
// reads share one recording. Per multiprogram pair, Figures 6+7 record
// one stock stream (volatile and amnt at all six levels) and one per
// AMNT++ level; Table 2's stock cells are served from the run-cache
// and its modified-kernel cells replay the AMNT++ L3 stream; the MEE
// ablations record one stream per workload (canneal, lbm, and one
// bodytrack for both the read-overlap and the replacement sweep).
// Every rendered table equals the same driver on live machines
// (telemetry disables replay).
func TestSharedStreamsFollowFrontEndConfig(t *testing.T) {
	drivers := func(o Options) []string {
		t.Helper()
		tables, err := Run(o, Figures6And7, Table2, AblationMetaCache, AblationCoalescing, AblationReadOverlap, AblationReplacement)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, tb := range tables {
			out = append(out, tb.Render())
		}
		return out
	}
	ec := newEventCounts()
	replayed := drivers(Options{Scale: 0.02, Seed: 1, Parallel: 2, Progress: ec.progress})
	pairs := len(workload.MultiProgramPairs())
	want := pairs*(1+len(SubtreeLevels)) + 3
	ec.mu.Lock()
	got := ec.frontEnds[JobDone]
	ec.mu.Unlock()
	if got != want {
		t.Fatalf("%d front ends recorded, want %d", got, want)
	}

	live := drivers(Options{Scale: 0.02, Seed: 1, Parallel: 2, TelemetryDir: t.TempDir()})
	for i := range live {
		if replayed[i] != live[i] {
			t.Fatalf("table %d differs between replayed and live machines:\n%s\nvs\n%s", i, replayed[i], live[i])
		}
	}
}

// TestCancelWhileRecording: cancelling while a front end records fails
// every cell waiting on it with the context's error and leaves no
// stream or run-cache entry behind, so the same cells run afresh.
func TestCancelWhileRecording(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o := Options{Scale: 0.05, Seed: 1, Parallel: 2, Progress: func(p Progress) {
		if p.Event == JobStarted && strings.HasPrefix(p.Job, frontEndPrefix) {
			cancel()
		}
	}}
	e := NewEngine(o)
	spec, _ := workload.ByName("lbm")
	var cells []RunSpec
	for _, p := range []string{"volatile", "leaf", "amnt"} {
		cells = append(cells, RunSpec{Kind: "single", Protocol: p, Specs: []workload.Spec{spec}})
	}
	_, err := runCells(ctx, e, o, cells...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	e.mu.Lock()
	streams, cached := len(e.streams), len(e.cache)
	e.mu.Unlock()
	if streams != 0 || cached != 0 {
		t.Fatalf("%d stream and %d run-cache entries left after cancellation, want none", streams, cached)
	}
	o.Progress = nil
	if _, err := runCells(context.Background(), e, o, cells...); err != nil {
		t.Fatalf("rerun after cancellation: %v", err)
	}
}

// TestRunAllPanicNamesLevel: a cell that panics before it reaches the
// pool is reported under its own label, level override included.
func TestRunAllPanicNamesLevel(t *testing.T) {
	e := NewEngine(Options{Parallel: 1})
	spec, _ := workload.ByName("lbm")
	_, err := runCells(context.Background(), e, Options{Scale: 0.02}, RunSpec{
		Kind: "single", Protocol: "amnt", Specs: []workload.Spec{spec}, Level: 4,
		Mutate: func(*sim.Config) { panic("bad mutation") },
	})
	if err == nil || !strings.Contains(err.Error(), "single/lbm/amnt/L4: panic: bad mutation") {
		t.Fatalf("err = %v, want a panic labelled single/lbm/amnt/L4", err)
	}
}
