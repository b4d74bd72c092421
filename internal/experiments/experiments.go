// Package experiments contains one driver per table and figure in the
// paper's evaluation (§6). Each driver enumerates its cells —
// (workload set × protocol × machine configuration) — as jobs on the
// experiment engine (engine.go), which executes them on a bounded
// worker pool with a memoized run-cache, cancellation, and structured
// progress. The drivers are shared by cmd/amntbench and the
// repository's benchmark harness (bench_test.go); cell outputs are
// deterministic, so the rendered tables are bit-identical at any pool
// width.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"amnt/internal/mee"
	"amnt/internal/recovery"
	"amnt/internal/sim"
	"amnt/internal/stats"
	"amnt/internal/workload"
)

// Options tunes experiment execution without changing its shape.
type Options struct {
	// Scale multiplies every trace length (1.0 = the default 200k
	// accesses per workload; benches use smaller scales).
	Scale float64
	// Seed drives all stochastic components.
	Seed int64
	// SubtreeLevel is AMNT's configured level (default 3, per Table 1).
	SubtreeLevel int
	// MemoryBytes sizes the SCM device (default 8 GB, per Table 1).
	MemoryBytes uint64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Parallel bounds the engine's worker pool (0 = GOMAXPROCS).
	// Simulated results are identical at any width; only wall-clock
	// changes.
	Parallel int
	// Progress, when non-nil, receives one structured event per job
	// transition (see Progress); callbacks are serialized.
	Progress func(Progress)
	// Context, when non-nil, cancels in-flight and queued simulations
	// when it is done; drivers then return its error.
	Context context.Context
	// TelemetryDir, when set, enables per-cell telemetry: every cell
	// that actually simulates writes an epoch time-series JSONL and a
	// protocol event trace JSONL into this directory (cached cells are
	// served without re-simulating, so one file pair per unique cell).
	// Telemetry only reads statistics; results are unchanged.
	TelemetryDir string
	// EpochCycles is the telemetry sampling period in simulated cycles
	// (0 = telemetry.DefaultEpochCycles).
	EpochCycles uint64
	// CellTimeout bounds each job's wall time (0 = unbounded). A job
	// past its deadline fails with context.DeadlineExceeded; sibling
	// jobs are unaffected. The fault-injection sweeps set it so one
	// wedged protocol cell cannot stall a whole matrix.
	CellTimeout time.Duration

	engine *Engine
}

// WithEngine binds o — and every driver called with the returned
// Options — to e, sharing its worker pool and run-cache across
// drivers. Without it each driver builds a private engine, which
// still dedupes and parallelizes within that driver.
func (o Options) WithEngine(e *Engine) Options {
	o.engine = e
	return o
}

// withScalars fills the numeric defaults only.
func (o Options) withScalars() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SubtreeLevel == 0 {
		o.SubtreeLevel = 3
	}
	if o.MemoryBytes == 0 {
		o.MemoryBytes = 8 << 30
	}
	return o
}

func (o Options) withDefaults() Options {
	o = o.withScalars()
	if o.engine == nil {
		o.engine = NewEngine(o)
	}
	return o
}

// ctx returns the cancellation context drivers thread into the engine.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Protocols compared in Figures 4 and 5 (amnt++ = amnt policy on the
// modified kernel).
var comparedProtocols = []string{"leaf", "strict", "anubis", "bmf", "amnt", "amnt++"}

// Figure8Protocols are the SPEC comparison set.
var Figure8Protocols = []string{"leaf", "strict", "anubis", "bmf", "amnt"}

// machineFor builds the paper's §6 machine of the given kind
// (sim.ConfigFor) on the options' memory size and seed.
func (o Options) machineFor(kind string) sim.Config {
	cfg, err := sim.ConfigFor(kind)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	cfg.MemoryBytes = o.MemoryBytes
	cfg.Seed = o.Seed
	// All experiments run on an aged system: free lists fragmented
	// across several subtree regions, so physical placement policy
	// (AMNT++) has something to do.
	cfg.PrefragmentChurn = 36_000
	return cfg
}

// normRow is one workload set's normalized comparison: cycles per
// protocol relative to the volatile baseline, plus the raw results
// keyed by protocol ("volatile" included).
type normRow struct {
	norm map[string]float64
	raw  map[string]sim.Result
}

// normalizedRows runs volatile plus every compared protocol for every
// workload set through the engine — one flat job list, so all cells
// across all sets share the worker pool — and returns one normRow per
// set, in order.
func (o Options) normalizedRows(tag, kind string, protocols []string, sets [][]workload.Spec) ([]normRow, error) {
	cells := make([]RunSpec, 0, len(sets)*(len(protocols)+1))
	for _, set := range sets {
		cells = append(cells, RunSpec{
			Label: tag + "/" + specName(set) + "/volatile",
			Kind:  kind, Protocol: "volatile", Specs: set,
		})
		for _, p := range protocols {
			cells = append(cells, RunSpec{
				Label: tag + "/" + specName(set) + "/" + p,
				Kind:  kind, Protocol: p, Specs: set,
			})
		}
	}
	res, err := o.engine.RunAll(o.ctx(), o, cells)
	if err != nil {
		return nil, err
	}
	stride := len(protocols) + 1
	rows := make([]normRow, len(sets))
	for i, set := range sets {
		base := res[i*stride]
		norm := make(map[string]float64, len(protocols))
		raw := map[string]sim.Result{"volatile": base}
		for j, p := range protocols {
			r := res[i*stride+1+j]
			norm[p] = float64(r.Cycles) / float64(base.Cycles)
			raw[p] = r
			o.logf("  %-22s %-8s %.3f (meta hit %.1f%%, subtree hit %.1f%%)",
				specName(set), p, norm[p], 100*r.MetaHitRate, 100*r.SubtreeHitRate)
		}
		rows[i] = normRow{norm: norm, raw: raw}
	}
	return rows, nil
}

func singles(suite []workload.Spec) [][]workload.Spec {
	sets := make([][]workload.Spec, len(suite))
	for i, s := range suite {
		sets[i] = []workload.Spec{s}
	}
	return sets
}

func pairSpecs(pair [2]string) []workload.Spec {
	a, _ := workload.ByName(pair[0])
	b, _ := workload.ByName(pair[1])
	return []workload.Spec{a, b}
}

func specName(specs []workload.Spec) string {
	if len(specs) == 1 {
		return specs[0].Name
	}
	name := specs[0].Name
	for _, s := range specs[1:] {
		name += "+" + s.Name
	}
	return name
}

// --- Figure 3 ---------------------------------------------------------

// Figure3 reproduces the access-density comparison: memory accesses
// per physical region for a single program (lbm) versus a multiprogram
// mix (perlbench+lbm). Each row is one of 64 equal slices of the
// touched physical space; concentrated single-program accesses spread
// out under multiprogramming — the motivation for AMNT++.
func Figure3(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	o.logf("Figure 3: access density, single vs multiprogram")
	lbm, _ := workload.ByName("lbm")
	perl, _ := workload.ByName("perlbench")

	// These two runs need the machine (page histogram + per-process
	// page sets), so they are engine jobs rather than cacheable cells.
	var single, multi *stats.Histogram
	var multiPages [][]uint64
	histJob := func(kind string, hist **stats.Histogram, pages *[][]uint64, specs ...workload.Spec) Job {
		return Job{Label: "figure3/" + kind, Fn: func(ctx context.Context) error {
			cfg := o.machineFor(kind)
			cfg.CollectPageHist = true
			scaled := make([]workload.Spec, len(specs))
			for i, s := range specs {
				scaled[i] = s.Scale(o.Scale)
			}
			m := sim.NewMachine(cfg, mee.NewVolatile(), scaled)
			res, err := m.RunContext(ctx)
			if err != nil {
				return err
			}
			*hist = res.PageHist
			if pages != nil {
				*pages = m.ProcessPages()
			}
			return nil
		}}
	}
	if err := o.engine.Do(o.ctx(),
		histJob("single", &single, nil, lbm),
		histJob("multi", &multi, &multiPages, perl, lbm),
	); err != nil {
		return nil, err
	}

	// Bucket over the touched physical range so the density shape is
	// visible (the paper plots accesses per address, not per 128 MB).
	const buckets = 64
	maxPages := uint64(1)
	for _, h := range []*stats.Histogram{single, multi} {
		if keys := h.Keys(); len(keys) > 0 && keys[len(keys)-1]+1 > maxPages {
			maxPages = keys[len(keys)-1] + 1
		}
	}
	sb := single.Buckets(maxPages, buckets)
	mb := multi.Buckets(maxPages, buckets)
	t := stats.NewTable("Figure 3 — memory accesses per physical region",
		"slice", "single (lbm)", "multi (perlbench+lbm)")
	t.AddNote("x-axis: %d equal slices of the touched physical range (%d pages)", buckets, maxPages)
	for i := 0; i < buckets; i++ {
		if sb[i] == 0 && mb[i] == 0 {
			continue
		}
		t.AddRow(i, sb[i], mb[i])
	}
	t.AddNote("single density: %s", stats.Sparkline(sb))
	t.AddNote("multi density:  %s", stats.Sparkline(mb))
	t.AddNote("touched pages: single %d, multi %d", single.Distinct(), multi.Distinct())
	t.AddNote("multiprogram owner interleaving: %.1f%% of physically adjacent touched pages belong to different processes",
		100*ownerAlternation(multiPages))
	return t, nil
}

// ownerAlternation measures how finely two address spaces interleave
// in physical memory: the fraction of adjacent (by physical page
// number) touched pages whose owning processes differ. A single
// program scores 0; perfectly interleaved multiprogramming approaches
// 50%+ — the paper's Figure 3b situation that defeats contiguous
// hot-region tracking and motivates AMNT++.
func ownerAlternation(procPages [][]uint64) float64 {
	type owned struct {
		page  uint64
		owner int
	}
	var all []owned
	for owner, pages := range procPages {
		for _, p := range pages {
			all = append(all, owned{p, owner})
		}
	}
	if len(all) < 2 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].page < all[j].page })
	alternations := 0
	for i := 1; i < len(all); i++ {
		if all[i].owner != all[i-1].owner {
			alternations++
		}
	}
	return float64(alternations) / float64(len(all)-1)
}

func hotRegionShare(h *stats.Histogram, maxPages uint64, buckets, k int) float64 {
	b := h.Buckets(maxPages, buckets)
	var total uint64
	for _, c := range b {
		total += c
	}
	if total == 0 {
		return 0
	}
	// Sum the k largest buckets.
	best := make([]uint64, len(b))
	copy(best, b)
	var hot uint64
	for i := 0; i < k; i++ {
		maxIdx := 0
		for j, c := range best {
			if c > best[maxIdx] {
				maxIdx = j
			}
		}
		hot += best[maxIdx]
		best[maxIdx] = 0
	}
	return float64(hot) / float64(total)
}

// --- Figures 4, 5, 8 ---------------------------------------------------

// Figure4 reproduces normalized execution cycles for single-program
// PARSEC under every protocol, normalized to volatile secure memory.
func Figure4(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	o.logf("Figure 4: single-program PARSEC, normalized cycles")
	suite := workload.PARSEC()
	rows, err := o.normalizedRows("figure4", "single", comparedProtocols, singles(suite))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 4 — normalized cycles, single-program PARSEC (lower is better)",
		append([]string{"workload"}, comparedProtocols...)...)
	perProto := make(map[string][]float64)
	var cannealNote string
	for i, spec := range suite {
		norm, raw := rows[i].norm, rows[i].raw
		row := []interface{}{spec.Name}
		for _, p := range comparedProtocols {
			row = append(row, norm[p])
			perProto[p] = append(perProto[p], norm[p])
		}
		t.AddRow(row...)
		if spec.Name == "canneal" {
			cannealNote = fmt.Sprintf(
				"canneal metadata cache hit rate %.1f%% (paper: 30.4%%); anubis pays a shadow write per miss",
				100*raw["anubis"].MetaHitRate)
		}
		if a := raw["amnt"]; a.Writes > 0 {
			o.logf("  %s: subtree movements per 1000 writes: %.2f",
				spec.Name, 1000*float64(a.Movements)/float64(a.Writes))
		}
	}
	row := []interface{}{"mean"}
	for _, p := range comparedProtocols {
		row = append(row, stats.Mean(perProto[p]))
	}
	t.AddRow(row...)
	if cannealNote != "" {
		t.AddNote("%s", cannealNote)
	}
	t.AddNote("paper: amnt 1.16x mean, amnt++ 1.10x, leaf 1.08x, strict 2.39x")
	return t, nil
}

// Figure5 reproduces normalized cycles for the multiprogram PARSEC
// pairs on the two-core configuration.
func Figure5(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	o.logf("Figure 5: multiprogram PARSEC pairs, normalized cycles")
	pairs := workload.MultiProgramPairs()
	sets := make([][]workload.Spec, len(pairs))
	for i, pair := range pairs {
		sets[i] = pairSpecs(pair)
	}
	rows, err := o.normalizedRows("figure5", "multi", comparedProtocols, sets)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 5 — normalized cycles, multiprogram PARSEC (lower is better)",
		append([]string{"pair"}, comparedProtocols...)...)
	for i, pair := range pairs {
		norm, raw := rows[i].norm, rows[i].raw
		row := []interface{}{pair[0] + "+" + pair[1]}
		for _, p := range comparedProtocols {
			row = append(row, norm[p])
		}
		t.AddRow(row...)
		o.logf("  %s: amnt subtree hit %.1f%% -> amnt++ %.1f%%", specName(sets[i]),
			100*raw["amnt"].SubtreeHitRate, 100*raw["amnt++"].SubtreeHitRate)
	}
	t.AddNote("paper: amnt++ raises body+fluid subtree hit rate 91%% -> 97%% and closes the gap to leaf")
	return t, nil
}

// Figure8 reproduces the SPEC CPU2017 comparison on the four-core
// multithreaded configuration.
func Figure8(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	o.logf("Figure 8: SPEC CPU2017, normalized cycles")
	suite := workload.SPEC()
	sets := make([][]workload.Spec, len(suite))
	for i, spec := range suite {
		// Four threads of the same program share one address space.
		sets[i] = []workload.Spec{spec, spec, spec, spec}
	}
	rows, err := o.normalizedRows("figure8", "threads", Figure8Protocols, sets)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 8 — normalized cycles, SPEC CPU2017 (lower is better)",
		append([]string{"workload"}, Figure8Protocols...)...)
	perProto := make(map[string][]float64)
	for i, spec := range suite {
		row := []interface{}{spec.Name}
		for _, p := range Figure8Protocols {
			row = append(row, rows[i].norm[p])
			perProto[p] = append(perProto[p], rows[i].norm[p])
		}
		t.AddRow(row...)
	}
	row := []interface{}{"mean"}
	for _, p := range Figure8Protocols {
		row = append(row, stats.Mean(perProto[p]))
	}
	t.AddRow(row...)
	t.AddNote("paper: amnt beats anubis by 13%% on average (41%% on xz); amnt within 2%% of leaf")
	return t, nil
}

// --- Figures 6 & 7 ------------------------------------------------------

// SubtreeLevels swept in Figures 6 and 7.
var SubtreeLevels = []int{2, 3, 4, 5, 6, 7}

// Figures6And7 sweeps the AMNT subtree level over the multiprogram
// pairs and reports both normalized cycles (Figure 6) and subtree hit
// rates (Figure 7) for AMNT and AMNT++.
func Figures6And7(o Options) (perf, hits *stats.Table, err error) {
	o = o.withDefaults()
	o.logf("Figures 6+7: subtree level sensitivity")
	header := []string{"pair", "protocol"}
	for _, l := range SubtreeLevels {
		header = append(header, fmt.Sprintf("L%d", l))
	}
	perf = stats.NewTable("Figure 6 — normalized cycles vs subtree level", header...)
	hits = stats.NewTable("Figure 7 — subtree hit rate vs subtree level", header...)
	pairs := workload.MultiProgramPairs()
	protos := []string{"amnt", "amnt++"}

	// One flat cell list: per pair one volatile baseline plus the
	// (protocol × level) grid. No barrier between baselines and grid —
	// the engine interleaves everything on the pool; run-cache keys
	// keep the levels distinct.
	cells := make([]RunSpec, 0, len(pairs)*(1+len(protos)*len(SubtreeLevels)))
	for _, pair := range pairs {
		specs := pairSpecs(pair)
		cells = append(cells, RunSpec{
			Label: "figures6+7/" + specName(specs) + "/volatile",
			Kind:  "multi", Protocol: "volatile", Specs: specs,
		})
		for _, proto := range protos {
			for _, level := range SubtreeLevels {
				cells = append(cells, RunSpec{
					Label: fmt.Sprintf("figures6+7/%s/%s/L%d", specName(specs), proto, level),
					Kind:  "multi", Protocol: proto, Specs: specs, Level: level,
				})
			}
		}
	}
	res, rerr := o.engine.RunAll(o.ctx(), o, cells)
	if rerr != nil {
		return nil, nil, rerr
	}
	stride := 1 + len(protos)*len(SubtreeLevels)
	for pi, pair := range pairs {
		base := res[pi*stride]
		for pr, proto := range protos {
			perfRow := []interface{}{pair[0] + "+" + pair[1], proto}
			hitRow := []interface{}{pair[0] + "+" + pair[1], proto}
			for li := range SubtreeLevels {
				r := res[pi*stride+1+pr*len(SubtreeLevels)+li]
				perfRow = append(perfRow, float64(r.Cycles)/float64(base.Cycles))
				hitRow = append(hitRow, r.SubtreeHitRate)
			}
			perf.AddRow(perfRow...)
			hits.AddRow(hitRow...)
		}
	}
	perf.AddNote("higher levels protect less memory; amnt++ recovers hit rate the hardware alone loses")
	return perf, hits, nil
}

// --- Tables -------------------------------------------------------------

// Table2 measures the cost of the modified operating system in
// isolation: the same multiprogram workloads on the same (volatile)
// secure memory, with only the kernel changed. Differences therefore
// come from the allocator modification itself — extra instructions in
// the reclamation path, and whatever cache-locality change the biased
// placement produces — exactly the comparison in the paper's Table 2.
func Table2(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	o.logf("Table 2: modified OS cost")
	pairs := workload.MultiProgramPairs()
	cells := make([]RunSpec, 0, 2*len(pairs))
	for _, pair := range pairs {
		specs := pairSpecs(pair)
		cells = append(cells,
			RunSpec{
				Label: "table2/" + specName(specs) + "/stock",
				Kind:  "multi", Protocol: "volatile", Specs: specs,
			},
			RunSpec{
				Label: "table2/" + specName(specs) + "/modified",
				Kind:  "multi", Protocol: "volatile", Specs: specs,
				Mutate: func(cfg *sim.Config) { cfg.AMNTPlusPlusLevel = o.SubtreeLevel },
			},
		)
	}
	res, err := o.engine.RunAll(o.ctx(), o, cells)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Table 2 — impact of the modified OS (multiprogram)",
		"pair", "normalized performance", "instruction overhead")
	for i, pair := range pairs {
		plain, modified := res[2*i], res[2*i+1]
		t.AddRow(pair[0]+"+"+pair[1],
			float64(modified.Cycles)/float64(plain.Cycles),
			float64(modified.Instructions)/float64(plain.Instructions))
	}
	t.AddNote("paper: normalized performance 0.967-1.013, instruction overhead 1.004-1.021")
	return t, nil
}

// Table3 reports the hardware overhead comparison for a 64 kB
// metadata cache, straight from each policy's Overhead(). No
// simulation runs: attaching the machine resolves cache-size-
// dependent overheads, so this driver stays off the engine.
func Table3(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	t := stats.NewTable("Table 3 — hardware overhead (64 kB metadata cache)",
		"protocol", "NV on-chip", "volatile on-chip", "in-memory")
	cfg := o.machineFor("single")
	for _, name := range []string{"bmf", "anubis", "amnt"} {
		policy, err := sim.PolicyByName(name, o.SubtreeLevel)
		if err != nil {
			return nil, err
		}
		// Attach so cache-size-dependent overheads resolve.
		sim.NewMachine(cfg, policy, []workload.Spec{workload.Quickstart()})
		ov := policy.Overhead()
		t.AddRow(name, byteString(ov.NVOnChipBytes), byteString(ov.VolOnChipBytes), byteString(ov.InMemoryBytes))
	}
	t.AddNote("paper: BMF 4kB/768B/-, Anubis 64B/37kB/37kB, AMNT 64B/96B/-")
	return t, nil
}

func byteString(b uint64) string {
	switch {
	case b == 0:
		return "-"
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%d kB", b>>10)
	case b >= 1<<10:
		return fmt.Sprintf("%.1f kB", float64(b)/1024)
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// Table4 renders the analytic recovery-time model beside the paper's
// published values.
func Table4(o Options) (*stats.Table, error) {
	return recovery.Table4(recovery.DefaultModel()), nil
}

// Table4Measured validates the analytic model's scaling with
// functional recoveries on small simulated memories: crash a machine
// mid-run and convert the measured recovery traffic to modeled time.
func Table4Measured(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	o.logf("Table 4 (measured): functional recovery scaling")
	model := recovery.DefaultModel()

	type combo struct {
		memBytes uint64
		proto    string
	}
	var combos []combo
	for _, memBytes := range []uint64{64 << 20, 256 << 20} {
		for _, proto := range []string{"leaf", "amnt", "anubis", "strict"} {
			combos = append(combos, combo{memBytes, proto})
		}
	}
	// Recovery needs the crashed machine, so these are engine jobs.
	reports := make([]mee.RecoveryReport, len(combos))
	jobs := make([]Job, len(combos))
	for i, c := range combos {
		i, c := i, c
		jobs[i] = Job{
			Label: fmt.Sprintf("table4measured/%s@%s", c.proto, byteString(c.memBytes)),
			Fn: func(ctx context.Context) error {
				cfg := sim.DefaultConfig()
				cfg.MemoryBytes = c.memBytes
				cfg.Seed = o.Seed
				policy, err := sim.PolicyByName(c.proto, o.SubtreeLevel)
				if err != nil {
					return err
				}
				// Fixed-size fill (independent of Scale): the point is to
				// populate enough dirty state that recovery has work.
				spec := workload.Spec{
					Name: "fill", Suite: "bench", FootprintBytes: c.memBytes / 2,
					WriteRatio: 0.6, GapMean: 2, Model: workload.Chase,
					Accesses: 60_000,
				}
				m := sim.NewMachine(cfg, policy, []workload.Spec{spec})
				if _, err := m.RunContext(ctx); err != nil {
					return err
				}
				m.Crash()
				rep, err := m.Controller().Recover(m.Now())
				if err != nil {
					return fmt.Errorf("%s@%d: %w", c.proto, c.memBytes, err)
				}
				reports[i] = rep
				return nil
			},
		}
	}
	if err := o.engine.Do(o.ctx(), jobs...); err != nil {
		return nil, err
	}
	t := stats.NewTable("Table 4 (measured) — functional recovery on small memories",
		"memory", "protocol", "counter reads", "node writes", "modeled time")
	for i, c := range combos {
		rep := reports[i]
		t.AddRow(byteString(c.memBytes), c.proto, rep.CounterReads, rep.NodeWrites,
			model.FromReport(rep).String())
	}
	t.AddNote("leaf traffic scales with the touched footprint; amnt is bounded by one subtree region; strict is free")
	return t, nil
}
