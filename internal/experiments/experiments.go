// Package experiments contains one driver per table and figure in the
// paper's evaluation (§6), plus the ablations behind its design claims.
// A driver is data: its Plan declares its cells — (workload set ×
// protocol × machine configuration) — and, when it needs the Machine
// itself, its jobs; its Render builds the tables from the results. Run
// takes the union of every selected driver's cells, runs it once on
// the experiment engine (engine.go) — a bounded worker pool with a
// memoized run-cache, recorded front-end streams, cancellation and
// structured progress — and then renders each driver in turn. The
// drivers are shared by cmd/amntbench and the repository's benchmark
// harness (bench_test.go); cell outputs are deterministic, so the
// rendered tables are bit-identical at any pool width.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"amnt/internal/faults"
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
	// when it is done; Run then returns its error.
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
}

// withDefaults fills the numeric defaults.
func (o Options) withDefaults() Options {
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

// Driver is one table or figure of the evaluation. Plan declares what
// it runs; Run runs the union of every selected driver's plans, then
// calls each plan's Render.
type Driver struct {
	// Name labels the driver in logs and errors ("figure 4").
	Name string
	Plan func(o Options) Plan
}

// Plan is a driver's share of a run.
type Plan struct {
	// Cells are the simulations whose sim.Result is all the driver
	// reads; they share the run-cache and recorded streams with every
	// other driver of the run.
	Cells []RunSpec
	// Jobs run on the same pool; a driver uses them when it needs the
	// Machine or policy object itself, and they write what Render
	// reads.
	Jobs []Job
	// Render builds the driver's tables once every cell and job of the
	// run has succeeded; res[i] is Cells[i]'s result.
	Render func(res []sim.Result) []*stats.Table
}

// All is every driver, in the order amntbench -all prints them.
var All = []Driver{
	Figure3, Figure4, Figure5, Figures6And7, Figure8,
	Table2, Table3, Table4, Table4Measured, Storage,
	AblationHistoryInterval, AblationMetaCache, AblationCoalescing, AblationStopLoss,
	AblationReadOverlap, AblationReplacement, AblationMultiSubtree,
}

// Run plans every driver, runs the union of their cells and jobs once
// on one engine, and returns the drivers' tables in selection order.
func Run(o Options, drivers ...Driver) ([]*stats.Table, error) {
	o = o.withDefaults()
	return NewEngine(o).runDrivers(o, drivers)
}

// runDrivers is Run on e: plan every driver, run the union on e, and
// render only once every cell and job has succeeded.
func (e *Engine) runDrivers(o Options, drivers []Driver) ([]*stats.Table, error) {
	plans := make([]Plan, len(drivers))
	for i, d := range drivers {
		plans[i] = d.Plan(o)
	}
	res, err := e.runPlans(o.ctx(), o, plans)
	if err != nil {
		return nil, err
	}
	var tables []*stats.Table
	for i, d := range drivers {
		o.logf("%s:", d.Name)
		tables = append(tables, plans[i].Render(res[i])...)
	}
	return tables, nil
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

// normalizedCells declares volatile plus every compared protocol for
// every workload set, one row per set; normRows reads them back.
func normalizedCells(tag, kind string, protocols []string, sets [][]workload.Spec) []RunSpec {
	cells := make([]RunSpec, 0, len(sets)*(len(protocols)+1))
	for _, set := range sets {
		for _, p := range append([]string{"volatile"}, protocols...) {
			cells = append(cells, RunSpec{
				Label: tag + "/" + specName(set) + "/" + p,
				Kind:  kind, Protocol: p, Specs: set,
			})
		}
	}
	return cells
}

// normRows reads normalizedCells' results back as one normRow per set.
func (o Options) normRows(res []sim.Result, protocols []string, sets [][]workload.Spec) []normRow {
	rows := make([]normRow, len(sets))
	for i, r := range byRow(res, len(protocols)+1) {
		norm := make(map[string]float64, len(protocols))
		raw := map[string]sim.Result{"volatile": r[0]}
		for j, p := range protocols {
			norm[p] = float64(r[1+j].Cycles) / float64(r[0].Cycles)
			raw[p] = r[1+j]
			o.logf("  %-22s %-8s %.3f (meta hit %.1f%%, subtree hit %.1f%%)",
				specName(sets[i]), p, norm[p], 100*r[1+j].MetaHitRate, 100*r[1+j].SubtreeHitRate)
		}
		rows[i] = normRow{norm: norm, raw: raw}
	}
	return rows
}

// byRow splits a driver's results into rows of n: the shape of a plan
// that declares its cells row by row, n per row.
func byRow(res []sim.Result, n int) [][]sim.Result {
	rows := make([][]sim.Result, 0, len(res)/n)
	for len(res) > 0 {
		rows = append(rows, res[:n:n])
		res = res[n:]
	}
	return rows
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
var Figure3 = Driver{Name: "figure 3", Plan: func(o Options) Plan {
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
	return Plan{
		Jobs: []Job{
			histJob("single", &single, nil, lbm),
			histJob("multi", &multi, &multiPages, perl, lbm),
		},
		Render: func([]sim.Result) []*stats.Table {
			// Bucket over the touched physical range so the density
			// shape is visible (the paper plots accesses per address,
			// not per 128 MB).
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
			return []*stats.Table{t}
		},
	}
}}

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

// --- Figures 4, 5, 8 ---------------------------------------------------

// Figure4 reproduces normalized execution cycles for single-program
// PARSEC under every protocol, normalized to volatile secure memory.
var Figure4 = Driver{Name: "figure 4", Plan: func(o Options) Plan {
	suite := workload.PARSEC()
	sets := singles(suite)
	return Plan{
		Cells: normalizedCells("figure4", "single", comparedProtocols, sets),
		Render: func(res []sim.Result) []*stats.Table {
			t := stats.NewTable("Figure 4 — normalized cycles, single-program PARSEC (lower is better)",
				append([]string{"workload"}, comparedProtocols...)...)
			perProto := make(map[string][]float64)
			var cannealNote string
			for i, r := range o.normRows(res, comparedProtocols, sets) {
				spec := suite[i]
				row := []interface{}{spec.Name}
				for _, p := range comparedProtocols {
					row = append(row, r.norm[p])
					perProto[p] = append(perProto[p], r.norm[p])
				}
				t.AddRow(row...)
				if spec.Name == "canneal" {
					cannealNote = fmt.Sprintf(
						"canneal metadata cache hit rate %.1f%% (paper: 30.4%%); anubis pays a shadow write per miss",
						100*r.raw["anubis"].MetaHitRate)
				}
				if a := r.raw["amnt"]; a.Writes > 0 {
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
			return []*stats.Table{t}
		},
	}
}}

// Figure5 reproduces normalized cycles for the multiprogram PARSEC
// pairs on the two-core configuration.
var Figure5 = Driver{Name: "figure 5", Plan: func(o Options) Plan {
	pairs := workload.MultiProgramPairs()
	sets := make([][]workload.Spec, len(pairs))
	for i, pair := range pairs {
		sets[i] = pairSpecs(pair)
	}
	return Plan{
		Cells: normalizedCells("figure5", "multi", comparedProtocols, sets),
		Render: func(res []sim.Result) []*stats.Table {
			t := stats.NewTable("Figure 5 — normalized cycles, multiprogram PARSEC (lower is better)",
				append([]string{"pair"}, comparedProtocols...)...)
			for i, r := range o.normRows(res, comparedProtocols, sets) {
				row := []interface{}{pairs[i][0] + "+" + pairs[i][1]}
				for _, p := range comparedProtocols {
					row = append(row, r.norm[p])
				}
				t.AddRow(row...)
				o.logf("  %s: amnt subtree hit %.1f%% -> amnt++ %.1f%%", specName(sets[i]),
					100*r.raw["amnt"].SubtreeHitRate, 100*r.raw["amnt++"].SubtreeHitRate)
			}
			t.AddNote("paper: amnt++ raises body+fluid subtree hit rate 91%% -> 97%% and closes the gap to leaf")
			return []*stats.Table{t}
		},
	}
}}

// Figure8 reproduces the SPEC CPU2017 comparison on the four-core
// multithreaded configuration.
var Figure8 = Driver{Name: "figure 8", Plan: func(o Options) Plan {
	suite := workload.SPEC()
	sets := make([][]workload.Spec, len(suite))
	for i, spec := range suite {
		// Four threads of the same program share one address space.
		sets[i] = []workload.Spec{spec, spec, spec, spec}
	}
	return Plan{
		Cells: normalizedCells("figure8", "threads", Figure8Protocols, sets),
		Render: func(res []sim.Result) []*stats.Table {
			t := stats.NewTable("Figure 8 — normalized cycles, SPEC CPU2017 (lower is better)",
				append([]string{"workload"}, Figure8Protocols...)...)
			perProto := make(map[string][]float64)
			for i, r := range o.normRows(res, Figure8Protocols, sets) {
				row := []interface{}{suite[i].Name}
				for _, p := range Figure8Protocols {
					row = append(row, r.norm[p])
					perProto[p] = append(perProto[p], r.norm[p])
				}
				t.AddRow(row...)
			}
			row := []interface{}{"mean"}
			for _, p := range Figure8Protocols {
				row = append(row, stats.Mean(perProto[p]))
			}
			t.AddRow(row...)
			t.AddNote("paper: amnt beats anubis by 13%% on average (41%% on xz); amnt within 2%% of leaf")
			return []*stats.Table{t}
		},
	}
}}

// --- Figures 6 & 7 ------------------------------------------------------

// SubtreeLevels swept in Figures 6 and 7.
var SubtreeLevels = []int{2, 3, 4, 5, 6, 7}

// Figures6And7 sweeps the AMNT subtree level over the multiprogram
// pairs and reports both normalized cycles (Figure 6) and subtree hit
// rates (Figure 7) for AMNT and AMNT++.
var Figures6And7 = Driver{Name: "figures 6+7", Plan: func(o Options) Plan {
	pairs := workload.MultiProgramPairs()
	protos := []string{"amnt", "amnt++"}
	// Per pair one volatile baseline plus the (protocol × level) grid;
	// run-cache keys keep the levels distinct.
	var cells []RunSpec
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
	return Plan{
		Cells: cells,
		Render: func(res []sim.Result) []*stats.Table {
			header := []string{"pair", "protocol"}
			for _, l := range SubtreeLevels {
				header = append(header, fmt.Sprintf("L%d", l))
			}
			perf := stats.NewTable("Figure 6 — normalized cycles vs subtree level", header...)
			hits := stats.NewTable("Figure 7 — subtree hit rate vs subtree level", header...)
			for pi, r := range byRow(res, 1+len(protos)*len(SubtreeLevels)) {
				name := pairs[pi][0] + "+" + pairs[pi][1]
				for pr, levels := range byRow(r[1:], len(SubtreeLevels)) {
					perfRow := []interface{}{name, protos[pr]}
					hitRow := []interface{}{name, protos[pr]}
					for _, l := range levels {
						perfRow = append(perfRow, float64(l.Cycles)/float64(r[0].Cycles))
						hitRow = append(hitRow, l.SubtreeHitRate)
					}
					perf.AddRow(perfRow...)
					hits.AddRow(hitRow...)
				}
			}
			perf.AddNote("higher levels protect less memory; amnt++ recovers hit rate the hardware alone loses")
			return []*stats.Table{perf, hits}
		},
	}
}}

// --- Tables -------------------------------------------------------------

// Table2 measures the cost of the modified operating system in
// isolation: the same multiprogram workloads on the same (volatile)
// secure memory, with only the kernel changed. Differences therefore
// come from the allocator modification itself — extra instructions in
// the reclamation path, and whatever cache-locality change the biased
// placement produces — exactly the comparison in the paper's Table 2.
var Table2 = Driver{Name: "table 2", Plan: func(o Options) Plan {
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
	return Plan{
		Cells: cells,
		Render: func(res []sim.Result) []*stats.Table {
			t := stats.NewTable("Table 2 — impact of the modified OS (multiprogram)",
				"pair", "normalized performance", "instruction overhead")
			for i, r := range byRow(res, 2) {
				plain, modified := r[0], r[1]
				t.AddRow(pairs[i][0]+"+"+pairs[i][1],
					float64(modified.Cycles)/float64(plain.Cycles),
					float64(modified.Instructions)/float64(plain.Instructions))
			}
			t.AddNote("paper: normalized performance 0.967-1.013, instruction overhead 1.004-1.021")
			return []*stats.Table{t}
		},
	}
}}

// Table3 reports the hardware overhead comparison for a 64 kB
// metadata cache, straight from each policy's Overhead(). No
// simulation runs: the driver declares no cells, and Render attaches
// each policy to a machine so cache-size-dependent overheads resolve.
var Table3 = Driver{Name: "table 3", Plan: func(o Options) Plan {
	return Plan{Render: func([]sim.Result) []*stats.Table {
		t := stats.NewTable("Table 3 — hardware overhead (64 kB metadata cache)",
			"protocol", "NV on-chip", "volatile on-chip", "in-memory")
		cfg := o.machineFor("single")
		for _, name := range []string{"bmf", "anubis", "amnt"} {
			policy, err := sim.PolicyByName(name, o.SubtreeLevel)
			if err != nil {
				panic("experiments: " + err.Error())
			}
			sim.NewMachine(cfg, policy, []workload.Spec{workload.Quickstart()})
			ov := policy.Overhead()
			t.AddRow(name, byteString(ov.NVOnChipBytes), byteString(ov.VolOnChipBytes), byteString(ov.InMemoryBytes))
		}
		t.AddNote("paper: BMF 4kB/768B/-, Anubis 64B/37kB/37kB, AMNT 64B/96B/-")
		return []*stats.Table{t}
	}}
}}

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
var Table4 = Driver{Name: "table 4", Plan: func(Options) Plan {
	return Plan{Render: func([]sim.Result) []*stats.Table {
		return []*stats.Table{recovery.Table4(recovery.DefaultModel())}
	}}
}}

// Table4Measured validates the analytic model's scaling with
// functional recoveries on small simulated memories: each row is one
// crash cell (RunCell) at quiescence on the default core, its
// measured recovery traffic converted to modeled time and its outcome
// judged by the recovery checker.
var Table4Measured = Driver{Name: "table 4 (measured)", Plan: func(o Options) Plan {
	memories := []uint64{64 << 20, 256 << 20}
	protocols := []string{"strict", "leaf", "osiris", "anubis", "bmf", "amnt", "amnt-multi"}
	// Recovery needs the crashed machine, so these are engine jobs.
	cells := make([]CellResult, len(memories)*len(protocols))
	var jobs []Job
	for mi, memBytes := range memories {
		for pi, proto := range protocols {
			i := mi*len(protocols) + pi
			jobs = append(jobs, Job{
				Label: fmt.Sprintf("table4measured/%s@%s", proto, byteString(memBytes)),
				Fn: func(ctx context.Context) error {
					cfg := sim.DefaultConfig()
					cfg.MemoryBytes = memBytes
					cfg.Seed = o.Seed
					cells[i] = RunCell(ctx, CellSpec{
						Protocol:     proto,
						Kind:         faults.KindCrash,
						Machine:      cfg,
						SubtreeLevel: o.SubtreeLevel,
						// Fixed-size fill (independent of Scale): the point is
						// to populate enough dirty state that recovery has work.
						Workload: fillSpec(memBytes, 60_000),
					})
					if cells[i].Error != "" {
						return errors.New(cells[i].Error)
					}
					return nil
				},
			})
		}
	}
	return Plan{
		Jobs: jobs,
		Render: func([]sim.Result) []*stats.Table {
			model := recovery.DefaultModel()
			t := stats.NewTable("Table 4 (measured) — functional recovery on small memories",
				"memory", "protocol", "counter reads", "node writes", "modeled time",
				"data reads", "recovery cycles", "verdict")
			for i, c := range cells {
				rep := c.Report
				t.AddRow(byteString(memories[i/len(protocols)]), c.Protocol, rep.CounterReads, rep.NodeWrites,
					model.FromReport(rep).String(), rep.DataReads, rep.Cycles, c.Status)
			}
			t.AddNote("leaf traffic scales with the touched footprint; amnt is bounded by one subtree region; strict is free")
			t.AddNote("osiris's data reads are its ECC scan; verdict is the recovery checker's (DESIGN.md §8)")
			return []*stats.Table{t}
		},
	}
}}
