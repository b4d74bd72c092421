package experiments

import (
	"context"
	"fmt"

	"amnt/internal/cache"
	"amnt/internal/core"
	"amnt/internal/faults"
	"amnt/internal/mee"
	"amnt/internal/scm"
	"amnt/internal/sim"
	"amnt/internal/stats"
	"amnt/internal/workload"
)

// This file holds the ablation studies DESIGN.md calls out: each one
// isolates a design choice of AMNT or of the simulator's timing model
// and shows what it buys. They are not figures from the paper; they
// back the paper's design claims ("the history buffer is lightweight",
// "AMNT is agnostic to metadata cache size", ...) with measurements.
//
// Ablations that only vary sim.Config fields declare their cells as
// RunSpecs with a Mutate (the mutated config is part of the run-cache
// key, and a Mutate that leaves the front end alone replays the stock
// stream); ablations that need the machine or policy object afterwards
// declare engine jobs.

// movingHotspot is a workload whose hot region relocates every phase —
// the adversarial-ish pattern that exercises hot-region tracking.
func movingHotspot() workload.Spec {
	// The window advances half its size (96 MB) every 8k accesses, so
	// over the full trace the hotspot marches across several 128 MB
	// subtree regions and the tracker must chase it.
	return workload.Spec{
		Name: "moving-hotspot", Suite: "ablation", FootprintBytes: 3 << 30,
		WriteRatio: 0.45, GapMean: 8, Model: workload.Phased,
		WindowBytes: 192 << 20, PhaseLen: 8_000, Accesses: 200_000,
	}
}

// AblationHistoryInterval sweeps the hot-region tracking interval (and
// history buffer capacity) of AMNT. Small intervals chase the hotspot
// aggressively (more movements, more flush traffic); large intervals
// react slowly (lower subtree hit rate on moving workloads). The
// paper's default is 64 writes.
var AblationHistoryInterval = Driver{Name: "ablation: history interval", Plan: func(o Options) Plan {
	spec := movingHotspot().Scale(o.Scale)
	intervals := []int{8, 16, 64, 256, 1024}
	// A cell keeps numbers, not the policy: the policy holds its
	// controller and device, which would stay live until the whole run
	// renders.
	type cell struct {
		cycles, movements, flushed, histBytes uint64
		hit                                   float64
	}
	cells := make([]cell, len(intervals))
	jobs := make([]Job, len(intervals))
	for i, interval := range intervals {
		jobs[i] = Job{
			Label: fmt.Sprintf("ablation-interval/%d", interval),
			Fn: func(ctx context.Context) error {
				cfg := o.machineFor("single")
				policy := core.New(core.WithLevel(o.SubtreeLevel), core.WithInterval(interval))
				res, err := sim.RunWithContext(ctx, cfg, policy, spec)
				if err != nil {
					return err
				}
				cells[i] = cell{res.Cycles, policy.Movements(), policy.FlushedNodes(),
					policy.Overhead().VolOnChipBytes, policy.SubtreeHitRate()}
				return nil
			},
		}
	}
	return Plan{
		Jobs: jobs,
		Render: func([]sim.Result) []*stats.Table {
			t := stats.NewTable("Ablation — AMNT hot-region tracking interval (moving hotspot)",
				"interval", "cycles", "subtree hit", "movements", "flushed nodes", "history bytes")
			for i, interval := range intervals {
				c := cells[i]
				t.AddRow(interval, c.cycles, fmt.Sprintf("%.1f%%", 100*c.hit),
					c.movements, c.flushed, c.histBytes)
			}
			t.AddNote("the paper's 64-write interval balances reaction speed against movement churn at 96 B of SRAM")
			return []*stats.Table{t}
		},
	}
}}

// AblationMetaCache sweeps the metadata cache size for AMNT and
// Anubis. The paper argues AMNT's performance does not lean on the
// metadata cache (its fast path is decided by address, not residency)
// while Anubis pays its shadow write on every miss.
var AblationMetaCache = Driver{Name: "ablation: metadata cache", Plan: func(o Options) Plan {
	spec, _ := workload.ByName("canneal")
	sizes := []int{8, 16, 32, 64, 128}
	protos := []string{"volatile", "amnt", "anubis"}
	var cells []RunSpec
	for _, kb := range sizes {
		for _, p := range protos {
			cells = append(cells, RunSpec{
				Label: fmt.Sprintf("ablation-metacache/%dkB/%s", kb, p),
				Kind:  "single", Protocol: p, Specs: []workload.Spec{spec},
				Mutate: func(cfg *sim.Config) { cfg.MEE.MetaCacheBytes = kb << 10 },
			})
		}
	}
	return Plan{
		Cells: cells,
		Render: func(res []sim.Result) []*stats.Table {
			t := stats.NewTable("Ablation — metadata cache size (canneal: poor metadata locality)",
				"meta cache", "amnt norm", "anubis norm", "amnt meta hit", "anubis meta hit")
			for i, r := range byRow(res, len(protos)) {
				base, amnt, anubis := r[0], r[1], r[2]
				t.AddRow(fmt.Sprintf("%d kB", sizes[i]),
					float64(amnt.Cycles)/float64(base.Cycles),
					float64(anubis.Cycles)/float64(base.Cycles),
					fmt.Sprintf("%.1f%%", 100*amnt.MetaHitRate),
					fmt.Sprintf("%.1f%%", 100*anubis.MetaHitRate))
			}
			t.AddNote("anubis degrades as the cache shrinks (a blocking shadow write per miss); amnt barely moves")
			return []*stats.Table{t}
		},
	}
}}

// AblationCoalescing disables write-queue address coalescing — the
// mechanism that makes leaf-style counter/HMAC persists nearly free.
// Without it every posted persist occupies a drain slot and leaf
// persistence inherits a strict-like bandwidth bill. The switch is a
// controller setting, so all six cells replay one lbm stream.
var AblationCoalescing = Driver{Name: "ablation: coalescing", Plan: func(o Options) Plan {
	spec, _ := workload.ByName("lbm")
	names := []string{"leaf", "strict", "amnt"}
	var cells []RunSpec
	for _, name := range names {
		for _, disable := range []bool{false, true} {
			cells = append(cells, RunSpec{
				Label: fmt.Sprintf("ablation-coalesce/%s/disable=%v", name, disable),
				Kind:  "single", Protocol: name, Specs: []workload.Spec{spec},
				Mutate: func(cfg *sim.Config) { cfg.MEE.NoCoalesce = disable },
			})
		}
	}
	return Plan{
		Cells: cells,
		Render: func(res []sim.Result) []*stats.Table {
			t := stats.NewTable("Ablation — write-queue address coalescing (lbm, write-intensive)",
				"protocol", "coalescing", "cycles", "merged writes")
			for i, r := range byRow(res, 2) {
				t.AddRow(names[i], "on", r[0].Cycles, r[0].MergedWrites)
				t.AddRow(names[i], "off", r[1].Cycles, r[1].MergedWrites)
			}
			t.AddNote("real write-pending queues merge repeated updates to the same counter/HMAC block; modeling that is what separates leaf from strict")
			return []*stats.Table{t}
		},
	}
}}

// AblationStopLoss sweeps Osiris's stop-loss interval: runtime
// improves with laziness while recovery replay work grows. It reads
// the run's device stats before the crash, so it crashes the machine
// it ran and hands recovery to the checker rather than to RunCell.
var AblationStopLoss = Driver{Name: "ablation: stop-loss", Plan: func(o Options) Plan {
	spec, _ := workload.ByName("xz")
	spec = spec.Scale(o.Scale)
	ns := []uint64{1, 2, 4, 8, 16}
	type cell struct {
		res       sim.Result
		persists  uint64
		dataReads uint64
		verdict   string
	}
	cells := make([]cell, len(ns))
	jobs := make([]Job, len(ns))
	for i, n := range ns {
		jobs[i] = Job{
			Label: fmt.Sprintf("ablation-stoploss/N=%d", n),
			Fn: func(ctx context.Context) error {
				cfg := o.machineFor("single")
				policy := mee.NewOsiris(n)
				m := sim.NewMachine(cfg, policy, []workload.Spec{spec})
				res, err := m.RunContext(ctx)
				if err != nil {
					return err
				}
				persists := m.Controller().Device().Stats().RegionWrites[scm.Counter].Value()
				m.Crash()
				oc := faults.CheckRecovery(ctx, m.Controller(), m.Now(), faults.CheckOptions{})
				cells[i] = cell{res, persists, oc.Report.DataReads, oc.Status.String()}
				return nil
			},
		}
	}
	return Plan{
		Jobs: jobs,
		Render: func([]sim.Result) []*stats.Table {
			t := stats.NewTable("Ablation — Osiris stop-loss interval (xz, write-intensive)",
				"N", "cycles", "counter persists", "recovery data reads", "verdict")
			for i, n := range ns {
				c := cells[i]
				t.AddRow(n, c.res.Cycles, c.persists, c.dataReads, c.verdict)
			}
			t.AddNote("N=1 degenerates to leaf persistence; larger N trades counter write traffic for recovery replay work")
			return []*stats.Table{t}
		},
	}
}}

// AblationReadOverlap sweeps the memory-level-parallelism divisor of
// the timing model, documenting its (second-order) effect on the
// normalized comparisons the figures report.
var AblationReadOverlap = Driver{Name: "ablation: read overlap", Plan: func(o Options) Plan {
	spec, _ := workload.ByName("bodytrack")
	overlaps := []uint64{1, 2, 4, 8}
	protos := []string{"volatile", "strict", "amnt"}
	var cells []RunSpec
	for _, ov := range overlaps {
		for _, p := range protos {
			cells = append(cells, RunSpec{
				Label: fmt.Sprintf("ablation-overlap/%d/%s", ov, p),
				Kind:  "single", Protocol: p, Specs: []workload.Spec{spec},
				Mutate: func(cfg *sim.Config) { cfg.MEE.ReadOverlap = ov },
			})
		}
	}
	return Plan{
		Cells: cells,
		Render: func(res []sim.Result) []*stats.Table {
			t := stats.NewTable("Ablation — read MLP divisor (bodytrack)",
				"overlap", "volatile cycles", "strict norm", "amnt norm")
			for i, r := range byRow(res, len(protos)) {
				base, strict, amnt := r[0], r[1], r[2]
				t.AddRow(overlaps[i], base.Cycles,
					float64(strict.Cycles)/float64(base.Cycles),
					float64(amnt.Cycles)/float64(base.Cycles))
			}
			t.AddNote("more read overlap shrinks the read-bound baseline and amplifies write-path differences; orderings are stable")
			return []*stats.Table{t}
		},
	}
}}

// AblationReplacement sweeps the metadata cache's replacement policy.
// The protocols' orderings are insensitive to it — the point of the
// ablation — though absolute hit rates shift a little.
var AblationReplacement = Driver{Name: "ablation: replacement", Plan: func(o Options) Plan {
	spec, _ := workload.ByName("bodytrack")
	repls := []cache.Replacement{cache.LRU, cache.FIFO, cache.Random}
	protos := []string{"volatile", "amnt", "anubis"}
	var cells []RunSpec
	for _, repl := range repls {
		for _, p := range protos {
			cells = append(cells, RunSpec{
				Label: fmt.Sprintf("ablation-replacement/%s/%s", repl, p),
				Kind:  "single", Protocol: p, Specs: []workload.Spec{spec},
				Mutate: func(cfg *sim.Config) { cfg.MEE.MetaReplacement = repl },
			})
		}
	}
	return Plan{
		Cells: cells,
		Render: func(res []sim.Result) []*stats.Table {
			t := stats.NewTable("Ablation — metadata cache replacement policy (bodytrack)",
				"policy", "amnt norm", "anubis norm", "meta hit (amnt)")
			for i, r := range byRow(res, len(protos)) {
				base, amnt, anubis := r[0], r[1], r[2]
				t.AddRow(repls[i].String(),
					float64(amnt.Cycles)/float64(base.Cycles),
					float64(anubis.Cycles)/float64(base.Cycles),
					fmt.Sprintf("%.1f%%", 100*amnt.MetaHitRate))
			}
			t.AddNote("the figures' conclusions do not hinge on the LRU assumption")
			return []*stats.Table{t}
		},
	}
}}

// AblationMultiSubtree quantifies the design alternative the paper
// raises and rejects in §5: instead of AMNT++'s software fix for
// multiprogram interference, give the hardware K fast-subtree
// registers ("per-core subtrees"). The sweep shows what each extra
// register buys against its NV cost — and that one register plus the
// modified allocator reaches similar hit rates for 64 B of flash.
var AblationMultiSubtree = Driver{Name: "ablation: multi-subtree", Plan: func(o Options) Plan {
	a, _ := workload.ByName("bodytrack")
	b, _ := workload.ByName("fluidanimate")
	specs := []workload.Spec{a.Scale(o.Scale), b.Scale(o.Scale)}
	ks := []int{1, 2, 4, 8}
	type cell struct {
		cycles uint64
		hit    float64
		nv     uint64
	}
	cells := make([]cell, len(ks)+1)
	jobs := make([]Job, 0, len(ks)+1)
	for i, k := range ks {
		jobs = append(jobs, Job{
			Label: fmt.Sprintf("ablation-multisubtree/K=%d", k),
			Fn: func(ctx context.Context) error {
				cfg := o.machineFor("multi")
				policy := core.New(core.WithLevel(o.SubtreeLevel), core.WithRegisters(k))
				m := sim.NewMachine(cfg, policy, specs)
				res, err := m.RunContext(ctx)
				if err != nil {
					return err
				}
				cells[i] = cell{res.Cycles, policy.SubtreeHitRate(), policy.Overhead().NVOnChipBytes}
				return nil
			},
		})
	}
	jobs = append(jobs, Job{
		Label: "ablation-multisubtree/amnt++",
		Fn: func(ctx context.Context) error {
			cfg := o.machineFor("multi")
			cfg.AMNTPlusPlusLevel = o.SubtreeLevel
			policy := core.New(core.WithLevel(o.SubtreeLevel))
			res, err := sim.RunWithContext(ctx, cfg, policy, specs...)
			if err != nil {
				return err
			}
			cells[len(ks)] = cell{res.Cycles, policy.SubtreeHitRate(), policy.Overhead().NVOnChipBytes}
			return nil
		},
	})
	return Plan{
		Jobs: jobs,
		Render: func([]sim.Result) []*stats.Table {
			t := stats.NewTable("Ablation — K fast subtrees vs AMNT++ (bodytrack+fluidanimate)",
				"config", "cycles", "subtree hit", "NV on-chip")
			for i, k := range ks {
				t.AddRow(fmt.Sprintf("K=%d registers", k), cells[i].cycles,
					fmt.Sprintf("%.1f%%", 100*cells[i].hit), byteString(cells[i].nv))
			}
			last := cells[len(ks)]
			t.AddRow("K=1 + AMNT++ (software)", last.cycles,
				fmt.Sprintf("%.1f%%", 100*last.hit), byteString(last.nv))
			t.AddNote("the paper's position (§5): biasing the allocator recovers the locality per-core registers would buy, without the flash")
			return []*stats.Table{t}
		},
	}
}}
