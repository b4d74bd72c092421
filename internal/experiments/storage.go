package experiments

import (
	"amnt/internal/sim"
	"amnt/internal/stats"
	"amnt/internal/workload"
)

// storageProtocols compared for the in-memory storage study: the
// crash-consistent schemes plus the battery-backed design point.
var storageProtocols = []string{"leaf", "strict", "plp", "triad", "anubis", "bmf", "battery", "indirect", "amnt", "amnt++"}

// Storage reproduces the abstract's headline claim on its target
// applications: in-memory key-value storage (YCSB-style mixes).
// Write-heavy mixes (A, F) are exactly where crash-consistent
// metadata persistence hurts, and where AMNT's fast subtree pays off;
// read-dominated mixes (B, C) show which protocols tax reads too.
var Storage = Driver{Name: "storage", Plan: func(o Options) Plan {
	suite := workload.YCSB()
	sets := singles(suite)
	return Plan{
		Cells: normalizedCells("storage", "single", storageProtocols, sets),
		Render: func(res []sim.Result) []*stats.Table {
			t := stats.NewTable("In-memory storage (YCSB mixes) — normalized cycles (lower is better)",
				append([]string{"mix"}, storageProtocols...)...)
			perProto := make(map[string][]float64)
			var amntVsAnubis []float64
			for i, r := range o.normRows(res, storageProtocols, sets) {
				row := []interface{}{suite[i].Name}
				for _, p := range storageProtocols {
					row = append(row, r.norm[p])
					perProto[p] = append(perProto[p], r.norm[p])
				}
				t.AddRow(row...)
				if r.norm["anubis"] > 1 {
					amntVsAnubis = append(amntVsAnubis, 1-(r.norm["amnt"]-1)/(r.norm["anubis"]-1))
				}
			}
			row := []interface{}{"mean"}
			for _, p := range storageProtocols {
				row = append(row, stats.Mean(perProto[p]))
			}
			t.AddRow(row...)
			if len(amntVsAnubis) > 0 {
				t.AddNote("amnt cuts the state-of-the-art's (anubis) overhead by %.0f%% on average across mixes", 100*stats.Mean(amntVsAnubis))
			}
			t.AddNote("paper abstract: \"a 41%% reduction in execution overhead on average versus the state-of-the-art\" for in-memory storage")
			t.AddNote("battery matches volatile at runtime but requires provisioned flush energy (see ablations)")
			t.AddNote("indirect (ProMT/Bo-Tree-style) pays a membership fetch before every access — visible even on the read-only mix (§7.3)")
			return []*stats.Table{t}
		},
	}
}}
