package e2e

import (
	"math"
	"sort"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Def names a metric and its unit. BENCHMARK.json repeats these and
// adds each metric's direction and regression bound; the smoke test
// keeps the two in step.
type Def struct {
	Name string
	Unit string
}

// EndToEnd are the end-to-end metrics. Every workload reports every
// one of them, because the harness that consumes the benchmark
// compares every pairing of metric and workload and accepts no empty
// or zero cell. A workload measures natively the metrics whose request
// kind it issues (see Native). Every other cell holds the wall time of
// the run's measured phase, converted to the metric's unit: a real
// measurement that cannot be mistaken for a latency (ten seconds where
// microseconds are expected), is never zero, and cannot regress, so a
// bound only ever judges the workloads the metric is native to.
var EndToEnd = []Def{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"get_p50_us", "us"},
	{"get_p99_us", "us"},
	{"put_p50_us", "us"},
	{"put_p99_us", "us"},
	{"batch_p50_us", "us"},
	{"batch_p99_us", "us"},
	{"recover_ms_p50", "ms"},
	{"first_get_us_p50", "us"},
	{"sim_wall_s", "s"},
}

// Native lists, per workload, the end-to-end metrics it measures on
// its own requests; setup_s and ops_per_s are native everywhere.
var Native = map[string][]string{
	"perop-mixed":   {"get_p50_us", "get_p99_us", "put_p50_us", "put_p99_us"},
	"batch-mixed":   {"batch_p50_us", "batch_p99_us"},
	"batch-read":    {"batch_p50_us", "batch_p99_us"},
	"proxy-batch":   {"batch_p50_us", "batch_p99_us"},
	"crash-recover": {"recover_ms_p50", "first_get_us_p50"},
	"sim-fig4":      {"sim_wall_s"},
}

// SimProtocols are Figure 4's columns in table order, and the suffix
// each takes in a sim.norm_cycles.* metric name ('+' is not allowed
// in a metric name).
var SimProtocols = []struct{ Column, Suffix string }{
	{"leaf", "leaf"}, {"strict", "strict"}, {"anubis", "anubis"},
	{"bmf", "bmf"}, {"amnt", "amnt"}, {"amnt++", "amntpp"},
}

// PerLayer are the per-layer metrics of a traced run, named
// layer.metric. A workload reports 0 for a layer that is not on its
// path (cluster.* anywhere but proxy-batch, store.* on sim-fig4, …).
var PerLayer = perLayerDefs()

func perLayerDefs() []Def {
	d := []Def{
		// cme, bmt: in-process, per 64 B call / per rebuilt leaf.
		{Name: "cme.mac_ns", Unit: "ns"}, {Name: "cme.encrypt_ns", Unit: "ns"}, {Name: "cme.nodehash_ns", Unit: "ns"},
		{Name: "bmt.rebuild_ns_per_leaf", Unit: "ns"},
		// write path.
		{Name: "mee.epoch_ns_per_op", Unit: "ns"}, {Name: "store.putbatch_ns_per_key", Unit: "ns"},
		{Name: "store.commit_climb_us_p50", Unit: "us"}, {Name: "store.persist_us_p50", Unit: "us"},
		{Name: "store.epoch_stage_us_p50", Unit: "us"}, {Name: "store.ops_per_epoch", Unit: "count"},
		{Name: "store.epoch_fallbacks", Unit: "count"},
		// read path.
		{Name: "mee.read_view_ns", Unit: "ns"}, {Name: "store.getbatch_ns_per_key", Unit: "ns"},
		{Name: "store.read_verify_us_p50", Unit: "us"}, {Name: "store.read_fallback_ratio", Unit: "ratio"},
		{Name: "store.read_retries_per_kop", Unit: "count"},
		// per-op timed path and the simulator.
		{Name: "mee.write_ns", Unit: "ns"}, {Name: "mee.read_ns", Unit: "ns"}, {Name: "sim.ns_per_access", Unit: "ns"},
	}
	for _, p := range SimProtocols {
		d = append(d, Def{Name: "sim.norm_cycles." + p.Suffix, Unit: "ratio"})
	}
	return append(d,
		// shard queue.
		Def{Name: "store.put_ns", Unit: "ns"}, Def{Name: "store.get_ns", Unit: "ns"},
		Def{Name: "store.queue_wait_us_p50", Unit: "us"}, Def{Name: "store.queue_wait_us_p99", Unit: "us"},
		Def{Name: "store.ack_us_p50", Unit: "us"}, Def{Name: "store.server_total_us_p50", Unit: "us"},
		Def{Name: "store.overloads", Unit: "count"},
		// node and load generator.
		Def{Name: "node.kv_get_handler_ns", Unit: "ns"}, Def{Name: "node.kv_put_handler_ns", Unit: "ns"},
		Def{Name: "node.batch_handler_ns_per_key", Unit: "ns"}, Def{Name: "node.handler_allocs_per_op", Unit: "count"},
		Def{Name: "node.http_residual_us_p50", Unit: "us"}, Def{Name: "loadgen.null_rtt_us_p50", Unit: "us"},
		Def{Name: "loadgen.encode_us_p50", Unit: "us"}, Def{Name: "loadgen.decode_us_p50", Unit: "us"},
		Def{Name: "loadgen.trace_overhead_pct", Unit: "%"},
		// cluster.
		Def{Name: "cluster.forward_us_p50", Unit: "us"}, Def{Name: "cluster.proxy_residual_us_p50", Unit: "us"},
		Def{Name: "cluster.route_ns", Unit: "ns"}, Def{Name: "cluster.redirects", Unit: "count"},
		// metadata cache and device.
		Def{Name: "cache.meta_hit_rate", Unit: "ratio"}, Def{Name: "scm.meta_fetches_per_op", Unit: "count"},
		Def{Name: "scm.writes_per_put", Unit: "count"}, Def{Name: "scm.merged_write_ratio", Unit: "ratio"},
		Def{Name: "mee.recover_ms.leaf", Unit: "ms"}, Def{Name: "mee.recover_ms.amnt", Unit: "ms"},
		Def{Name: "mee.recover_ms.strict", Unit: "ms"},
		// processes.
		Def{Name: "proc.server_cpu_us_per_op", Unit: "us"}, Def{Name: "proc.loadgen_cpu_us_per_op", Unit: "us"},
		Def{Name: "proc.server_rss_mb", Unit: "MB"},
	)
}

// Result is one run of one workload.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Samples states how many timings stand behind each percentile.
	Samples map[string]int `json:"samples,omitempty"`
	// Problems lists every output check that failed; any makes the
	// run incorrect. Notes are observations that do not: the first
	// refused operation, refused barriers.
	Problems []string `json:"problems,omitempty"`
	Notes    []string `json:"notes,omitempty"`
}

// Quantile returns the q-quantile of sorted xs by linear
// interpolation between the closest ranks; 0 for no samples.
func Quantile(sorted []float64, q float64) float64 {
	switch n := len(sorted); n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	default:
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		if lo >= n-1 {
			return sorted[n-1]
		}
		frac := pos - float64(lo)
		return sorted[lo]*(1-frac) + sorted[lo+1]*frac
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return Quantile(sortedCopy(xs), 0.5) }

// micros merges clients' nanosecond latencies into one sorted
// microsecond series.
func micros(series ...lats) []float64 {
	var out []float64
	for _, s := range series {
		for _, ns := range s {
			out = append(out, float64(ns)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}
