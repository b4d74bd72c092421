// Package telemetry is the simulator's observability layer: a metric
// registry components publish typed counters/gauges/histograms into,
// an epoch sampler that turns the registry into a time series over
// simulated cycles, a ring-buffered protocol event trace, and an HTTP
// introspection server (pprof, Prometheus text exposition, live
// engine progress).
//
// The layer is strictly read-only with respect to simulation state:
// metrics are closures over component statistics that already exist,
// so enabling telemetry never changes simulated timing or results.
// Everything is nil-safe — a nil *Registry, *Tracer, *Series, or
// *Session no-ops on every method — so instrumented components guard
// a single pointer and pay one branch (and zero allocations) when
// telemetry is disabled.
//
// Concurrency model: the simulator samples on the simulation goroutine
// and its HTTP server reads the last published snapshot (Latest); the
// serving daemons' columns read only atomics or locked histogram
// clones, so their servers sample on every scrape.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"amnt/internal/stats"
)

// Kind classifies a registered metric.
type Kind int

// Metric kinds.
const (
	// KindCounter is a monotonically non-decreasing event count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous level (occupancy, hit rate).
	KindGauge
	// KindHistogram is a value distribution, sampled as quantile
	// columns (p50/p99/max/count).
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// column is one sampled value: counters and gauges contribute one
// column each, histograms expand into quantile columns at
// registration time so sampling is a flat read loop.
type column struct {
	name string
	help string
	kind Kind
	read func() float64
}

// MetricSource is implemented by components (typically persistence
// policies) that expose their own metrics; Machine.EnableTelemetry
// discovers it with a type assertion.
type MetricSource interface {
	RegisterMetrics(r *Registry)
}

// Registry is a named collection of metric read functions. Register
// during setup (single goroutine), then Sample (see Sample for which
// goroutine); concurrent readers of a simulation use Latest.
type Registry struct {
	cols   []column
	byName map[string]bool
	latest atomic.Pointer[Snapshot]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

// add appends one column, panicking on duplicate names (registration
// is static wiring; a collision is a programming error).
func (r *Registry) add(c column) {
	if r.byName[c.name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", c.name))
	}
	r.byName[c.name] = true
	r.cols = append(r.cols, c)
}

// Counter registers a monotonic counter read from fn.
func (r *Registry) Counter(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.add(column{name: name, help: help, kind: KindCounter, read: func() float64 { return float64(fn()) }})
}

// Gauge registers an instantaneous value read from fn.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(column{name: name, help: help, kind: KindGauge, read: fn})
}

// Histogram registers a distribution; it samples as name.p50, .p99,
// .max, and .count columns using the histogram's quantile helpers.
func (r *Registry) Histogram(name, help string, fn func() *stats.Histogram) {
	if r == nil {
		return
	}
	quantCol := func(suffix string, read func(h *stats.Histogram) float64) column {
		return column{
			name: name + "." + suffix,
			help: help + " (" + suffix + ")",
			kind: KindHistogram,
			read: func() float64 {
				h := fn()
				if h == nil {
					return 0
				}
				return read(h)
			},
		}
	}
	r.add(quantCol("p50", func(h *stats.Histogram) float64 { return float64(h.Quantile(0.50)) }))
	r.add(quantCol("p99", func(h *stats.Histogram) float64 { return float64(h.Quantile(0.99)) }))
	r.add(quantCol("max", func(h *stats.Histogram) float64 { return float64(h.Quantile(1)) }))
	r.add(quantCol("count", func(h *stats.Histogram) float64 { return float64(h.Total()) }))
}

// Names returns the registered column names in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.name
	}
	return out
}

// Len returns the number of sampled columns.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.cols)
}

// Snapshot is one read of every registered column, in the registry's
// column order. It keeps its registry for help text and metric kinds.
type Snapshot struct {
	Cycle  uint64
	Names  []string
	Values []float64
	reg    *Registry
}

// Value returns the sampled value of a column by name (0, false when
// absent).
func (s *Snapshot) Value(name string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	for i, n := range s.Names {
		if n == name {
			return s.Values[i], true
		}
	}
	return 0, false
}

// Sample reads every column at the given simulated cycle, publishes
// the snapshot for concurrent readers (Latest), and returns it. Call
// it from the goroutine that owns the state the columns read, or from
// any goroutine when every column is safe to read concurrently.
func (r *Registry) Sample(cycle uint64) *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{Cycle: cycle, Names: r.Names(), Values: make([]float64, len(r.cols)), reg: r}
	for i, c := range r.cols {
		s.Values[i] = c.read()
	}
	r.latest.Store(s)
	return s
}

// Latest returns the most recently published snapshot (nil before the
// first Sample). Safe for concurrent use; the returned snapshot is
// immutable.
func (r *Registry) Latest() *Snapshot {
	if r == nil {
		return nil
	}
	return r.latest.Load()
}

// promName mangles a dotted metric name into Prometheus form
// ("mee.data_reads" -> "amnt_mee_data_reads").
func promName(name string) string {
	mangled := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	return "amnt_" + mangled
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format. Histogram-derived quantile columns are exposed as gauges. A
// nil snapshot writes nothing.
func (s *Snapshot) WritePrometheus(b *strings.Builder) {
	if s == nil {
		return
	}
	// Column order is registration order; sort a copy of the indices
	// by name so the exposition is stable for scrapers and diffs.
	idx := make([]int, len(s.Names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.Names[idx[a]] < s.Names[idx[b]] })
	for _, i := range idx {
		c := s.reg.cols[i]
		typ := "gauge"
		if c.kind == KindCounter {
			typ = "counter"
		}
		pn := promName(c.name)
		fmt.Fprintf(b, "# HELP %s %s\n", pn, c.help)
		fmt.Fprintf(b, "# TYPE %s %s\n", pn, typ)
		fmt.Fprintf(b, "%s %v\n", pn, s.Values[i])
	}
	fmt.Fprintf(b, "# HELP amnt_sample_cycle simulated cycle of this sample\n")
	fmt.Fprintf(b, "# TYPE amnt_sample_cycle gauge\n")
	fmt.Fprintf(b, "amnt_sample_cycle %d\n", s.Cycle)
}
