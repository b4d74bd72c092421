package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// BenchResult is one benchmark measurement in the terms benchstat
// understands: iterations plus per-op time and allocation figures.
type BenchResult struct {
	// Name is the full benchmark name, including sub-benchmark path
	// ("BenchmarkRebuildSerial/leaves=262144").
	Name string `json:"name"`
	// N is the number of iterations the measurement averaged over.
	N int `json:"n"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes allocated per operation.
	BytesPerOp uint64 `json:"bytes_per_op"`
}

// BenchstatLine renders the measurement as one `go test -bench` output
// line ("BenchmarkX-8  10  1234 ns/op  56 B/op  7 allocs/op"), the
// format benchstat and benchcmp parse directly.
func (r BenchResult) BenchstatLine() string {
	return fmt.Sprintf("%s\t%d\t%.1f ns/op\t%d B/op\t%d allocs/op",
		r.Name, r.N, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
}

// BenchSet is an ordered, labeled collection of benchmark results
// with deterministic JSON encoding (insertion order is preserved).
type BenchSet struct {
	// Label describes the collection ("seed serial baseline",
	// "scan-driven rebuild").
	Label string `json:"label"`
	// Results holds the measurements in insertion order.
	Results []BenchResult `json:"results"`
}

// Add appends one measurement.
func (s *BenchSet) Add(r BenchResult) { s.Results = append(s.Results, r) }

// Benchstat renders the whole set in benchstat input format, one
// measurement per line.
func (s *BenchSet) Benchstat() string {
	var b strings.Builder
	for _, r := range s.Results {
		b.WriteString(r.BenchstatLine())
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteJSON writes the set as indented JSON.
func (s *BenchSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
