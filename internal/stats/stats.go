// Package stats provides lightweight statistics primitives used across
// the simulator: named counters, rates, histograms, and text/CSV table
// rendering for the experiment drivers.
//
// The simulator is single-threaded per simulation instance, so none of
// these types are synchronized; wrap them externally if sharing across
// goroutines.
package stats

import (
	"fmt"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Ratio is a hit/total style rate.
type Ratio struct {
	Hits  uint64
	Total uint64
}

// Observe records one event; hit reports whether it counts as a hit.
func (r *Ratio) Observe(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Rate returns Hits/Total, or 0 when no events were observed.
func (r *Ratio) Rate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// Reset zeroes the ratio.
func (r *Ratio) Reset() { r.Hits, r.Total = 0, 0 }

func (r *Ratio) String() string {
	return fmt.Sprintf("%d/%d (%.2f%%)", r.Hits, r.Total, 100*r.Rate())
}

// Summary holds running moments of a stream of float64 samples.
type Summary struct {
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
}

// Observe adds a sample to the summary.
func (s *Summary) Observe(v float64) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
}

// Mean returns the arithmetic mean of observed samples (0 if empty).
func (s *Summary) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Mean returns the arithmetic mean of vals, or 0 if empty.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
