package stats

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
)

// Histogram is a linear-bucket histogram over uint64 keys. It is used
// for access-per-address distributions (Figure 3) where the key is a
// region or page index.
type Histogram struct {
	// dense counts the keys below histDense without hashing: the write
	// queue observes its occupancy (at most its depth) once per admitted
	// write, on the simulator's per-access path. counts holds the rest.
	dense  [histDense]uint64
	counts map[uint64]uint64
	total  uint64
}

const histDense = 64

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[uint64]uint64)}
}

// Observe adds one event at key.
func (h *Histogram) Observe(key uint64) { h.Add(key, 1) }

// Add adds n events at key.
func (h *Histogram) Add(key uint64, n uint64) {
	if key < histDense {
		h.dense[key] += n
	} else {
		h.counts[key] += n
	}
	h.total += n
}

// Count returns the number of events observed at key.
func (h *Histogram) Count(key uint64) uint64 {
	if key < histDense {
		return h.dense[key]
	}
	return h.counts[key]
}

// each calls f for every key with at least one event: the dense keys
// ascending, then the rest in no particular order.
func (h *Histogram) each(f func(key, count uint64)) {
	for k, c := range h.dense {
		if c != 0 {
			f(uint64(k), c)
		}
	}
	for k, c := range h.counts {
		f(k, c)
	}
}

// Clone returns an independent copy. Histograms are unsynchronized, so
// concurrent readers (telemetry handlers, the store's stats endpoint)
// take a clone under the owner's lock and compute quantiles outside it.
func (h *Histogram) Clone() *Histogram {
	out := *h
	out.counts = maps.Clone(h.counts)
	return &out
}

// Merge folds other's events into h. The load generator merges
// per-client latency histograms into one report with this.
func (h *Histogram) Merge(other *Histogram) {
	other.each(h.Add)
}

// Total returns the number of events observed across all keys.
func (h *Histogram) Total() uint64 { return h.total }

// Empty reports whether the histogram has observed no events. Callers
// rendering quantiles should check this first: Quantile on an empty
// histogram returns 0, which is indistinguishable from a genuine
// all-zero distribution.
func (h *Histogram) Empty() bool { return h.total == 0 }

// Keys returns all keys with at least one event, ascending.
func (h *Histogram) Keys() []uint64 {
	keys := make([]uint64, 0, h.Distinct())
	h.each(func(k, _ uint64) { keys = append(keys, k) })
	slices.Sort(keys)
	return keys
}

// Distinct returns the number of distinct keys observed.
func (h *Histogram) Distinct() int {
	n := len(h.counts)
	for _, c := range h.dense {
		if c != 0 {
			n++
		}
	}
	return n
}

// TopK returns the k keys with the highest counts, descending by
// count (ties broken by ascending key).
func (h *Histogram) TopK(k int) []uint64 {
	keys := h.Keys()
	sort.SliceStable(keys, func(i, j int) bool {
		ci, cj := h.Count(keys[i]), h.Count(keys[j])
		if ci != cj {
			return ci > cj
		}
		return keys[i] < keys[j]
	})
	if k > len(keys) {
		k = len(keys)
	}
	return keys[:k]
}

// HotShare returns the fraction of all events that landed on the k
// hottest keys. It quantifies hotness concentration (the property the
// AMNT subtree exploits).
func (h *Histogram) HotShare(k int) float64 {
	if h.total == 0 {
		return 0
	}
	var hot uint64
	for _, key := range h.TopK(k) {
		hot += h.Count(key)
	}
	return float64(hot) / float64(h.total)
}

// Buckets groups the keyspace [0, max) into n equal buckets and
// returns the event count per bucket. Keys >= max land in the last
// bucket. Used to render Figure 3-style access-density series.
func (h *Histogram) Buckets(max uint64, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	out := make([]uint64, n)
	if max == 0 {
		out[0] = h.total
		return out
	}
	width := max / uint64(n)
	if width == 0 {
		width = 1
	}
	h.each(func(k, c uint64) {
		idx := int(k / width)
		if idx >= n {
			idx = n - 1
		}
		out[idx] += c
	})
	return out
}

// Quantile returns the smallest key k such that at least q (0..1) of
// all observed events have key <= k. q <= 0 yields the minimum key,
// q >= 1 the maximum.
//
// Zero-sample contract: a histogram with no observations returns 0
// for every q — never a sentinel, never a panic. A 0 therefore means
// "no data or all-zero data"; callers that must tell the two apart
// (the telemetry columns, phase histograms whose phase never fired)
// check Empty() before reading quantiles. The write-queue occupancy
// report (sim.Result) and telemetry histogram columns are built on
// this.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	if target > h.total {
		target = h.total
	}
	var cum uint64
	for _, k := range h.Keys() {
		cum += h.Count(k)
		if cum >= target {
			return k
		}
	}
	// Unreachable: the cumulative count over all keys equals total.
	return 0
}

// CDFPoint is one step of a histogram's cumulative distribution.
type CDFPoint struct {
	// Key is the value; Fraction is the fraction of events with key
	// <= Key.
	Key      uint64
	Fraction float64
}

// CDF returns the cumulative distribution as one point per distinct
// key, ascending; the last point's Fraction is 1. Empty histograms
// return nil.
func (h *Histogram) CDF() []CDFPoint {
	if h.total == 0 {
		return nil
	}
	keys := h.Keys()
	out := make([]CDFPoint, len(keys))
	var cum uint64
	for i, k := range keys {
		cum += h.Count(k)
		out[i] = CDFPoint{Key: k, Fraction: float64(cum) / float64(h.total)}
	}
	return out
}

// Sparkline renders counts as a compact ASCII bar string, useful for
// eyeballing distributions in CLI output.
func Sparkline(counts []uint64) string {
	if len(counts) == 0 {
		return ""
	}
	glyphs := []rune(" .:-=+*#%@")
	var max uint64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for _, c := range counts {
		if max == 0 {
			b.WriteRune(glyphs[0])
			continue
		}
		idx := int(uint64(len(glyphs)-1) * c / max)
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

// Log2Histogram buckets samples by floor(log2(value)); bucket 0 holds
// values 0 and 1. Useful for latency and run-length distributions.
type Log2Histogram struct {
	buckets [65]uint64
	total   uint64
}

// Observe adds one sample.
func (h *Log2Histogram) Observe(v uint64) {
	h.buckets[log2Bucket(v)]++
	h.total++
}

func log2Bucket(v uint64) int {
	b := 0
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

// Total returns the number of samples observed.
func (h *Log2Histogram) Total() uint64 { return h.total }

// Bucket returns the count of samples in bucket i (values in
// [2^i, 2^(i+1)) for i > 0).
func (h *Log2Histogram) Bucket(i int) uint64 {
	if i < 0 || i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i]
}

// String renders the non-empty buckets.
func (h *Log2Histogram) String() string {
	var b strings.Builder
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		fmt.Fprintf(&b, "[2^%d]=%d ", i, c)
	}
	return strings.TrimSpace(b.String())
}
