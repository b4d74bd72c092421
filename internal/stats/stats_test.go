package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("after reset = %d, want 0", c.Value())
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Rate() != 0 {
		t.Fatalf("empty ratio rate = %v, want 0", r.Rate())
	}
	for i := 0; i < 10; i++ {
		r.Observe(i < 3)
	}
	if r.Rate() != 0.3 {
		t.Fatalf("rate = %v, want 0.3", r.Rate())
	}
	if !strings.Contains(r.String(), "3/10") {
		t.Fatalf("String() = %q, want to contain 3/10", r.String())
	}
	r.Reset()
	if r.Total != 0 || r.Hits != 0 {
		t.Fatalf("after reset: %+v", r)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", s.Min, s.Max)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 {
		t.Fatalf("empty summary mean = %v", s.Mean())
	}
}

func TestMean(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if Mean(vals) != 3 {
		t.Fatalf("mean = %v, want 3", Mean(vals))
	}
	if Mean(nil) != 0 {
		t.Fatalf("mean(nil) = %v, want 0", Mean(nil))
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)
	h.Observe(1)
	h.Add(7, 3)
	if h.Count(1) != 2 || h.Count(7) != 3 || h.Count(9) != 0 {
		t.Fatalf("counts wrong: %d %d %d", h.Count(1), h.Count(7), h.Count(9))
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d, want 5", h.Total())
	}
	if h.Distinct() != 2 {
		t.Fatalf("distinct = %d, want 2", h.Distinct())
	}
	keys := h.Keys()
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 7 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestHistogramTopKAndHotShare(t *testing.T) {
	h := NewHistogram()
	h.Add(0, 10)
	h.Add(1, 70)
	h.Add(2, 20)
	top := h.TopK(2)
	if len(top) != 2 || top[0] != 1 || top[1] != 2 {
		t.Fatalf("top2 = %v, want [1 2]", top)
	}
	if got := h.HotShare(1); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("hotshare(1) = %v, want 0.7", got)
	}
	if got := h.HotShare(10); got != 1 {
		t.Fatalf("hotshare(all) = %v, want 1", got)
	}
	if NewHistogram().HotShare(1) != 0 {
		t.Fatal("empty histogram hotshare should be 0")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	h.Add(0, 1)
	h.Add(5, 2)
	h.Add(99, 4)
	h.Add(150, 8) // beyond max, lands in last bucket
	got := h.Buckets(100, 10)
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0] != 3 { // keys 0 and 5
		t.Fatalf("bucket0 = %d, want 3", got[0])
	}
	if got[9] != 12 { // keys 99 and 150
		t.Fatalf("bucket9 = %d, want 12", got[9])
	}
	if Histogram := NewHistogram(); Histogram.Buckets(0, 3)[0] != 0 {
		t.Fatal("empty histogram bucket should be 0")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty string")
	}
	s := Sparkline([]uint64{0, 5, 10})
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline len = %d, want 3", len([]rune(s)))
	}
	if s[0] != ' ' {
		t.Fatalf("zero bucket glyph = %q, want space", s[0])
	}
	allZero := Sparkline([]uint64{0, 0})
	if allZero != "  " {
		t.Fatalf("all-zero sparkline = %q", allZero)
	}
}

func TestLog2Histogram(t *testing.T) {
	var h Log2Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(1024)
	if h.Bucket(0) != 2 {
		t.Fatalf("bucket0 = %d, want 2", h.Bucket(0))
	}
	if h.Bucket(1) != 2 {
		t.Fatalf("bucket1 = %d, want 2", h.Bucket(1))
	}
	if h.Bucket(10) != 1 {
		t.Fatalf("bucket10 = %d, want 1", h.Bucket(10))
	}
	if h.Bucket(-1) != 0 || h.Bucket(99) != 0 {
		t.Fatal("out-of-range buckets should be 0")
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
	if !strings.Contains(h.String(), "[2^10]=1") {
		t.Fatalf("String() = %q", h.String())
	}
}

func TestLog2BucketProperty(t *testing.T) {
	f := func(v uint64) bool {
		b := log2Bucket(v)
		if v <= 1 {
			return b == 0
		}
		return uint64(1)<<b <= v && (b >= 63 || v < uint64(1)<<(b+1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramTotalProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		h := NewHistogram()
		for _, k := range keys {
			h.Observe(k % 1000)
		}
		var sum uint64
		for _, k := range h.Keys() {
			sum += h.Count(k)
		}
		return sum == h.Total() && h.Total() == uint64(len(keys))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("Demo", "name", "value")
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("b", uint64(42))
	tbl.AddNote("n=%d", 2)
	out := tbl.Render()
	for _, want := range []string{"== Demo ==", "name", "alpha", "1.500", "42", "note: n=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render() missing %q in:\n%s", want, out)
		}
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	hdr := tbl.Header()
	hdr[0] = "mutated"
	if tbl.Header()[0] != "name" {
		t.Fatal("Header() must return a copy")
	}
	rows := tbl.Rows()
	rows[0][0] = "mutated"
	if tbl.Rows()[0][0] != "alpha" {
		t.Fatal("Rows() must return a copy")
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.AddRow(0.0000005)
	tbl.AddRow(12345.678)
	tbl.AddRow(float32(2.5))
	rows := tbl.Rows()
	if !strings.Contains(rows[0][0], "e-") {
		t.Fatalf("tiny float = %q, want scientific", rows[0][0])
	}
	if rows[1][0] != "12345.7" {
		t.Fatalf("big float = %q", rows[1][0])
	}
	if rows[2][0] != "2.500" {
		t.Fatalf("float32 = %q", rows[2][0])
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("x", "a", "b")
	tbl.AddRow("plain", `has "quote", comma`)
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, `"has ""quote"", comma"`) {
		t.Fatalf("csv escaping wrong: %q", csv)
	}
}

// TestHistogramZeroSampleContract pins the documented behavior of a
// histogram with no observations: every quantile is 0 (not a sentinel,
// not a panic), Empty reports true, and the two are distinguishable
// from a genuine all-zero distribution only via Empty.
func TestHistogramZeroSampleContract(t *testing.T) {
	h := NewHistogram()
	if !h.Empty() {
		t.Fatal("fresh histogram not Empty")
	}
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	// A genuine all-zero distribution also yields quantile 0, but is
	// not Empty — that is the disambiguation callers rely on.
	h.Observe(0)
	if h.Empty() {
		t.Fatal("histogram with one sample reports Empty")
	}
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("all-zero Quantile(0.99) = %d, want 0", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty quantile = %d, want 0", h.Quantile(0.5))
	}
	// 10 events at 1, 80 at 2, 10 at 9.
	h.Add(1, 10)
	h.Add(2, 80)
	h.Add(9, 10)
	cases := []struct {
		q    float64
		want uint64
	}{
		{0, 1},    // q<=0 -> minimum key
		{0.05, 1}, // within the first 10%
		{0.10, 1}, // exactly the first key's mass
		{0.11, 2},
		{0.50, 2},
		{0.90, 2},
		{0.91, 9},
		{1.0, 9}, // q>=1 -> maximum key
		{1.5, 9}, // clamped
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}
