package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"amnt/internal/stats"
)

func TestRegistrySample(t *testing.T) {
	reg := NewRegistry()
	var n uint64
	level := 0.25
	reg.Counter("mee.data_reads", "reads", func() uint64 { return n })
	reg.Gauge("l3.hit_rate", "rate", func() float64 { return level })
	if got, want := reg.Len(), 2; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}

	n = 7
	s := reg.Sample(100)
	if s.Cycle != 100 {
		t.Fatalf("Cycle = %d, want 100", s.Cycle)
	}
	if v, ok := s.Value("mee.data_reads"); !ok || v != 7 {
		t.Fatalf("data_reads = %v,%v, want 7,true", v, ok)
	}
	if v, ok := s.Value("l3.hit_rate"); !ok || v != 0.25 {
		t.Fatalf("hit_rate = %v,%v, want 0.25,true", v, ok)
	}
	if _, ok := s.Value("missing"); ok {
		t.Fatal("Value(missing) should report absent")
	}

	// Snapshots are independent: a later sample sees new values while
	// the earlier one is immutable.
	n = 9
	s2 := reg.Sample(200)
	if v, _ := s2.Value("mee.data_reads"); v != 9 {
		t.Fatalf("second sample = %v, want 9", v)
	}
	if v, _ := s.Value("mee.data_reads"); v != 7 {
		t.Fatalf("first sample mutated to %v", v)
	}
	if reg.Latest() != s2 {
		t.Fatal("Latest should return the most recent sample")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	reg.Gauge("x", "", func() float64 { return 0 })
}

func TestRegistryHistogramColumns(t *testing.T) {
	reg := NewRegistry()
	h := stats.NewHistogram()
	for i := 0; i < 99; i++ {
		h.Observe(1)
	}
	h.Observe(50)
	reg.Histogram("wq", "occupancy", func() *stats.Histogram { return h })

	want := []string{"wq.p50", "wq.p99", "wq.max", "wq.count"}
	if got := reg.Names(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	s := reg.Sample(0)
	checks := map[string]float64{"wq.p50": 1, "wq.p99": 1, "wq.max": 50, "wq.count": 100}
	for name, want := range checks {
		if v, _ := s.Value(name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var reg *Registry
	reg.Counter("a", "", func() uint64 { return 0 })
	reg.Gauge("b", "", func() float64 { return 0 })
	reg.Histogram("c", "", func() *stats.Histogram { return nil })
	if reg.Sample(0) != nil || reg.Latest() != nil || reg.Names() != nil || reg.Len() != 0 {
		t.Fatal("nil registry should no-op everywhere")
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mee.data_reads", "device reads", func() uint64 { return 3 })
	reg.Gauge("l3.hit_rate", "hit rate", func() float64 { return 0.5 })
	var b strings.Builder
	reg.Sample(42).WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE amnt_mee_data_reads counter",
		"amnt_mee_data_reads 3",
		"# TYPE amnt_l3_hit_rate gauge",
		"amnt_l3_hit_rate 0.5",
		"amnt_sample_cycle 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted by name: l3 before mee.
	if strings.Index(out, "amnt_l3_hit_rate") > strings.Index(out, "amnt_mee_data_reads") {
		t.Error("exposition not sorted by metric name")
	}
}

func TestSeriesEpochs(t *testing.T) {
	reg := NewRegistry()
	var cyc uint64
	reg.Counter("c", "", func() uint64 { return cyc })
	s := NewSeries(reg, 100)

	for cyc = 0; cyc <= 350; cyc += 10 {
		s.Tick(cyc)
	}
	// Boundaries crossed at 100, 200, 300.
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	got := make([]uint64, 0, 3)
	for _, snap := range s.Samples() {
		got = append(got, snap.Cycle)
	}
	if fmt.Sprint(got) != "[100 200 300]" {
		t.Fatalf("sample cycles = %v", got)
	}

	// A long step past several boundaries emits one sample and re-arms
	// past the landing point.
	cyc = 777
	s.Tick(777)
	s.Tick(799) // still before next boundary (800)
	if s.Len() != 4 || s.Samples()[3].Cycle != 777 {
		t.Fatalf("after long step: len=%d cycles=%v", s.Len(), s.Samples()[s.Len()-1].Cycle)
	}

	// Flush appends the tail sample, but skips an exact duplicate.
	s.Flush(799)
	if s.Len() != 5 {
		t.Fatalf("Flush should append, len = %d", s.Len())
	}
	s.Flush(799)
	if s.Len() != 5 {
		t.Fatalf("duplicate Flush should no-op, len = %d", s.Len())
	}
}

func TestSeriesDefaultEpoch(t *testing.T) {
	s := NewSeries(NewRegistry(), 0)
	if s.EpochCycles() != DefaultEpochCycles {
		t.Fatalf("EpochCycles = %d, want %d", s.EpochCycles(), DefaultEpochCycles)
	}
}

func TestSeriesWriters(t *testing.T) {
	reg := NewRegistry()
	var n uint64
	reg.Counter("a.count", "", func() uint64 { return n })
	reg.Gauge("b.rate", "", func() float64 { return 0.5 })
	s := NewSeries(reg, 10)
	n = 1
	s.Tick(10)
	n = 2
	s.Tick(20)

	var j strings.Builder
	if err := s.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"cycle":10,"metrics":{"a.count":1,"b.rate":0.5}}
{"cycle":20,"metrics":{"a.count":2,"b.rate":0.5}}
`
	if j.String() != wantJSON {
		t.Errorf("JSONL:\n%s\nwant:\n%s", j.String(), wantJSON)
	}

	var c strings.Builder
	if err := s.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	wantCSV := "cycle,a.count,b.rate\n10,1,0.5\n20,2,0.5\n"
	if c.String() != wantCSV {
		t.Errorf("CSV:\n%s\nwant:\n%s", c.String(), wantCSV)
	}
}

func TestNilSeriesSafe(t *testing.T) {
	var s *Series
	s.Tick(1)
	s.Flush(2)
	if s.Len() != 0 || s.Samples() != nil || s.EpochCycles() != 0 {
		t.Fatal("nil series should no-op")
	}
	if err := s.WriteJSONL(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCSV(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := uint64(1); i <= 6; i++ {
		tr.Emit(Event{Cycle: i, Kind: EvWQStall})
	}
	if tr.Total() != 6 {
		t.Fatalf("Total = %d, want 6", tr.Total())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(i + 3); e.Cycle != want {
			t.Fatalf("event[%d].Cycle = %d, want %d (chronological order)", i, e.Cycle, want)
		}
	}
}

func TestTracerJSONL(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{Cycle: 5, Kind: EvSubtreeMove, Level: 3, From: 1, To: 2, Cycles: 40, Count: 6})
	tr.Emit(Event{Kind: EvCrash, Note: "power failure"})

	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if want := `{"cycle":5,"kind":"subtree_move","level":3,"from":1,"to":2,"cycles":40,"count":6}`; lines[0] != want {
		t.Errorf("line 0 = %s, want %s", lines[0], want)
	}
	// Zero fields are omitted.
	if want := `{"cycle":0,"kind":"crash","note":"power failure"}`; lines[1] != want {
		t.Errorf("line 1 = %s, want %s", lines[1], want)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: EvCrash})
	if tr.Total() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer should no-op")
	}
	if err := tr.WriteJSONL(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestSessionNilSafe(t *testing.T) {
	var s *Session
	s.Tick(1)
	s.Flush(2)

	live := NewSession(Config{EpochCycles: 50, TraceCapacity: 2})
	if live.Registry == nil || live.Series == nil || live.Trace == nil {
		t.Fatal("NewSession should populate all components")
	}
	if live.Series.EpochCycles() != 50 {
		t.Fatalf("EpochCycles = %d, want 50", live.Series.EpochCycles())
	}
	live.Tick(50)
	live.Flush(60)
	if live.Series.Len() != 2 {
		t.Fatalf("session series len = %d, want 2", live.Series.Len())
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mee.data_reads", "reads", func() uint64 { return 11 })
	reg.Sample(900)

	srv, err := Serve("127.0.0.1:0", ServeOptions{
		Metrics:  reg.Latest,
		Progress: func() any { return map[string]int{"done": 4} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "amnt_mee_data_reads 11") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/vars"); !strings.Contains(out, `"mee.data_reads": 11`) || !strings.Contains(out, `"cycle": 900`) {
		t.Errorf("/vars missing values:\n%s", out)
	}
	if out := get("/progress"); !strings.Contains(out, `"done": 4`) {
		t.Errorf("/progress missing state:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline returned empty body")
	}
	if out := get("/"); !strings.Contains(out, "/metrics") {
		t.Errorf("index missing endpoint list:\n%s", out)
	}
}

// TestServeSamplesOnScrape pins per-scrape sampling: a registry that is
// never sampled by hand still serves its current values, because the
// server asks Metrics for a fresh snapshot on every request.
func TestServeSamplesOnScrape(t *testing.T) {
	var n atomic.Uint64
	reg := NewRegistry()
	reg.Counter("proxy.requests", "requests", n.Load)
	srv, err := Serve("127.0.0.1:0", ServeOptions{
		Metrics: func() *Snapshot { return reg.Sample(0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	n.Add(7)
	for path, want := range map[string]string{
		"/metrics": "amnt_proxy_requests 7",
		"/vars":    `"proxy.requests": 7`,
	} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("%s missing %q:\n%s", path, want, body)
		}
	}
}
