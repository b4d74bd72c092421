package sim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"amnt/internal/mee"
	"amnt/internal/workload"
)

// equivalenceConfigs are the machine shapes the experiments run: one
// core; two cores over a shared L3 that stop when the first trace
// ends; and four threads in one address space, which snoop each
// other's dirty lines.
func equivalenceConfigs() map[string]struct {
	cfg   Config
	specs []workload.Spec
} {
	single := smallConfig()
	single.PrefragmentChurn = 2000

	multi := single
	multi.L3Bytes = 256 << 10
	multi.StopAtFirstDone = true
	long := tinySpec("b", 0.2)
	long.Accesses = 12_000

	threads := multi
	threads.SharedAddressSpace = true
	var threadSpecs []workload.Spec
	for i := 0; i < 4; i++ {
		s := tinySpec("t", 0.4)
		s.FootprintBytes = 2 << 20 // small enough that threads share lines
		threadSpecs = append(threadSpecs, s)
	}

	return map[string]struct {
		cfg   Config
		specs []workload.Spec
	}{
		"single":  {single, []workload.Spec{tinySpec("a", 0.3)}},
		"multi":   {multi, []workload.Spec{tinySpec("a", 0.3), long}},
		"threads": {threads, threadSpecs},
	}
}

// TestReplayMatchesLiveMachine: for every registered protocol under
// every machine shape, replaying the recorded front end gives the
// live machine's Result, field for field.
func TestReplayMatchesLiveMachine(t *testing.T) {
	ctx := context.Background()
	for kind, shape := range equivalenceConfigs() {
		streams := map[int]*Stream{} // by kernel
		for _, name := range mee.Registered() {
			t.Run(kind+"/"+name, func(t *testing.T) {
				cfg := shape.cfg
				if name == "amnt++" {
					cfg.AMNTPlusPlusLevel = 3
				}
				s := streams[cfg.AMNTPlusPlusLevel]
				if s == nil {
					var err error
					if s, err = Record(ctx, cfg, shape.specs); err != nil {
						t.Fatal(err)
					}
					streams[cfg.AMNTPlusPlusLevel] = s
				}
				live, err := Run(cfg, mustPolicy(t, name), shape.specs...)
				if err != nil {
					t.Fatal(err)
				}
				if live.Reads == 0 || live.Writes == 0 {
					t.Fatalf("no controller traffic: %+v", live)
				}
				replayed, err := Replay(ctx, cfg, mustPolicy(t, name), s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(live, replayed) {
					t.Fatalf("replay diverged from the live machine:\nlive   %+v\nreplay %+v", live, replayed)
				}
			})
		}
	}
}

func mustPolicy(tb testing.TB, name string) mee.Policy {
	tb.Helper()
	p, err := PolicyByName(name, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestReplayChecksReads: the oracle still guards a replay. A stream
// whose first read claims a newer version than memory holds fails
// with the same error a live machine gives.
func TestReplayChecksReads(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	s, err := Record(ctx, cfg, []workload.Spec{tinySpec("t", 0.4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(ctx, cfg, mee.NewLeaf(), s); err != nil {
		t.Fatalf("untouched stream: %v", err)
	}
	// From cold caches the first transfer is a fill: nothing is dirty.
	ev := &s.head.ev[0]
	if ev.op&writeBackBit != 0 {
		t.Fatalf("first event %+v is not a read", *ev)
	}
	ev.version++
	block := ev.op
	_, err = Replay(ctx, cfg, mee.NewLeaf(), s)
	if want := fmt.Sprintf("sim: block %d plaintext diverged", block); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestRecordCancelled: a recording stops at its context.
func TestRecordCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Record(ctx, smallConfig(), []workload.Spec{ctxSpec()}); err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamLongGap: a gap wider than an event's 32 bits is carried
// by padding events and replays to the same clock.
func TestStreamLongGap(t *testing.T) {
	var s Stream
	s.append(3*math.MaxUint32+5, 7, 0, false)
	s.append(1, 8, 0, true)
	if s.events != 5 {
		t.Fatalf("events = %d, want 3 padding + 2", s.events)
	}
	cfg := smallConfig().withDefaults()
	b := newBackEnd(cfg, mee.NewVolatile())
	if err := b.replay(context.Background(), &s); err != nil {
		t.Fatal(err)
	}
	if b.now < 3*math.MaxUint32+6 {
		t.Fatalf("clock = %d, lost part of the gap", b.now)
	}
	s.Release()
}

// steadyFrontEnd returns a recording front end over steadyMachine's
// workload, warmed the same way, with its warm-up stream.
func steadyFrontEnd(tb testing.TB, cfg Config) (*frontEnd, *Stream) {
	tb.Helper()
	f := newFrontEnd(cfg.withDefaults().FrontEndConfig, traces(cfg.FrontEndConfig, []workload.Spec{steadySpec()}))
	f.rec = &Stream{}
	stepFront(tb, f, 400_000)
	return f, cut(f)
}

// cut ends f's current stream and starts a new one at the same clock.
func cut(f *frontEnd) *Stream {
	s := f.rec
	f.rec = &Stream{}
	return s
}

func stepFront(tb testing.TB, f *frontEnd, n int) {
	for i := 0; i < n; i++ {
		if _, err := f.step(0); err != nil {
			tb.Fatal(err)
		}
	}
}

// quietestAllocs is the fewest allocations fn makes over three
// windows: AllocsPerRun counts the whole process, so a goroutine an
// earlier test left behind cannot fail a guard, while an allocation on
// the measured path — deterministic, so in every window — still does.
func quietestAllocs(fn func()) float64 {
	allocs := math.Inf(1)
	for window := 0; window < 3 && allocs != 0; window++ {
		allocs = min(allocs, testing.AllocsPerRun(1, fn))
	}
	return allocs
}

// BenchmarkFrontEnd reports host time per benchAccesses accesses of
// the front end recording alone, from the warm point.
func BenchmarkFrontEnd(b *testing.B) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, warm := steadyFrontEnd(b, smallConfig())
		warm.Release()
		b.StartTimer()
		stepFront(b, f, benchAccesses)
		b.StopTimer()
		events = f.rec.events
		f.rec.Release()
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkReplay reports host time per replay of one recorded
// steady-state stream of benchAccesses accesses, per protocol; each op
// replays it into a back end warmed by the stream's recorded prefix.
func BenchmarkReplay(b *testing.B) {
	for _, protocol := range []string{"volatile", "leaf", "strict", "anubis", "bmf", "amnt", "amnt-multi"} {
		b.Run(protocol, func(b *testing.B) {
			cfg := smallConfig()
			f, warm := steadyFrontEnd(b, cfg)
			stepFront(b, f, benchAccesses)
			s := cut(f)
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				be := newBackEnd(cfg.withDefaults(), mustPolicy(b, protocol))
				if err := be.replay(ctx, warm); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := be.replay(ctx, s); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(s.events), "events/op")
			warm.Release()
			s.Release()
		})
	}
}
