package main

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"amnt/bench/e2e"
)

// TestSmoke runs every declared workload end to end and traced at
// smoke sizes (0.5 s windows, 2,000-operation traces, a 4,096-key
// crash-recover) and checks that what the benchmark emits is exactly
// what BENCHMARK.json declares, that no operation fails, and that no
// child process or scratch directory outlives the run.
func TestSmoke(t *testing.T) {
	if l, err := net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	} else {
		l.Close()
	}
	root, err := e2e.FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := readDeclared(root)
	if err != nil {
		t.Fatal(err)
	}
	var declaredWorkloads, workloads []string
	for _, w := range decl.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
	}
	for _, w := range e2e.Workloads {
		workloads = append(workloads, w.Name)
	}
	if strings.Join(declaredWorkloads, " ") != strings.Join(workloads, " ") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declaredWorkloads, workloads)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		perLayer[m.Name] = m.Unit
	}

	env, err := e2e.NewEnv(root)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			env.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for _, w := range e2e.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := e2e.Run(ctx, env, w, e2e.SmokeSizes(), 1, trace, io.Discard)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			var got, missing []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if unit, ok := want[name]; !ok {
					t.Errorf("%s (trace %v): emits undeclared metric %s", w.Name, trace, name)
				} else if unit != m.Unit {
					t.Errorf("%s (trace %v): %s has unit %q, declared %q", w.Name, trace, name, m.Unit, unit)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					missing = append(missing, name)
				}
			}
			sort.Strings(missing)
			if len(missing) > 0 {
				t.Errorf("%s (trace %v): declared metrics not emitted: %v (emitted %d)", w.Name, trace, missing, len(got))
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d operations failed: %v %v",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Problems, res.Notes)
			}
			if !trace {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, name, m.Value)
					}
				}
			}
		}
	}

	pids, scratch := env.Pids(), env.Scratch()
	env.Close()
	closed = true
	if len(pids) == 0 {
		t.Error("no server process was started")
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("child process %d still exists after Close (kill -0: %v)", pid, err)
		}
	}
	if _, err := os.Stat(scratch); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("scratch directory %s still exists after Close", scratch)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(center float64) side {
		return newSide([]float64{center * 0.99, center, center * 1.01, center * 1.005, center * 0.995})
	}
	noisy := func(center float64) side {
		return newSide([]float64{center * 0.8, center, center * 1.2, center * 1.1, center * 0.9})
	}
	for _, c := range []struct {
		name  string
		a, b  side
		lower bool
		want  string
	}{
		{"same", steady(100), steady(100), true, "ok"},
		{"slower latency", steady(100), steady(115), true, "regressed"},
		{"faster latency", steady(100), steady(80), true, "ok"},
		{"lower throughput", steady(100), steady(85), false, "regressed"},
		{"higher throughput", steady(100), steady(120), false, "ok"},
		{"noise hides it", noisy(100), noisy(108), true, "unresolved"},
		{"noisy but every run worse", noisy(100), noisy(200), true, "regressed"},
	} {
		if got := verdict(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
