package e2e

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"
)

// Run measures one workload once. With trace false it is an
// end-to-end run: servers without span sampling, untraced clients, a
// timed window, and every end-to-end metric. With trace true it is a
// traced run: a fixed number of operations with span sampling and
// client spans on, the in-process ladder, and every per-layer metric.
// Binaries are built before any clock starts. Progress and the ladder
// table go to out.
func Run(ctx context.Context, env *Env, w Workload, sz Sizes, seed int64, trace bool, out io.Writer) (*Result, error) {
	if err := env.Build(ctx, trace); err != nil {
		return nil, err
	}
	res := &Result{Workload: w.Name, Seed: seed, Trace: trace, Metrics: map[string]Metric{}, Samples: map[string]int{}}
	var err error
	switch {
	case trace:
		err = env.runTraced(ctx, w, sz, seed, res, out)
	case w.kind == simulator:
		err = env.runSim(ctx, sz, res)
	default:
		err = env.runWindow(ctx, w, sz, seed, res)
	}
	if err != nil {
		fmt.Fprint(os.Stderr, env.Logs())
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

func (r *Result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// count folds the clients' tallies into the result. Refused and
// timed-out operations only count as failed; a value that contradicts
// the model is a wrong output and a problem.
func (r *Result) count(s *session) tally {
	var t tally
	for _, c := range s.clients {
		t.add(c.tally)
	}
	r.Attempted += t.Attempted
	r.Failed += t.Failed
	if t.Mismatched > 0 {
		r.problem("%d operations returned a value that contradicts the client's model", t.Mismatched)
	}
	if t.firstErr != "" {
		r.Notes = append(r.Notes, "first failed operation: "+t.firstErr)
	}
	var refusals uint64
	for _, c := range s.clients {
		refusals += c.refusals
	}
	if refusals > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("%d requests inside the crash window were answered 503 recovering (known defect; not failed operations, not latency samples)", refusals))
	}
	return t
}

// timedSetUps sets the workload up w.setups times, keeping the last
// session running, and returns the median set-up time: server start
// until the last preloaded key is acknowledged. The clock-bound
// warm-up is not part of it, so a slower boot or preload is not
// diluted by a constant.
func (e *Env) timedSetUps(ctx context.Context, w Workload, sz Sizes, seed int64) (*session, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := e.setUp(ctx, w, sz, seed, 0, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == w.setups-1 {
			return s, median(times), nil
		}
		s.stop()
	}
}

// runWindow is the end-to-end run of a serving workload or of
// crash-recover.
func (e *Env) runWindow(ctx context.Context, w Workload, sz Sizes, seed int64, res *Result) error {
	s, setup, err := e.timedSetUps(ctx, w, sz, seed)
	if err != nil {
		return err
	}
	defer s.stop()

	s.drive(limit{ctx: ctx, deadline: time.Now().Add(secs(sz.WarmUp))})
	for _, c := range s.clients {
		c.resetMeasurements()
	}
	before, err := s.topo.scrape()
	if err != nil {
		return err
	}
	wall := s.drive(limit{ctx: ctx, deadline: time.Now().Add(secs(sz.Window))})
	after, err := s.topo.scrape()
	if err != nil {
		return err
	}
	t := res.count(s)
	s.checkLayers(res, after.minus(before))

	var get, put, batch, rec lats
	for _, c := range s.clients {
		get, put, batch, rec = append(get, c.get...), append(put, c.put...), append(batch, c.batch...), append(rec, c.recover...)
	}
	native := map[string]float64{
		"setup_s":   setup,
		"ops_per_s": float64(t.Attempted-t.Failed) / wall.Seconds(),
	}
	switch {
	case w.kind == crashRecover:
		native["recover_ms_p50"] = Quantile(micros(rec), 0.5) / 1e3
		native["first_get_us_p50"] = Quantile(micros(get), 0.5)
		res.Samples["recover_ms_p50"], res.Samples["first_get_us_p50"] = len(rec), len(get)
	case w.batch == 1:
		g, p := micros(get), micros(put)
		native["get_p50_us"], native["get_p99_us"] = Quantile(g, 0.5), Quantile(g, 0.99)
		native["put_p50_us"], native["put_p99_us"] = Quantile(p, 0.5), Quantile(p, 0.99)
		res.Samples["get_p50_us"], res.Samples["get_p99_us"] = len(g), len(g)
		res.Samples["put_p50_us"], res.Samples["put_p99_us"] = len(p), len(p)
	default:
		b := micros(batch)
		native["batch_p50_us"], native["batch_p99_us"] = Quantile(b, 0.5), Quantile(b, 0.99)
		res.Samples["batch_p50_us"], res.Samples["batch_p99_us"] = len(b), len(b)
	}
	if len(get)+len(put)+len(batch) == 0 {
		return fmt.Errorf("%s: no request completed in the window: %s", w.Name, t.firstErr)
	}
	res.fillEndToEnd(native, wall)
	return nil
}

// fillEndToEnd reports every end-to-end metric: the native ones as
// measured, and every other one as the wall time of the measured
// phase in that metric's unit (see EndToEnd).
func (r *Result) fillEndToEnd(native map[string]float64, wall time.Duration) {
	for _, d := range EndToEnd {
		v, ok := native[d.Name]
		if !ok {
			switch d.Unit {
			case "s":
				v = wall.Seconds()
			case "ms":
				v = float64(wall) / 1e6
			default: // us
				v = float64(wall) / 1e3
			}
		}
		r.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
}

// checkLayers verifies from the scraped counters that the window
// exercised the layer the workload was chosen for.
func (s *session) checkLayers(res *Result, d counters) {
	switch s.w.Name {
	case "batch-read":
		if d.n("concurrent_reads") == 0 {
			res.problem("batch-read: no get was served off the concurrent read view")
		}
		if d.n("epochs") != 0 {
			res.problem("batch-read: %.0f write epochs committed during a read-only window", d.n("epochs"))
		}
	case "batch-mixed":
		if d.n("epochs") == 0 || d.n("epoch_ops")/d.n("epochs") <= 1 {
			res.problem("batch-mixed: %.0f writes in %.0f epochs: group commit is not engaged", d.n("epoch_ops"), d.n("epochs"))
		}
	case "crash-recover":
		var cycles uint64
		for _, c := range s.clients {
			cycles += c.cycles
		}
		for shard, n := range d.recoveries {
			if n != float64(cycles) {
				res.problem("crash-recover: shard %d recovered %.0f times in %d cycles", shard, n, cycles)
			}
		}
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
