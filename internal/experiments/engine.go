package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"amnt/internal/sim"
	"amnt/internal/telemetry"
	"amnt/internal/workload"
)

// This file is the experiment engine. A run is declared before it
// starts: every selected driver's Plan lists its cells — one (workload
// set × protocol × machine config) simulation each — and the jobs that
// need the Machine itself. The engine resolves the union of those
// cells, claims every stream they replay, then executes every cell and
// job on one bounded worker pool; only then does each driver render
// its tables from its own cells' results. Identical cells are
// deduplicated through a keyed, memoized run-cache (Figure 5's
// baselines reappear in Figures 6+7 and Table 2), cancellation
// propagates from a context.Context into the simulation, worker panics
// become errors, and every job failure is reported (errors.Join)
// instead of the first one only. Progress is streamed as structured
// events through Options.Progress.
//
// Cells that differ only in protocol see the same access stream, so
// the engine records that stream once — a front-end job, labelled
// "frontend/…" — and replays it into each cell's controller
// (DESIGN.md §2.2). A recorded stream is keyed by the cell's
// sim.FrontEndConfig and scaled specs, is single-flighted like the
// run-cache, and is released when the last cell of the run that
// claimed it is done, whichever driver that cell belongs to.

// Event identifies a progress transition.
type Event int

// Progress event kinds, in a job's lifecycle order.
const (
	// JobQueued: the job was submitted and is waiting for a worker.
	JobQueued Event = iota
	// JobStarted: the job occupies a worker and is simulating.
	JobStarted
	// JobDone: the job finished; Wall and Cycles are set.
	JobDone
	// JobCached: an identical cell already ran (or is running); the
	// result was served from the run-cache without simulating.
	JobCached
	// JobFailed: the job returned an error or panicked; Err is set.
	JobFailed
)

func (e Event) String() string {
	switch e {
	case JobQueued:
		return "queued"
	case JobStarted:
		return "started"
	case JobDone:
		return "done"
	case JobCached:
		return "cached"
	case JobFailed:
		return "failed"
	}
	return fmt.Sprintf("event(%d)", int(e))
}

// Progress is one structured engine event plus a consistent snapshot
// of the engine's counters at the moment it fired. Callbacks are
// serialized (never concurrent), so a renderer needs no locking.
type Progress struct {
	// Event says what just happened; Job is the cell's label.
	Event Event
	Job   string
	// Queued/Running/Done/Cached/Failed count jobs by state across
	// the engine's lifetime (shared by every driver of the run).
	Queued, Running, Done, Cached, Failed int
	// Wall is the completed job's host wall time (JobDone/JobFailed).
	Wall time.Duration
	// Cycles is the completed job's simulated cycle count (JobDone).
	Cycles uint64
	// Elapsed is host time since the engine was created.
	Elapsed time.Duration
	// ETA estimates time to drain queued+running jobs from the mean
	// completed-job wall time and the pool width (0 until one job has
	// completed).
	ETA time.Duration
	// Err is the job's failure (JobFailed).
	Err error
}

// RunSpec declares one simulation cell.
type RunSpec struct {
	// Label names the job in progress events and error messages
	// ("figure4/lbm/amnt"). Derived from the other fields if empty.
	Label string
	// Kind is the machine configuration: "single", "multi" or
	// "threads" (Options.machineFor).
	Kind string
	// Protocol is a registered policy name; "amnt++" also enables the
	// modified kernel, as everywhere else.
	Protocol string
	// Specs are the unscaled workloads, one core each; the engine
	// applies Options.Scale.
	Specs []workload.Spec
	// Level overrides Options.SubtreeLevel when non-zero (the Figures
	// 6+7 sweep).
	Level int
	// Mutate, when non-nil, adjusts the machine config after
	// machineFor (cache-size sweeps, the modified-kernel run of
	// Table 2). The adjusted config is part of the run-cache key.
	Mutate func(*sim.Config)
}

func (rs RunSpec) label(level int) string {
	if rs.Label != "" {
		return rs.Label
	}
	l := rs.Kind + "/" + specName(rs.Specs) + "/" + rs.Protocol
	if rs.Level != 0 {
		l += fmt.Sprintf("/L%d", level)
	}
	return l
}

// Job is one engine task that is not a cacheable cell — drivers use
// it when they need the Machine itself (crash/recovery, policy-state
// readouts, page histograms) rather than just the sim.Result.
type Job struct {
	Label string
	Fn    func(ctx context.Context) error
}

// runKey identifies a cell in the run-cache: everything that reaches
// the simulation, by value — the protocol and its subtree level, the
// resolved machine config (Mutate applied) and the scaled workload
// specs, printed.
type runKey struct {
	protocol string
	level    int
	cfg      sim.Config
	specs    string
}

type cacheEntry struct {
	done chan struct{} // closed when res/err are final
	res  sim.Result
	err  error
}

// streamKey identifies a recorded front-end stream: what the front
// end reads, so cells whose configs differ only in the controller
// share one recording.
type streamKey struct {
	fe    sim.FrontEndConfig
	specs string
}

// streamEntry is one recorded (or recording) stream. Every cell that
// may replay it holds a claim; the last release frees it.
type streamEntry struct {
	done      chan struct{} // closed when s/err are final
	s         *sim.Stream
	err       error
	refs      int  // claims not yet released
	recording bool // a cell has started the front-end job
}

// frontEndPrefix starts every front-end job's label.
const frontEndPrefix = "frontend/"

// runCell is a RunSpec resolved against its Options.
type runCell struct {
	o      Options
	rs     RunSpec
	label  string
	level  int
	scaled []workload.Spec
	cfg    sim.Config // machineFor, the modified kernel and Mutate applied
	key    runKey
	// shared cells replay a recorded stream instead of running a live
	// machine.
	shared bool
}

// resolve applies o's scale, level and machine config (Mutate
// included) to rs.
func resolve(o Options, rs RunSpec) runCell {
	o = o.withDefaults()
	c := runCell{o: o, rs: rs, level: rs.Level}
	if c.level == 0 {
		c.level = o.SubtreeLevel
	}
	c.label = rs.label(c.level)
	c.scaled = make([]workload.Spec, len(rs.Specs))
	for i, s := range rs.Specs {
		c.scaled[i] = s.Scale(o.Scale)
	}
	c.cfg = o.machineFor(rs.Kind)
	if rs.Protocol == "amnt++" {
		c.cfg.AMNTPlusPlusLevel = c.level
	}
	if rs.Mutate != nil {
		rs.Mutate(&c.cfg)
	}
	c.key = runKey{protocol: rs.Protocol, level: c.level, cfg: c.cfg, specs: fmt.Sprintf("%+v", c.scaled)}
	// Telemetry samples cache state on the simulated clock, which only
	// a live machine has.
	c.shared = o.TelemetryDir == ""
	return c
}

func (c runCell) streamKey() streamKey {
	return streamKey{fe: c.cfg.FrontEndConfig, specs: c.key.specs}
}

// frontEndLabel names the front-end job that records c's stream; it
// is the same for every driver.
func (c runCell) frontEndLabel() string {
	l := frontEndPrefix + c.rs.Kind + "/" + specName(c.rs.Specs)
	if lvl := c.cfg.AMNTPlusPlusLevel; lvl > 0 {
		l += fmt.Sprintf("/amnt++-kernel/L%d", lvl)
	}
	return l
}

// Engine executes experiment jobs on a bounded worker pool with a
// shared run-cache. Run builds one per run of drivers, so baselines
// dedupe across every selected driver.
type Engine struct {
	parallel int
	progress func(Progress)
	start    time.Time
	slots    pool

	mu                                    sync.Mutex
	cache                                 map[runKey]*cacheEntry
	streams                               map[streamKey]*streamEntry
	queued, running, done, cached, failed int
	wallSum                               time.Duration

	cbMu sync.Mutex // serializes progress callbacks
}

// NewEngine builds an engine from o's Parallel and Progress settings
// (Parallel <= 0 means GOMAXPROCS).
func NewEngine(o Options) *Engine {
	par := o.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		parallel: par,
		progress: o.Progress,
		start:    time.Now(),
		slots:    pool{free: par},
		cache:    make(map[runKey]*cacheEntry),
		streams:  make(map[streamKey]*streamEntry),
	}
}

// emit applies a counter transition and delivers the resulting
// snapshot to the progress callback.
func (e *Engine) emit(ev Event, job string, wall time.Duration, cycles uint64, jobErr error, transition func()) {
	e.mu.Lock()
	transition()
	p := Progress{
		Event:   ev,
		Job:     job,
		Queued:  e.queued,
		Running: e.running,
		Done:    e.done,
		Cached:  e.cached,
		Failed:  e.failed,
		Wall:    wall,
		Cycles:  cycles,
		Elapsed: time.Since(e.start),
		Err:     jobErr,
	}
	if remaining := e.queued + e.running; e.done > 0 && remaining > 0 {
		avg := e.wallSum / time.Duration(e.done)
		p.ETA = avg * time.Duration(remaining) / time.Duration(e.parallel)
	}
	cb := e.progress
	e.mu.Unlock()
	if cb != nil {
		e.cbMu.Lock()
		cb(p)
		e.cbMu.Unlock()
	}
}

// slotKey marks a context whose goroutine already holds a worker
// slot, so nested engine calls do not deadlock the pool.
type slotKey struct{}

// pool is the engine's worker slots. A job waiting with urgent set —
// the replay of a recorded stream — is granted a slot before any
// other waiting job, so a stream's cells drain it before another
// front end records, and few streams are held at once.
type pool struct {
	mu      sync.Mutex
	free    int
	waiting [2][]chan struct{} // urgent, then normal; FIFO within each
}

func (p *pool) acquire(ctx context.Context, urgent bool) (release func(), err error) {
	if ctx.Value(slotKey{}) != nil {
		return func() {}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.free > 0 {
		p.free--
		p.mu.Unlock()
		return p.release, nil
	}
	q := 1
	if urgent {
		q = 0
	}
	grant := make(chan struct{})
	p.waiting[q] = append(p.waiting[q], grant)
	p.mu.Unlock()
	select {
	case <-grant:
		return p.release, nil
	case <-ctx.Done():
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, w := range p.waiting[q] {
		if w == grant {
			p.waiting[q] = append(p.waiting[q][:i], p.waiting[q][i+1:]...)
			return nil, ctx.Err()
		}
	}
	p.handOn() // granted as ctx ended: pass the slot on
	return nil, ctx.Err()
}

func (p *pool) release() {
	p.mu.Lock()
	p.handOn()
	p.mu.Unlock()
}

// handOn gives a freed slot to the first waiter, urgent ones first.
func (p *pool) handOn() {
	for q := range p.waiting {
		if len(p.waiting[q]) > 0 {
			close(p.waiting[q][0])
			p.waiting[q] = p.waiting[q][1:]
			return
		}
	}
	p.free++
}

// execute runs fn on the pool with the full job lifecycle: queued →
// started → done/failed events, panic recovery, and wall-time
// accounting. urgent jobs take the next free slot (see pool).
func (e *Engine) execute(ctx context.Context, label string, urgent bool, fn func(ctx context.Context) (sim.Result, error)) (res sim.Result, err error) {
	e.emit(JobQueued, label, 0, 0, nil, func() { e.queued++ })
	release, aerr := e.slots.acquire(ctx, urgent)
	if aerr != nil {
		e.emit(JobFailed, label, 0, 0, aerr, func() { e.queued--; e.failed++ })
		return sim.Result{}, aerr
	}
	e.emit(JobStarted, label, 0, 0, nil, func() { e.queued--; e.running++ })
	start := time.Now()
	func() {
		defer release()
		defer recovered(label, &err)
		jctx := context.WithValue(ctx, slotKey{}, struct{}{})
		res, err = fn(jctx)
	}()
	wall := time.Since(start)
	if err != nil {
		err = fmt.Errorf("%s: %w", label, err)
		e.emit(JobFailed, label, wall, 0, err, func() { e.running--; e.failed++ })
		return res, err
	}
	e.emit(JobDone, label, wall, res.Cycles, nil, func() {
		e.running--
		e.done++
		e.wallSum += wall
	})
	return res, nil
}

// recovered, deferred, turns a panic into *err, naming label.
func recovered(label string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%s: panic: %v\n%s", label, r, debug.Stack())
	}
}

// run executes one cell, serving it from the run-cache when an
// identical cell already ran (or is in flight: concurrent duplicates
// single-flight behind the first).
func (e *Engine) run(ctx context.Context, c runCell, ent *streamEntry) (sim.Result, error) {
	e.mu.Lock()
	if hit, ok := e.cache[c.key]; ok {
		e.mu.Unlock()
		select {
		case <-hit.done:
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
		if hit.err != nil {
			// The owner already emitted JobFailed; don't double-count.
			return sim.Result{}, hit.err
		}
		e.emit(JobCached, c.label, 0, hit.res.Cycles, nil, func() { e.cached++ })
		return hit.res, nil
	}
	entry := &cacheEntry{done: make(chan struct{})}
	e.cache[c.key] = entry
	e.mu.Unlock()

	var res sim.Result
	var err error
	if c.shared {
		res, err = e.replay(ctx, c, ent)
	} else {
		res, err = e.execute(ctx, c.label, false, c.live)
	}
	if err != nil {
		// Drop the poisoned entry so a later retry (or a run after a
		// cancellation) simulates afresh; current waiters still see err.
		e.mu.Lock()
		delete(e.cache, c.key)
		e.mu.Unlock()
	}
	entry.res, entry.err = res, err
	close(entry.done)
	return res, err
}

// live runs c on a composed machine, front end and back end in
// lockstep, writing its telemetry when the options ask for it.
func (c runCell) live(ctx context.Context) (sim.Result, error) {
	policy, err := sim.PolicyByName(c.rs.Protocol, c.level)
	if err != nil {
		return sim.Result{}, err
	}
	m := sim.NewMachine(c.cfg, policy, c.scaled)
	if c.o.TelemetryDir == "" {
		return m.RunContext(ctx)
	}
	sess := m.EnableTelemetry(telemetry.Config{EpochCycles: c.o.EpochCycles})
	res, err := m.RunContext(ctx)
	if err != nil {
		return res, err
	}
	sess.Flush(m.Now())
	if err := writeCellTelemetry(c.o.TelemetryDir, c.label, sess); err != nil {
		return res, fmt.Errorf("telemetry: %w", err)
	}
	return res, nil
}

// claim registers c as a consumer of its stream, so the stream
// outlives every cell that may still replay it. Cells that run live
// claim nothing (nil).
func (e *Engine) claim(c runCell) *streamEntry {
	if !c.shared {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	k := c.streamKey()
	ent, ok := e.streams[k]
	if !ok {
		ent = &streamEntry{done: make(chan struct{})}
		e.streams[k] = ent
	}
	ent.refs++
	return ent
}

// unclaim drops one claim; the last one frees the stream.
func (e *Engine) unclaim(c runCell, ent *streamEntry) {
	if ent == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent.refs--; ent.refs > 0 {
		return
	}
	if k := c.streamKey(); e.streams[k] == ent {
		delete(e.streams, k)
	}
	if ent.s != nil {
		ent.s.Release()
		ent.s = nil
	}
}

// replay runs c's protocol over its recorded stream, recording the
// stream first when no other cell has begun to. A cell waiting for
// the recording holds no worker slot.
func (e *Engine) replay(ctx context.Context, c runCell, ent *streamEntry) (sim.Result, error) {
	e.mu.Lock()
	record := !ent.recording
	ent.recording = true
	e.mu.Unlock()
	if record {
		var s *sim.Stream
		_, err := e.execute(ctx, c.frontEndLabel(), false, func(ctx context.Context) (sim.Result, error) {
			var err error
			s, err = sim.Record(ctx, c.cfg, c.scaled)
			return sim.Result{}, err
		})
		e.mu.Lock()
		ent.s, ent.err = s, err
		if k := c.streamKey(); err != nil && e.streams[k] == ent {
			// Leave no poisoned entry: a later claim records afresh.
			delete(e.streams, k)
		}
		e.mu.Unlock()
		close(ent.done)
	}
	select {
	case <-ent.done:
	case <-ctx.Done():
		return sim.Result{}, ctx.Err()
	}
	if ent.err != nil {
		return sim.Result{}, ent.err
	}
	return e.execute(ctx, c.label, true, func(ctx context.Context) (sim.Result, error) {
		policy, err := sim.PolicyByName(c.rs.Protocol, c.level)
		if err != nil {
			return sim.Result{}, err
		}
		return sim.Replay(ctx, c.cfg, policy, ent.s)
	})
}

// slugLabel flattens a cell label into a filename-safe slug.
func slugLabel(label string) string {
	var b strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// writeCellTelemetry dumps one cell's epoch time series and protocol
// trace as <slug>.timeseries.jsonl / <slug>.trace.jsonl under dir.
func writeCellTelemetry(dir, label string, s *telemetry.Session) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := slugLabel(label)
	ts, err := os.Create(filepath.Join(dir, slug+".timeseries.jsonl"))
	if err != nil {
		return err
	}
	if err := s.Series.WriteJSONL(ts); err != nil {
		ts.Close()
		return err
	}
	if err := ts.Close(); err != nil {
		return err
	}
	tr, err := os.Create(filepath.Join(dir, slug+".trace.jsonl"))
	if err != nil {
		return err
	}
	if err := s.Trace.WriteJSONL(tr); err != nil {
		tr.Close()
		return err
	}
	return tr.Close()
}

// runPlans resolves every plan's cells and claims their streams
// before any runs, so a stream shared by cells of several plans is
// recorded once however the goroutines interleave, and is freed after
// its last consumer in any plan. It then runs every cell and job on
// the pool, plan by plan, and returns each plan's results in cell
// order. All failures are aggregated; a nil error means every result
// is valid.
func (e *Engine) runPlans(ctx context.Context, o Options, plans []Plan) ([][]sim.Result, error) {
	out := make([][]sim.Result, len(plans))
	var errs []error
	var tasks []func() error
	for i, p := range plans {
		out[i] = make([]sim.Result, len(p.Cells))
		for j, rs := range p.Cells {
			var c runCell
			var ent *streamEntry
			err := func() (err error) {
				defer recovered(rs.label(rs.Level), &err)
				c = resolve(o, rs)
				ent = e.claim(c)
				return nil
			}()
			if err != nil {
				errs = append(errs, err)
				continue
			}
			tasks = append(tasks, func() (err error) {
				defer e.unclaim(c, ent)
				defer recovered(c.label, &err)
				out[i][j], err = e.run(ctx, c, ent)
				return err
			})
		}
		for _, job := range p.Jobs {
			tasks = append(tasks, func() (err error) {
				defer recovered(job.Label, &err)
				_, err = e.execute(ctx, job.Label, false, func(ctx context.Context) (sim.Result, error) {
					return sim.Result{}, job.Fn(ctx)
				})
				return err
			})
		}
	}
	taskErrs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			taskErrs[i] = task()
		}()
	}
	wg.Wait()
	return out, e.join(ctx, append(errs, taskErrs...))
}

// Do runs arbitrary jobs on the pool: a panicking job is converted to
// an error instead of crashing the process, and every job's error is
// reported (errors.Join) instead of only the first.
func (e *Engine) Do(ctx context.Context, jobs ...Job) error {
	_, err := e.runPlans(ctx, Options{}, []Plan{{Jobs: jobs}})
	return err
}

// join aggregates job errors in submission order, collapsing the
// cancellation storm (every queued job failing with ctx.Err) into the
// real failures plus one context error.
func (e *Engine) join(ctx context.Context, errs []error) error {
	kept := make([]error, 0, len(errs))
	sawCtx := false
	for _, err := range errs {
		if err == nil {
			continue
		}
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			sawCtx = true
			continue
		}
		kept = append(kept, err)
	}
	if sawCtx {
		kept = append(kept, ctx.Err())
	}
	return errors.Join(kept...)
}
