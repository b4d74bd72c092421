package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// runTraced is the traced run of any workload: a fixed amount of work
// with span sampling on in the servers and spans recorded in the
// client, the counters and process statistics around it, the
// transport floor against a null handler, and the in-process ladder.
// It reports every per-layer metric; a layer that is not on the
// workload's path reports 0.
func (e *Env) runTraced(ctx context.Context, w Workload, sz Sizes, seed int64, res *Result, out io.Writer) error {
	m := map[string]float64{}
	var tv *tracedView
	var err error
	if w.kind == simulator {
		err = e.tracedSim(ctx, sz, res, m)
	} else {
		tv, err = e.tracedServing(ctx, w, sz, seed, res, m)
	}
	if err != nil {
		return err
	}
	rungs, err := e.runLadder(ctx, w, sz, seed)
	if err != nil {
		return err
	}
	for k, v := range rungs {
		m[k] = v
	}
	for _, d := range PerLayer {
		res.Metrics[d.Name] = Metric{Value: m[d.Name], Unit: d.Unit}
	}
	if tv != nil && w.kind == serving {
		tv.printLadder(out, w, m)
	}
	return nil
}

// tracedSim regenerates the figure once and reports its mean row.
func (e *Env) tracedSim(ctx context.Context, sz Sizes, res *Result, m map[string]float64) error {
	tab, _, err := e.runFigure4(ctx, sz.SimScale)
	if err != nil {
		return err
	}
	mean, cells, bad := tab.check(res)
	res.Attempted, res.Failed = cells, bad
	for _, p := range SimProtocols {
		m["sim.norm_cycles."+p.Suffix] = mean[p.Column]
	}
	return nil
}

// tracedView is what the ladder table needs from the traced pass.
type tracedView struct {
	clientP50       float64 // request root span, µs
	loadgen         float64 // encode + decode + verify p50s, µs
	putsPerRequest  float64
	getsPerRequest  float64
	readViewServing bool
}

// overheadRounds is how many slices the traced replay is cut into.
// Untraced slices against a second set of servers (span sampling off,
// no client spans) are interleaved with them, so warm-up and host
// drift fall on both sides alike and the difference is the tracing.
const overheadRounds = 10

// tracedServing replays a fixed number of key operations (cycles, for
// crash-recover) with span sampling on in the servers and spans
// recorded in the client. For a serving workload the same number of
// operations is replayed untraced on a second set of servers, slice by
// slice in alternation, to give the tracing overhead.
func (e *Env) tracedServing(ctx context.Context, w Workload, sz Sizes, seed int64, res *Result, m map[string]float64) (*tracedView, error) {
	tr := newTracer(w.Name, w.clients)
	s, err := e.setUp(ctx, w, sz, seed, 1, tr)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	var base *session
	rounds := 1
	lim := limit{ctx: ctx, ops: uint64(sz.TracedCycle)}
	if w.kind == serving {
		if base, err = e.setUp(ctx, w, sz, seed, 0, nil); err != nil {
			return nil, err
		}
		defer base.stop()
		rounds = overheadRounds
		lim.ops = uint64(sz.TracedOps / w.clients / rounds)
	}
	before, err := s.topo.scrape()
	if err != nil {
		return nil, err
	}
	cpuServer0 := s.topo.cpuTicks()
	var traced, untraced time.Duration
	var cpuSelf uint64
	for r := 0; r < rounds; r++ {
		if base != nil {
			untraced += base.drive(lim)
		}
		c0 := selfTicks()
		traced += s.drive(lim)
		cpuSelf += selfTicks() - c0
	}
	cpuServer1 := s.topo.cpuTicks()
	after, err := s.topo.scrape()
	if err != nil {
		return nil, err
	}
	if base != nil {
		var bt tally
		for _, c := range base.clients {
			bt.add(c.tally)
		}
		if bt.Failed > 0 {
			return nil, fmt.Errorf("%s: untraced baseline had %d failed operations: %s", w.Name, bt.Failed, bt.firstErr)
		}
	}
	t := res.count(s)
	d := after.minus(before)
	s.checkLayers(res, d)
	if err := tr.write(filepath.Join(e.Root, "bench", "out", "trace-"+w.Name+".jsonl")); err != nil {
		return nil, err
	}

	ops := float64(t.Attempted - t.Failed)
	p50 := func(pick func(*clientTrace) []float64) float64 { return median(tr.merged(pick)) }
	m["store.commit_climb_us_p50"] = p50(func(c *clientTrace) []float64 { return c.commitClimb })
	m["store.persist_us_p50"] = p50(func(c *clientTrace) []float64 { return c.persist })
	m["store.epoch_stage_us_p50"] = p50(func(c *clientTrace) []float64 { return c.epochStage })
	m["store.read_verify_us_p50"] = p50(func(c *clientTrace) []float64 { return c.readVerify })
	qw := sortedCopy(tr.merged(func(c *clientTrace) []float64 { return c.queueWait }))
	m["store.queue_wait_us_p50"], m["store.queue_wait_us_p99"] = Quantile(qw, 0.5), Quantile(qw, 0.99)
	m["store.ack_us_p50"] = p50(func(c *clientTrace) []float64 { return c.ack })
	m["loadgen.encode_us_p50"] = p50(func(c *clientTrace) []float64 { return c.encode })
	m["loadgen.decode_us_p50"] = p50(func(c *clientTrace) []float64 { return c.decode })
	if w.proxy {
		// The client talks to the proxy, whose timing carries forward
		// and its own total; the nodes' phases are not visible to it.
		m["cluster.forward_us_p50"] = p50(func(c *clientTrace) []float64 { return c.forward })
		m["cluster.proxy_residual_us_p50"] = p50(func(c *clientTrace) []float64 { return c.proxyResidual })
		m["cluster.redirects"] = float64(t.Retryable)
	} else {
		m["store.server_total_us_p50"] = p50(func(c *clientTrace) []float64 { return c.serverTotal })
		m["node.http_residual_us_p50"] = p50(func(c *clientTrace) []float64 { return c.httpResidual })
	}
	// ratio is a/b, or 0 when the layer did no work in the replay.
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["store.ops_per_epoch"] = ratio(d.n("epoch_ops"), d.n("epochs"))
	m["store.epoch_fallbacks"] = d.n("epoch_fallbacks")
	m["store.overloads"] = d.n("overloads")
	m["store.read_fallback_ratio"] = ratio(d.n("read_fallbacks"), d.n("concurrent_reads")+d.n("read_fallbacks"))
	m["store.read_retries_per_kop"] = 1000 * ratio(d.n("read_retries"), d.n("gets"))
	m["scm.meta_fetches_per_op"] = ratio(d.n("meta_fetches"), d.n("gets")+d.n("puts"))
	m["scm.writes_per_put"] = ratio(d.n("data_writes")+d.n("posted_writes"), d.n("puts"))
	m["scm.merged_write_ratio"] = ratio(d.n("merged_writes"), d.n("posted_writes")+d.n("merged_writes"))
	if ops > 0 {
		// USER_HZ is 100 on Linux: one tick is 10 ms of CPU.
		m["proc.server_cpu_us_per_op"] = float64(cpuServer1-cpuServer0) * 1e4 / ops
		m["proc.loadgen_cpu_us_per_op"] = float64(cpuSelf) * 1e4 / ops
	}
	for _, p := range s.topo.all {
		m["proc.server_rss_mb"] += rssMB(p.Pid())
	}
	if untraced > 0 {
		m["loadgen.trace_overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	}
	null, err := s.nullRTT(sz.NullRTTs)
	if err != nil {
		return nil, err
	}
	m["loadgen.null_rtt_us_p50"] = null

	tv := &tracedView{
		clientP50: p50(func(c *clientTrace) []float64 { return c.request }),
		loadgen: m["loadgen.encode_us_p50"] + m["loadgen.decode_us_p50"] +
			p50(func(c *clientTrace) []float64 { return c.verify }),
		readViewServing: d.n("concurrent_reads") > 0,
	}
	var requests, puts, gets float64
	for _, c := range s.clients {
		requests += float64(len(c.get) + len(c.put) + len(c.batch))
		puts += float64(c.putOps)
		gets += float64(c.getOps)
	}
	if requests > 0 {
		tv.putsPerRequest, tv.getsPerRequest = puts/requests, gets/requests
	}
	return tv, nil
}

func (t *topology) cpuTicks() uint64 {
	var sum uint64
	for _, p := range t.all {
		n, _ := cpuTicks(p.Pid())
		sum += n
	}
	return sum
}

func selfTicks() uint64 {
	n, _ := cpuTicks(os.Getpid())
	return n
}

// nullRTT is the transport floor: the workload's own request and
// response sizes exchanged with an in-process handler that does
// nothing, over one keep-alive loopback connection like a client's.
// It returns the median round trip in microseconds.
func (s *session) nullRTT(rounds int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	filler := bytes.Repeat([]byte{' '}, 1<<20)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		n, _ := strconv.Atoi(r.Header.Get("X-Null-Len"))
		if n > len(filler) {
			n = len(filler)
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(filler[:n])
	})}
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(ln)
		close(served)
	}()
	defer func() {
		_ = srv.Close()
		<-served
	}()

	c := s.clients[0]
	type sample struct {
		method, path string
		body         []byte
		respLen      int
	}
	var kinds []sample
	if s.w.batch == 1 {
		kinds = []sample{
			{http.MethodGet, "/v1/kv/1", nil, c.respLen[classGet]},
			{http.MethodPut, "/v1/kv/1", make([]byte, 24), c.respLen[classPut]},
		}
	} else {
		kinds = []sample{{http.MethodPost, "/v1/batch", append([]byte(nil), c.wire.Body()...), c.respLen[classBatch]}}
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	var rtts []float64
	for i := 0; i < rounds*len(kinds); i++ {
		k := kinds[i%len(kinds)]
		var rd io.Reader
		if k.body != nil {
			rd = bytes.NewReader(k.body)
		}
		req, err := http.NewRequest(k.method, "http://"+ln.Addr().String()+k.path, rd)
		if err != nil {
			return 0, err
		}
		req.Header.Set("X-Null-Len", strconv.Itoa(k.respLen))
		t0 := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	return median(rtts), nil
}

// runLadder runs the in-process probe binary with the workload's
// trace and server shape and returns its metrics. sim-fig4 has no key
// trace and borrows perop-mixed's.
func (e *Env) runLadder(ctx context.Context, w Workload, sz Sizes, seed int64) (map[string]float64, error) {
	if w.kind == simulator {
		w, _ = ByName("perop-mixed")
	}
	mix := w.mix(sz)
	shards := w.shards
	if w.proxy {
		shards = w.partitions
	}
	crashLeaves := int(sz.CrashKeys / 2 / 64)
	if max := 32 << 20 / 4096; crashLeaves > max {
		crashLeaves = max
	}
	budget := "150ms"
	if sz.Window < 1 {
		budget = "10ms"
	}
	cmd := exec.CommandContext(ctx, e.Bin("ladder"),
		"-seed", strconv.FormatInt(seed, 10),
		"-keys", strconv.FormatUint(mix.Keys, 10),
		"-put-share", strconv.FormatFloat(mix.PutShare, 'g', -1, 64),
		"-zipf="+strconv.FormatBool(mix.Zipf),
		"-clients", strconv.Itoa(w.clients),
		"-batch", strconv.Itoa(w.batch),
		"-ops", strconv.Itoa(sz.TracedOps),
		"-shards", strconv.Itoa(shards),
		"-shard-mem-mb", strconv.Itoa(w.shardMB),
		"-protocol", w.protocol,
		"-crash-mem-mb", "32",
		"-crash-leaves", strconv.Itoa(crashLeaves),
		"-sim-scale", sz.SimScale,
		"-budget", budget,
	)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("ladder: %w\n%s", err, stderr.String())
	}
	var m map[string]float64
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &m); err != nil {
		return nil, fmt.Errorf("ladder: undecodable output: %w", err)
	}
	return m, nil
}

// printLadder prints the workload's ladder: each in-process rung's
// cost for one average request, each rung's self time (its cost minus
// the rung below), the measured transport floor and load-generator
// time, and what is left of the client's median request once all of
// them are subtracted. The residual is time no rung explains; it is
// printed, not spread over the rungs, so the rows plus the residual
// equal the client p50 by construction.
func (tv *tracedView) printLadder(out io.Writer, w Workload, m map[string]float64) {
	puts, gets := tv.putsPerRequest, tv.getsPerRequest
	hops := 1.0
	if w.proxy {
		// The proxy fans a batch out to both nodes at once; the
		// critical path is one node's half, over one more hop.
		puts, gets, hops = puts/2, gets/2, 2
	}
	read := m["mee.read_ns"]
	if tv.readViewServing && m["mee.read_view_ns"] > 0 {
		read = m["mee.read_view_ns"]
	}
	var mee, store, node float64
	if w.batch == 1 {
		mee = puts*m["mee.write_ns"] + gets*read
		store = puts*m["store.put_ns"] + gets*m["store.get_ns"]
		node = puts*m["node.kv_put_handler_ns"] + gets*m["node.kv_get_handler_ns"]
	} else {
		mee = puts*m["mee.epoch_ns_per_op"] + gets*read
		store = puts*m["store.putbatch_ns_per_key"] + gets*m["store.getbatch_ns_per_key"]
		node = (puts + gets) * m["node.batch_handler_ns_per_key"]
	}
	mee, store, node = mee/1e3, store/1e3, node/1e3

	type row struct {
		name       string
		cumulative float64
		self       float64
	}
	rows := []row{
		{"mee (cme, bmt inside)", mee, mee},
		{"store (shard queue, epochs)", store, store - mee},
		{"node (mux, JSON, no socket)", node, node - store},
		{fmt.Sprintf("transport floor x%.0f (null handler)", hops), 0, hops * m["loadgen.null_rtt_us_p50"]},
	}
	if w.proxy {
		rows = append(rows, row{"cluster (proxy round trip - forward - transport)", 0,
			m["cluster.proxy_residual_us_p50"] - m["loadgen.null_rtt_us_p50"]})
	}
	rows = append(rows, row{"loadgen (encode, decode, verify)", 0, tv.loadgen})
	var sum float64
	fmt.Fprintf(out, "\nladder %s: one average request (%.1f puts, %.1f gets on the critical path), microseconds\n", w.Name, puts, gets)
	fmt.Fprintf(out, "  %-52s %12s %12s\n", "rung", "cumulative", "self")
	for _, r := range rows {
		cum := "-"
		if r.cumulative > 0 {
			cum = fmt.Sprintf("%.1f", r.cumulative)
		}
		fmt.Fprintf(out, "  %-52s %12s %12.1f\n", r.name, cum, r.self)
		sum += r.self
	}
	fmt.Fprintf(out, "  %-52s %12s %12.1f\n", "sum of rungs", "", sum)
	fmt.Fprintf(out, "  %-52s %12s %12.1f\n", "client request p50", "", tv.clientP50)
	fmt.Fprintf(out, "  %-52s %12s %12.1f  (%.0f%% of the client p50)\n", "residual (no rung explains it)", "", tv.clientP50-sum, 100*(tv.clientP50-sum)/tv.clientP50)
	if !w.proxy {
		fmt.Fprintf(out, "  server-side view: total p50 %.1f, http residual p50 %.1f (client round trip - server total)\n",
			m["store.server_total_us_p50"], m["node.http_residual_us_p50"])
	} else {
		fmt.Fprintf(out, "  proxy-side view: forward p50 %.1f, proxy residual p50 %.1f (client round trip - forward)\n",
			m["cluster.forward_us_p50"], m["cluster.proxy_residual_us_p50"])
	}
}
