// Command amntload replays an internal/workload trace against a
// running amntd (or amntproxy) as concurrent HTTP traffic and reports
// throughput and latency quantiles. Client i replays trace seed 1+i;
// an access at VAddr is key (VAddr/64) % keyspace, a store a put and a
// load a get. A value is derived from its key alone, so every get is
// an end-to-end integrity check: a wrong value counts as a corruption
// and fails the run.
//
// One request loop issues every request. It buckets ops by owner (one
// bucket at -addr, or one per ring owner with -cluster) and sends a
// bucket once it holds -batch ops: a 1-op bucket as GET|PUT
// /v1/kv/{key}, a larger one as POST /v1/batch, every op charged the
// round trip. -preload runs the same loop, untimed, over a put of
// every key. A 503 is retried in place with jittered backoff honouring
// the server's hint; retried attempts are counted, never timed.
//
// -cluster reads the ring with one GET /v1/ring on -addr (any node or
// the proxy). A not-owned answer (a partition moved mid-run) refreshes
// the ring from the node that bounced it, counts a redirect, and
// counts the op as retryable.
//
//	amntload -addr http://localhost:8080 -workload ycsb-a -clients 8 -ops 20000
//	amntload -addr http://localhost:8080 -batch 32 -json > BENCH_store.json
//	amntload -cluster -addr http://127.0.0.1:8081 -batch 32 -json
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"amnt/internal/cluster"
	"amnt/internal/stats"
	"amnt/internal/telemetry/span"
	"amnt/internal/wire"
	"amnt/internal/workload"
)

const (
	keyspace     = 1 << 14              // distinct keys
	valueLen     = 24                   // value bytes: 8-byte key stamp + filler
	traceSeed    = 1                    // client i replays trace seed traceSeed+i
	retryMax     = 4                    // 503 retries per request before it counts as an overload
	retryBase    = 5 * time.Millisecond // backoff floor when the server sends no hint
	preloadBatch = 128                  // ops per request of the untimed -preload pass
)

// config is the command line but -json.
type config struct {
	addr, workload      string
	clients, ops, batch int
	preload, cluster    bool
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "amntd or amntproxy base URL; with -cluster, where the ring is read")
	name := flag.String("workload", "ycsb-a", "workload name (workload.ByName)")
	clients := flag.Int("clients", 8, "concurrent client goroutines")
	ops := flag.Int("ops", 20000, "total operations across all clients")
	batch := flag.Int("batch", 1, "ops per request (1 = per-op /v1/kv, more = POST /v1/batch)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON (BENCH_store.json format)")
	preload := flag.Bool("preload", false, "put every key before the timed run, so read-only workloads measure verified reads instead of misses")
	clusterOn := flag.Bool("cluster", false, "route each op to its ring owner, reading the ring from -addr")
	flag.Parse()

	rep, err := load(config{*addr, *name, *clients, *ops, *batch, *preload, *clusterOn})
	if err != nil {
		fmt.Fprintln(os.Stderr, "amntload:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	} else {
		rep.print()
	}
	if rep.Corruptions > 0 {
		fmt.Fprintln(os.Stderr, "amntload: CORRUPTION observed")
		os.Exit(1)
	}
}

// load runs cfg, reading the ring from cfg.addr first with -cluster.
func load(cfg config) (report, error) {
	var router *cluster.Client
	if cfg.cluster {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		router = cluster.NewClient(nil)
		if ok, err := router.Refresh(ctx, http.DefaultClient, cfg.addr); !ok {
			return report{}, fmt.Errorf("-cluster: no ring from %s: %v", cfg.addr, err)
		}
	}
	return drive(cfg, router)
}

// drive runs the preload and the timed run (router nil: to cfg.addr).
func drive(cfg config, router *cluster.Client) (report, error) {
	spec, ok := workload.ByName(cfg.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workload.Names())
	}
	if cfg.batch < 1 || cfg.clients < 1 {
		return report{}, errors.New("-batch and -clients must be >= 1")
	}
	if cfg.preload {
		ops := make([][]op, cfg.clients)
		for k := uint64(0); k < keyspace; k++ {
			i := k % uint64(cfg.clients)
			ops[i] = append(ops[i], op{key: k, write: true})
		}
		t := runClients(cfg, router, preloadBatch, ops)
		if failed := t.NotFound + t.Overloads + t.Errors; failed > 0 {
			return report{}, fmt.Errorf("preload: %d of %d keys failed", failed, keyspace)
		}
	}

	// Each client replays its own trace, built before the clock starts.
	spec.Accesses = uint64(max(cfg.ops/cfg.clients, 1))
	ops := make([][]op, cfg.clients)
	for i := range ops {
		trace := workload.NewTrace(spec, traceSeed+int64(i))
		for acc, more := trace.Next(); more; acc, more = trace.Next() {
			ops[i] = append(ops[i], op{key: (acc.VAddr / 64) % keyspace, write: acc.Write})
		}
	}
	start := time.Now()
	t := runClients(cfg, router, cfg.batch, ops)
	return t.finish(cfg, spec.Name, time.Since(start)), nil
}

// runClients runs one request loop per ops[i] and tallies them.
func runClients(cfg config, router *cluster.Client, batch int, ops [][]op) *tally {
	t := newTally()
	var wg sync.WaitGroup
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &client{
				addr:    cfg.addr,
				router:  router,
				batch:   batch,
				httpc:   &http.Client{Timeout: 10 * time.Second},
				rp:      &retryPolicy{max: retryMax, base: retryBase, rng: rand.New(rand.NewSource(traceSeed ^ int64(i)*0x9E3779B9))},
				t:       t,
				buckets: map[string]*bucket{},
			}
			c.run(ops[i])
		}(i)
	}
	wg.Wait()
	return t
}

type latQuantiles struct {
	P50 uint64 `json:"p50_us"`
	P90 uint64 `json:"p90_us"`
	P99 uint64 `json:"p99_us"`
	Max uint64 `json:"max_us"`
}

func quantiles(h *stats.Histogram) latQuantiles {
	return latQuantiles{h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(1.0)}
}

type report struct {
	Workload    string  `json:"workload"`
	Clients     int     `json:"clients"`
	Batch       int     `json:"batch"`
	Keyspace    uint64  `json:"keyspace"`
	ValueLen    int     `json:"value_len"`
	DurationSec float64 `json:"duration_sec"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	Gets        uint64  `json:"gets"`
	Puts        uint64  `json:"puts"`
	NotFound    uint64  `json:"not_found"`
	// Overloads counts retryable and not-owned ops, Retries the 503s
	// retried in place, Redirects the rings installed from not-owned.
	Overloads   uint64       `json:"overloads"`
	Retries     uint64       `json:"retries"`
	Redirects   uint64       `json:"redirects,omitempty"`
	Errors      uint64       `json:"errors"`
	Corruptions uint64       `json:"corruptions"`
	GetLat      latQuantiles `json:"get_latency"`
	PutLat      latQuantiles `json:"put_latency"`
	// ErrLat times the retryable, not-owned and failed ops, which
	// get_latency and put_latency leave out.
	ErrLat latQuantiles `json:"errors_latency"`
	// PhaseLat aggregates the server-side phase breakdowns (`timing`)
	// of TimingSamples responses per span phase, plus "total".
	TimingSamples uint64                  `json:"timing_samples"`
	PhaseLat      map[string]latQuantiles `json:"phase_latency,omitempty"`
	Nodes         map[string]nodeReport   `json:"nodes,omitempty"`
}

// nodeReport is one node's successful ops, retries and redirects.
type nodeReport struct {
	Ops       uint64       `json:"ops"`
	Gets      uint64       `json:"gets"`
	Puts      uint64       `json:"puts"`
	Retries   uint64       `json:"retries"`
	Redirects uint64       `json:"redirects"`
	Lat       latQuantiles `json:"latency"`
}

// print writes a summary; -json adds the phase and node breakdowns.
func (rep *report) print() {
	fmt.Printf("workload %s: %d ops (%d gets, %d puts) in %.2fs = %.0f ops/s\n",
		rep.Workload, rep.Gets+rep.Puts, rep.Gets, rep.Puts, rep.DurationSec, rep.OpsPerSec)
	fmt.Printf("latency µs: get p50=%d p99=%d, put p50=%d p99=%d, error p50=%d p99=%d\n", rep.GetLat.P50,
		rep.GetLat.P99, rep.PutLat.P50, rep.PutLat.P99, rep.ErrLat.P50, rep.ErrLat.P99)
	fmt.Printf("not-found=%d overloaded=%d retries=%d redirects=%d errors=%d corruptions=%d\n",
		rep.NotFound, rep.Overloads, rep.Retries, rep.Redirects, rep.Errors, rep.Corruptions)
}

// outcome is what one op came back as.
type outcome int

const (
	outOK outcome = iota
	outNotFound
	outRetryable
	outNotOwned
	outFailed
	outCorrupt
)

// classify maps an op's HTTP status and error text to an outcome. A
// batch reports per-op errors inside a 200, so there the text decides.
func classify(status int, msg string) outcome {
	switch {
	case status == http.StatusMisdirectedRequest || strings.Contains(msg, "not owned"):
		return outNotOwned
	case status == http.StatusServiceUnavailable,
		strings.Contains(msg, "queue full"),
		strings.Contains(msg, "recovering"),
		strings.Contains(msg, "shard failed"),
		strings.Contains(msg, "fenced"),
		strings.Contains(msg, "adopt"),
		strings.Contains(msg, "down"):
		return outRetryable
	case status == http.StatusNotFound || strings.Contains(msg, "not found"):
		return outNotFound
	case status/100 == 2 && msg == "":
		return outOK
	}
	return outFailed
}

// tally accumulates one run's report and the histograms behind its
// quantiles. The clients share one; its methods lock.
type tally struct {
	mu sync.Mutex
	report
	getLat, putLat, errLat *stats.Histogram
	phaseLat               [span.NumPhases]*stats.Histogram
	srvTotal               *stats.Histogram
	nodes                  map[string]*nodeTally // by node id; "" is standalone
}

// nodeTally is one node's share of a cluster-mode tally.
type nodeTally struct {
	nodeReport
	lat *stats.Histogram
}

func newTally() *tally {
	t := &tally{
		getLat: stats.NewHistogram(), putLat: stats.NewHistogram(),
		errLat: stats.NewHistogram(), srvTotal: stats.NewHistogram(),
		nodes: map[string]*nodeTally{},
	}
	for p := range t.phaseLat {
		t.phaseLat[p] = stats.NewHistogram()
	}
	return t
}

// node returns node id's share. The caller holds t.mu.
func (t *tally) node(id string) *nodeTally {
	n := t.nodes[id]
	if n == nil {
		n = &nodeTally{lat: stats.NewHistogram()}
		t.nodes[id] = n
	}
	return n
}

// request records a round trip to node id: its retried 503s and
// whether its not-owned answer installed a newer ring.
func (t *tally) request(id string, retries int, redirected bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.node(id)
	t.Retries += uint64(retries)
	n.Retries += uint64(retries)
	if redirected {
		t.Redirects++
		n.Redirects++
	}
}

// count charges one op's outcome and round trip (us microseconds): a
// success (a miss or a corrupt value too) to the get or put histogram
// and node id's share, anything else to errLat, so backpressure
// cannot skew the service-time quantiles.
func (t *tally) count(id string, write bool, o outcome, us uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	nt := t.node(id)
	lat, n, nn := t.getLat, &t.Gets, &nt.Gets
	if write {
		lat, n, nn = t.putLat, &t.Puts, &nt.Puts
	}
	*n++
	switch o {
	case outRetryable, outNotOwned:
		t.Overloads++
		t.errLat.Observe(us)
		return
	case outFailed:
		t.Errors++
		t.errLat.Observe(us)
		return
	case outNotFound:
		t.NotFound++
	case outCorrupt:
		t.Corruptions++
	}
	*nn++
	lat.Observe(us)
	nt.lat.Observe(us)
}

// observeTiming folds in one response's server-side phase breakdown.
// A phase the request never entered reports 0 and adds no sample.
func (t *tally) observeTiming(raw []byte) {
	var tm span.Timing
	if raw == nil || json.Unmarshal(raw, &tm) != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.TimingSamples++
	for p, us := range [span.NumPhases]int64{
		span.QueueWait:     tm.QueueWaitUs,
		span.EpochStage:    tm.EpochStageUs,
		span.CommitClimb:   tm.CommitClimbUs,
		span.Persist:       tm.PersistUs,
		span.EpochFallback: tm.EpochFallbackUs,
		span.Forward:       tm.ForwardUs,
		span.Ack:           tm.AckUs,
		span.ReadVerify:    tm.ReadVerifyUs,
	} {
		if us > 0 {
			t.phaseLat[p].Observe(uint64(us))
		}
	}
	t.srvTotal.Observe(uint64(tm.TotalUs))
}

// finish renders the tally of a run that took wall.
func (t *tally) finish(cfg config, name string, wall time.Duration) report {
	rep := t.report
	rep.Workload, rep.Clients, rep.Batch, rep.Keyspace, rep.ValueLen = name, cfg.clients, cfg.batch, keyspace, valueLen
	rep.DurationSec = wall.Seconds()
	if wall > 0 {
		rep.OpsPerSec = float64(rep.Gets+rep.Puts) / wall.Seconds()
	}
	rep.GetLat, rep.PutLat, rep.ErrLat = quantiles(t.getLat), quantiles(t.putLat), quantiles(t.errLat)
	if rep.TimingSamples > 0 {
		rep.PhaseLat = map[string]latQuantiles{"total": quantiles(t.srvTotal)}
		for p := span.Phase(0); p < span.NumPhases; p++ {
			if !t.phaseLat[p].Empty() {
				rep.PhaseLat[p.String()] = quantiles(t.phaseLat[p])
			}
		}
	}
	rep.Nodes = map[string]nodeReport{} // left out of the JSON when empty
	for id, n := range t.nodes {
		if id != "" {
			n.Ops, n.Lat = n.Gets+n.Puts, quantiles(n.lat)
			rep.Nodes[id] = n.nodeReport
		}
	}
	return rep
}

// retryPolicy is one client's 503 retry: up to max retries per
// request, with jittered exponential backoff.
type retryPolicy struct {
	max  int
	base time.Duration
	rng  *rand.Rand
}

// retryHint is a 503's preferred delay: the body's retry_after_ms
// (finer-grained) wins over the Retry-After header (whole seconds).
func retryHint(resp *http.Response, body []byte) time.Duration {
	var out struct {
		RetryAfterMS int64 `json:"retry_after_ms"`
	}
	if json.Unmarshal(body, &out) == nil && out.RetryAfterMS > 0 {
		return time.Duration(out.RetryAfterMS) * time.Millisecond
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// wait is the sleep before retry n (from 1): the larger of the
// doubling base and the server hint, jittered over [d/2, 3d/2) so
// clients spread out instead of stampeding a recovering shard.
func (rp *retryPolicy) wait(n int, hint time.Duration) time.Duration {
	d := rp.base << uint(n-1)
	if hint > d {
		d = hint
	}
	return d/2 + time.Duration(rp.rng.Int63n(int64(d)+1))
}

// attempt is one HTTP try: the response (body drained and closed),
// the body, and the try's wall time in microseconds.
type attempt struct {
	resp *http.Response
	body []byte
	us   uint64
	err  error
}

// do issues the request newReq builds, retrying 503s, and returns the
// final attempt and how many 503s it retried; backoff never lands in
// a latency histogram.
func (rp *retryPolicy) do(httpc *http.Client, newReq func() *http.Request) (attempt, int) {
	for n := 1; ; n++ {
		t0 := time.Now()
		a := attempt{}
		if a.resp, a.err = httpc.Do(newReq()); a.err == nil {
			a.body, _ = io.ReadAll(a.resp.Body) // a short body fails to decode
			a.resp.Body.Close()
		}
		a.us = uint64(time.Since(t0).Microseconds())
		if a.err != nil || a.resp.StatusCode != http.StatusServiceUnavailable || n > rp.max {
			return a, n - 1
		}
		time.Sleep(rp.wait(n, retryHint(a.resp, a.body)))
	}
}

// valueFor is key's value, whichever put wrote it: the key stamped
// little-endian into the first 8 bytes, deterministic filler after.
func valueFor(key uint64) []byte {
	v := make([]byte, valueLen)
	binary.LittleEndian.PutUint64(v, key)
	for i := 8; i < valueLen; i++ {
		v[i] = byte(key>>uint(i%8)) ^ byte(i)
	}
	return v
}

// op is one trace operation: a get or a put of key.
type op struct {
	key   uint64
	write bool
}

// bucket collects the ops bound for one owner until it holds a batch.
type bucket struct {
	id, base string
	puts     []wire.Op
	gets     []uint64
}

// client is one request loop.
type client struct {
	addr    string
	router  *cluster.Client // nil: every op goes to addr
	batch   int
	httpc   *http.Client
	rp      *retryPolicy
	t       *tally
	buckets map[string]*bucket
}

// run buckets ops by owner and sends each bucket at c.batch ops.
func (c *client) run(ops []op) {
	for _, o := range ops {
		id, base := "", c.addr
		if c.router != nil {
			if rid, raddr, err := c.router.Route(o.key); err == nil {
				id, base = rid, raddr
			}
		}
		b := c.buckets[id]
		if b == nil {
			b = &bucket{id: id}
			c.buckets[id] = b
		}
		b.base = base
		if o.write {
			b.puts = append(b.puts, wire.Op{Key: o.key, Value: valueFor(o.key)})
		} else {
			b.gets = append(b.gets, o.key)
		}
		if len(b.puts)+len(b.gets) == c.batch {
			c.send(b)
		}
	}
	for _, b := range c.buckets {
		c.send(b)
	}
}

// send issues b and empties it: a 1-op bucket as GET|PUT /v1/kv/{key},
// a larger one as POST /v1/batch. A not-owned answer refreshes the
// ring from the node that bounced it.
func (c *client) send(b *bucket) {
	n := len(b.puts) + len(b.gets)
	if n == 0 {
		return
	}
	defer func() { b.puts, b.gets = b.puts[:0], b.gets[:0] }()
	method, url, body := http.MethodPost, b.base+"/v1/batch", []byte(nil)
	switch {
	case n > 1:
		body = wire.AppendRequest(nil, b.puts, b.gets)
	case len(b.puts) == 1:
		method, url, body = http.MethodPut, fmt.Sprintf("%s/v1/kv/%d", b.base, b.puts[0].Key), b.puts[0].Value
	default:
		method, url = http.MethodGet, fmt.Sprintf("%s/v1/kv/%d", b.base, b.gets[0])
	}
	a, retries := c.rp.do(c.httpc, func() *http.Request {
		req, _ := http.NewRequest(method, url, bytes.NewReader(body))
		return req
	})
	redirected := false
	if c.answer(b, a) && c.router != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		redirected, _ = c.router.Refresh(ctx, c.httpc, b.base)
	}
	c.t.request(b.id, retries, redirected)
}

// answer counts one outcome per op of b, reporting any not owned.
func (c *client) answer(b *bucket, a attempt) (stale bool) {
	count := func(write bool, o outcome) {
		c.t.count(b.id, write, o, a.us)
		stale = stale || o == outNotOwned
	}
	all := func(o outcome) {
		for range b.puts {
			count(true, o)
		}
		for range b.gets {
			count(false, o)
		}
	}
	if a.err != nil {
		all(outFailed)
		return
	}
	if a.resp.StatusCode/100 != 2 {
		all(classify(a.resp.StatusCode, string(a.body)))
		return
	}
	var puts, gets []wire.Op
	var timing []byte
	if len(b.puts)+len(b.gets) == 1 { // GET|PUT /v1/kv: one result
		var kv wire.KV
		if kv.Decode(a.body) != nil {
			all(outFailed)
			return
		}
		puts, timing = []wire.Op{kv.Op}, kv.Timing
		if len(b.gets) == 1 {
			puts, gets = nil, puts
		}
	} else {
		var resp wire.Response
		if resp.Decode(a.body) != nil || len(resp.Puts) != len(b.puts) || len(resp.Gets) != len(b.gets) {
			all(outFailed)
			return
		}
		puts, gets, timing = resp.Puts, resp.Gets, resp.Timing
	}
	c.t.observeTiming(timing)
	for _, p := range puts {
		count(true, classify(http.StatusOK, p.Err))
	}
	// A get that was served must answer its key's own value.
	buf := wire.Get()
	defer buf.Release()
	for i, g := range gets {
		o := classify(http.StatusOK, g.Err)
		if v, err := buf.Value(g.B64); o == outOK && (err != nil || !bytes.Equal(v, valueFor(b.gets[i]))) {
			o = outCorrupt
		}
		count(false, o)
	}
	return
}
