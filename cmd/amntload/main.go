// Command amntload replays an internal/workload trace against a
// running amntd as concurrent HTTP client traffic and reports
// throughput and latency quantiles.
//
// Each client walks its own deterministic trace: a workload access at
// virtual address VAddr becomes key (VAddr/64) % keyspace; stores
// become PUTs, loads become GETs. Values are derived from the key
// alone, so every successful GET is also an end-to-end integrity
// check — a response that decodes to the wrong key is counted as a
// corruption (and fails the run).
//
// 503 responses (backpressure, online recovery, or a quarantined
// shard) are retried in place with jittered exponential backoff, up
// to -retry-max attempts per op. The delay honors the server's
// retry hint — the retry_after_ms body field first, then the
// Retry-After header — before falling back to -retry-base doubling.
// Retried attempts are counted separately (the `retries` report
// field) and never observed into the latency histograms; only an op
// whose retries are exhausted is charged as an overload with error
// latency.
//
// With -batch N > 1 each client groups N consecutive trace ops into a
// single POST /v1/batch request (puts and gets of the group travel
// together), exercising the server's group-commit path; every op in
// the group is charged the batch round-trip latency.
//
// Cluster mode (-cluster -nodes id=url,id=url,...) routes client-side
// with the same consistent-hash ring library the nodes and amntproxy
// use: every op goes straight to its key's owner, batches are
// bucketed per node, and a 421 Misdirected Request (a partition moved
// mid-run) is followed once via its ownership hint — counted in the
// `redirects` field — after patching the local ring. The report then
// carries a per-node breakdown (ops, latency quantiles, retries,
// redirects) merged across clients.
//
// Example:
//
//	amntload -addr http://localhost:8080 -workload ycsb-a -clients 8 -ops 20000
//	amntload -addr http://localhost:8080 -batch 32 -json > BENCH_store.json
//	amntload -cluster -nodes n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082 \
//	         -batch 32 -json > BENCH_cluster.json
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
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

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:8080", "amntd base URL")
		name      = flag.String("workload", "ycsb-a", "workload name (workload.ByName) or 'uniform'")
		clients   = flag.Int("clients", 8, "concurrent client goroutines")
		ops       = flag.Int("ops", 20000, "total operations across all clients")
		keyspace  = flag.Uint64("keyspace", 1<<14, "distinct keys")
		valueLen  = flag.Int("value-len", 24, "value payload bytes (8-byte key stamp + filler)")
		seed      = flag.Int64("seed", 1, "trace seed")
		writeFrac = flag.Float64("write-frac", 0.5, "store fraction for -workload uniform")
		batchN    = flag.Int("batch", 1, "ops per POST /v1/batch request (1 = per-op /v1/kv)")
		retryMax  = flag.Int("retry-max", 4, "503 retries per op before counting it as an overload (0 = never retry)")
		retryBase = flag.Duration("retry-base", 5*time.Millisecond, "backoff floor for 503 retries when the server sends no retry hint")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON (BENCH_store.json format)")
		preload   = flag.Bool("preload", false, "PUT every key in -keyspace before the timed run, so read-only workloads measure verified reads instead of first-touch misses")

		clusterOn  = flag.Bool("cluster", false, "route client-side by consistent-hash ring instead of a single -addr")
		nodesSet   = flag.String("nodes", "", "cluster member list as id=url,id=url — must match the nodes' -cluster-nodes")
		partitions = flag.Int("partitions", 0, "cluster partition count (0 = 64); must match the nodes")
		vnodes     = flag.Int("vnodes", 0, "virtual nodes per ring member (0 = 128); must match the nodes")
	)
	flag.Parse()
	if *valueLen < 8 || *valueLen > 63 {
		fmt.Fprintln(os.Stderr, "amntload: -value-len must be in [8, 63]")
		os.Exit(1)
	}
	if *batchN < 1 {
		fmt.Fprintln(os.Stderr, "amntload: -batch must be >= 1")
		os.Exit(1)
	}

	spec, ok := workload.ByName(*name)
	if !ok {
		if *name != "uniform" {
			fmt.Fprintf(os.Stderr, "amntload: unknown workload %q (have %v, uniform)\n", *name, workload.Names())
			os.Exit(1)
		}
		spec = workload.Spec{
			Name: "uniform", Suite: "synthetic", Model: workload.Chase,
			FootprintBytes: *keyspace * 64, WriteRatio: *writeFrac,
			Accesses: uint64(*ops),
		}
	}

	// Cluster mode: one shared ring-routing client so 421 hints
	// learned by any load goroutine help them all.
	var router *cluster.Client
	if *clusterOn {
		members, err := cluster.ParseMembers(*nodesSet)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amntload:", err)
			os.Exit(1)
		}
		if len(members) == 0 {
			fmt.Fprintln(os.Stderr, "amntload: -cluster needs -nodes id=url,id=url,...")
			os.Exit(1)
		}
		router = cluster.NewClient(cluster.InitialState(*partitions, *vnodes, members))
	}

	// Preload: store the whole keyspace before the timed run, so a
	// read-only workload (ycsb-c) measures verified reads instead of
	// first-touch zero fills, and every GET is an integrity check.
	if *preload {
		if n := preloadKeyspace(*addr, router, *keyspace, *valueLen, *clients); n > 0 {
			fmt.Fprintf(os.Stderr, "amntload: preload: %d of %d keys failed\n", n, *keyspace)
			os.Exit(1)
		}
	}

	perClient := *ops / *clients
	if perClient == 0 {
		perClient = 1
	}
	results := make([]clientResult, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs := spec
			cs.Accesses = uint64(perClient)
			rp := &retryPolicy{
				max:  *retryMax,
				base: *retryBase,
				rng:  rand.New(rand.NewSource(*seed ^ int64(i)*0x9E3779B9)),
			}
			results[i] = runClient(*addr, router, workload.NewTrace(cs, *seed+int64(i)), *keyspace, *valueLen, *batchN, rp)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	// Merge per-client latency histograms (microsecond keys) and
	// counters into one report.
	merged := report{
		Workload: spec.Name, Clients: *clients, Batch: *batchN, ValueLen: *valueLen,
		Keyspace: *keyspace, DurationSec: wall.Seconds(),
	}
	getHist, putHist, errHist := stats.NewHistogram(), stats.NewHistogram(), stats.NewHistogram()
	srvTotal := stats.NewHistogram()
	var phaseHist [span.NumPhases]*stats.Histogram
	for p := range phaseHist {
		phaseHist[p] = stats.NewHistogram()
	}
	nodeSums := map[string]*nodeAgg{}
	for _, r := range results {
		merged.Gets += r.gets
		merged.Puts += r.puts
		merged.NotFound += r.notFound
		merged.Overloads += r.overloads
		merged.Retries += r.retries
		merged.Redirects += r.redirects
		merged.Corruptions += r.corruptions
		merged.Errors += r.errors
		merged.TimingSamples += r.timings
		getHist.Merge(r.getLat)
		putHist.Merge(r.putLat)
		errHist.Merge(r.errLat)
		srvTotal.Merge(r.srvTotal)
		for p := range phaseHist {
			phaseHist[p].Merge(r.phaseLat[p])
		}
		for id, agg := range r.nodes {
			sum := nodeSums[id]
			if sum == nil {
				sum = &nodeAgg{lat: stats.NewHistogram()}
				nodeSums[id] = sum
			}
			sum.gets += agg.gets
			sum.puts += agg.puts
			sum.retries += agg.retries
			sum.redirects += agg.redirects
			sum.lat.Merge(agg.lat)
		}
	}
	total := merged.Gets + merged.Puts
	if wall > 0 {
		merged.OpsPerSec = float64(total) / wall.Seconds()
	}
	merged.GetLat = quantiles(getHist)
	merged.PutLat = quantiles(putHist)
	merged.ErrLat = quantiles(errHist)
	if merged.TimingSamples > 0 {
		merged.PhaseLat = make(map[string]latQuantiles)
		for p := span.Phase(0); p < span.NumPhases; p++ {
			if !phaseHist[p].Empty() {
				merged.PhaseLat[p.String()] = quantiles(phaseHist[p])
			}
		}
		merged.PhaseLat["total"] = quantiles(srvTotal)
	}
	if len(nodeSums) > 0 {
		merged.Nodes = make(map[string]nodeReport, len(nodeSums))
		for id, sum := range nodeSums {
			merged.Nodes[id] = nodeReport{
				Ops:       sum.gets + sum.puts,
				Gets:      sum.gets,
				Puts:      sum.puts,
				Retries:   sum.retries,
				Redirects: sum.redirects,
				Lat:       quantiles(sum.lat),
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(merged)
	} else {
		fmt.Printf("workload %s: %d ops (%d gets, %d puts) in %.2fs = %.0f ops/s\n",
			merged.Workload, total, merged.Gets, merged.Puts, merged.DurationSec, merged.OpsPerSec)
		fmt.Printf("get latency µs: p50=%d p99=%d max=%d\n",
			merged.GetLat.P50, merged.GetLat.P99, merged.GetLat.Max)
		fmt.Printf("put latency µs: p50=%d p99=%d max=%d\n",
			merged.PutLat.P50, merged.PutLat.P99, merged.PutLat.Max)
		if !errHist.Empty() {
			fmt.Printf("error latency µs: p50=%d p99=%d max=%d\n",
				merged.ErrLat.P50, merged.ErrLat.P99, merged.ErrLat.Max)
		}
		fmt.Printf("not-found=%d overloaded=%d retries=%d redirects=%d errors=%d corruptions=%d\n",
			merged.NotFound, merged.Overloads, merged.Retries, merged.Redirects, merged.Errors, merged.Corruptions)
		for id, n := range merged.Nodes {
			fmt.Printf("node %s: %d ops (%d gets, %d puts) p50=%dµs p99=%dµs retries=%d redirects=%d\n",
				id, n.Ops, n.Gets, n.Puts, n.Lat.P50, n.Lat.P99, n.Retries, n.Redirects)
		}
		if merged.TimingSamples > 0 {
			fmt.Printf("server phase breakdown (p50 µs over %d samples):", merged.TimingSamples)
			for p := span.Phase(0); p < span.NumPhases; p++ {
				if q, ok := merged.PhaseLat[p.String()]; ok {
					fmt.Printf(" %s=%d", p, q.P50)
				}
			}
			fmt.Printf(" total=%d\n", merged.PhaseLat["total"].P50)
		}
	}
	if merged.Corruptions > 0 {
		fmt.Fprintln(os.Stderr, "amntload: CORRUPTION observed")
		os.Exit(1)
	}
}

type latQuantiles struct {
	P50 uint64 `json:"p50_us"`
	P90 uint64 `json:"p90_us"`
	P99 uint64 `json:"p99_us"`
	Max uint64 `json:"max_us"`
}

func quantiles(h *stats.Histogram) latQuantiles {
	return latQuantiles{
		P50: h.Quantile(0.50),
		P90: h.Quantile(0.90),
		P99: h.Quantile(0.99),
		Max: h.Quantile(1.0),
	}
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
	// Overloads counts ops whose 503 retries were exhausted; Retries
	// counts the retried attempts themselves. Retried attempts are
	// excluded from every latency histogram (including errors_latency)
	// so backoff sleeps cannot masquerade as service time.
	Overloads uint64 `json:"overloads"`
	Retries   uint64 `json:"retries"`
	// Redirects counts 421 Misdirected Request answers that were
	// followed via their ownership hint (cluster mode only): each one
	// is a partition the client's ring had stale until the hint
	// patched it.
	Redirects   uint64       `json:"redirects,omitempty"`
	Errors      uint64       `json:"errors"`
	Corruptions uint64       `json:"corruptions"`
	GetLat      latQuantiles `json:"get_latency"`
	PutLat      latQuantiles `json:"put_latency"`
	// ErrLat holds latencies of overloaded and failed requests; they
	// are excluded from get_latency/put_latency.
	ErrLat latQuantiles `json:"errors_latency"`
	// TimingSamples counts responses that carried a server-side phase
	// breakdown; PhaseLat aggregates them per span phase (plus the
	// server-observed "total"), omitting phases with no samples.
	TimingSamples uint64                  `json:"timing_samples"`
	PhaseLat      map[string]latQuantiles `json:"phase_latency,omitempty"`
	// Nodes is the cluster-mode per-node breakdown, merged across
	// clients (histograms via stats.Histogram.Merge).
	Nodes map[string]nodeReport `json:"nodes,omitempty"`
}

// nodeReport is one node's slice of a cluster-mode run.
type nodeReport struct {
	Ops       uint64       `json:"ops"`
	Gets      uint64       `json:"gets"`
	Puts      uint64       `json:"puts"`
	Retries   uint64       `json:"retries"`
	Redirects uint64       `json:"redirects"`
	Lat       latQuantiles `json:"latency"`
}

// nodeAgg accumulates one client's traffic to one node; successful
// request latencies only, matching the top-level histograms.
type nodeAgg struct {
	gets, puts, retries, redirects uint64
	lat                            *stats.Histogram
}

type clientResult struct {
	gets, puts, notFound, overloads, corruptions, errors uint64
	// retries counts 503 attempts that were retried in place rather
	// than charged to the op's outcome; redirects counts followed 421
	// ownership hints (cluster mode).
	retries, redirects uint64
	// nodes is the cluster-mode per-node breakdown, keyed by node id.
	nodes map[string]*nodeAgg
	// getLat/putLat hold successful request latencies only (a miss is
	// a success); overloaded and failed requests land in errLat so
	// backpressure spikes cannot skew the service-time quantiles.
	getLat, putLat, errLat *stats.Histogram

	// Server-side phase breakdown, aggregated from the `timing` field
	// amntd embeds in sampled responses: one histogram per span phase
	// plus the server-observed total.
	timings  uint64
	phaseLat [span.NumPhases]*stats.Histogram
	srvTotal *stats.Histogram
}

// node returns the per-node aggregate for id, creating it on first
// touch. A blank id (single-node mode) aggregates nowhere.
func (res *clientResult) node(id string) *nodeAgg {
	if id == "" {
		return nil
	}
	if res.nodes == nil {
		res.nodes = map[string]*nodeAgg{}
	}
	agg := res.nodes[id]
	if agg == nil {
		agg = &nodeAgg{lat: stats.NewHistogram()}
		res.nodes[id] = agg
	}
	return agg
}

// observeTiming folds one server-reported phase breakdown into the
// client's aggregates. Phases the request never entered report 0 and
// contribute no sample (the zero-sample contract keeps their
// quantiles honest).
func (res *clientResult) observeTiming(raw []byte) {
	var t span.Timing
	if raw == nil || json.Unmarshal(raw, &t) != nil {
		return
	}
	res.timings++
	for p, us := range [span.NumPhases]int64{
		span.QueueWait:     t.QueueWaitUs,
		span.EpochStage:    t.EpochStageUs,
		span.CommitClimb:   t.CommitClimbUs,
		span.Persist:       t.PersistUs,
		span.EpochFallback: t.EpochFallbackUs,
		span.Forward:       t.ForwardUs,
		span.Ack:           t.AckUs,
		span.ReadVerify:    t.ReadVerifyUs,
	} {
		if us > 0 {
			res.phaseLat[p].Observe(uint64(us))
		}
	}
	res.srvTotal.Observe(uint64(t.TotalUs))
}

// retryPolicy is one client's 503-retry behavior: up to max retries
// per op with jittered exponential backoff, honoring the server's
// retry hint when it sends one.
type retryPolicy struct {
	max  int
	base time.Duration
	rng  *rand.Rand
}

// retryHint extracts the server's preferred delay from a 503
// response: the body's retry_after_ms field wins (finer-grained),
// then the Retry-After header (whole seconds).
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

// wait computes the sleep before retry n (1-based): the larger of
// the doubling local base and the server hint, jittered over
// [d/2, 3d/2) so synchronized clients spread out instead of
// stampeding the recovering shard.
func (rp *retryPolicy) wait(n int, hint time.Duration) time.Duration {
	d := rp.base << uint(n-1)
	if hint > d {
		d = hint
	}
	if d <= 0 {
		d = time.Millisecond
	}
	return d/2 + time.Duration(rp.rng.Int63n(int64(d)+1))
}

// attempt is one HTTP try: the response (body already drained and
// closed), the raw body, and the attempt's wall time in
// microseconds.
type attempt struct {
	resp *http.Response
	body []byte
	us   uint64
	err  error
}

// timedDo issues one request, drains the body, and stamps the wall
// time. The caller owns outcome classification.
func timedDo(httpc *http.Client, req *http.Request) attempt {
	t0 := time.Now()
	resp, err := httpc.Do(req)
	if err != nil {
		return attempt{us: uint64(time.Since(t0).Microseconds()), err: err}
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return attempt{resp: resp, body: body, us: uint64(time.Since(t0).Microseconds())}
}

// do runs fn with 503-retry. Only the final attempt is returned for
// outcome accounting; each retried 503 increments res.retries and is
// otherwise invisible — backoff sleeps never land in a latency
// histogram.
func (rp *retryPolicy) do(res *clientResult, fn func() attempt) attempt {
	for n := 1; ; n++ {
		a := fn()
		if a.err != nil || a.resp.StatusCode != http.StatusServiceUnavailable || n > rp.max {
			return a
		}
		res.retries++
		time.Sleep(rp.wait(n, retryHint(a.resp, a.body)))
	}
}

// valueFor derives a key's canonical value: the key stamped little-
// endian into the first 8 bytes, deterministic filler after. Any GET
// response must match this prefix regardless of which PUT it
// observed.
func valueFor(key uint64, n int) []byte {
	v := make([]byte, n)
	binary.LittleEndian.PutUint64(v, key)
	for i := 8; i < n; i++ {
		v[i] = byte(key>>uint(i%8)) ^ byte(i)
	}
	return v
}

// valueIntact reports whether b64, a value_b64 as it came off the
// wire, decodes (into buf's slab) to the canonical value of key.
func valueIntact(buf *wire.Buf, key uint64, b64 []byte) bool {
	v, err := buf.Value(b64)
	return err == nil && bytes.Equal(v, valueFor(key, len(v)))
}

// preloadKeyspace stores valueFor(k) at every key in [0, keyspace),
// untimed, returning how many keys could not be stored after retries.
// Standalone mode loads through POST /v1/batch in 128-key chunks;
// cluster mode PUTs per key through the router (a chunk would span
// owners).
func preloadKeyspace(addr string, router *cluster.Client, keyspace uint64, valueLen, clients int) uint64 {
	if clients < 1 {
		clients = 1
	}
	httpc := &http.Client{Timeout: 30 * time.Second}
	failed := make([]uint64, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := wire.Get()
			defer buf.Release()
			refused := func(o wire.Op) bool { return o.Err != "" }
			// post stores puts at base, retrying until every key is acked.
			post := func(base string, puts []wire.Op) bool {
				buf.Out = wire.AppendRequest(buf.Out[:0], puts, nil)
				for try := 0; try < 8; try++ {
					if try > 0 {
						time.Sleep(time.Duration(try) * 25 * time.Millisecond)
					}
					resp, err := httpc.Post(base+"/v1/batch", "application/json", bytes.NewReader(buf.Out))
					if err != nil {
						continue
					}
					rb, err := buf.ReadBody(resp.Body, 2*wire.MaxBatchBody)
					resp.Body.Close()
					if err == nil && resp.StatusCode == http.StatusOK && buf.Resp.Decode(rb) == nil && !slices.ContainsFunc(buf.Resp.Puts, refused) {
						return true
					}
				}
				return false
			}
			const chunk = 128
			puts := make([]wire.Op, 0, chunk)
			flush := func() {
				if len(puts) > 0 && !post(addr, puts) {
					failed[g] += uint64(len(puts))
				}
				puts = puts[:0]
			}
			for k := uint64(g); k < keyspace; k += uint64(clients) {
				op := wire.Op{Key: k, Value: valueFor(k, valueLen)}
				if router == nil {
					puts = append(puts, op)
					if len(puts) == chunk {
						flush()
					}
					continue
				}
				base := addr
				if _, b, err := router.Route(k); err == nil {
					base = b
				}
				if !post(base, []wire.Op{op}) {
					failed[g]++
				}
			}
			flush()
		}(g)
	}
	wg.Wait()
	var n uint64
	for _, f := range failed {
		n += f
	}
	return n
}

func runClient(addr string, router *cluster.Client, trace *workload.Trace, keyspace uint64, valueLen int, batch int, rp *retryPolicy) clientResult {
	res := clientResult{
		getLat: stats.NewHistogram(), putLat: stats.NewHistogram(),
		errLat: stats.NewHistogram(), srvTotal: stats.NewHistogram(),
	}
	for p := range res.phaseLat {
		res.phaseLat[p] = stats.NewHistogram()
	}
	httpc := &http.Client{Timeout: 10 * time.Second}
	if batch > 1 {
		runBatched(addr, router, trace, keyspace, valueLen, batch, httpc, &res, rp)
		return res
	}
	// route resolves a key to (node id, base URL): the ring owner in
	// cluster mode, the fixed -addr otherwise.
	route := func(key uint64) (string, string) {
		if router != nil {
			if id, base, err := router.Route(key); err == nil {
				return id, base
			}
		}
		return "", addr
	}
	// doKV issues one routed request with 503-retry, charging retried
	// attempts to the serving node. A final 421 (the partition moved
	// mid-run) patches the local ring from the ownership hint and is
	// followed exactly once.
	doKV := func(key uint64, fn func(url string) attempt) (attempt, string) {
		id, base := route(key)
		issue := func(id, base string) attempt {
			before := res.retries
			a := rp.do(&res, func() attempt {
				return fn(fmt.Sprintf("%s/v1/kv/%d", base, key))
			})
			if agg := res.node(id); agg != nil {
				agg.retries += res.retries - before
			}
			return a
		}
		a := issue(id, base)
		if router != nil && a.err == nil && a.resp.StatusCode == http.StatusMisdirectedRequest {
			var h cluster.OwnershipHint
			if json.Unmarshal(a.body, &h) == nil && h.OwnerAddr != "" {
				router.Hint(h)
				res.redirects++
				if agg := res.node(id); agg != nil {
					agg.redirects++
				}
				if rid, raddr, err := router.Route(key); err == nil {
					id, base = rid, raddr
				} else {
					id, base = h.Owner, h.OwnerAddr
				}
				a = issue(id, base)
			}
		}
		return a, id
	}
	var kv wire.KV
	for {
		acc, ok := trace.Next()
		if !ok {
			break
		}
		key := (acc.VAddr / 64) % keyspace
		method, count, lat := http.MethodGet, &res.gets, res.getLat
		if acc.Write {
			method, count, lat = http.MethodPut, &res.puts, res.putLat
		}
		a, nid := doKV(key, func(url string) attempt {
			var body io.Reader
			if acc.Write {
				body = bytes.NewReader(valueFor(key, valueLen))
			}
			req, _ := http.NewRequest(method, url, body)
			return timedDo(httpc, req)
		})
		*count++
		status := 0 // a transport error
		if a.err == nil {
			status = a.resp.StatusCode
		}
		// A miss is a valid answer: success latency, not error.
		miss := !acc.Write && status == http.StatusNotFound
		switch {
		case miss:
			res.notFound++
		case status == http.StatusServiceUnavailable:
			res.overloads++
		case status/100 != 2:
			res.errors++
		}
		if status/100 != 2 && !miss {
			res.errLat.Observe(a.us)
			continue
		}
		lat.Observe(a.us)
		if agg := res.node(nid); agg != nil {
			if acc.Write {
				agg.puts++
			} else {
				agg.gets++
			}
			agg.lat.Observe(a.us)
		}
		if miss {
			continue
		}
		if err := kv.Decode(a.body); err != nil {
			if !acc.Write {
				res.errors++
			}
			continue
		}
		res.observeTiming(kv.Timing)
		if !acc.Write {
			buf := wire.Get()
			if !valueIntact(buf, key, kv.B64) {
				res.corruptions++
			}
			buf.Release()
		}
	}
	return res
}

// runBatched replays the trace through POST /v1/batch, `batch` ops
// per request. Per-key outcomes come back in place with HTTP 200, so
// errors are classified by their message: backpressure (including a
// migration write fence or an adoption in flight) counts as an
// overload, a missing key as not-found, anything else as an error.
// In cluster mode ops are bucketed per owning node — one batch never
// spans nodes — and a per-key not-owned answer refreshes the local
// ring from that node before the next bucket fills.
func runBatched(addr string, router *cluster.Client, trace *workload.Trace, keyspace uint64, valueLen int, batch int, httpc *http.Client, res *clientResult, rp *retryPolicy) {
	type bucket struct {
		id, base string
		puts     []wire.Op
		gets     []uint64
	}
	var out wire.Response
	buckets := map[string]*bucket{}
	bucketFor := func(key uint64) *bucket {
		id, base := "", addr
		if router != nil {
			if rid, raddr, err := router.Route(key); err == nil {
				id, base = rid, raddr
			}
		}
		b := buckets[id]
		if b == nil {
			b = &bucket{id: id, base: base}
			buckets[id] = b
		}
		b.base = base
		return b
	}
	flush := func(b *bucket) {
		if len(b.puts)+len(b.gets) == 0 {
			return
		}
		nOps := len(b.puts) + len(b.gets)
		body := wire.AppendRequest(nil, b.puts, b.gets)
		agg := res.node(b.id)
		before := res.retries
		a := rp.do(res, func() attempt {
			req, _ := http.NewRequest(http.MethodPost, b.base+"/v1/batch", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			return timedDo(httpc, req)
		})
		if agg != nil {
			agg.retries += res.retries - before
		}
		res.puts += uint64(len(b.puts))
		res.gets += uint64(len(b.gets))
		defer func() { b.puts, b.gets = b.puts[:0], b.gets[:0] }()
		// Every op in the group is charged the batch round-trip
		// latency; a failed round trip charges them all to errLat.
		observeAll := func(h *stats.Histogram, n int) {
			for i := 0; i < n; i++ {
				h.Observe(a.us)
			}
		}
		if a.err != nil {
			res.errors += uint64(nOps)
			observeAll(res.errLat, nOps)
			return
		}
		if a.resp.StatusCode != http.StatusOK {
			if a.resp.StatusCode == http.StatusServiceUnavailable {
				res.overloads += uint64(nOps)
			} else {
				res.errors += uint64(nOps)
			}
			observeAll(res.errLat, nOps)
			return
		}
		observeAll(res.putLat, len(b.puts))
		observeAll(res.getLat, len(b.gets))
		if agg != nil {
			agg.puts += uint64(len(b.puts))
			agg.gets += uint64(len(b.gets))
			observeAll(agg.lat, nOps)
		}
		if err := out.Decode(a.body); err != nil {
			res.errors += uint64(nOps)
			return
		}
		res.observeTiming(out.Timing)
		stale := false
		classify := func(msg string) {
			switch {
			case strings.Contains(msg, "not owned"):
				// The partition moved mid-run: retryable, and worth a
				// ring refresh from the node that bounced us.
				res.overloads++
				stale = true
			case strings.Contains(msg, "queue full"),
				strings.Contains(msg, "recovering"),
				strings.Contains(msg, "shard failed"),
				strings.Contains(msg, "fenced"),
				strings.Contains(msg, "adopt"),
				strings.Contains(msg, "down"):
				// Per-key retryable outcomes inside a 200 batch: counted
				// like backpressure, not hard errors.
				res.overloads++
			case strings.Contains(msg, "not found"):
				res.notFound++
			default:
				res.errors++
			}
		}
		for _, p := range out.Puts {
			if p.Err != "" {
				classify(p.Err)
			}
		}
		buf := wire.Get()
		defer buf.Release()
		for _, g := range out.Gets {
			if g.Err != "" {
				classify(g.Err)
			} else if !valueIntact(buf, g.Key, g.B64) {
				res.corruptions++
			}
		}
		if stale && router != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if ok, _ := router.Refresh(ctx, httpc, b.base); ok {
				res.redirects++
				if agg != nil {
					agg.redirects++
				}
			}
			cancel()
		}
	}
	for {
		acc, ok := trace.Next()
		if !ok {
			break
		}
		key := (acc.VAddr / 64) % keyspace
		b := bucketFor(key)
		if acc.Write {
			b.puts = append(b.puts, wire.Op{Key: key, Value: valueFor(key, valueLen)})
		} else {
			b.gets = append(b.gets, key)
		}
		if len(b.puts)+len(b.gets) == batch {
			flush(b)
		}
	}
	for _, b := range buckets {
		flush(b)
	}
}
