package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"amnt/bench/gen"
)

// Window is the measured window of every serving workload and of
// crash-recover, in seconds, when the caller gives none. It is the one
// constant to scale if the whole set must fit a tighter wall-clock
// cap; the serving workloads were sized at no less than 10 s.
const Window = 10.0

// Sizes are the scale knobs that differ between a full run and the
// smoke test; everything else about a workload is fixed.
type Sizes struct {
	Window      float64 // measured seconds
	WarmUp      float64 // seconds of unmeasured load before the window
	TracedOps   int     // key operations replayed by a traced run
	TracedCycle int     // crash-recover cycles replayed by a traced run
	CrashKeys   uint64  // crash-recover preloaded keys
	ReadKeys    uint64  // batch-read preloaded keys
	SimScale    string  // amntbench -scale
	NullRTTs    int     // round trips per request class against the null handler
}

// FullSizes are the sizes the declared metrics are defined at.
func FullSizes(window float64) Sizes {
	if window <= 0 {
		window = Window
	}
	return Sizes{
		Window: window, WarmUp: 2, TracedOps: 100_000, TracedCycle: 200,
		CrashKeys: 1 << 20, ReadKeys: 262_144, SimScale: "1", NullRTTs: 2000,
	}
}

// SmokeSizes keep a whole set of runs within a few seconds.
func SmokeSizes() Sizes {
	return Sizes{
		Window: 0.5, WarmUp: 0.1, TracedOps: 2000, TracedCycle: 5,
		CrashKeys: 4096, ReadKeys: 16_384, SimScale: "0.05", NullRTTs: 100,
	}
}

type kind int

const (
	serving kind = iota
	crashRecover
	simulator
)

// Workload is one declared workload: its name, the reason it exists,
// and the fixed shape of its servers and traffic.
type Workload struct {
	Name string
	Why  string

	kind    kind
	clients int
	batch   int // key operations per request; 1 is one GET or PUT per operation
	setups  int // set-ups timed per run; setup_s is their median
	mix     func(Sizes) gen.Mix

	// Server shape. proxy puts two amntd nodes behind amntproxy and
	// splits the keyspace over partitions; otherwise one amntd hosts
	// shards.
	proxy      bool
	shards     int
	partitions int
	shardMB    int
	protocol   string
}

// serverArgs are the amntd flags that fix the workload's store shape;
// with proxy they are also amntproxy's.
func (w Workload) serverArgs() []string {
	if w.proxy {
		return []string{"-partitions", strconv.Itoa(w.partitions)}
	}
	return []string{"-shards", strconv.Itoa(w.shards), "-shard-mem-mb", strconv.Itoa(w.shardMB), "-protocol", w.protocol}
}

const mixedKeys = 16_384

func ycsbA(Sizes) gen.Mix { return gen.Mix{Keys: mixedKeys, PutShare: 0.5, Zipf: true} }

// Workloads are the six declared workloads, in the order they run.
// The host the benchmark was sized on has two cores: single-node
// workloads use two clients, and the proxied and scripted ones use
// one, because they already run four processes or are serial by
// construction.
var Workloads = []Workload{
	{
		Name: "perop-mixed",
		Why:  "YCSB-A one GET|PUT per op: HTTP, JSON and connection handling do nearly all the work and the engine almost none; get and put latency are separable",
		kind: serving, clients: 2, batch: 1, setups: 5, mix: ycsbA,
		shards: 4, shardMB: 4, protocol: "amnt",
	},
	{
		Name: "batch-mixed",
		Why:  "same trace, 128 ops per /v1/batch: group-commit epochs, BMT climb, persist and shard queue do real work; working set fits the metadata cache; reads share shards with writers",
		kind: serving, clients: 2, batch: 128, setups: 5, mix: ycsbA,
		shards: 4, shardMB: 4, protocol: "amnt",
	},
	{
		Name: "batch-read",
		Why:  "100% uniform gets over 262144 keys (9x the metadata cache), 128 per batch: read view, reader pool and verify chain with device fetches, write path idle",
		kind: serving, clients: 2, batch: 128, setups: 3,
		mix:    func(s Sizes) gen.Mix { return gen.Mix{Keys: s.ReadKeys} },
		shards: 4, shardMB: 4, protocol: "amnt",
	},
	{
		Name: "proxy-batch",
		Why:  "two amntd nodes behind amntproxy, YCSB-A, 32 ops per batch, 1 client: the only workload with cluster route, fan-out, merge and forward on the path",
		kind: serving, clients: 1, batch: 32, setups: 5, mix: ycsbA,
		proxy: true, partitions: 8, shardMB: 4, protocol: "amnt",
	},
	{
		Name: "crash-recover",
		Why:  "leaf protocol, 2^20 keys: acked 128-put batch, crash, first get, flush barrier, read back; the recovery half of the paper's trade and the durability check",
		kind: crashRecover, clients: 1, batch: 128, setups: 1,
		mix:    func(s Sizes) gen.Mix { return gen.Mix{Keys: s.CrashKeys} },
		shards: 2, shardMB: 32, protocol: "leaf",
	},
	{
		Name: "sim-fig4",
		Why:  "amntbench -fig 4 -scale 1 -parallel 2: the paper reproduction; mee's per-op cycle-accurate path, cache, cpu, workload and the experiments engine, no store or HTTP",
		kind: simulator, setups: 3,
	},
}

// ByName finds a declared workload.
func ByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// topology is one workload's running servers: the URL clients talk
// to and the amntd nodes whose counters are scraped.
type topology struct {
	entry string
	nodes []*Proc
	all   []*Proc
}

func (t *topology) stop() {
	for _, p := range t.all {
		p.Stop()
	}
}

// startServers boots the workload's servers with the given span
// sampling and waits until each is healthy. Only the stable flag
// surface is used: -addr -shards -shard-mem-mb -protocol -span-sample
// -node-id -cluster-nodes -partitions -checkpoint-dir.
func (e *Env) startServers(ctx context.Context, w Workload, spanSample int) (*topology, error) {
	sample := strconv.Itoa(spanSample)
	t := &topology{}
	if !w.proxy {
		addr, err := FreeAddr()
		if err != nil {
			return nil, err
		}
		p, err := e.Start(ctx, "amntd", "amntd", addr, append([]string{"-span-sample", sample}, w.serverArgs()...)...)
		if err != nil {
			return nil, err
		}
		t.entry, t.nodes, t.all = p.URL(), []*Proc{p}, []*Proc{p}
		return t, nil
	}
	ckpt, err := e.TempDir("ckpt")
	if err != nil {
		return nil, err
	}
	addrs := make([]string, 3)
	for i := range addrs {
		if addrs[i], err = FreeAddr(); err != nil {
			return nil, err
		}
	}
	members := "n1=http://" + addrs[0] + ",n2=http://" + addrs[1]
	for i, id := range []string{"n1", "n2"} {
		args := append([]string{"-span-sample", sample, "-node-id", id,
			"-cluster-nodes", members, "-checkpoint-dir", ckpt}, w.serverArgs()...)
		p, err := e.Start(ctx, "amntd-"+id, "amntd", addrs[i], args...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.nodes = append(t.nodes, p)
		t.all = append(t.all, p)
	}
	px, err := e.Start(ctx, "amntproxy", "amntproxy", addrs[2],
		append([]string{"-span-sample", sample, "-cluster-nodes", members}, w.serverArgs()...)...)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.entry = px.URL()
	t.all = append(t.all, px)
	return t, nil
}

// counters are one scrape of /v1/store/stats: every numeric per-shard
// field summed over shards and nodes under its JSON name (the
// benchmark depends on the wire names only), plus each shard's
// recoveries in scrape order.
type counters struct {
	sum        map[string]float64
	recoveries []float64
}

// n is the summed counter with the given JSON name.
func (c counters) n(name string) float64 { return c.sum[name] }

func (t *topology) scrape() (counters, error) {
	c := counters{sum: map[string]float64{}}
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, n := range t.nodes {
		resp, err := hc.Get(n.URL() + "/v1/store/stats")
		if err != nil {
			return c, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return c, fmt.Errorf("GET /v1/store/stats on %s: status %d: %v", n.Name, resp.StatusCode, err)
		}
		var snap struct {
			Shards []map[string]any `json:"shards"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			return c, fmt.Errorf("decode /v1/store/stats: %w", err)
		}
		for _, shard := range snap.Shards {
			for name, v := range shard {
				if f, ok := v.(float64); ok {
					c.sum[name] += f
				}
			}
			rec, _ := shard["recoveries"].(float64)
			c.recoveries = append(c.recoveries, rec)
		}
	}
	return c, nil
}

// minus returns the counters accumulated since before, a scrape of
// the same servers.
func (c counters) minus(before counters) counters {
	d := counters{sum: map[string]float64{}, recoveries: append([]float64(nil), c.recoveries...)}
	for name, v := range c.sum {
		d.sum[name] = v - before.sum[name]
	}
	for i := range d.recoveries {
		if i < len(before.recoveries) {
			d.recoveries[i] -= before.recoveries[i]
		}
	}
	return d
}

// session is a workload's servers plus the clients whose models
// describe what those servers hold.
type session struct {
	w       Workload
	topo    *topology
	clients []*client
}

func (s *session) stop() {
	for _, c := range s.clients {
		c.close()
	}
	s.topo.stop()
}

// setUp boots the workload's servers and preloads every key, each
// client loading its own slice so its model is exact from the start.
// A failed preload operation fails the set-up.
func (e *Env) setUp(ctx context.Context, w Workload, sz Sizes, seed int64, spanSample int, tr *tracer) (*session, error) {
	topo, err := e.startServers(ctx, w, spanSample)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, topo: topo}
	mix := w.mix(sz)
	for id := 0; id < w.clients; id++ {
		// The preload is never traced; the tracer is attached after it.
		s.clients = append(s.clients, newClient(id, topo.entry, gen.NewStream(seed, mix, w.clients, id), nil))
	}
	s.each(func(c *client) { c.preload() })
	var total tally
	for _, c := range s.clients {
		total.add(c.tally)
		c.resetMeasurements()
		c.tr = tr
	}
	if total.Failed > 0 {
		s.stop()
		return nil, fmt.Errorf("%s: preload: %d of %d puts failed: %s", w.Name, total.Failed, total.Attempted, total.firstErr)
	}
	return s, nil
}

// each runs fn once per client, concurrently, and waits for all.
func (s *session) each(fn func(*client)) {
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// limit says when a client's loop ends: at a deadline, after a number
// of key operations, or when the run is cancelled.
type limit struct {
	ctx      context.Context
	deadline time.Time // zero: no deadline
	ops      uint64    // zero: no operation limit (per client)
}

func (l limit) reached(done uint64) bool {
	if l.ctx.Err() != nil {
		return true
	}
	if l.ops > 0 && done >= l.ops {
		return true
	}
	return !l.deadline.IsZero() && !time.Now().Before(l.deadline)
}

// drive runs every client's closed loop until the limit and returns
// the wall time from the common start to the last client's finish.
func (s *session) drive(l limit) time.Duration {
	start := time.Now()
	s.each(func(c *client) {
		if s.w.kind == crashRecover {
			c.crashLoop(l)
			return
		}
		c.serveLoop(l, s.w.batch)
	})
	return time.Since(start)
}

// serveLoop is the serving workloads' closed loop: the next request
// is sent only after the previous reply was checked.
func (c *client) serveLoop(l limit, batch int) {
	begin := c.Attempted
	ops := make([]gen.Op, 0, batch)
	for !l.reached(c.Attempted - begin) {
		if batch == 1 {
			if op := c.stream.Next(); op.Put {
				c.putOne(op.Key)
			} else {
				c.getOne(op.Key)
			}
			continue
		}
		ops = ops[:0]
		for len(ops) < batch {
			ops = append(ops, c.stream.Next())
		}
		c.batchOps(ops)
	}
}
