// Command ladder measures each rung of the stack in-process — cme,
// bmt, mee, store, node, cluster routing, one simulator cell — by
// timing calls into the layers' public functions with the same
// generated trace the end-to-end driver sends over HTTP. It is a
// separate binary from the end-to-end driver on purpose: it is the
// only part of the benchmark that imports amnt/internal/..., so an
// internal API move can break these probes but never the end-to-end
// numbers. It prints one JSON object, metric name to value.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"amnt/bench/gen"
	"amnt/internal/bmt"
	"amnt/internal/cluster"
	"amnt/internal/cme"
	_ "amnt/internal/core" // registers the AMNT protocol family
	"amnt/internal/mee"
	"amnt/internal/node"
	"amnt/internal/scm"
	"amnt/internal/sim"
	"amnt/internal/store"
	"amnt/internal/telemetry/span"
	"amnt/internal/workload"
)

// shape is the workload the rungs are parameterised by: the trace and
// the server configuration it is sent to.
type shape struct {
	seed        int64
	mix         gen.Mix
	clients     int
	batch       int
	ops         int
	shards      int
	shardMB     int
	protocol    string
	crashMB     int
	crashLeaves int
	simScale    float64
	budget      time.Duration
}

func main() {
	var s shape
	flag.Int64Var(&s.seed, "seed", 1, "trace seed")
	flag.Uint64Var(&s.mix.Keys, "keys", 16384, "keys in the trace")
	flag.Float64Var(&s.mix.PutShare, "put-share", 0.5, "fraction of puts")
	flag.BoolVar(&s.mix.Zipf, "zipf", true, "zipfian key popularity")
	flag.IntVar(&s.clients, "clients", 2, "clients whose streams are interleaved")
	flag.IntVar(&s.batch, "batch", 1, "key operations per request")
	flag.IntVar(&s.ops, "ops", 100000, "key operations in the replayed trace")
	flag.IntVar(&s.shards, "shards", 4, "store shards")
	flag.IntVar(&s.shardMB, "shard-mem-mb", 4, "SCM capacity per shard, MiB")
	flag.StringVar(&s.protocol, "protocol", "amnt", "persistence protocol")
	flag.IntVar(&s.crashMB, "crash-mem-mb", 32, "shard capacity of the recovery probes, MiB")
	flag.IntVar(&s.crashLeaves, "crash-leaves", 8192, "populated counter leaves of the recovery probes")
	flag.Float64Var(&s.simScale, "sim-scale", 1, "trace length multiplier of the simulator cell")
	flag.DurationVar(&s.budget, "budget", 150*time.Millisecond, "time spent per timed probe")
	flag.Parse()

	out := map[string]float64{}
	if err := s.run(out); err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// request is one request of the trace: up to batch key operations
// from one client's stream.
type request []gen.Op

// trace interleaves the clients' streams request by request, the
// order a server would see them from closed-loop clients of equal
// speed.
func (s shape) trace() []request {
	streams := make([]*gen.Stream, s.clients)
	for id := range streams {
		streams[id] = gen.NewStream(s.seed, s.mix, s.clients, id)
	}
	var reqs []request
	for n := 0; n < s.ops; {
		st := streams[len(reqs)%s.clients]
		r := make(request, 0, s.batch)
		for len(r) < s.batch {
			r = append(r, st.Next())
		}
		reqs = append(reqs, r)
		n += len(r)
	}
	return reqs
}

func (s shape) run(out map[string]float64) error {
	reqs := s.trace()
	// The keys the trace puts and gets, in order. A read-only trace
	// still needs keys to time the write rungs on, and the reverse.
	var puts, gets []uint64
	for _, r := range reqs {
		for _, op := range r {
			if op.Put {
				puts = append(puts, op.Key)
			} else {
				gets = append(gets, op.Key)
			}
		}
	}
	if len(puts) == 0 {
		puts = gets
	}
	if len(gets) == 0 {
		gets = puts
	}
	s.cmeProbes(out)
	if err := s.recoveryProbes(out); err != nil {
		return err
	}
	if err := s.meeProbes(out, reqs, puts, gets); err != nil {
		return err
	}
	if err := s.storeAndNodeProbes(out, reqs, puts, gets); err != nil {
		return err
	}
	s.routeProbe(out)
	return s.simProbe(out)
}

// perCall runs fn in chunks until the budget is spent (at least five
// chunks) and returns the median chunk's nanoseconds per call, so one
// descheduled chunk does not move the result.
func (s shape) perCall(chunk int, fn func(i int)) float64 {
	var per []float64
	deadline := time.Now().Add(s.budget)
	for i := 0; len(per) < 5 || time.Now().Before(deadline); {
		t0 := time.Now()
		for j := 0; j < chunk; j++ {
			fn(i)
			i++
		}
		per = append(per, float64(time.Since(t0))/float64(chunk))
	}
	return median(per)
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	if n := len(xs); n%2 == 1 {
		return xs[n/2]
	} else if n > 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return 0
}

var sink uint64

func (s shape) cmeProbes(out map[string]float64) {
	eng := cme.NewEngine(cme.Fast{}, mee.DefaultConfig().Key)
	var blk, dst [cme.BlockSize]byte
	for i := range blk {
		blk[i] = byte(i)
	}
	out["cme.mac_ns"] = s.perCall(4096, func(i int) { sink += eng.MAC(uint64(i)*64, uint64(i), 1, blk[:]) })
	out["cme.encrypt_ns"] = s.perCall(4096, func(i int) { eng.Encrypt(uint64(i)*64, uint64(i), 1, dst[:], blk[:]) })
	out["cme.nodehash_ns"] = s.perCall(4096, func(i int) { sink += eng.NodeHash(3, uint64(i), blk[:]) })
}

// controller builds a bare secure-memory controller of the given
// capacity under the named protocol, as one store shard holds.
func controller(protocol string, capacity uint64) (*mee.Controller, error) {
	policy, err := mee.NewPolicy(protocol, mee.PolicyOptions{SubtreeLevel: 3})
	if err != nil {
		return nil, err
	}
	return mee.New(scm.New(scm.Config{CapacityBytes: capacity}), mee.Config{}, policy), nil
}

// blocksPerLeaf is how many data blocks one counter leaf covers (a
// 4 KiB page of 64 B blocks).
const blocksPerLeaf = 4096 / scm.BlockSize

// recoveryProbes measure the crash-recover geometry in-process: a
// serial whole-tree rebuild per populated leaf, and Crash+Recover
// under the three protocols of the paper's recovery contrast, each
// after a 128-write burst like the one the end-to-end cycle crashes.
func (s shape) recoveryProbes(out map[string]float64) error {
	var blk [scm.BlockSize]byte
	for _, protocol := range []string{"leaf", "amnt", "strict"} {
		c, err := controller(protocol, uint64(s.crashMB)<<20)
		if err != nil {
			return err
		}
		var now uint64
		write := func(b uint64) error {
			blk[0]++
			cycles, err := c.WriteBlock(now, b, blk[:])
			now += cycles
			return err
		}
		for leaf := 0; leaf < s.crashLeaves; leaf++ {
			if err := write(uint64(leaf) * blocksPerLeaf); err != nil {
				return fmt.Errorf("populate %s: %w", protocol, err)
			}
		}
		now += c.Flush(now)
		if protocol == "leaf" {
			var per []float64
			for i := 0; i < 5; i++ {
				t0 := time.Now()
				res := bmt.RebuildWith(c.Device(), c.Engine(), c.Geometry(), 1, 0, bmt.RebuildOptions{})
				if res.CounterReads == 0 {
					return fmt.Errorf("rebuild read no counter leaves")
				}
				per = append(per, float64(time.Since(t0))/float64(res.CounterReads))
			}
			out["bmt.rebuild_ns_per_leaf"] = median(per)
		}
		var ms []float64
		for i := 0; i < 5; i++ {
			for j := 0; j < 128; j++ {
				if err := write(uint64((i*128+j)%s.crashLeaves)*blocksPerLeaf + 1); err != nil {
					return fmt.Errorf("burst %s: %w", protocol, err)
				}
			}
			c.Crash()
			t0 := time.Now()
			rep, err := c.Recover(now)
			if err != nil {
				return fmt.Errorf("recover %s: %w", protocol, err)
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
			now += rep.Cycles
		}
		out["mee.recover_ms."+protocol] = median(ms)
	}
	return nil
}

// meeProbes replay the trace through one bare controller sized like a
// shard, block = key / shards, so it sees one shard's working-set
// density: the per-op timed path, the group-commit epoch, the
// concurrent read view, and the metadata cache's hit rate over the
// trace on the serialized path.
func (s shape) meeProbes(out map[string]float64, reqs []request, puts, gets []uint64) error {
	c, err := controller(s.protocol, uint64(s.shardMB)<<20)
	if err != nil {
		return err
	}
	var now uint64
	var blk [scm.BlockSize]byte
	block := func(key uint64) uint64 { return key / uint64(s.shards) }
	for k := uint64(0); k < s.mix.Keys; k += uint64(s.shards) {
		cycles, err := c.WriteBlock(now, block(k), blk[:])
		if err != nil {
			return fmt.Errorf("mee preload: %w", err)
		}
		now += cycles
	}
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	out["mee.write_ns"] = s.perCall(512, func(i int) {
		blk[1]++
		cycles, err := c.WriteBlock(now, block(puts[i%len(puts)]), blk[:])
		now += cycles
		note(err)
	})
	out["mee.read_ns"] = s.perCall(512, func(i int) {
		cycles, err := c.ReadBlock(now, block(gets[i%len(gets)]), blk[:])
		now += cycles
		note(err)
	})
	epoch := 128
	if s.batch > 1 {
		epoch = s.batch
	}
	out["mee.epoch_ns_per_op"] = s.perCall(4, func(i int) {
		ep := c.BeginEpoch(now)
		for j := 0; j < epoch; j++ {
			blk[1]++
			note(ep.Put(block(puts[(i*epoch+j)%len(puts)]), blk[:]))
		}
		res, err := ep.Commit()
		now += res.Cycles
		note(err)
	}) / float64(epoch)
	if c.ConcurrentReadsSupported() {
		out["mee.read_view_ns"] = s.perCall(512, func(i int) {
			_, err := c.ReadBlockConcurrent(block(gets[i%len(gets)]), blk[:])
			note(err)
		})
	}
	// Hit rate: the whole trace once more, puts as epochs of the
	// request's size (one write at a time for per-op requests), gets
	// on the timed path, counted from a clean slate.
	c.MetaCache().ResetStats()
	for _, r := range reqs {
		ep := c.BeginEpoch(now)
		for _, op := range r {
			if op.Put {
				blk[1]++
				note(ep.Put(block(op.Key), blk[:]))
			}
		}
		res, err := ep.Commit()
		now += res.Cycles
		note(err)
		for _, op := range r {
			if !op.Put {
				cycles, err := c.ReadBlock(now, block(op.Key), blk[:])
				now += cycles
				note(err)
			}
		}
	}
	out["cache.meta_hit_rate"] = c.MetaCache().HitRate()
	return failed
}

// storeAndNodeProbes replay the trace through an in-process store
// configured as amntd configures it, first by direct calls (through
// the shard queue, no HTTP), then through the node's mux into a
// response recorder (HTTP handling and JSON, no socket).
func (s shape) storeAndNodeProbes(out map[string]float64, reqs []request, puts, gets []uint64) error {
	st, err := store.Open(store.Config{
		Shards: s.shards, ShardMemBytes: uint64(s.shardMB) << 20, Protocol: s.protocol,
		QueueDepth: 64, BatchMax: 16, ReadConcurrency: 4,
		PolicyOptions: mee.PolicyOptions{SubtreeLevel: 3},
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	defer st.Close(ctx)

	version := map[uint64]uint64{}
	next := func(key uint64) uint64 { version[key]++; return version[key] }
	kvs := make([]store.KV, 0, 128)
	for k := uint64(0); k < s.mix.Keys; k++ {
		kvs = append(kvs, store.KV{Key: k, Value: gen.Value(k, next(k))})
		if len(kvs) == cap(kvs) || k == s.mix.Keys-1 {
			for _, err := range st.PutBatch(ctx, kvs) {
				if err != nil {
					return fmt.Errorf("store preload: %w", err)
				}
			}
			kvs = kvs[:0]
		}
	}
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	val := gen.Value(0, 0)
	out["store.put_ns"] = s.perCall(256, func(i int) {
		k := puts[i%len(puts)]
		note(st.Put(ctx, k, gen.AppendValue(val[:0], k, next(k))))
	})
	out["store.get_ns"] = s.perCall(256, func(i int) {
		_, err := st.Get(ctx, gets[i%len(gets)])
		note(err)
	})
	width := 128
	if s.batch > 1 {
		width = s.batch
	}
	out["store.putbatch_ns_per_key"] = s.perCall(4, func(i int) {
		kvs = kvs[:0]
		for j := 0; j < width; j++ {
			k := puts[(i*width+j)%len(puts)]
			kvs = append(kvs, store.KV{Key: k, Value: gen.Value(k, next(k))})
		}
		for _, err := range st.PutBatch(ctx, kvs) {
			note(err)
		}
	}) / float64(width)
	keys := make([]uint64, width)
	out["store.getbatch_ns_per_key"] = s.perCall(4, func(i int) {
		for j := range keys {
			keys[j] = gets[(i*width+j)%len(gets)]
		}
		_, errs := st.GetBatch(ctx, keys)
		for _, err := range errs {
			note(err)
		}
	}) / float64(width)
	if failed != nil {
		return failed
	}

	// The node rung: the same store behind the real mux, spans off as
	// in an end-to-end run.
	mux := http.NewServeMux()
	node.New(st, span.New(span.Config{SampleEvery: 0, Shards: st.Shards()}), node.Options{}).Mount(mux)
	serve := func(method, url string, body []byte) {
		var rd io.Reader // a nil *bytes.Reader would not be a nil body
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, url, rd)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && failed == nil {
			failed = fmt.Errorf("%s %s: status %d: %.200s", method, url, rec.Code, rec.Body.String())
		}
	}
	kvURL := func(k uint64) string { return "/v1/kv/" + strconv.FormatUint(k, 10) }
	out["node.kv_get_handler_ns"] = s.perCall(256, func(i int) {
		serve(http.MethodGet, kvURL(gets[i%len(gets)]), nil)
	})
	out["node.kv_put_handler_ns"] = s.perCall(256, func(i int) {
		k := puts[i%len(puts)]
		serve(http.MethodPut, kvURL(k), gen.AppendValue(val[:0], k, next(k)))
	})
	var wire gen.Batch
	bodyOf := func(r request) []byte {
		wire.Reset()
		for _, op := range r {
			if op.Put {
				wire.Put(op.Key, next(op.Key))
			} else {
				wire.Get(op.Key)
			}
		}
		return wire.Body()
	}
	batchReqs := reqs
	if s.batch == 1 { // per-op trace: time the batch handler on 128-op groups of it
		batchReqs = nil
		for i := 0; i+128 <= len(reqs); i += 128 {
			var r request
			for _, one := range reqs[i : i+128] {
				r = append(r, one...)
			}
			batchReqs = append(batchReqs, r)
		}
	}
	if len(batchReqs) > 0 {
		out["node.batch_handler_ns_per_key"] = s.perCall(4, func(i int) {
			serve(http.MethodPost, "/v1/batch", bodyOf(batchReqs[i%len(batchReqs)]))
		}) / float64(len(batchReqs[0]))
	}
	// Allocations per key operation of the workload's own request kind.
	var before, after runtime.MemStats
	n, opsDone := 0, 0
	runtime.ReadMemStats(&before)
	for deadline := time.Now().Add(s.budget); time.Now().Before(deadline); n++ {
		r := reqs[n%len(reqs)]
		if s.batch > 1 {
			serve(http.MethodPost, "/v1/batch", bodyOf(r))
		} else if r[0].Put {
			serve(http.MethodPut, kvURL(r[0].Key), gen.AppendValue(val[:0], r[0].Key, next(r[0].Key)))
		} else {
			serve(http.MethodGet, kvURL(r[0].Key), nil)
		}
		opsDone += len(r)
	}
	runtime.ReadMemStats(&after)
	if opsDone > 0 {
		out["node.handler_allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(opsDone)
	}
	return failed
}

// routeProbe times the client-side ring lookup of the two-node,
// eight-partition cluster proxy-batch runs.
func (s shape) routeProbe(out map[string]float64) {
	members, err := cluster.ParseMembers("n1=http://127.0.0.1:1,n2=http://127.0.0.1:2")
	if err != nil {
		return
	}
	cl := cluster.NewClient(cluster.InitialState(8, 0, members))
	out["cluster.route_ns"] = s.perCall(4096, func(i int) {
		if _, _, err := cl.Route(uint64(i)); err == nil {
			sink++
		}
	})
}

// simProbe runs one Figure-4 cell, canneal under amnt, and reports
// host nanoseconds per simulated memory access.
func (s shape) simProbe(out map[string]float64) error {
	spec, ok := workload.ByName("canneal")
	if !ok {
		return fmt.Errorf("no canneal workload")
	}
	policy, err := sim.PolicyByName("amnt", 3)
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = s.seed
	t0 := time.Now()
	res, err := sim.Run(cfg, policy, spec.Scale(s.simScale))
	if err != nil {
		return err
	}
	if res.Accesses > 0 {
		out["sim.ns_per_access"] = float64(time.Since(t0)) / float64(res.Accesses)
	}
	return nil
}
