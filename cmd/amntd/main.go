// Command amntd serves the sharded secure-SCM store over HTTP: a
// JSON key/value API in front of internal/store, the telemetry
// introspection endpoints (/metrics, /vars, /debug/pprof/), and a
// live chaos endpoint that injects a fault-laden power failure into
// one shard while the rest keep serving. The HTTP surface itself
// lives in internal/node; this binary is flags + lifecycle.
//
// Every shard counter is declared once, in the store's counter table;
// /v1/store/stats, /v1/health, /metrics and /vars are all derived
// from it. /metrics and /vars read the counters afresh on every
// scrape.
//
// API (everything under /v1; the data-path bodies of /v1/kv and
// /v1/batch are internal/wire's compact JSON):
//
//	PUT  /v1/kv/{key}      store the raw request body (≤ 63 bytes)
//	GET  /v1/kv/{key}      -> {"key":..,"value_b64":..}
//	POST /v1/batch         {"puts":[{"key":..,"value_b64":..}],"gets":[..]}
//	                       one group-commit round trip; per-key results
//	POST /v1/flush         global persist barrier
//	POST /v1/checkpoint    persist shard images to -checkpoint-dir
//	POST /v1/recover       power-cycle every shard (crash + recover + verify)
//	POST /v1/chaos?shard=0&kind=torn&seed=1   fault-injected power failure
//	POST /v1/quarantine?shard=0               force a shard into the heal loop
//	GET  /v1/store/stats   per-shard state and counters, plus aggregates
//	GET  /v1/health        overall status plus the same per-shard
//	                       entries as /v1/store/stats; 503 while any
//	                       shard is quarantined; in cluster mode
//	                       includes the node identity block
//	POST /v1/migrate/*     live partition hand-off surface (see internal/node)
//	GET  /v1/ring          cached ring state (cluster mode)
//
// Cluster mode: -node-id, -advertise, and -cluster-nodes place this
// daemon in a multi-node ring. Every node derives the identical
// initial partition placement from the shared member list, hosts
// only its owned partitions, and answers 421 Misdirected Request
// (with an ownership hint) for keys it does not host.
//
// Degraded serving: shards recover online, so requests keep flowing
// while a tree rebuild is in flight; the rebuild step, the heal
// backoff cap and the heal attempt bound take the store's defaults.
// When a request cannot be served the daemon answers 503 with a
// machine-readable reason —
// {"reason":"overloaded"|"recovering"|"failed"|"fenced",
// "retry_after_ms":..} — plus a Retry-After header, so clients back
// off instead of treating the condition as a hard failure.
//
// Shutdown (SIGINT/SIGTERM) is graceful: the HTTP server drains via
// Shutdown, then the store drains its queues, flushes, and writes a
// final checkpoint.
//
// Example:
//
//	amntd -addr :8080 -shards 4 -protocol amnt -checkpoint-dir /tmp/amnt
//	amntd -addr :8081 -node-id n1 -advertise http://127.0.0.1:8081 \
//	      -cluster-nodes n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082 \
//	      -partitions 64 -checkpoint-dir /shared/amnt
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"amnt/internal/cluster"
	_ "amnt/internal/core" // register the AMNT protocol family
	"amnt/internal/node"
	"amnt/internal/store"
	"amnt/internal/telemetry"
	"amnt/internal/telemetry/span"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		shards     = flag.Int("shards", 4, "independent controller shards (standalone; cluster mode hosts one shard per owned partition)")
		memMB      = flag.Int("shard-mem-mb", 4, "SCM data capacity per shard, MiB")
		protocol   = flag.String("protocol", "amnt", "persistence protocol (mee registry name)")
		level      = flag.Int("level", 3, "AMNT subtree level")
		queue      = flag.Int("queue", 64, "bounded request queue depth per shard")
		batch      = flag.Int("batch", 16, "max requests drained per worker wakeup, and max writes per group-commit epoch")
		ckptDir    = flag.String("checkpoint-dir", "", "checkpoint directory (empty = no checkpoints; cluster kill-drills need a shared one)")
		reqTimeout = flag.Duration("req-timeout", 2*time.Second, "per-request serving deadline")
		healBack   = flag.Duration("heal-backoff", 0, "initial delay before a quarantined shard's first heal attempt (0 = default)")
		spanSample = flag.Int("span-sample", 1, "record one latency-attribution span per N requests (1 = every request, 0 = spans off)")
		spanRing   = flag.Int("span-ring", 4096, "finished-span ring buffer size (/v1/spans depth)")
		slowThresh = flag.Duration("slow-threshold", 250*time.Millisecond, "log any request slower than this with its full phase breakdown (0 = off)")

		nodeID     = flag.String("node-id", "", "cluster node identity (enables cluster mode with -cluster-nodes)")
		advertise  = flag.String("advertise", "", "base URL peers and routers reach this node at")
		clusterSet = flag.String("cluster-nodes", "", "full member list as id=url,id=url — every node and router must pass the same list")
		partitions = flag.Int("partitions", 0, "cluster partition count (0 = 64 in cluster mode, = -shards standalone)")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "amntd:", err)
		os.Exit(1)
	}

	cfg := store.Config{
		Shards:          *shards,
		ShardMemBytes:   uint64(*memMB) << 20,
		Protocol:        *protocol,
		QueueDepth:      *queue,
		BatchMax:        *batch,
		ReadConcurrency: 4, // verified readers per shard bypassing the write queue
		CheckpointDir:   *ckptDir,
		HealBackoff:     *healBack,
	}
	cfg.PolicyOptions.SubtreeLevel = *level

	// Cluster mode: derive this node's owned partitions from the
	// deterministic boot placement every participant computes from
	// the same member list.
	var ring *cluster.State
	if *nodeID != "" || *clusterSet != "" {
		if *nodeID == "" || *clusterSet == "" {
			fail(fmt.Errorf("cluster mode needs both -node-id and -cluster-nodes"))
		}
		members, err := cluster.ParseMembers(*clusterSet)
		if err != nil {
			fail(err)
		}
		self := false
		for _, m := range members {
			if m.ID == *nodeID {
				self = true
				if *advertise == "" {
					*advertise = m.Addr
				}
			}
		}
		if !self {
			fail(fmt.Errorf("node %q is not in -cluster-nodes", *nodeID))
		}
		ring = cluster.InitialState(*partitions, cluster.DefaultVNodes, members)
		cfg.Partitions = ring.Partitions
		owned := cluster.OwnedBy(ring, *nodeID)
		if owned == nil {
			owned = []int{}
		}
		cfg.Owned = owned
		cfg.Shards = len(owned)
	}

	st, err := store.Open(cfg)
	if err != nil {
		fail(err)
	}

	logger := slog.New(slog.NewTextHandler(os.Stdout, nil))
	rec := span.New(span.Config{
		SampleEvery:   *spanSample,
		RingSize:      *spanRing,
		Shards:        st.Shards(),
		SlowThreshold: *slowThresh,
		Logger:        logger,
	})
	nd := node.New(st, rec, node.Options{
		ReqTimeout: *reqTimeout,
		NodeID:     *nodeID,
		Advertise:  *advertise,
		Ring:       ring,
	})

	srv, err := telemetry.Serve(*addr, nd.Introspection())
	if err != nil {
		fail(err)
	}
	if ring != nil {
		fmt.Printf("amntd: node %s serving %d/%d partitions on %s (ring epoch %d)\n",
			*nodeID, st.Shards(), ring.Partitions, srv.Addr(), ring.Epoch)
	} else {
		fmt.Printf("amntd: serving %d×%s shards on %s\n", st.Shards(), *protocol, srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("amntd: shutting down")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "amntd: http shutdown:", err)
	}
	if err := st.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "amntd: store close:", err)
		os.Exit(1)
	}
	fmt.Println("amntd: store drained and checkpointed")
}
