// Command amntproxy is the stateless cluster router for a multi-node
// amntd deployment. It owns the membership registry (pulse + TTL
// sweep), forwards /v1/kv/{key} to the key's owner by consistent-
// hash lookup, fans /v1/batch out per node and merges the per-key
// results, aggregates /v1/health and /v1/store/stats across the
// cluster, and drives planned live migrations and kill-recovery
// adoption. "Stateless" is literal: everything the proxy knows is
// re-derivable from the member list and the nodes, so restarting it
// loses nothing.
//
// API (data path mirrors a single amntd node, so clients do not care
// whether they talk to a node or the proxy):
//
//	PUT/GET /v1/kv/{key}    forwarded to the owner; 421s healed in-flight
//	POST /v1/batch          per-node fan-out, per-key merge, forward_us timing
//	POST /v1/flush|checkpoint|recover   broadcast to every live node
//	GET  /v1/health         aggregated cluster health (503 when degraded)
//	GET  /v1/store/stats    per-node stats keyed by node id
//	GET  /v1/ring           the authoritative ring state
//	GET  /v1/cluster/nodes  membership, liveness, pending adoptions
//	POST /v1/cluster/pulse?id=..&health=..   node heartbeat
//	POST /v1/cluster/register                {"id":..,"addr":..}
//	POST /v1/cluster/migrate?part=N&to=ID    planned live hand-off
//	GET  /v1/cluster/migrations              completed hand-off reports
//	GET  /v1/spans          the proxy's own latency-attribution spans
//
// The sweep loop polls every member's /v1/health on a third of the
// pulse TTL; a node silent past the TTL is marked down and its
// partitions reassigned over the surviving ring. With -auto-adopt
// (and a shared -checkpoint-dir on the nodes) the proxy then drives
// POST /v1/migrate/adopt on each new owner so the orphans come back
// from the last checkpoint — the kill-one-node recovery path.
//
// Example (3-node cluster):
//
//	amntproxy -addr :8000 \
//	  -cluster-nodes n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082,n3=http://127.0.0.1:8083
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
	"amnt/internal/telemetry"
	"amnt/internal/telemetry/span"
)

func main() {
	var (
		addr       = flag.String("addr", ":8000", "HTTP listen address")
		clusterSet = flag.String("cluster-nodes", "", "full member list as id=url,id=url — must match the list every amntd node was started with")
		partitions = flag.Int("partitions", 0, "cluster partition count (0 = 64); must match the nodes")
		pulseTTL   = flag.Duration("pulse-ttl", 2*time.Second, "a node silent this long is marked down and its partitions reassigned")
		autoAdopt  = flag.Bool("auto-adopt", true, "drive checkpoint-directory adoption of orphaned partitions on their new owners")
		reqTimeout = flag.Duration("req-timeout", 5*time.Second, "per-forwarded-request deadline")
		spanSample = flag.Int("span-sample", 1, "record one span per N proxied requests (0 = spans off)")
		spanRing   = flag.Int("span-ring", 4096, "finished-span ring buffer size (/v1/spans depth)")
		slowThresh = flag.Duration("slow-threshold", 500*time.Millisecond, "log proxied requests slower than this (0 = off)")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "amntproxy:", err)
		os.Exit(1)
	}

	members, err := cluster.ParseMembers(*clusterSet)
	if err != nil {
		fail(err)
	}
	if len(members) == 0 {
		fail(fmt.Errorf("need -cluster-nodes"))
	}
	ring := cluster.InitialState(*partitions, cluster.DefaultVNodes, members)
	reg := cluster.NewRegistry(ring, *pulseTTL, time.Now())

	logger := slog.New(slog.NewTextHandler(os.Stdout, nil))
	rec := span.New(span.Config{
		SampleEvery:   *spanSample,
		RingSize:      *spanRing,
		SlowThreshold: *slowThresh,
		Logger:        logger,
	})
	proxy := cluster.NewProxy(reg, cluster.ProxyOptions{
		ReqTimeout: *reqTimeout,
		Recorder:   rec,
		AutoAdopt:  *autoAdopt,
	})

	srv, err := telemetry.Serve(*addr, proxy.Introspection())
	if err != nil {
		fail(err)
	}
	fmt.Printf("amntproxy: routing %d partitions across %d nodes on %s (ring epoch %d)\n",
		ring.Partitions, len(members), srv.Addr(), ring.Epoch)

	// Sweep loop: pulse every member, apply the TTL, drive adoption.
	sweepCtx, stopSweep := context.WithCancel(context.Background())
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		period := *pulseTTL / 3
		if period < 100*time.Millisecond {
			period = 100 * time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if moves := proxy.SweepOnce(sweepCtx, time.Now()); len(moves) > 0 {
					for _, mv := range moves {
						logger.Info("partition reassigned",
							"partition", mv.Partition, "from", mv.From, "to", mv.To)
					}
				}
			case <-sweepCtx.Done():
				return
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("amntproxy: shutting down")
	stopSweep()
	<-sweepDone
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "amntproxy: http shutdown:", err)
	}
}
