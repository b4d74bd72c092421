package main

// The request loop against live in-process nodes: internal/node over
// internal/store behind httptest, the way internal/cluster's proxy
// tests stand them up.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"amnt/internal/cluster"
	_ "amnt/internal/core"
	"amnt/internal/node"
	"amnt/internal/store"
	"amnt/internal/telemetry/span"
)

// endpointHits counts the requests a server took per data endpoint.
type endpointHits struct{ kv, batch atomic.Int64 }

func (h *endpointHits) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/kv/"):
			h.kv.Add(1)
		case r.URL.Path == "/v1/batch":
			h.batch.Add(1)
		}
		next.ServeHTTP(w, r)
	})
}

// openStore opens a small leaf-protocol store holding the whole
// keyspace on the partitions it owns.
func openStore(t *testing.T, shards, partitions int, owned []int) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{
		Shards:        shards,
		Partitions:    partitions,
		Owned:         owned,
		ShardMemBytes: uint64(64 * keyspace / partitions),
		Protocol:      "leaf",
		QueueDepth:    64,
		BatchMax:      16,
	})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { _ = st.Close(context.Background()) })
	return st
}

// startStandalone serves one standalone node.
func startStandalone(t *testing.T) (string, *store.Store, *endpointHits) {
	t.Helper()
	st := openStore(t, 2, 2, nil)
	mux := http.NewServeMux()
	node.New(st, span.New(span.Config{SampleEvery: 1, Shards: 2}), node.Options{}).Mount(mux)
	hits := &endpointHits{}
	srv := httptest.NewServer(hits.wrap(mux))
	t.Cleanup(srv.Close)
	return srv.URL, st, hits
}

// startCluster serves nodes n1 and n2 on an 8-partition ring and a
// proxy over them, and returns the base URLs by id ("proxy" included).
func startCluster(t *testing.T) map[string]string {
	t.Helper()
	urls := map[string]string{}
	muxes := map[string]*http.ServeMux{}
	var members []cluster.Member
	for _, id := range []string{"n1", "n2"} {
		muxes[id] = http.NewServeMux()
		srv := httptest.NewServer(muxes[id])
		t.Cleanup(srv.Close)
		urls[id] = srv.URL
		members = append(members, cluster.Member{ID: id, Addr: srv.URL})
	}
	ring := cluster.InitialState(8, cluster.DefaultVNodes, members)
	for id, mux := range muxes {
		owned := cluster.OwnedBy(ring, id)
		if owned == nil {
			owned = []int{}
		}
		st := openStore(t, len(owned), ring.Partitions, owned)
		node.New(st, span.New(span.Config{SampleEvery: 1, Shards: len(owned)}), node.Options{
			NodeID: id, Advertise: urls[id], Ring: ring,
		}).Mount(mux)
	}
	mux := http.NewServeMux()
	cluster.NewProxy(cluster.NewRegistry(ring, time.Minute, time.Now()), cluster.ProxyOptions{}).Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	urls["proxy"] = srv.URL
	return urls
}

func testConfig(addr string, batch int) config {
	return config{addr: addr, workload: "ycsb-a", clients: 4, ops: 2000, batch: batch}
}

// checkClean fails the test unless rep counts puts and gets and no
// error or corruption.
func checkClean(t *testing.T, rep report) {
	t.Helper()
	if rep.Puts == 0 || rep.Gets == 0 {
		t.Errorf("puts=%d gets=%d, want both counted", rep.Puts, rep.Gets)
	}
	if rep.Errors != 0 || rep.Corruptions != 0 {
		t.Errorf("errors=%d corruptions=%d, want 0", rep.Errors, rep.Corruptions)
	}
}

// TestLoopStandalone: one loop at both batch sizes. A 1-op bucket
// drives GET|PUT /v1/kv only; larger buckets drive POST /v1/batch.
func TestLoopStandalone(t *testing.T) {
	for _, batch := range []int{1, 32} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			addr, _, hits := startStandalone(t)
			rep, err := load(testConfig(addr, batch))
			if err != nil {
				t.Fatal(err)
			}
			checkClean(t, rep)
			if rep.Gets+rep.Puts != 2000 {
				t.Errorf("counted %d ops, want 2000", rep.Gets+rep.Puts)
			}
			if rep.TimingSamples == 0 {
				t.Error("no server phase breakdown collected")
			}
			kv, bat := hits.kv.Load(), hits.batch.Load()
			if batch == 1 && (kv != 2000 || bat != 0) {
				t.Errorf("batch 1 sent %d kv and %d batch requests, want 2000 and 0", kv, bat)
			}
			if batch > 1 && bat == 0 {
				t.Error("batch 32 sent no POST /v1/batch")
			}
		})
	}
}

// TestLoopPreload: -preload puts every key through the same loop, so
// a read-only wave finds every key, and every key reads back intact.
func TestLoopPreload(t *testing.T) {
	addr, st, _ := startStandalone(t)
	cfg := testConfig(addr, 1)
	cfg.workload, cfg.preload = "ycsb-c", true
	rep, err := load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gets == 0 || rep.NotFound != 0 || rep.Errors != 0 || rep.Corruptions != 0 {
		t.Fatalf("gets=%d not_found=%d errors=%d corruptions=%d, want every get found intact",
			rep.Gets, rep.NotFound, rep.Errors, rep.Corruptions)
	}
	keys := make([]uint64, keyspace)
	for k := range keys {
		keys[k] = uint64(k)
	}
	values, errs := st.GetBatch(context.Background(), keys)
	for k := range keys {
		if errs[k] != nil || !bytes.Equal(values[k], valueFor(uint64(k))) {
			t.Fatalf("key %d after preload: %q, %v", k, values[k], errs[k])
		}
	}
}

// TestLoopCluster: -cluster reads the ring from one node and routes
// to both; the report breaks the traffic down per node.
func TestLoopCluster(t *testing.T) {
	urls := startCluster(t)
	cfg := testConfig(urls["n1"], 32)
	cfg.cluster = true
	rep, err := load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep)
	if len(rep.Nodes) != 2 || rep.Nodes["n1"].Ops == 0 || rep.Nodes["n2"].Ops == 0 {
		t.Fatalf("per-node breakdown %+v, want traffic on n1 and n2", rep.Nodes)
	}
}

// TestLoopRingRepair: a partition moves after the client read its
// ring. The node that bounces the stale ops hands the client the new
// ring — a redirect — and nothing fails, at either batch size.
func TestLoopRingRepair(t *testing.T) {
	urls := startCluster(t)
	for _, batch := range []int{1, 32} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			router := cluster.NewClient(nil)
			if ok, err := router.Refresh(context.Background(), http.DefaultClient, urls["n1"]); !ok {
				t.Fatalf("ring from n1: %v", err)
			}
			migrateFromN1(t, urls["proxy"])
			rep, err := drive(testConfig(urls["n1"], batch), router)
			if err != nil {
				t.Fatal(err)
			}
			checkClean(t, rep)
			if rep.Redirects == 0 {
				t.Fatal("stale ring never repaired: 0 redirects")
			}
		})
	}
}

// migrateFromN1 moves one of n1's partitions to n2 through the proxy.
func migrateFromN1(t *testing.T, proxy string) {
	t.Helper()
	resp, err := http.Get(proxy + "/v1/ring")
	if err != nil {
		t.Fatal(err)
	}
	var ring cluster.State
	err = json.NewDecoder(resp.Body).Decode(&ring)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode ring: %v", err)
	}
	parts := cluster.OwnedBy(&ring, "n1")
	if len(parts) == 0 {
		t.Fatal("n1 owns nothing left to move")
	}
	resp, err = http.Post(fmt.Sprintf("%s/v1/cluster/migrate?part=%d&to=n2", proxy, parts[0]), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate partition %d: %d %s", parts[0], resp.StatusCode, body)
	}
}
