package store_test

// The serving surfaces of a node — /metrics, /vars, /v1/store/stats
// and /v1/health — are all derived from the store's one counter table.
// These tests drive a node served exactly as amntd serves it
// (Node.Introspection) and check the surfaces against each other.
// They live in an external test package because node imports store.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	_ "amnt/internal/core" // registers the AMNT protocol family
	"amnt/internal/node"
	"amnt/internal/store"
	"amnt/internal/telemetry"
	"amnt/internal/telemetry/span"
)

// serveNode opens a 2-shard amnt store behind a node and serves it
// through the amntd telemetry wiring. It returns the store and the
// server's base URL.
func serveNode(t *testing.T) (*store.Store, string) {
	t.Helper()
	st, err := store.Open(store.Config{
		Shards:          2,
		ShardMemBytes:   256 << 10,
		Protocol:        "amnt",
		QueueDepth:      64,
		BatchMax:        8,
		ReadConcurrency: 2,
		CheckpointDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close(context.Background()) })
	nd := node.New(st, span.New(span.Config{SampleEvery: 1, Shards: st.Shards()}), node.Options{})
	srv, err := telemetry.Serve("127.0.0.1:0", nd.Introspection())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return st, "http://" + srv.Addr()
}

// call sends one request and returns the status and body.
func call(method, url, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// mustCall is call that fails the test on a transport error or an
// unexpected status.
func mustCall(t *testing.T, method, url, body string, want int) []byte {
	t.Helper()
	code, b, err := call(method, url, body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	if code != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, code, want, b)
	}
	return b
}

// metricsColumns parses a Prometheus exposition into name → value.
func metricsColumns(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad exposition line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// shardEntries decodes the "shards" array of a /v1/store/stats or
// /v1/health body as flat key maps, the way a dashboard reads it.
func shardEntries(t *testing.T, body []byte) []map[string]any {
	t.Helper()
	var doc struct {
		Shards []map[string]any `json:"shards"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return doc.Shards
}

// TestSurfaceParity drives a 2-shard store through puts, gets, a
// flush, a checkpoint, a power cycle and a migration fence, then checks
// every counter-table row: the per-shard column (/metrics and /vars),
// the shard's /v1/store/stats key and its /v1/health entry must agree,
// and the aggregate column must equal the sum over shards.
func TestSurfaceParity(t *testing.T) {
	st, base := serveNode(t)
	ctx := context.Background()
	for k := uint64(0); k < 48; k++ {
		mustCall(t, http.MethodPut, fmt.Sprintf("%s/v1/kv/%d", base, k), fmt.Sprintf("v%d", k), http.StatusOK)
	}
	for k := uint64(0); k < 64; k++ { // keys 48.. are misses
		if _, err := st.Get(ctx, k); err != nil && err != store.ErrNotFound {
			t.Fatalf("get %d: %v", k, err)
		}
	}
	for _, op := range []string{"flush", "checkpoint", "recover"} {
		mustCall(t, http.MethodPost, base+"/v1/"+op, "", http.StatusOK)
	}
	mustCall(t, http.MethodPut, base+"/v1/kv/100", "after-recover", http.StatusOK)
	mustCall(t, http.MethodPost, base+"/v1/migrate/begin?part=1", "", http.StatusOK)
	mustCall(t, http.MethodPost, base+"/v1/migrate/fence?part=1", "", http.StatusOK)
	mustCall(t, http.MethodPut, base+"/v1/kv/1", "fenced", http.StatusServiceUnavailable)
	mustCall(t, http.MethodPost, base+"/v1/migrate/abort?part=1", "", http.StatusOK)
	mustCall(t, http.MethodPost, base+"/v1/flush", "", http.StatusOK)

	// A worker publishes after it answers, so read the surfaces until a
	// window in which /v1/store/stats did not move: every surface read
	// inside it then saw the same counters.
	var stats, health []map[string]any
	var metrics map[string]float64
	var vars struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	for try := 0; ; try++ {
		before := mustCall(t, http.MethodGet, base+"/v1/store/stats", "", http.StatusOK)
		metrics = metricsColumns(t, mustCall(t, http.MethodGet, base+"/metrics", "", http.StatusOK))
		if err := json.Unmarshal(mustCall(t, http.MethodGet, base+"/vars", "", http.StatusOK), &vars); err != nil {
			t.Fatal(err)
		}
		health = shardEntries(t, mustCall(t, http.MethodGet, base+"/v1/health", "", http.StatusOK))
		stats = shardEntries(t, mustCall(t, http.MethodGet, base+"/v1/store/stats", "", http.StatusOK))
		if reflect.DeepEqual(shardEntries(t, before), stats) {
			break
		}
		if try == 100 {
			t.Fatal("store counters never settled")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if len(stats) != 2 || len(health) != 2 {
		t.Fatalf("want 2 shards on both surfaces, got stats %d health %d", len(stats), len(health))
	}
	for _, name := range store.CounterNames() {
		var sum float64
		for i, ss := range stats {
			id := int(ss["shard"].(float64))
			col := fmt.Sprintf("store.shard%d.%s", id, name)
			prom := metrics[strings.ReplaceAll("amnt_"+col, ".", "_")]
			sv, ok := ss[name].(float64)
			if !ok {
				t.Errorf("/v1/store/stats shard %d has no numeric %q", id, name)
			}
			hv, ok := health[i][name].(float64)
			if !ok {
				t.Errorf("/v1/health shard %d has no numeric %q", id, name)
			}
			if prom != sv || vars.Metrics[col] != sv || hv != sv {
				t.Errorf("%s: /metrics %v, /vars %v, /v1/store/stats %v, /v1/health %v",
					col, prom, vars.Metrics[col], sv, hv)
			}
			sum += sv
		}
		if agg := metrics["amnt_store_"+name]; agg != sum {
			t.Errorf("store.%s = %v, want the shard sum %v", name, agg, sum)
		}
	}
	// The scenario reached the rows it claims to exercise.
	for _, name := range []string{"gets", "puts", "misses", "flushes", "checkpoints", "recoveries",
		"epochs", "epoch_ops", "batches", "batch_items", "migrations", "fenced_nacks", "concurrent_reads",
		"sim_cycles", "data_writes", "meta_fetches"} {
		if metrics["amnt_store_"+name] == 0 {
			t.Errorf("store.%s stayed 0: the scenario did not exercise it", name)
		}
	}
}

// TestSurfaceScrapeHammer polls every serving surface while clients
// load the store and a power cycle runs. Under -race this checks that
// sampling on the scrape reads nothing a shard worker writes.
func TestSurfaceScrapeHammer(t *testing.T) {
	st, base := serveNode(t)
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, path := range []string{"/metrics", "/vars", "/v1/store/stats", "/v1/health"} {
		scrapers.Add(1)
		go func(path string) {
			defer scrapers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					if n == 0 {
						t.Errorf("%s never scraped", path)
					}
					return
				default:
				}
				code, body, err := call(http.MethodGet, base+path, "")
				switch {
				case err != nil:
					t.Errorf("GET %s: %v", path, err)
					return
				case code != http.StatusOK:
					t.Errorf("GET %s: status %d: %s", path, code, body)
					return
				case path != "/metrics" && !json.Valid(body):
					t.Errorf("GET %s: invalid JSON: %s", path, body)
					return
				}
			}
		}(path)
	}

	ctx := context.Background()
	var load sync.WaitGroup
	for w := 0; w < 3; w++ {
		load.Add(1)
		go func(w int) {
			defer load.Done()
			for i := 0; i < 150; i++ {
				k := uint64(w*1000 + i)
				if err := st.Put(ctx, k, []byte{byte(i)}); err != nil {
					t.Errorf("put %d: %v", k, err)
					return
				}
				if _, err := st.Get(ctx, k); err != nil {
					t.Errorf("get %d: %v", k, err)
					return
				}
			}
		}(w)
	}
	mustCall(t, http.MethodPost, base+"/v1/recover", "", http.StatusOK)
	load.Wait()
	mustCall(t, http.MethodPost, base+"/v1/flush", "", http.StatusOK)
	close(stop)
	scrapers.Wait()
}
