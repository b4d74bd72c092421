package cluster_test

// Proxy tests live in an external test package: they stand up real
// internal/node servers behind the proxy, and node imports cluster.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"amnt/internal/cluster"
	_ "amnt/internal/core"
	"amnt/internal/node"
	"amnt/internal/store"
	"amnt/internal/telemetry"
	"amnt/internal/telemetry/span"
	"amnt/internal/wire"
)

// miniCluster is a proxy fronting live in-process nodes. The proxy is
// served the way amntproxy serves it (Proxy.Introspection), so its
// /metrics and /vars are the daemon's too.
type miniCluster struct {
	proxy string // base URL
	p     *cluster.Proxy
	nodes map[string]*httptest.Server
	ring  *cluster.State
}

// startCluster boots n nodes plus a proxy. Node servers start before
// the ring exists (their addresses feed the member list), so each
// mux is populated after its server is live.
func startCluster(t *testing.T, n int) *miniCluster {
	t.Helper()
	type pending struct {
		id  string
		mux *http.ServeMux
		srv *httptest.Server
	}
	var ps []pending
	var members []cluster.Member
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i+1)
		mux := http.NewServeMux()
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		ps = append(ps, pending{id, mux, srv})
		members = append(members, cluster.Member{ID: id, Addr: srv.URL})
	}
	ring := cluster.InitialState(8, 0, members)
	nodes := map[string]*httptest.Server{}
	for _, p := range ps {
		owned := cluster.OwnedBy(ring, p.id)
		if owned == nil {
			owned = []int{}
		}
		st, err := store.Open(store.Config{
			Shards:        len(owned),
			Partitions:    ring.Partitions,
			Owned:         owned,
			ShardMemBytes: 256 << 10,
			Protocol:      "leaf",
			QueueDepth:    64,
			BatchMax:      8,
		})
		if err != nil {
			t.Fatalf("open store %s: %v", p.id, err)
		}
		t.Cleanup(func() { _ = st.Close(context.Background()) })
		nd := node.New(st, span.New(span.Config{SampleEvery: 1, Shards: len(owned)}), node.Options{
			NodeID: p.id, Advertise: p.srv.URL, Ring: ring,
		})
		nd.Mount(p.mux)
		nodes[p.id] = p.srv
	}
	reg := cluster.NewRegistry(ring, 2*time.Second, time.Now())
	px := cluster.NewProxy(reg, cluster.ProxyOptions{
		Recorder: span.New(span.Config{SampleEvery: 1}),
	})
	psrv, err := telemetry.Serve("127.0.0.1:0", px.Introspection())
	if err != nil {
		t.Fatalf("serve proxy: %v", err)
	}
	t.Cleanup(func() { _ = psrv.Close() })
	return &miniCluster{proxy: "http://" + psrv.Addr(), p: px, nodes: nodes, ring: ring}
}

func proxyPut(t *testing.T, base string, key uint64, val string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v1/kv/%d", base, key), strings.NewReader(val))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("put %d: %v", key, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func proxyGet(t *testing.T, base string, key uint64) (int, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/kv/%d", base, key))
	if err != nil {
		t.Fatalf("get %d: %v", key, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, ""
	}
	var body struct {
		ValueB64 string `json:"value_b64"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode get %d: %v", key, err)
	}
	raw, err := base64.StdEncoding.DecodeString(body.ValueB64)
	if err != nil {
		t.Fatalf("bad b64 for %d: %v", key, err)
	}
	return resp.StatusCode, string(raw)
}

// TestProxyRoutesAcrossNodes drives keys owned by different nodes
// through the proxy's single endpoint and reads them back.
func TestProxyRoutesAcrossNodes(t *testing.T) {
	c := startCluster(t, 3)
	for key := uint64(0); key < 24; key++ {
		if code := proxyPut(t, c.proxy, key, fmt.Sprintf("v-%d", key)); code != http.StatusOK {
			t.Fatalf("put %d: status %d", key, code)
		}
	}
	for key := uint64(0); key < 24; key++ {
		code, val := proxyGet(t, c.proxy, key)
		if code != http.StatusOK || val != fmt.Sprintf("v-%d", key) {
			t.Fatalf("get %d: status %d value %q", key, code, val)
		}
	}
	// Every node should have seen traffic: each owns at least one of
	// partitions 0..7 at three nodes and the keys cover all 8.
	for id, srv := range c.nodes {
		resp, err := http.Get(srv.URL + "/v1/store/stats")
		if err != nil {
			t.Fatalf("stats %s: %v", id, err)
		}
		var st struct {
			Ops uint64 `json:"ops"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode stats %s: %v", id, err)
		}
		resp.Body.Close()
		if st.Ops == 0 {
			t.Errorf("node %s saw no traffic through the proxy", id)
		}
	}
}

// TestProxyServesMetrics pins the proxy's own /metrics: after traffic
// through it, the RED request counters of the ops it served are
// non-zero with no sampler running anywhere.
func TestProxyServesMetrics(t *testing.T) {
	c := startCluster(t, 2)
	for key := uint64(0); key < 3; key++ {
		if code := proxyPut(t, c.proxy, key, "m"); code != http.StatusOK {
			t.Fatalf("put %d: status %d", key, code)
		}
	}
	for path, want := range map[string]string{
		"/metrics": "amnt_span_op_kv_put_requests 3",
		"/vars":    `"span.op.kv_put.requests": 3`,
	} {
		resp, err := http.Get(c.proxy + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), want) {
			t.Errorf("proxy %s missing %q:\n%.2000s", path, want, body)
		}
	}
}

// TestProxyBatchFanOut sends one batch spanning every node and
// checks the merged response preserves request order with per-key
// results.
func TestProxyBatchFanOut(t *testing.T) {
	c := startCluster(t, 3)
	var req struct {
		Puts []map[string]any `json:"puts"`
		Gets []uint64         `json:"gets"`
	}
	for key := uint64(0); key < 16; key++ {
		req.Puts = append(req.Puts, map[string]any{
			"key":       key,
			"value_b64": base64.StdEncoding.EncodeToString([]byte(fmt.Sprintf("b-%d", key))),
		})
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(c.proxy+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("batch put: %v", err)
	}
	var putOut struct {
		Puts []struct {
			Key   uint64 `json:"key"`
			Error string `json:"error"`
		} `json:"puts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&putOut); err != nil {
		t.Fatalf("decode batch put: %v", err)
	}
	resp.Body.Close()
	if len(putOut.Puts) != 16 {
		t.Fatalf("got %d put results, want 16", len(putOut.Puts))
	}
	for i, r := range putOut.Puts {
		if r.Key != uint64(i) {
			t.Fatalf("put result %d has key %d: order not preserved", i, r.Key)
		}
		if r.Error != "" {
			t.Fatalf("put %d failed: %s", i, r.Error)
		}
	}

	req.Puts = nil
	for key := uint64(0); key < 16; key++ {
		req.Gets = append(req.Gets, key)
	}
	body, _ = json.Marshal(req)
	resp, err = http.Post(c.proxy+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("batch get: %v", err)
	}
	var getOut struct {
		Gets []struct {
			Key      uint64 `json:"key"`
			ValueB64 string `json:"value_b64"`
			Error    string `json:"error"`
		} `json:"gets"`
		Timing *span.Timing `json:"timing"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&getOut); err != nil {
		t.Fatalf("decode batch get: %v", err)
	}
	resp.Body.Close()
	if len(getOut.Gets) != 16 {
		t.Fatalf("got %d get results, want 16", len(getOut.Gets))
	}
	for i, r := range getOut.Gets {
		if r.Key != uint64(i) || r.Error != "" {
			t.Fatalf("get %d: key %d err %q", i, r.Key, r.Error)
		}
		raw, _ := base64.StdEncoding.DecodeString(r.ValueB64)
		if string(raw) != fmt.Sprintf("b-%d", i) {
			t.Fatalf("get %d: value %q", i, raw)
		}
	}
	if getOut.Timing == nil {
		t.Fatal("merged batch response lost its timing block")
	}
	if getOut.Timing.ForwardUs <= 0 {
		t.Error("batch timing missing forward phase")
	}
}

// TestProxyBatchSubBatchFailure pins how a node-level failure of one
// leg surfaces: whether the node refuses its whole sub-batch with 503
// or with 421, every key of that leg fails in place with a
// "(retryable)" message naming the node, the other leg's keys succeed,
// and the batch stays 200. A malformed client body is still a 400.
func TestProxyBatchSubBatchFailure(t *testing.T) {
	for _, refusal := range []struct {
		code int
		body string
		want string
	}{
		{http.StatusServiceUnavailable, `{"error":"store: shard recovering","reason":"recovering","retry_after_ms":100}`, "store: shard recovering (recovering) (retryable)"},
		{http.StatusMisdirectedRequest, `{"error":"partition 1 not owned by this node","partition":1}`, "partition 1 not owned by this node () (retryable)"},
	} {
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/batch" {
				w.WriteHeader(refusal.code)
			}
			io.WriteString(w, refusal.body)
		}))
		t.Cleanup(stub.Close)
		mux := http.NewServeMux()
		real := httptest.NewServer(mux)
		t.Cleanup(real.Close)
		ring := cluster.InitialState(8, 0, []cluster.Member{{ID: "n1", Addr: real.URL}, {ID: "n2", Addr: stub.URL}})
		st, err := store.Open(store.Config{
			Shards: len(cluster.OwnedBy(ring, "n1")), Partitions: 8, Owned: cluster.OwnedBy(ring, "n1"),
			ShardMemBytes: 256 << 10, Protocol: "leaf", QueueDepth: 64, BatchMax: 8,
		})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		t.Cleanup(func() { _ = st.Close(context.Background()) })
		node.New(st, nil, node.Options{NodeID: "n1", Advertise: real.URL, Ring: ring}).Mount(mux)
		pmux := http.NewServeMux()
		cluster.NewProxy(cluster.NewRegistry(ring, time.Minute, time.Now()), cluster.ProxyOptions{}).Mount(pmux)
		proxy := httptest.NewServer(pmux)
		t.Cleanup(proxy.Close)

		var puts []wire.Op
		var gets []uint64
		for key := uint64(0); key < 16; key++ {
			puts = append(puts, wire.Op{Key: key, Value: []byte(fmt.Sprintf("s-%d", key))})
			gets = append(gets, key)
		}
		resp, err := http.Post(proxy.URL+"/v1/batch", "application/json", bytes.NewReader(wire.AppendRequest(nil, puts, gets)))
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var out wire.Response
		if err := out.Decode(raw); resp.StatusCode != http.StatusOK || err != nil || len(out.Puts) != 16 || len(out.Gets) != 16 {
			t.Fatalf("partially failing batch answered %d %s (%v)", resp.StatusCode, raw, err)
		}
		var buf wire.Buf
		failed := 0
		for i, key := range gets {
			p, g := out.Puts[i], out.Gets[i]
			if p.Key != key || g.Key != key {
				t.Fatalf("result %d is for keys %d/%d, want %d", i, p.Key, g.Key, key)
			}
			if ring.Owner(int(key%8)) == "n1" {
				if v, _ := buf.Value(g.B64); p.Err != "" || g.Err != "" || string(v) != fmt.Sprintf("s-%d", key) {
					t.Errorf("key %d on the healthy node: put %q get %q value %q", key, p.Err, g.Err, v)
				}
				continue
			}
			failed++
			if want := "node " + stub.URL + ": " + refusal.want; p.Err != want || g.Err != want {
				t.Errorf("key %d on the refusing node: put %q get %q, want %q", key, p.Err, g.Err, want)
			}
		}
		if failed == 0 || failed == 16 {
			t.Fatalf("ring put %d of 16 keys on the refusing node; the test needs both legs", failed)
		}

		resp, err = http.Post(proxy.URL+"/v1/batch", "application/json", strings.NewReader(`{"puts":[{"key":"1"}]}`))
		if err != nil {
			t.Fatalf("malformed batch: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed body answered %d at the proxy, want 400", resp.StatusCode)
		}
	}
}

// TestProxyHealthAggregation checks the cluster-wide health verdict
// and the per-node breakdown.
func TestProxyHealthAggregation(t *testing.T) {
	c := startCluster(t, 3)
	resp, err := http.Get(c.proxy + "/v1/health")
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("health status %d: %s", resp.StatusCode, raw)
	}
	var rep struct {
		Status string                     `json:"status"`
		Nodes  map[string]json.RawMessage `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	if rep.Status != "ok" {
		t.Fatalf("cluster status %q, want ok", rep.Status)
	}
	for _, id := range []string{"n1", "n2", "n3"} {
		if _, ok := rep.Nodes[id]; !ok {
			t.Errorf("health report missing node %s", id)
		}
	}
}

// TestProxyMigration drives a planned hand-off through the proxy's
// control plane and checks routing follows the flip: keys of the
// moved partition keep answering through the proxy, the registry
// epoch advances, and the report records the fence.
func TestProxyMigration(t *testing.T) {
	c := startCluster(t, 2)
	// Seed every partition so the moved one carries data.
	for key := uint64(0); key < 32; key++ {
		if code := proxyPut(t, c.proxy, key, fmt.Sprintf("m-%d", key)); code != http.StatusOK {
			t.Fatalf("seed put %d: status %d", key, code)
		}
	}
	// Move one of n1's partitions to n2.
	n1Parts := cluster.OwnedBy(c.ring, "n1")
	if len(n1Parts) == 0 {
		t.Fatal("n1 owns nothing")
	}
	part := n1Parts[0]
	epochBefore := c.p.Registry().View().State.Epoch

	resp, err := http.Post(fmt.Sprintf("%s/v1/cluster/migrate?part=%d&to=n2", c.proxy, part), "", nil)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status %d: %s", resp.StatusCode, raw)
	}
	var rep cluster.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if rep.Partition != part || rep.From != "n1" || rep.To != "n2" {
		t.Fatalf("report %+v does not describe the requested move", rep)
	}
	if rep.ImageBytes == 0 {
		t.Error("migration shipped an empty image")
	}

	v := c.p.Registry().View()
	if v.State.Epoch <= epochBefore {
		t.Errorf("epoch did not advance across flip: %d -> %d", epochBefore, v.State.Epoch)
	}
	if got := v.State.Owner(part); got != "n2" {
		t.Fatalf("partition %d owned by %q after flip, want n2", part, got)
	}

	// Every key — including the moved partition's — still answers.
	for key := uint64(0); key < 32; key++ {
		code, val := proxyGet(t, c.proxy, key)
		if code != http.StatusOK || val != fmt.Sprintf("m-%d", key) {
			t.Fatalf("post-migration get %d: status %d value %q", key, code, val)
		}
	}
	// And writes to the moved partition land on the new owner.
	if code := proxyPut(t, c.proxy, uint64(part), "moved"); code != http.StatusOK {
		t.Fatalf("post-migration put: status %d", code)
	}
	if _, val := proxyGet(t, c.proxy, uint64(part)); val != "moved" {
		t.Fatalf("post-migration readback: %q", val)
	}
	if reports := c.p.Migrations(); len(reports) != 1 {
		t.Errorf("proxy logged %d migrations, want 1", len(reports))
	}
}

// TestProxyKillAndAdopt is the in-process kill drill: checkpoint the
// cluster through the proxy's broadcast barrier, stop one node, let
// the sweep reassign and auto-adopt its partitions from the shared
// checkpoint directory, and verify every acked key survives.
func TestProxyKillAndAdopt(t *testing.T) {
	// Hand-rolled cluster: all nodes share one checkpoint directory,
	// as the kill drill requires.
	ckptDir := t.TempDir()
	type nrec struct {
		id  string
		mux *http.ServeMux
		srv *httptest.Server
		st  *store.Store
	}
	var recs []*nrec
	var members []cluster.Member
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("n%d", i+1)
		mux := http.NewServeMux()
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		recs = append(recs, &nrec{id: id, mux: mux, srv: srv})
		members = append(members, cluster.Member{ID: id, Addr: srv.URL})
	}
	ring := cluster.InitialState(8, 0, members)
	for _, rc := range recs {
		owned := cluster.OwnedBy(ring, rc.id)
		if owned == nil {
			owned = []int{}
		}
		st, err := store.Open(store.Config{
			Shards:        len(owned),
			Partitions:    ring.Partitions,
			Owned:         owned,
			ShardMemBytes: 256 << 10,
			Protocol:      "leaf",
			QueueDepth:    64,
			BatchMax:      8,
			CheckpointDir: ckptDir,
		})
		if err != nil {
			t.Fatalf("open store %s: %v", rc.id, err)
		}
		rc.st = st
		nd := node.New(st, span.New(span.Config{SampleEvery: 1, Shards: len(owned)}), node.Options{
			NodeID: rc.id, Advertise: rc.srv.URL, Ring: ring,
		})
		nd.Mount(rc.mux)
	}
	now := time.Now()
	reg := cluster.NewRegistry(ring, 2*time.Second, now)
	px := cluster.NewProxy(reg, cluster.ProxyOptions{AutoAdopt: true})
	pmux := http.NewServeMux()
	px.Mount(pmux)
	psrv := httptest.NewServer(pmux)
	t.Cleanup(psrv.Close)

	// Acked writes across every partition.
	for key := uint64(0); key < 32; key++ {
		if code := proxyPut(t, psrv.URL, key, fmt.Sprintf("k-%d", key)); code != http.StatusOK {
			t.Fatalf("put %d: status %d", key, code)
		}
	}
	// Durability barrier: broadcast checkpoint must hit all 3 nodes.
	resp, err := http.Post(psrv.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint barrier failed: %d %s", resp.StatusCode, raw)
	}

	// Kill n2: close its server and store so every request fails.
	victim := recs[1]
	victimParts := cluster.OwnedBy(ring, victim.id)
	victim.srv.Close()
	if err := victim.st.Close(context.Background()); err != nil {
		t.Fatalf("close victim store: %v", err)
	}

	// Sweep once while the victim is fresh (no-op), then past the
	// TTL: the sweep must reassign, adopt on survivors, and clear.
	if moves := px.SweepOnce(context.Background(), now.Add(500*time.Millisecond)); len(moves) != 0 {
		t.Fatalf("premature reassignment: %+v", moves)
	}
	moves := px.SweepOnce(context.Background(), now.Add(5*time.Second))
	if len(moves) != len(victimParts) {
		t.Fatalf("sweep moved %d partitions, want %d (%+v)", len(moves), len(victimParts), moves)
	}
	if got := px.Adoptions(); got != uint64(len(victimParts)) {
		t.Fatalf("adopted %d partitions, want %d", got, len(victimParts))
	}
	v := px.Registry().View()
	if len(v.Pending) != 0 {
		t.Fatalf("pending adoptions not cleared: %+v", v.Pending)
	}

	// Zero lost acked writes: every checkpointed key answers, the
	// victim's keys from their adopted homes.
	for key := uint64(0); key < 32; key++ {
		code, val := proxyGet(t, psrv.URL, key)
		if code != http.StatusOK || val != fmt.Sprintf("k-%d", key) {
			t.Fatalf("post-kill get %d: status %d value %q", key, code, val)
		}
	}
	// The cluster keeps taking writes for the adopted partitions.
	for _, part := range victimParts {
		if code := proxyPut(t, psrv.URL, uint64(part), "after-kill"); code != http.StatusOK {
			t.Fatalf("post-adopt put to partition %d: status %d", part, code)
		}
	}
	for _, st := range []*store.Store{recs[0].st, recs[2].st} {
		if err := st.Close(context.Background()); err != nil {
			t.Errorf("close survivor: %v", err)
		}
	}
}
