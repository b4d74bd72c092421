package node

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
	"sync"
	"testing"
	"time"

	"amnt/internal/cluster"
	_ "amnt/internal/core"
	"amnt/internal/store"
	"amnt/internal/telemetry"
	"amnt/internal/telemetry/span"
	"amnt/internal/wire"
)

func testServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	return testServerCfg(t, store.Config{
		Shards:        2,
		ShardMemBytes: 256 << 10,
		Protocol:      "leaf",
		QueueDepth:    64,
		BatchMax:      8,
		CheckpointDir: t.TempDir(),
	})
}

func testServerCfg(t *testing.T, cfg store.Config) (*httptest.Server, *store.Store) {
	t.Helper()
	srv, _, st := testNode(t, cfg, Options{})
	return srv, st
}

func testNode(t *testing.T, cfg store.Config, opts Options) (*httptest.Server, *Node, *store.Store) {
	t.Helper()
	st, err := store.Open(cfg)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	mux := http.NewServeMux()
	n := New(st, span.New(span.Config{SampleEvery: 1, Shards: cfg.Shards}), opts)
	n.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		if err := st.Close(context.Background()); err != nil {
			t.Errorf("close store: %v", err)
		}
	})
	return srv, n, st
}

// TestServerV1KV round-trips a value through the canonical versioned
// routes.
func TestServerV1KV(t *testing.T) {
	srv, _ := testServer(t)

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/kv/7", strings.NewReader("hello"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/kv/7")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		Key      uint64 `json:"key"`
		ValueB64 string `json:"value_b64"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v, _ := base64.StdEncoding.DecodeString(out.ValueB64); string(v) != "hello" {
		t.Fatalf("got %q, want hello", v)
	}
}

// TestServerBatch drives POST /v1/batch: puts commit as one group, the
// same request's gets read them back, and per-key failures (missing
// key, undecodable value) surface in place with HTTP 200.
func TestServerBatch(t *testing.T) {
	srv, st := testServer(t)

	body := map[string]any{
		"puts": []map[string]any{
			{"key": 1, "value_b64": base64.StdEncoding.EncodeToString([]byte("alpha"))},
			{"key": 2, "value_b64": base64.StdEncoding.EncodeToString([]byte("beta"))},
			{"key": 3, "value_b64": "%%% not base64 %%%"},
		},
		"gets": []uint64{1, 2, 999},
	}
	buf, _ := json.Marshal(body)
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Puts []struct {
			Key   uint64 `json:"key"`
			Error string `json:"error"`
		} `json:"puts"`
		Gets []struct {
			Key      uint64 `json:"key"`
			ValueB64 string `json:"value_b64"`
			Error    string `json:"error"`
		} `json:"gets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Puts) != 3 || len(out.Gets) != 3 {
		t.Fatalf("result shape: %d puts, %d gets", len(out.Puts), len(out.Gets))
	}
	if out.Puts[0].Error != "" || out.Puts[1].Error != "" {
		t.Fatalf("valid puts failed: %+v", out.Puts)
	}
	if out.Puts[2].Error == "" {
		t.Fatal("undecodable value accepted")
	}
	for i, want := range []string{"alpha", "beta"} {
		v, _ := base64.StdEncoding.DecodeString(out.Gets[i].ValueB64)
		if string(v) != want {
			t.Fatalf("get %d: %q, want %q", i, v, want)
		}
	}
	if out.Gets[2].Error == "" {
		t.Fatal("missing key returned no error")
	}
	if st.Stats().Shards[0].Counter("epochs")+st.Stats().Shards[1].Counter("epochs") == 0 {
		t.Fatal("batch served without a group-commit epoch")
	}
}

// TestServerBatchValidation pins what the batch endpoint refuses and
// how: a malformed or oversized body fails the request with 400,
// while a value that is too large or is not base64 fails its own key
// and leaves the batch at 200 — and every data-path body is compact.
func TestServerBatchValidation(t *testing.T) {
	srv, _ := testServer(t)
	post := func(body []byte) (int, []byte) {
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}
	for _, bad := range []string{``, `{"puts":[`, `{"gets":[1]} trailing`, `{"gets":["1"]}`, `{"puts":{}}`, `[]`} {
		if code, raw := post([]byte(bad)); code != http.StatusBadRequest || !bytes.Contains(raw, []byte("bad batch body")) {
			t.Errorf("malformed body %q answered %d %s, want 400", bad, code, raw)
		}
	}
	huge := append(append([]byte(`{"gets":[1`), bytes.Repeat([]byte(" "), wire.MaxBatchBody)...), `]}`...)
	if code, raw := post(huge); code != http.StatusBadRequest {
		t.Errorf("body over 8 MiB answered %d %.80s, want 400", code, raw)
	}

	big := base64.StdEncoding.EncodeToString(make([]byte, store.MaxValueLen+1))
	code, raw := post([]byte(`{"unknown":{"x":[1]},"gets":[4,2],"puts":[{"value_b64":"` + big + `","key":2},{"key":4,"value_b64":"!!"},{"key":6,"value_b64":"b2s="}]}`))
	if code != http.StatusOK {
		t.Fatalf("batch with per-key failures answered %d %s, want 200", code, raw)
	}
	if bytes.Contains(raw, []byte("\n")) || bytes.Contains(raw, []byte(`": `)) || bytes.Contains(raw, []byte(`, "`)) {
		t.Fatalf("response is not compact: %s", raw)
	}
	var out wire.Response
	if err := out.Decode(raw); err != nil || len(out.Puts) != 3 || len(out.Gets) != 2 {
		t.Fatalf("decode %s: %v", raw, err)
	}
	if out.Puts[0].Key != 2 || out.Puts[0].Err != store.ErrValueTooLarge.Error() {
		t.Errorf("oversized value: %+v, want key 2 failing with %q", out.Puts[0], store.ErrValueTooLarge)
	}
	if out.Puts[1].Key != 4 || !strings.HasPrefix(out.Puts[1].Err, "bad value_b64: ") {
		t.Errorf("bad base64: %+v, want key 4 failing with bad value_b64", out.Puts[1])
	}
	if out.Puts[2].Key != 6 || out.Puts[2].Err != "" {
		t.Errorf("good put next to bad ones: %+v", out.Puts[2])
	}
	if out.Gets[0].Err == "" || out.Gets[1].Err == "" {
		t.Errorf("refused puts are readable: %+v", out.Gets)
	}

	// The kv route has the same cap on a single value, and compact bodies.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/kv/8", bytes.NewReader(make([]byte, store.MaxValueLen+1)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized kv put answered %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/kv/6")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var kv wire.KV
	if err := kv.Decode(raw); err != nil || kv.Key != 6 || string(kv.B64) != "b2s=" || bytes.ContainsAny(raw, " \n") {
		t.Errorf("kv get body %s (%v), want compact key 6 = b2s=", raw, err)
	}
}

// batchBody builds a /v1/batch body putting and then getting n keys
// from base, each value naming its owner and key.
func batchBody(owner, base, n int) ([]byte, []string) {
	var puts []wire.Op
	var gets []uint64
	var want []string
	for k := base; k < base+n; k++ {
		want = append(want, fmt.Sprintf("owner-%d-key-%d", owner, k))
		puts = append(puts, wire.Op{Key: uint64(k), Value: []byte(want[len(want)-1])})
		gets = append(gets, uint64(k))
	}
	return wire.AppendRequest(nil, puts, gets), want
}

// TestBatchHandlerAllocs is the ceiling on what one 128-op batch may
// allocate in the handler and the store under it. The codec itself
// allocates nothing once its buffers are warm; what is left is the
// store's fan-out, the values GetBatch returns and the recorder.
func TestBatchHandlerAllocs(t *testing.T) {
	st, err := store.Open(store.Config{Shards: 4, ShardMemBytes: 1 << 20, Protocol: "amnt"})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer st.Close(context.Background())
	mux := http.NewServeMux()
	New(st, span.New(span.Config{SampleEvery: 0, Shards: 4}), Options{}).Mount(mux)
	body, _ := batchBody(0, 0, 64)
	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
	t.Logf("%.0f allocations per 128-op batch", allocs)
	if allocs > 480 {
		t.Fatalf("%.0f allocations per 128-op batch, ceiling 480 (416 when written, 852 with encoding/json)", allocs)
	}
}

// TestBatchHandlerNoBleed hammers /v1/batch from many clients whose
// keys are disjoint and whose values name their owner. The handler's
// buffers are pooled and the values it hands to PutBatch live in
// them, so this pins both that a buffer never serves two requests at
// once and PutBatch's contract that values are copied before it
// returns: a violation of either shows up as another client's bytes.
func TestBatchHandlerNoBleed(t *testing.T) {
	srv, _ := testServerCfg(t, store.Config{Shards: 4, ShardMemBytes: 1 << 20, Protocol: "amnt", QueueDepth: 256})
	const clients, rounds, width = 8, 40, 32
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var out wire.Response
			var buf wire.Buf
			for r := 0; r < rounds; r++ {
				body, want := batchBody(c, (c*rounds+r)*width, width)
				resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err := out.Decode(raw); err != nil || len(out.Gets) != width || len(out.Puts) != width {
					t.Errorf("client %d: bad response %.200s: %v", c, raw, err)
					return
				}
				for i, g := range out.Gets {
					if v, _ := buf.Value(g.B64); string(v) != want[i] || out.Puts[i].Err != "" {
						t.Errorf("client %d round %d: key %d reads %q (put error %q), want %q", c, r, g.Key, v, out.Puts[i].Err, want[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestServerStats checks /v1/store/stats decodes and reflects epoch
// accounting after a batch write.
func TestServerStats(t *testing.T) {
	srv, _ := testServer(t)

	puts := make([]map[string]any, 32)
	for i := range puts {
		puts[i] = map[string]any{
			"key":       i,
			"value_b64": base64.StdEncoding.EncodeToString([]byte(fmt.Sprintf("v%d", i))),
		}
	}
	buf, _ := json.Marshal(map[string]any{"puts": puts})
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/v1/store/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var snap store.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	var epochs, ops uint64
	for _, sh := range snap.Shards {
		epochs += sh.Counter("epochs")
		ops += sh.Counter("epoch_ops")
	}
	if epochs == 0 || ops != 32 {
		t.Fatalf("stats report epochs=%d epoch_ops=%d, want all 32 writes epoch-committed", epochs, ops)
	}
}

// TestServerRequestTracing pins the request-id and timing contract:
// a client-supplied X-Request-Id is echoed, a missing one is minted,
// and sampled responses embed the server-side phase breakdown.
func TestServerRequestTracing(t *testing.T) {
	srv, _ := testServer(t)

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/kv/5", strings.NewReader("traced"))
	req.Header.Set("X-Request-Id", "client-abc")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	var put struct {
		Timing *span.Timing `json:"timing"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&put); err != nil {
		t.Fatalf("decode put: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-abc" {
		t.Fatalf("X-Request-Id = %q, want client-abc (propagated)", got)
	}
	if put.Timing == nil {
		t.Fatal("sampled put response missing timing")
	}
	if put.Timing.RequestID != "client-abc" {
		t.Fatalf("timing request_id = %q, want client-abc", put.Timing.RequestID)
	}
	if put.Timing.TotalUs <= 0 {
		t.Fatalf("timing total_us = %d, want > 0", put.Timing.TotalUs)
	}
	if put.Timing.QueueWaitUs+put.Timing.EpochStageUs+put.Timing.CommitClimbUs == 0 {
		t.Fatalf("timing has no serving-path phases: %+v", put.Timing)
	}

	resp, err = http.Get(srv.URL + "/v1/kv/5")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); !strings.HasPrefix(got, "amnt-") {
		t.Fatalf("minted X-Request-Id = %q, want amnt- prefix", got)
	}
}

// TestServerSpansEndpoint pins /v1/spans: JSONL, newest spans, the
// full phase field set.
func TestServerSpansEndpoint(t *testing.T) {
	srv, _ := testServer(t)

	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v1/kv/%d", srv.URL, i), strings.NewReader("x"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/v1/spans?n=2")
	if err != nil {
		t.Fatalf("spans: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("spans returned %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		var rec struct {
			RequestID   string `json:"request_id"`
			Op          string `json:"op"`
			QueueWaitUs *int64 `json:"queue_wait_us"`
			TotalUs     int64  `json:"total_us"`
			StartUnixUs int64  `json:"start_unix_us"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad jsonl line %q: %v", line, err)
		}
		if rec.Op != "kv_put" || rec.QueueWaitUs == nil || rec.StartUnixUs == 0 {
			t.Fatalf("incomplete span record: %s", line)
		}
	}

	if resp, err := http.Get(srv.URL + "/v1/spans?n=bogus"); err != nil {
		t.Fatalf("bad n: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad n status %d, want 400", resp.StatusCode)
		}
	}
}

// TestServerDegraded503Payload pins the machine-readable degradation
// contract: a key on a quarantined shard answers 503 with a
// Retry-After header and a {"reason","retry_after_ms"} body, the
// /v1/health endpoint reports "degraded" with 503, and the healthy
// shard keeps serving throughout.
func TestServerDegraded503Payload(t *testing.T) {
	srv, _ := testServerCfg(t, store.Config{
		Shards:        2,
		ShardMemBytes: 256 << 10,
		Protocol:      "leaf",
		QueueDepth:    64,
		BatchMax:      8,
		CheckpointDir: t.TempDir(),
		HealBackoff:   time.Hour, // keep the shard quarantined for the whole test
	})

	// Key 1 lives on shard 1 (key % shards).
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/kv/1", strings.NewReader("v"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Post(srv.URL+"/v1/quarantine?shard=1", "", nil)
	if err != nil {
		t.Fatalf("quarantine: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quarantine status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/kv/1")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	var degraded struct {
		Error        string `json:"error"`
		Reason       string `json:"reason"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&degraded); err != nil {
		t.Fatalf("decode 503 body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined shard answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After header")
	}
	if degraded.Reason != "failed" || degraded.RetryAfterMS <= 0 {
		t.Fatalf("503 body %+v, want reason=failed with positive retry_after_ms", degraded)
	}

	// The other shard is untouched: key 0 still round-trips.
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/v1/kv/0", strings.NewReader("alive"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("healthy put: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy shard status %d during quarantine", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	defer resp.Body.Close()
	var rep HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || rep.Status != "degraded" {
		t.Fatalf("health = %d %q, want 503 degraded", resp.StatusCode, rep.Status)
	}
	if len(rep.Shards) != 2 || rep.Shards[1].Health != "quarantined" || rep.Shards[1].Serving {
		t.Fatalf("health shards %+v, want shard 1 quarantined", rep.Shards)
	}
	if rep.Shards[0].Health != "serving" {
		t.Fatalf("shard 0 health %q, want serving", rep.Shards[0].Health)
	}
	if rep.Shards[1].Counter("failures") == 0 {
		t.Fatal("quarantined shard reports zero failures")
	}
}

// TestServerQuarantineHealsLive drives the full degradation arc over
// HTTP: quarantine a shard, watch /v1/health flip back to 200 "ok"
// as the supervised heal loop recovers it, and verify the data
// survived.
func TestServerQuarantineHealsLive(t *testing.T) {
	srv, _ := testServerCfg(t, store.Config{
		Shards:        2,
		ShardMemBytes: 256 << 10,
		Protocol:      "leaf",
		QueueDepth:    64,
		BatchMax:      8,
		CheckpointDir: t.TempDir(),
		HealBackoff:   2 * time.Millisecond,
	})

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/kv/3", strings.NewReader("survives"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Post(srv.URL+"/v1/quarantine?shard=1", "", nil)
	if err != nil {
		t.Fatalf("quarantine: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quarantine status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	var rep HealthReport
	for {
		resp, err := http.Get(srv.URL + "/v1/health")
		if err != nil {
			t.Fatalf("health: %v", err)
		}
		code := resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode health: %v", err)
		}
		if code == http.StatusOK && rep.Status == "ok" && rep.Shards[1].Counter("heals") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never healed: %d %+v", code, rep)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rep.Shards[1].Counter("heal_attempts") == 0 {
		t.Fatal("healed shard reports zero heal attempts")
	}

	resp, err = http.Get(srv.URL + "/v1/kv/3")
	if err != nil {
		t.Fatalf("get after heal: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get after heal status %d", resp.StatusCode)
	}
	var out struct {
		ValueB64 string `json:"value_b64"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v, _ := base64.StdEncoding.DecodeString(out.ValueB64); string(v) != "survives" {
		t.Fatalf("post-heal value %q, want survives", v)
	}
}

// clusterPair boots two single-node stores hosting disjoint halves
// of a 4-partition space, with the ring state installed on both.
func clusterPair(t *testing.T) (srvA, srvB *httptest.Server, ring *cluster.State) {
	t.Helper()
	members := []cluster.Member{{ID: "a", Addr: "http://a.invalid"}, {ID: "b", Addr: "http://b.invalid"}}
	ring = cluster.InitialState(4, 0, members)
	mk := func(id string) *httptest.Server {
		owned := cluster.OwnedBy(ring, id)
		if owned == nil {
			owned = []int{}
		}
		srv, _, _ := testNode(t, store.Config{
			Shards:        len(owned),
			Partitions:    4,
			Owned:         owned,
			ShardMemBytes: 256 << 10,
			Protocol:      "leaf",
			QueueDepth:    64,
			BatchMax:      8,
		}, Options{NodeID: id, Advertise: "http://" + id + ".invalid", Ring: ring})
		return srv
	}
	return mk("a"), mk("b"), ring
}

// TestServer421OwnershipHint pins the not-my-shard contract: a key
// whose partition lives elsewhere answers 421 Misdirected Request
// with the owner in the body, the X-Amnt-Owner header, and a
// Location pointing at the same path on the owning node.
func TestServer421OwnershipHint(t *testing.T) {
	srvA, _, ring := clusterPair(t)

	// Find a partition owned by b and probe it on a.
	bParts := cluster.OwnedBy(ring, "b")
	if len(bParts) == 0 {
		t.Skip("ring gave node b nothing at 4 partitions") // deterministic; will not happen
	}
	key := uint64(bParts[0])
	resp, err := http.Get(fmt.Sprintf("%s/v1/kv/%d", srvA.URL, key))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted get answered %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Amnt-Owner"); got != "b" {
		t.Fatalf("X-Amnt-Owner = %q, want b", got)
	}
	wantLoc := fmt.Sprintf("http://b.invalid/v1/kv/%d", key)
	if got := resp.Header.Get("Location"); got != wantLoc {
		t.Fatalf("Location = %q, want %q", got, wantLoc)
	}
	var hint cluster.OwnershipHint
	if err := json.NewDecoder(resp.Body).Decode(&hint); err != nil {
		t.Fatalf("decode hint: %v", err)
	}
	if hint.Partition != bParts[0] || hint.Owner != "b" || hint.OwnerAddr != "http://b.invalid" {
		t.Fatalf("hint %+v, want partition %d owned by b", hint, bParts[0])
	}
	if hint.RingEpoch != ring.Epoch {
		t.Fatalf("hint epoch %d, want %d", hint.RingEpoch, ring.Epoch)
	}
}

// TestServerHealthIdentity pins the cluster identity block on
// /v1/health: node id, advertise URL, owned partitions, ring epoch.
func TestServerHealthIdentity(t *testing.T) {
	srvA, _, ring := clusterPair(t)
	resp, err := http.Get(srvA.URL + "/v1/health")
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	defer resp.Body.Close()
	var rep HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Node == nil {
		t.Fatal("cluster-mode health has no node identity block")
	}
	if rep.Node.ID != "a" || rep.Node.Advertise != "http://a.invalid" {
		t.Fatalf("identity %+v", rep.Node)
	}
	if rep.Node.Partitions != 4 || rep.Node.RingEpoch != ring.Epoch {
		t.Fatalf("identity %+v, want 4 partitions at epoch %d", rep.Node, ring.Epoch)
	}
	want := cluster.OwnedBy(ring, "a")
	if len(rep.Node.Owned) != len(want) {
		t.Fatalf("owned %v, want %v", rep.Node.Owned, want)
	}
}

// TestServerRingExchange pins GET/POST /v1/ring: the cached state is
// served, a newer one installs, an older one is refused.
func TestServerRingExchange(t *testing.T) {
	srvA, _, ring := clusterPair(t)

	resp, err := http.Get(srvA.URL + "/v1/ring")
	if err != nil {
		t.Fatalf("get ring: %v", err)
	}
	var got cluster.State
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || got.Epoch != ring.Epoch || len(got.Assign) != 4 {
		t.Fatalf("ring = %+v, %v", got, err)
	}

	newer := ring.Clone()
	newer.Epoch++
	body, _ := json.Marshal(newer)
	resp, err = http.Post(srvA.URL+"/v1/ring", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post ring: %v", err)
	}
	var ack struct {
		Installed bool   `json:"installed"`
		Epoch     uint64 `json:"epoch"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || !ack.Installed || ack.Epoch != newer.Epoch {
		t.Fatalf("install ack %+v, %v", ack, err)
	}

	stale, _ := json.Marshal(ring)
	resp, err = http.Post(srvA.URL+"/v1/ring", "application/json", bytes.NewReader(stale))
	if err != nil {
		t.Fatalf("post stale ring: %v", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || ack.Installed || ack.Epoch != newer.Epoch {
		t.Fatalf("stale install ack %+v, %v", ack, err)
	}
}

// TestMigrationOverHTTP drives a full live hand-off through the
// /v1/migrate surface with the cluster.Migrator, under writes landing
// between the copy and the fence, and proves zero acknowledged
// writes are lost and the fence maps to a retryable 503.
func TestMigrationOverHTTP(t *testing.T) {
	srvA, srvB, ring := clusterPair(t)
	aParts := cluster.OwnedBy(ring, "a")
	if len(aParts) == 0 {
		t.Fatal("node a owns nothing")
	}
	part := aParts[0]
	key := func(i int) uint64 { return uint64(part + 4*i) }
	put := func(srv *httptest.Server, k uint64, v string) int {
		req, _ := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v1/kv/%d", srv.URL, k), strings.NewReader(v))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 30; i++ {
		if code := put(srvA, key(i), fmt.Sprintf("v%d", i)); code != http.StatusOK {
			t.Fatalf("seed put %d: status %d", i, code)
		}
	}

	flipped := false
	m := &cluster.Migrator{
		DeltaBatch: 8,
		Flip: func(_ context.Context, p int, to string) error {
			if p != part || to != "b" {
				return fmt.Errorf("flip %d to %s", p, to)
			}
			flipped = true
			return nil
		},
	}
	rep, err := m.Run(context.Background(), part, srvA.URL, "a", srvB.URL, "b")
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if !flipped || rep.ImageBytes == 0 {
		t.Fatalf("report %+v (flipped=%v)", rep, flipped)
	}

	// Source refuses the partition now (421), destination serves it.
	resp, err := http.Get(fmt.Sprintf("%s/v1/kv/%d", srvA.URL, key(0)))
	if err != nil {
		t.Fatalf("src get: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("detached source answered %d, want 421", resp.StatusCode)
	}
	for i := 0; i < 30; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/kv/%d", srvB.URL, key(i)))
		if err != nil {
			t.Fatalf("dst get %d: %v", i, err)
		}
		var out struct {
			ValueB64 string `json:"value_b64"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("dst get %d: %d, %v", i, resp.StatusCode, err)
		}
		if v, _ := base64.StdEncoding.DecodeString(out.ValueB64); string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("dst get %d = %q", i, v)
		}
	}
	if code := put(srvB, key(30), "post-migration"); code != http.StatusOK {
		t.Fatalf("post-migration put: status %d", code)
	}
}

// TestFenced503OverHTTP pins the fence degradation contract end to
// end: a fenced partition nacks writes with 503 reason "fenced" and
// a retry hint, keeps serving reads, and resumes after abort.
func TestFenced503OverHTTP(t *testing.T) {
	srvA, _, ring := clusterPair(t)
	part := cluster.OwnedBy(ring, "a")[0]
	k := uint64(part)

	req, _ := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v1/kv/%d", srvA.URL, k), strings.NewReader("v"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	for _, step := range []string{"begin", "fence"} {
		resp, err := http.Post(fmt.Sprintf("%s/v1/migrate/%s?part=%d", srvA.URL, step, part), "", nil)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", step, resp.StatusCode)
		}
	}

	req, _ = http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v1/kv/%d", srvA.URL, k), strings.NewReader("x"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("fenced put: %v", err)
	}
	var body struct {
		Reason       string `json:"reason"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode fenced body: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || body.Reason != "fenced" || body.RetryAfterMS <= 0 {
		t.Fatalf("fenced put = %d %+v, want 503 fenced with retry hint", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fenced 503 missing Retry-After")
	}

	// Reads keep serving through the fence.
	resp, err = http.Get(fmt.Sprintf("%s/v1/kv/%d", srvA.URL, k))
	if err != nil {
		t.Fatalf("fenced get: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fenced get status %d, want 200", resp.StatusCode)
	}

	// Health shows the fence; abort lifts it.
	resp, err = http.Get(srvA.URL + "/v1/health")
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	var rep HealthReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode health: %v", err)
	}
	fenced := false
	for _, sh := range rep.Shards {
		fenced = fenced || sh.Fenced
	}
	if !fenced {
		t.Fatalf("health shows no fenced shard: %+v", rep.Shards)
	}

	resp, err = http.Post(fmt.Sprintf("%s/v1/migrate/abort?part=%d", srvA.URL, part), "", nil)
	if err != nil {
		t.Fatalf("abort: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	req, _ = http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v1/kv/%d", srvA.URL, k), strings.NewReader("resumed"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post-abort put: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-abort put status %d", resp.StatusCode)
	}
}

// TestIntrospectionFollowsLiveShards: /metrics carries per-shard
// columns for the partitions hosted at scrape time, so a partition
// attached by migration after the telemetry server started gets its
// columns, and a detached one loses them.
func TestIntrospectionFollowsLiveShards(t *testing.T) {
	members := []cluster.Member{{ID: "a"}, {ID: "b"}}
	ring := cluster.InitialState(4, 0, members)
	mk := func(id string) (*Node, *store.Store) {
		owned := cluster.OwnedBy(ring, id)
		_, n, st := testNode(t, store.Config{
			Shards:        len(owned),
			Partitions:    4,
			Owned:         owned,
			ShardMemBytes: 256 << 10,
			Protocol:      "leaf",
			QueueDepth:    64,
			BatchMax:      8,
		}, Options{NodeID: id, Ring: ring})
		return n, st
	}
	_, stA := mk("a")
	nB, stB := mk("b")
	srv, err := telemetry.Serve("127.0.0.1:0", nB.Introspection())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	part := cluster.OwnedBy(ring, "a")[0]
	column := fmt.Sprintf("amnt_store_shard%d_gets ", part)
	hasColumn := func() bool {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Contains(body, []byte("\n"+column))
	}
	if hasColumn() {
		t.Fatalf("node b serves %q before hosting partition %d", column, part)
	}
	ctx := context.Background()
	img, err := stA.MigrateBegin(ctx, part)
	if err != nil {
		t.Fatal(err)
	}
	if err := stB.MigrateAttach(part, bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	if err := stB.MigrateActivate(part); err != nil {
		t.Fatal(err)
	}
	if !hasColumn() {
		t.Fatalf("attached partition %d has no %q column", part, column)
	}
	if err := stB.MigrateDetach(ctx, part); err != nil {
		t.Fatal(err)
	}
	if hasColumn() {
		t.Fatalf("detached partition %d still has a %q column", part, column)
	}
}
