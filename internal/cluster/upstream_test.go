package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"amnt/internal/wire"
)

// batchResult is one /v1/batch answer through the proxy, values
// decoded.
type batchResult struct {
	putErrs, getErrs []string
	values           []string
}

// postBatch sends puts (key → value) and gets through base's
// /v1/batch and decodes the answer; err covers transport and status.
func postBatch(base string, puts map[uint64]string, gets []uint64) (*batchResult, error) {
	var ops []wire.Op
	for k, v := range puts {
		ops = append(ops, wire.Op{Key: k, Value: []byte(v)})
	}
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(wire.AppendRequest(nil, ops, gets)))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var out wire.Response
	if err := out.Decode(raw); err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("batch answered %d %s (%v)", resp.StatusCode, raw, err)
	}
	if len(out.Puts) != len(ops) || len(out.Gets) != len(gets) {
		return nil, fmt.Errorf("batch answered %d puts, %d gets for %d, %d", len(out.Puts), len(out.Gets), len(ops), len(gets))
	}
	res := &batchResult{}
	var buf wire.Buf
	for i, op := range out.Puts {
		if op.Key != ops[i].Key {
			return nil, fmt.Errorf("put result %d is for key %d, want %d", i, op.Key, ops[i].Key)
		}
		res.putErrs = append(res.putErrs, op.Err)
	}
	for i, op := range out.Gets {
		if op.Key != gets[i] {
			return nil, fmt.Errorf("get result %d is for key %d, want %d", i, op.Key, gets[i])
		}
		v, _ := buf.Value(op.B64)
		res.getErrs = append(res.getErrs, op.Err)
		res.values = append(res.values, string(v))
	}
	return res, nil
}

// roundOf writes keys 0..7 (every partition, so every node) with
// values tagged by round and reads them back in the same batch; it
// fails the test on any per-key error or wrong value.
func roundOf(t *testing.T, base, round string) {
	t.Helper()
	puts, gets := map[uint64]string{}, []uint64{}
	for k := uint64(0); k < 8; k++ {
		puts[k] = fmt.Sprintf("%s-%d", round, k)
		gets = append(gets, k)
	}
	res, err := postBatch(base, puts, gets)
	if err != nil {
		t.Fatalf("%s: %v", round, err)
	}
	for i, k := range gets {
		if res.getErrs[i] != "" || res.values[i] != puts[k] {
			t.Fatalf("%s: key %d answered %q %q, want %q", round, k, res.values[i], res.getErrs[i], puts[k])
		}
	}
	for i, e := range res.putErrs {
		if e != "" {
			t.Fatalf("%s: put %d: %s", round, i, e)
		}
	}
	if code := proxyPut(t, base, 3, round+"-kv"); code != http.StatusOK {
		t.Fatalf("%s: kv put answered %d", round, code)
	}
	if code, v := proxyGet(t, base, 3); code != http.StatusOK || v != round+"-kv" {
		t.Fatalf("%s: kv get answered %d %q", round, code, v)
	}
}

// restartOnSameAddr closes srv, dropping every connection, and serves
// its handler again on the same address.
func restartOnSameAddr(t *testing.T, srv *httptest.Server) {
	t.Helper()
	addr := srv.Listener.Addr().String()
	srv.Close()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	again := httptest.NewUnstartedServer(srv.Config.Handler)
	again.Listener.Close()
	again.Listener = l
	again.Start()
	t.Cleanup(again.Close)
}

// TestProxyStaleConnections pins the retry-once rule: pooled
// connections a node dropped (every client connection closed, or the
// node restarted on its address) cost the next batch and the next kv
// forward nothing.
func TestProxyStaleConnections(t *testing.T) {
	c := startCluster(t, 2)
	roundOf(t, c.proxy, "warm")
	for _, srv := range c.nodes {
		srv.CloseClientConnections()
	}
	roundOf(t, c.proxy, "dropped")
	for _, srv := range c.nodes {
		restartOnSameAddr(t, srv)
	}
	roundOf(t, c.proxy, "restarted")
}

// TestProxyNodeGone pins what a vanished node costs: its keys fail in
// place with a retryable error well within ReqTimeout, the other
// node's keys are served, and a kv forward to it answers 502.
func TestProxyNodeGone(t *testing.T) {
	c := startCluster(t, 2)
	roundOf(t, c.proxy, "warm")
	c.nodes["n2"].Close()

	puts := map[uint64]string{}
	var gets []uint64
	for k := uint64(0); k < 8; k++ {
		puts[k] = "after"
		gets = append(gets, k)
	}
	start := time.Now()
	res, err := postBatch(c.proxy, puts, gets)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("batch took %v, past the 5s ReqTimeout", took)
	}
	for i, k := range gets {
		gone := c.ring.Owner(int(k%8)) == "n2"
		if e := res.getErrs[i]; gone != strings.HasSuffix(e, "(retryable)") || gone != (e != "") {
			t.Errorf("key %d (owner gone %v): get error %q", k, gone, e)
		}
	}
	for k := uint64(0); k < 8; k++ {
		if c.ring.Owner(int(k%8)) != "n2" {
			continue
		}
		if code := proxyPut(t, c.proxy, k, "x"); code != http.StatusBadGateway {
			t.Errorf("kv put of key %d to the gone node answered %d, want 502", k, code)
		}
		break
	}
}

// TestProxyPooledConnectionsHammer drives 8 clients × 200 batches
// through one proxy, each on its own keys across every partition, and
// checks every value read back is the one that client just wrote: an
// answer on a pooled connection never reaches another request.
func TestProxyPooledConnectionsHammer(t *testing.T) {
	c := startCluster(t, 2)
	const clients, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				puts, gets := map[uint64]string{}, []uint64{}
				for j := uint64(0); j < 8; j++ {
					k := uint64(g)*8 + j
					puts[k] = fmt.Sprintf("g%d-r%d-k%d", g, r, k)
					gets = append(gets, k)
				}
				res, err := postBatch(c.proxy, puts, gets)
				if err != nil {
					t.Errorf("client %d round %d: %v", g, r, err)
					return
				}
				for i, k := range gets {
					if res.getErrs[i] != "" || res.values[i] != puts[k] {
						t.Errorf("client %d round %d key %d: got %q %q, want %q", g, r, k, res.values[i], res.getErrs[i], puts[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
