package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func newTestPolicy(max int, base time.Duration) *retryPolicy {
	return &retryPolicy{max: max, base: base, rng: rand.New(rand.NewSource(1))}
}

// TestRetryHintPrecedence pins the hint order: the JSON
// retry_after_ms field wins over the Retry-After header, which wins
// over nothing.
func TestRetryHintPrecedence(t *testing.T) {
	resp := &http.Response{Header: http.Header{"Retry-After": []string{"2"}}}
	if got := retryHint(resp, []byte(`{"retry_after_ms": 25}`)); got != 25*time.Millisecond {
		t.Fatalf("body hint = %v, want 25ms", got)
	}
	if got := retryHint(resp, []byte(`{"error":"x"}`)); got != 2*time.Second {
		t.Fatalf("header hint = %v, want 2s", got)
	}
	if got := retryHint(&http.Response{Header: http.Header{}}, nil); got != 0 {
		t.Fatalf("no hint = %v, want 0", got)
	}
}

// TestRetryWaitJitterAndGrowth checks the backoff shape: jittered
// within [d/2, 3d/2], doubling per attempt, and never below the
// server hint.
func TestRetryWaitJitterAndGrowth(t *testing.T) {
	rp := newTestPolicy(4, 8*time.Millisecond)
	for n := 1; n <= 4; n++ {
		d := rp.base << uint(n-1)
		for i := 0; i < 100; i++ {
			w := rp.wait(n, 0)
			if w < d/2 || w > d+d/2 {
				t.Fatalf("wait(%d) = %v outside [%v, %v]", n, w, d/2, d+d/2)
			}
		}
	}
	// A server hint above the local base becomes the jitter center.
	hint := 100 * time.Millisecond
	for i := 0; i < 100; i++ {
		if w := rp.wait(1, hint); w < hint/2 {
			t.Fatalf("hinted wait %v below %v", w, hint/2)
		}
	}
}

// TestRetryDoRecovers sends one put through the request loop to a
// server that answers 503 with a retry hint twice and then succeeds:
// the op ends ok, the retried attempts are counted, and nothing lands
// in errLat.
func TestRetryDoRecovers(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"recovering","reason":"recovering","retry_after_ms":1}`))
			return
		}
		w.Write([]byte(`{"ok":true,"key":7}`))
	}))
	defer srv.Close()

	tl := newTally()
	c := &client{
		addr: srv.URL, batch: 1, httpc: &http.Client{Timeout: 5 * time.Second},
		rp: newTestPolicy(4, time.Millisecond), t: tl, buckets: map[string]*bucket{},
	}
	c.run([]op{{key: 7, write: true}})
	if tl.Puts != 1 || tl.Overloads+tl.Errors != 0 {
		t.Fatalf("puts=%d overloads=%d errors=%d, want the one put ok", tl.Puts, tl.Overloads, tl.Errors)
	}
	if tl.Retries != 2 {
		t.Fatalf("retries = %d, want 2", tl.Retries)
	}
	if !tl.errLat.Empty() {
		t.Fatal("retried attempts leaked into errLat")
	}
}

// TestRetryDoExhausts: a server that always 503s burns max retries
// and hands the final 503 back for overload accounting.
func TestRetryDoExhausts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"queue full","reason":"overloaded","retry_after_ms":1}`))
	}))
	defer srv.Close()

	rp := newTestPolicy(3, time.Millisecond)
	httpc := &http.Client{Timeout: 5 * time.Second}
	a, retries := rp.do(httpc, func() *http.Request {
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		return req
	})
	if a.resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("final status %d, want 503", a.resp.StatusCode)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("attempts = %d, want 4 (1 + 3 retries)", got)
	}
	if retries != 3 {
		t.Fatalf("retries = %d, want 3", retries)
	}
}

// TestRetryDisabled: a policy with no retries sends one attempt and
// never sleeps.
func TestRetryDisabled(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	rp := newTestPolicy(0, time.Millisecond)
	httpc := &http.Client{Timeout: 5 * time.Second}
	a, retries := rp.do(httpc, func() *http.Request {
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		return req
	})
	if a.resp.StatusCode != http.StatusServiceUnavailable || calls.Load() != 1 || retries != 0 {
		t.Fatalf("status=%d calls=%d retries=%d, want one un-retried 503", a.resp.StatusCode, calls.Load(), retries)
	}
}
