package e2e

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"amnt/bench/gen"
)

// timing mirrors the `timing` object the servers embed in a response
// when span sampling is on. The benchmark decodes it by its JSON
// names, so it depends on the wire format only.
type timing struct {
	QueueWaitUs   float64 `json:"queue_wait_us"`
	EpochStageUs  float64 `json:"epoch_stage_us"`
	CommitClimbUs float64 `json:"commit_climb_us"`
	PersistUs     float64 `json:"persist_us"`
	ForwardUs     float64 `json:"forward_us"`
	AckUs         float64 `json:"ack_us"`
	ReadVerifyUs  float64 `json:"read_verify_us"`
	TotalUs       float64 `json:"total_us"`
}

type kvResponse struct {
	Key      uint64  `json:"key"`
	ValueB64 string  `json:"value_b64"`
	Timing   *timing `json:"timing"`
}

type batchResult struct {
	Key      uint64 `json:"key"`
	ValueB64 string `json:"value_b64"`
	Error    string `json:"error"`
}

type batchResponse struct {
	Puts   []batchResult `json:"puts"`
	Gets   []batchResult `json:"gets"`
	Timing *timing       `json:"timing"`
}

// tally counts key operations against the client's model. An
// operation fails when it is refused, times out, errors, or returns a
// value other than the stamp the model expects; only the last is a
// wrong output (Mismatched), the rest are unavailability.
type tally struct {
	Attempted  uint64
	Failed     uint64
	Mismatched uint64
	// Retryable counts per-key answers that carried a not-owned or
	// otherwise retryable error (the benchmark never retries).
	Retryable uint64
	firstErr  string
}

func (t *tally) fail(n uint64, format string, args ...any) {
	t.Failed += n
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func (t *tally) mismatch(format string, args ...any) {
	t.Mismatched++
	t.fail(1, format, args...)
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Mismatched += o.Mismatched
	t.Retryable += o.Retryable
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// lats holds one request class's round-trip times in nanoseconds.
type lats []int64

// Request classes.
const (
	classGet = iota
	classPut
	classBatch
)

// client is one closed-loop caller: one goroutine, one keep-alive
// connection, a disjoint slice of the keyspace, and an exact model of
// the version it last had acknowledged for each of its keys.
type client struct {
	id     int
	base   string
	hc     *http.Client
	stream *gen.Stream
	// model[slot] is the acknowledged version of the slot's key.
	// unknown marks keys whose last put was not acknowledged: their
	// stored version is undetermined until the next acknowledged put.
	model   []uint64
	unknown map[uint64]bool

	tally
	get, put, batch lats
	// Key operations sent, by kind, and the size of the last response
	// of each request class, for the ladder and the null-handler probe.
	putOps, getOps uint64
	respLen        [3]int
	// crash-recover only: recover→flush times and completed cycles.
	recover lats
	cycles  uint64
	// tolerateRecovering is set between crash-recover's /v1/recover and
	// the end of its barrier. amntd documents 503 {"reason":
	// "recovering"} as a degradation answer a client backs off from, and
	// it has a window, between the end of a background rebuild and the
	// end of its audit, in which it answers every request that way
	// (README, known defects). On a two-core host both cores rebuild, so
	// about one cycle in a thousand the client is descheduled long
	// enough for its get or flush to land there. Inside the window such
	// an answer is counted in refusals and reported, and is neither a
	// failed operation nor a latency sample; the key it asked for is
	// still read back and checked after the barrier.
	tolerateRecovering bool
	refusals           uint64

	tr      *tracer           // nil when untraced
	pending map[uint64]uint64 // key → version after the current batch's puts
	wire    gen.Batch         // the current batch's request body
	buf     bytes.Buffer      // the current response body
	body    []byte            // the current PUT's value
}

func newClient(id int, base string, stream *gen.Stream, tr *tracer) *client {
	return &client{
		id:     id,
		base:   base,
		stream: stream,
		model:  make([]uint64, stream.Slots()),
		tr:     tr,
		// One connection per client, kept alive; a refused or stalled
		// request is a failed operation, never retried.
		hc: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
		unknown: map[uint64]bool{},
		pending: map[uint64]uint64{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// resetMeasurements drops everything recorded so far but keeps the
// model, so a warm-up can precede the measured window.
func (c *client) resetMeasurements() {
	c.tally = tally{}
	c.get, c.put, c.batch, c.recover = c.get[:0], c.put[:0], c.batch[:0], c.recover[:0]
	c.cycles, c.refusals, c.putOps, c.getOps = 0, 0, 0, 0
}

// do sends one request and reads the whole response. The returned
// body is only valid until the next call.
func (c *client) do(method, url string, body []byte, reqID string) (status int, resp []byte, rtt time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	t0 := time.Now()
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(r.Body)
	r.Body.Close()
	return r.StatusCode, c.buf.Bytes(), time.Since(t0), err
}

// checkValue compares a returned value with the model.
func (c *client) checkValue(key uint64, valueB64 string) {
	if c.unknown[key] {
		return
	}
	v, err := base64.StdEncoding.DecodeString(valueB64)
	if err != nil {
		c.mismatch("key %d: undecodable value %q", key, valueB64)
		return
	}
	want := c.model[c.stream.Slot(key)]
	if k, ver, ok := gen.Stamp(v); !ok || k != key || ver != want {
		c.mismatch("key %d: got stamp (key %d, version %d, well-formed %v), model has version %d", key, k, ver, ok, want)
	}
}

// getOne issues GET /v1/kv/{key} and checks the value.
func (c *client) getOne(key uint64) {
	sp := c.tr.begin(c.id)
	c.Attempted++
	url := c.base + "/v1/kv/" + strconv.FormatUint(key, 10)
	sp.mark(spanEncode)
	status, body, rtt, err := c.do(http.MethodGet, url, nil, sp.requestID())
	sp.mark(spanRoundTrip)
	if err != nil || status != http.StatusOK {
		if !c.refusedRecovering(status, body) {
			c.fail(1, "GET key %d: status %d err %v body %.200s", key, status, err, body)
		}
		sp.end(nil, rtt)
		return
	}
	var out kvResponse
	if err := json.Unmarshal(body, &out); err != nil {
		c.fail(1, "GET key %d: bad body: %v", key, err)
		sp.end(nil, rtt)
		return
	}
	sp.mark(spanDecode)
	if out.Key != key {
		c.mismatch("GET key %d answered for key %d", key, out.Key)
	} else {
		c.checkValue(key, out.ValueB64)
	}
	sp.mark(spanVerify)
	sp.end(out.Timing, rtt)
	c.get = append(c.get, int64(rtt))
	c.getOps++
	c.respLen[classGet] = len(body)
}

// putOne issues PUT /v1/kv/{key} with the key's next version.
func (c *client) putOne(key uint64) {
	sp := c.tr.begin(c.id)
	c.Attempted++
	slot := c.stream.Slot(key)
	next := c.model[slot] + 1
	url := c.base + "/v1/kv/" + strconv.FormatUint(key, 10)
	c.body = gen.AppendValue(c.body[:0], key, next)
	sp.mark(spanEncode)
	status, body, rtt, err := c.do(http.MethodPut, url, c.body, sp.requestID())
	sp.mark(spanRoundTrip)
	if err != nil || status != http.StatusOK {
		c.unknown[key] = true
		c.fail(1, "PUT key %d: status %d err %v body %.200s", key, status, err, body)
		sp.end(nil, rtt)
		return
	}
	var tm *timing
	if c.tr != nil {
		var out kvResponse
		if json.Unmarshal(body, &out) == nil {
			tm = out.Timing
		}
	}
	sp.mark(spanDecode)
	c.model[slot] = next
	delete(c.unknown, key)
	sp.mark(spanVerify)
	sp.end(tm, rtt)
	c.put = append(c.put, int64(rtt))
	c.putOps++
	c.respLen[classPut] = len(body)
}

// batchOps issues one POST /v1/batch carrying ops and checks every
// per-key result. The server applies a batch's puts (in order) before
// its gets, and the model does the same.
func (c *client) batchOps(ops []gen.Op) {
	sp := c.tr.begin(c.id)
	c.Attempted += uint64(len(ops))
	c.wire.Reset()
	clear(c.pending)
	for _, op := range ops {
		if !op.Put {
			c.wire.Get(op.Key)
			continue
		}
		next, ok := c.pending[op.Key]
		if !ok {
			next = c.model[c.stream.Slot(op.Key)]
		}
		next++
		c.pending[op.Key] = next
		c.wire.Put(op.Key, next)
	}
	puts, gets := c.wire.PutKeys, c.wire.GetKeys
	b := c.wire.Body()
	sp.mark(spanEncode)
	status, body, rtt, err := c.do(http.MethodPost, c.base+"/v1/batch", b, sp.requestID())
	sp.mark(spanRoundTrip)
	if err != nil || status != http.StatusOK {
		for _, k := range puts {
			c.unknown[k] = true
		}
		c.fail(uint64(len(ops)), "POST /v1/batch: status %d err %v body %.200s", status, err, body)
		sp.end(nil, rtt)
		return
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil || len(out.Puts) != len(puts) || len(out.Gets) != len(gets) {
		for _, k := range puts {
			c.unknown[k] = true
		}
		c.fail(uint64(len(ops)), "POST /v1/batch: bad body (%d/%d puts, %d/%d gets): %v", len(out.Puts), len(puts), len(out.Gets), len(gets), err)
		sp.end(nil, rtt)
		return
	}
	sp.mark(spanDecode)
	// Puts first: a key put twice in one batch ends at its last
	// version; if any of its puts was refused the key is undetermined.
	var refused map[uint64]bool
	for i, r := range out.Puts {
		k := puts[i]
		if r.Key == k && r.Error == "" {
			continue
		}
		if refused == nil {
			refused = map[uint64]bool{}
		}
		refused[k] = true
		if r.Key != k {
			c.mismatch("batch put %d answered for key %d, sent %d", i, r.Key, k)
		} else {
			c.perKeyError(r.Error, "batch put key %d: %s", k, r.Error)
		}
	}
	for k, ver := range c.pending {
		if refused[k] {
			c.unknown[k] = true
			continue
		}
		c.model[c.stream.Slot(k)] = ver
		delete(c.unknown, k)
	}
	for i, r := range out.Gets {
		k := gets[i]
		switch {
		case r.Key != k:
			c.mismatch("batch get %d answered for key %d, sent %d", i, r.Key, k)
		case r.Error != "":
			c.perKeyError(r.Error, "batch get key %d: %s", k, r.Error)
		default:
			c.checkValue(k, r.ValueB64)
		}
	}
	sp.mark(spanVerify)
	sp.end(out.Timing, rtt)
	c.batch = append(c.batch, int64(rtt))
	c.putOps += uint64(len(puts))
	c.getOps += uint64(len(gets))
	c.respLen[classBatch] = len(body)
}

// perKeyError charges one failed key operation, noting whether the
// server marked it retryable (a moved or recovering partition).
func (c *client) perKeyError(msg, format string, args ...any) {
	if strings.Contains(msg, "not owned") || strings.Contains(msg, "retryable") {
		c.Retryable++
	}
	c.fail(1, format, args...)
}

// control issues a bodyless POST; a non-200 answer is a failed
// operation.
func (c *client) control(path string) {
	c.Attempted++
	status, body, _, err := c.do(http.MethodPost, c.base+path, nil, "")
	if err != nil || status != http.StatusOK {
		c.fail(1, "POST %s: status %d err %v body %.200s", path, status, err, body)
	}
}

// preload stores version 1 of every key of the client's slice in
// 128-put batches, checking every acknowledgement.
func (c *client) preload() {
	ops := make([]gen.Op, 0, 128)
	for slot := uint64(0); slot < c.stream.Slots(); slot++ {
		ops = append(ops, gen.Op{Key: c.stream.Key(slot), Put: true})
		if len(ops) == cap(ops) {
			c.batchOps(ops)
			ops = ops[:0]
		}
	}
	if len(ops) > 0 {
		c.batchOps(ops)
	}
}
