package e2e

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Client-side span names: one root per request, and four children
// that cover it end to end.
const (
	spanRequest   = "request"
	spanEncode    = "encode"
	spanRoundTrip = "round_trip"
	spanDecode    = "decode"
	spanVerify    = "verify"
)

// Span is one recorded interval. Start and End are nanoseconds since
// the tracer was created; Parent is the id of the span that caused it
// (0 for a request root). Spans of one request share RequestID, which
// is also sent as X-Request-Id so the server's own timing for the
// request carries the same identifier.
type Span struct {
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent"`
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	RequestID string `json:"request_id"`
}

// tracer keeps one traced run's spans and per-request samples in
// memory; nothing is written until the run ends. Each client
// goroutine owns one clientTrace, so recording takes no lock.
type tracer struct {
	workload string
	epoch    time.Time
	clients  []*clientTrace
}

type clientTrace struct {
	spans  []Span
	nextID int64
	seq    int64
	cur    reqSpan
	// Per-request samples, microseconds.
	encode, decode, verify, request, rtt []float64
	// Server-reported phases for requests whose response carried a
	// timing object; residual is round trip minus the server's total
	// (minus forward for proxied requests, in proxyResidual).
	queueWait, epochStage, commitClimb, persist, ack, readVerify []float64
	serverTotal, httpResidual, forward, proxyResidual            []float64
}

func newTracer(workload string, clients int) *tracer {
	t := &tracer{workload: workload, epoch: time.Now()}
	for i := 0; i < clients; i++ {
		t.clients = append(t.clients, &clientTrace{nextID: int64(i) << 40})
	}
	return t
}

// reqSpan is the request being traced on one client. A nil *reqSpan
// (untraced run) accepts every call and does nothing.
type reqSpan struct {
	t      *tracer
	c      *clientTrace
	id     int64
	reqID  string
	start  time.Time
	last   time.Time
	client int
}

func (t *tracer) begin(client int) *reqSpan {
	if t == nil {
		return nil
	}
	c := t.clients[client]
	c.seq++
	c.nextID++
	now := time.Now()
	c.cur = reqSpan{
		t: t, c: c, id: c.nextID, client: client, start: now, last: now,
		reqID: "bench-" + t.workload + "-" + strconv.Itoa(client) + "-" + strconv.FormatInt(c.seq, 10),
	}
	return &c.cur
}

func (s *reqSpan) requestID() string {
	if s == nil {
		return ""
	}
	return s.reqID
}

// mark closes the child span that began at the previous mark (or at
// the request's start).
func (s *reqSpan) mark(name string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.c.nextID++
	s.c.spans = append(s.c.spans, Span{
		ID: s.c.nextID, Parent: s.id, Name: name, RequestID: s.reqID,
		Start: int64(s.last.Sub(s.t.epoch)), End: int64(now.Sub(s.t.epoch)),
	})
	us := float64(now.Sub(s.last)) / 1e3
	switch name {
	case spanEncode:
		s.c.encode = append(s.c.encode, us)
	case spanDecode:
		s.c.decode = append(s.c.decode, us)
	case spanVerify:
		s.c.verify = append(s.c.verify, us)
	}
	s.last = now
}

// end closes the request's root span and files the server's phase
// breakdown, when the response carried one, next to the client's own
// round trip.
func (s *reqSpan) end(tm *timing, rtt time.Duration) {
	if s == nil {
		return
	}
	now := time.Now()
	c := s.c
	c.spans = append(c.spans, Span{
		ID: s.id, Name: spanRequest, RequestID: s.reqID,
		Start: int64(s.start.Sub(s.t.epoch)), End: int64(now.Sub(s.t.epoch)),
	})
	c.request = append(c.request, float64(now.Sub(s.start))/1e3)
	rttUs := float64(rtt) / 1e3
	c.rtt = append(c.rtt, rttUs)
	if tm == nil {
		return
	}
	// A phase the request never entered reports 0 and is no sample.
	add := func(dst *[]float64, v float64) {
		if v > 0 {
			*dst = append(*dst, v)
		}
	}
	add(&c.queueWait, tm.QueueWaitUs)
	add(&c.epochStage, tm.EpochStageUs)
	add(&c.commitClimb, tm.CommitClimbUs)
	add(&c.persist, tm.PersistUs)
	add(&c.ack, tm.AckUs)
	add(&c.readVerify, tm.ReadVerifyUs)
	c.serverTotal = append(c.serverTotal, tm.TotalUs)
	if tm.ForwardUs > 0 {
		c.forward = append(c.forward, tm.ForwardUs)
		c.proxyResidual = append(c.proxyResidual, rttUs-tm.ForwardUs)
	} else {
		c.httpResidual = append(c.httpResidual, rttUs-tm.TotalUs)
	}
}

// merged concatenates one sample series across clients.
func (t *tracer) merged(pick func(*clientTrace) []float64) []float64 {
	var out []float64
	for _, c := range t.clients {
		out = append(out, pick(c)...)
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for _, c := range t.clients {
		for i := range c.spans {
			if err := enc.Encode(&c.spans[i]); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
	}
	return w.Flush()
}
