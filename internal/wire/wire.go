// Package wire is the single owner of the data-path wire format: the
// JSON bodies of POST /v1/batch and of GET|PUT /v1/kv/{key}. The
// node, the proxy and amntload all encode and decode through it, so
// the shapes are declared once:
//
//	batch request   {"puts":[{"key":K,"value_b64":"…"},…],"gets":[K,…]}
//	batch response  {"puts":[{"key":K[,"error":"…"]},…],
//	                 "gets":[{"key":K,"value_b64":"…"|"error":"…"},…][,"timing":{…}]}
//	kv get          {"key":K,"value_b64":"…"[,"timing":{…}]}
//	kv put          {"ok":true,"key":K[,"timing":{…}]}
//
// Output is compact and its field order is fixed. Input is decoded in
// one pass over the body with encoding/json's accept/reject decisions
// (any field order, whitespace, escapes, null for "absent", unknown
// fields validated and skipped, nesting capped at 10000), with two
// departures the fuzz targets pin: field names are case-sensitive,
// and a repeated array field is decoded afresh rather than merged
// into the elements its earlier occurrence left.
package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"amnt/internal/telemetry/span"
)

// MaxBatchBody caps a /v1/batch request body.
const MaxBatchBody = 8 << 20

// ErrTooLarge reports a body over the limit given to ReadBody.
var ErrTooLarge = errors.New("wire: body too large")

// Op is one per-key element of a batch body: a put in a request, a
// per-key result in a response.
type Op struct {
	Key uint64
	// B64 is the value as base64 text. Decoding fills it, aliasing the
	// body, so a router can splice values through without touching
	// them; Buf.Value turns it into bytes.
	B64 []byte
	// Value is the raw value. Only encoding reads it, and only when
	// B64 is empty.
	Value []byte
	// Err is the per-key "error"; requests carry none.
	Err string
}

// Request is a /v1/batch request body. Puts apply before gets, so a
// batch can read back its own writes.
type Request struct {
	Puts []Op
	Gets []uint64
}

// Response is a /v1/batch response body; results are parallel to the
// request's puts and gets. Timing is the "timing" object as it was
// sent (a span.Timing), nil when the request was not sampled.
type Response struct {
	Puts, Gets []Op
	Timing     []byte
}

// KV is a /v1/kv/{key} response body: a get's value or a put's ack.
type KV struct {
	Op
	Timing []byte
}

// Buf is one request's scratch: the body read from the socket, the
// decoded shapes (which alias it), a slab for decoded values and the
// encoded output. The zero value is ready; Get and Release recycle
// Bufs through a pool. Nothing handed out by a Buf may be used after
// its Release.
type Buf struct {
	Req  Request
	Resp Response
	Out  []byte
	body bytes.Buffer
	lr   io.LimitedReader
	slab []byte
}

var pool = sync.Pool{New: func() any { return new(Buf) }}

// Get returns an empty Buf from the pool.
func Get() *Buf { return pool.Get().(*Buf) }

// Release returns b to the pool. A Buf that grew past 1 MiB is left
// to the collector so one huge request does not pin its buffers.
func (b *Buf) Release() {
	if b.body.Cap()+cap(b.slab)+cap(b.Out) > 1<<20 {
		return
	}
	b.Req = Request{Puts: b.Req.Puts[:0], Gets: b.Req.Gets[:0]}
	b.Resp = Response{Puts: b.Resp.Puts[:0], Gets: b.Resp.Gets[:0]}
	b.slab = b.slab[:0]
	pool.Put(b)
}

// ReadBody reads r to its end into b's body buffer and returns it,
// or ErrTooLarge if it runs past limit bytes.
func (b *Buf) ReadBody(r io.Reader, limit int) ([]byte, error) {
	b.body.Reset()
	b.lr = io.LimitedReader{R: r, N: int64(limit) + 1}
	_, err := b.body.ReadFrom(&b.lr)
	if err == nil && b.body.Len() > limit {
		err = ErrTooLarge
	}
	return b.body.Bytes(), err
}

// WriteBody sends an encoded body with its length, so it leaves
// unchunked whatever its size.
func WriteBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// Value decodes base64 text into b's slab. The result stays valid
// until Release; a slab that has to grow leaves earlier results on
// the array they were written to.
func (b *Buf) Value(b64 []byte) ([]byte, error) {
	off := len(b.slab)
	slab, err := base64.StdEncoding.AppendDecode(b.slab, b64)
	if err != nil {
		return nil, err
	}
	b.slab = slab
	return slab[off:len(slab):len(slab)], nil
}

// AppendRequest appends the /v1/batch request body.
func AppendRequest(dst []byte, puts []Op, gets []uint64) []byte {
	dst = appendOps(append(dst, `{"puts":`...), puts)
	dst = append(dst, `,"gets":[`...)
	for i, k := range gets {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, k, 10)
	}
	return append(dst, `]}`...)
}

// AppendResponse appends the /v1/batch response body.
func AppendResponse(dst []byte, puts, gets []Op, t *span.Timing) []byte {
	dst = appendOps(append(dst, `{"puts":`...), puts)
	dst = appendOps(append(dst, `,"gets":`...), gets)
	return append(appendTiming(dst, t), '}')
}

// AppendGet appends the body answering GET /v1/kv/{key}.
func AppendGet(dst []byte, key uint64, value []byte, t *span.Timing) []byte {
	dst = strconv.AppendUint(append(dst, `{"key":`...), key, 10)
	dst = append(dst, `,"value_b64":"`...)
	dst = base64.StdEncoding.AppendEncode(dst, value)
	return append(appendTiming(append(dst, '"'), t), '}')
}

// AppendAck appends the body answering PUT /v1/kv/{key}.
func AppendAck(dst []byte, key uint64, t *span.Timing) []byte {
	dst = strconv.AppendUint(append(dst, `{"ok":true,"key":`...), key, 10)
	return append(appendTiming(dst, t), '}')
}

func appendOps(dst []byte, ops []Op) []byte {
	dst = append(dst, '[')
	for i := range ops {
		o := &ops[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(append(dst, `{"key":`...), o.Key, 10)
		if len(o.B64)+len(o.Value) > 0 {
			dst = append(dst, `,"value_b64":"`...)
			if len(o.B64) > 0 {
				dst = append(dst, o.B64...)
			} else {
				dst = base64.StdEncoding.AppendEncode(dst, o.Value)
			}
			dst = append(dst, '"')
		}
		if o.Err != "" {
			dst = appendString(append(dst, `,"error":`...), o.Err)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendTiming appends ,"timing":{…} for a sampled request, nothing
// otherwise: span.Timing's fields under its JSON names, the zero
// ones it marks omitempty left out.
func appendTiming(dst []byte, t *span.Timing) []byte {
	if t == nil {
		return dst
	}
	dst = append(dst, `,"timing":{`...)
	if t.RequestID != "" {
		dst = append(appendString(append(dst, `"request_id":`...), t.RequestID), ',')
	}
	if t.Op != "" {
		dst = append(appendString(append(dst, `"op":`...), t.Op), ',')
	}
	dst = strconv.AppendInt(append(dst, `"shard":`...), int64(t.Shard), 10)
	for _, f := range [...]struct {
		name      string
		us        int64
		omitempty bool
	}{
		{"queue_wait_us", t.QueueWaitUs, false}, {"epoch_stage_us", t.EpochStageUs, false},
		{"commit_climb_us", t.CommitClimbUs, false}, {"persist_us", t.PersistUs, false},
		{"epoch_fallback_us", t.EpochFallbackUs, false}, {"forward_us", t.ForwardUs, true},
		{"ack_us", t.AckUs, false}, {"read_verify_us", t.ReadVerifyUs, true}, {"total_us", t.TotalUs, false},
	} {
		if f.us != 0 || !f.omitempty {
			dst = append(append(append(dst, `,"`...), f.name...), `":`...)
			dst = strconv.AppendInt(dst, f.us, 10)
		}
	}
	return append(dst, '}')
}

// appendString appends s as a JSON string: as it is when it is
// printable ASCII with nothing to escape, and as encoding/json
// writes it otherwise.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			quoted, _ := json.Marshal(s) // cannot fail for a string
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
