package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"amnt/internal/store"
	"amnt/internal/telemetry/span"
	"amnt/internal/wire"
)

// Mount attaches the node's routes to mux, all under /v1/.
func (n *Node) Mount(mux *http.ServeMux) {
	st, tr := n.st, n.tr
	control := func(name string, op *span.Op, fn func(context.Context) error) http.HandlerFunc {
		return postOnly(func(w http.ResponseWriter, r *http.Request) {
			// Control ops (recover runs a full verify) get a wider
			// deadline than the data path.
			ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
			defer cancel()
			sp, t0 := tr.begin(op, w, r)
			err := fn(span.NewContext(ctx, sp))
			op.Done(sp, t0, err)
			if err != nil {
				httpError(w, statusFor(err), err)
				return
			}
			resp := map[string]any{"ok": true, "op": name}
			if sp != nil {
				resp["timing"] = sp.Timing()
			}
			writeJSON(w, http.StatusOK, resp)
		})
	}
	chaos := func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		spec := store.ChaosSpec{Kind: q.Get("kind")}
		if spec.Kind == "" {
			spec.Kind = "torn"
		}
		if v := q.Get("shard"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			spec.Shard = n
		}
		if v := q.Get("seed"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			spec.Seed = n
		}
		ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
		defer cancel()
		sp, t0 := tr.begin(tr.chaos, w, r)
		res, err := st.Chaos(span.NewContext(ctx, sp), spec)
		tr.chaos.Done(sp, t0, err)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
	quarantine := func(w http.ResponseWriter, r *http.Request) {
		shard := 0
		if v := r.URL.Query().Get("shard"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			shard = n
		}
		ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
		defer cancel()
		sp, t0 := tr.begin(tr.quarantine, w, r)
		err := st.Quarantine(span.NewContext(ctx, sp), shard)
		tr.quarantine.Done(sp, t0, err)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "op": "quarantine", "shard": shard})
	}
	stats := func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, st.Stats())
	}
	spans := func(w http.ResponseWriter, r *http.Request) {
		nSpans := 100
		if v := r.URL.Query().Get("n"); v != "" {
			p, err := strconv.Atoi(v)
			if err != nil || p <= 0 {
				httpError(w, http.StatusBadRequest, errors.New("bad n"))
				return
			}
			nSpans = p
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = tr.rec.WriteJSONL(w, nSpans)
	}

	mux.HandleFunc("/v1/kv/", n.kvHandler)
	mux.HandleFunc("/v1/batch", postOnly(n.batchHandler))
	mux.HandleFunc("/v1/flush", control("flush", tr.flush, st.Flush))
	mux.HandleFunc("/v1/checkpoint", control("checkpoint", tr.checkpoint, st.Checkpoint))
	mux.HandleFunc("/v1/recover", control("recover", tr.recover, st.Recover))
	mux.HandleFunc("/v1/chaos", postOnly(chaos))
	mux.HandleFunc("/v1/quarantine", postOnly(quarantine))
	mux.HandleFunc("/v1/store/stats", stats)
	mux.HandleFunc("/v1/health", n.healthHandler)
	mux.HandleFunc("/v1/spans", spans)
	n.mountMigrate(mux)
}

// postOnly refuses every method but POST.
func postOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
			return
		}
		h(w, r)
	}
}

// kvError routes a data-path error: a NotOwnedError answers 421 with
// the ownership hint (so routers repair their ring), everything else
// takes the standard status mapping.
func (n *Node) kvError(w http.ResponseWriter, r *http.Request, err error) {
	var notOwned *store.NotOwnedError
	if errors.As(err, &notOwned) {
		n.write421(w, r, notOwned.Partition)
		return
	}
	httpError(w, statusFor(err), err)
}

// write421 answers 421 Misdirected Request for a partition this node
// does not host: the OwnershipHint body names the owner the cached
// ring knows, the X-Amnt-Owner header carries its id, and Location
// points at the same path on the owning node.
func (n *Node) write421(w http.ResponseWriter, r *http.Request, part int) {
	h := n.hintFor(part)
	if h.Owner != "" {
		w.Header().Set("X-Amnt-Owner", h.Owner)
		if h.OwnerAddr != "" && r != nil {
			w.Header().Set("Location", h.OwnerAddr+r.URL.RequestURI())
		}
	}
	writeJSON(w, http.StatusMisdirectedRequest, h)
}

// kvHandler serves GET|PUT /v1/kv/{key}.
func (n *Node) kvHandler(w http.ResponseWriter, r *http.Request) {
	st, tr := n.st, n.tr
	key, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/v1/kv/"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad key: %w", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), n.reqTimeout)
	defer cancel()
	buf := wire.Get()
	defer buf.Release()
	switch r.Method {
	case http.MethodGet:
		sp, t0 := tr.begin(tr.kvGet, w, r)
		v, err := st.Get(span.NewContext(ctx, sp), key)
		tr.kvGet.Done(sp, t0, redErr(err))
		if err != nil {
			n.kvError(w, r, err)
			return
		}
		buf.Out = wire.AppendGet(buf.Out[:0], key, v, sp.Timing())
	case http.MethodPut, http.MethodPost:
		body, err := buf.ReadBody(r.Body, store.MaxValueLen)
		if errors.Is(err, wire.ErrTooLarge) {
			err = store.ErrValueTooLarge
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		sp, t0 := tr.begin(tr.kvPut, w, r)
		err = st.Put(span.NewContext(ctx, sp), key, body)
		tr.kvPut.Done(sp, t0, err)
		if err != nil {
			n.kvError(w, r, err)
			return
		}
		buf.Out = wire.AppendAck(buf.Out[:0], key, sp.Timing())
	default:
		httpError(w, http.StatusMethodNotAllowed, errors.New("use GET or PUT"))
		return
	}
	wire.WriteBody(w, buf.Out)
}

// batchHandler serves POST /v1/batch: the whole batch travels as one
// multi-op request per shard and the writes commit as group-commit
// epochs. Per-key failures are reported in place; the HTTP status
// stays 200 unless the request itself is malformed.
func (n *Node) batchHandler(w http.ResponseWriter, r *http.Request) {
	st, tr := n.st, n.tr
	buf := wire.Get()
	defer buf.Release()
	body, err := buf.ReadBody(r.Body, wire.MaxBatchBody)
	if err == nil {
		err = buf.Req.Decode(body)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad batch body: %w", err))
		return
	}
	sp, t0 := tr.begin(tr.batch, w, r)
	ctx, cancel := context.WithTimeout(span.NewContext(r.Context(), sp), n.reqTimeout)
	defer cancel()

	req, resp := &buf.Req, &buf.Resp
	kvs := make([]store.KV, 0, len(req.Puts))
	for _, p := range req.Puts {
		res := wire.Op{Key: p.Key}
		if v, err := buf.Value(p.B64); err != nil {
			res.Err = "bad value_b64: " + err.Error()
		} else {
			kvs = append(kvs, store.KV{Key: p.Key, Value: v})
		}
		resp.Puts = append(resp.Puts, res)
	}
	// PutBatch copies the values, so they may live in buf. Its errors
	// are parallel to kvs, which skips the puts that did not decode.
	var firstErr error
	putErrs := st.PutBatch(ctx, kvs)
	for i := range resp.Puts {
		if resp.Puts[i].Err != "" {
			continue
		}
		if err := putErrs[0]; err != nil {
			if firstErr == nil {
				firstErr = err
			}
			resp.Puts[i].Err = err.Error()
		}
		putErrs = putErrs[1:]
	}

	values, errs := st.GetBatch(ctx, req.Gets)
	for i, key := range req.Gets {
		res := wire.Op{Key: key, Value: values[i]}
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = redErr(errs[i])
			}
			res.Err = errs[i].Error()
		}
		resp.Gets = append(resp.Gets, res)
	}
	tr.batch.Done(sp, t0, firstErr)
	buf.Out = wire.AppendResponse(buf.Out[:0], resp.Puts, resp.Gets, sp.Timing())
	wire.WriteBody(w, buf.Out)
}

// NodeIdentity is the machine-readable identity block /v1/health
// carries in cluster mode: who this node is, how to reach it, and
// which partitions it currently hosts at which ring epoch.
type NodeIdentity struct {
	ID         string `json:"id"`
	Advertise  string `json:"advertise,omitempty"`
	Partitions int    `json:"partitions"`
	Owned      []int  `json:"owned"`
	Staging    []int  `json:"staging,omitempty"`
	RingEpoch  uint64 `json:"ring_epoch,omitempty"`
}

// HealthReport is the /v1/health body. Status is "ok", "recovering"
// (a rebuild is in flight but every shard still serves), or
// "degraded" (at least one shard is quarantined; the response is
// 503 so load balancers can drain the instance). Node is present in
// cluster mode. Shards are the same entries /v1/store/stats serves.
type HealthReport struct {
	Status string                `json:"status"`
	Node   *NodeIdentity         `json:"node,omitempty"`
	Shards []store.ShardSnapshot `json:"shards"`
}

func (n *Node) healthHandler(w http.ResponseWriter, _ *http.Request) {
	out := HealthReport{Status: "ok", Shards: n.st.Stats().Shards}
	code := http.StatusOK
	for _, sh := range out.Shards {
		switch sh.Health {
		case "quarantined":
			out.Status = "degraded"
			code = http.StatusServiceUnavailable
		case "recovering":
			if out.Status == "ok" {
				out.Status = "recovering"
			}
		}
	}
	if n.id != "" {
		ident := &NodeIdentity{
			ID:         n.id,
			Advertise:  n.advertise,
			Partitions: n.st.Partitions(),
			Owned:      n.st.Owned(),
			Staging:    n.st.Staging(),
		}
		if s := n.ring.Load(); s != nil {
			ident.RingEpoch = s.Epoch
		}
		out.Node = ident
	}
	writeJSON(w, code, out)
}

// degradation classifies the retryable serving failures: which
// shard-level condition caused the 503 and how long a well-behaved
// client should wait before retrying. Recovering shards clear
// fastest (one rebuild chunk), overload clears as soon as the queue
// drains, a write fence clears when the migration's final delta
// lands (low milliseconds), and a failed shard needs at least one
// heal-loop pass.
func degradation(err error) (reason string, retryAfter time.Duration, ok bool) {
	switch {
	case errors.Is(err, store.ErrShardFailed):
		return "failed", 500 * time.Millisecond, true
	case errors.Is(err, store.ErrRecovering):
		return "recovering", 100 * time.Millisecond, true
	case errors.Is(err, store.ErrFenced):
		return "fenced", 50 * time.Millisecond, true
	case errors.Is(err, store.ErrOverloaded):
		return "overloaded", 25 * time.Millisecond, true
	}
	return "", 0, false
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, store.ErrNotOwned):
		return http.StatusMisdirectedRequest
	case errors.Is(err, store.ErrOverloaded),
		errors.Is(err, store.ErrRecovering),
		errors.Is(err, store.ErrShardFailed),
		errors.Is(err, store.ErrFenced),
		errors.Is(err, store.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, store.ErrValueTooLarge), errors.Is(err, store.ErrOutOfRange):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON writes an indented body. Control, health, stats and
// error answers take it; the data path's success bodies are
// internal/wire's.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes the JSON error body. Retryable degradations
// (overload, online recovery, quarantine, migration fence) are
// forced to 503 and carry both a Retry-After header (whole seconds,
// the HTTP contract) and a finer-grained retry_after_ms field in the
// body.
func httpError(w http.ResponseWriter, code int, err error) {
	body := map[string]any{"error": err.Error()}
	if reason, wait, ok := degradation(err); ok {
		code = http.StatusServiceUnavailable
		secs := int((wait + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		body["reason"] = reason
		body["retry_after_ms"] = wait.Milliseconds()
	}
	writeJSON(w, code, body)
}
