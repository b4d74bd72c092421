package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amnt/internal/telemetry"
	"amnt/internal/telemetry/span"
	"amnt/internal/wire"
)

// ProxyOptions configures a Proxy beyond its registry.
type ProxyOptions struct {
	// ReqTimeout bounds one forwarded request (default 5s).
	ReqTimeout time.Duration
	// Recorder records the proxy's own spans; the Forward phase
	// carries upstream round-trip time. May be nil.
	Recorder *span.Recorder
	// AutoAdopt makes the sweep loop drive checkpoint-directory
	// adoption for orphaned partitions (kill-one-node recovery).
	AutoAdopt bool
}

// Proxy is the stateless cluster router: it owns the membership
// registry, forwards /v1/kv by ring lookup, fans /v1/batch out per
// node and merges per-key results, aggregates health and stats, and
// drives live migrations and orphan adoption. "Stateless" means no
// durable state — everything it knows is re-derivable from the
// member list and the nodes themselves, so a proxy restart is
// harmless.
type Proxy struct {
	reg  *Registry
	opts ProxyOptions
	up   upstream // every proxy→node request

	boot int64
	seq  atomic.Uint64
	ops  struct {
		kvGet, kvPut, batch, migrate *span.Op
	}

	migMu      sync.Mutex
	migrations []Report

	adoptions atomic.Uint64
	// lastPush is the ring epoch most recently broadcast to the
	// nodes; the sweep loop re-pushes whenever the registry moves
	// past it (reassignment, flip, or a revived node rejoining).
	lastPush atomic.Uint64
}

// NewProxy builds a proxy over an authoritative registry.
func NewProxy(reg *Registry, opts ProxyOptions) *Proxy {
	if opts.ReqTimeout <= 0 {
		opts.ReqTimeout = 5 * time.Second
	}
	p := &Proxy{reg: reg, opts: opts, boot: time.Now().UnixNano()}
	p.ops.kvGet = opts.Recorder.Op("kv_get")
	p.ops.kvPut = opts.Recorder.Op("kv_put")
	p.ops.batch = opts.Recorder.Op("batch")
	p.ops.migrate = opts.Recorder.Op("migrate")
	return p
}

// Introspection is amntproxy's telemetry-server wiring: the proxy
// routes, the membership view on /progress, and /metrics and /vars
// sampled from the span recorder's RED columns on every scrape.
func (p *Proxy) Introspection() telemetry.ServeOptions {
	reg := telemetry.NewRegistry()
	p.opts.Recorder.RegisterMetrics(reg)
	return telemetry.ServeOptions{
		Metrics:  func() *telemetry.Snapshot { return reg.Sample(0) },
		Progress: func() any { return p.reg.View() },
		Register: p.Mount,
	}
}

// Registry returns the proxy's membership registry.
func (p *Proxy) Registry() *Registry { return p.reg }

// Migrations returns the completed migration reports.
func (p *Proxy) Migrations() []Report {
	p.migMu.Lock()
	defer p.migMu.Unlock()
	return append([]Report(nil), p.migrations...)
}

func (p *Proxy) requestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = fmt.Sprintf("amnt-proxy-%x-%x", p.boot, p.seq.Add(1))
	}
	w.Header().Set("X-Request-Id", id)
	return id
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]any{"error": err.Error()})
}

// unavailable answers the PR 8 degradation contract from the proxy
// itself: 503 with a reason and retry hint, for conditions the proxy
// detects before any node is reached (orphaned partition mid-
// adoption, owner down).
func unavailable(w http.ResponseWriter, reason string, wait time.Duration, err error) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":          err.Error(),
		"reason":         reason,
		"retry_after_ms": wait.Milliseconds(),
	})
}

// route resolves one partition against the live view: the owning
// node's id and address, or a routing-level failure.
func (p *Proxy) route(v *View, part int) (id, addr string, reason string, wait time.Duration, err error) {
	if adopter, ok := v.Pending[part]; ok {
		return "", "", "adopting", 100 * time.Millisecond,
			fmt.Errorf("partition %d is being adopted by %s", part, adopter)
	}
	id = v.State.Owner(part)
	if id == "" {
		return "", "", "unassigned", 250 * time.Millisecond,
			fmt.Errorf("partition %d has no owner", part)
	}
	st, ok := v.Status[id]
	if !ok || !st.Alive {
		return "", "", "node_down", 250 * time.Millisecond,
			fmt.Errorf("partition %d owner %s is down", part, id)
	}
	return id, st.Addr, "", 0, nil
}

// fetch is a request whose answer is wanted whole: its status, its
// header and its body, read to the end (at most 4 MiB).
func (p *Proxy) fetch(ctx context.Context, method, url, reqID string, body []byte) (status int, hdr http.Header, raw []byte, err error) {
	err = p.up.do(ctx, method, url, reqID, body, func(resp *http.Response) (err error) {
		status, hdr = resp.StatusCode, resp.Header
		raw, err = io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		return err
	})
	return status, hdr, raw, err
}

// eachLive fetches path from every live node at once and hands each
// answer to fn, one call at a time.
func (p *Proxy) eachLive(ctx context.Context, v *View, method, path, reqID string, body []byte, fn func(id string, status int, raw []byte, err error)) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id, st := range v.Status {
		if !st.Alive {
			continue
		}
		wg.Add(1)
		go func(id, addr string) {
			defer wg.Done()
			status, _, raw, err := p.fetch(ctx, method, addr+path, reqID, body)
			mu.Lock()
			defer mu.Unlock()
			fn(id, status, raw, err)
		}(id, st.Addr)
	}
	wg.Wait()
}

// healthStatus extracts the status field of a /v1/health body, "" when
// there is none.
func healthStatus(raw []byte) string {
	var rep struct {
		Status string `json:"status"`
	}
	_ = json.Unmarshal(raw, &rep)
	return rep.Status
}

// kvHandler forwards /v1/kv/{key} to the key's owner. A 421 from the
// node (its ownership is ahead of ours — a migration flip mid-
// flight) is retried once toward the hinted owner before being
// passed through.
func (p *Proxy) kvHandler(w http.ResponseWriter, r *http.Request) {
	key, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/v1/kv/"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad key: %w", err))
		return
	}
	op := p.ops.kvGet
	if r.Method != http.MethodGet {
		op = p.ops.kvPut
	}
	reqID := p.requestID(w, r)
	sp := op.Start(reqID)
	t0 := time.Now()
	var body []byte
	if r.Method != http.MethodGet {
		body, err = io.ReadAll(io.LimitReader(r.Body, 1<<10))
		if err != nil {
			op.Done(sp, t0, err)
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}

	v := p.reg.View()
	part := int(key % uint64(v.State.Partitions))
	_, addr, reason, wait, rerr := p.route(v, part)
	if rerr != nil {
		op.Done(sp, t0, rerr)
		unavailable(w, reason, wait, rerr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.opts.ReqTimeout)
	defer cancel()

	uri := r.URL.RequestURI()
	status, hdr, raw, err := p.fetch(ctx, r.Method, addr+uri, reqID, body)
	var hint OwnershipHint
	if status == http.StatusMisdirectedRequest && json.Unmarshal(raw, &hint) == nil && hint.OwnerAddr != "" {
		loc := hdr.Get("Location")
		if loc == "" {
			loc = hint.OwnerAddr + uri
		}
		status, hdr, raw, err = p.fetch(ctx, r.Method, loc, reqID, body)
	}
	sp.Mark(span.Forward)
	if err != nil {
		op.Done(sp, t0, err)
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	if status/100 != 2 && status != http.StatusNotFound {
		err = fmt.Errorf("upstream status %d", status)
	}
	op.Done(sp, t0, err)
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := hdr.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(status)
	_, _ = w.Write(raw)
}

// batchLeg is one owning node's share of a fanned-out batch: its
// sub-request and the node's answer live in buf, putIdx/getIdx say
// where in the client's batch each result belongs, err and took how
// the round trip went.
type batchLeg struct {
	addr           string
	buf            *wire.Buf
	putIdx, getIdx []int
	err            error
	took           time.Duration
}

// batchHandler fans one /v1/batch out per owning node and merges the
// per-key results back into request order. Values travel both ways as
// the base64 text they arrived in; the proxy never decodes one. Keys
// whose partitions are unroutable (owner down, adoption in flight)
// fail in place with a retryable error string; the batch itself stays
// 200 — the same contract a single node's partially-failing batch
// has. Every leg but the last runs on a goroutine of its own; the
// last runs on the handler's. The merged timing's forward_us is the
// slowest node leg (the critical path).
func (p *Proxy) batchHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	buf := wire.Get()
	defer buf.Release()
	body, err := buf.ReadBody(r.Body, wire.MaxBatchBody)
	if err == nil {
		err = buf.Req.Decode(body)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad batch body: %w", err))
		return
	}
	reqID := p.requestID(w, r)
	sp := p.ops.batch.Start(reqID)
	t0 := time.Now()

	v := p.reg.View()
	req, out := &buf.Req, &buf.Resp
	var legs []*batchLeg
	// The legs' answers alias their buffers, so those are held until
	// the merged response is written.
	defer func() {
		for _, l := range legs {
			l.buf.Release()
		}
	}()
	legFor := func(key uint64) (*batchLeg, string) {
		_, addr, _, _, err := p.route(v, int(key%uint64(v.State.Partitions)))
		if err != nil {
			return nil, err.Error() + " (retryable)"
		}
		for _, l := range legs {
			if l.addr == addr {
				return l, ""
			}
		}
		l := &batchLeg{addr: addr, buf: wire.Get()}
		legs = append(legs, l)
		return l, ""
	}
	for i, pu := range req.Puts {
		res := wire.Op{Key: pu.Key}
		if l, msg := legFor(pu.Key); l != nil {
			l.putIdx = append(l.putIdx, i)
			l.buf.Req.Puts = append(l.buf.Req.Puts, pu)
		} else {
			res.Err = msg
		}
		out.Puts = append(out.Puts, res)
	}
	for i, k := range req.Gets {
		res := wire.Op{Key: k}
		if l, msg := legFor(k); l != nil {
			l.getIdx = append(l.getIdx, i)
			l.buf.Req.Gets = append(l.buf.Req.Gets, k)
		} else {
			res.Err = msg
		}
		out.Gets = append(out.Gets, res)
	}

	ctx, cancel := context.WithTimeout(r.Context(), p.opts.ReqTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i, l := range legs {
		if i == len(legs)-1 {
			p.post(ctx, reqID, l)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.post(ctx, reqID, l)
		}()
	}
	wg.Wait()

	var slowest time.Duration
	var firstErr error
	for _, l := range legs {
		slowest = max(slowest, l.took)
		if l.err != nil {
			if firstErr == nil {
				firstErr = l.err
			}
			msg := "node " + l.addr + ": " + l.err.Error() + " (retryable)"
			for _, i := range l.putIdx {
				out.Puts[i].Err = msg
			}
			for _, i := range l.getIdx {
				out.Gets[i].Err = msg
			}
			continue
		}
		// Sub-batch results come back in submission order.
		sub := &l.buf.Resp
		for j, i := range l.putIdx {
			if j < len(sub.Puts) {
				out.Puts[i] = sub.Puts[j]
			}
		}
		for j, i := range l.getIdx {
			if j < len(sub.Gets) {
				out.Gets[i] = sub.Gets[j]
			}
		}
	}

	sp.Add(span.Forward, int64(slowest))
	sp.Reset()
	p.ops.batch.Done(sp, t0, firstErr)
	buf.Out = wire.AppendResponse(buf.Out[:0], out.Puts, out.Gets, sp.Timing())
	wire.WriteBody(w, buf.Out)
}

// post sends a leg's node the sub-request gathered in its buf's Req and
// decodes the answer into Resp, timing the round trip. A non-200
// answer (whole-node 503) is surfaced as an error so every key of the
// slice fails retryably in place.
func (p *Proxy) post(ctx context.Context, reqID string, l *batchLeg) {
	start, b := time.Now(), l.buf
	b.Out = wire.AppendRequest(b.Out[:0], b.Req.Puts, b.Req.Gets)
	l.err = p.up.do(ctx, http.MethodPost, l.addr+"/v1/batch", reqID, b.Out, func(resp *http.Response) error {
		raw, err := b.ReadBody(resp.Body, 2*wire.MaxBatchBody)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			var e struct {
				Error  string `json:"error"`
				Reason string `json:"reason"`
			}
			if json.Unmarshal(raw, &e) == nil && e.Error != "" {
				return fmt.Errorf("%s (%s)", e.Error, e.Reason)
			}
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return b.Resp.Decode(raw)
	})
	l.took = time.Since(start)
}

// nodeHealth is one node's slice of the aggregated /v1/health.
type nodeHealth struct {
	Status  NodeStatus      `json:"status"`
	Report  json.RawMessage `json:"report,omitempty"`
	FetchOK bool            `json:"fetch_ok"`
}

// healthHandler aggregates every node's /v1/health behind one
// endpoint: per-node raw reports plus a cluster verdict. The verdict
// is "ok" only when every member is alive and reports ok; a dead or
// degraded node makes it "degraded" (503), a recovering one
// "recovering" (200) — the same ladder a single node uses.
func (p *Proxy) healthHandler(w http.ResponseWriter, r *http.Request) {
	v := p.reg.View()
	ctx, cancel := context.WithTimeout(r.Context(), p.opts.ReqTimeout)
	defer cancel()

	nodes := map[string]nodeHealth{}
	overall, code := "ok", http.StatusOK
	for id, st := range v.Status {
		nodes[id] = nodeHealth{Status: st}
		if !st.Alive {
			overall, code = "degraded", http.StatusServiceUnavailable
		}
	}
	p.eachLive(ctx, v, http.MethodGet, "/v1/health", "", nil, func(id string, _ int, raw []byte, err error) {
		switch status := healthStatus(raw); {
		case err != nil || status == "":
			overall, code = "degraded", http.StatusServiceUnavailable
			return
		case status == "degraded":
			overall, code = "degraded", http.StatusServiceUnavailable
		case status == "recovering" && overall == "ok":
			overall = "recovering"
		}
		nodes[id] = nodeHealth{Status: v.Status[id], Report: raw, FetchOK: true}
	})
	if len(v.Pending) > 0 {
		overall, code = "degraded", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":     overall,
		"ring_epoch": v.State.Epoch,
		"pending":    v.Pending,
		"nodes":      nodes,
	})
}

// statsHandler aggregates every live node's /v1/store/stats.
func (p *Proxy) statsHandler(w http.ResponseWriter, r *http.Request) {
	v := p.reg.View()
	ctx, cancel := context.WithTimeout(r.Context(), p.opts.ReqTimeout)
	defer cancel()
	nodes := map[string]json.RawMessage{}
	p.eachLive(ctx, v, http.MethodGet, "/v1/store/stats", "", nil, func(id string, _ int, raw []byte, err error) {
		if err == nil {
			nodes[id] = raw
		}
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"ring_epoch": v.State.Epoch,
		"nodes":      nodes,
	})
}

// broadcastHandler fans a control op (flush/checkpoint/recover) out
// to every live node and reports per-node outcomes; 200 only when
// every node succeeded. The checkpoint broadcast is the kill-drill's
// durability barrier.
func (p *Proxy) broadcastHandler(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
			return
		}
		reqID := p.requestID(w, r)
		v := p.reg.View()
		ctx, cancel := context.WithTimeout(r.Context(), 60*time.Second)
		defer cancel()
		results := map[string]string{}
		code := http.StatusOK
		for id, st := range v.Status {
			if !st.Alive {
				results[id], code = "down", http.StatusBadGateway
			}
		}
		p.eachLive(ctx, v, http.MethodPost, path, reqID, nil, func(id string, status int, _ []byte, err error) {
			switch {
			case err != nil:
				results[id], code = err.Error(), http.StatusBadGateway
			case status != http.StatusOK:
				results[id], code = fmt.Sprintf("status %d", status), http.StatusBadGateway
			default:
				results[id] = "ok"
			}
		})
		writeJSON(w, code, map[string]any{"op": path, "nodes": results})
	}
}

// migrateHandler serves POST /v1/cluster/migrate?part=N&to=ID: a
// planned live hand-off from the partition's current owner to node
// ID, driven synchronously; the report is the response body.
func (p *Proxy) migrateHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	part, err := strconv.Atoi(r.URL.Query().Get("part"))
	if err != nil || part < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad part %q", r.URL.Query().Get("part")))
		return
	}
	to := r.URL.Query().Get("to")
	v := p.reg.View()
	if part >= v.State.Partitions {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("partition %d out of range", part))
		return
	}
	fromID := v.State.Owner(part)
	fromSt, ok := v.Status[fromID]
	if !ok || !fromSt.Alive {
		writeErr(w, http.StatusConflict, fmt.Errorf("partition %d owner %s is not alive", part, fromID))
		return
	}
	toSt, ok := v.Status[to]
	if !ok || !toSt.Alive {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("destination %q is not a live member", to))
		return
	}
	if to == fromID {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("partition %d already lives on %s", part, to))
		return
	}

	reqID := p.requestID(w, r)
	sp := p.ops.migrate.Start(reqID)
	t0 := time.Now()
	m := &Migrator{
		up: &p.up,
		Flip: func(ctx context.Context, part int, to string) error {
			if err := p.reg.Flip(part, to, time.Now()); err != nil {
				return err
			}
			p.PushRing(ctx)
			return nil
		},
	}
	ctx, cancel := context.WithTimeout(r.Context(), 120*time.Second)
	defer cancel()
	rep, err := m.Run(ctx, part, fromSt.Addr, fromID, toSt.Addr, to)
	p.ops.migrate.Done(sp, t0, err)
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	p.migMu.Lock()
	p.migrations = append(p.migrations, *rep)
	p.migMu.Unlock()
	writeJSON(w, http.StatusOK, rep)
}

// PushRing broadcasts the current ring state to every live node so
// their 421 hints and identity blocks stay current.
func (p *Proxy) PushRing(ctx context.Context) {
	v := p.reg.View()
	body, err := json.Marshal(v.State)
	if err != nil {
		return
	}
	p.eachLive(ctx, v, http.MethodPost, "/v1/ring", "", body, func(string, int, []byte, error) {})
}

// Pulse polls one node's /v1/health and feeds the result into the
// registry — the proxy-driven heartbeat. Nodes that cannot be
// reached simply miss their pulse and age toward the TTL.
func (p *Proxy) Pulse(ctx context.Context, id string, now time.Time) {
	st, ok := p.reg.View().Status[id]
	if !ok {
		return
	}
	_, _, raw, err := p.fetch(ctx, http.MethodGet, st.Addr+"/v1/health", "", nil)
	if status := healthStatus(raw); err == nil && status != "" {
		_, _ = p.reg.Pulse(id, status, now)
	}
}

// SweepOnce runs one pulse+sweep round: poll every member, apply the
// TTL, and (with AutoAdopt) drive checkpoint-directory adoption of
// any orphaned partitions on their new owners, clearing the pending
// markers as adoptions land. Returns the reassignments the sweep
// produced.
func (p *Proxy) SweepOnce(ctx context.Context, now time.Time) []Reassign {
	var wg sync.WaitGroup
	for id := range p.reg.View().Status {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			p.Pulse(ctx, id, now)
		}(id)
	}
	wg.Wait()
	moves := p.reg.Sweep(now)
	// Broadcast the ring whenever the epoch moved past the last push
	// — reassignments, planned flips, and revived members rejoining
	// all advance it.
	defer func() {
		if epoch := p.reg.View().State.Epoch; epoch != p.lastPush.Load() {
			p.PushRing(ctx)
			p.lastPush.Store(epoch)
		}
	}()
	if len(moves) == 0 {
		return nil
	}
	if p.opts.AutoAdopt {
		for _, mv := range moves {
			url := fmt.Sprintf("%s/v1/migrate/adopt?part=%d", mv.ToAddr, mv.Partition)
			// A failed adoption stays pending; the next sweep retries.
			if status, _, _, err := p.fetch(ctx, http.MethodPost, url, "", nil); err == nil && status == http.StatusOK {
				p.reg.AdoptDone(mv.Partition, now)
				p.adoptions.Add(1)
			}
		}
	}
	return moves
}

// Adoptions returns how many orphaned partitions the sweep loop has
// successfully re-homed.
func (p *Proxy) Adoptions() uint64 { return p.adoptions.Load() }

// Mount attaches the proxy surface: the forwarded data path, the
// aggregation endpoints, and the cluster control plane.
//
//	PUT/GET /v1/kv/{key}    forwarded to the key's owner (421-healing)
//	POST /v1/batch          fanned out per node, merged per key
//	POST /v1/flush|checkpoint|recover   broadcast to every live node
//	GET  /v1/health         aggregated cluster health
//	GET  /v1/store/stats    aggregated per-node stats
//	GET  /v1/ring           the authoritative ring state
//	GET  /v1/cluster/nodes  membership + pulse status
//	POST /v1/cluster/register   {"id":..,"addr":..} → ring state
//	POST /v1/cluster/pulse?id=..&health=ok → ring state
//	POST /v1/cluster/migrate?part=N&to=ID  planned live hand-off
//	GET  /v1/cluster/migrations  completed migration reports
//	GET  /v1/spans          the proxy's own spans (forward phase)
func (p *Proxy) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/kv/", p.kvHandler)
	mux.HandleFunc("/v1/batch", p.batchHandler)
	mux.HandleFunc("/v1/health", p.healthHandler)
	mux.HandleFunc("/v1/store/stats", p.statsHandler)
	mux.HandleFunc("/v1/flush", p.broadcastHandler("/v1/flush"))
	mux.HandleFunc("/v1/checkpoint", p.broadcastHandler("/v1/checkpoint"))
	mux.HandleFunc("/v1/recover", p.broadcastHandler("/v1/recover"))
	mux.HandleFunc("/v1/ring", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, p.reg.View().State)
	})
	mux.HandleFunc("/v1/cluster/nodes", func(w http.ResponseWriter, _ *http.Request) {
		v := p.reg.View()
		writeJSON(w, http.StatusOK, map[string]any{
			"ring_epoch": v.State.Epoch,
			"nodes":      v.Status,
			"pending":    v.Pending,
		})
	})
	mux.HandleFunc("/v1/cluster/register", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
			return
		}
		var m Member
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&m); err != nil || m.ID == "" || m.Addr == "" {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("want {\"id\":..,\"addr\":..}: %v", err))
			return
		}
		writeJSON(w, http.StatusOK, p.reg.Register(m, time.Now()))
	})
	mux.HandleFunc("/v1/cluster/pulse", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
			return
		}
		id := r.URL.Query().Get("id")
		health := r.URL.Query().Get("health")
		if health == "" {
			health = "ok"
		}
		st, err := p.reg.Pulse(id, health, time.Now())
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("/v1/cluster/migrate", p.migrateHandler)
	mux.HandleFunc("/v1/cluster/migrations", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"migrations": p.Migrations()})
	})
	mux.HandleFunc("/v1/spans", func(w http.ResponseWriter, r *http.Request) {
		n := 100
		if v := r.URL.Query().Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed <= 0 {
				writeErr(w, http.StatusBadRequest, errors.New("bad n"))
				return
			}
			n = parsed
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = p.opts.Recorder.WriteJSONL(w, n)
	})
}
