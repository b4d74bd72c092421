// Package node is the amntd serving layer, factored out of the
// daemon binary so the HTTP surface (KV, batch, control, health,
// spans, migration) is testable in-process and reusable by the
// cluster smoke drills.
//
// A Node wraps one internal/store.Store with the versioned HTTP API,
// request tracing, and — in cluster mode — a node identity and a
// cached ring state. A request for a partition the store does not
// host answers 421 Misdirected Request with a machine-readable
// ownership hint (and a Location header when the ring knows the
// owner), so routers self-correct without waiting for a full ring
// refresh.
package node

import (
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"amnt/internal/cluster"
	"amnt/internal/store"
	"amnt/internal/telemetry"
	"amnt/internal/telemetry/span"
)

// Options configures a Node beyond its store.
type Options struct {
	// ReqTimeout is the per-request serving deadline (default 2s).
	ReqTimeout time.Duration
	// NodeID is this node's cluster identity; empty for a standalone
	// daemon.
	NodeID string
	// Advertise is the base URL peers and routers reach this node at.
	Advertise string
	// Ring seeds the cached ring state (cluster mode); nil standalone.
	Ring *cluster.State
}

// Node is one amntd serving instance: store + tracer + identity.
type Node struct {
	st         *store.Store
	tr         *tracer
	reqTimeout time.Duration
	id         string
	advertise  string
	ring       atomic.Pointer[cluster.State]
}

// New wraps st with the HTTP serving layer. rec may be nil (tracing
// off; RED accounting also off).
func New(st *store.Store, rec *span.Recorder, opts Options) *Node {
	if opts.ReqTimeout <= 0 {
		opts.ReqTimeout = 2 * time.Second
	}
	n := &Node{
		st:         st,
		tr:         newTracer(rec),
		reqTimeout: opts.ReqTimeout,
		id:         opts.NodeID,
		advertise:  opts.Advertise,
	}
	if opts.Ring != nil {
		n.ring.Store(opts.Ring.Clone())
	}
	return n
}

// Store returns the wrapped store.
func (n *Node) Store() *store.Store { return n.st }

// Introspection is amntd's telemetry-server wiring: the node's routes,
// and /metrics and /vars sampled from the store and span columns on
// every scrape. Those columns read only atomics or histograms cloned
// under a lock, so no background sampler is needed. The registry is
// built per scrape, so the per-shard columns follow the partitions
// hosted at that moment, migrations included.
func (n *Node) Introspection() telemetry.ServeOptions {
	return telemetry.ServeOptions{
		Metrics: func() *telemetry.Snapshot {
			reg := telemetry.NewRegistry()
			n.st.RegisterMetrics(reg)
			n.tr.rec.RegisterMetrics(reg)
			return reg.Sample(n.st.TotalCycles())
		},
		Register: n.Mount,
	}
}

// InstallRing adopts a newer ring state; older epochs are ignored.
// Returns whether the state was installed.
func (n *Node) InstallRing(s *cluster.State) bool {
	if s == nil {
		return false
	}
	for {
		cur := n.ring.Load()
		if cur != nil && s.Epoch <= cur.Epoch {
			return false
		}
		if n.ring.CompareAndSwap(cur, s.Clone()) {
			return true
		}
	}
}

// hintFor builds the 421 ownership hint for a partition this node
// does not host, from the cached ring state when present.
func (n *Node) hintFor(part int) cluster.OwnershipHint {
	h := cluster.OwnershipHint{
		Error:     fmt.Sprintf("partition %d not owned by this node", part),
		Partition: part,
	}
	if s := n.ring.Load(); s != nil {
		h.RingEpoch = s.Epoch
		if owner := s.Owner(part); owner != "" && owner != n.id {
			h.Owner = owner
			h.OwnerAddr = s.Addr(owner)
		}
	}
	return h
}

// tracer owns the serving path's request tracing: the span recorder,
// one RED op per endpoint, and X-Request-Id minting/propagation.
type tracer struct {
	rec  *span.Recorder
	boot int64 // request-id namespace, one per process
	seq  atomic.Uint64

	kvGet, kvPut, batch               *span.Op
	flush, checkpoint, recover, chaos *span.Op
	quarantine, migrate               *span.Op
}

// newTracer mints every endpoint op up front so RegisterMetrics sees
// the full RED column set before serving starts.
func newTracer(rec *span.Recorder) *tracer {
	return &tracer{
		rec:        rec,
		boot:       time.Now().UnixNano(),
		kvGet:      rec.Op("kv_get"),
		kvPut:      rec.Op("kv_put"),
		batch:      rec.Op("batch"),
		flush:      rec.Op("flush"),
		checkpoint: rec.Op("checkpoint"),
		recover:    rec.Op("recover"),
		chaos:      rec.Op("chaos"),
		quarantine: rec.Op("quarantine"),
		migrate:    rec.Op("migrate"),
	}
}

// begin opens one traced request: honors a client-supplied
// X-Request-Id (minting one otherwise), echoes it on the response,
// and admits the request through the op's sampling gate. The span is
// nil when unsampled — callers stamp it regardless (nil-safe).
func (t *tracer) begin(op *span.Op, w http.ResponseWriter, r *http.Request) (*span.Span, time.Time) {
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = fmt.Sprintf("amnt-%x-%x", t.boot, t.seq.Add(1))
	}
	w.Header().Set("X-Request-Id", id)
	return op.Start(id), time.Now()
}

// redErr filters per-key outcomes out of the RED error counters: a
// miss is a valid answer, not a serving failure.
func redErr(err error) error {
	if errors.Is(err, store.ErrNotFound) {
		return nil
	}
	return err
}
