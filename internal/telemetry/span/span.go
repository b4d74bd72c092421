// Package span is the serving path's request-tracing and latency
// attribution layer: a low-overhead per-request span recorder that
// decomposes every request's end-to-end latency into named phases
// (queue_wait / epoch_stage / commit_climb / persist / epoch_fallback
// / ack) as the request flows amntd → store shard worker → group
// commit epoch → device persist → acknowledgment.
//
// A Span is minted at the HTTP handler (one allocation when sampled,
// nothing at all otherwise), travels down through the store via
// context, and is stamped by whichever goroutine currently owns the
// request — the client goroutine at admission, the shard worker at
// dequeue/stage/commit, the client goroutine again at acknowledgment.
// All mutable fields are atomics, so a handler that gave up on a
// request (context expiry) can finish the span while the worker is
// still stamping it without a data race or a torn value.
//
// Every method is nil-safe: a nil *Span, *Op, or *Recorder no-ops, so
// instrumented code pays one pointer test per stamp when tracing is
// off. Finished sampled spans land in a fixed-size ring buffer
// (JSONL-exportable) and feed per-phase latency histograms; phases
// that never fire on a request contribute no sample, so a phase no
// workload exercises (e.g. epoch_fallback) leaves an empty histogram
// — see the stats.Histogram.Quantile zero-sample contract.
package span

import (
	"context"
	"sync/atomic"
	"time"
)

// Phase indexes one segment of a request's life. Phases partition the
// span's wall time: each Mark attributes the time since the previous
// stamp to one phase.
type Phase int

// The serving-path phase taxonomy.
const (
	// QueueWait: admission (handler Start) until the shard worker
	// drains the request from its bounded queue. Includes request
	// decode and fan-out on the client side of the queue.
	QueueWait Phase = iota
	// EpochStage: dequeue until the group-commit epoch begins its
	// commit — staging buffer residency plus any linger, or, for
	// reads, the in-batch wait before the verified read runs.
	EpochStage
	// CommitClimb: the integrity work — counter accumulation, MAC and
	// BMT hashing, the bottom-up tree climb (and, for reads, the
	// verified read walk).
	CommitClimb
	// Persist: the data-block device-write phase of an epoch commit.
	Persist
	// EpochFallback: time spent replaying writes per-op after a failed
	// epoch commit. Zero on every healthy request.
	EpochFallback
	// Forward: upstream round-trip time a routing hop (amntproxy)
	// spent forwarding the request to the owning node. Zero on
	// requests served directly by a store.
	Forward
	// Ack: commit completion until the handler observes the response.
	Ack
	// ReadVerify: the optimistic verified read on the concurrent
	// reader-pool path — snapshot capture, hash/MAC verification, and
	// decrypt (including any bounded wait for a reader-pool slot).
	// Zero on queue-served requests; reader-pool requests conversely
	// report queue_wait 0, since they never enter the write queue.
	ReadVerify
	// NumPhases bounds the phase enum.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"queue_wait", "epoch_stage", "commit_climb", "persist", "epoch_fallback", "forward", "ack", "read_verify",
}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Span is one request's phase-attributed latency record. Created by
// Op.Start (or Leg for a per-shard child), stamped along the serving
// path, closed by Op.Done. All methods are nil-safe and all mutation
// is atomic; see the package comment for the concurrency contract.
type Span struct {
	id    string
	op    *Op       // owning endpoint; nil for legs
	start time.Time // immutable after creation

	shard    atomic.Int32            // -1 until a shard claims it
	lastMark atomic.Int64            // ns since start of the latest stamp
	phase    [NumPhases]atomic.Int64 // accumulated ns per phase
	total    atomic.Int64            // set once, by finish or End
	failed   atomic.Bool
	finished atomic.Bool
}

func newSpan(id string, op *Op) *Span {
	s := &Span{id: id, op: op, start: time.Now()}
	s.shard.Store(-1)
	return s
}

func (s *Span) sinceStart() int64 { return int64(time.Since(s.start)) }

// Mark attributes the time elapsed since the previous stamp to phase
// p and advances the stamp.
func (s *Span) Mark(p Phase) {
	if s == nil {
		return
	}
	el := s.sinceStart()
	prev := s.lastMark.Swap(el)
	if d := el - prev; d > 0 {
		s.phase[p].Add(d)
	}
}

// Add attributes ns nanoseconds to phase p without moving the stamp —
// used when a lower layer measured the duration itself (the epoch
// commit's climb/persist split).
func (s *Span) Add(p Phase, ns int64) {
	if s == nil || ns <= 0 {
		return
	}
	s.phase[p].Add(ns)
}

// Reset advances the stamp to now without attributing the elapsed
// time to any phase. Paired with Add: after absorbing externally
// measured durations, Reset discards the (near-identical) wall
// interval so it is not double counted.
func (s *Span) Reset() {
	if s == nil {
		return
	}
	s.lastMark.Store(s.sinceStart())
}

// SetShard records which store shard served the request.
func (s *Span) SetShard(id int) {
	if s == nil {
		return
	}
	s.shard.Store(int32(id))
}

// Leg mints a child span for one shard's slice of a fanned-out
// request (PutBatch/GetBatch). Legs are pure measurement — they are
// never published; the parent absorbs the one that ended last so its
// phase sum still decomposes the client-visible wall time.
func (s *Span) Leg() *Span {
	if s == nil {
		return nil
	}
	return newSpan(s.id, nil)
}

// End closes a leg and returns its total duration in nanoseconds.
// Idempotent; the first call wins. A request's own span is closed by
// Op.Done, so End on it only reads the total (0 while open), and code
// that closes whatever span a request carries needs no leg test.
func (s *Span) End() int64 {
	if s == nil {
		return 0
	}
	if s.op == nil && s.finished.CompareAndSwap(false, true) {
		s.total.Store(s.sinceStart())
	}
	return s.total.Load()
}

// Absorb folds the phases of the leg that ended last — the one on the
// request's critical path — into s; legs are a fan-out round's
// (nil ones are skipped). Wall time the parent spent outside that leg
// since its last stamp (fan-out, scheduling, fan-in) is attributed to
// Ack, and the stamp advances to now, so repeated rounds (a put round
// then a get round) accumulate correctly.
func (s *Span) Absorb(legs ...*Span) {
	if s == nil {
		return
	}
	var leg *Span
	for _, l := range legs {
		if l != nil && (leg == nil || l.endedAt().After(leg.endedAt())) {
			leg = l
		}
	}
	if leg == nil {
		return
	}
	legTotal := leg.End()
	el := s.sinceStart()
	prev := s.lastMark.Swap(el)
	for p := Phase(0); p < NumPhases; p++ {
		if v := leg.phase[p].Load(); v > 0 {
			s.phase[p].Add(v)
		}
	}
	if over := el - prev - legTotal; over > 0 {
		s.phase[Ack].Add(over)
	}
}

// endedAt closes a leg and returns when it ended.
func (s *Span) endedAt() time.Time { return s.start.Add(time.Duration(s.End())) }

// PhaseNs returns the nanoseconds attributed to p so far.
func (s *Span) PhaseNs(p Phase) int64 {
	if s == nil {
		return 0
	}
	return s.phase[p].Load()
}

// TotalNs returns the closed span's total duration (0 while open).
func (s *Span) TotalNs() int64 {
	if s == nil {
		return 0
	}
	return s.total.Load()
}

// ID returns the request id the span was minted with.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Shard returns the claiming shard, -1 for none or a multi-shard
// fan-out.
func (s *Span) Shard() int {
	if s == nil {
		return -1
	}
	return int(s.shard.Load())
}

// OpName returns the owning endpoint's name, "" for legs.
func (s *Span) OpName() string {
	if s == nil || s.op == nil {
		return ""
	}
	return s.op.name
}

// Timing is the client-visible JSON snapshot of a span — the
// Server-Timing-style field amntd embeds in responses and amntload
// aggregates into its report. Durations are microseconds.
type Timing struct {
	RequestID       string `json:"request_id,omitempty"`
	Op              string `json:"op,omitempty"`
	Shard           int    `json:"shard"`
	QueueWaitUs     int64  `json:"queue_wait_us"`
	EpochStageUs    int64  `json:"epoch_stage_us"`
	CommitClimbUs   int64  `json:"commit_climb_us"`
	PersistUs       int64  `json:"persist_us"`
	EpochFallbackUs int64  `json:"epoch_fallback_us"`
	ForwardUs       int64  `json:"forward_us,omitempty"`
	AckUs           int64  `json:"ack_us"`
	ReadVerifyUs    int64  `json:"read_verify_us,omitempty"`
	TotalUs         int64  `json:"total_us"`
}

// Timing snapshots the span for response embedding; nil on a nil
// span.
func (s *Span) Timing() *Timing {
	if s == nil {
		return nil
	}
	total := s.total.Load()
	if total == 0 {
		total = s.sinceStart()
	}
	return &Timing{
		RequestID:       s.id,
		Op:              s.OpName(),
		Shard:           s.Shard(),
		QueueWaitUs:     s.phase[QueueWait].Load() / 1e3,
		EpochStageUs:    s.phase[EpochStage].Load() / 1e3,
		CommitClimbUs:   s.phase[CommitClimb].Load() / 1e3,
		PersistUs:       s.phase[Persist].Load() / 1e3,
		EpochFallbackUs: s.phase[EpochFallback].Load() / 1e3,
		ForwardUs:       s.phase[Forward].Load() / 1e3,
		AckUs:           s.phase[Ack].Load() / 1e3,
		ReadVerifyUs:    s.phase[ReadVerify].Load() / 1e3,
		TotalUs:         total / 1e3,
	}
}

// ctxKey keys the span in a context.
type ctxKey struct{}

// NewContext returns ctx carrying s (ctx unchanged when s is nil).
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, nil when absent.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
