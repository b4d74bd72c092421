package telemetry

import (
	"encoding/json"
	"io"
)

// Event kinds emitted by the instrumented stack. The set is open —
// the tracer stores kinds as strings — but these constants name the
// protocol occurrences the paper's dynamics are made of.
const (
	// EvSubtreeMove: an AMNT-family policy retargeted a fast-subtree
	// register (From/To are region indices, Level the subtree level,
	// Cycles the movement's charged latency, Count flushed nodes).
	EvSubtreeMove = "subtree_move"
	// EvOverflow: a minor counter overflowed and its page was
	// re-encrypted (Addr is the counter-block index).
	EvOverflow = "counter_overflow"
	// EvWQStall: a posted write hit write-queue back-pressure (Cycles
	// is the stall length, Count the queue occupancy at admit).
	EvWQStall = "wq_stall"
	// EvCheckpoint: a machine checkpoint was saved or loaded (Note is
	// "save" or "load").
	EvCheckpoint = "checkpoint"
	// EvCrash: power failure — volatile state dropped.
	EvCrash = "crash"
	// EvRecovery: a crash recovery completed (Cycles is simulated
	// recovery time, Count blocks scanned, Note the protocol, From the
	// host wall-clock nanoseconds the recovery took — informational
	// only, never part of a simulated result).
	EvRecovery = "recovery"
	// EvEpochCommit: a group-commit integrity epoch committed (Count is
	// staged writes, From distinct data blocks written, To distinct
	// tree nodes rehashed, Cycles the commit's simulated latency).
	EvEpochCommit = "epoch_commit"
	// EvFault: the fault-injection harness applied one fault to the
	// device (Cycle is the crash cycle, Addr the block index, Note
	// "protocol/kind/region").
	EvFault = "fault"
	// EvInvariantViolation: the recovery invariant checker flagged a
	// cell — a panic, a hang, or silently accepted corruption (Note
	// carries the violation text).
	EvInvariantViolation = "invariant_violation"
)

// Event is one timestamped protocol occurrence. It is a flat,
// fixed-size record (no maps) so the ring buffer never allocates per
// event; kinds reuse the general-purpose fields as documented on the
// Ev* constants, and unused fields stay zero and are omitted from the
// JSONL encoding.
type Event struct {
	Cycle  uint64 `json:"cycle"`
	Kind   string `json:"kind"`
	Level  int    `json:"level,omitempty"`
	From   uint64 `json:"from,omitempty"`
	To     uint64 `json:"to,omitempty"`
	Addr   uint64 `json:"addr,omitempty"`
	Cycles uint64 `json:"cycles,omitempty"`
	Count  uint64 `json:"count,omitempty"`
	Note   string `json:"note,omitempty"`
}

// DefaultTraceCapacity bounds the ring buffer when Config leaves it
// zero: 64k events ≈ 5 MB, enough for every movement and overflow of
// a full-length run while capping stall floods.
const DefaultTraceCapacity = 1 << 16

// Tracer is a bounded, overwrite-oldest event sink. All methods are
// nil-safe; Emit on a nil tracer is a single branch with no
// allocation, which is what keeps instrumented hot paths free when
// tracing is disabled.
type Tracer struct {
	buf     []Event
	next    int
	wrapped bool
	total   uint64
}

// NewTracer returns a tracer holding up to capacity events
// (0 = DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit records one event, overwriting the oldest when full. Nil-safe;
// a zero-value Tracer allocates the default ring on first use.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if cap(t.buf) == 0 {
		t.buf = make([]Event, 0, DefaultTraceCapacity)
	}
	t.total++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.next] = e
	t.next = (t.next + 1) % len(t.buf)
	t.wrapped = true
}

// Total returns how many events were emitted over the tracer's
// lifetime (including any that were overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Dropped returns how many emitted events were overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		return append([]Event(nil), t.buf...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// WriteJSONL writes the retained events as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Config selects what a telemetry session collects.
type Config struct {
	// EpochCycles is the time-series sampling period in simulated
	// cycles (0 = DefaultEpochCycles).
	EpochCycles uint64
	// TraceCapacity bounds the event ring buffer
	// (0 = DefaultTraceCapacity).
	TraceCapacity int
}

// Session bundles one run's telemetry: the registry its components
// registered into, the epoch time series over that registry, and the
// protocol event trace. A nil session no-ops everywhere.
type Session struct {
	Registry *Registry
	Series   *Series
	Trace    *Tracer
}

// NewSession builds an empty session from cfg.
func NewSession(cfg Config) *Session {
	reg := NewRegistry()
	return &Session{
		Registry: reg,
		Series:   NewSeries(reg, cfg.EpochCycles),
		Trace:    NewTracer(cfg.TraceCapacity),
	}
}

// Tick advances the epoch sampler to the simulated time now.
func (s *Session) Tick(now uint64) {
	if s == nil {
		return
	}
	s.Series.Tick(now)
}

// Flush takes the final end-of-run sample.
func (s *Session) Flush(now uint64) {
	if s == nil {
		return
	}
	s.Series.Flush(now)
}
