package sim

import (
	"context"
	"fmt"
	"math"
	"sync"

	"amnt/internal/mee"
	"amnt/internal/workload"
)

// event is one recorded transfer (DESIGN.md §2.1): gap static cycles
// after the previous event, read block (or write it back, when op
// carries writeBackBit) as of version.
type event struct {
	gap     uint32
	version uint32
	op      uint64 // block number | writeBackBit, or gapOnly
}

const (
	writeBackBit = 1 << 63
	// gapOnly marks an event that only advances the clock: it carries
	// the part of a gap too long for one event's 32 bits.
	gapOnly = math.MaxUint64
)

// chunkEvents is the number of events in one chunk of a Stream.
const chunkEvents = 4096

// chunk is one fixed-size piece of a Stream. Chunks are pooled, so a
// recording that follows a released one allocates nothing.
type chunk struct {
	ev   [chunkEvents]event
	next *chunk
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// Stream is one recorded front-end run: every transfer its cache
// hierarchies raised, in order, plus the front end's share of the
// Result. Record makes one; Replay drives any protocol's back end with
// it and gets the Result the live machine would have returned. A
// Stream is read-only once recorded, so concurrent Replays may share
// it.
type Stream struct {
	head, tail *chunk
	n          int // events in tail
	events     int // gap-only padding included
	// rest is the static time after the last event.
	rest uint64
	// front is the front end's share of the Result: workloads,
	// accesses, instructions, L1 hit rate, page faults and histogram.
	front Result
}

// Release returns the stream's memory to the pool. The stream must not
// be replayed afterwards.
func (s *Stream) Release() {
	for c := s.head; c != nil; {
		next := c.next
		c.next = nil
		chunkPool.Put(c)
		c = next
	}
	*s = Stream{}
}

func (s *Stream) push(ev event) {
	if s.tail == nil || s.n == chunkEvents {
		c := chunkPool.Get().(*chunk)
		if s.tail == nil {
			s.head = c
		} else {
			s.tail.next = c
		}
		s.tail, s.n = c, 0
	}
	s.tail.ev[s.n] = ev
	s.n++
	s.events++
}

func (s *Stream) append(gap, block uint64, version uint32, writeBack bool) {
	for gap > math.MaxUint32 {
		s.push(event{gap: math.MaxUint32, op: gapOnly})
		gap -= math.MaxUint32
	}
	op := block
	if writeBack {
		op |= writeBackBit
	}
	s.push(event{gap: uint32(gap), version: version, op: op})
}

// Record runs the front end of cfg's machine — traces, kernel, cache
// hierarchies — over one freshly generated trace per spec, exactly as
// NewMachine would, and returns the transfers it raised. No controller
// is built.
func Record(ctx context.Context, cfg Config, specs []workload.Spec) (*Stream, error) {
	f := newFrontEnd(cfg.withDefaults().FrontEndConfig, traces(cfg.FrontEndConfig, specs))
	f.rec = &Stream{}
	if _, err := f.roundRobin(ctx, func(i int) (bool, bool, error) {
		done, err := f.step(i)
		return done, false, err
	}); err != nil {
		f.rec.Release()
		return nil, fmt.Errorf("sim: recording aborted at static cycle %d: %w", f.static, err)
	}
	s := f.rec
	s.rest = f.static - f.last
	s.front = f.result()
	return s, nil
}

// Replay runs s through a fresh back end — device, controller and
// policy built from cfg's MemoryBytes and MEE — and returns the Result
// the live machine would have returned for the same config and
// policy. s must have been recorded under cfg.FrontEndConfig; the MEE
// settings are free. Every read is still checked against the bytes the block's
// recorded version derives, so the data oracle is unchanged.
func Replay(ctx context.Context, cfg Config, policy mee.Policy, s *Stream) (Result, error) {
	b := newBackEnd(cfg.withDefaults(), policy)
	if err := b.replay(ctx, s); err != nil {
		return Result{}, err
	}
	r := s.front
	b.fill(&r, b.now+s.rest)
	return r, nil
}
