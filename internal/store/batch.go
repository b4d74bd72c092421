package store

import (
	"context"

	"amnt/internal/telemetry/span"
)

// KV is one key/value pair of a batched put.
type KV struct {
	Key   uint64
	Value []byte
}

// leg is one shard's share of a batch: the positions of its keys in
// the caller's slice, in the caller's order.
type leg struct {
	sh  *shard
	n   int // keys routed here; idx is sized from it
	idx []int
}

// fanOut groups n keys by owning shard. Keys whose errs entry is
// already set are left out; a key no hosted shard can hold gets its
// errs entry set here. The groups are indexed by partition and a
// group's idx is sized exactly, so the grouping costs one allocation
// per shard touched however many keys there are.
func (s *Store) fanOut(n int, key func(i int) uint64, errs []error) []leg {
	tab, parts := s.table(), uint64(s.cfg.Partitions)
	legs := make([]leg, parts)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			continue
		}
		k := key(i)
		p := k % parts
		sh := tab.parts[int(p)]
		switch {
		case sh == nil:
			errs[i] = &NotOwnedError{Partition: int(p)}
		case k/parts >= sh.blocks:
			errs[i] = ErrOutOfRange
		default:
			legs[p].sh = sh
			legs[p].n++
		}
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			continue
		}
		l := &legs[key(i)%parts]
		if l.idx == nil {
			l.idx = make([]int, 0, l.n)
		}
		l.idx = append(l.idx, i)
	}
	return legs
}

// call is one leg of a batch on its way through a shard's queue: the
// request, and the positions in the caller's result slices its
// entries answer, in order. err is set when it could not be queued.
type call struct {
	sh  *shard
	req request
	idx []int
	err error
}

// send queues c traced by sp; a refusal waits in c.err for collect.
func (s *Store) send(ctx context.Context, c *call, sp *span.Span) {
	c.req.sp = sp
	c.req, c.err = s.enqueue(ctx, c.sh, c.req)
}

// wait awaits c's answer, or returns why it could not be queued.
func (c *call) wait(ctx context.Context) (response, error) {
	if c.err != nil {
		return response{}, c.err
	}
	return await(ctx, c.req)
}

// collect waits for c and writes its answer at c.idx into errs, and
// into values for a get. A failed call fails each of its entries.
func (c *call) collect(ctx context.Context, values [][]byte, errs []error) {
	resp, err := c.wait(ctx)
	for k, i := range c.idx {
		errs[i] = err
		if err == nil {
			errs[i] = resp.errs[k]
		}
		if values != nil {
			values[i] = nil
			if err == nil {
				values[i] = resp.values[k]
			}
		}
	}
}

// finish collects a fan-out round's calls and folds the round into the
// parent span, so its phase sum still decomposes the client-visible
// wall time: the parent absorbs the leg that ended last (the critical
// path), and a round one shard served is attributable to that shard;
// a true fan-out stays -1 ("multi").
func finish(ctx context.Context, parent *span.Span, legs []leg, calls []call, values [][]byte, errs []error) {
	spans := make([]*span.Span, len(calls))
	for i := range calls {
		calls[i].collect(ctx, values, errs)
		spans[i] = calls[i].req.sp
	}
	parent.Absorb(spans...)
	var lone *shard
	for _, l := range legs {
		if l.sh != nil && lone != nil {
			parent.SetShard(-1)
			return
		} else if l.sh != nil {
			lone = l.sh
		}
	}
	if lone != nil {
		parent.SetShard(lone.id)
	}
}

// PutBatch stores every pair in kvs, submitting one request per shard
// (fan-out/fan-in) instead of one queue round-trip per key — the
// client-side expression of a group-commit epoch; every leg is queued
// before any is awaited. The result is one error per input pair, nil
// on success; a shard-level failure (ErrOverloaded, ErrClosed,
// ErrShardFailed, context expiry) is reported on every key routed to
// that shard. Values are copied;
// callers may reuse their buffers. Acknowledgment semantics match Put:
// a nil error means the write is durable to the same degree a per-op
// acknowledged write is.
func (s *Store) PutBatch(ctx context.Context, kvs []KV) []error {
	errs := make([]error, len(kvs))
	for i, kv := range kvs {
		if len(kv.Value) > MaxValueLen {
			errs[i] = ErrValueTooLarge
		}
	}
	parts := uint64(s.cfg.Partitions)
	parent := span.FromContext(ctx)
	legs := s.fanOut(len(kvs), func(i int) uint64 { return kvs[i].Key }, errs)
	calls := make([]call, 0, len(legs))
	for _, l := range legs {
		if l.sh == nil {
			continue
		}
		// The leg's values are copied into one slab the request owns.
		size := 0
		for _, i := range l.idx {
			size += len(kvs[i].Value)
		}
		slab := make([]byte, 0, size)
		pairs := make([]kvPair, len(l.idx))
		for j, i := range l.idx {
			off := len(slab)
			slab = append(slab, kvs[i].Value...)
			pairs[j] = kvPair{block: kvs[i].Key / parts, value: slab[off:len(slab):len(slab)]}
		}
		calls = append(calls, call{sh: l.sh, req: request{op: opPut, kvs: pairs}, idx: l.idx})
		s.send(ctx, &calls[len(calls)-1], parent.Leg())
	}
	finish(ctx, parent, legs, calls, nil, errs)
	return errs
}

// GetBatch returns the values stored at keys, one multi-op request per
// shard. Results are parallel to keys: values[i] is non-nil exactly
// when errs[i] is nil; a missing key reports ErrNotFound, and a
// shard-level failure is reported on every key routed to that shard.
// The read view serves what it can of each leg in turn on the caller's
// goroutine, so the legs' read_verify times add up on the parent; what
// it leaves is queued on every shard concerned before any answer is
// awaited.
func (s *Store) GetBatch(ctx context.Context, keys []uint64) ([][]byte, []error) {
	values := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	parts := uint64(s.cfg.Partitions)
	parent := span.FromContext(ctx)
	legs := s.fanOut(len(keys), func(i int) uint64 { return keys[i] }, errs)
	calls := make([]call, 0, len(legs))
	for _, l := range legs {
		if l.sh == nil {
			continue
		}
		blocks := make([]kvPair, len(l.idx))
		for j, i := range l.idx {
			blocks[j].block = keys[i] / parts
		}
		if rest := l.sh.readLeg(ctx, blocks, l.idx, values, errs, parent); len(rest.idx) > 0 {
			calls = append(calls, rest)
		}
	}
	for i := range calls {
		s.send(ctx, &calls[i], parent.Leg())
	}
	finish(ctx, parent, legs, calls, values, errs)
	return values, errs
}
