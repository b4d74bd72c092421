package store

import (
	"context"
	"sync"

	"amnt/internal/telemetry/span"
)

// absorbSlowest folds the slowest (critical-path) leg of a fan-out
// round into the parent span, so the parent's phase sum still
// decomposes the client-visible wall time, and marks the parent as a
// multi-shard request when more than one shard served it.
func absorbSlowest(parent *span.Span, legs []*span.Span) {
	if parent == nil || len(legs) == 0 {
		return
	}
	slowest := legs[0]
	for _, l := range legs[1:] {
		if l.End() > slowest.End() {
			slowest = l
		}
	}
	parent.Absorb(slowest)
	if len(legs) == 1 {
		// A batch that happened to route to one shard is attributable
		// to it; a true fan-out stays -1 ("multi").
		parent.SetShard(slowest.Shard())
	}
}

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

// PutBatch stores every pair in kvs, submitting one request per shard
// (fan-out/fan-in) instead of one queue round-trip per key — the
// client-side expression of a group-commit epoch. The result is
// one error per input pair, nil on success; a shard-level failure
// (ErrOverloaded, ErrClosed, ErrShardFailed, context expiry) is
// reported on every key routed to that shard. Values are copied;
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
	spans := make([]*span.Span, 0, len(legs))
	var wg sync.WaitGroup
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
		sp := parent.Leg()
		spans = append(spans, sp)
		wg.Add(1)
		go func(l leg, sp *span.Span) {
			defer wg.Done()
			resp, err := s.submit(ctx, l.sh, request{op: opPut, kvs: pairs, sp: sp})
			sp.End()
			for j, i := range l.idx {
				if err != nil {
					errs[i] = err
					continue
				}
				errs[i] = resp.errs[j]
			}
		}(l, sp)
	}
	wg.Wait()
	absorbSlowest(parent, spans)
	return errs
}

// GetBatch returns the values stored at keys, one multi-op request per
// shard. Results are parallel to keys: values[i] is non-nil exactly
// when errs[i] is nil; a missing key reports ErrNotFound, and a
// shard-level failure is reported on every key routed to that shard.
func (s *Store) GetBatch(ctx context.Context, keys []uint64) ([][]byte, []error) {
	values := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	parts := uint64(s.cfg.Partitions)
	parent := span.FromContext(ctx)
	legs := s.fanOut(len(keys), func(i int) uint64 { return keys[i] }, errs)
	spans := make([]*span.Span, 0, len(legs))
	var wg sync.WaitGroup
	for _, l := range legs {
		if l.sh == nil {
			continue
		}
		blocks := make([]kvPair, len(l.idx))
		for j, i := range l.idx {
			blocks[j].block = keys[i] / parts
		}
		sp := parent.Leg()
		spans = append(spans, sp)
		wg.Add(1)
		go func(l leg, sp *span.Span) {
			defer wg.Done()
			defer sp.End()
			vals, ves := make([][]byte, len(blocks)), make([]error, len(blocks))
			s.readLeg(ctx, l.sh, blocks, sp, vals, ves)
			for j, i := range l.idx {
				values[i], errs[i] = vals[j], ves[j]
			}
		}(l, sp)
	}
	wg.Wait()
	absorbSlowest(parent, spans)
	return values, errs
}
