package store

import (
	"context"
	"errors"

	"amnt/internal/mee"
	"amnt/internal/scm"
	"amnt/internal/telemetry/span"
)

// The concurrent read path: when Config.ReadConcurrency is positive
// and the shard's policy supports the mee read view, gets on a
// healthy shard are served directly by the caller's goroutine under a
// per-shard bounded semaphore, bypassing the write queue entirely.
// Everything that is not a healthy-shard verified read falls back to
// the serialized queue path, which remains the single authority for
// degradation semantics: quarantined shards nack ErrShardFailed,
// blocking-recovery shards nack ErrRecovering, degraded-recovering
// shards admit with provisional loads, stopped shards answer
// NotOwnedError — all unchanged from the pre-pool behavior.

// readEligible reports whether a get may try the reader pool right
// now: the shard admits reads and its tree is whole. Recovering
// shards are excluded even when they admit degraded traffic — the
// worker leaves stateServing before it crashes the controller, and
// the read view refuses mid-rebuild state anyway (ErrRecovering).
func (sh *shard) readEligible() bool {
	return sh.readSem != nil && sh.load() == stateServing && sh.admit(false) == nil
}

// readViewBlock runs one verified read off the shard's read view and
// unframes the value. fallback=true means the serialized path must
// serve this block (snapshot conflict, recovery, or an unsupported
// policy); err is then nil. Counters mirror the queue path's:
// served reads count into gets/misses, abandoned attempts into
// read_fallbacks only (the queue serve will count the get).
func (sh *shard) readViewBlock(block uint64) (v []byte, fallback bool, err error) {
	var blk [scm.BlockSize]byte
	retries, err := sh.ctrl.ReadBlockConcurrent(block, blk[:])
	if retries > 0 {
		sh.m[cReadRetries].Add(uint64(retries))
	}
	if err != nil {
		if errors.Is(err, mee.ErrViewConflict) ||
			errors.Is(err, mee.ErrViewUnsupported) ||
			errors.Is(err, mee.ErrRecovering) {
			sh.m[cReadFallbacks].Add(1)
			return nil, true, nil
		}
		sh.m[cGets].Add(1)
		sh.countErr(err)
		return nil, false, asStoreErr(err)
	}
	sh.m[cGets].Add(1)
	sh.m[cConcurrentReads].Add(1)
	v, err = unpackValue(&blk)
	if err != nil {
		sh.m[cMisses].Add(1)
	}
	return v, false, err
}

// readLeg is the one read route: it serves one shard's share of a
// read — a GetBatch leg, or a Get as a leg of one — into values/errs,
// parallel to blocks. The reader pool serves what it can off the read
// view; the blocks it leaves go to the shard's queue in one request.
// Only that request holds on to memory, so a Get served off the pool
// allocates nothing but its value.
func (s *Store) readLeg(ctx context.Context, sh *shard, blocks []kvPair, sp *span.Span, values [][]byte, errs []error) {
	left, served, err := sh.viewLeg(ctx, blocks, values, errs)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return
	}
	if served {
		// Pool-served gets never enter the write queue: queue_wait stays
		// 0 and the whole service time (slot wait + snapshot + verify +
		// decrypt) is attributed to read_verify.
		sp.SetShard(sh.id)
		sp.Mark(span.ReadVerify)
		if len(left) == 0 {
			return
		}
	}
	queue := make([]kvPair, 0, len(blocks))
	if served {
		for _, i := range left {
			queue = append(queue, blocks[i])
		}
	} else {
		queue = append(queue, blocks...)
	}
	resp, err := s.submit(ctx, sh, request{op: opGet, kvs: queue, sp: sp})
	for k := range queue {
		i := k
		if served {
			i = left[k]
		}
		if err != nil {
			values[i], errs[i] = nil, err
			continue
		}
		values[i], errs[i] = resp.values[k], resp.errs[k]
	}
}

// viewLeg serves blocks off the read view into values/errs, holding
// one reader-pool slot for the whole leg. served=false means the queue
// must serve the whole leg: the shard is not eligible, or it detached
// (migration hand-off) or failed while the reads ran, and the queue
// answers with the ownership hint or the nack instead of possibly
// stale data. Otherwise left lists the positions the view could not
// serve. err is the caller's ctx expiring while it waited for a slot:
// the caller is gone, so nothing is queued for it.
func (sh *shard) viewLeg(ctx context.Context, blocks []kvPair, values [][]byte, errs []error) (left []int, served bool, err error) {
	if !sh.readEligible() {
		return nil, false, nil
	}
	select {
	case sh.readSem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	defer func() { <-sh.readSem }()
	// The state may have flipped while waiting for a slot.
	if !sh.readEligible() {
		return nil, false, nil
	}
	for i, b := range blocks {
		v, fallback, err := sh.readViewBlock(b.block)
		if fallback {
			left = append(left, i)
			continue
		}
		values[i], errs[i] = v, err
	}
	return left, sh.admit(false) == nil, nil
}
