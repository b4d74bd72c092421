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
		sh.m.readRetries.Add(uint64(retries))
	}
	if err != nil {
		if errors.Is(err, mee.ErrViewConflict) ||
			errors.Is(err, mee.ErrViewUnsupported) ||
			errors.Is(err, mee.ErrRecovering) {
			sh.m.readFallbacks.Add(1)
			return nil, true, nil
		}
		sh.m.gets.Add(1)
		sh.countErr(err)
		return nil, false, asStoreErr(err)
	}
	sh.m.gets.Add(1)
	sh.m.concurrentReads.Add(1)
	n := int(blk[0])
	if n == 0 {
		sh.m.misses.Add(1)
		return nil, false, ErrNotFound
	}
	v = make([]byte, n-1)
	copy(v, blk[1:n])
	return v, false, nil
}

// getConcurrent attempts to serve one get off sh's reader pool.
// served=false means the caller must use the queue path (no counters
// or span phases were finalized). served=true is a complete outcome:
// the value, ErrNotFound, a genuine integrity error, or ctx expiry
// while waiting for a pool slot.
func (s *Store) getConcurrent(ctx context.Context, sh *shard, block uint64) (v []byte, served bool, err error) {
	select {
	case sh.readSem <- struct{}{}:
	case <-ctx.Done():
		return nil, true, ctx.Err()
	}
	defer func() { <-sh.readSem }()
	// The state may have flipped while waiting for a slot.
	if !sh.readEligible() {
		return nil, false, nil
	}
	v, fallback, err := sh.readViewBlock(block)
	if fallback {
		return nil, false, nil
	}
	if sh.admit(false) != nil {
		// The shard detached (migration hand-off) or failed while the
		// read ran; re-serve through the queue so the caller gets the
		// ownership hint or the nack instead of possibly stale data.
		return nil, false, nil
	}
	sp := span.FromContext(ctx)
	sp.SetShard(sh.id)
	// Pool-served gets never enter the write queue: queue_wait stays
	// 0 and the whole service time (slot wait + snapshot + verify +
	// decrypt) is attributed to read_verify.
	sp.Mark(span.ReadVerify)
	return v, true, err
}

// serveLegConcurrent attempts the reader pool for one GetBatch leg,
// holding a single pool slot for the whole leg. served=false means
// nothing was served — submit the full leg. When served, values/errs
// are parallel to blocks and leftover lists positions that still need
// the queue (their values/errs entries are unset); the pool slot is
// released before returning, so the caller may block on submit.
func (s *Store) serveLegConcurrent(ctx context.Context, sh *shard, blocks []kvPair, leg *span.Span) (values [][]byte, errs []error, leftover []int, served bool) {
	if !sh.readEligible() {
		return nil, nil, nil, false
	}
	select {
	case sh.readSem <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, nil, false
	}
	defer func() { <-sh.readSem }()
	if !sh.readEligible() {
		return nil, nil, nil, false
	}
	values = make([][]byte, len(blocks))
	errs = make([]error, len(blocks))
	for i, b := range blocks {
		v, fallback, err := sh.readViewBlock(b.block)
		if fallback {
			leftover = append(leftover, i)
			continue
		}
		values[i], errs[i] = v, err
	}
	if sh.admit(false) != nil {
		return nil, nil, nil, false
	}
	leg.SetShard(sh.id)
	leg.Mark(span.ReadVerify)
	return values, errs, leftover, true
}
