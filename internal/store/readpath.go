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
// read — a GetBatch leg, or a Get as a leg of one — into values/errs
// at positions idx (parallel to blocks). The reader pool serves what
// it can off the read view on the caller's goroutine, holding one slot
// for the leg, and stamps sp with the shard and the time as
// read_verify; the blocks it leaves come back as rest, one get for the
// shard's queue. Only rest
// holds on to memory, so a Get served off the pool allocates nothing
// but its value. A caller whose ctx expires while it waits for a slot
// is gone: its entries get ctx.Err() and nothing is queued for it.
func (sh *shard) readLeg(ctx context.Context, blocks []kvPair, idx []int, values [][]byte, errs []error, sp *span.Span) (rest call) {
	rest = call{sh: sh, req: request{op: opGet}}
	served := false
	if sh.readEligible() {
		select {
		case sh.readSem <- struct{}{}:
			served = sh.viewLeg(blocks, idx, values, errs, &rest)
			<-sh.readSem
			sp.SetShard(sh.id)
			sp.Mark(span.ReadVerify)
		case <-ctx.Done():
			for _, i := range idx {
				errs[i] = ctx.Err()
			}
			return call{}
		}
	}
	if !served {
		rest.req.kvs, rest.idx = append(rest.req.kvs[:0], blocks...), idx
	}
	return rest
}

// viewLeg serves blocks off the read view into values/errs at
// positions idx and adds what the view could not serve to rest. false
// means the queue must serve the whole leg: the shard stopped being
// eligible while the caller waited for a slot, or it detached or
// failed while the reads ran, and the queue answers with the ownership
// hint or the nack instead of possibly stale data.
func (sh *shard) viewLeg(blocks []kvPair, idx []int, values [][]byte, errs []error, rest *call) bool {
	if !sh.readEligible() {
		return false
	}
	for j, b := range blocks {
		v, fallback, err := sh.readViewBlock(b.block)
		if fallback {
			rest.req.kvs = append(rest.req.kvs, b)
			rest.idx = append(rest.idx, idx[j])
			continue
		}
		values[idx[j]], errs[idx[j]] = v, err
	}
	return sh.admit(false) == nil
}
