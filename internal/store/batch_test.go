package store

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"amnt/internal/telemetry/span"
)

// holdWorker parks partition p's worker on a flush whose answer nobody
// takes until release is called (and at cleanup, before the store
// closes). It returns once the worker is blocked on that answer, so
// its queue is empty and whatever is queued next waits there.
func holdWorker(t *testing.T, s *Store, p int) (release func()) {
	t.Helper()
	sh, err := s.lookup(p)
	if err != nil {
		t.Fatal(err)
	}
	// The worker closes a leg span just before it answers, so the
	// span's total says it is blocked on the send.
	sp := span.New(span.Config{SampleEvery: 1}).Op("hold").Start("hold").Leg()
	hold := request{op: opFlush, sp: sp, resp: make(chan response)}
	sh.ch <- hold
	for sp.TotalNs() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	var once sync.Once
	release = func() { once.Do(func() { <-hold.resp }) }
	t.Cleanup(release)
	return release
}

// batchOf is keys 0..n-1 with their stamps.
func batchOf(n int) ([]KV, []uint64) {
	kvs, keys := make([]KV, n), make([]uint64, n)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i), Value: stamp(uint64(i))}
		keys[i] = uint64(i)
	}
	return kvs, keys
}

// TestBatchOverloadFailsOnlyThatShard fills one shard's queue behind a
// parked worker: PutBatch and GetBatch over 4 shards fail exactly that
// shard's keys with ErrOverloaded and serve the rest.
func TestBatchOverloadFailsOnlyThatShard(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	s := mustOpen(t, cfg)
	ctx := context.Background()
	kvs, keys := batchOf(16)
	for i, err := range s.PutBatch(ctx, kvs) {
		if err != nil {
			t.Fatalf("seed put %d: %v", i, err)
		}
	}

	const full = 1
	release := holdWorker(t, s, full)
	sh, _ := s.lookup(full)
	for len(sh.ch) < cap(sh.ch) {
		sh.ch <- request{op: opFlush, resp: make(chan response, 1)}
	}

	kvs[full].Value = []byte("refused")
	for i, err := range s.PutBatch(ctx, kvs) {
		if i%4 == full {
			if !errors.Is(err, ErrOverloaded) {
				t.Errorf("put %d on the full shard: %v, want ErrOverloaded", i, err)
			}
		} else if err != nil {
			t.Errorf("put %d: %v", i, err)
		}
	}
	values, errs := s.GetBatch(ctx, keys)
	for i, err := range errs {
		if i%4 == full {
			if !errors.Is(err, ErrOverloaded) || values[i] != nil {
				t.Errorf("get %d on the full shard: %q %v, want ErrOverloaded", i, values[i], err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		checkStamp(t, uint64(i), values[i])
	}

	release()
	for len(sh.ch) > 0 {
		time.Sleep(100 * time.Microsecond) // the fillers drain
	}
	v, err := s.Get(ctx, full)
	if err != nil {
		t.Fatalf("get after release: %v", err)
	}
	checkStamp(t, full, v) // the refused put never landed
}

// TestBatchCtxExpiryFailsOutstandingKeys parks one shard's worker past
// the caller's deadline: every key of that shard reports ctx.Err(),
// the other shards' answers (already in) are kept, and the abandoned
// puts are never applied.
func TestBatchCtxExpiryFailsOutstandingKeys(t *testing.T) {
	s := mustOpen(t, testConfig())
	kvs, keys := batchOf(16)
	const parked = 2
	release := holdWorker(t, s, parked)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	for i, err := range s.PutBatch(ctx, kvs) {
		if i%4 == parked {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("put %d on the parked shard: %v, want deadline", i, err)
			}
		} else if err != nil {
			t.Errorf("put %d: %v", i, err)
		}
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	values, errs := s.GetBatch(ctx2, keys)
	for i, err := range errs {
		if i%4 == parked {
			if !errors.Is(err, context.DeadlineExceeded) || values[i] != nil {
				t.Errorf("get %d on the parked shard: %q %v, want deadline", i, values[i], err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		checkStamp(t, uint64(i), values[i])
	}

	release()
	for k := uint64(parked); k < 16; k += 4 {
		if _, err := s.Get(context.Background(), k); !errors.Is(err, ErrNotFound) {
			t.Errorf("abandoned put %d: get %v, want ErrNotFound", k, err)
		}
	}
}
