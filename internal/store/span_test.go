package store

import (
	"context"
	"testing"
	"time"

	"amnt/internal/telemetry/span"
)

// spanFor runs fn with a fresh span threaded through the context and
// returns it for phase inspection.
func spanFor(t *testing.T, fn func(ctx context.Context) error) *span.Span {
	t.Helper()
	r := span.New(span.Config{SampleEvery: 1})
	op := r.Op("test")
	sp := op.Start("req")
	if sp == nil {
		t.Fatal("sampling gate returned nil at SampleEvery 1")
	}
	if err := fn(span.NewContext(context.Background(), sp)); err != nil {
		t.Fatalf("traced op: %v", err)
	}
	return sp
}

// TestSpanAttributionPut verifies a put threaded through the serving
// path comes back with every expected phase stamped: queue wait at
// dequeue, epoch residency at commit, the commit's climb/persist wall
// split, and no fallback on the healthy path.
func TestSpanAttributionPut(t *testing.T) {
	s := mustOpen(t, testConfig())
	sp := spanFor(t, func(ctx context.Context) error {
		return s.Put(ctx, 42, []byte("traced"))
	})
	if sp.Shard() < 0 {
		t.Fatalf("shard = %d, want claimed", sp.Shard())
	}
	if sp.PhaseNs(span.QueueWait) <= 0 {
		t.Fatal("queue_wait never stamped")
	}
	if sp.PhaseNs(span.EpochStage) <= 0 {
		t.Fatal("epoch_stage never stamped")
	}
	if sp.PhaseNs(span.CommitClimb) <= 0 {
		t.Fatal("commit_climb never stamped")
	}
	if sp.PhaseNs(span.EpochFallback) != 0 {
		t.Fatal("healthy put charged epoch_fallback")
	}
}

// TestSpanAttributionGet verifies the read path: the verified read
// walk lands in commit_climb, and write-only phases stay zero.
func TestSpanAttributionGet(t *testing.T) {
	s := mustOpen(t, testConfig())
	ctx := context.Background()
	if err := s.Put(ctx, 7, []byte("v")); err != nil {
		t.Fatalf("seed put: %v", err)
	}
	sp := spanFor(t, func(ctx context.Context) error {
		_, err := s.Get(ctx, 7)
		return err
	})
	if sp.PhaseNs(span.QueueWait) <= 0 {
		t.Fatal("queue_wait never stamped")
	}
	if sp.PhaseNs(span.CommitClimb) <= 0 {
		t.Fatal("commit_climb (verified read walk) never stamped")
	}
	if sp.PhaseNs(span.Persist) != 0 {
		t.Fatal("read charged persist")
	}
}

// TestSpanAttributionBatch verifies fan-out attribution: the parent
// span absorbs the leg that ended last, so a multi-shard batch still
// reports serving-path phases, and a cross-shard batch is marked
// multi-shard.
func TestSpanAttributionBatch(t *testing.T) {
	s := mustOpen(t, testConfig())
	kvs := make([]KV, 16)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i), Value: stamp(uint64(i))}
	}
	sp := spanFor(t, func(ctx context.Context) error {
		for _, err := range s.PutBatch(ctx, kvs) {
			if err != nil {
				return err
			}
		}
		_, errs := s.GetBatch(ctx, []uint64{0, 1, 2, 3})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	// 16 sequential keys over 4 shards is a genuine fan-out.
	if sp.Shard() != -1 {
		t.Fatalf("shard = %d, want -1 (multi)", sp.Shard())
	}
	if sp.PhaseNs(span.QueueWait) <= 0 {
		t.Fatal("queue_wait never absorbed from a leg")
	}
	if sp.PhaseNs(span.CommitClimb) <= 0 {
		t.Fatal("commit_climb never absorbed from a leg")
	}

	// Shard 0's leg is awaited first, but its worker is held: it is the
	// slowest put leg, and the others end when their workers answer,
	// long before the caller awaits them. The parent absorbs the held
	// leg, queue wait and all.
	const hold = 30 * time.Millisecond
	release := holdWorker(t, s, 0)
	time.AfterFunc(hold, release)
	sp = spanFor(t, func(ctx context.Context) error {
		for _, err := range s.PutBatch(ctx, kvs) {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if got := time.Duration(sp.PhaseNs(span.QueueWait)); got < hold*2/3 {
		t.Fatalf("parent queue_wait %v with shard 0 held %v: the held leg was not absorbed", got, hold)
	}
}

// TestRecoveryWatermark verifies the live rebuild progress plumbing:
// after a power-cycle recovery every shard reports a completed
// watermark (done == total > 0) and a wall time.
func TestRecoveryWatermark(t *testing.T) {
	s := mustOpen(t, testConfig())
	ctx := context.Background()
	for k := uint64(0); k < 64; k++ {
		if err := s.Put(ctx, k, stamp(k)); err != nil {
			t.Fatalf("seed put: %v", err)
		}
	}
	if err := s.Recover(ctx); err != nil {
		t.Fatalf("recover: %v", err)
	}
	snap := s.Stats()
	for _, sh := range snap.Shards {
		if sh.RecoveryTotal == 0 {
			t.Fatalf("shard %d: recovery watermark total = 0 after recover", sh.Shard)
		}
		if sh.RecoveryDone != sh.RecoveryTotal {
			t.Fatalf("shard %d: watermark %d/%d, want complete",
				sh.Shard, sh.RecoveryDone, sh.RecoveryTotal)
		}
	}
}
