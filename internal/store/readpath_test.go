package store

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// readConfig is testConfig with the per-shard reader pool enabled.
func readConfig() Config {
	cfg := testConfig()
	cfg.ReadConcurrency = 4
	return cfg
}

// TestStoreConcurrentReadServesOffPool proves the fast path actually
// engages: with ReadConcurrency set, gets on a quiet store are served
// by the caller's goroutine (concurrent_reads counts them) and never
// touch the queue-wait phase.
func TestStoreConcurrentReadServesOffPool(t *testing.T) {
	s := mustOpen(t, readConfig())
	ctx := context.Background()
	for key := uint64(0); key < 64; key++ {
		if err := s.Put(ctx, key, stamp(key)); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	for key := uint64(0); key < 64; key++ {
		v, err := s.Get(ctx, key)
		if err != nil {
			t.Fatalf("get %d: %v", key, err)
		}
		checkStamp(t, key, v)
	}
	// Missing keys are still ErrNotFound off the fast path.
	if _, err := s.Get(ctx, 4095); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	snap := s.Stats()
	var conc, fallbacks uint64
	for _, ss := range snap.Shards {
		conc += ss.counts[cConcurrentReads]
		fallbacks += ss.counts[cReadFallbacks]
	}
	if conc == 0 {
		t.Fatal("no gets served off the reader pool")
	}
	if conc+fallbacks < 64 {
		t.Fatalf("reads unaccounted for: concurrent=%d fallbacks=%d", conc, fallbacks)
	}
	var gets uint64
	for _, ss := range snap.Shards {
		gets += ss.counts[cGets]
	}
	if gets < 64 {
		t.Fatalf("gets = %d, want >= 64", gets)
	}
}

// TestStoreReadConcurrencyDisabled pins the default: with
// ReadConcurrency zero the pool never engages and every get is
// serialized through the shard worker, exactly as before.
func TestStoreReadConcurrencyDisabled(t *testing.T) {
	s := mustOpen(t, testConfig())
	ctx := context.Background()
	if err := s.Put(ctx, 7, stamp(7)); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkStamp(t, 7, v)
	for _, ss := range s.Stats().Shards {
		if ss.counts[cConcurrentReads] != 0 {
			t.Fatalf("shard %d served %d concurrent reads with the pool disabled", ss.Shard, ss.counts[cConcurrentReads])
		}
	}
}

// TestStoreUnsupportedPolicyFallsBack: a protocol whose policy opts
// out of concurrent reads (indirect reads mutate the shadow table) must
// silently serialize every get even when ReadConcurrency is set.
func TestStoreUnsupportedPolicyFallsBack(t *testing.T) {
	cfg := readConfig()
	cfg.Protocol = "indirect"
	s := mustOpen(t, cfg)
	ctx := context.Background()
	if err := s.Put(ctx, 7, stamp(7)); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkStamp(t, 7, v)
	for _, ss := range s.Stats().Shards {
		if ss.counts[cConcurrentReads] != 0 {
			t.Fatalf("shard %d bypassed the queue under an opt-out policy", ss.Shard)
		}
	}
}

// TestStoreConcurrentReadHammer is the system-level race hammer: 8
// writer goroutines churn stamped values while 32 readers issue gets
// against the same keyspace with the reader pool enabled. Every
// successful read must carry a valid stamp (an integrity break or a
// torn snapshot would corrupt it), and a final serialized sweep must
// agree with a pool-served sweep key for key.
func TestStoreConcurrentReadHammer(t *testing.T) {
	s := mustOpen(t, readConfig())
	ctx := context.Background()
	const keys = 256
	for key := uint64(0); key < keys; key++ {
		if err := s.Put(ctx, key, stamp(key)); err != nil {
			t.Fatalf("seed put %d: %v", key, err)
		}
	}

	const (
		writers        = 8
		readers        = 32
		opsPerWriter   = 200
		readsPerReader = 300
	)
	var wg sync.WaitGroup
	var integrityErrs atomic.Uint64
	errCh := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < opsPerWriter; i++ {
				key := uint64(rng.Intn(keys))
				if err := s.Put(ctx, key, stamp(key)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 900))
			for i := 0; i < readsPerReader; i++ {
				key := uint64(rng.Intn(keys))
				v, err := s.Get(ctx, key)
				if err != nil {
					errCh <- err
					return
				}
				if len(v) != 16 || binary.LittleEndian.Uint64(v) != key || binary.LittleEndian.Uint64(v[8:]) != ^key {
					integrityErrs.Add(1)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("hammer op: %v", err)
	}
	if n := integrityErrs.Load(); n != 0 {
		t.Fatalf("%d corrupt values read under concurrency", n)
	}

	// Final sweep, twice: once through the pool, once serialized via
	// a fresh store with the pool off would need a checkpoint — the
	// equivalent check here is that the pool-served sweep and the
	// batch (queue-served leftovers included) sweep agree.
	allKeys := make([]uint64, keys)
	for i := range allKeys {
		allKeys[i] = uint64(i)
	}
	vals, errs := s.GetBatch(ctx, allKeys)
	for key := uint64(0); key < keys; key++ {
		if errs[key] != nil {
			t.Fatalf("sweep key %d: %v", key, errs[key])
		}
		checkStamp(t, key, vals[key])
		v, err := s.Get(ctx, key)
		if err != nil {
			t.Fatalf("sweep get %d: %v", key, err)
		}
		checkStamp(t, key, v)
	}

	snap := s.Stats()
	var conc uint64
	for _, ss := range snap.Shards {
		conc += ss.counts[cConcurrentReads]
	}
	if conc == 0 {
		t.Fatal("hammer never used the reader pool")
	}
	t.Logf("concurrent_reads=%d retries=%d fallbacks=%d", conc, sumRetries(snap), sumFallbacks(snap))
}

// TestStoreReadCancelledWhileWaitingForSlot: a read whose ctx expires
// while every reader-pool slot is taken answers ctx.Err() — one route
// for Get and a GetBatch leg — and queues nothing for the departed
// caller. Closing the store settles the worker's accounting, so
// batch_items then counts exactly the one live flush.
func TestStoreReadCancelledWhileWaitingForSlot(t *testing.T) {
	s := mustOpen(t, readConfig())
	const key = 7
	if err := s.Put(context.Background(), key, stamp(key)); err != nil {
		t.Fatal(err)
	}
	sh, _, err := s.shardFor(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap(sh.readSem); i++ {
		sh.readSem <- struct{}{}
	}
	before := sh.m[cBatchItems].Load()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, errs := s.GetBatch(ctx, []uint64{key}); !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("GetBatch: %v, want context.Canceled", errs[0])
	}
	if _, err := s.Get(ctx, key); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get: %v, want context.Canceled", err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sh.m[cBatchItems].Load() - before; got != 1 {
		t.Fatalf("batch_items grew by %d, want 1 (the flush only)", got)
	}
}

func sumRetries(snap Snapshot) (n uint64) {
	for _, ss := range snap.Shards {
		n += ss.counts[cReadRetries]
	}
	return
}

func sumFallbacks(snap Snapshot) (n uint64) {
	for _, ss := range snap.Shards {
		n += ss.counts[cReadFallbacks]
	}
	return
}

// TestStoreConcurrentReadQuarantinedShard is the chaos-matrix cell
// for the reader pool: concurrent gets against a quarantined shard
// must nack with ErrShardFailed exactly like queued ones — the fast
// path may never serve data from a shard that failed its recovery
// contract — and healthy shards keep serving off the pool.
func TestStoreConcurrentReadQuarantinedShard(t *testing.T) {
	cfg := readConfig()
	cfg.HealBackoff = time.Hour // stay quarantined for the whole test
	s := mustOpen(t, cfg)
	ctx := context.Background()
	const keys = 64
	for key := uint64(0); key < keys; key++ {
		if err := s.Put(ctx, key, stamp(key)); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	const victim = 1
	if err := s.Quarantine(ctx, victim); err != nil {
		t.Fatalf("quarantine: %v", err)
	}
	for key := uint64(0); key < keys; key++ {
		sh, _, err := s.shardFor(key)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Get(ctx, key)
		if sh.id == victim {
			if !errors.Is(err, ErrShardFailed) {
				t.Fatalf("key %d on quarantined shard: err=%v, want ErrShardFailed", key, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("key %d on healthy shard: %v", key, err)
		}
		checkStamp(t, key, v)
	}
	ss := s.Stats().Shards[victim]
	if ss.Health != "quarantined" {
		t.Fatalf("victim health = %s", ss.Health)
	}
	if ss.counts[cConcurrentReads] != 0 {
		// Pool reads before the quarantine are fine; but the loop above
		// ran after it, so any count must come from the pre-quarantine
		// puts' era — there were no gets then.
		t.Fatalf("quarantined shard served %d pool reads", ss.counts[cConcurrentReads])
	}
}

// TestStoreConcurrentReadDuringRecovery: while a shard is rebuilding
// online after chaos, the controller refuses view reads
// (mee.ErrRecovering) and the store must transparently fall back to
// the queue — clients see valid data, not errors.
func TestStoreConcurrentReadDuringRecovery(t *testing.T) {
	cfg := readConfig()
	cfg.recoveryChunk = 1 // stretch the rebuild across many waves
	s := mustOpen(t, cfg)
	ctx := context.Background()
	const keys = 256
	// Two rounds so a legally rolled-back block re-reads the same
	// stamp rather than "absent" (matches TestStoreChaosMatrix).
	for round := 0; round < 2; round++ {
		for key := uint64(0); key < keys; key++ {
			if err := s.Put(ctx, key, stamp(key)); err != nil {
				t.Fatalf("put %d: %v", key, err)
			}
		}
	}
	res, err := s.Chaos(ctx, ChaosSpec{Shard: 1, Kind: "torn", Seed: 42})
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	if res.Status == "violation" {
		t.Fatalf("silent corruption: %+v", res)
	}
	mayMiss := map[uint64]bool{}
	if res.Status == "recovered" {
		for _, blk := range res.DataBlocks {
			mayMiss[blk*uint64(cfg.Shards)+1] = true
		}
	}
	for key := uint64(0); key < keys; key++ {
		v, err := s.Get(ctx, key)
		if errors.Is(err, ErrNotFound) && mayMiss[key] {
			continue
		}
		if err != nil {
			t.Fatalf("get %d during/after recovery: %v", key, err)
		}
		checkStamp(t, key, v)
	}
	// The fallback path must be error-free: no view error may have
	// leaked to a client (we would have failed above), and the
	// fallback counter proves the degradation path was exercised or
	// the recovery won the race — either is correct.
	t.Logf("fallbacks=%d", sumFallbacks(s.Stats()))
}
