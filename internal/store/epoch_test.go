package store

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestStoreBatchAPI covers the batch-first surface: PutBatch/GetBatch
// round-trip values across shards with per-key error reporting, and
// client-side validation failures never consume queue slots.
func TestStoreBatchAPI(t *testing.T) {
	s := mustOpen(t, testConfig())
	ctx := context.Background()

	kvs := make([]KV, 0, 100)
	for key := uint64(0); key < 100; key++ {
		kvs = append(kvs, KV{Key: key, Value: stamp(key)})
	}
	for i, err := range s.PutBatch(ctx, kvs) {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	keys := make([]uint64, 0, 101)
	for key := uint64(0); key < 100; key++ {
		keys = append(keys, key)
	}
	keys = append(keys, 4242) // never written
	values, errs := s.GetBatch(ctx, keys)
	for i := 0; i < 100; i++ {
		if errs[i] != nil {
			t.Fatalf("get %d: %v", keys[i], errs[i])
		}
		checkStamp(t, keys[i], values[i])
	}
	if !errors.Is(errs[100], ErrNotFound) {
		t.Fatalf("unwritten key: %v", errs[100])
	}

	// Per-key validation errors surface in place without failing the
	// rest of the batch.
	mixed := []KV{
		{Key: 1, Value: stamp(1)},
		{Key: 2, Value: make([]byte, MaxValueLen+1)},
		{Key: 1 << 60, Value: stamp(0)},
		{Key: 3, Value: stamp(3)},
	}
	errs = s.PutBatch(ctx, mixed)
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("valid keys failed: %v %v", errs[0], errs[3])
	}
	if !errors.Is(errs[1], ErrValueTooLarge) {
		t.Fatalf("oversized value: %v", errs[1])
	}
	if !errors.Is(errs[2], ErrOutOfRange) {
		t.Fatalf("out-of-range key: %v", errs[2])
	}
	gv, gerrs := s.GetBatch(ctx, []uint64{1 << 60})
	if !errors.Is(gerrs[0], ErrOutOfRange) || gv[0] != nil {
		t.Fatalf("out-of-range get: %v %v", gv[0], gerrs[0])
	}

	// Empty batches are legal no-ops.
	if errs := s.PutBatch(ctx, nil); len(errs) != 0 {
		t.Fatalf("empty put batch: %v", errs)
	}
	if values, errs := s.GetBatch(ctx, nil); len(values) != 0 || len(errs) != 0 {
		t.Fatal("empty get batch returned entries")
	}
}

// TestStoreBatchEpochDurability is the acked-batch durability
// contract: every key acknowledged through PutBatch (and therefore
// through a group-commit epoch) survives a clean power cycle.
func TestStoreBatchEpochDurability(t *testing.T) {
	for _, protocol := range []string{"leaf", "amnt"} {
		t.Run(protocol, func(t *testing.T) {
			cfg := testConfig()
			cfg.Protocol = protocol
			s := mustOpen(t, cfg)
			ctx := context.Background()

			keyspace := uint64(256)
			kvs := make([]KV, 0, keyspace)
			for key := uint64(0); key < keyspace; key++ {
				kvs = append(kvs, KV{Key: key, Value: stamp(key)})
			}
			for i, err := range s.PutBatch(ctx, kvs) {
				if err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			if err := s.Recover(ctx); err != nil {
				t.Fatalf("power cycle: %v", err)
			}
			values, errs := s.GetBatch(ctx, keysUpTo(keyspace))
			for i := range errs {
				if errs[i] != nil {
					t.Fatalf("acked key %d lost: %v", i, errs[i])
				}
				checkStamp(t, uint64(i), values[i])
			}
			if snap := s.Stats(); totalEpochs(snap) == 0 {
				t.Fatal("no epochs committed — batch path not exercised")
			}
		})
	}
}

// TestStoreBatchEpochChaos drives fault-laden power failures whose
// captured persist window spans group-commit epochs: acked batch
// members must show all-or-prefix survival — each either holds its
// acknowledged value or, when the fault provably hit that block's
// in-flight persist, its previous durable version; never garbage,
// never a silent violation.
func TestStoreBatchEpochChaos(t *testing.T) {
	for _, protocol := range []string{"leaf", "amnt"} {
		for _, kind := range []string{"torn", "drop", "reorder"} {
			t.Run(protocol+"/"+kind, func(t *testing.T) {
				cfg := testConfig()
				cfg.Shards = 2
				cfg.Protocol = protocol
				s := mustOpen(t, cfg)
				ctx := context.Background()
				keyspace := uint64(200)
				// Two rounds so a legal rollback lands on the same
				// bytes (see TestStoreChaosMatrix).
				kvs := make([]KV, 0, keyspace)
				for key := uint64(0); key < keyspace; key++ {
					kvs = append(kvs, KV{Key: key, Value: stamp(key)})
				}
				for round := 0; round < 2; round++ {
					for i, err := range s.PutBatch(ctx, kvs) {
						if err != nil {
							t.Fatalf("round %d put %d: %v", round, i, err)
						}
					}
				}
				res, err := s.Chaos(ctx, ChaosSpec{Shard: 1, Kind: kind, Seed: 99})
				if err != nil {
					t.Fatalf("chaos: %v", err)
				}
				if res.Status == "violation" {
					t.Fatalf("silent corruption: %+v", res)
				}
				if !res.Serving {
					t.Fatalf("shard out of service: %+v", res)
				}
				mayMiss := map[uint64]bool{}
				if res.Status == "recovered" {
					for _, blk := range res.DataBlocks {
						mayMiss[blk*uint64(cfg.Shards)+1] = true
					}
				}
				values, errs := s.GetBatch(ctx, keysUpTo(keyspace))
				for key := uint64(0); key < keyspace; key++ {
					if errors.Is(errs[key], ErrNotFound) && mayMiss[key] {
						continue
					}
					if errs[key] != nil {
						t.Fatalf("key %d after chaos (%s): %v", key, res.Status, errs[key])
					}
					checkStamp(t, key, values[key])
				}
				if snap := s.Stats(); totalEpochs(snap) == 0 {
					t.Fatal("chaos ran without any committed epoch in the window")
				}
			})
		}
	}
}

// TestStoreExpiredContextNack is the shutdown-drain regression test:
// a queued request whose context already expired must be answered with
// the context's error, never acknowledged as a success the caller will
// treat as durable.
func TestStoreExpiredContextNack(t *testing.T) {
	s, err := Open(testConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	// Hand-enqueue abandoned requests (their submitters timed out) and
	// one live request, then close: the drain must nack the abandoned
	// ones and still serve the live one.
	var dead []chan response
	var live chan response
	for i := 0; i < 8; i++ {
		sh, block, _ := s.shardFor(uint64(i))
		req := putReq(block, stamp(uint64(i)))
		req.ctx = expired
		if i == 3 {
			req.ctx = context.Background()
			live = req.resp
		} else {
			dead = append(dead, req.resp)
		}
		select {
		case sh.ch <- req:
		default:
			t.Fatalf("queue full at %d", i)
		}
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, ch := range dead {
		select {
		case r := <-ch:
			if !errors.Is(r.err, context.DeadlineExceeded) {
				t.Fatalf("abandoned request %d answered %v, want deadline exceeded", i, r.err)
			}
		default:
			t.Fatalf("abandoned request %d dropped", i)
		}
	}
	select {
	case r := <-live:
		if err := firstErr(r); err != nil {
			t.Fatalf("live request failed: %v", err)
		}
	default:
		t.Fatal("live request dropped")
	}
}

// TestStoreEpochMetrics checks that group-commit accounting is
// published: epochs carry the write volume, and no commit degraded.
func TestStoreEpochMetrics(t *testing.T) {
	s := mustOpen(t, testConfig())
	ctx := context.Background()
	kvs := make([]KV, 0, 64)
	for key := uint64(0); key < 64; key++ {
		kvs = append(kvs, KV{Key: key, Value: stamp(key)})
	}
	for _, err := range s.PutBatch(ctx, kvs) {
		if err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	snap := s.Stats()
	var ops, fallbacks uint64
	for _, sh := range snap.Shards {
		ops += sh.counts[cEpochOps]
		fallbacks += sh.counts[cEpochFallbacks]
	}
	if totalEpochs(snap) == 0 || ops != 64 {
		t.Fatalf("epochs=%d epoch_ops=%d, want all 64 writes epoch-committed", totalEpochs(snap), ops)
	}
	if fallbacks != 0 {
		t.Fatalf("unexpected degraded commits: %d", fallbacks)
	}
	for _, sh := range s.table().list {
		if h := sh.epochSizeHistogram(); snap.Shards[sh.id].counts[cEpochs] > 0 && h.Total() == 0 {
			t.Fatalf("shard %d committed epochs but recorded no size samples", sh.id)
		}
	}
}

func keysUpTo(n uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	return keys
}

func totalEpochs(snap Snapshot) uint64 {
	var n uint64
	for _, sh := range snap.Shards {
		n += sh.counts[cEpochs]
	}
	return n
}
