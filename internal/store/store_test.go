package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	_ "amnt/internal/core" // AMNT protocols for protocol-matrix tests
	"amnt/internal/mee"
	"amnt/internal/scm"
	"amnt/internal/telemetry"
)

func testConfig() Config {
	return Config{
		Shards:        4,
		ShardMemBytes: 256 << 10,
		Protocol:      "leaf",
		QueueDepth:    64,
		BatchMax:      8,
	}
}

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

// stamp derives a key's test value; reads verify the stamp so any
// cross-key mixup or corruption is caught.
func stamp(key uint64) []byte {
	v := make([]byte, 16)
	binary.LittleEndian.PutUint64(v, key)
	binary.LittleEndian.PutUint64(v[8:], ^key)
	return v
}

func checkStamp(t *testing.T, key uint64, v []byte) {
	t.Helper()
	if len(v) != 16 || binary.LittleEndian.Uint64(v) != key || binary.LittleEndian.Uint64(v[8:]) != ^key {
		t.Fatalf("key %d: corrupt value %x", key, v)
	}
}

func TestStoreBasic(t *testing.T) {
	s := mustOpen(t, testConfig())
	ctx := context.Background()

	if _, err := s.Get(ctx, 7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get of unwritten key: %v", err)
	}
	if err := s.Put(ctx, 7, stamp(7)); err != nil {
		t.Fatalf("put: %v", err)
	}
	v, err := s.Get(ctx, 7)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	checkStamp(t, 7, v)

	// Overwrite.
	if err := s.Put(ctx, 7, []byte("short")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if v, _ = s.Get(ctx, 7); string(v) != "short" {
		t.Fatalf("after overwrite: %q", v)
	}
	// Empty value is storable and distinct from not-found.
	if err := s.Put(ctx, 8, nil); err != nil {
		t.Fatalf("empty put: %v", err)
	}
	if v, err = s.Get(ctx, 8); err != nil || len(v) != 0 {
		t.Fatalf("empty get: %q %v", v, err)
	}

	if err := s.Put(ctx, 1, make([]byte, MaxValueLen+1)); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("oversized put: %v", err)
	}
	if err := s.Put(ctx, 1<<60, stamp(0)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range put: %v", err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// TestStoreConcurrentClients is the core tentpole invariant: many
// clients hammering mixed shards never see an integrity error or
// another key's value.
func TestStoreConcurrentClients(t *testing.T) {
	s := mustOpen(t, testConfig())
	const clients = 16
	const opsPerClient = 300
	keyspace := uint64(1 << 10)

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < opsPerClient; i++ {
				key := uint64(c*opsPerClient+i*7919) % keyspace
				var err error
				if i%2 == 0 {
					err = s.Put(ctx, key, stamp(key))
				} else {
					var v []byte
					v, err = s.Get(ctx, key)
					if err == nil && (len(v) != 16 || binary.LittleEndian.Uint64(v) != key) {
						errCh <- fmt.Errorf("key %d: foreign value %x", key, v)
						return
					}
					if errors.Is(err, ErrNotFound) {
						err = nil
					}
				}
				if errors.Is(err, ErrOverloaded) {
					i-- // bounded queue said retry; that's the contract
					continue
				}
				if err != nil {
					errCh <- fmt.Errorf("client %d op %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	snap := s.Stats()
	for _, sh := range snap.Shards {
		if sh.counts[cIntegrityErrors] != 0 {
			t.Fatalf("shard %d: %d integrity errors", sh.Shard, sh.counts[cIntegrityErrors])
		}
		if !sh.Serving {
			t.Fatalf("shard %d stopped serving", sh.Shard)
		}
	}
	if snap.Ops == 0 {
		t.Fatal("no ops recorded")
	}
}

// idleController is the controller of a hand-built shard whose worker
// never starts: nothing drives it, but Stats reads its read-view
// counters.
func idleController(t *testing.T) *mee.Controller {
	t.Helper()
	policy, err := mee.NewPolicy("leaf", mee.PolicyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return mee.New(scm.New(scm.Config{CapacityBytes: 1 << 16}), mee.Config{}, policy)
}

// TestStoreBackpressure pins the admission contract with no worker
// draining the queue: a full bounded queue fails fast with
// ErrOverloaded and an enqueued request abandoned at its deadline
// returns the context error — never a deadlock.
func TestStoreBackpressure(t *testing.T) {
	// Hand-built store whose worker never starts, so the queue state
	// is fully deterministic.
	sh := &shard{id: 0, ctrl: idleController(t), ch: make(chan request, 1), done: make(chan struct{}), blocks: 1 << 10, batchMax: 1}
	s := &Store{cfg: Config{Partitions: 1}, staging: map[int]*shard{}}
	s.tab.Store(newShardTable([]*shard{sh}))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Put(ctx, 0, []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parked request: got %v, want deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline wait did not bound the call")
	}
	// Queue now holds the abandoned request: the next one must be
	// rejected immediately, not block.
	if err := s.Put(context.Background(), 0, []byte("y")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: got %v, want ErrOverloaded", err)
	}
	if got := s.Stats().Overloads; got != 1 {
		t.Fatalf("overload counter = %d, want 1", got)
	}
}

func TestStoreOverloadRecoveryLive(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	cfg.QueueDepth = 2
	s := mustOpen(t, cfg)
	ctx := context.Background()
	// Saturate; some ops may overload, but the store must keep making
	// progress and eventually accept again.
	var overloaded, accepted int
	for i := 0; i < 500; i++ {
		err := s.Put(ctx, uint64(i%64), stamp(uint64(i%64)))
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if accepted == 0 {
		t.Fatal("store accepted nothing")
	}
	// After the burst the queue drains and ops succeed again.
	if err := s.Put(ctx, 1, stamp(1)); err != nil && !errors.Is(err, ErrOverloaded) {
		t.Fatalf("post-burst put: %v", err)
	}
}

// TestStoreRecoverUnderLoad power-cycles all shards while clients
// write: every acknowledged Put must survive (ADR persist semantics +
// crash-consistent protocol), reads never observe foreign data.
func TestStoreRecoverUnderLoad(t *testing.T) {
	s := mustOpen(t, testConfig())
	ctx := context.Background()
	keyspace := uint64(512)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 9)
	acked := make([]atomic.Bool, keyspace)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				key := uint64(c*1000+i) % keyspace
				err := s.Put(ctx, key, stamp(key))
				if errors.Is(err, ErrOverloaded) {
					continue
				}
				if err != nil {
					errCh <- fmt.Errorf("put %d: %w", key, err)
					return
				}
				acked[key].Store(true)
			}
		}(c)
	}
	for r := 0; r < 3; r++ {
		time.Sleep(20 * time.Millisecond)
		if err := s.Recover(ctx); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("recover round %d: %v", r, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// One more clean power cycle, then audit every acknowledged key.
	if err := s.Recover(ctx); err != nil {
		t.Fatalf("final recover: %v", err)
	}
	for key := uint64(0); key < keyspace; key++ {
		if !acked[key].Load() {
			continue
		}
		v, err := s.Get(ctx, key)
		if err != nil {
			t.Fatalf("acked key %d lost after recovery: %v", key, err)
		}
		checkStamp(t, key, v)
	}
}

func TestStoreCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CheckpointDir = dir
	ctx := context.Background()

	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	keyspace := uint64(300)
	for key := uint64(0); key < keyspace; key++ {
		if err := s.Put(ctx, key, stamp(key)); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	if err := s.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// More writes after the explicit checkpoint; Close checkpoints
	// again, so these must survive too.
	for key := keyspace; key < keyspace+50; key++ {
		if err := s.Put(ctx, key, stamp(key)); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Ops after close fail explicitly.
	if err := s.Put(ctx, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}

	s2 := mustOpen(t, cfg)
	for key := uint64(0); key < keyspace+50; key++ {
		v, err := s2.Get(ctx, key)
		if err != nil {
			t.Fatalf("reopened key %d: %v", key, err)
		}
		checkStamp(t, key, v)
	}
}

func TestStoreCheckpointUnderLoad(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CheckpointDir = dir
	s := mustOpen(t, cfg)
	ctx := context.Background()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				key := uint64(c*997+i) % 256
				if err := s.Put(ctx, key, stamp(key)); err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(c)
	}
	for r := 0; r < 3; r++ {
		if err := s.Checkpoint(ctx); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("checkpoint under load: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestStoreChaosMatrix drives every fault kind through a live shard
// and asserts the store's contract: recovered, or detected-and-
// repaired — never a silent violation, and the shard keeps serving
// with every acknowledged key intact.
func TestStoreChaosMatrix(t *testing.T) {
	for _, protocol := range []string{"leaf", "amnt"} {
		for _, kind := range []string{"torn", "drop", "reorder", "bitrot"} {
			t.Run(protocol+"/"+kind, func(t *testing.T) {
				cfg := testConfig()
				cfg.Shards = 2
				cfg.Protocol = protocol
				s := mustOpen(t, cfg)
				ctx := context.Background()
				// Two identical rounds: a dropped/reordered persist may
				// legally revert a block to its previous durable
				// content, and writing twice makes that pre-image the
				// same bytes (never "absent"), so an acknowledged key
				// can only read back its own stamp or fail loudly.
				keyspace := uint64(200)
				for round := 0; round < 2; round++ {
					for key := uint64(0); key < keyspace; key++ {
						if err := s.Put(ctx, key, stamp(key)); err != nil {
							t.Fatalf("put %d: %v", key, err)
						}
					}
				}
				res, err := s.Chaos(ctx, ChaosSpec{Shard: 1, Kind: kind, Seed: 42})
				if err != nil {
					t.Fatalf("chaos: %v", err)
				}
				if res.Status == "violation" {
					t.Fatalf("silent corruption: %+v", res)
				}
				if !res.Serving {
					t.Fatalf("shard out of service after %s: %+v", kind, res)
				}
				// A "recovered" outcome may have legally rolled the
				// faulted data blocks back to an earlier durable
				// version (their persist was in flight at the power
				// failure) — for those keys a miss is acceptable.
				// Every other key must hold its stamp, and any value
				// that does read back must be the key's own.
				mayMiss := map[uint64]bool{}
				if res.Status == "recovered" {
					for _, blk := range res.DataBlocks {
						mayMiss[blk*uint64(cfg.Shards)+1] = true
					}
				}
				for key := uint64(0); key < keyspace; key++ {
					v, err := s.Get(ctx, key)
					if errors.Is(err, ErrNotFound) && mayMiss[key] {
						continue
					}
					if err != nil {
						t.Fatalf("key %d after chaos (%s): %v", key, res.Status, err)
					}
					checkStamp(t, key, v)
				}
				// The untouched shard never stopped.
				if snap := s.Stats(); !snap.Shards[0].Serving {
					t.Fatal("non-victim shard affected")
				}
			})
		}
	}
}

// TestStoreChaosDuringConcurrentReads: reader-pool gets racing repeated
// chaos power failures on their shard are answered from a trusted image
// or refused with an explicit degradation signal — never verified
// against the half-crashed image a chaos run is rewriting.
func TestStoreChaosDuringConcurrentReads(t *testing.T) {
	const rounds, keyspace = 20, uint64(200)
	for _, protocol := range []string{"leaf", "amnt"} {
		for _, kind := range []string{"torn", "drop", "reorder", "bitrot"} {
			t.Run(protocol+"/"+kind, func(t *testing.T) {
				cfg := testConfig()
				cfg.Shards = 2
				cfg.Protocol = protocol
				cfg.ReadConcurrency = 4
				s := mustOpen(t, cfg)
				ctx := context.Background()
				allowed := func(err error) bool {
					return err == nil || errors.Is(err, ErrRecovering) ||
						errors.Is(err, ErrOverloaded) || errors.Is(err, ErrShardFailed)
				}
				// Every write rewrites the same stamp, and a journal-clearing
				// crash ("crash") between the first two rounds leaves no
				// first-touch write in the victim's fault journal: a legal
				// in-flight revert lands on the same bytes, never on absent.
				write := func(from, step uint64) {
					var kvs []KV
					for key := from; key < keyspace; key += step {
						kvs = append(kvs, KV{Key: key, Value: stamp(key)})
					}
					for i, err := range s.PutBatch(ctx, kvs) {
						if !allowed(err) {
							t.Fatalf("put %d: %v", kvs[i].Key, err)
						}
					}
				}
				write(0, 1)
				if _, err := s.Chaos(ctx, ChaosSpec{Shard: 1, Kind: "crash"}); err != nil {
					t.Fatalf("chaos crash: %v", err)
				}
				write(0, 1)

				var stop atomic.Bool
				var wg sync.WaitGroup
				errCh := make(chan error, 4)
				for c := 0; c < 4; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := 0; !stop.Load(); i++ {
							key := uint64(c*1733+i) % keyspace
							v, err := s.Get(ctx, key)
							if !allowed(err) {
								errCh <- fmt.Errorf("get %d: %w", key, err)
								return
							}
							if err == nil && !bytes.Equal(v, stamp(key)) {
								errCh <- fmt.Errorf("get %d: corrupt value %x", key, v)
								return
							}
						}
					}(c)
				}
				for round := 0; round < rounds; round++ {
					res, err := s.Chaos(ctx, ChaosSpec{Shard: 1, Kind: kind, Seed: int64(round)})
					if err != nil {
						t.Fatalf("chaos round %d: %v", round, err)
					}
					if res.Status == "violation" {
						t.Fatalf("chaos round %d: silent corruption: %+v", round, res)
					}
					// Refill the victim's persist window for the next round.
					write(1, uint64(cfg.Shards))
				}
				stop.Store(true)
				wg.Wait()
				close(errCh)
				for err := range errCh {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestStoreChaosRejectsBadSpec(t *testing.T) {
	s := mustOpen(t, testConfig())
	ctx := context.Background()
	if _, err := s.Chaos(ctx, ChaosSpec{Shard: 99, Kind: "torn"}); err == nil {
		t.Fatal("chaos on missing shard succeeded")
	}
	if _, err := s.Chaos(ctx, ChaosSpec{Shard: 0, Kind: "nonsense"}); err == nil {
		t.Fatal("chaos with unknown kind succeeded")
	}
}

func TestStoreMetricsPublished(t *testing.T) {
	s := mustOpen(t, testConfig())
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)
	for key := uint64(0); key < 64; key++ {
		if err := s.Put(ctx, key, stamp(key)); err != nil {
			t.Fatalf("put: %v", err)
		}
		if _, err := s.Get(ctx, key); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	snap := reg.Sample(s.TotalCycles())
	gets, ok := snap.Value("store.gets")
	if !ok || gets != 64 {
		t.Fatalf("store.gets = %v (ok=%v), want 64", gets, ok)
	}
	puts, _ := snap.Value("store.puts")
	if puts != 64 {
		t.Fatalf("store.puts = %v, want 64", puts)
	}
	serving, _ := snap.Value("store.shards_serving")
	if serving != float64(s.Shards()) {
		t.Fatalf("shards_serving = %v", serving)
	}
	// Worker-published controller snapshots flow through.
	writes, _ := snap.Value("store.shard0.data_writes")
	if writes == 0 {
		t.Fatal("shard0 data_writes never published")
	}
}

func TestStoreCloseIdempotentAndDrains(t *testing.T) {
	s, err := Open(testConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ctx := context.Background()
	// Park a burst in the queues, then close: every enqueued request
	// must still be served (responses buffered) before workers exit.
	resps := make([]chan response, 0, 32)
	for i := 0; i < 32; i++ {
		sh, block, _ := s.shardFor(uint64(i))
		req := putReq(block, stamp(uint64(i)))
		select {
		case sh.ch <- req:
			resps = append(resps, req.resp)
		default:
		}
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, ch := range resps {
		select {
		case r := <-ch:
			if err := firstErr(r); err != nil {
				t.Fatalf("drained request %d: %v", i, err)
			}
		default:
			t.Fatalf("request %d dropped on close", i)
		}
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
