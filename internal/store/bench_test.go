package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkStoreThroughput measures end-to-end store ops/sec (mixed
// 50/50 get/put over a shared keyspace) as the shard count scales.
// Overloaded submissions retry — the benchmark measures completed
// operations, with the rejection rate reported as overloads/op.
func BenchmarkStoreThroughput(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := Open(Config{
				Shards:        shards,
				ShardMemBytes: 1 << 20,
				Protocol:      "leaf",
				QueueDepth:    256,
				BatchMax:      32,
			})
			if err != nil {
				b.Fatalf("open: %v", err)
			}
			defer func() {
				if err := s.Close(context.Background()); err != nil {
					b.Fatalf("close: %v", err)
				}
			}()
			ctx := context.Background()
			keyspace := uint64(shards) * (1 << 12)
			var seq, overloads atomic.Uint64
			val := make([]byte, 24)

			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				v := make([]byte, len(val))
				for pb.Next() {
					n := seq.Add(1)
					key := (n * 2654435761) % keyspace
					var err error
					for {
						if n%2 == 0 {
							binary.LittleEndian.PutUint64(v, key)
							err = s.Put(ctx, key, v)
						} else {
							_, err = s.Get(ctx, key)
							if errors.Is(err, ErrNotFound) {
								err = nil
							}
						}
						if !errors.Is(err, ErrOverloaded) {
							break
						}
						overloads.Add(1)
					}
					if err != nil {
						b.Fatalf("op %d: %v", n, err)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(overloads.Load())/float64(b.N), "overloads/op")
		})
	}
}

// BenchmarkStoreThroughputBatched measures the batch-first path: each
// iteration is one PutBatch+GetBatch round of `batch` keys, fanned out
// as one multi-op request per shard and committed as group-commit
// epochs. ns/op divided by 2×batch is the per-key cost to compare
// against BenchmarkStoreThroughput.
func BenchmarkStoreThroughputBatched(b *testing.B) {
	for _, batch := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			s, err := Open(Config{
				Shards:        4,
				ShardMemBytes: 1 << 20,
				Protocol:      "leaf",
				QueueDepth:    256,
				BatchMax:      32,
			})
			if err != nil {
				b.Fatalf("open: %v", err)
			}
			defer func() {
				if err := s.Close(context.Background()); err != nil {
					b.Fatalf("close: %v", err)
				}
			}()
			ctx := context.Background()
			keyspace := uint64(4) * (1 << 12)
			var seq atomic.Uint64

			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				kvs := make([]KV, batch)
				keys := make([]uint64, batch)
				val := make([]byte, 24)
				for pb.Next() {
					n := seq.Add(1)
					for i := range kvs {
						key := ((n*uint64(batch) + uint64(i)) * 2654435761) % keyspace
						binary.LittleEndian.PutUint64(val, key)
						kvs[i] = KV{Key: key, Value: val}
						keys[i] = key
					}
					for {
						errs := s.PutBatch(ctx, kvs)
						if !retryBatch(b, errs) {
							break
						}
					}
					for {
						_, errs := s.GetBatch(ctx, keys)
						if !retryBatch(b, errs) {
							break
						}
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N*batch*2)/b.Elapsed().Seconds(), "keys/sec")
		})
	}
}

// BenchmarkStoreReadThroughput measures pure-read ops/sec (the
// YCSB-C shape) against the reader-pool width. readers=0 is the
// serialized baseline — every get takes the shard worker's channel
// round trip; positive widths serve gets off the concurrent read
// view on the caller's goroutine. The keyspace is fully preloaded so
// every get is a verified read, never a first-touch zero fill.
func BenchmarkStoreReadThroughput(b *testing.B) {
	for _, readers := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			s, err := Open(Config{
				Shards:          4,
				ShardMemBytes:   1 << 20,
				Protocol:        "leaf",
				QueueDepth:      256,
				BatchMax:        32,
				ReadConcurrency: readers,
			})
			if err != nil {
				b.Fatalf("open: %v", err)
			}
			defer func() {
				if err := s.Close(context.Background()); err != nil {
					b.Fatalf("close: %v", err)
				}
			}()
			ctx := context.Background()
			keyspace := uint64(4) * (1 << 12)
			val := make([]byte, 24)
			for key := uint64(0); key < keyspace; key++ {
				binary.LittleEndian.PutUint64(val, key)
				if err := s.Put(ctx, key, val); err != nil {
					b.Fatalf("preload %d: %v", key, err)
				}
			}
			var seq atomic.Uint64

			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					key := (n * 2654435761) % keyspace
					var err error
					for {
						_, err = s.Get(ctx, key)
						if !errors.Is(err, ErrOverloaded) {
							break
						}
					}
					if err != nil {
						b.Fatalf("get %d: %v", key, err)
					}
				}
			})
			b.StopTimer()
			if readers > 0 {
				var conc uint64
				for _, ss := range s.Stats().Shards {
					conc += ss.counts[cConcurrentReads]
				}
				if conc == 0 {
					b.Fatal("pool configured but no gets served off it")
				}
			}
		})
	}
}

// retryBatch fails the benchmark on a real error and reports whether
// the batch saw backpressure and should retry.
func retryBatch(b *testing.B, errs []error) bool {
	for _, err := range errs {
		if errors.Is(err, ErrOverloaded) {
			return true
		}
		if err != nil && !errors.Is(err, ErrNotFound) {
			b.Fatalf("batch op: %v", err)
		}
	}
	return false
}
