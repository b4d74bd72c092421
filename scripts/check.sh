#!/usr/bin/env bash
# check.sh — every gate this repository has, one mode per CI job. The
# workflow (.github/workflows/ci.yml) runs `./scripts/check.sh <mode>`
# and nothing else, so running a mode here runs exactly that job.
#
#   ./scripts/check.sh lint|tier1|race|smoke|cluster|bench|fuzz|crash|telemetry
#
# Modes that keep evidence write it under artifacts/ (the workflow
# uploads that directory). smoke and cluster bind 127.0.0.1:18080-18083.
set -e
cd "$(dirname "$0")/.."

# absent fails when grep matches. A bare `! grep` would not stop the
# script: set -e ignores a negated command's status.
absent() { ! grep "$@"; }

mode_lint() {
	go vet ./...
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" >&2
		echo "$unformatted" >&2
		exit 1
	fi
	# Size report (informational).
	./scripts/loc.sh || true
}

mode_tier1() {
	go build ./...
	go test ./...
}

mode_race() {
	go test -race ./...
	# Device store model with concurrent peeks.
	go test -race -count=2 -run 'TestDeviceStoreModel' -v ./internal/scm
	# Span ring race hammer.
	go test -race -count=2 -run 'TestSpanRace' -v ./internal/telemetry/span
	# Serve-during-recovery chaos matrix.
	go test -race -run 'TestStoreServeDuringRecoveryMatrix|TestStoreQuarantineHealsLive|TestShardDegradedServingDeterministic|TestShardDegradedEpoch|TestStoreAdmissionByHealth|TestStoreChaosDuringConcurrentReads' \
		-v ./internal/store
	go test -race -run 'TestDegradedEpochMatchesPerOp|TestPerOpGolden|TestRegistryIdleSessionMatchesBlocking' -v ./internal/mee
	go test -race -run 'TestAMNTOnlineRecovery' -v ./internal/core
	go test -race -run 'TestFigure4Golden' -v ./internal/experiments
	# Serving metric surfaces agree and survive scrapes under load.
	go test -race -count=2 -run 'TestSurfaceParity|TestSurfaceScrapeHammer' -v ./internal/store
	go test -race -run 'TestProxyServesMetrics' -v ./internal/cluster
	go test -race -run 'TestServeSamplesOnScrape' -v ./internal/telemetry
	# Concurrent verified-read hammers.
	go test -race -count=2 -run 'TestReadViewHammer' -v ./internal/mee
	go test -race -count=2 \
		-run 'TestStoreConcurrentReadHammer|TestStoreConcurrentReadQuarantinedShard|TestStoreConcurrentReadDuringRecovery' \
		-v ./internal/store
}

# Serve under the race detector, load, chaos, drain.
mode_smoke() {
	mkdir -p artifacts ckpt
	go build -race -o amntd ./cmd/amntd
	go build -o amntload ./cmd/amntload
	./amntd -addr 127.0.0.1:18080 -shards 4 -protocol amnt \
		-checkpoint-dir ckpt -heal-backoff 2s > artifacts/amntd.log 2>&1 &
	# $! must be amntd itself: for a backgrounded pipeline it is the
	# last stage, and `wait` would block on the whole pipeline.
	AMNTD=$!
	sleep 2
	./amntload -addr http://127.0.0.1:18080 -workload ycsb-a \
		-clients 8 -ops 8000 -json | tee artifacts/load.json
	# Batched wave over POST /v1/batch: exercises group-commit
	# epochs end to end (amntload verifies every get it issues).
	./amntload -addr http://127.0.0.1:18080 -workload ycsb-a \
		-clients 8 -ops 8000 -batch 32 -json | tee artifacts/load-batch.json
	absent -q '"corruptions": [^0]' artifacts/load-batch.json
	# Pure-read wave against the concurrent read view (amntd runs
	# a reader pool of 4 per shard): -preload writes the keyspace first so every
	# GET is a verified read, and the stats must show the pool
	# actually served them with zero corruptions.
	./amntload -addr http://127.0.0.1:18080 -workload ycsb-c \
		-clients 8 -ops 8000 -preload -json | tee artifacts/load-readc.json
	absent -q '"corruptions": [^0]' artifacts/load-readc.json
	curl -sf http://127.0.0.1:18080/v1/store/stats | tee artifacts/stats-read.json
	jq -e 'any(.shards[]; .concurrent_reads > 0)' artifacts/stats-read.json
	curl -sf http://127.0.0.1:18080/metrics | grep -q '^amnt_store_concurrent_reads [1-9]'
	curl -sf http://127.0.0.1:18080/v1/store/stats | tee artifacts/stats-v1.json
	# Stats and health bodies are checked with jq, never with a
	# grep that depends on spacing or key order.
	jq -e 'all(.shards[]; .epoch_fallbacks == 0 and .epochs > 0)' artifacts/stats-v1.json
	# The raw batch endpoint round-trips per-key results.
	curl -sf -X POST http://127.0.0.1:18080/v1/batch \
		-d '{"puts":[{"key":90001,"value_b64":"aGVsbG8="}],"gets":[90001]}' \
		| tee artifacts/batch.json
	# Data-path bodies are compact JSON (internal/wire); ask jq, not
	# a spacing-sensitive grep.
	jq -e '.gets[0].value_b64 == "aGVsbG8=" and .puts[0].key == 90001' artifacts/batch.json
	# Live chaos on a serving shard: must recover or detect+repair.
	# A pure-read wave runs across it: gets racing a chaos run are
	# served from a trusted image or retried, never failed. The
	# overlap is asserted, not assumed from timing: the loop starts
	# once the wave's gets (after its preload) reach the store, and
	# the wave must still be running when the loop ends.
	gets() { curl -sf http://127.0.0.1:18080/v1/store/stats | jq '[.shards[].gets] | add'; }
	G0=$(gets)
	./amntload -addr http://127.0.0.1:18080 -workload ycsb-c \
		-clients 4 -ops 40000 -preload -json > artifacts/load-chaos.json &
	LOAD=$!
	for i in $(seq 600); do
		G=$(gets)
		if [ "$G" -gt "$G0" ]; then break; fi
		sleep 0.1
	done
	[ "$G" -gt "$G0" ]
	for kind in torn drop reorder bitrot; do
		curl -sf -X POST "http://127.0.0.1:18080/v1/chaos?shard=1&kind=$kind&seed=7" \
			| tee -a artifacts/chaos.json
		sleep 0.5
	done
	kill -0 $LOAD
	wait $LOAD
	jq -e '.errors == 0 and .corruptions == 0' artifacts/load-chaos.json
	absent -q '"status": *"violation"' artifacts/chaos.json
	# A second load wave against the post-chaos store.
	./amntload -addr http://127.0.0.1:18080 -workload ycsb-b \
		-clients 4 -ops 4000 | tee artifacts/load2.txt
	curl -sf http://127.0.0.1:18080/v1/store/stats | tee artifacts/stats.json
	curl -sf http://127.0.0.1:18080/metrics | grep -q amnt_store_shard0_gets
	# Latency attribution: the load waves must have produced
	# per-phase span series and per-endpoint RED counters, the
	# -json reports must carry the server-side phase breakdown,
	# and /v1/spans must export phase-stamped JSONL records.
	curl -sf http://127.0.0.1:18080/metrics | tee artifacts/metrics.txt >/dev/null
	grep -q '^amnt_span_phase_queue_wait_p50' artifacts/metrics.txt
	grep -q '^amnt_span_phase_commit_climb_p50' artifacts/metrics.txt
	grep -q '^amnt_span_op_kv_put_requests' artifacts/metrics.txt
	grep -q '"phase_latency"' artifacts/load.json
	grep -q '"phase_latency"' artifacts/load-batch.json
	curl -sf 'http://127.0.0.1:18080/v1/spans?n=5' | tee artifacts/spans.jsonl
	grep -q '"queue_wait_us"' artifacts/spans.jsonl
	# Degraded-mode drill: quarantine a shard, observe the 503
	# degradation contract (Retry-After + machine-readable
	# reason), then watch the supervised heal loop bring the
	# shard back without losing its data.
	curl -sf -X POST -d 'degraded-drill' http://127.0.0.1:18080/v1/kv/2 >/dev/null
	curl -sf -X POST 'http://127.0.0.1:18080/v1/quarantine?shard=2' >/dev/null
	curl -s -o artifacts/degraded.json -D artifacts/degraded-headers.txt \
		http://127.0.0.1:18080/v1/kv/2
	grep -qi '^retry-after:' artifacts/degraded-headers.txt
	jq -e '.reason == "failed" and .retry_after_ms > 0' artifacts/degraded.json
	curl -s http://127.0.0.1:18080/v1/health | tee artifacts/health-degraded.json
	jq -e '.status == "degraded" and any(.shards[]; .health == "quarantined")' artifacts/health-degraded.json
	# /v1/health answers 503 while degraded, 200 once healed.
	for i in $(seq 1 60); do
		if curl -sf http://127.0.0.1:18080/v1/health > artifacts/health.json; then break; fi
		sleep 0.25
	done
	jq -e '.status == "ok" and any(.shards[]; .heals == 1)' artifacts/health.json
	curl -sf http://127.0.0.1:18080/v1/kv/2 | tee artifacts/healed-get.json
	jq -e '.key == 2 and .value_b64 == "ZGVncmFkZWQtZHJpbGw="' artifacts/healed-get.json
	# Recovery watermark: a power cycle leaves a completed
	# leaves-rebuilt/total progress gauge on /vars and /v1/store/stats.
	curl -sf -X POST http://127.0.0.1:18080/v1/recover >/dev/null
	sleep 1
	curl -sf http://127.0.0.1:18080/vars | tee artifacts/vars.json >/dev/null
	jq -e '.metrics["store.shard0.recovery_leaves_total"] > 0' artifacts/vars.json
	curl -sf http://127.0.0.1:18080/v1/store/stats \
		| jq -e 'any(.shards[]; .recovery_leaves_done > 0)'
	# Graceful shutdown must drain and checkpoint.
	kill -TERM $AMNTD
	wait $AMNTD
	cat artifacts/amntd.log
	grep -q "store drained and checkpointed" artifacts/amntd.log
	ls ckpt/shard-*.ckpt
	# The race detector exits non-zero on any data race; also
	# make sure none was reported in the log.
	absent -q "WARNING: DATA RACE" artifacts/amntd.log
}

# 3-node cluster drill (race detector).
mode_cluster() {
	# Race-built daemons; the drill script boots 3 amntd nodes
	# behind amntproxy, runs batched ycsb-a waves through the
	# proxy and via client-side ring routing, completes a live
	# shard migration under load, then kill -9s one node and
	# asserts zero lost acked writes, auto-adoption from the
	# shared checkpoint directory, and /v1/health convergence
	# back to ok after the node rejoins.
	go build -race -o amntd ./cmd/amntd
	go build -race -o amntproxy ./cmd/amntproxy
	go build -o amntload ./cmd/amntload
	./scripts/cluster_drill.sh artifacts
	# No data race may have fired in any daemon log.
	absent -l 'WARNING: DATA RACE' artifacts/*.log
	# The direct wave must carry the per-node breakdown.
	test "$(jq '.direct_wave.nodes | length' BENCH_cluster.json)" = 3
	test "$(jq .kill_drill.lost_acked_writes BENCH_cluster.json)" = 0
	# The proxy serves its own metrics (the drill scraped them
	# after the proxied wave).
	test -s artifacts/proxy-metrics.txt
}

# Heap guards, benchmark smokes and the regenerated BENCH_recovery.json.
mode_bench() {
	# Device, rebuild step, epoch commit, warm verified reads and the
	# simulator's per-access path stay off the heap (no race detector -
	# it allocates).
	go test -count=1 -run 'TestDeviceNoAllocs' -v ./internal/scm
	go test -count=1 -run 'TestRebuilderStepNoAllocs' -v ./internal/bmt
	go test -count=1 -run 'TestEpochCommitAllocs|TestWriteQueueNoAllocs|TestWarmReadAllocs' -v ./internal/mee
	go test -count=1 -run 'TestCacheAccessNoAllocs' -v ./internal/cache
	go test -count=1 -run 'TestMachineStepNoAllocs' -v ./internal/sim
	# Rebuild benchmarks (smoke).
	mkdir -p artifacts
	go test ./internal/bmt -run '^$' -bench BenchmarkRebuild -benchtime 1x \
		| tee artifacts/rebuild-bench.txt
	# Simulator step benchmark (smoke).
	go test ./internal/sim -run '^$' -bench BenchmarkMachineStep -benchtime 1x \
		| tee artifacts/sim-step-bench.txt
	# Repository benchmark (smoke sizes).
	go test -C bench ./...
	# Store throughput benchmarks (smoke).
	go test ./internal/store -run '^$' -bench BenchmarkStoreThroughput -benchtime 1x \
		| tee artifacts/store-bench.txt
	cp BENCH_store.json artifacts/BENCH_store.json
	# Regenerate BENCH_recovery.json.
	go test ./internal/bmt -run TestWriteRecoveryBench \
		-benchjson "$PWD/artifacts/BENCH_recovery.json" -v
	# Append time-to-first-request to BENCH_recovery.json.
	go test ./internal/store -run TestWriteTTFRBench \
		-ttfrjson "$PWD/artifacts/BENCH_recovery.json" -v
}

# Fuzz (30s per target).
mode_fuzz() {
	# Go runs one -fuzz target per invocation, so enumerate them.
	fuzz() { go test "$1" -run FuzzNothing -fuzz "$2" -fuzztime 30s; }
	fuzz ./internal/counters FuzzDecodeEncode
	fuzz ./internal/counters FuzzBumpSequence
	fuzz ./internal/cme      FuzzEncryptRoundTrip
	fuzz ./internal/cme      FuzzXXH64
	fuzz ./internal/mee      FuzzControllerOps
	fuzz ./internal/mee      FuzzLoadCheckpoint
	fuzz ./internal/core     FuzzSubtreeOps
	fuzz ./internal/faults   FuzzRecoveryCorruptDevice
	fuzz ./internal/wire     FuzzDecodeBatchRequest
	fuzz ./internal/wire     FuzzDecodeBatchResponse
	fuzz ./internal/scm      FuzzDeviceReadFrom
}

# Crash matrix at default sizes (all protocols x all fault kinds).
mode_crash() {
	# Exits 1 on any violation; pipefail keeps tee from hiding it.
	# Reduced sizes (fewer points, a smaller memory) once missed
	# a recovery bug the default run shows.
	set -o pipefail
	mkdir -p artifacts
	go run ./cmd/amntcrash \
		-json artifacts/crash-matrix.json \
		-trace artifacts/crash-faults.jsonl \
		| tee artifacts/crash-matrix.txt
}

# Capture movement trace and time series.
mode_telemetry() {
	mkdir -p artifacts
	go run ./cmd/amntsim -workload lbm -protocol amnt -scale 0.25 \
		-trace artifacts/moves.jsonl \
		-timeseries artifacts/timeseries.jsonl \
		-stats-file artifacts/stats.txt \
		| tee artifacts/report.txt
	grep -q subtree_move artifacts/moves.jsonl
	grep -q wq_stall artifacts/moves.jsonl
}

if [ $# -ne 1 ] || ! declare -F "mode_$1" >/dev/null; then
	echo "usage: $0 lint|tier1|race|smoke|cluster|bench|fuzz|crash|telemetry" >&2
	exit 2
fi
"mode_$1"
