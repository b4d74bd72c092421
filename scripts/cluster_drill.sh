#!/usr/bin/env bash
# cluster_drill.sh — the end-to-end multi-node drill behind
# BENCH_cluster.json and `scripts/check.sh cluster`.
#
# Boots a 3-node amntd cluster behind amntproxy (shared checkpoint
# directory), then:
#
#   1. batched ycsb-a wave through the proxy (fan-out + merge path)
#   2. batched ycsb-a wave with amntload -cluster (client-side ring)
#   3. a live shard migration driven while a load wave is running
#   4. the kill drill: acked writes -> checkpoint barrier -> kill -9
#      one node -> sweep reassigns -> survivors adopt from the shared
#      checkpoint -> every acked key must read back intact
#   5. the killed node restarts, rejoins, and /v1/health converges ok
#
# Exits non-zero on any lost acked write, corruption, or failed
# convergence. Writes BENCH_cluster.json plus per-step artifacts into
# $ART (default: artifacts/).
set -euo pipefail
cd "$(dirname "$0")/.."

ART=${1:-artifacts}
CKPT=${CKPT:-$(mktemp -d)}
PROXY=http://127.0.0.1:18080
N1=http://127.0.0.1:18081
N2=http://127.0.0.1:18082
N3=http://127.0.0.1:18083
CLUSTER="n1=$N1,n2=$N2,n3=$N3"
DRILL_KEYS=${DRILL_KEYS:-64}
mkdir -p "$ART" "$CKPT"

[ -x ./amntd ] || go build -o amntd ./cmd/amntd
[ -x ./amntproxy ] || go build -o amntproxy ./cmd/amntproxy
[ -x ./amntload ] || go build -o amntload ./cmd/amntload

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

start_node() { # id addr
  ./amntd -addr "${2#http://}" -node-id "$1" -cluster-nodes "$CLUSTER" \
    -checkpoint-dir "$CKPT" -protocol amnt \
    >"$ART/amntd-$1.log" 2>&1 &
  PIDS+=($!)
  eval "PID_$1=$!"
}

wait_status() { # url want timeout-secs
  for _ in $(seq 1 $((${3} * 4))); do
    if [ "$(curl -s "$1" | jq -r .status 2>/dev/null)" = "$2" ]; then return 0; fi
    sleep 0.25
  done
  echo "FAIL: $1 never reported status=$2" >&2
  return 1
}

echo "== boot: 3 nodes + proxy (shared checkpoint dir $CKPT)"
start_node n1 "$N1"
start_node n2 "$N2"
start_node n3 "$N3"
./amntproxy -addr 127.0.0.1:18080 -cluster-nodes "$CLUSTER" \
  -pulse-ttl 2s >"$ART/amntproxy.log" 2>&1 &
PIDS+=($!)
wait_status "$PROXY/v1/health" ok 15

echo "== wave 1: batched ycsb-a through the proxy"
./amntload -addr "$PROXY" -workload ycsb-a -clients 8 -ops 8000 -batch 32 \
  -json | tee "$ART/cluster-load-proxy.json"
[ "$(jq .corruptions "$ART/cluster-load-proxy.json")" = 0 ]
# The proxy's own RED series, sampled on this scrape.
curl -sf "$PROXY/metrics" >"$ART/proxy-metrics.txt"
grep -q '^amnt_span_op_batch_requests [1-9]' "$ART/proxy-metrics.txt"

echo "== wave 2: batched ycsb-a with client-side ring routing"
./amntload -cluster -nodes "$CLUSTER" -workload ycsb-a -clients 8 -ops 8000 \
  -batch 32 -json | tee "$ART/cluster-load-direct.json"
[ "$(jq .corruptions "$ART/cluster-load-direct.json")" = 0 ]
[ "$(jq '.nodes | length' "$ART/cluster-load-direct.json")" = 3 ]

echo "== live migration under load"
./amntload -addr "$PROXY" -workload ycsb-a -clients 4 -ops 6000 -batch 16 \
  -json >"$ART/cluster-load-during-migration.json" &
LOAD=$!
PART=$(curl -sf "$PROXY/v1/ring" \
  | jq '[.assign | to_entries[] | select(.value=="n1")][0].key | tonumber')
curl -sf -X POST "$PROXY/v1/cluster/migrate?part=$PART&to=n2" \
  | tee "$ART/migration-report.json"
[ "$(jq .partition "$ART/migration-report.json")" = "$PART" ]
[ "$(jq -r .to "$ART/migration-report.json")" = n2 ]
wait "$LOAD"
cat "$ART/cluster-load-during-migration.json"
[ "$(jq .corruptions "$ART/cluster-load-during-migration.json")" = 0 ]
[ "$(curl -s "$PROXY/v1/ring" | jq -r ".assign[$PART]")" = n2 ]

echo "== kill drill: acked writes, checkpoint barrier, kill -9 n2"
for k in $(seq 0 $((DRILL_KEYS - 1))); do
  curl -sf -X PUT --data-binary "drill-$k" "$PROXY/v1/kv/$k" >/dev/null
done
curl -sf -X POST "$PROXY/v1/checkpoint" | tee "$ART/checkpoint-barrier.json"
kill -9 "$PID_n2"
# The sweep (pulse TTL 2s) must mark n2 down, reassign its
# partitions, and auto-adopt them from the shared checkpoint dir.
for _ in $(seq 1 60); do
  NODES=$(curl -s "$PROXY/v1/cluster/nodes")
  if [ "$(echo "$NODES" | jq .nodes.n2.alive)" = false ] &&
     [ "$(echo "$NODES" | jq '.pending | length')" = 0 ]; then break; fi
  sleep 0.5
done
echo "$NODES" | tee "$ART/cluster-nodes-post-kill.json"
[ "$(echo "$NODES" | jq .nodes.n2.alive)" = false ]
[ "$(echo "$NODES" | jq '.pending | length')" = 0 ]
[ "$(echo "$NODES" | jq .nodes.n2.owned)" = 0 ]

echo "== verify: zero lost acked writes"
LOST=0
for k in $(seq 0 $((DRILL_KEYS - 1))); do
  GOT=$(curl -sf "$PROXY/v1/kv/$k" | jq -r .value_b64 | base64 -d || true)
  if [ "$GOT" != "drill-$k" ]; then
    echo "LOST acked write: key $k => '$GOT'" >&2
    LOST=$((LOST + 1))
  fi
done
[ "$LOST" = 0 ]
# The cluster keeps taking writes for the adopted partitions.
for k in $(seq 0 $((DRILL_KEYS - 1))); do
  curl -sf -X PUT --data-binary "postkill-$k" "$PROXY/v1/kv/$k" >/dev/null
done

echo "== revival: n2 restarts, rejoins, health converges to ok"
start_node n2 "$N2"
wait_status "$PROXY/v1/health" ok 30
curl -s "$PROXY/v1/health" | tee "$ART/cluster-health-final.json" >/dev/null
curl -s "$PROXY/v1/store/stats" >"$ART/cluster-stats-final.json"

jq -n \
  --argjson proxy_wave "$(cat "$ART/cluster-load-proxy.json")" \
  --argjson direct_wave "$(cat "$ART/cluster-load-direct.json")" \
  --argjson migration_wave "$(cat "$ART/cluster-load-during-migration.json")" \
  --argjson migration "$(cat "$ART/migration-report.json")" \
  --argjson drill_keys "$DRILL_KEYS" \
  --argjson lost "$LOST" \
  '{
    cluster: {nodes: 3, partitions: 64, pulse_ttl_ms: 2000},
    proxy_wave: $proxy_wave,
    direct_wave: $direct_wave,
    migration: $migration,
    migration_wave: $migration_wave,
    kill_drill: {
      acked_keys: $drill_keys,
      lost_acked_writes: $lost,
      corruptions: ($proxy_wave.corruptions + $direct_wave.corruptions
                    + $migration_wave.corruptions),
      converged_ok: true
    }
  }' | tee BENCH_cluster.json
cp BENCH_cluster.json "$ART/BENCH_cluster.json"
echo "== cluster drill PASSED"
