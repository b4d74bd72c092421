// Package amnt is a from-scratch Go reproduction of "A Midsummer
// Night's Tree: Efficient and High Performance Secure SCM" (ASPLOS
// 2024): a crash-consistent Bonsai Merkle Tree persistence protocol
// for storage-class memory, together with every substrate the paper's
// evaluation depends on — a PCM device model, set-associative cache
// hierarchy, counter-mode encryption, split counters, the BMT itself,
// the competing protocols (strict, leaf, Osiris, Anubis, BMF), a
// buddy-allocator OS model with the AMNT++ modification, synthetic
// PARSEC/SPEC workload generators, and a crash/recovery engine.
//
// Layout:
//
//	internal/core           AMNT — the paper's contribution
//	internal/mee            memory encryption engine + baseline protocols
//	internal/bmt            Bonsai Merkle Tree
//	internal/cme            counter-mode encryption, keyed hashing
//	internal/counters       split-counter blocks
//	internal/scm            the SCM (PCM) device model
//	internal/cache          generic set-associative cache
//	internal/cpu            L1/L2/L3 hierarchy
//	internal/kernel         buddy allocator, demand paging, AMNT++
//	internal/radix          sparse uint64-keyed table for per-access lookups
//	internal/stats          counters, rates, histograms, table rendering
//	internal/workload       synthetic PARSEC/SPEC traces
//	internal/sim            whole-machine simulator
//	internal/recovery       analytic recovery-time model (Table 4)
//	internal/experiments    one driver per paper figure/table + ablations,
//	                        the crash cell and the crash matrix
//	internal/faults         fault model, injector, recovery checker
//	internal/telemetry      metrics, time series, trace, HTTP introspection
//	internal/telemetry/span per-request spans and latency attribution
//	internal/store          sharded concurrent KV store over MEE shards
//	internal/wire           the data path's JSON wire format
//	internal/node           amntd's HTTP serving layer
//	internal/cluster        consistent-hash ring, membership, migration
//	cmd/amntsim             run one workload × protocol
//	cmd/amntbench           regenerate the paper's evaluation
//	cmd/amntrecover         analytic recovery-time explorer
//	cmd/amntcrash           crash matrix sweep
//	cmd/amntd               HTTP serving daemon over the sharded store
//	cmd/amntload            concurrent load generator for amntd
//	cmd/amntproxy           stateless cluster router in front of amntd nodes
//	examples/...            six runnable walkthroughs, among them the
//	                        SCM+DRAM hybrid (§7.3) and the SGX-style tree (§2.1)
//
// The benchmark harness in bench_test.go regenerates every table and
// figure; see EXPERIMENTS.md for paper-versus-measured results and
// DESIGN.md for the substitution decisions (what the paper ran on
// gem5 versus what this repository builds).
package amnt
