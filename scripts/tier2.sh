#!/usr/bin/env bash
# Tier-2 gate: the golden-reference conformance suite plus a smoke run of
# both benchmark binaries. Slower than tier-1 (minutes, not seconds) and
# meant for pre-merge validation rather than the inner edit loop.
#
#   ./scripts/tier2.sh
#
# Runs from the workspace root regardless of the caller's cwd.
set -euo pipefail
cd "$(dirname "$0")/.."

export PROPTEST_RNG_SEED="${PROPTEST_RNG_SEED:-20260805}"

echo "== tier2: golden-reference conformance suite =="
cargo test --release -p mako-integration-tests --test golden

# Smoke runs write to scratch paths so they never clobber the committed
# full-workload BENCH_*.json artifacts.
echo "== tier2: microkernel determinism (full linalg suite under MAKO_KERNEL=generic) =="
MAKO_KERNEL=generic cargo test --release -q -p mako-linalg

echo "== tier2: incremental_scf_bench (smoke: water4, 1/2 threads) =="
MAKO_SMOKE=1 MAKO_THREADS=1,2 \
    MAKO_BENCH_OUT=target/BENCH_scf_smoke.json \
    cargo run --release -p mako-bench --bin incremental_scf_bench

echo "== tier2: chaos_scf_bench (smoke: water2, 2 ranks, seeded faults) =="
MAKO_SMOKE=1 MAKO_THREADS=2 MAKO_FAULT_SEED=6 \
    MAKO_BENCH_OUT=target/BENCH_chaos_smoke.json \
    cargo run --release -p mako-bench --bin chaos_scf_bench

echo "== tier2: rescue_scf_bench (smoke: healthy inertness + stretched-water ladder, traced) =="
MAKO_SMOKE=1 MAKO_THREADS=1,2 \
    MAKO_BENCH_OUT=target/BENCH_rescue_smoke.json \
    MAKO_TRACE=target/rescue_trace_smoke.jsonl \
    cargo run --release -p mako-bench --bin rescue_scf_bench
cargo run --release -p mako-bench --bin trace_validate -- target/rescue_trace_smoke.jsonl
grep -q '"cat":"scf","name":"rescue"' target/rescue_trace_smoke.jsonl \
    || { echo "rescue trace is missing scf.rescue spans" >&2; exit 1; }

echo "== tier2: ensemble_bench (smoke: 6 perturbed waters, batched vs solo, traced) =="
MAKO_SMOKE=1 MAKO_THREADS=1,2 \
    MAKO_BENCH_OUT=target/BENCH_batch_smoke.json \
    MAKO_TRACE=target/ensemble_trace_smoke.jsonl \
    cargo run --release -p mako-bench --bin ensemble_bench
# The ensemble.* events must validate against the documented schema AND
# actually appear — the fleet instrumentation is part of the contract.
cargo run --release -p mako-bench --bin trace_validate -- target/ensemble_trace_smoke.jsonl \
    --require ensemble.run --require ensemble.iteration \
    --require ensemble.launch --require ensemble.member
grep -q '"bitwise_identical_all": true' target/BENCH_batch_smoke.json \
    || { echo "ensemble smoke lost per-molecule bitwise identity" >&2; exit 1; }

echo "== tier2: server_bench (smoke: admission + starvation + chaos serve, traced) =="
MAKO_SMOKE=1 MAKO_FAULT_SEED=11 \
    MAKO_BENCH_OUT=target/BENCH_serve_smoke.json \
    MAKO_TRACE=target/serve_trace_smoke.jsonl \
    cargo run --release -p mako-bench --bin server_bench
# The serving events must validate against the documented schema AND
# actually appear — admission decisions, quanta, and typed outcomes are
# part of the serving contract.
cargo run --release -p mako-bench --bin trace_validate -- target/serve_trace_smoke.jsonl \
    --require server.run --require server.admission --require server.quantum \
    --require job.submit --require job.start --require job.outcome
grep -q '"completed_bitwise_vs_solo": true' target/BENCH_serve_smoke.json \
    || { echo "server smoke lost the chaos bitwise invariant" >&2; exit 1; }
grep -q '"threads_bitwise_identical": true' target/BENCH_serve_smoke.json \
    || { echo "server smoke lost cross-thread determinism" >&2; exit 1; }

echo "== tier2: durability_bench (smoke: strided crash-point sweep + corruption, traced) =="
MAKO_SMOKE=1 MAKO_FAULT_SEED=23 \
    MAKO_BENCH_OUT=target/BENCH_durability_smoke.json \
    MAKO_TRACE=target/durability_trace_smoke.jsonl \
    cargo run --release -p mako-bench --bin durability_bench
# The store.* / recover.* events must validate against the documented
# schema AND actually appear — journaling, crash resolution, quarantine,
# and recovery replay are the durability contract.
cargo run --release -p mako-bench --bin trace_validate -- target/durability_trace_smoke.jsonl \
    --require store.append --require store.crash --require store.quarantine \
    --require recover.replay --require recover.salvage --require recover.serve
grep -q '"recovered_bitwise_vs_quiet": true' target/BENCH_durability_smoke.json \
    || { echo "durability smoke lost crash-recovery bitwise identity" >&2; exit 1; }
grep -q '"double_recovery_idempotent": true' target/BENCH_durability_smoke.json \
    || { echo "durability smoke lost double-recovery idempotence" >&2; exit 1; }

echo "== tier2: xc trace smoke (mako-cli B3LYP water under --trace; scf.xc, eri.one_electron and the Fock-engine events required) =="
cargo run --release -p mako --bin mako-cli -- \
    --mol sample/water.xyz --method b3lyp --trace target/xc_trace_smoke.jsonl
cargo run --release -p mako-bench --bin trace_validate -- target/xc_trace_smoke.jsonl \
    --require scf.xc --require eri.one_electron \
    --require scf.iteration --require fock.screen --require fock.launch --require fock.assemble

echo "== tier2: mako-benchmark (unit tests + --smoke: all seven workloads at toy size) =="
# benchmark/ is its own workspace: tier-1 only type-checks it, no leg above
# runs it. --smoke verifies every workload's outputs and result
# schema, untraced and traced, and exits non-zero on any problem.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "== tier2: OK =="
