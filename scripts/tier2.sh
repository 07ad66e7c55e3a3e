#!/usr/bin/env bash
# Tier-2 gate: the integration suites and the scf and server crates' tests
# re-proved in release (tier-1 runs them in debug), the microkernel-determinism
# leg, three traced mako-cli runs, and the benchmark's unit tests and --smoke.
# Slower than tier-1 (minutes, not seconds) and meant for pre-merge validation
# rather than the inner edit loop.
#
#   ./scripts/tier2.sh
#
# Runs from the workspace root regardless of the caller's cwd.
#
# The release integration leg includes durability.rs's
# `a_journal_with_progress_records_recovers_untruncated`, which recovers a
# committed journal fixture (tests/fixtures/serve_with_progress_records.wal)
# that still holds the retired Started/Checkpointed/Yielded records, and
# `a_quiet_serve_syncs_only_what_recovery_reads`, which pins a serve's syncs.
set -euo pipefail
cd "$(dirname "$0")/.."

export PROPTEST_RNG_SEED="${PROPTEST_RNG_SEED:-20260805}"

echo "== tier2: every integration suite under tests/tests, then the scf and server crates' own tests, in release =="
cargo test --release -p mako-integration-tests
# Bitwise kill/resume and serve contracts that live as unit tests (tier-1
# runs them in debug only).
cargo test --release -q -p mako-scf -p mako-server

echo "== tier2: microkernel determinism (linalg, eri and kernels suites, then the scf pins, under MAKO_KERNEL=generic) =="
# The FP64 quartet's two stacked GEMMs take the packed path, so the generic
# kernel has to carry the integral engine's own tests too, not only linalg's.
MAKO_KERNEL=generic cargo test --release -q -p mako-linalg -p mako-eri -p mako-kernels
# ... and reproduce the pinned J/K, trajectory and XC bits the dispatched kernel
# produced (`V_xc` is two `gemm_into` calls per grid block).
MAKO_KERNEL=generic cargo test --release -q -p mako-scf --test fock_seam_pin --test trajectory_pin --test xc_pin

echo "== tier2: xc trace smoke (mako-cli B3LYP water under --trace; scf.xc, eri.one_electron and the Fock-engine events required) =="
cargo run --release -p mako --bin mako-cli -- \
    --mol sample/water.xyz --method b3lyp --trace target/xc_trace_smoke.jsonl
cargo run --release -p mako-bench --bin trace_validate -- target/xc_trace_smoke.jsonl \
    --require scf.xc --require eri.one_electron \
    --require scf.iteration --require fock.screen --require fock.launch --require fock.assemble

echo "== tier2: quantized smoke (mako-cli QuantMako B3LYP water under --trace; scf.xc and the Fock-engine events required) =="
cargo run --release -p mako --bin mako-cli -- \
    --mol sample/water.xyz --method b3lyp --quantized --trace target/quant_trace_smoke.jsonl
cargo run --release -p mako-bench --bin trace_validate -- target/quant_trace_smoke.jsonl \
    --require scf.xc --require fock.assemble --require fock.launch --require scf.iteration

echo "== tier2: rescue smoke (mako-cli --rescue on 3.5x-stretched water under --trace; scf.rescue and scf.iteration required) =="
cargo run --release -p mako --bin mako-cli -- \
    --mol sample/water_stretched.xyz --rescue --trace target/rescue_trace_smoke.jsonl
cargo run --release -p mako-bench --bin trace_validate -- target/rescue_trace_smoke.jsonl \
    --require scf.rescue --require scf.iteration

echo "== tier2: mako-cli refusals (a trace that cannot be written, an unknown --method: both must exit non-zero) =="
# Build first, so a build failure cannot pass for the refusal.
cargo build --release -q -p mako --bin mako-cli
must_fail() {
    if "$@"; then
        echo "tier2: expected a non-zero exit from: $*" >&2
        exit 1
    fi
}
must_fail cargo run --release -q -p mako --bin mako-cli -- --mol sample/water.xyz --trace /nonexistent/dir/t.jsonl
must_fail cargo run --release -q -p mako --bin mako-cli -- --mol sample/water.xyz --method pbe

echo "== tier2: mako-benchmark (unit tests + --smoke: all seven workloads at toy size) =="
# benchmark/ is its own workspace: tier-1 only type-checks it, no leg above
# runs it. --smoke verifies every workload's outputs and result
# schema, untraced and traced, and exits non-zero on any problem.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "== tier2: OK =="
