#!/usr/bin/env bash
# Tier-2 gate: the integration suites re-proved in release (tier-1 runs them
# in debug), the microkernel-determinism leg, two traced mako-cli runs, and
# the benchmark's unit tests and --smoke. Slower than tier-1 (minutes, not
# seconds) and meant for pre-merge validation rather than the inner edit loop.
#
#   ./scripts/tier2.sh
#
# Runs from the workspace root regardless of the caller's cwd.
set -euo pipefail
cd "$(dirname "$0")/.."

export PROPTEST_RNG_SEED="${PROPTEST_RNG_SEED:-20260805}"

echo "== tier2: every integration suite under tests/tests, in release =="
cargo test --release -p mako-integration-tests

echo "== tier2: microkernel determinism (linalg, eri and kernels suites under MAKO_KERNEL=generic) =="
# The FP64 quartet's two stacked GEMMs take the packed path, so the generic
# kernel has to carry the integral engine's own tests too, not only linalg's.
MAKO_KERNEL=generic cargo test --release -q -p mako-linalg -p mako-eri -p mako-kernels
# ... and reproduce the pinned J/K and trajectory bits the dispatched kernel produced.
MAKO_KERNEL=generic cargo test --release -q -p mako-scf --test fock_seam_pin --test trajectory_pin

echo "== tier2: xc trace smoke (mako-cli B3LYP water under --trace; scf.xc, eri.one_electron and the Fock-engine events required) =="
cargo run --release -p mako --bin mako-cli -- \
    --mol sample/water.xyz --method b3lyp --trace target/xc_trace_smoke.jsonl
cargo run --release -p mako-bench --bin trace_validate -- target/xc_trace_smoke.jsonl \
    --require scf.xc --require eri.one_electron \
    --require scf.iteration --require fock.screen --require fock.launch --require fock.assemble

echo "== tier2: rescue smoke (mako-cli --rescue on 3.5x-stretched water under --trace; scf.rescue and scf.iteration required) =="
cargo run --release -p mako --bin mako-cli -- \
    --mol sample/water_stretched.xyz --rescue --trace target/rescue_trace_smoke.jsonl
cargo run --release -p mako-bench --bin trace_validate -- target/rescue_trace_smoke.jsonl \
    --require scf.rescue --require scf.iteration

echo "== tier2: mako-benchmark (unit tests + --smoke: all seven workloads at toy size) =="
# benchmark/ is its own workspace: tier-1 only type-checks it, no leg above
# runs it. --smoke verifies every workload's outputs and result
# schema, untraced and traced, and exits non-zero on any problem.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "== tier2: OK =="
