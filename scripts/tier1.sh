#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
#
#   ./scripts/tier1.sh
#
# Runs from the workspace root regardless of the caller's cwd.
set -euo pipefail
cd "$(dirname "$0")/.."

# Pin the property-based tests to one reproducible random sequence: the
# vendored proptest shim folds this seed into every per-test RNG, so a tier-1
# failure on one box replays identically on any other.
export PROPTEST_RNG_SEED="${PROPTEST_RNG_SEED:-20260805}"
echo "== tier1: PROPTEST_RNG_SEED=$PROPTEST_RNG_SEED =="

echo "== tier1: cargo build --release =="
cargo build --release

# Examples are not covered by `cargo build`/`cargo test` (they only build on
# an explicit request), so a broken example otherwise ships silently.
echo "== tier1: cargo build --release --examples =="
cargo build --release --examples

echo "== tier1: cargo test -q =="
cargo test -q

echo "== tier1: cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

# A deleted pub item must not leave a dangling intra-doc link behind.
echo "== tier1: cargo doc --no-deps --workspace, warnings denied =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# benchmark/ is its own workspace, so nothing above compiles it: without this
# a change to a public name it imports breaks BENCHMARK.json's command and is
# only caught by tier-2, and a change that leaves it with a lint goes unseen.
# `--all-targets` takes in its unit tests, which name public items the bin
# does not.
echo "== tier1: cargo clippy --all-targets benchmark/ -- -D warnings =="
cargo clippy --offline --all-targets --manifest-path benchmark/Cargo.toml -- -D warnings

echo "== tier1: OK =="
