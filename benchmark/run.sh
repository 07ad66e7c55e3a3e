#!/usr/bin/env bash
# Build the benchmark in release mode, then run workloads untraced and traced.
#
#   benchmark/run.sh                    # all seven workloads at seed 2025
#   benchmark/run.sh scf_eri scf_wide   # only these
#   SEED=7 RUN_SECONDS=6 benchmark/run.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/mako-benchmark"

workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <("$bin" --list | cut -f1)
fi
for w in "${workloads[@]}"; do
    for trace in 0 1; do
        "$bin" --workload "$w" --seed "${SEED:-2025}" --seconds "${RUN_SECONDS:-6}" --trace "$trace"
    done
done
