#!/usr/bin/env bash
# Compare the exact fields of every benchmark workload between a parent
# checkout and this tree: BENCHMARK.json's command with --trace 1, one run per
# workload and tree.
#
#   scripts/exact.sh <parent-checkout> [seed=2025] [this-seed=seed]
#
# The exact fields of a result line are `correct`, `failed`, and every metric
# except the host-clock ones. Host-clock metrics are those with unit `s`,
# except `accel.*` and `server.*_device_s` (device seconds, which repeat bit
# for bit), plus server.overhead_frac, trace.overhead_frac,
# bench.layer_coverage_frac and linalg.gemm_gflops. Counts, bytes and
# device-clock values must not move in a change that claims to move none.
#
# Prints one line per exact field that differs and exits 1 if any does; prints
# nothing else on stdout and exits 0 when every field matches. `this-seed`
# runs this tree at another seed, which shows that a difference is reported:
#   scripts/exact.sh . 2025 2026
# Builds benchmark/ in both trees (into each tree's own benchmark/target); the
# result lines are kept in the directory printed on stderr. Edits nothing.
set -euo pipefail
# Each tree builds into its own benchmark/target; a shared target directory
# would run one tree's binary for both sides.
unset CARGO_TARGET_DIR

if [ $# -lt 1 ]; then
    sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
here="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$1" && pwd)"
seed="${2:-2025}"
this_seed="${3:-$seed}"
spec="$here/BENCHMARK.json"

mapfile -t cmd < <(python3 -c 'import json, sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$spec")
mapfile -t workloads < <(python3 -c 'import json, sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
out="$(mktemp -d "${TMPDIR:-/tmp}/mako-exact-XXXXXX")"
echo "== result lines: $out" >&2

for tree in "$parent" "$here"; do
    echo "== build: $tree" >&2
    (cd "$tree" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

for w in "${workloads[@]}"; do
    for side in parent change; do
        if [ "$side" = parent ]; then tree="$parent" s="$seed"; else tree="$here" s="$this_seed"; fi
        echo "== $w: $side (seed $s)" >&2
        (cd "$tree" && "${cmd[@]}" --workload "$w" --seed "$s" --seconds "$seconds" --trace 1) \
            | tail -n 1 >"$out/$w.$side.json"
    done
done

python3 - "$out" "${workloads[@]}" <<'PY'
import json, sys

out, workloads = sys.argv[1], sys.argv[2:]
HOST_CLOCK = {"server.overhead_frac", "trace.overhead_frac", "bench.layer_coverage_frac", "linalg.gemm_gflops"}

def host_clock(name, unit):
    if name in HOST_CLOCK:
        return True
    device = name.startswith("accel.") or (name.startswith("server.") and name.endswith("_device_s"))
    return unit == "s" and not device

def exact_fields(result):
    fields = {"correct": result.get("correct"), "failed": result.get("failed")}
    for name, m in result.get("metrics", {}).items():
        if not host_clock(name, m.get("unit")):
            fields[name] = m.get("value")
    return fields

differs = 0
for w in workloads:
    parent, change = (exact_fields(json.load(open(f"{out}/{w}.{side}.json"))) for side in ("parent", "change"))
    for name in sorted(parent.keys() | change.keys()):
        p, c = parent.get(name, "absent"), change.get(name, "absent")
        if p != c:
            differs += 1
            print(f"{w} {name}: parent {p}, this tree {c}")
print(f"== {differs} exact fields differ over {len(workloads)} workloads", file=sys.stderr)
sys.exit(1 if differs else 0)
PY
