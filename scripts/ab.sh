#!/usr/bin/env bash
# A/B one benchmark workload between a parent checkout and this tree, by the
# procedure of /opt/skills/guides/choosing-metrics §8: BENCHMARK.json's
# command, untraced, in alternating pairs (parent first on odd pairs, this
# tree first on even ones).
#
#   scripts/ab.sh <parent-checkout> <workload> [pairs=10] [seed=2025]
#   scripts/ab.sh <parent-checkout> all [pairs=10] [seed=2025]
#
# `all` runs every BENCHMARK.json workload in turn, each as its own A/B, and
# ends with one verdict table over all of them: the "no end-to-end metric
# worse on any workload" check.
#
# Prints, per end-to-end metric, both sides' medians and quartiles, how many
# pairs this tree won, and a verdict:
#   improved    at least 9/10 of the pairs won and the medians further apart
#               than the parent's own interquartile range
#   regressed   this tree's median worse than the parent's by more than the
#               metric's bound in BENCHMARK.json
#   unresolved  neither, and either side's interquartile range is wider than
#               the bound (unless every run here beats every parent run)
#   within bound otherwise
# Every run's result line is kept in the directory printed at the end. Builds
# benchmark/ in both trees (into each tree's own benchmark/target); edits
# nothing.
set -euo pipefail
# Each tree builds into its own benchmark/target; a shared target directory
# would run one tree's binary for both sides.
unset CARGO_TARGET_DIR

if [ $# -lt 2 ]; then
    sed -n '2,25p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
here="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$1" && pwd)"
workload="$2"
pairs="${3:-10}"
seed="${4:-2025}"
spec="$here/BENCHMARK.json"

mapfile -t cmd < <(python3 -c 'import json, sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$spec")
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
if [ "$workload" = all ]; then
    mapfile -t workloads < <(python3 -c 'import json, sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
else
    workloads=("$workload")
fi
out="$(mktemp -d "${TMPDIR:-/tmp}/mako-ab-$workload-XXXXXX")"

for tree in "$parent" "$here"; do
    echo "== build: $tree" >&2
    (cd "$tree" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

run() { # <tree> <side> <workload>
    (cd "$1" && "${cmd[@]}" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0) \
        | tail -n 1 >>"$out/$3.$2.jsonl"
}

for w in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        echo "== $w: pair $i/$pairs" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run "$parent" parent "$w"
            run "$here" change "$w"
        else
            run "$here" change "$w"
            run "$parent" parent "$w"
        fi
    done
done

python3 - "$spec" "$out" "$seed" "${workloads[@]}" <<'PY'
import json, statistics, sys

spec_path, out, seed, workloads = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
spec = json.load(open(spec_path))

def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

table = []  # (workload, metric, delta, wins, pairs, verdict, failed runs)
for workload in workloads:
    runs = {side: [json.loads(line) for line in open(f"{out}/{workload}.{side}.jsonl")] for side in ("parent", "change")}
    pairs = len(runs["parent"])
    print(f"{workload}, seed {seed}, {pairs} alternating pairs, --seconds {spec['run_seconds']}, untraced")
    bad = {}
    for side, rs in runs.items():
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        correct = sum(r["correct"] for r in rs)
        bad[side] = len(rs) - correct + failed
        print(f"  {side}: correct in {correct}/{len(rs)} runs, failed {failed}/{attempted}")

    print(f"{'metric':<14}{'parent q1 / median / q3':>34}{'change q1 / median / q3':>34}{'delta':>9}{'wins':>7}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        wins = sum(sign * cv < sign * pv for pv, cv in zip(p, c))
        gain = sign * (pm - cm)  # > 0: this tree is better
        every_run_better = max(sign * v for v in c) < min(sign * v for v in p)
        if 10 * wins >= 9 * pairs and gain > p3 - p1:
            verdict = "improved"
        elif -gain > bound * abs(pm):
            verdict = "regressed"
        elif max(p3 - p1, c3 - c1) > bound * abs(pm) and not every_run_better:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        delta = (cm - pm) / pm if pm else 0.0
        fmt = lambda a, b, c_: f"{a:.4g} / {b:.4g} / {c_:.4g}"
        print(f"{name:<14}{fmt(p1, pm, p3):>34}{fmt(c1, cm, c3):>34}{delta:>+9.1%}{wins:>4}/{pairs:<2}  {verdict} (bound {bound:.0%})")
        table.append((workload, name, delta, wins, pairs, verdict, bad["change"]))

if len(workloads) > 1:
    print()
    print(f"{'workload':<18}" + "".join(f"{m['name']:>28}" for m in spec["end_to_end"]) + f"{'not correct/failed':>20}")
    for workload in workloads:
        rows = [t for t in table if t[0] == workload]
        cells = "".join(f"{f'{d:+.1%} {w}/{n} {v}':>28}" for _, _, d, w, n, v, _ in rows)
        print(f"{workload:<18}{cells}{rows[0][6]:>20}")
    worse = [f"{t[0]} {t[1]}" for t in table if t[5] == "regressed"]
    broken = sorted({t[0] for t in table if t[6]})
    if worse or broken:
        print("WORSE: " + ", ".join(worse + [f"{w} not correct or failed" for w in broken]))
    else:
        print("no end-to-end metric regressed on any workload; every run correct, none failed")
print(f"result lines: {out}")
PY
