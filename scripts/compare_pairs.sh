#!/usr/bin/env bash
# Compare two checkouts on one benchmark workload, by the "Comparing two
# commits" protocol of benchmark/README.md.
#
#   scripts/compare_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [FIRST_SEED]
#
# Runs `benchmark/run.sh --workload WORKLOAD --seconds 20 --trace 0` in each
# checkout, PAIRS times each, alternating parent, change, change, parent, …
# Pair i (from 1) runs seed FIRST_SEED + i − 1 (default FIRST_SEED 1) on both
# sides, so a confirmation can use seeds an earlier comparison did not.  Each checkout builds into its own
# CARGO_TARGET_DIR (DIR/.bench_build, which the repo's .gitignore names).
#
# Then prints, per end-to-end metric of the parent's BENCHMARK.json: both
# medians, the parent's quartile distance, how many pairs the change won,
# and whether the medians differ by more than that distance.  The simulated
# metrics (`sim_*`) and the result digest must be the same in every pair;
# each difference is printed.  Exits 1 if a run fails or is not `correct`.
set -euo pipefail

usage() {
    echo "usage: scripts/compare_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [FIRST_SEED]" >&2
    exit 2
}
[[ $# -eq 4 || $# -eq 5 ]] || usage
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="$4"
first="${5:-1}"
[[ "$pairs" =~ ^[1-9][0-9]*$ && "$first" =~ ^[1-9][0-9]*$ ]] || usage
for dir in "$parent" "$change"; do
    [[ -f "$dir/benchmark/run.sh" && -f "$dir/BENCHMARK.json" ]] ||
        { echo "$dir is not a checkout with benchmark/run.sh and BENCHMARK.json" >&2; exit 2; }
done
if ! diff -rq --exclude=target --exclude=out "$parent/benchmark" "$change/benchmark" >/dev/null ||
    ! cmp -s "$parent/BENCHMARK.json" "$change/BENCHMARK.json"; then
    echo "warning: benchmark/ or BENCHMARK.json differ between the checkouts" >&2
fi

records="$(mktemp -d)"
trap 'rm -rf "$records"' EXIT

# run SIDE DIR PAIR: one timed run of the pair's seed; its stdout is kept as
# SIDE-PAIR.out.
run() {
    local log="$records/$1-$3"
    if ! CARGO_TARGET_DIR="$2/.bench_build" bash "$2/benchmark/run.sh" \
        --workload "$workload" --seed "$((first + $3 - 1))" --seconds 20 --trace 0 \
        >"$log.out" 2>"$log.err"; then
        echo "$1 run of seed $((first + $3 - 1)) failed:" >&2
        tail -n 20 "$log.err" >&2
        exit 1
    fi
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
    echo "pair $i of $pairs done" >&2
done

python3 - "$records" "$pairs" "$workload" "$parent/BENCHMARK.json" "$first" <<'PY'
import json
import statistics
import sys

records, pairs, workload, manifest = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
first = int(sys.argv[5])
metrics = json.load(open(manifest))["end_to_end"]


def load(side, seed):
    lines = open(f"{records}/{side}-{seed}.out").read().splitlines()
    record = json.loads(lines[-1])
    digest = next((l.split()[2] for l in lines if l.startswith("diag result_digest ")), None)
    return record, digest


runs = {side: [load(side, s) for s in range(1, pairs + 1)] for side in ("parent", "change")}
ok = True
for side, side_runs in runs.items():
    for seed, (record, _) in enumerate(side_runs, 1):
        if not record.get("correct") or record.get("failed"):
            print(f"{side} seed {first + seed - 1}: correct={record.get('correct')} failed={record.get('failed')}")
            ok = False


def values(side, name):
    return [r["metrics"][name]["value"] for r, _ in runs[side]]


def quartile_distance(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


print(f"{workload}: {pairs} alternating pairs, seeds {first}-{first + pairs - 1}, --seconds 20")
print(f"{'metric':<20} {'parent median':>14} {'change median':>14} {'change':>8} "
      f"{'parent IQR':>11} {'won':>6}  beyond IQR")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p, c = values("parent", name), values("change", name)
    pm, cm = statistics.median(p), statistics.median(c)
    won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    iqr = quartile_distance(p)
    rel = (cm - pm) / pm * 100 if pm else 0.0
    beyond = "yes" if abs(cm - pm) > iqr else "no"
    print(f"{name:<20} {pm:>14.6g} {cm:>14.6g} {rel:>+7.1f}% {iqr:>11.4g} {won:>3}/{pairs}  {beyond}")

differences = []
for seed in range(1, pairs + 1):
    (pr, pd), (cr, cd) = runs["parent"][seed - 1], runs["change"][seed - 1]
    for m in metrics:
        name = m["name"]
        if name.startswith("sim_") and pr["metrics"][name]["value"] != cr["metrics"][name]["value"]:
            differences.append(f"seed {first + seed - 1} {name}: {pr['metrics'][name]['value']} -> "
                               f"{cr['metrics'][name]['value']}")
    if pd != cd:
        differences.append(f"seed {first + seed - 1} result_digest: {pd} -> {cd}")
if differences:
    print("simulated metrics differ:")
    print("\n".join("  " + d for d in differences))
else:
    print("simulated metrics and result digests: identical in every pair")
sys.exit(0 if ok else 1)
PY
