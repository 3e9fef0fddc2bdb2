#!/usr/bin/env bash
# Paired comparison of two commits on the repo benchmark.
#
#   scripts/pair.sh <parent> <child> [--workload w] [--pairs n] [--seconds s]
#
# Checks both revisions out as detached `git worktree`s in a temporary
# directory, builds each one's benchmark with the same command and the
# same target layout, and restores the `benchmark/Cargo.lock` the build
# rewrites. Then, for seeds 1..n, it runs parent and child once each in
# the form BENCHMARK.json's driver uses (`--workload --seed --seconds
# --trace 0`), alternating which side runs first. It times nothing
# itself: every number is the benchmark's own output.
#
# For each end-to-end metric (BENCHMARK.json `end_to_end`) it prints
# both sides' median and quartiles, the child/parent ratio of the
# medians, the per-pair ratios and the pairs the child won (ties count
# for neither side); last, whether the plan digests matched on every
# seed. Exit status: 0 when every run passed its output checks and the
# digests matched on every seed, 1 otherwise, 2 on a usage error.
# Defaults: --workload period_cold --pairs 10 --seconds 20.
set -euo pipefail

usage() {
    echo "usage: scripts/pair.sh <parent> <child> [--workload w] [--pairs n] [--seconds s]" >&2
    exit 2
}

[[ $# -ge 2 ]] || usage
parent_rev=$1
child_rev=$2
shift 2
workload=period_cold
pairs=10
seconds=20
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case $1 in
        --workload) workload=$2 ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
parent=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
child=$(git -C "$root" rev-parse --verify "$child_rev^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/pair.XXXXXX")
cleanup() {
    for side in parent child; do
        if [[ -d "$work/$side" ]]; then
            git -C "$root" worktree remove --force "$work/$side" || true
        fi
    done
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT

for side in parent child; do
    rev=$parent
    [[ $side == child ]] && rev=$child
    git -C "$root" worktree add --quiet --detach "$work/$side" "$rev"
    echo "building $side ${rev:0:7}" >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side/benchmark/target" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
    git -C "$work/$side" checkout --quiet -- benchmark/Cargo.lock
done

mkdir "$work/out"
status=0
for seed in $(seq 1 "$pairs"); do
    order="parent child"
    [[ $((seed % 2)) -eq 0 ]] && order="child parent"
    for side in $order; do
        echo "seed $seed: $side" >&2
        if ! (cd "$work/$side" && ./benchmark/target/release/harmony-benchmark \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
            > "$work/out/$side-$seed.txt"; then
            echo "seed $seed: the $side run failed" >&2
            tail -n 5 "$work/out/$side-$seed.txt" >&2
            status=1
        fi
    done
done
[[ $status -eq 0 ]] || exit "$status"

python3 - "$root/BENCHMARK.json" "$work/out" "$pairs" "$workload" "$seconds" \
    "${parent:0:7}" "${child:0:7}" <<'PY' || status=$?
import json, os, statistics, sys

manifest, out, pairs, workload, seconds, parent, child = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(manifest))["end_to_end"]


def run(side, seed):
    lines = open(os.path.join(out, f"{side}-{seed}.txt")).read().splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, detail["digest"]


def spread(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return median, q1, q3


runs = {s: [run(s, seed) for seed in range(1, pairs + 1)] for s in ("parent", "child")}
print(f"{workload}: {pairs} pairs, seeds 1-{pairs}, --seconds {seconds}, "
      f"parent {parent}, child {child}")
print(f"{'metric':<14}{'better':<8}{'parent median (q1-q3)':<32}"
      f"{'child median (q1-q3)':<32}{'ratio':>7}{'wins':>8}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    a = [v[name] for v, _ in runs["parent"]]
    b = [v[name] for v, _ in runs["child"]]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    (am, a1, a3), (bm, b1, b3) = spread(a), spread(b)
    print(f"{name:<14}{m['better']:<8}{f'{am:.6g} ({a1:.6g}-{a3:.6g})':<32}"
          f"{f'{bm:.6g} ({b1:.6g}-{b3:.6g})':<32}{bm / am:>7.3f}{f'{wins}/{pairs}':>8}")
    print("  per pair: " + " ".join(f"{y / x:.3f}" for x, y in zip(a, b)))
differ = [seed for seed, ((_, da), (_, db)) in
          enumerate(zip(runs["parent"], runs["child"]), start=1) if da != db]
if differ:
    print(f"digests differ on seeds {differ}")
    sys.exit(1)
print(f"digests equal on all {pairs} seeds")
PY
exit "$status"
