#!/usr/bin/env bash
# Paired end-to-end comparison of a parent revision against the working
# tree, on one workload of the benchmark that BENCHMARK.json declares.
#
#   scripts/e2e_pairs.sh [--trace] <parent-rev> <workload> <seed> <pairs> [seconds]
#
# The parent revision is exported with `git archive` into
# target/e2e_pairs/<sha>/ (no worktree is registered, so an interrupted
# run leaves nothing in .git) and each side builds the benchmark from
# its own sources into its own .bench_build/. Runs are untraced (but
# see --trace) and alternate: odd pairs run the parent first, even pairs
# the change first, so a drift in host speed lands on both sides. `seconds`
# defaults to BENCHMARK.json's run_seconds.
#
# For every end-to-end metric the summary prints each side's median and
# interquartile range, the median of the per-pair change/parent ratios,
# how many pairs the change won (by the metric's "better" direction),
# and whether the gap between the medians exceeds the parent's IQR.
# With --trace the runs are traced instead, and the same summary covers
# every per-layer metric BENCHMARK.json declares that the workload
# times (codegen.emit_ns_p50, ir.lower_opt_ns_p50, ...): a stage's
# time, parent against change. Traced end-to-end numbers include the
# tracing cost, so they are not summarized.
# Reports land in target/e2e_pairs/runs/. Host noise is not removed,
# only shared between sides: read small differences with the IQRs.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

trace=0
if [ "${1:-}" = "--trace" ]; then
    trace=1
    shift
fi
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 [--trace] <parent-rev> <workload> <seed> <pairs> [seconds]" >&2
    exit 2
fi
rev="$1" workload="$2" seed="$3" pairs="$4"
seconds="${5:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
case "$pairs" in '' | *[!0-9]* | 0) echo "pairs must be a positive integer" >&2; exit 2 ;; esac

sha="$(git rev-parse --verify "$rev^{commit}")"
base="$root/target/e2e_pairs"
parent="$base/$sha"
runs="$base/runs"
if [ ! -f "$parent/BENCHMARK.json" ]; then
    rm -rf "$parent"
    mkdir -p "$parent"
    git archive "$sha" | tar -x -C "$parent"
fi
mkdir -p "$runs"

# BENCHMARK.json's command, as one argument per line.
mapfile -t command < <(python3 -c '
import json
for arg in json.load(open("BENCHMARK.json"))["command"]:
    print(arg)')

# run <side> <dir> <pair>: one run from <dir>'s sources.
run() {
    local side="$1" dir="$2" pair="$3"
    local out="$runs/$workload-seed$seed-trace$trace-$side-$pair.json"
    (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" "${command[@]}" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        --out "$out" > /dev/null)
    echo "$out"
}

echo "building $sha and the working tree" >&2
for dir in "$parent" "$root"; do
    (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" cargo build --release --offline --quiet \
        --manifest-path e2ebench/Cargo.toml --bin e2e)
done

parent_reports=()
change_reports=()
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        parent_reports+=("$(run parent "$parent" "$pair")")
        change_reports+=("$(run change "$root" "$pair")")
    else
        change_reports+=("$(run change "$root" "$pair")")
        parent_reports+=("$(run parent "$parent" "$pair")")
    fi
    echo "pair $pair/$pairs done" >&2
done

python3 - "$workload" "$seed" "$seconds" "$sha" "$trace" "${#parent_reports[@]}" \
    "${parent_reports[@]}" "${change_reports[@]}" <<'EOF'
import json
import statistics
import sys

workload, seed, seconds, sha, traced, n = sys.argv[1:7]
traced, n = traced == "1", int(n)
paths = sys.argv[7:]
parent = [json.load(open(p)) for p in paths[:n]]
change = [json.load(open(p)) for p in paths[n:]]
declared = json.load(open("BENCHMARK.json"))
metrics = declared["per_layer"] if traced else declared["end_to_end"]
if traced:
    # Only the layers this workload times: a report lists every layer,
    # with 0 for those its workload never enters.
    metrics = [
        m for m in metrics
        if any(r["metrics"].get(m["name"], {}).get("value") for r in parent + change)
    ]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(x):
    return f"{x:.6g}"


mode = "traced" if traced else "untraced"
print(f"{workload}, seed {seed}, {n} {mode} pairs of {seconds} s, parent {sha[:12]}")
for side, reports in (("parent", parent), ("change", change)):
    bad = [r for r in reports if not r.get("correct") or r.get("failed")]
    if bad:
        print(f"WARNING: {len(bad)} {side} run(s) incorrect or with failed ops")
print("| metric | parent median (IQR) | change median (IQR) | median ratio | wins | gap > parent IQR |")
print("|---|---|---|---|---|---|")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
    c = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
    if len(p) != n or len(c) != n:
        print(f"| `{name}` | missing | missing | | | |")
        continue
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    ratios = [b / a for a, b in zip(p, c) if a != 0]
    ratio = statistics.median(ratios) if ratios else float("nan")
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    improved = cm < pm if lower else cm > pm
    beyond = abs(cm - pm) > (p3 - p1)
    verdict = ("better" if improved else "worse") if beyond else "no"
    print(
        f"| `{name}` | {fmt(pm)} ({fmt(p1)}–{fmt(p3)}) | {fmt(cm)} ({fmt(c1)}–{fmt(c3)}) "
        f"| {ratio:.3f} | {wins}/{n} | {verdict} |"
    )
EOF
