#!/usr/bin/env bash
# ab.sh — the benchmark's end-to-end metrics at a base commit against
# this checkout, in alternating pairs:
#
#   scripts/ab.sh [-n PAIRS] [-s SEED] [-t SECONDS] [-o DIR] BASE WORKLOAD...
#
# BASE is any commit git can name (a hash, HEAD~1, a branch). Its files
# are exported with `git archive` into a temporary directory (nothing is
# registered in the repository, so a killed run leaves nothing behind
# there), and each side runs bench/run.sh from its own checkout, which
# builds the benchmark from that checkout's source. This checkout runs as
# it stands, uncommitted edits included.
#
# For each workload the script runs PAIRS pairs (default 10) of SECONDS
# (default BENCHMARK.json's run_seconds) with seed SEED (default 1),
# base first in even pairs and change first in odd ones. It prints, for
# every end-to-end metric of BENCHMARK.json, each side's median and
# quartiles, the ratio of the medians, in how many pairs the change was
# better (ties count for neither side), whether the medians differ by
# more than the base's quartile spread, and whether the change's median
# is worse than the base's by more than the metric's bound. A run that
# reports correct:false or failed operations is named on the way. -o DIR
# keeps every run's result line, one file per side and workload.
#
# The exit status is 1 when some workload's metric is both over its
# bound and apart (its change median is worse than the base's by more
# than the bound, and the medians differ by more than the base's
# quartile spread), 0 otherwise, and 2 on a usage error.
#
# Set TMPDIR if /tmp is off limits.
set -euo pipefail

pairs=10 seed=1 seconds="" keep=""
while getopts n:s:t:o: opt; do
  case $opt in
    n) pairs=$OPTARG ;;
    s) seed=$OPTARG ;;
    t) seconds=$OPTARG ;;
    o) keep=$OPTARG ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ $# -lt 2 ]; then
  echo "usage: scripts/ab.sh [-n PAIRS] [-s SEED] [-t SECONDS] [-o DIR] BASE WORKLOAD..." >&2
  exit 2
fi
base_rev=$1
shift

cd "$(dirname "$0")/.."
change=$PWD
if [ -z "$seconds" ]; then
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
out=${keep:-$WORK/out}
mkdir -p "$WORK/base" "$out"
git archive "$base_rev" | tar -x -C "$WORK/base"
echo "base $(git rev-parse --short "$base_rev"), change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + edits'); $pairs pairs of ${seconds}s, seed $seed" >&2

# run SIDE WORKLOAD appends one result line of SIDE to its file.
run() {
  local dir=$change
  [ "$1" = base ] && dir=$WORK/base
  local line
  line=$(cd "$dir" && bash bench/run.sh --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
  case $line in
    '{'*) ;;
    *) line='{"correct":false,"attempted":0,"failed":0,"metrics":{}}' ;;
  esac
  echo "$line" >> "$out/$2.$1.jsonl"
}

for w in "$@"; do
  rm -f "$out/$w.base.jsonl" "$out/$w.change.jsonl"
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then run base "$w"; run change "$w"; else run change "$w"; run base "$w"; fi
    echo "  $w: pair $((i + 1)) of $pairs done" >&2
  done
done

python3 - "$out" BENCHMARK.json "$@" <<'EOF'
import json, statistics, sys

out, bench, workloads = sys.argv[1], json.load(open(sys.argv[2])), sys.argv[3:]

def load(w, side):
    with open(f"{out}/{w}.{side}.jsonl") as f:
        return [json.loads(line) for line in f]

def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return q1, med, q3

regressed = []
print(f"{'workload':<15} {'metric':<17} {'base median [q1, q3]':<30} {'change median [q1, q3]':<30} {'ratio':>7}  better  apart  bound")
for w in workloads:
    runs = {side: load(w, side) for side in ("base", "change")}
    for side, rs in runs.items():
        for i, r in enumerate(rs):
            if not r["correct"] or r["failed"]:
                print(f"{w}: {side} run {i + 1}: correct {r['correct']}, {r['failed']} of {r['attempted']} failed")
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [r["metrics"][name]["value"] for r in rs if name in r["metrics"]] for s, rs in runs.items()}
        b, c = vals["base"], vals["change"]
        if not b or not c:
            print(f"{w:<15} {name:<17} no values")
            continue
        bq, cq = quartiles(b), quartiles(c)
        wins = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
        worse = (cq[1] - bq[1]) if lower else (bq[1] - cq[1])
        apart = "yes" if abs(cq[1] - bq[1]) > bq[2] - bq[0] else "no"
        bound = "over" if worse > m["bound"] * abs(bq[1]) else "ok"
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{w:<15} {name:<17} {fmt(bq):<30} {fmt(cq):<30} {ratio:>7.3f}  {wins:>2}/{min(len(b), len(c)):<3}  {apart:<5}  {bound}")
        if bound == "over" and apart == "yes":
            regressed.append(f"{w} {name}")
print("ratio: change median / base median; better: the change was better in n of m pairs;")
print("apart: the medians differ by more than base q3 - q1; bound: ok unless the change's median is worse by more than the bound")
if regressed:
    print("worse beyond bound and spread: " + ", ".join(regressed))
    sys.exit(1)
EOF
