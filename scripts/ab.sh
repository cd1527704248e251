#!/usr/bin/env bash
# ab.sh — the benchmark's end-to-end metrics, or a wall-clock kernel's
# ns/op, at a base commit against this checkout, in alternating pairs:
#
#   scripts/ab.sh [-n PAIRS] [-s SEED] [-t SECONDS] [-o DIR] [BASE] NAME...
#
# Each NAME is a workload of BENCHMARK.json or a wall-clock kernel of
# BENCH_wallclock.json. BASE is any commit git can name (a hash, HEAD~1,
# a branch); when the first argument is such a NAME, BASE is left out
# and defaults to `git merge-base HEAD main`, where a branch left main,
# or HEAD itself on main (to measure uncommitted edits). Its files
# are exported with `git archive` into a temporary directory (nothing is
# registered in the repository, so a killed run leaves nothing behind
# there), and each side runs from its own checkout, built from that
# checkout's source. This checkout runs as it stands, uncommitted edits
# included.
#
# For each NAME the script runs PAIRS pairs (default 10), base first in
# odd pairs and change first in even ones. A workload runs bench/run.sh
# for SECONDS (default BENCHMARK.json's run_seconds) with seed SEED
# (default 1). A kernel runs `ooc-bench -wallclock -wallclock-kernels
# NAME`, the ooc-bench of each side built once; testing.Benchmark sets
# its length, and -s and -t do not apply. The script prints, for every
# end-to-end metric of BENCHMARK.json or for a kernel's ns/op, each
# side's median and quartiles, the ratio of the medians, in how many
# pairs the change was better (each pair compares its own two runs, and
# counts only when both have the metric; ties count for neither side),
# whether the medians differ by more than the base's quartile spread,
# and whether the change's median is worse than the base's by more than
# the metric's bound (a kernel's ns/op has none: "-"). For a kernel it
# then prints each side's allocs/op, the largest of its runs as
# BENCH_wallclock.json records it, and every sim_s its runs reported.
#
# A run fails if it exits non-zero, prints no result, or (a workload)
# reports correct:false or failed jobs. After the table, each failed run
# is named with its NAME, side, pair and exit code, followed by the last
# 20 lines of its stderr. -o DIR also keeps every run's output: the
# results and exit statuses of a side (W.SIDE.jsonl, W.SIDE.status, one
# line per pair) and each run's stderr (W.SIDE.N.stderr, N the pair from
# 1).
#
# The exit status is 1 when some run failed, when some workload's metric
# is both over its bound and apart (its change median is worse than the
# base's by more than the bound, and the medians differ by more than the
# base's quartile spread), or when a kernel's allocs/op or sim_s differ
# between the sides; 0 otherwise, and 2 on a usage error.
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
usage="usage: scripts/ab.sh [-n PAIRS] [-s SEED] [-t SECONDS] [-o DIR] [BASE] WORKLOAD|KERNEL..."
if [ $# -lt 1 ]; then
  echo "$usage" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
change=$PWD
# kind NAME prints workload or kernel, or nothing for any other name.
kind() {
  python3 -c '
import json, sys
if sys.argv[1] in [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]:
    print("workload")
elif sys.argv[1] in [k["name"] for k in json.load(open("BENCH_wallclock.json"))["kernels"]]:
    print("kernel")
' "$1"
}
if [ -n "$(kind "$1")" ]; then
  if ! base_rev=$(git merge-base HEAD main); then
    echo "scripts/ab.sh: no BASE given and no merge base of HEAD and main" >&2
    exit 2
  fi
else
  base_rev=$1
  shift
fi
if [ $# -lt 1 ]; then
  echo "$usage" >&2
  exit 2
fi
declare -A kinds
for w in "$@"; do
  kinds[$w]=$(kind "$w")
  if [ -z "${kinds[$w]}" ]; then
    echo "scripts/ab.sh: $w is neither a workload of BENCHMARK.json nor a kernel of BENCH_wallclock.json" >&2
    exit 2
  fi
done
if [ -z "$seconds" ]; then
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
out=${keep:-$WORK/out}
mkdir -p "$WORK/base" "$out"
out=$(cd "$out" && pwd) # each run writes its stderr from its own checkout
git archive "$base_rev" | tar -x -C "$WORK/base"
echo "base $(git rev-parse --short "$base_rev"), change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + edits'); $pairs pairs (a workload: ${seconds}s, seed $seed)" >&2
if [[ " ${kinds[*]} " == *" kernel "* ]]; then
  (cd "$WORK/base" && go build -o "$WORK/base.ooc-bench" ./cmd/ooc-bench)
  go build -o "$WORK/change.ooc-bench" ./cmd/ooc-bench
fi

# run SIDE NAME PAIR appends SIDE's result line (null if the run printed
# none) and exit status to their files, and keeps its stderr. A kernel's
# result line is its row of the wall-clock report.
run() {
  local dir=$change
  [ "$1" = base ] && dir=$WORK/base
  local line status=0
  if [ "${kinds[$2]}" = kernel ]; then
    line=$(cd "$dir" && "$WORK/$1.ooc-bench" -wallclock -wallclock-kernels "$2" 2>"$out/$2.$1.$3.stderr" |
      python3 -c 'import json, sys; print(json.dumps(json.load(sys.stdin)["kernels"][0]))' 2>/dev/null) || status=$?
  else
    line=$(cd "$dir" && bash bench/run.sh --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 2>"$out/$2.$1.$3.stderr" | tail -n 1) || status=$?
  fi
  case $line in
    '{'*) ;;
    *) line=null ;;
  esac
  echo "$line" >> "$out/$2.$1.jsonl"
  echo "$status" >> "$out/$2.$1.status"
}

for w in "$@"; do
  rm -f "$out/$w".{base,change}.{jsonl,status} "$out/$w".{base,change}.*.stderr
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then run base "$w" "$i"; run change "$w" "$i"; else run change "$w" "$i"; run base "$w" "$i"; fi
    echo "  $w: pair $i of $pairs done" >&2
  done
done

python3 - "$out" BENCHMARK.json BENCH_wallclock.json "$@" <<'EOF'
import json, statistics, sys

out, bench, wall, names = sys.argv[1], json.load(open(sys.argv[2])), json.load(open(sys.argv[3])), sys.argv[4:]
kernels = {k["name"] for k in wall["kernels"]}

def load(w, side):
    with open(f"{out}/{w}.{side}.jsonl") as f:
        runs = [json.loads(line) for line in f]
    with open(f"{out}/{w}.{side}.status") as f:
        return runs, [int(line) for line in f]

def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return q1, med, q3

# value reads a metric off one run's result: a workload's metrics map or
# a kernel's report row.
def value(r, kernel, name):
    if r is None:
        return None
    if kernel:
        return r[name]
    return r["metrics"][name]["value"] if name in r["metrics"] else None

regressed, failed, differ = [], [], []
print(f"{'name':<15} {'metric':<17} {'base median [q1, q3]':<30} {'change median [q1, q3]':<30} {'ratio':>7}  better  apart  bound")
for w in names:
    kernel = w in kernels
    runs = {side: load(w, side) for side in ("base", "change")}
    for side, (rs, codes) in runs.items():
        for i, (r, code) in enumerate(zip(rs, codes)):
            why = []
            if r is None:
                why.append("no result line")
            elif not kernel and (not r["correct"] or r["failed"]):
                why.append(f"correct:{str(r['correct']).lower()}, {r['failed']} of {r['attempted']} jobs failed")
            if code or why:
                failed.append((w, side, i + 1, ", ".join([f"exit code {code}"] + why)))
    metrics = [{"name": "ns_per_op", "better": "lower", "bound": None}] if kernel else bench["end_to_end"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        # One entry per pair: None where that pair's run has no value.
        vals = {s: [value(r, kernel, name) for r in rs] for s, (rs, _) in runs.items()}
        pairs = [(x, y) for x, y in zip(vals["base"], vals["change"]) if x is not None and y is not None]
        b = [x for x in vals["base"] if x is not None]
        c = [y for y in vals["change"] if y is not None]
        if not b or not c:
            print(f"{w:<15} {name:<17} no values")
            continue
        bq, cq = quartiles(b), quartiles(c)
        wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
        worse = (cq[1] - bq[1]) if lower else (bq[1] - cq[1])
        apart = "yes" if abs(cq[1] - bq[1]) > bq[2] - bq[0] else "no"
        bound = "-" if m["bound"] is None else "over" if worse > m["bound"] * abs(bq[1]) else "ok"
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{w:<15} {name:<17} {fmt(bq):<30} {fmt(cq):<30} {ratio:>7.3f}  {wins:>2}/{len(pairs):<3}  {apart:<5}  {bound}")
        if bound == "over" and apart == "yes":
            regressed.append(f"{w} {name}")
    if kernel:
        allocs = {s: max((r["allocs_per_op"] for r in rs if r), default=None) for s, (rs, _) in runs.items()}
        sims = sorted({r["sim_s"] for rs, _ in runs.values() for r in rs if r})
        print(f"{w:<15} {'allocs_per_op':<17} base {allocs['base']}, change {allocs['change']}; sim_s {', '.join(map(repr, sims))}")
        if allocs["base"] != allocs["change"] or len(sims) > 1:
            differ.append(w)
print("ratio: change median / base median; better: the change was better in n of m pairs;")
print("apart: the medians differ by more than base q3 - q1; bound: ok unless the change's median is worse by more than the bound")
for w, side, pair, why in failed:
    print(f"failed run: {w}, {side} side, pair {pair}: {why}")
    with open(f"{out}/{w}.{side}.{pair}.stderr") as f:
        for line in f.read().splitlines()[-20:]:
            print("    " + line)
if regressed:
    print("worse beyond bound and spread: " + ", ".join(regressed))
if differ:
    print("allocs/op or sim_s differ between the sides: " + ", ".join(differ))
sys.exit(1 if regressed or failed or differ else 0)
EOF
