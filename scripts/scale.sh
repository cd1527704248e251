#!/usr/bin/env bash
# scale.sh — host cost of phantom runs over the paper's processor range
# (ROADMAP item 1(d)): wall seconds, user+sys seconds, peak RSS and the
# sha256 of the -stats-json and of the printed report (less its
# "stats: wrote" line, which names a temporary file) of
#
#   ooc-run -phantom -verify=false -n 2048 -mem 65536 testdata/gaxpy.hpf
#   ooc-run -phantom -verify=false -n 4096            testdata/transpose.hpf
#
# at P in {16, 64, 256, 512}, on this checkout and, when a second
# checkout is named, on that one too (the parent commit): the simulated
# side is a host-independent fact, so the hashes of the two must be
# equal wherever both ran, and the script fails when they are not.
#
#   scripts/scale.sh [PARENT_CHECKOUT] > BENCH_scale.json
#
# Every run is its own child process, one at a time, under a 6 GiB
# address-space limit, so that a run which blows up fails by itself
# ("out of memory", recorded as such in its cell) instead of taking the
# box down: before PR 22 the P=512 transpose asked for 21 GB of mailbox
# buffers and was OOM-killed at 15.7 GiB. Peak RSS comes from python3's
# resource module (/usr/bin/time is not on every box).
set -euo pipefail

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/change" ./cmd/ooc-run
SIDES=(change)
if [ $# -ge 1 ]; then
  (cd "$1" && go build -o "$WORK/parent" ./cmd/ooc-run)
  SIDES=(parent change)
fi

python3 - "$WORK" "${SIDES[@]}" <<'EOF'
import hashlib, json, os, resource, subprocess, sys, time

work, sides = sys.argv[1], sys.argv[2:]
programs = [
    ("gaxpy", ["-n", "2048", "-mem", "65536", "testdata/gaxpy.hpf"], [16, 64, 256, 512]),
    ("transpose", ["-n", "4096", "testdata/transpose.hpf"], [16, 64, 256, 512]),
]
LIMIT = 6 << 30

def limit():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))

def measure(binary, args, stats, report):
    """Runs one child and returns its wall, CPU and peak-RSS cost."""
    for stale in (stats, report):
        if os.path.exists(stale):
            os.remove(stale)
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # a process of its own, so RUSAGE_CHILDREN is this run's alone
        os.close(r)
        start = time.time()
        with open(report, "wb") as out:
            code = subprocess.run([binary, "-stats-json", stats] + args, preexec_fn=limit,
                                  stdout=out, stderr=subprocess.DEVNULL).returncode
        use = resource.getrusage(resource.RUSAGE_CHILDREN)
        os.write(w, json.dumps({
            "exit": code,
            "wall_s": round(time.time() - start, 3),
            "cpu_s": round(use.ru_utime + use.ru_stime, 3),
            "peak_rss_mib": round(use.ru_maxrss / 1024, 1),
        }).encode())
        os._exit(0)
    os.close(w)
    out = os.read(r, 1 << 16)
    os.waitpid(pid, 0)
    return json.loads(out)

runs, ok = [], True
for name, args, procs in programs:
    for p in procs:
        row = {"program": name, "procs": p,
               "args": " ".join(["-phantom", "-verify=false", "-procs", str(p)] + args)}
        for side in sides:
            stats, report = os.path.join(work, "stats.json"), os.path.join(work, "report.txt")
            m = measure(os.path.join(work, side),
                        ["-phantom", "-verify=false", "-procs", str(p)] + args, stats, report)
            if code := m.pop("exit"):
                m["failed"] = f"exit {code} under the {LIMIT >> 30} GiB address-space limit"
                ok = ok and side == "parent"  # this checkout must run every row
            else:
                with open(stats, "rb") as f:
                    m["stats_sha256"] = hashlib.sha256(f.read()).hexdigest()
                # The report's "stats: wrote" line names the stats file in
                # this script's mktemp -d directory: hash the report without
                # it, so the hash reproduces from one invocation to the next.
                with open(report, "rb") as f:
                    lines = [l for l in f.read().splitlines(keepends=True)
                             if not l.startswith(b"stats: wrote ")]
                m["report_sha256"] = hashlib.sha256(b"".join(lines)).hexdigest()
            row[side] = m
        for key in ("stats_sha256", "report_sha256"):
            if len({row[side][key] for side in sides if key in row[side]}) > 1:
                print(f"scale: {key} differs between the two checkouts: {row['args']}", file=sys.stderr)
                ok = False
        runs.append(row)

json.dump({
    "note": "host cost of phantom runs over the paper's processor range; stats_sha256 and report_sha256 are the simulated side and must not move under a host-side change",
    "runs": runs,
}, sys.stdout, indent=2)
print()
sys.exit(0 if ok else 1)
EOF
