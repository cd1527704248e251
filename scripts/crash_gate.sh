#!/usr/bin/env bash
# crash_gate.sh — service-level durability gates for ooc-serve.
#
# Gate 1 (crash-restart): start ooc-serve with a write-ahead journal and
# one worker, submit a blocker that runs for seconds and then a batch of
# idempotency-keyed jobs, and SIGKILL the process once the blocker has
# committed its first checkpoint and the batch is queued behind it — a
# state the gate waits for, not a sleep it hopes is long enough. Restart
# on the same journal and require that every job completes with stats
# bitwise identical to a journal-less reference run, with
# replayed_jobs == 6, resumed_jobs >= 1 and fsyncs <= records_appended +
# compactions reported in /metrics.
#
# Gate 2 (journal-corruption): flip bytes in the tail of the surviving
# journal segment and require a clean restart (healthz 200, no parse
# error) with truncated_tail_records >= 1 reported in /metrics.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=127.0.0.1:8093
WORK=$(mktemp -d)
go build -o "$WORK/ooc-serve" ./cmd/ooc-serve
JDIR="$WORK/journal"
PIDFILE="$WORK/serve.pid"
cleanup() {
  [ -f "$PIDFILE" ] && kill -9 "$(cat "$PIDFILE")" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# Job 0 is the blocker (n=768 runs for about 3 s on a 2-core x86 box);
# jobs 1-5 the batch. Every spec is checkpointed so an interrupted run
# can resume rather than rerun.
spec() {
  local n=$1 key=$2
  printf '{"n":%d,"procs":4,"mem_elems":2048,"force":"column-slab","checkpoint":1,"idempotency_key":"%s"}' "$n" "$key"
}
KEYS=(crash-blocker crash-a crash-b crash-c crash-d crash-e)
SIZES=(768 256 192 224 160 288)

start_server() { # args: extra flags...
  "$WORK/ooc-serve" -addr "$ADDR" -workers 1 "$@" >"$WORK/serve.log" 2>&1 &
  echo $! >"$PIDFILE"
  for _ in $(seq 1 100); do
    curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "crash_gate: server did not become healthy" >&2
  cat "$WORK/serve.log" >&2
  exit 1
}

stop_server() { # graceful
  kill -TERM "$(cat "$PIDFILE")" 2>/dev/null || true
  wait "$(cat "$PIDFILE")" 2>/dev/null || true
  rm -f "$PIDFILE"
}

extract_stats() { # file.json -> canonical stats JSON on stdout
  python3 -c 'import json,sys; json.dump(json.load(open(sys.argv[1]))["stats"], sys.stdout, sort_keys=True)' "$1"
}

echo "== reference run (no journal) =="
start_server
for i in "${!KEYS[@]}"; do
  curl -sf "http://$ADDR/jobs" -d "$(spec "${SIZES[$i]}" "${KEYS[$i]}")" >"$WORK/ref-$i.json"
  extract_stats "$WORK/ref-$i.json" >"$WORK/ref-$i.stats"
done
stop_server

echo "== gate 1: SIGKILL mid-run, restart, replay =="
start_server -journal "$JDIR"
curl -s "http://$ADDR/jobs" -d "$(spec "${SIZES[0]}" "${KEYS[0]}")" >/dev/null 2>&1 &
# The blocker's first committed checkpoint: it is running and resumable.
for _ in $(seq 1 300); do
  compgen -G "$JDIR/job-*.a1/*.manifest" >/dev/null && break
  sleep 0.05
done
compgen -G "$JDIR/job-*.a1/*.manifest" >/dev/null || {
  echo "crash_gate: the blocker committed no checkpoint" >&2; exit 1; }
for i in 1 2 3 4 5; do
  curl -s "http://$ADDR/jobs" -d "$(spec "${SIZES[$i]}" "${KEYS[$i]}")" >/dev/null 2>&1 &
done
# The batch is queued behind the blocker.
queued() {
  curl -sf "http://$ADDR/metrics" | python3 -c 'import json,sys; print(json.load(sys.stdin)["queue_depth"])'
}
for _ in $(seq 1 300); do
  [ "$(queued)" = 5 ] && break
  sleep 0.01
done
[ "$(queued)" = 5 ] || { echo "crash_gate: the batch never queued behind the blocker" >&2; exit 1; }
kill -9 "$(cat "$PIDFILE")"
wait "$(cat "$PIDFILE")" 2>/dev/null || true
rm -f "$PIDFILE"
wait || true # reap the in-flight curls

start_server -journal "$JDIR"
grep -q 'journal recovered' "$WORK/serve.log" || {
  echo "crash_gate: no recovery summary logged" >&2; cat "$WORK/serve.log" >&2; exit 1; }
# Retried submissions with the same keys must complete with the
# reference stats, whether served fresh, from a resumed run, or
# deduplicated against a retained outcome.
for i in "${!KEYS[@]}"; do
  curl -sf "http://$ADDR/jobs" -d "$(spec "${SIZES[$i]}" "${KEYS[$i]}")" >"$WORK/got-$i.json"
  extract_stats "$WORK/got-$i.json" >"$WORK/got-$i.stats"
  cmp "$WORK/ref-$i.stats" "$WORK/got-$i.stats" || {
    echo "crash_gate: stats for ${KEYS[$i]} differ from reference after restart" >&2; exit 1; }
done
curl -sf "http://$ADDR/metrics" >"$WORK/metrics1.json"
python3 - "$WORK/metrics1.json" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))
j = m["journal"]
assert j["replayed_jobs"] == 6, f"want the blocker and the batch replayed after SIGKILL: {j}"
assert j["resumed_jobs"] >= 1, f"the blocker did not resume from its checkpoint: {j}"
assert j["records_appended"] >= 1 and j["fsyncs"] >= 1, j
# One fsync per batch of records and one per compaction, never one
# compaction (and its fsync) per record.
assert j["fsyncs"] <= j["records_appended"] + j["compactions"], f"more fsyncs than records + compactions: {j}"
print(f"gate 1 ok: replayed={j['replayed_jobs']} resumed={j['resumed_jobs']} "
      f"records={j['records_appended']} fsyncs={j['fsyncs']} compactions={j['compactions']}")
PY
stop_server

echo "== gate 2: corrupt journal tail, clean restart =="
SEG=$(ls "$JDIR"/*.seg | sort | tail -1)
python3 - "$SEG" <<'PY'
import sys
path = sys.argv[1]
with open(path, "r+b") as f:
    f.seek(0, 2)
    size = f.tell()
    # Flip the last 4 bytes: whatever record they land in fails its CRC.
    f.seek(max(0, size - 4))
    tail = bytes(b ^ 0xFF for b in f.read(4))
    f.seek(max(0, size - 4))
    f.write(tail)
print(f"flipped tail bytes of {path} ({size} bytes)")
PY
start_server -journal "$JDIR"
curl -sf "http://$ADDR/healthz" >/dev/null # clean start, not a parse error
curl -sf "http://$ADDR/metrics" >"$WORK/metrics2.json"
python3 - "$WORK/metrics2.json" <<'PY'
import json, sys
j = json.load(open(sys.argv[1]))["journal"]
assert j["truncated_tail_records"] >= 1, f"corrupt tail not truncated: {j}"
print(f"gate 2 ok: truncated_tail_records={j['truncated_tail_records']}")
PY
# The server keeps serving after dropping the torn tail.
curl -sf "http://$ADDR/jobs" -d '{"n":64,"procs":4,"mem_elems":2048}' >/dev/null
stop_server

echo "crash_gate: all gates passed"
