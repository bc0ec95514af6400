#!/bin/sh
# Crash-chaos end-to-end: prove drtpd's WAL + snapshot recovery reaches a
# byte-identical state after SIGKILLs at staggered points mid-load.
#
#   daemon_crash_chaos.sh <drtpsim> <drtpd> <drtpload> <workdir>
#
# Phase 1 (reference): a seeded single-worker closed-loop run against an
# uninterrupted daemon. --batch=1 makes the commit order equal to the
# client's issue order, so the final NetworkStateDigest and the
# server-side admission counter are a deterministic function of the seed.
#
# Phase 2 (chaos): the identical seeded load runs while the daemon is
# SIGKILL'd at staggered points and restarted with --recover each time.
# The client rides the gaps with reconnect + resend (dup-ack semantics
# turn a replayed admit into conn_exists -> admitted, never a duplicate).
#
# Pass criteria: chaos digest == reference digest (byte-identical state),
# chaos server-side admitted == reference (zero duplicate admissions),
# zero client errors/aborts, clean audits, graceful drains, and at least
# one client reconnect per SIGKILL that landed before the workers' last
# request. A kill after that point (while drtpload reads the final stats)
# has no worker left to reconnect, so it is fired but not counted.
#
# Used both as a ctest (tools/CMakeLists.txt) and by the CI
# daemon-crash-chaos job.
set -eu

DRTPSIM=$1
DRTPD=$2
DRTPLOAD=$3
WORK=$4

mkdir -p "$WORK"
SOCK="$WORK/chaos.sock"
TOPO="$WORK/chaos40.topo"
LOAD_ARGS="--mode=closed --workers=1 --lambda=10 --duration=1500 \
  --seed=23 --reconnect_s=60"
rm -f "$SOCK" "$WORK/ref.wal" "$WORK/ref.wal.snap" \
  "$WORK/chaos.wal" "$WORK/chaos.wal.snap"

DPID=""
LPID=""
cleanup() {
  if [ -n "$DPID" ]; then kill "$DPID" 2>/dev/null || true; fi
  if [ -n "$LPID" ]; then kill "$LPID" 2>/dev/null || true; fi
}
trap cleanup EXIT

"$DRTPSIM" topo --kind=waxman --nodes=40 --degree=4 --seed=7 --out="$TOPO"

# $1: WAL path, $2: extra flags ("--recover" or ""), $3: stderr log.
# Removes the (possibly stale, SIGKILL-orphaned) socket first so the
# wait loop below can only be satisfied by the NEW daemon's bind; with
# --recover the bind happens only after replay + the post-recovery audit.
start_daemon() {
  rm -f "$SOCK"
  # shellcheck disable=SC2086  # $2 is intentionally word-split
  "$DRTPD" --socket="$SOCK" --topo="$TOPO" --scheme=D-LSR \
    --batch=1 --audit-interval=256 \
    --wal="$1" --snapshot-interval=64 $2 2>"$3" &
  DPID=$!
  i=0
  while [ ! -S "$SOCK" ]; do
    if ! kill -0 "$DPID" 2>/dev/null; then
      echo "daemon_crash_chaos: daemon died during startup, log follows" >&2
      cat "$3" >&2
      exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
      echo "daemon_crash_chaos: socket never appeared" >&2
      exit 1
    fi
    sleep 0.1
  done
}

stop_daemon() { # graceful TERM drain; must exit 0
  kill -TERM "$DPID"
  if ! wait "$DPID"; then
    echo "daemon_crash_chaos: daemon drain failed ($1), log follows" >&2
    cat "$1" >&2
    exit 1
  fi
  DPID=""
}

echo "daemon_crash_chaos: reference run" >&2
start_daemon "$WORK/ref.wal" "" "$WORK/ref.d.err"
# shellcheck disable=SC2086
"$DRTPLOAD" --socket="$SOCK" $LOAD_ARGS --out="$WORK/ref.json"
stop_daemon "$WORK/ref.d.err"

echo "daemon_crash_chaos: chaos run" >&2
start_daemon "$WORK/chaos.wal" "" "$WORK/chaos.d0.err"
# shellcheck disable=SC2086
"$DRTPLOAD" --socket="$SOCK" $LOAD_ARGS --out="$WORK/chaos.json" &
LPID=$!

# SIGKILL the daemon at staggered points while the load is still running,
# restarting with --recover each time. Early pauses land mid-ramp, later
# ones deep into the workload; the loop stops killing once the load ends.
# Each kill's wall-clock time, taken once the signal is sent, goes to
# kill_times for comparison with drtpload's last_send_unix_s.
KILLS=0
: > "$WORK/kill_times"
for pause in 0.4 0.6 0.9 1.2 1.5; do
  sleep "$pause"
  kill -0 "$LPID" 2>/dev/null || break
  kill -KILL "$DPID"
  date +%s.%N >> "$WORK/kill_times"
  wait "$DPID" 2>/dev/null || true
  KILLS=$((KILLS + 1))
  start_daemon "$WORK/chaos.wal" "--recover" "$WORK/chaos.d$KILLS.err"
done
echo "daemon_crash_chaos: fired $KILLS SIGKILLs" >&2

if ! wait "$LPID"; then
  echo "daemon_crash_chaos: chaos load exited nonzero (gave up?)" >&2
  exit 1
fi
LPID=""
stop_daemon "$WORK/chaos.d$KILLS.err"

# Every --recover restart must have logged a recovery banner.
k=1
while [ "$k" -le "$KILLS" ]; do
  if ! grep -q "drtpd: recovered" "$WORK/chaos.d$k.err"; then
    echo "daemon_crash_chaos: restart $k never recovered, log follows" >&2
    cat "$WORK/chaos.d$k.err" >&2
    exit 1
  fi
  k=$((k + 1))
done

python3 - "$WORK/ref.json" "$WORK/chaos.json" "$WORK/kill_times" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    ref = json.load(f)
with open(sys.argv[2]) as f:
    chaos = json.load(f)
with open(sys.argv[3]) as f:
    kill_times = [float(line) for line in f if line.strip()]
# Only kills before the workers' last request can force a reconnect.
last_send = chaos["throughput"]["last_send_unix_s"]
kills = sum(1 for t in kill_times if t < last_send)
assert kills >= 1, (
    f"none of {len(kill_times)} SIGKILLs landed before the last request "
    "— lengthen the load")
for name, r in (("ref", ref), ("chaos", chaos)):
    assert r["schema"] == "drtp.bench.drtpd/1", r["schema"]
    assert r["totals"]["admitted"] > 0, f"{name}: no admissions"
    assert r["totals"]["errors"] == 0, f"{name}: rpc errors"
    assert r["totals"]["aborted"] == 0, f"{name}: aborted requests"
    assert r["daemon"]["audit_violations"] == 0, f"{name}: audit violations"
assert ref["totals"]["transport_failures"] == 0, "reference run saw failures"
# The tentpole claim: SIGKILL anywhere, recover, and the daemon's state is
# byte-identical to the uninterrupted run.
assert chaos["daemon"]["digest"] == ref["daemon"]["digest"], (
    f"state diverged: {chaos['daemon']['digest']} != {ref['daemon']['digest']}")
# Server-side admission counter survives recovery exactly: equality with
# the reference proves no resent admit was applied twice.
assert chaos["daemon"]["admitted"] == ref["daemon"]["admitted"], (
    "duplicate admissions: "
    f"{chaos['daemon']['admitted']} != {ref['daemon']['admitted']}")
assert chaos["totals"]["admitted"] == ref["totals"]["admitted"], "client admit"
assert chaos["totals"]["blocked"] == ref["totals"]["blocked"], "client block"
assert chaos["totals"]["reconnects"] >= kills, (
    f"only {chaos['totals']['reconnects']} reconnects for {kills} kills")
print(f"daemon_crash_chaos: OK — {kills} of {len(kill_times)} SIGKILLs "
      "before the last request, "
      f"{chaos['totals']['reconnects']} reconnects, "
      f"{chaos['totals']['dup_acks']} dup-acks, "
      f"digest {chaos['daemon']['digest']} matches reference")
EOF

trap - EXIT
echo "daemon_crash_chaos: PASS" >&2
