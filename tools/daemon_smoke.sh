#!/bin/sh
# End-to-end daemon smoke: start drtpd on a Waxman topology, drive it with
# a seeded closed-loop drtpload run while polling the stats RPC with
# drtpstat, SIGUSR1-trigger a flight-recorder dump and schema-validate it,
# assert nonzero admissions and a clean audit, then SIGTERM and require a
# graceful drain (exit 0). Finally saturate fresh daemons in closed and
# open loop and require zero rpc errors although many admits are blocked.
#
#   daemon_smoke.sh <drtpsim> <drtpd> <drtpload> <workdir> [bench-out] [drtpstat]
#
# Used both as a ctest (tools/CMakeLists.txt) and by the CI daemon-smoke
# job, which additionally uploads the drtpload report as an artifact.
set -eu

DRTPSIM=$1
DRTPD=$2
DRTPLOAD=$3
WORK=$4
BENCH_OUT=${5:-"$WORK/bench_drtpd.json"}
DRTPSTAT=${6:-}

mkdir -p "$WORK"
SOCK="$WORK/drtpd.sock"
TOPO="$WORK/smoke60.topo"
FLIGHT="$WORK/flight.jsonl"
rm -f "$SOCK" "$FLIGHT"

"$DRTPSIM" topo --kind=waxman --nodes=60 --degree=4 --seed=11 --out="$TOPO"

"$DRTPD" --socket="$SOCK" --topo="$TOPO" --scheme=D-LSR \
  --batch=64 --audit-interval=4 \
  --audit-out="$WORK/drtpd.audit.jsonl" \
  --flight-dump="$FLIGHT" &
DPID=$!
trap 'kill "$DPID" 2>/dev/null || true' EXIT

# Waits for socket $1 to appear (the daemon binds before serving).
wait_for_socket() {
  i=0
  while [ ! -S "$1" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "daemon_smoke: socket $1 never appeared" >&2
      exit 1
    fi
    sleep 0.1
  done
}

# SIGTERMs daemon $1 and requires a graceful drain: exit 0, socket $2 gone.
drain() {
  kill -TERM "$1"
  if wait "$1"; then
    STATUS=0
  else
    STATUS=$?
  fi
  trap - EXIT
  if [ "$STATUS" -ne 0 ]; then
    echo "daemon_smoke: drtpd exited $STATUS after SIGTERM" >&2
    exit 1
  fi
  if [ -S "$2" ]; then
    echo "daemon_smoke: socket file not removed on drain" >&2
    exit 1
  fi
}

wait_for_socket "$SOCK"

# Poll the stats RPC *while* the load below is running: the poller runs
# in the background, taking snapshots until the load finishes.
if [ -n "$DRTPSTAT" ]; then
  "$DRTPSTAT" --socket="$SOCK" --count=20 --interval=0.25 \
    > "$WORK/drtpstat.out" &
  STATPID=$!
fi

"$DRTPLOAD" --socket="$SOCK" --mode=closed --workers=4 \
  --lambda=0.5 --duration=600 --seed=11 --out="$BENCH_OUT"

if [ -n "$DRTPSTAT" ]; then
  if ! wait "$STATPID"; then
    echo "daemon_smoke: drtpstat poller failed" >&2
    exit 1
  fi
  # The live table must have rendered the per-stage quantile columns.
  grep -q "p99 us" "$WORK/drtpstat.out"
  grep -q "^engine " "$WORK/drtpstat.out"
fi

# The report must show actual admissions and a violation-free audit.
python3 - "$BENCH_OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema"] == "drtp.bench.drtpd/1", r["schema"]
assert r["totals"]["admitted"] > 0, "no admissions"
assert r["totals"]["errors"] == 0, f"{r['totals']['errors']} rpc errors"
assert r["totals"]["transport_failures"] == 0, "transport failures"
assert r["throughput"]["admissions_per_s"] > 0, "zero admissions/sec"
assert r["daemon"]["audit_violations"] == 0, "audit violations"
d = r["daemon"]
print(f"daemon_smoke: {r['totals']['admitted']} admitted, "
      f"{r['throughput']['admissions_per_s']:.0f} admissions/s, "
      f"P_bk={d['pbk']:.3f}, batch_mean={d['frames'] / d['batches']:.2f}")
EOF

# SIGUSR1 must produce a flight-recorder dump without disturbing serving.
kill -USR1 "$DPID"
i=0
while [ ! -s "$FLIGHT" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "daemon_smoke: flight dump never appeared" >&2
    exit 1
  fi
  sleep 0.1
done
sleep 0.3  # let the dump finish writing

# Schema-validate the dump: drtp.trace/1 JSONL, flight_dump header first
# (reason sigusr1), every event line an fr_* kind, body size matching the
# header's event count, and at least one recorded admission.
python3 - "$FLIGHT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [json.loads(l) for l in f if l.strip()]
assert lines, "empty flight dump"
head = lines[0]
assert head["schema"] == "drtp.trace/1", head
assert head["ev"] == "flight_dump", head
assert head["reason"] == "sigusr1", head
body = lines[1:]
assert head["events"] == len(body), (head["events"], len(body))
kinds = set()
prev_t = None
for ev in body:
    assert ev["schema"] == "drtp.trace/1", ev
    assert ev["ev"].startswith("fr_"), ev
    if prev_t is not None:
        assert ev["t_ns"] >= prev_t, "dump not sorted by t_ns"
    prev_t = ev["t_ns"]
    kinds.add(ev["ev"])
assert "fr_admit" in kinds, f"no admissions recorded: {sorted(kinds)}"
assert "fr_rpc_span" in kinds, f"no sampled spans: {sorted(kinds)}"
print(f"daemon_smoke: flight dump OK ({len(body)} events, "
      f"{len(kinds)} kinds)")
EOF

# The daemon must still be serving after the dump.
if ! kill -0 "$DPID" 2>/dev/null; then
  echo "daemon_smoke: daemon died after SIGUSR1 dump" >&2
  exit 1
fi

# Graceful drain: SIGTERM must answer everything in flight and exit 0.
drain "$DPID" "$SOCK"
echo "daemon_smoke: graceful drain OK"

# Saturation: lambda=2 over 2500 s offers ~5000 connections to a network
# that seats ~2000, so most late admits are blocked and some blocked
# connections' releases fall inside the horizon. Those releases are not
# rpc errors: closed loop skips them, open loop counts their not_found
# answers as blocked_releases. Each mode gets a fresh daemon, because the
# connections left alive at the horizon would collide with the next run's
# ids.
for MODE in closed open; do
  SAT_SOCK="$WORK/sat-$MODE.sock"
  SAT_OUT="$WORK/sat-$MODE.json"
  rm -f "$SAT_SOCK"
  "$DRTPD" --socket="$SAT_SOCK" --topo="$TOPO" --scheme=D-LSR \
    --batch=64 &
  SPID=$!
  trap 'kill "$SPID" 2>/dev/null || true' EXIT
  wait_for_socket "$SAT_SOCK"
  "$DRTPLOAD" --socket="$SAT_SOCK" --mode="$MODE" --workers=4 \
    --lambda=2 --duration=2500 --seed=11 --out="$SAT_OUT"
  python3 - "$SAT_OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
t = r["totals"]
assert t["blocked"] > 0, "saturating run blocked nothing"
assert t["errors"] == 0, f"{t['errors']} rpc errors under saturation"
assert t["transport_failures"] == 0, "transport failures"
assert t["blocked_releases"] > 0, "no release of a blocked connection"
d = r["daemon"]
print(f"daemon_smoke: saturated {r['mode']} loop: {t['admitted']} admitted, "
      f"{t['blocked']} blocked, {t['blocked_releases']} blocked releases, "
      f"0 errors, batch_mean={d['frames'] / d['batches']:.2f}")
EOF
  drain "$SPID" "$SAT_SOCK"
done
