#!/usr/bin/env python3
"""The drtp benchmark: one command per workload run, or a self-check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a source checkout. The first run builds the drtp
libraries, drtpd and the drtpbench harness from source into .bench_build/
(or $CARGO_TARGET_DIR); later runs reuse the build. Each run works in its
own directory under .bench_run/ and removes it afterwards.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. Lines before it give the run's metadata and, for traced runs, the
per-layer table. A failed correctness gate, or a harness that crashed,
prints "correct": false and exits 1; a missing source tree or a refused
environment exits 2 without a result.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import socket
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds drtpbench and drtpd; returns their paths."""
    for needed in ("src/CMakeLists.txt", "tools/drtpd.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"no drtp source tree here ({needed} is missing)")
            sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "drtpbench", "drtpd"])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(2)
    return os.path.join(out, "drtpbench"), os.path.join(out, "drtpd")


def run_harness(exe, drtpd, workload, seed, seconds, trace, size):
    """Runs one workload in a fresh directory; returns the harness JSON."""
    run_dir = os.path.join(ROOT, ".bench_run", f"{workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [exe, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--size={size}",
           f"--drtpd={drtpd}"]
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            stderr=sys.stderr, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
        stdout = b""
    finally:
        # The harness reaps its drtpd; this catches anything left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    shutil.rmtree(run_dir, ignore_errors=True)
    lines = stdout.decode().strip().splitlines()
    if proc.returncode == 2:
        log(f"{workload}: the harness refused to run (see above)")
        sys.exit(2)
    if not lines:
        # A crash or an escaped error: the run failed without measuring.
        log(f"{workload}: harness exited {proc.returncode} without a result")
        return {"correct": False, "attempted": 1, "failed": 1,
                "gate_failures": [f"harness exited {proc.returncode}"],
                "metrics": {}, "meta": {}, "table": ""}
    return json.loads(lines[-1])


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def expected_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def check_metrics(spec, trace, got):
    """Problems with the metric set: missing, extra, wrong unit, not finite."""
    want = {m["name"]: m["unit"] for m in expected_metrics(spec, trace)}
    problems = []
    for name, unit in want.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name]["unit"] != unit:
            problems.append(f"metric {name} unit {got[name]['unit']} != {unit}")
        elif not isinstance(got[name]["value"], (int, float)) or \
                not math.isfinite(got[name]["value"]):
            problems.append(f"metric {name} is not a finite number")
        elif not trace and got[name]["value"] <= 0:
            problems.append(f"end-to-end metric {name} is not positive")
    problems += [f"metric {n} not in BENCHMARK.json" for n in got
                 if n not in want]
    return problems


def run_once(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload}; choose from {names}")
        sys.exit(2)
    exe, drtpd = build()
    res = run_harness(exe, drtpd, args.workload, args.seed, args.seconds,
                      args.trace, "full")
    meta = dict(res["meta"])
    meta.update({
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "git_commit": git_commit(),
        "seconds": args.seconds,
        "trace": args.trace,
    })
    print("# meta " + json.dumps(meta, sort_keys=True))
    for line in res["table"].splitlines():
        print("# " + line)
    if args.trace:
        print("# " + "  ".join(
            f"{k} {res['metrics'][k]['value']:.4f}"
            for k in ("unattributed_s", "coverage_ratio",
                      "trace_overhead_ratio")
            if k in res["metrics"]))
    problems = check_metrics(spec, args.trace, res["metrics"])
    for p in problems + res["gate_failures"]:
        log(f"FAILED: {p}")
    correct = res["correct"] and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0 if correct else 1


def selfcheck(spec):
    """Every workload at tiny size, untraced and traced, through the same
    code paths: every gate must pass and every metric must be printed
    with its unit."""
    exe, drtpd = build()
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run_harness(exe, drtpd, w["name"], 1, 1, trace, "tiny")
            problems = check_metrics(spec, trace, res["metrics"])
            problems += res["gate_failures"]
            if not res["correct"]:
                problems.append("harness reported correct=false")
            if res["attempted"] < 1 or res["failed"] != 0:
                problems.append(f"attempted {res['attempted']} "
                                f"failed {res['failed']}")
            status = "ok" if not problems else "FAIL"
            print(f"selfcheck {w['name']} trace={trace}: {status} "
                  f"({len(res['metrics'])} metrics)")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
    print(json.dumps({"selfcheck": "ok" if failures == 0 else "failed"}))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload at tiny size and check gates "
                         "and metric names")
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        log("BENCHMARK.json not found at the checkout root")
        return 2
    spec = load_spec()
    if args.selfcheck:
        return selfcheck(spec)
    if not args.workload:
        ap.error("--workload is required")
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
