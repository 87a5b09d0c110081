#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 benchsuite/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload program (a Rust package in
this directory) is built from source with cargo into ``$CARGO_TARGET_DIR``
(default ``.bench_build`` at the checkout root).  Each workload then runs in
its own process under a watchdog: a run that panics, exits non-zero or
outlives its time limit becomes a failed run that names the workload, with
every operation it had attempted counted as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload of ``BENCHMARK.json`` in turn (each in its own process;
untraced and traced when ``--trace`` is not given) and ends with a combined
line whose metric names are prefixed by workload.  The exit code is 0 only
when every run was correct.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "clm-benchsuite"
# Diagnostics the program accepts besides the benchmark's workloads.
DIAGNOSTICS = {"pool-reentrancy"}
# A run must end within 180 s; leave room for start-up and reporting.
RUN_LIMIT_S = 170.0


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Builds the workload program; returns its path, or None on failure."""
    manifest = HERE / "Cargo.toml"
    if not (ROOT / "crates" / "clm-serve" / "Cargo.toml").is_file():
        log("the repository's crates are missing; cannot build the benchmark")
        return None
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest)]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    binary = target / "release" / BINARY
    return binary if binary.is_file() else None


def failed_result(attempted):
    return {"correct": False, "attempted": max(1, attempted), "failed": max(1, attempted), "metrics": {}}


def run_workload(binary, workload, seed, seconds, trace, limit_s, expected):
    """Runs one workload process under the watchdog.

    Returns ``(result, detail_lines)``; the result is a failed one when the
    process hangs, dies or prints no well-formed result line.
    """
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # The workload process spawns threads, never processes, so killing it
    # stops everything it started; it stays in this process group so a
    # caller that stops this script stops it too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=limit_s)
        why = None if proc.returncode == 0 else f"exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        why = f"hung: no result within {limit_s:.0f} s (killed by the watchdog)"
    lines = [l for l in out.splitlines() if l.strip()]
    details = [l for l in lines if l.startswith("#detail ")]
    attempted = 0
    for l in lines:
        if l.startswith("#progress attempted="):
            attempted = int(l.split("=", 1)[1])
    result = None
    if why is None and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            why = "printed no result line"
    if result is not None:
        names = set(result.get("metrics", {}))
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            why = "result line has the wrong keys"
        elif names != expected:
            why = f"metrics {sorted(names ^ expected)} missing or unexpected"
    if why is not None:
        log(f"workload {workload} (seed {seed}, trace {trace}) FAILED: {why}")
        return failed_result(max(attempted, result["attempted"] if result else 0)), details
    return result, details


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=None)
    args = p.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        workloads = names
    elif args.workload in names or args.workload in DIAGNOSTICS:
        workloads = [args.workload]
    else:
        log(f"unknown workload {args.workload!r}; choose from {names + ['all']}")
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.trace is not None:
        traces = [args.trace]
    else:
        traces = [0, 1] if args.workload == "all" else [0]
    runs = [(w, t) for w in workloads for t in traces]

    started = time.monotonic()
    binary = build()
    if binary is None:
        return 1
    build_s = time.monotonic() - started
    # A no-op build leaves the run its full share of the 180 s limit; a
    # real build (the first run in a checkout) has its own allowance.
    spent = build_s if build_s < 60 else 0.0

    results = {}
    for w, trace in runs:
        limit = RUN_LIMIT_S - spent if len(runs) == 1 else RUN_LIMIT_S
        if w in DIAGNOSTICS:
            limit, want = min(limit, seconds + 30), {"images_per_s"}
        else:
            want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
        result, details = run_workload(binary, w, args.seed, seconds, trace, limit, want)
        for d in details:
            print(d)
        results[(w, trace)] = result
        if len(runs) > 1:
            print(json.dumps({"workload": w, "trace": trace, **result}), flush=True)

    if len(runs) == 1:
        final = results[runs[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for (w, _), r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
