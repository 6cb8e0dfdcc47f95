#!/usr/bin/env python3
"""Build and run the deque-stack benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe with dune,
measures set-up time over several fresh processes, runs the workload,
echoes its report and prints one JSON object as the last line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Exits 1 when a correctness gate fails, 2 when it cannot run at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["deque-2end", "service-paced", "service-flood", "worksteal-fib"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SPANS_DIR = "_perfbench"
# Set-up time is the median over this many extra processes that stop at
# the start of the timed window, plus the measured run itself.
SETUP_PROBES = 9
# Everything after the build must end within this many seconds.
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", os.path.join("lib", "dcas", "dune"),
                 os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die("run from the root of a checkout: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed")


def timed_run(args, start):
    """Run main.exe; return (spawn time in CLOCK_MONOTONIC ns, result)."""
    timeout = RUN_TIMEOUT_S - (time.monotonic() - start)
    t0 = time.monotonic_ns()
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        die("%s timed out" % " ".join(args))
    return t0, r


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    build()
    start = time.monotonic()
    args = ["--workload", a.workload, "--seed", str(a.seed)]

    setups = []
    if a.trace == 0:
        for _ in range(SETUP_PROBES):
            t0, r = timed_run(args + ["--setup-only"], start)
            last = r.stdout.strip().splitlines()[-1:] or [""]
            if r.returncode != 0 or not last[0].startswith("ready_ns="):
                sys.stderr.write(r.stdout + r.stderr)
                die("set-up probe failed")
            setups.append((int(last[0].split("=", 1)[1]) - t0) / 1e9)

    extra = ["--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace == 1:
        os.makedirs(SPANS_DIR, exist_ok=True)
        extra += ["--spans-out",
                  os.path.join(SPANS_DIR, "spans-%s.csv" % a.workload)]
    t0, r = timed_run(args + extra, start)
    lines = r.stdout.strip().splitlines()
    sys.stderr.write(r.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(r.stdout)
        die("no result from the benchmark (exit %d)" % r.returncode)
    for line in lines[:-1]:
        print(line)
    ready = result.pop("ready_ns")
    if a.trace == 0:
        setups.append((ready - t0) / 1e9)
        print("setup_s samples: " + " ".join("%.4f" % s for s in setups))
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
    ok = r.returncode == 0 and result["correct"]
    result["correct"] = ok
    print(json.dumps(result), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
