#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the root of a source tree.  The first run configures and builds
ilpd and perfbench_driver in Release mode under .bench_build/; later
runs only rebuild what changed.  The last line of standard output is the
result object; --record (default .bench_build/results.jsonl) collects each
result with its run context for perfbench/compare.py.  Build output goes to
standard error.

How the end-to-end metrics are taken (perfbench/src/ has the details):
  * tune_suite runs whole seeded-order passes over the 40 Table-2 nests,
    one search at a time on one evaluator thread, after one unmeasured
    warm-up pass; throughput and CPU per op are medians over passes, the
    tail is the median over groups of passes (p90 over 3 passes of 40
    searches).
  * serve_warm keeps 16 requests in flight over 4 connections; latency runs
    from when a request's slot freed, and throughput, p50 and p95 are
    medians over windows of 200 replies.
  * A run too short for its tail percentile fails instead of reporting
    another percentile; the record names the percentile and the group size.
    setup_s is the median of the run's set-ups (tune_suite: one before the
    first pass and one after each measured pass, up to 15; serve_warm:
    three, each of which starts and warms a daemon).
  * With --trace 1 the untraced phase gets half the seconds and the traced
    phase repeats the same ops (serve_warm: continues the stream) with spans
    around each layer call.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("tune_suite", "serve_warm")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit when the tree is a git checkout, else a digest of the sources built."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    paths = []
    for base in ("src", "tests", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            paths += [os.path.join(dirpath, name) for name in filenames]
    h = hashlib.sha1()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "tree-sha1:" + h.hexdigest()


def build():
    for need in ("src/tools/ilpd.cpp", "tests/common/interp.hpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from the root of the source tree")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "ilpd", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", default=os.path.join(ROOT, ".bench_build", "results.jsonl"))
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--ilpd", os.path.join(BUILD, "ilpd"), "--trace-dir", trace_dir,
           "--record", os.path.abspath(args.record), "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("perfbench_driver timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench_driver exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench_driver printed no result")
    if set(result) != RESULT_KEYS:
        fail("malformed result: " + lines[-1])
    print(proc.stdout.strip())
    sys.exit(0)


if __name__ == "__main__":
    main()
