#!/usr/bin/env python3
"""Smoke test of the benchmark's schema and metric names.

    python3 perfbench/smoke_test.py           # schema + a 1-second run of each
    python3 perfbench/smoke_test.py --schema  # schema only (no build, no runs)

Checks BENCHMARK.json against the rules the benchmark is held to (keys,
names, units, bounds, workloads, paths, the setup_s metric), checks that
perfbench/layers.json maps only declared metrics and workloads, and then
runs every workload once untraced and once traced for one second, checking
that each prints exactly the declared metrics with their declared units and
that its outputs were found correct.  Exits nonzero on the first failure.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def check(cond, msg):
    if not cond:
        print(f"smoke_test: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def check_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    check(os.path.getsize(path) <= 64 * 1024, "BENCHMARK.json larger than 64 KiB")
    with open(path) as f:
        spec = json.load(f)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    cmd = spec["command"]
    check(1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd),
          "command shape")
    check(all(not c.startswith("/") and ".." not in c.split("/") for c in cmd),
          "command leaves the tree")
    check(1 <= len(spec["paths"]) <= 16, "paths count")
    for p in spec["paths"]:
        check(PATH.match(p) and not p.startswith("/") and ".." not in p.split("/"), f"path {p}")
        check(os.path.isdir(os.path.join(ROOT, p)), f"path {p} is not a directory")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = set()
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"}, f"workload keys {w}")
        check(NAME.match(w["name"]) and w["name"] not in names, f"workload name {w['name']}")
        check(0 < len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
        names.add(w["name"])
    check(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    check(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    metric_names = set()
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end keys {m}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per_layer keys {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) and m["name"] not in metric_names, f"metric name {m['name']}")
        check(UNIT.match(m["unit"]), f"unit of {m['name']}")
        check(m["better"] in ("lower", "higher"), f"direction of {m['name']}")
        metric_names.add(m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must have the largest bound")

    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    layer_names = {m["name"] for m in spec["per_layer"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    mapped = set()
    for entry in layers["map"]:
        for n in entry["layer"]:
            check(n in layer_names, f"layers.json names undeclared metric {n}")
            mapped.add(n)
        for n in entry["moves"]:
            check(n in e2e_names, f"layers.json names undeclared end-to-end metric {n}")
        for n in entry["workloads"] + entry.get("expected_unmoved", []):
            check(n in names, f"layers.json names undeclared workload {n}")
    check(mapped == layer_names, f"per-layer metrics missing from layers.json: {layer_names - mapped}")
    return spec


def run_once(spec, workload, trace):
    record = os.path.join(ROOT, ".bench_build", "smoke.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--record", record]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    check(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace={trace}: outputs not correct: {result['correct']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{workload} trace={trace}: metrics differ: "
          f"missing {set(want) - set(got)}, extra {set(got) - set(want)}, "
          f"units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}")
    for k, v in result["metrics"].items():
        check(isinstance(v["value"], (int, float)), f"{workload}: {k} is not a number")
    if not trace:
        for k in ("throughput_ops_s", "latency_p50_us", "cpu_us_per_op", "setup_s"):
            check(result["metrics"][k]["value"] > 0, f"{workload}: {k} is not positive")
    print(f"smoke_test: {workload} trace={trace} ok")


def main():
    spec = check_spec()
    print("smoke_test: schema ok")
    if "--schema" in sys.argv[1:]:
        return 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            run_once(spec, w["name"], trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
