#!/usr/bin/env python3
"""Summarises or compares sets of benchmark runs.

    python3 perfbench/compare.py RUNS.jsonl             # one set: spreads
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl   # two sets: verdicts

A set is the JSON-lines record perfbench/run.py --record writes.  For one set
each end-to-end metric of each workload is shown with its median and its
spread, the distance between the first and third quartile as a share of the
median, next to the metric's bound from BENCHMARK.json, and flagged WIDE when
the spread exceeds a third of the bound (setup_s excepted).  For two sets each
metric x workload gets a verdict against that bound:

  worse       the new median is worse than the base median by more than the bound
  better      the new side wins at least 9 of 10 runs paired by seed (by run
              order when the sets share no seed), and the medians differ by
              more than the base spread
  unresolved  neither, and a side's spread is wider than the bound (unless
              every new run beats every base run)
  same        neither, with both spreads within the bound

latency_tail_us is compared only when every run of the workload, in both
sets, took its tail at the same percentile; otherwise it is marked REFUSED.
Per-layer metrics of traced runs are listed by median, without verdicts.
Exit status is 1 when any verdict is `worse` or REFUSED.
"""
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            ctx = rec["context"]
            runs.setdefault((ctx["workload"], ctx["trace"]), []).append(rec)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def values(recs, section, name):
    return [r[section][name]["value"] for r in recs if name in r[section]]


def by_seed(recs, section, name):
    return {r["context"]["seed"]: r[section][name]["value"] for r in recs
            if name in r[section]}


def tail_percentiles(recs):
    return {r["context"].get("latency_tail_percentile") for r in recs}


def verdict(metric, base, new, base_seeds, new_seeds):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    mb, mn = statistics.median(base), statistics.median(new)
    worse_by = (mn - mb) if lower else (mb - mn)
    if worse_by > bound * abs(mb):
        return "worse"
    seeds = sorted(set(base_seeds) & set(new_seeds))
    pairs = [(base_seeds[s], new_seeds[s]) for s in seeds] or list(zip(base, new))
    wins = sum(1 for b, n in pairs if (n < b if lower else n > b))
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (mb, mb, mb)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > (q3 - q1):
        return "better"
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if (spread(base) > bound or spread(new) > bound) and not all_better:
        return "unresolved"
    return "same"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC) as f:
        spec = json.load(f)
    sets = [load(p) for p in argv[1:]]
    workloads = [w["name"] for w in spec["workloads"]]
    worse = False
    for w in workloads:
        print(f"== {w}")
        for m in spec["end_to_end"]:
            cols = [values(s.get((w, 0), []), "end_to_end", m["name"]) for s in sets]
            if not all(cols):
                print(f"  {m['name']:<20} (no untraced runs)")
                continue
            desc = "  ".join(f"median {statistics.median(v):.6g} spread {spread(v):.3f} (n={len(v)})"
                             for v in cols)
            pcts = set().union(*(tail_percentiles(s.get((w, 0), [])) for s in sets))
            if m["name"] == "latency_tail_us" and len(pcts) != 1:
                worse = True
                print(f"  {m['name']:<20} REFUSED: runs took the tail at percentiles {sorted(pcts)}")
                continue
            if len(cols) == 2:
                tag = verdict(m, cols[0], cols[1],
                              by_seed(sets[0][(w, 0)], "end_to_end", m["name"]),
                              by_seed(sets[1][(w, 0)], "end_to_end", m["name"]))
                worse = worse or tag == "worse"
            else:
                tag = "ok" if m["name"] == "setup_s" or spread(cols[0]) <= m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:<20} {desc}  bound {m['bound']}  {tag}")
        for m in spec["per_layer"]:
            cols = [values(s.get((w, 1), []), "per_layer", m["name"]) for s in sets]
            if all(cols):
                print(f"  {m['name']:<34} " +
                      "  ".join(f"{statistics.median(v):.6g}" for v in cols))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
