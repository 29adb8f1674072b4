#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit and a change.

    benchmark/diff.py --parent p1/results.json p2/results.json ... \
                      --change c1/results.json c2/results.json ...

Runs are paired by position: the i-th parent run with the i-th change run,
which should share a seed and have been run back to back, alternating which
side goes first. For every (workload, metric) it prints each side's median
and quartiles and the change's win fraction over the pairs. End-to-end
metrics get a verdict against their bound in BENCHMARK.json: "regression"
when the change's median is worse than the parent's by more than the bound,
"unresolved" when the parent's own interquartile range is wider than the
bound (unless every change run beats every parent run). The core.* work
counters of the one-shard workloads repeat exactly for one input, so their
per-pair delta is printed and must be zero.

Exit status: 0 no regression and no counter changed, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

# Workloads whose work counters are deterministic (one shard, one query at
# a time through the search).
DETERMINISTIC = ("wdc-serial", "opendata-em", "serve-mix")
SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def load(path):
    if os.path.isdir(path):
        path = os.path.join(path, "results.json")
    with open(path) as f:
        run = json.load(f)
    values = {(r["workload"], r["metric"]): r["value"] for r in run["records"]}
    units = {(r["workload"], r["metric"]): r["unit"] for r in run["records"]}
    return run["header"], values, units


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("need as many parent runs as change runs (they are paired)")

    with open(SPEC) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    parents = [load(p) for p in args.parent]
    changes = [load(c) for c in args.change]
    for i, (p, c) in enumerate(zip(parents, changes)):
        if p[0]["seed"] != c[0]["seed"]:
            print("warning: pair %d ran seeds %s and %s" %
                  (i, p[0]["seed"], c[0]["seed"]))
    keys = set(parents[0][1])
    for run in parents + changes:
        keys &= set(run[1])

    bad = 0
    print("%-12s %-30s %10s %21s %10s %21s %5s  %s" %
          ("workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]",
           "wins", "verdict"))
    for workload, metric in sorted(keys):
        key = (workload, metric)
        pv = [run[1][key] for run in parents]
        cv = [run[1][key] for run in changes]
        pq, cq = quartiles(pv), quartiles(cv)
        direction = better.get(metric)
        wins = "-"
        if direction is not None:
            sign = 1 if direction == "higher" else -1
            decided = [(c - p) * sign for p, c in zip(pv, cv) if c != p]
            wins = "%d/%d" % (sum(d > 0 for d in decided), len(pv))
        verdict = ""
        if metric in bounds:
            bound = bounds[metric]
            sign = 1 if direction == "higher" else -1
            moved = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            always_better = all((c - p) * sign > 0 for p in pv for c in cv)
            spread = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
            if spread > bound and not always_better:
                verdict = "unresolved (parent spread %.2f > %g)" % (spread,
                                                                   bound)
            elif -moved * sign > bound:
                verdict = "REGRESSION (median %+.1f%%)" % (100 * moved)
                bad += 1
            else:
                verdict = "ok (median %+.1f%%)" % (100 * moved)
        unit = parents[0][2][key]
        if (metric.startswith("core.") and unit != "ms"
                and workload in DETERMINISTIC):
            deltas = [c - p for p, c in zip(pv, cv)]
            if any(deltas):
                verdict = "COUNTER CHANGED " + ", ".join("%+g" % d
                                                         for d in deltas)
                bad += 1
            else:
                verdict = "same"
        print("%-12s %-30s %10.4g [%9.4g, %9.4g] %10.4g [%9.4g, %9.4g] %5s  %s"
              % (workload, metric, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2],
                 wins, verdict))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
