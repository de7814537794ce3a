#!/usr/bin/env python3
"""Judges a change against its parent from paired cqp_bench records.

    python3 cqpbench/compare.py PARENT CHANGE [--claim WORKLOAD:METRIC ...]

PARENT and CHANGE are files of records written by `run.py --record` (one
JSON object per line), or a JSON object with a "runs" list (as
results/seed.json). Run i of the parent pairs with run i of the change on
the same workload; each pair must share its seed.

Rules (see README.md):
  * records from different machines or builds (any fingerprint field but
    git) are refused;
  * a workload needs at least 10 pairs, and each side must have run first
    in some of them (alternate the order);
  * a gain on a metric needs the change to win at least 9 in 10 pairs (ties
    count for neither) and the medians to differ by more than the parent's
    interquartile range;
  * every metric must stay within its BENCHMARK.json bound of the parent's
    median; a metric whose spread (IQR / median) on either side exceeds its
    bound is "unresolved", unless every change run beats every parent run.

Exit status: 0 when nothing regressed and every claim is met, 1 otherwise,
2 when the records cannot be compared.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:  # several lines: one record each
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return doc["runs"] if "runs" in doc else [doc]


def machine(record):
    return {k: v for k, v in record["fingerprint"].items() if k != "git"}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(metric, parent, change):
    """Returns (verdict, detail) for one metric of one workload."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    share = wins / len(parent)
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = all(better(c, p) for c in change for p in parent)
    detail = ("parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
              "wins %d/%d  worse by %+.1f%% (bound %.1f%%)" %
              (pm, p1, p3, cm, c1, c3, wins, len(parent), 100 * worse_by,
               100 * bound))
    if share >= WIN_SHARE and abs(cm - pm) > (p3 - p1) and better(cm, pm):
        return "gain", detail
    if spread > bound and not all_better:
        return "unresolved", detail
    if worse_by > bound:
        return "REGRESSION", detail
    return "within bound", detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--benchmark",
                        default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    parent = [r for r in load(args.parent) if not r.get("trace")]
    change = [r for r in load(args.change) if not r.get("trace")]
    if not parent or not change:
        print("compare.py: no untraced records on one side", file=sys.stderr)
        return 2
    machines = {json.dumps(machine(r), sort_keys=True) for r in parent + change}
    if len(machines) != 1:
        print("compare.py: refusing to compare records from different "
              "machines or builds:", file=sys.stderr)
        for m in sorted(machines):
            print("  " + m, file=sys.stderr)
        return 2

    claims = {tuple(c.split(":", 1)) for c in args.claim}
    regressed = False
    verdicts = {}
    for workload in sorted({r["workload"] for r in parent + change}):
        ps = [r for r in parent if r["workload"] == workload]
        cs = [r for r in change if r["workload"] == workload]
        pairs = list(zip(ps, cs))
        if len(pairs) < MIN_PAIRS:
            print("compare.py: %s has %d pairs; %d needed" %
                  (workload, len(pairs), MIN_PAIRS), file=sys.stderr)
            return 2
        if any(p["seed"] != c["seed"] for p, c in pairs):
            print("compare.py: %s pairs runs of different seeds" % workload,
                  file=sys.stderr)
            return 2
        parent_first = sum(1 for p, c in pairs
                           if p["started_unix"] <= c["started_unix"])
        if parent_first in (0, len(pairs)):
            print("compare.py: %s never alternated which side ran first" %
                  workload, file=sys.stderr)
            return 2
        print("%s: %d pairs (parent first in %d)" %
              (workload, len(pairs), parent_first))
        for metric in metrics:
            name = metric["name"]
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            verdict, detail = judge(metric, pv, cv)
            verdicts[(workload, name)] = verdict
            regressed = regressed or verdict == "REGRESSION"
            print("  %-13s %-12s %s" % (name, verdict, detail))

    unmet = [c for c in claims if verdicts.get(c) != "gain"]
    for workload, name in sorted(claims):
        print("claim %s:%s %s" % (workload, name,
                                  "met" if (workload, name) not in unmet
                                  else "NOT met"))
    return 1 if regressed or unmet else 0


if __name__ == "__main__":
    sys.exit(main())
