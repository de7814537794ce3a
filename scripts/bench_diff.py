#!/usr/bin/env python3
"""Diff checked-in BENCH_*.json results against a previous commit.

Every bench binary writes a JSON report with a top-level "cells" list and a
"fingerprint" object naming the machine and build it was taken on (the
fields of cqpbench's MachineFingerprint). Each cell mixes identity keys
(mode, connections, profiles, budget, tail_pct, ...) with measured metrics
(qps, p50_ms, tail_ms, ...). This script matches cells between the working
tree and `git show REF:FILE` by their identity keys and warns when a metric
regressed by more than the threshold (default 20%).

Records taken on different machines or builds are not compared: a pair is
reported as "not compared", naming the differing fields, when either
record lacks a fingerprint or any fingerprint field other than `git`
differs.

Usage:
    scripts/bench_diff.py [--ref HEAD~1] [--threshold 0.2] [FILE...]

With no FILE arguments it checks every BENCH_*.json in the repo root.
Exit code 0 always, unless --fail-on-regression is given (then 1 when
any warning fired) — benchmarks are noisy, so the default is advisory.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

# Metrics where a LOWER working-tree value is a regression.
HIGHER_IS_BETTER = {"qps", "ok", "puts_per_sec", "records_per_sec",
                    # Semantic rewrite layer (BENCH_rewrite.json): how much
                    # of the admitted space / emitted cost the optimizer
                    # removes, and its raw activity counters (the workload
                    # is seeded, so fewer drops means the passes got weaker).
                    "k_reduction_pct", "cost_reduction_pct",
                    "conjuncts_dropped", "branches_eliminated",
                    "prefs_pruned"}
# Metrics where a HIGHER working-tree value is a regression. Latencies are
# a median and a tail (`<prefix>p50_ms`, `<prefix>tail_ms`).
LOWER_IS_BETTER = {"p50_ms", "tail_ms", "put_p50_ms", "put_tail_ms",
                   "cold_p50_ms", "cold_tail_ms",
                   "wall_ms", "errors", "connect_failures",
                   "recovery_ms", "fsync_per_put",
                   # Sharded tier (BENCH_shard.json): memory held by
                   # resident graphs, and eviction churn.
                   "resident_mb", "evictions",
                   # Semantic rewrite layer: what is left after the passes.
                   "states_after_prune", "cost_qx_ms"}
# Measured values that are neither identity nor judged (sample counts and
# counters that legitimately move when the code under test changes).
IGNORED = {"n", "put_n", "cold_n", "requests", "journal_bytes",
           # Sharded tier: traffic counters and environment readings that
           # track workload shape, not quality. resident_within_budget is
           # enforced by the bench itself (it fails the run).
           "page_ins", "page_in_waits", "pinned_skips", "rss_mb", "open_ms",
           "build_ms",
           # Rewrite bench: the unoptimized side of each delta (tracks the
           # generated workload, judged only through the *_reduction_pct
           # and the post-rewrite metrics above).
           "k_baseline", "cost_baseline_ms"}


def cell_identity(cell):
    """The non-metric keys of a cell, as a hashable signature. `tail_pct`
    and `<prefix>tail_pct` name the percentile a tail latency is and are in
    no metric set, so a p99 is never diffed against a p90."""
    metrics = HIGHER_IS_BETTER | LOWER_IS_BETTER | IGNORED
    items = []
    for key, value in sorted(cell.items()):
        if key in metrics or isinstance(value, (dict, list)):
            continue
        items.append((key, value))
    return tuple(items)


def fingerprint_mismatch(current, baseline):
    """Why two records are not comparable; None when they are."""
    missing = [side for side, record in (("baseline", baseline),
                                         ("working-tree", current))
               if not isinstance(record.get("fingerprint"), dict)]
    if missing:
        return "no fingerprint in the " + " or ".join(missing) + " record"
    cur, base = current["fingerprint"], baseline["fingerprint"]
    fields = sorted(key for key in set(cur) | set(base)
                    if key != "git" and cur.get(key) != base.get(key))
    if fields:
        return "fingerprints differ in " + ", ".join(
            f"{key} ({base.get(key)!r} -> {cur.get(key)!r})"
            for key in fields)
    return None


def diff_records(name, current, baseline, threshold):
    """(warnings, refusal) for one record pair; refusal is None when the
    records were compared."""
    refusal = fingerprint_mismatch(current, baseline)
    if refusal is not None:
        return [], refusal
    base_cells = {cell_identity(c): c for c in baseline.get("cells", [])}
    warnings = []
    for cell in current.get("cells", []):
        ident = cell_identity(cell)
        base = base_cells.get(ident)
        if base is None:
            continue  # grid changed; nothing to compare against
        label = ", ".join(f"{k}={v}" for k, v in ident)
        for key, value in cell.items():
            if not isinstance(value, (int, float)) or key not in base:
                continue
            old = base[key]
            if not isinstance(old, (int, float)) or old == 0:
                continue
            if key in HIGHER_IS_BETTER:
                change = (old - value) / abs(old)
            elif key in LOWER_IS_BETTER:
                change = (value - old) / abs(old)
            else:
                continue
            if change > threshold:
                warnings.append(
                    f"{name} [{label}] {key}: "
                    f"{old:g} -> {value:g} ({change:+.0%} worse)")
    return warnings, None


def load_ref(path, ref):
    rel = os.path.relpath(path, start=repo_root())
    try:
        out = subprocess.run(
            ["git", "show", f"{ref}:{rel}"], cwd=repo_root(),
            capture_output=True, check=True)
    except subprocess.CalledProcessError:
        return None  # file did not exist at REF
    return json.loads(out.stdout)


def repo_root():
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                         capture_output=True, check=True, text=True)
    return out.stdout.strip()


def main():
    parser = argparse.ArgumentParser(
        description="warn on BENCH_*.json regressions vs a previous commit")
    parser.add_argument("--ref", default="HEAD~1",
                        help="git ref to diff against (default HEAD~1)")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="relative regression to warn at (default 0.2)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 if any warning fired")
    parser.add_argument("files", nargs="*",
                        help="BENCH_*.json files (default: repo root glob)")
    args = parser.parse_args()

    files = args.files or sorted(
        glob.glob(os.path.join(repo_root(), "BENCH_*.json")))
    if not files:
        print("no BENCH_*.json files found")
        return 0

    all_warnings = []
    compared = 0
    for path in files:
        baseline = load_ref(path, args.ref)
        if baseline is None:
            print(f"{path}: no baseline at {args.ref}, skipping")
            continue
        with open(path) as f:
            current = json.load(f)
        warnings, refusal = diff_records(os.path.basename(path), current,
                                         baseline, args.threshold)
        if refusal is not None:
            print(f"{path}: not compared with {args.ref}: {refusal}")
            continue
        compared += 1
        all_warnings.extend(warnings)

    if all_warnings:
        print(f"=== {len(all_warnings)} regression(s) worse than "
              f"{args.threshold:.0%} vs {args.ref} ===")
        for w in all_warnings:
            print("  " + w)
    else:
        print(f"no regressions worse than {args.threshold:.0%} "
              f"vs {args.ref} across {compared} compared file(s)")
    return 1 if (all_warnings and args.fail_on_regression) else 0


if __name__ == "__main__":
    sys.exit(main())
