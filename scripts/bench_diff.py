#!/usr/bin/env python3
"""Diff checked-in BENCH_*.json results against a previous commit.

Every bench binary writes a JSON report with a top-level "cells" list;
each cell mixes identity keys (batch, threads, concurrency, deadline_ms,
...) with measured metrics (qps, wall_ms, p50_ms, p99_ms, ...). This
script matches cells between the working tree and `git show REF:FILE` by
their identity keys and warns when a metric regressed by more than the
threshold (default 20%).

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
HIGHER_IS_BETTER = {"qps", "ok", "cache_hit_rate", "cache_hits",
                    "puts_per_sec", "records_per_sec", "states_per_sec",
                    # Semantic rewrite layer (BENCH_rewrite.json): how much
                    # of the admitted space / emitted cost the optimizer
                    # removes, and its raw activity counters (the workload
                    # is seeded, so fewer drops means the passes got weaker).
                    "k_reduction_pct", "cost_reduction_pct",
                    "size_reduction_pct", "conjuncts_dropped",
                    "branches_eliminated", "prefs_pruned"}
# Metrics where a HIGHER working-tree value is a regression.
LOWER_IS_BETTER = {"wall_ms", "p50_ms", "p99_ms", "degraded",
                   "transport_errors", "identity_mismatches", "cache_misses",
                   "server_ms_avg", "search_ms_avg",
                   "put_avg_ms", "put_p50_ms", "put_p99_ms", "recovery_ms",
                   "fsync_per_put",
                   # Sharded tier (BENCH_shard.json): cold page-in latency,
                   # memory held by resident graphs, and eviction churn.
                   "p50_cold_ms", "p99_cold_ms", "resident_mb", "evictions",
                   # Semantic rewrite layer: what is left after the passes.
                   "states_after_prune", "cost_qx_ms"}
# Measured values that are neither identity nor judged (counters that
# legitimately move when the code under test changes).
IGNORED = {"states", "requests", "identity_checked", "shed", "other",
           "journal_bytes", "frontiers", "frontier_states",
           "avg_frontier_width", "lanes_wasted",
           # Sharded tier: traffic counters and environment readings that
           # track workload shape, not quality. resident_within_budget is
           # enforced by the bench itself (it fails the run).
           "page_ins", "page_in_waits", "pinned_skips", "cold_finds",
           "mixed_requests", "rss_mb", "open_ms", "build_ms",
           # EvalCache traffic of the throughput bench: the SoA/SIMD batch
           # path evaluates frontiers cachelessly by design (docs/simd.md),
           # so probe counts track code structure, not quality. The plan
           # cache bench's `cache_hits` stays judged.
           "eval_cache_hits", "eval_cache_misses", "eval_cache_hit_rate",
           # Rewrite bench: the unoptimized side of each delta (tracks the
           # generated workload, judged only through the *_reduction_pct
           # and the post-rewrite metrics above).
           "k_baseline", "cost_baseline_ms", "size_baseline", "size_qx"}


def cell_identity(cell):
    """The non-metric keys of a cell, as a hashable signature."""
    metrics = HIGHER_IS_BETTER | LOWER_IS_BETTER | IGNORED
    items = []
    for key, value in sorted(cell.items()):
        if key in metrics or isinstance(value, (dict, list)):
            continue
        items.append((key, value))
    return tuple(items)


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


def diff_file(path, ref, threshold):
    with open(path) as f:
        current = json.load(f)
    baseline = load_ref(path, ref)
    if baseline is None:
        print(f"{path}: no baseline at {ref}, skipping")
        return []
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
                    f"{os.path.basename(path)} [{label}] {key}: "
                    f"{old:g} -> {value:g} ({change:+.0%} worse)")
    return warnings


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
    for path in files:
        all_warnings.extend(diff_file(path, args.ref, args.threshold))

    if all_warnings:
        print(f"=== {len(all_warnings)} regression(s) worse than "
              f"{args.threshold:.0%} vs {args.ref} ===")
        for w in all_warnings:
            print("  " + w)
    else:
        print(f"no regressions worse than {args.threshold:.0%} "
              f"vs {args.ref} across {len(files)} file(s)")
    return 1 if (all_warnings and args.fail_on_regression) else 0


if __name__ == "__main__":
    sys.exit(main())
