#!/usr/bin/env python3
"""Builds cqp_bench from this checkout and runs it.

Run from the root of a checkout of the cqp sources:

    python3 cqpbench/run.py --workload hot_plans --seed 1 --trace 0
    python3 cqpbench/run.py --workload all     # each in its own process
    python3 cqpbench/run.py --smoke            # ~1 s per workload

The build lives in $CARGO_TARGET_DIR (default .bench_build) under the
checkout; it is configured once and rebuilt incrementally. Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result.
--record FILE appends each run's full record (machine fingerprint, seed,
metrics, informational numbers) to FILE for compare.py.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["hot_plans", "deep_search", "cold_queries", "profile_churn"]
# One benchmark process must finish within 180 s; leave room for cleanup.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no cqp sources at %s (src/CMakeLists.txt missing)" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", str(bdir), "--target", "cqp_bench",
                "-j", jobs]
    for attempt in range(2):
        ok = True
        if not (bdir / "CMakeCache.txt").is_file():
            ok = subprocess.run(configure, stdout=sys.stderr).returncode == 0
        if ok and subprocess.run(compile_, stdout=sys.stderr).returncode == 0:
            return bdir / "cqp_bench"
        if attempt == 0:
            # A build directory configured elsewhere (a moved checkout)
            # cannot be reused: start it afresh once.
            shutil.rmtree(bdir, ignore_errors=True)
    fail("building cqp_bench failed", 1)


def git_state():
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return "none"
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_one(binary, bdir, args, workload):
    work = bdir / "work" / ("%s-%d" % (workload, os.getpid()))
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--out-dir", str(bdir / "out"),
           "--git", git_state()]
    if args.record:
        cmd += ["--record", str(Path(args.record).resolve())]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", help="append full records to this file")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload or --smoke is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    bdir = build_dir()
    binary = build(bdir)
    sys.stdout.flush()
    if args.smoke:
        work = bdir / "work" / ("smoke-%d" % os.getpid())
        try:
            code = subprocess.run([str(binary), "--smoke", "--work-dir",
                                   str(work), "--out-dir", str(bdir / "out")],
                                  timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = 1
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(code)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run_one(binary, bdir, args, w) for w in workloads]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
