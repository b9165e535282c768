#!/usr/bin/env python3
"""Runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s>
                             --trace <0|1>

Builds the engine and the benchmark binary from the enclosing checkout
(Release, into $CARGO_TARGET_DIR or .bench_build), then runs each workload in
a process of its own. Each workload's report lists every metric with its unit and sample
count. For one workload the last stdout line is the binary's JSON result;
with --workload all (the default) it is a JSON object of all results. Exits
non-zero if the build fails, a reply diverges from its reference, or a run
errors.

    --corrupt-reference <i>  perturbs statement i's reference reply; the run
                             must then fail (a check of the reply check)
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["job_cold_reopt32", "job_warm_exec", "service_zipf_closed"]
RUN_TIMEOUT_S = 175


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(root: Path, build_dir: Path) -> Path:
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        log(f"no reoptdb source tree at {root}; cannot build the benchmark")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench", "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return build_dir / "perfbench"


def run_workload(binary: Path, build_dir: Path, args: argparse.Namespace,
                 workload: str) -> tuple[int, dict | None, list[str]]:
    cmd = [str(binary), f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        cmd.append(f"--spans={build_dir / f'spans-{workload}-seed{args.seed}.tsv'}")
    if args.corrupt_reference is not None:
        cmd.append(f"--corrupt-reference={args.corrupt_reference}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None, []
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        log(f"{workload}: perfbench exited {proc.returncode} without a result")
        return proc.returncode or 1, None, lines
    return proc.returncode, result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-reference", type=int, default=None)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(root, build_dir)

    if args.workload != "all":
        code, result, lines = run_workload(binary, build_dir, args,
                                           args.workload)
        for line in lines:
            print(line)
        if result is None:
            return code or 1
        return 0 if code == 0 and result["correct"] else 1

    results: dict[str, dict] = {}
    status = 0
    for workload in WORKLOADS:
        code, result, lines = run_workload(binary, build_dir, args, workload)
        for line in lines[:-1]:
            print(line)
        if result is None or code != 0 or not result["correct"]:
            status = 1
        if result is not None:
            results[workload] = result
    print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
