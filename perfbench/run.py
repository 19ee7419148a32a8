"""sgaplab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: expander-family, orbit-ladders,
kernels, desk-small (see workloads.py and BENCHMARK.json); `--workload all`
runs the four in turn, each ending with its own JSON result line.

With --trace 0 the run repeats the workload's job list until S seconds of
job time have passed.  It reports the median list time in units of a fixed
reference kernel timed on the same CPU between jobs (wall_ref; the raw
median wall_s is printed beside it), the peak RSS of the process that ran
the jobs and the share of jobs that passed.  It also times the sgaplab
import in fresh interpreters, half of them before and half after the jobs,
and reports the median scaled by the reference kernel timed in the same run
(setup_s: seconds on a host where the kernel takes 0.125 s; the raw median
setup_raw_s is printed beside it).

With --trace 1 it runs the list once untraced and once traced, reports
the per-layer metrics and writes every span, one JSON line each, to
.perfbench_tmp/spans-<workload>-seed<seed>.jsonl.

Every interpreter it starts has BLAS and OpenMP pinned to one thread.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKER_TIMEOUT_S = 170


def pinned_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict[str, str]) -> int:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    try:
        return subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {exc.cmd[1]} timed out after {exc.timeout} s", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sgaplab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sgaplab", "cli.py")):
        print("perfbench: src/sgaplab/cli.py not found; run from the repository root", file=sys.stderr)
        return 2
    env = pinned_env(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(w, args.seed, args.seconds, args.trace, env) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
