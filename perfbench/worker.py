"""One benchmark run, inside the interpreter that run.py starts with BLAS
and OpenMP pinned to one thread.

It imports sgaplab from src/, writes the workload's inputs, runs the job
list in-process through sgaplab.cli.run, checks every output against its
reference, and prints the metrics as the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import pkgutil
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from references import check_job
from tracing import PER_LAYER, Tracer
from workloads import Job, build

SCRATCH_DIR = ".perfbench_tmp"
SEGMENT_S = 1.0
SETUP_SAMPLES = 8
# The reference kernel time that setup_s is scaled to: about its median on
# the 2-vCPU x86-64 virtual machine the benchmark's bounds were set on.
REFERENCE_NOMINAL_S = 0.125


# A fixed dict-heavy kernel that does not use sgaplab.  It runs in its own
# interpreter so that its memory stays out of the worker's peak RSS.
REFERENCE = """
import time
start = time.perf_counter()
table = {}
for i in range(150_000):
    key = ((i * 7919) % 65_521, i & 15)
    table[key] = table.get(key, 0) + 1
print(repr(time.perf_counter() - start))
"""


# Import time of sgaplab with every submodule, numpy and scipy, as every
# CLI call pays it.
PROBE = """
import importlib, pkgutil, time
start = time.perf_counter()
import sgaplab
for info in pkgutil.iter_modules(sgaplab.__path__):
    importlib.import_module("sgaplab." + info.name)
import scipy.sparse.linalg
print(repr(time.perf_counter() - start))
"""


def child_seconds(code: str) -> float:
    """Run `code` in a fresh interpreter and return the time it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout)


def reference_seconds() -> float:
    """Time of the reference kernel on the CPU this process is pinned to.

    On shared virtual machines each CPU's speed drifts by tens of percent
    within seconds to minutes.  Timing this kernel between jobs measures that
    drift, and dividing it out gives a job-list time that depends on the
    program more than on the host's load at the moment."""
    return child_seconds(REFERENCE)


def run_jobs(cli, jobs: list[Job], outputs: list[str], reference=None):
    """Run the jobs one after another through `cli.run`.

    Returns the summed job time, that time in units of the reference kernel
    (None without `reference`), and per job None or why it did not
    complete.  The reference is timed between jobs, at least SEGMENT_S of
    job time apart, and each segment is divided by the mean of the two
    reference times around it."""
    errors: list[str | None] = []
    total = relative = segment = 0.0
    ref = reference() if reference else 0.0
    for job, out in zip(jobs, outputs):
        start = time.perf_counter()
        try:
            code = cli.run([*job.argv, "--no-timestamp", "--output", out])
            errors.append(None if code == 0 else f"exit code {code}")
        except Exception as exc:  # a raising job counts as failed; the run goes on
            errors.append(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        total += elapsed
        segment += elapsed
        if reference and (segment >= SEGMENT_S or len(errors) == len(jobs)):
            after = reference()
            relative += segment / ((ref + after) / 2.0)
            ref, segment = after, 0.0
    return total, (relative if reference else None), errors


def timed_pass(cli, jobs: list[Job], outdir: str, cpu: int, reference=None) -> dict:
    """One pass over the job list, on one CPU, with its outputs in a fresh
    directory."""
    os.sched_setaffinity(0, {cpu})
    os.makedirs(outdir)
    outputs = [os.path.join(outdir, f"out{i:03d}{job.output_suffix}") for i, job in enumerate(jobs)]
    gc.collect()
    wall, relative, errors = run_jobs(cli, jobs, outputs, reference)
    return {"wall": wall, "relative": relative, "outputs": outputs, "errors": errors, "cpu": cpu}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    reasons: dict[str, int] = field(default_factory=dict)
    # verdicts by (job index, output bytes): seeded outputs repeat exactly
    # from pass to pass, so each distinct output is checked once
    verdicts: dict[tuple[int, bytes], str | None] = field(default_factory=dict)

    def record(self, jobs: list[Job], outputs: list[str], errors: list[str | None]) -> None:
        """Check each output; a job fails if it did not complete or its
        output fails the reference check.  Failures of documented known
        defects are counted but do not make the run incorrect."""
        for index, (job, out, error) in enumerate(zip(jobs, outputs, errors)):
            why = error or self._verdict(index, job, out)
            self.attempted += 1
            if why is None:
                continue
            self.failed += 1
            self.reasons[why] = self.reasons.get(why, 0) + 1
            if job.known_defect is None:
                self.unexpected.append(f"{' '.join(job.argv)}: {why}")

    def _verdict(self, index: int, job: Job, out: str) -> str | None:
        try:
            with open(out, "rb") as fh:
                key = (index, fh.read())
        except OSError:
            return check_job(job, out)
        if key not in self.verdicts:
            self.verdicts[key] = check_job(job, out)
        return self.verdicts[key]


def import_library(root: str):
    """Import sgaplab and all its submodules; refuse a copy from elsewhere."""
    import sgaplab
    import sgaplab.cli

    for info in pkgutil.iter_modules(sgaplab.__path__):
        importlib.import_module(f"sgaplab.{info.name}")
    src = os.path.join(root, "src", "")
    if not os.path.abspath(sgaplab.__file__).startswith(src):
        raise SystemExit(f"perfbench: imported sgaplab from {sgaplab.__file__}, not {src}")
    return sgaplab.cli


def thread_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def provenance(root: str, threads: int | None) -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": threads,
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    cli = import_library(root)
    threads = thread_count()
    if threads is not None and threads != 1:
        raise SystemExit(f"perfbench: {threads} threads after import; BLAS/OpenMP not pinned")

    workdir = os.path.join(SCRATCH_DIR, str(os.getpid()))
    os.makedirs(workdir)
    try:
        jobs = build(args.workload, args.seed, workdir)
        passes = []
        # Passes take the CPUs in turn, so that one slow CPU does not set a
        # whole run.  The traced comparison stays on one CPU.
        cpus = sorted(os.sched_getaffinity(0))
        if args.trace:
            passes.append(timed_pass(cli, jobs, os.path.join(workdir, "untraced"), cpus[0]))
            tracer = Tracer()
            with tracer.installed():
                passes.append(timed_pass(cli, jobs, os.path.join(workdir, "traced"), cpus[0]))
        else:
            refs: list[float] = []

            def reference() -> float:
                refs.append(reference_seconds())
                return refs[-1]

            # the import is timed half before and half after the passes
            setup = [child_seconds(PROBE) for _ in range(SETUP_SAMPLES // 2)]
            while sum(p["wall"] for p in passes) < args.seconds:
                cpu = cpus[len(passes) % len(cpus)]
                outdir = os.path.join(workdir, f"pass{len(passes)}")
                passes.append(timed_pass(cli, jobs, outdir, cpu, reference))
            os.sched_setaffinity(0, cpus)
            setup += [child_seconds(PROBE) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        # before the checks, so that only the program's memory counts
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tally = Tally()
        for p in passes:
            tally.record(jobs, p["outputs"], p["errors"])
        walls = [p["wall"] for p in passes]
        if args.trace:
            values = tracer.metrics()
            values["trace.overhead_s"] = walls[1] - walls[0]
            spans_file = os.path.join(SCRATCH_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write_spans(spans_file)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        else:
            # the import time scaled by the reference kernel timed in the same run
            setup_s = statistics.median(setup) * REFERENCE_NOMINAL_S / statistics.median(refs)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_ref": {"value": statistics.median([p["relative"] for p in passes]), "unit": "ref"},
                "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
                "pass_ratio": {"value": 1.0 - tally.failed / tally.attempted, "unit": "fraction"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_DIR)
        except OSError:
            pass  # it holds span files or another run's directory

    for line in tally.unexpected[:20]:
        print(f"perfbench: unexpected failure: {line}", file=sys.stderr)
    info = provenance(root, threads)
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        jobs=len(jobs),
        pass_walls_s=walls,
        pass_cpus=[p["cpu"] for p in passes],
        pass_relative=[p["relative"] for p in passes],
        fail_ratio=tally.failed / tally.attempted,
        failures=tally.reasons,
    )
    if args.trace:
        info.update(trace_missing=tracer.missing, spans_file=spans_file)
        if tracer.missing:
            print(f"perfbench: not traced, the library lacks: {', '.join(tracer.missing)}", file=sys.stderr)
    else:
        info.update(setup_raw_s=setup, reference_s=refs)
    print(json.dumps({"provenance": info}, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{args.workload:16s} {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload:16s} {'wall_s':32s} {statistics.median(walls):>16.6g} s")
        print(f"{args.workload:16s} {'setup_raw_s':32s} {statistics.median(setup):>16.6g} s")
    print(f"{args.workload:16s} {'fail_ratio':32s} {info['fail_ratio']:>16.6g} fraction")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
