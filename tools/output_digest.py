"""sha256 of every seeded benchmark output, to check that a change keeps them
byte-identical.

    PYTHONHASHSEED=0 python3 tools/output_digest.py --seed 3 [--workdir .output_digest] [--diff FILE]

Run from the root of a checkout, with the hash seed and the BLAS/OpenMP
thread counts that perfbench/run.py pins for its workers.  It builds the
job lists of the four workloads in perfbench/workloads.py at the given seed
and runs every job in-process through `sgaplab.cli.run`, once each with
`--format json`, `csv` and `text`, all with `--no-timestamp`.  For each
output it prints one line, the sha256 of the exit code and the bytes
written (a missing file hashes as such), then a total over all lines.  Two
checkouts agree when their totals do; a differing line names the job.
With `--diff FILE`, FILE a listing this tool printed earlier, it also
prints the job argv of every output whose hash differs from FILE's, after
the listing, and exits 1 if any does.

The work directory is relative and fixed, not temporary: a cheeger job's
`--input` path is echoed in its json header, so the inputs must sit at the
same path in both checkouts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from run import PINNED  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

FORMATS = ("json", "csv", "text")


def output_digest(cli, argv: list[str], out: str) -> str:
    """Run one job and hash its exit code with what it wrote to `out`."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = str(cli.run([*argv, "--output", out]))
        except Exception as exc:  # a raising job is an outcome to compare, not a stop
            code = f"raised {type(exc).__name__}"
    digest = hashlib.sha256(f"exit {code}\n".encode())
    try:
        with open(out, "rb") as fh:
            digest.update(fh.read())
    except FileNotFoundError:
        digest.update(b"no output")
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sha256 of every seeded benchmark output")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", default=".output_digest",
                        help="emptied and reused; keep it the same in both checkouts")
    parser.add_argument("--diff", metavar="FILE",
                        help="a listing printed earlier: name the jobs whose outputs differ from it")
    args = parser.parse_args(argv)
    before = None
    if args.diff:
        with open(args.diff) as fh:
            before = dict(reversed(line.split(None, 1)) for line in fh.read().splitlines() if line.strip())
    if os.environ.get("PYTHONHASHSEED") != PINNED["PYTHONHASHSEED"]:
        parser.error(f"run with PYTHONHASHSEED={PINNED['PYTHONHASHSEED']}, as the benchmark workers do")
    os.environ.update(PINNED)  # before numpy loads and sizes its thread pools

    from sgaplab import cli

    shutil.rmtree(args.workdir, ignore_errors=True)
    total = hashlib.sha256()
    differ = []
    for workload in WORKLOADS:
        jobdir = os.path.join(args.workdir, workload)
        os.makedirs(jobdir)
        for index, job in enumerate(build(workload, args.seed, jobdir)):
            for fmt in FORMATS:
                out = os.path.join(jobdir, f"out{index:03d}.{fmt}")
                # a later --format overrides one already in the job's argv
                digest = output_digest(cli, [*job.argv, "--format", fmt, "--no-timestamp"], out)
                name = f"{workload}/{index:03d}.{fmt}"
                line = f"{digest}  {name}"
                total.update(line.encode() + b"\n")
                print(line, flush=True)
                if before is not None and before.get(name) != digest:
                    differ.append(f"differs: {name}  {' '.join(job.argv)}")
    print(f"{total.hexdigest()}  total")
    for line in differ:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
