"""Seeded inputs and job lists for the benchmark workloads.

A workload is a fixed list of CLI jobs, run one after another by a single
client.  The seed moves only the weights and edge placement of generated
chains and the Lyapunov sampling seeds: state and transition counts, and
every size parameter, are the same for every seed, so the work a job does
does not depend on the seed (exact Cheeger cost is O(E * 2^n)).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("expander-family", "orbit-ladders", "kernels", "desk-small")

# cheeger_sweep computes 1 - m(S) in floats; on the q = 2 half-line chain
# the last state's mass drops below float resolution from length 52 on, and
# the sweep raises ZeroDivisionError or reports a wrong h.  Kept in
# desk-small on purpose so that a fix shows as fewer failures.
HALFLINE_SWEEP_DEFECT = (
    "cheeger_sweep loses 1 - m(S) to rounding on half-line chains of length >= 52"
)
HALFLINE_DEFECT_FROM = 52
# cheeger_exact re-evaluates its minimizer and asserts agreement to 1e-12
# absolute; on these half-line chains (masses down to q^-11) float
# cancellation in 1 - m(S) trips it with AssertionError.
EXACT_DRIFT_DEFECT = "cheeger_exact recompute assertion trips on half-line chains with tiny masses"
EXACT_DRIFT_PGL2 = {(7, 11), (9, 11)}
# The csv emitter of return-prob writes numpy reprs ("np.float64(0.5)")
# under numpy 2, so the file is not plot-ready.
CSV_REPR_DEFECT = "return-prob csv writes numpy reprs instead of numbers"


@dataclass(frozen=True)
class Job:
    """One CLI call.  `argv` excludes --output and --no-timestamp, which the
    runner adds.  `chain` is the generated chain a cheeger job reads."""

    argv: tuple[str, ...]
    chain: dict | None = None
    known_defect: str | None = None

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def flag(self, name: str, default: str | None = None) -> str | None:
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return default

    @property
    def output_suffix(self) -> str:
        return "." + self.flag("--format", "json")


def random_chain(rng: random.Random, n_states: int, n_edges: int) -> dict:
    """Connected reversible chain in the CLI's JSON layout.

    A random spanning tree plus random extra pairs gives exactly `n_edges`
    undirected edges, hence 2 * n_edges transitions and no loops.  Symmetric
    weights w ~ U(0.2, 2); p(i, j) = w(i, j) / W(i) and m(i) = W(i) with
    W(i) the row sum.
    """
    if not n_states - 1 <= n_edges <= n_states * (n_states - 1) // 2:
        raise ValueError(f"{n_edges} edges cannot connect {n_states} states")
    edges = {(rng.randrange(v), v) for v in range(1, n_states)}
    spare = [
        (i, j)
        for i in range(n_states)
        for j in range(i + 1, n_states)
        if (i, j) not in edges
    ]
    edges.update(rng.sample(spare, n_edges - (n_states - 1)))
    weight = {e: rng.uniform(0.2, 2.0) for e in sorted(edges)}
    row = [0.0] * n_states
    for (i, j), w in weight.items():
        row[i] += w
        row[j] += w
    transitions = []
    for (i, j), w in weight.items():
        transitions.append([i, j, w / row[i]])
        transitions.append([j, i, w / row[j]])
    transitions.sort()
    return {
        "states": [str(i) for i in range(n_states)],
        "measure": row,
        "transitions": transitions,
        "row_mode": "stochastic",
    }


def halfline_chain(q: int, length: int) -> dict:
    """The lumped projected half-line walk on x_0 .. x_length: p(x_0, x_1) = 1,
    p(x_n, x_n+1) = 1/(q+1), p(x_n, x_n-1) = q/(q+1), the last state sent
    back with probability one and given the mass that keeps detailed
    balance."""
    forward = 1.0 / (q + 1)
    backward = q / (q + 1.0)
    measure = [1.0 / (q + 1)] + [float(q) ** (-n) for n in range(1, length + 1)]
    measure[length] = measure[length - 1] / (q + 1)
    transitions = [[0, 1, 1.0]]
    for i in range(1, length):
        transitions.append([i, i - 1, backward])
        transitions.append([i, i + 1, forward])
    transitions.append([length, length - 1, 1.0])
    return {
        "states": [f"x{i}" for i in range(length + 1)],
        "measure": measure,
        "transitions": transitions,
        "row_mode": "stochastic",
    }


class _JobList:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.jobs: list[Job] = []

    def add(self, *argv: object, chain: dict | None = None, known_defect: str | None = None) -> None:
        self.jobs.append(Job(tuple(str(a) for a in argv), chain, known_defect))

    def cheeger(self, chain: dict, mode: str, known_defect: str | None = None) -> None:
        path = os.path.join(self.workdir, f"chain{len(self.jobs):03d}.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(chain, sort_keys=True))
        self.add("cheeger", "--input", path, mode, chain=chain, known_defect=known_defect)


def _expander_family(b: _JobList, rng: random.Random) -> None:
    # SL_2(F_31) is left out for time: its lambda_1 iteration runs into the
    # 100,000-step cap after about 84 s without converging.
    b.add("expanders", "--n", 2, "--primes", "3,5,7,11,13,17,19,23,29")
    b.add("cayley", "--n", 3, "--p", 3)


def _orbit_ladders(b: _JobList, rng: random.Random) -> None:
    b.add("torus", "--radius", 150)
    b.add("tree-norm", "--degree", 4, "--depth", 12, "--ladder")
    b.add("bernoulli", "--config", "e,a", "--radius", 8)


def _kernels(b: _JobList, rng: random.Random) -> None:
    b.add("return-prob", "--preset", "free-symmetric", "--n-max", 30000)
    b.add("return-prob", "--preset", "free-ab", "--n-max", 40000)
    b.cheeger(random_chain(rng, 20, 90), "--exact")
    b.add("lyapunov", "--n-steps", 2000, "--trials", 200, "--seed", rng.randrange(10**6))


def _desk_small(b: _JobList, rng: random.Random) -> None:
    for n in range(6, 13):
        for _ in range(6):
            b.cheeger(random_chain(rng, n, 2 * n), "--exact")
            b.cheeger(random_chain(rng, n, 2 * n), "--sweep")
    for length in range(2, 61):
        defect = HALFLINE_SWEEP_DEFECT if length >= HALFLINE_DEFECT_FROM else None
        b.cheeger(halfline_chain(2, length), "--sweep", known_defect=defect)
    for q in (2, 3, 4, 5, 7, 8, 9):
        for trunc in (3, 7, 11, 30, 60):
            defect = EXACT_DRIFT_DEFECT if (q, trunc) in EXACT_DRIFT_PGL2 else None
            b.add("pgl2", "--q", q, "--trunc", trunc, known_defect=defect)
    for q, trunc in ((2, 10), (2, 40), (3, 10), (3, 40)):
        b.add("pgl2", "--q", q, "--trunc", trunc, "--mode", "compression")
    for n, p in ((2, 2), (2, 3), (2, 5), (2, 7), (3, 2)):
        b.add("cayley", "--n", n, "--p", p)
    for n, primes in ((2, "3,5,7"), (2, "2,3"), (2, "5"), (3, "2")):
        b.add("expanders", "--n", n, "--primes", primes)
    for degree in (4, 6, 8):
        b.add("tree-norm", "--degree", degree, "--depth", 4)
        b.add("tree-norm", "--degree", degree, "--depth", 4, "--ladder")
    presets = [("free-symmetric", "--rank", rank) for rank in (1, 2, 3)]
    presets += [("z",), ("free-ab",)]
    for preset in presets:
        b.add("return-prob", "--preset", *preset, "--n-max", 200)
        b.add("return-prob", "--preset", *preset, "--n-max", 200, "--format", "csv", known_defect=CSV_REPR_DEFECT)
    for _ in range(6):
        b.add("lyapunov", "--n-steps", 80, "--trials", 10, "--seed", rng.randrange(10**6))
    for base in ("1,0", "0,1", "1,1", "1,-1"):
        b.add("torus", "--radius", 12, "--basepoint", base)
    for config in ("e", "e,a", "e,b", "a,B"):
        b.add("bernoulli", "--config", config, "--radius", 4)


_WORKLOAD_JOBS = {
    "expander-family": _expander_family,
    "orbit-ladders": _orbit_ladders,
    "kernels": _kernels,
    "desk-small": _desk_small,
}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's input files into `workdir` and return its jobs.
    The same (workload, seed) gives the same argv lists and the same bytes."""
    if workload not in _WORKLOAD_JOBS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    job_list = _JobList(workdir)
    _WORKLOAD_JOBS[workload](job_list, random.Random(f"{workload}:{seed}"))
    return job_list.jobs
