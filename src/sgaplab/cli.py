"""Command-line front end.  One subcommand per worked example; every run
echoes its resolved configuration and emits json, csv, or text.  All three
come from one renderer, `_emit`: json serializes the result (dataclasses by
their fields), and every subcommand's csv comes from one table writer (a
header row, then rows; floats as repr, everything else as a bare string).

Exit codes: 0 success, 1 usage error, 2 numeric non-convergence.  Errors go
to stderr as one line with an "ERROR:<code>:" prefix.  The environment
variable SGAP_THREADS caps BLAS/OpenMP parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from datetime import datetime, timezone
from typing import Iterable, Sequence

import numpy as np

from . import cheeger as ch
from . import expanders as ex
from . import group_algebra as ga
from . import lyapunov as ly
from . import markov_core as mc
from . import spectral_engine as se
from . import walk_models as wm
from .errors import BudgetExceededError, ConvergenceError, SgapError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2

CITATIONS = {
    "tree-norm": "Kesten 1959: spectral radius of the simple walk on a free group / regular tree",
    "return-prob": "Kesten 1959; Berg-Christensen 1974: operator norm as the limit of return-probability roots",
    "pgl2": "Serre, Trees II.1; Efrat 1991: the modular half-line walk and its spectrum",
    "cheeger": "Lawler-Sokal 1988; Sinclair 1992: Cheeger inequality for reversible chains",
    "cayley": "standard Cayley-graph spectral analysis for finite matrix groups",
    "torus": "Fourier reduction of toral automorphism actions to dual lattice orbits",
    "bernoulli": "shift actions on finite configurations and their orbit graphs",
    "expanders": "Margulis 1973: expanders from Property (T) congruence quotients",
    "lyapunov": "Furstenberg 1963; Guivarc'h: growth of random matrix products",
}

# return-prob presets: name -> (help text, measure for --rank)
_PRESETS = {
    "free-symmetric": ("uniform on all signed generators",
                       lambda rank: ga.ProbMeasure.uniform(ga.free_generators(rank))),
    "z": ("walk on the integers", lambda rank: ga.ProbMeasure.uniform(ga.free_generators(1))),
    "free-ab": ("uniform on the two positive generators",
                lambda rank: ga.ProbMeasure.uniform([ga.free_word(2, [1]), ga.free_word(2, [2])])),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"ERROR:usage:{message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on the first call.  The common
    options go after each subcommand's own, in every --help as well."""
    parser = _Parser(prog="sgaplab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("tree-norm", help="compressed norm of a regular-tree ball")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--ladder", action="store_true", help="include every radius up to depth")

    p = sub.add_parser("return-prob", help="return-probability roots r_n")
    p.add_argument(
        "--preset",
        choices=tuple(_PRESETS),
        default=None,
        help="; ".join(f"{name}: {text}" for name, (text, _measure) in _PRESETS.items()),
    )
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--n-max", type=int, default=1000)
    p.add_argument("--measure-file", default=None, help="JSON measure overriding --preset")

    p = sub.add_parser("pgl2", help="truncated half-line walk diagnostics")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument("--mode", choices=("lumped", "compression"), default="lumped")

    p = sub.add_parser("cheeger", help="Cheeger constant of a chain from JSON")
    p.add_argument("--input", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--sweep", action="store_true")

    p = sub.add_parser("cayley", help="Cayley graph of SL_n(F_p) with elementary generators")
    p.add_argument("--n", type=int, choices=(2, 3), required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("torus", help="compressed norms over a dual-action orbit ladder")
    p.add_argument("--radius", type=int, default=20, help="sup-norm truncation of the lattice ball")
    p.add_argument("--basepoint", default="1,0")
    p.add_argument("--ladder-step", type=int, default=1)

    p = sub.add_parser("bernoulli", help="compressed norm over a configuration-shift orbit")
    p.add_argument("--config", default="e", help="comma-separated words, e.g. 'e' or 'e,a'")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--radius", type=int, default=6)

    p = sub.add_parser("expanders", help="certificate for SL_n congruence quotients")
    p.add_argument("--n", type=int, choices=(2, 3), required=True)
    p.add_argument("--primes", required=True, help="comma-separated primes")

    p = sub.add_parser("lyapunov", help="Lyapunov estimate, exact small-n table, and the spectral bound")
    p.add_argument("--n-steps", type=int, default=2000)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--u-max", type=int, default=6)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-timestamp", action="store_true")
        p.add_argument("--cite", action="store_true", help="print the literature source and exit")
    return parser


# ---------------------------------------------------------------------------
# the result renderer
# ---------------------------------------------------------------------------

def _cell(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _emit(args, params: dict, result, table: Iterable[Sequence], lines: list[str]) -> int:
    """Write the run in the chosen format.  json echoes the configuration
    and serializes dataclasses by their fields; csv writes `table` (a
    header row, then rows) and is the only branch that iterates it; text
    joins `lines`."""
    if args.format == "json":
        payload = {"config": {"subcommand": args.subcommand, "seed": args.seed,
                              "format": args.format, **params}}
        if not args.no_timestamp:
            payload["generated_at"] = datetime.now(timezone.utc).isoformat()
        payload["result"] = result
        body = json.dumps(payload, sort_keys=True, indent=2, default=dataclasses.asdict) + "\n"
    elif args.format == "csv":
        body = "".join(",".join(map(_cell, row)) + "\n" for row in table)
    else:
        body = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _run_tree_norm(args) -> int:
    radii = range(args.depth + 1) if args.ladder else [args.depth]
    ladder = se.tree_ball_ladder(args.degree, radii)
    result = {
        "compressed_norm": ladder.norms[-1],
        "radii": ladder.radii,
        "norms": ladder.norms,
        "limit_walk_norm": ladder.limit_claim,
    }
    lines = [
        f"tree degree {args.degree}, ball depth {args.depth}",
        f"compressed norm = {ladder.norms[-1]:.9f}",
        f"walk operator norm (infinite tree) = {ladder.limit_claim:.9f}",
    ]
    params = {"degree": args.degree, "depth": args.depth, "ladder": args.ladder}
    return _emit(args, params, result, [("radius", "norm"), *zip(ladder.radii, ladder.norms)], lines)


def _run_return_prob(args) -> int:
    if args.measure_file:
        with open(args.measure_file) as fh:
            mu = ga.ProbMeasure.from_json(fh.read())
    elif args.preset:
        mu = _PRESETS[args.preset][1](args.rank)
    else:
        print("ERROR:usage:need --preset or --measure-file", file=sys.stderr)
        return EXIT_USAGE
    series = ga.spectral_radius_return(mu, args.n_max)
    result = {
        "method": series.method,
        "symmetric": series.symmetric,
        "certified_lower_bound": series.certified_lower_bound,
        "monotone": bool((series.roots[1:] >= series.roots[:-1]).all()),
        "final_root": float(series.roots[-1]),
    }
    lines = [
        f"return-probability roots via {series.method}",
        f"r_{series.n_max} = {series.roots[-1]:.9f} (certified lower bound on the operator norm)",
    ]
    # one row per root, produced only when the csv branch iterates it
    table = itertools.chain([("n", "root")], enumerate(series.roots, 1))
    params = {"preset": args.preset, "rank": args.rank, "n_max": args.n_max}
    return _emit(args, params, result, table, lines)


def _run_pgl2(args) -> int:
    spec = wm.HalfLineSpec(q=args.q, length=args.trunc, mode=args.mode)
    chain = wm.build_pgl2_halfline(spec)
    violation = mc.check_detailed_balance(chain)
    result = {
        "q": args.q,
        "mode": args.mode,
        "states": chain.n,
        "cheeger_bound": wm.pgl2_cheeger_bound(args.q),
        "detailed_balance_violation": violation,
        "band_edge": 2.0 * args.q**0.5 / (args.q + 1),
    }
    if args.mode == "lumped":
        theta, _ = mc.chain_spectrum(chain)
        alternating = np.array([(-1) ** i for i in range(chain.n)], dtype=float)
        result["second_eigenvalue"] = float(theta[1])
        result["bottom_eigenvalue"] = float(theta[-1])
        result["alternating_defect"] = float(
            np.max(np.abs(mc.apply_markov(chain, alternating) + alternating))
        )
        if chain.n <= ch.EXACT_ENUMERATION_LIMIT:
            result["cheeger_exact"] = ch.cheeger_exact(chain).h
    lines = [f"{k} = {v}" for k, v in result.items()]
    params = {"q": args.q, "trunc": args.trunc, "mode": args.mode}
    return _emit(args, params, result, [("key", "value"), *result.items()], lines)


def _run_cheeger(args) -> int:
    with open(args.input) as fh:
        chain = mc.chain_from_json(fh.read())
    report = ch.cheeger_sweep(chain) if args.sweep else ch.cheeger_exact(chain)
    lines = [
        f"h = {report.h:.9f} ({report.method})",
        f"argmin subset = {list(report.argmin_subset)}",
    ]
    table = [("h", "method"), (report.h, report.method)]
    return _emit(args, {"input": args.input, "exact": not args.sweep}, report, table, lines)


def _run_cayley(args) -> int:
    graph = ex.build_member_graph(args.n, args.p)
    chain = wm.graph_to_simple_walk_chain(graph)
    lam_report = mc.lambda1(chain)
    lam, bound = se.expander_bound_check(chain)
    result = {
        "vertices": graph.n_vertices,
        "degree": graph.n_generators,
        "lambda_1": lam,
        "gap_bound": bound,
        "method": lam_report.method,
    }
    lines = [f"{k} = {v}" for k, v in result.items()]
    return _emit(args, {"n": args.n, "p": args.p}, result, [("key", "value"), *result.items()], lines)


def _run_torus(args) -> int:
    if args.ladder_step < 1:
        raise ValueError(f"--ladder-step must be at least 1, got {args.ladder_step}")
    base = tuple(int(x) for x in args.basepoint.split(","))
    gens = wm.sanov_generators()
    graph = wm.build_torus_schreier(gens, base, args.radius)
    mu = ga.ProbMeasure.uniform(gens)
    max_r = int(graph.distances_from_basepoint.max())
    radii = list(range(0, max_r + 1, args.ladder_step))
    if radii[-1] != max_r:
        radii.append(max_r)
    ladder = se.compression_ladder(
        graph, mu, radii, limit_claim=3.0**0.5 / 2.0, claim_tag="free-group walk norm"
    )
    result = {
        "orbit_vertices": graph.n_vertices,
        "radii": ladder.radii,
        "norms": ladder.norms,
        "supremum": ladder.supremum,
        "ceiling": 3.0**0.5 / 2.0,
    }
    lines = [
        f"orbit ball: {graph.n_vertices} vertices (sup-norm radius {args.radius})",
        f"ladder supremum = {ladder.supremum:.9f} (ceiling 0.866025...)",
    ]
    params = {"radius": args.radius, "basepoint": base}
    return _emit(args, params, result, [("radius", "norm"), *zip(ladder.radii, ladder.norms)], lines)


def _require_printable_ball(d: int, radius: int) -> None:
    """Fail before the solve if the vertex count of the radius ball of the
    d-regular tree has more decimal digits than the interpreter converts to
    str (sys.get_int_max_str_digits(); 0 means no limit)."""
    limit = sys.get_int_max_str_digits()
    if not limit or radius < 0 or d < 3:
        return
    # the count is at least (d - 1)^radius: the float test settles huge radii
    # without building the integer, the exact one the rest
    if radius * math.log10(d - 1) > limit + 1 or wm.tree_ball_size(d, radius) >= 10**limit:
        raise BudgetExceededError(
            f"bernoulli radius {radius}: the orbit ball's vertex count has more "
            f"than {limit} decimal digits, the interpreter's int-to-str limit"
        )


def _run_bernoulli(args) -> int:
    names = [w.strip() for w in args.config.split(",") if w.strip()]
    if not names:
        raise ValueError("configuration must be a non-empty finite set of words")
    for name in names:
        ga.parse_word(args.rank, name)
    _require_printable_ball(2 * args.rank, args.radius)
    # the orbit ball is the Cayley ball (see walk_models.build_bernoulli_schreier)
    norm = se.tree_ball_ladder(2 * args.rank, [args.radius]).norms[0]
    vertices = wm.tree_ball_size(2 * args.rank, args.radius)
    result = {
        "orbit_vertices": vertices,
        "compressed_norm": norm,
        "ceiling": (2 * args.rank - 1) ** 0.5 / args.rank,
    }
    lines = [f"orbit vertices = {vertices}", f"compressed norm = {norm:.9f}"]
    params = {"config": names, "rank": args.rank, "radius": args.radius}
    return _emit(args, params, result, [("radius", "norm"), (args.radius, norm)], lines)


def _run_expanders(args) -> int:
    primes = [int(x) for x in args.primes.split(",") if x.strip()]
    cert = ex.build_family(args.n, primes)
    result = {
        **dataclasses.asdict(cert),
        "family_inf_lambda1": cert.family_inf_lambda1,
        "expanding_constant_lower": ex.expanding_constant_report(cert),
    }
    lines = [
        f"SL_{args.n} family over primes {primes}",
        f"family inf lambda_1 = {cert.family_inf_lambda1:.9f}",
    ] + [
        f"p={r.prime}: order {r.order}, lambda_1 {r.lambda_1:.6f}, bound {r.gap_bound:.6f}"
        for r in cert.members
    ]
    table = [("p", "order", "lambda_1", "gap_bound")]
    table += [(r.prime, r.order, r.lambda_1, r.gap_bound) for r in cert.members]
    return _emit(args, {"n": args.n, "primes": primes}, result, table, lines)


def _run_lyapunov(args) -> int:
    measure = ly.sanov_matrix_measure()
    estimate = ly.estimate_lyapunov(measure, args.n_steps, args.trials, args.seed)
    u_vals = ly.exact_u_n(ly.sanov_group_measure(), args.u_max)
    u_over_n = [u / (i + 1) for i, u in enumerate(u_vals)]
    bound = ly.furstenberg_bound((3.0**0.5 / 2.0) ** 0.5, 2)
    result = {"estimate": estimate, "u_over_n": u_over_n, "spectral_bound": bound}
    lines = ["n   u_n / n"]
    lines += [f"{i + 1:<3d} {x:.9f}" for i, x in enumerate(u_over_n)]
    lines.append(
        f"monte-carlo at n={args.n_steps}: {estimate.point_estimate:.6f} "
        f"(ci half-width {estimate.ci_half_width:.6f})"
    )
    lines.append(f"spectral lower bound: {bound:.6f}")
    table = [("n", "u_over_n"), *enumerate(u_over_n, 1)]
    table += [(f"mc@{args.n_steps}", estimate.point_estimate), ("bound", bound)]
    params = {"n_steps": args.n_steps, "trials": args.trials, "u_max": args.u_max}
    return _emit(args, params, result, table, lines)


_RUNNERS = {
    "tree-norm": _run_tree_norm,
    "return-prob": _run_return_prob,
    "pgl2": _run_pgl2,
    "cheeger": _run_cheeger,
    "cayley": _run_cayley,
    "torus": _run_torus,
    "bernoulli": _run_bernoulli,
    "expanders": _run_expanders,
    "lyapunov": _run_lyapunov,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.cite:
        print(CITATIONS[args.subcommand])
        return EXIT_OK
    try:
        return _RUNNERS[args.subcommand](args)
    except ConvergenceError as exc:
        print(f"ERROR:converge:{exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except BudgetExceededError as exc:
        print(f"ERROR:budget:{exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SgapError, ValueError, OSError) as exc:
        print(f"ERROR:invalid:{exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
