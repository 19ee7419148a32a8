"""Expander families from congruence quotients: Cayley graphs of SL_n over
prime fields with elementary generators, certified member by member.

Each member record carries the measured gap lambda_1, the restricted operator
norm, and the bound lambda_1 >= (1 - norm)^2 / 2 it must dominate.  A uniform
gap over all primes is guaranteed abstractly but is not computable at desk
scale, so the certificate freezes the measured infimum as a regression
baseline instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cheeger import EXACT_ENUMERATION_LIMIT, cheeger_exact
from .errors import BudgetExceededError
from .group_algebra import CAYLEY_BUDGET, special_linear_order
from .markov_core import lambda1, operator_norm_l20, require_converged
from .walk_models import (
    LabeledGraph,
    build_cayley,
    elementary_generators,
    graph_to_simple_walk_chain,
)


@dataclass(frozen=True)
class MemberRecord:
    """One congruence quotient: order, degree, measured spectral data, and
    the derived isoperimetric brackets."""

    prime: int
    order: int
    degree: int
    lambda_1: float
    norm_l20: float
    gap_bound: float
    h_lower: float
    h_upper: float
    h_edge_lower: float
    h_edge_upper: float
    h_exact: float | None
    method: str


@dataclass(frozen=True)
class FamilyCertificate:
    n: int
    members: tuple[MemberRecord, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("certificate needs at least one member")
        for rec in self.members:
            if rec.lambda_1 <= 0.0:
                raise ValueError(f"member p={rec.prime} has lambda_1 <= 0")
            if rec.lambda_1 < rec.gap_bound - 1e-9:
                raise ValueError(
                    f"member p={rec.prime} violates the gap bound: "
                    f"{rec.lambda_1} < {rec.gap_bound}"
                )
            if rec.h_exact is not None:
                k = rec.degree
                h_edge_hi = rec.h_exact * k  # from h >= h_edge/k
                h_edge_lo = rec.h_exact * k / 2.0  # from h <= 2 h_edge/k
                if not (h_edge_lo <= rec.h_edge_upper and rec.h_edge_lower <= h_edge_hi):
                    raise ValueError(
                        f"member p={rec.prime} has inconsistent edge-expansion brackets"
                    )

    @property
    def family_inf_lambda1(self) -> float:
        return min(rec.lambda_1 for rec in self.members)


def build_member_graph(n: int, p: int, max_size: int = CAYLEY_BUDGET) -> LabeledGraph:
    order = special_linear_order(n, p)
    if order > max_size:
        raise BudgetExceededError(
            f"SL_{n}(F_{p}) has {order} elements, over the {max_size} budget"
        )
    return build_cayley(elementary_generators(n, p), expect_order=order)


def build_family(n: int, primes) -> FamilyCertificate:
    """Certificate for the Cayley graphs of SL_n(F_p), p in `primes`, with
    the full set of signed elementary generators."""
    if n not in (2, 3):
        raise ValueError("only n = 2 or 3 are supported")
    records = []
    for p in sorted(set(int(q) for q in primes)):
        graph = build_member_graph(n, p)
        chain = graph_to_simple_walk_chain(graph)
        lam_report = require_converged(lambda1(chain))
        lam = lam_report.estimate
        norm0 = require_converged(operator_norm_l20(chain)).estimate
        bound = 0.5 * (1.0 - norm0) ** 2
        k = graph.n_generators
        h_lower = lam / 2.0
        h_upper = math.sqrt(8.0 * lam)
        h_exact = (
            cheeger_exact(chain).h if graph.n_vertices <= EXACT_ENUMERATION_LIMIT else None
        )
        records.append(
            MemberRecord(
                prime=p,
                order=graph.n_vertices,
                degree=k,
                lambda_1=lam,
                norm_l20=norm0,
                gap_bound=bound,
                h_lower=h_lower,
                h_upper=h_upper,
                h_edge_lower=k * h_lower / 2.0,
                h_edge_upper=k * h_upper,
                h_exact=h_exact,
                method=lam_report.method,
            )
        )
    return FamilyCertificate(n=n, members=tuple(records))


def expanding_constant_report(cert: FamilyCertificate) -> float:
    """Infimum over members of the cut lower bound h >= lambda_1 / 2."""
    if not cert.members:
        raise ValueError("empty certificate")
    return min(rec.lambda_1 for rec in cert.members) / 2.0
