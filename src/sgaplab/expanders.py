"""Expander families from congruence quotients: Cayley graphs of SL_n over
prime fields with elementary generators, certified member by member.

Each member record carries the measured gap lambda_1, the restricted operator
norm, and the bound lambda_1 >= (1 - norm)^2 / 2 it must dominate.  A uniform
gap over all primes is guaranteed abstractly but is not computable at desk
scale, so the certificate freezes the measured infimum as a regression
baseline instead.

SL_2(F_p) for odd p is certified without building the group (method
"u-blocks").  The walk commutes with right translations, so l^2(SL_2(F_p))
splits over the characters k of the unipotent subgroup U = {(1 t; 0 1)} into
blocks of size p^2 - 1 on G/U = F_p^2 minus 0 (Frobenius reciprocity).
Conjugating U by diag(a, 1/a) carries block k to block k a^2, so only three
blocks are distinct: k = 0 (the Schreier walk on the nonzero vectors, which
holds the constants), k = 1 and a non-residue k.  SL_2(F_2), every SL_3
member and the `cayley` subcommand stay on the Cayley graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cheeger import EXACT_ENUMERATION_LIMIT, cheeger_exact
from .errors import BudgetExceededError
from .group_algebra import ORBIT_BUDGET, special_linear_order
from .markov_core import WeightedChain, extremal_eigs, lambda1, operator_norm_l20
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
    method: str  # "dense" or "lanczos" on the Cayley graph, or "u-blocks"


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


def build_member_graph(n: int, p: int) -> LabeledGraph:
    order = special_linear_order(n, p)
    if order > ORBIT_BUDGET:
        raise BudgetExceededError(f"SL_{n}(F_{p}) has {order} elements, over the {ORBIT_BUDGET} budget")
    return build_cayley(elementary_generators(n, p), expect_order=order)


def _point_moves(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, s v, t(s, v)) over the signed elementary generators s and the
    nonzero v = (a, c) of F_p^2, indexed a p + c - 1.  sigma(a, c) is the
    section (a 0; c 1/a), or (0 -1/c; c 0) when a = 0, and t(s, v) is the
    (1, 2) entry of sigma(s v)^-1 s sigma(v), an element of U."""
    gens = elementary_generators(2, p)  # raises for a modulus that is not prime
    a, c = np.divmod(np.arange(1, p * p), p)
    inv = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)])
    # second column of sigma(v)
    q0 = np.where(a == 0, -inv[c] % p, 0)
    q1 = np.where(a == 0, 0, inv[a])
    src, dst, phase = [], [], []
    for g in gens:
        (s00, s01), (s10, s11) = g.entries
        a2, c2 = (s00 * a + s01 * c) % p, (s10 * a + s11 * c) % p
        # first row of sigma(s v)^-1 applied to s times the column above
        r0 = np.where(a2 == 0, 0, inv[a2])
        r1 = np.where(a2 == 0, inv[c2], 0)
        src.append(a * p + c - 1)
        dst.append(a2 * p + c2 - 1)
        phase.append((r0 * (s00 * q0 + s01 * q1) + r1 * (s10 * q0 + s11 * q1)) % p)
    return np.concatenate(src), np.concatenate(dst), np.concatenate(phase)


def u_block(p: int, k: int) -> sp.csr_matrix:
    """Block k of the walk, in its real form (Re B, -Im B; Im B, Re B).

    B acts on the functions f with f(g u_t) = e^(2 pi i k t / p) f(g), read
    off at the section: B(v, s v) += e^(2 pi i k t(s, v) / p) / 4 over the
    four generators.  B is Hermitian of size p^2 - 1, so the real form is
    symmetric with B's spectrum, every eigenvalue doubled.  B_0 is the
    Schreier walk on F_p^2 minus 0, and the spectra of B_0, ..., B_(p-1)
    together are the spectrum of the Cayley graph of SL_2(F_p), p odd.
    """
    src, dst, phase = _point_moves(p)
    angle = 2.0 * np.pi * np.arange(p // 2 + 1) / p
    # tables with cos[p - m] = cos[m] and sin[p - m] = -sin[m] exactly, so
    # that the real form is exactly symmetric
    cos = np.cos(angle) / 4.0
    sin = np.sin(angle) / 4.0
    cos, sin = np.concatenate([cos, cos[:0:-1]]), np.concatenate([sin, -sin[:0:-1]])
    j = k * phase % p
    re, im = cos[j], sin[j]
    n = p * p - 1
    rows = np.concatenate([src, src, src + n, src + n])
    cols = np.concatenate([dst, dst + n, dst, dst + n])
    return sp.csr_matrix((np.concatenate([re, -im, im, re]), (rows, cols)), shape=(2 * n, 2 * n))


def _gap_and_norm(chain: WeightedChain) -> tuple[float, float, str]:
    """(lambda_1, norm on the complement of the constants, method)."""
    lam_report = lambda1(chain)
    return lam_report.estimate, operator_norm_l20(chain).estimate, lam_report.method


def _u_block_gap_and_norm(p: int) -> tuple[float, float]:
    """lambda_1 = 1 - max(theta_2(B_0), theta_1(B_1), theta_1(B_nu)) and the
    largest modulus off the constants, from the three distinct blocks: B_0,
    the Schreier walk with its unit constant vector deflated, and the real
    forms of the twisted blocks, which hold no constants."""
    points = p * p - 1
    if points > ORBIT_BUDGET:
        raise BudgetExceededError(
            f"SL_2(F_{p}) acts on {points} nonzero vectors, over the {ORBIT_BUDGET} budget"
        )
    src, dst, _phase = _point_moves(p)
    # summing the moves gives weight 1/2 to the loops of E_12^+-1 and E_21^+-1
    schreier = sp.csr_matrix((np.full(src.size, 0.25), (src, dst)), shape=(points, points))
    unit = np.ones(points)
    unit /= np.linalg.norm(unit)
    non_residue = next(k for k in range(2, p) if pow(k, (p - 1) // 2, p) == p - 1)
    blocks = {0: (schreier, unit), 1: (u_block(p, 1), None), non_residue: (u_block(p, non_residue), None)}
    lam, norm0 = math.inf, 0.0
    for k, (block, deflate) in blocks.items():
        rows = block.shape[0]
        v0 = np.cos(np.arange(1, rows + 1) * 0.7) + 0.1
        stage = f"expanders: u-block k={k} of SL_2(F_{p}) ({rows} rows)"
        top = extremal_eigs(block, "LA", v0, deflate, stage=stage)[0].estimate
        modulus = abs(extremal_eigs(block, "LM", v0, deflate, stage=stage)[0].estimate)
        lam, norm0 = min(lam, 1.0 - top), max(norm0, modulus)
    return lam, norm0


def build_family(n: int, primes) -> FamilyCertificate:
    """Certificate for the Cayley graphs of SL_n(F_p), p in `primes`, with
    the full set of signed elementary generators; SL_2(F_p) with p odd
    through the U-blocks, without building the group."""
    if n not in (2, 3):
        raise ValueError("only n = 2 or 3 are supported")
    records = []
    for p in sorted(set(int(q) for q in primes)):
        if n == 2 and p % 2 == 1:
            lam, norm0 = _u_block_gap_and_norm(p)
            order, k, h_exact, method = special_linear_order(2, p), 4, None, "u-blocks"
        else:
            graph = build_member_graph(n, p)
            chain = graph_to_simple_walk_chain(graph)
            lam, norm0, method = _gap_and_norm(chain)
            order, k = graph.n_vertices, graph.n_generators
            h_exact = cheeger_exact(chain).h if order <= EXACT_ENUMERATION_LIMIT else None
        bound = 0.5 * (1.0 - norm0) ** 2
        h_lower = lam / 2.0
        h_upper = math.sqrt(8.0 * lam)
        records.append(
            MemberRecord(
                prime=p,
                order=order,
                degree=k,
                lambda_1=lam,
                norm_l20=norm0,
                gap_bound=bound,
                h_lower=h_lower,
                h_upper=h_upper,
                h_edge_lower=k * h_lower / 2.0,
                h_edge_upper=k * h_upper,
                h_exact=h_exact,
                method=method,
            )
        )
    return FamilyCertificate(n=n, members=tuple(records))


def expanding_constant_report(cert: FamilyCertificate) -> float:
    """Infimum over members of the cut lower bound h >= lambda_1 / 2."""
    if not cert.members:
        raise ValueError("empty certificate")
    return min(rec.lambda_1 for rec in cert.members) / 2.0
