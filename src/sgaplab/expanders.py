"""Expander families from congruence quotients: Cayley graphs of SL_n over
prime fields with elementary generators, certified member by member.

Each member record carries the measured gap lambda_1, the restricted operator
norm, and the bound lambda_1 >= (1 - norm)^2 / 2 it must dominate.  A uniform
gap over all primes is guaranteed abstractly but is not computable at desk
scale, so the certificate freezes the measured infimum as a regression
baseline instead.

SL_2(F_p) for odd p is certified without building the group (method
"irreps").  The walk acts on each irreducible representation pi as
A_pi = (1/4) sum_s pi(s), and the Cayley spectrum is the union of the
spectra of the A_pi, each repeated dim pi times.  One small dense Hermitian
piece per representation suffices: the principal series on the p + 1 lines
of F_p^2 and the cuspidal representations, through the Weil representation,
on the p - 1 points of F_p^x; a batched `eigh` takes them all.  The
U-blocks, the p^2 - 1 row blocks of l^2(SL_2(F_p)) over the characters of
the unipotent subgroup U = {(1 t; 0 1)}, stay as the tests' reference.
SL_2(F_2), every SL_3 member and the `cayley` subcommand stay on the Cayley
graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cheeger import EXACT_ENUMERATION_LIMIT, cheeger_exact
from .errors import BudgetExceededError, ConvergenceError
from .group_algebra import ORBIT_BUDGET, special_linear_order
from .markov_core import ITER_RESIDUAL_TOL, WeightedChain, lambda1, operator_norm_l20
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
    method: str  # "dense" or "lanczos" on the Cayley graph, or "irreps" for SL_2(F_p), p odd


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


# Pieces per batched eigh: a batch holds at most this many complex entries
# (16 bytes each), so SL_2(F_199) runs in batches of six (p + 1)-row pieces.
PIECE_BATCH_ENTRIES = 1 << 18


def _quadratic_extension_powers(p: int) -> np.ndarray:
    """x with x[n] + y[n] sqrt(delta) = g^n for n < p^2 - 1, g a generator of
    the multiplicative group of F_p(sqrt(delta)), delta the least
    non-residue."""
    delta = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
    order = p * p - 1

    def mul(u, v):
        return (u[0] * v[0] + delta * u[1] * v[1]) % p, (u[0] * v[1] + u[1] * v[0]) % p

    def power(u, e):
        out = (1, 0)
        while e:
            if e & 1:
                out = mul(out, u)
            u, e = mul(u, u), e >> 1
        return out

    factors, rest, d = [], order, 2
    while d * d <= rest:
        if rest % d == 0:
            factors.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    factors += [rest] if rest > 1 else []
    gen = next((a, b) for b in range(1, p) for a in range(p)
               if all(power((a, b), order // q) != (1, 0) for q in factors))
    x, y = np.array([1]), np.array([0])
    while x.size < order:  # g^(m + i) = g^i g^m doubles the table
        gx, gy = power(gen, x.size)
        x, y = np.concatenate([x, (x * gx + delta * y * gy) % p]), np.concatenate([y, (x * gy + y * gx) % p])
    return x[:order]


def _sl2_pieces(p: int):
    """(principal, cuspidal) for SL_2(F_p), p an odd prime: principal(js)
    stacks the (p + 1)-row pieces P_j, cuspidal(js) the (p - 1)-row pieces
    M_j, for the integers j in the array js.  Each piece is the walk
    A_pi = (1/4) sum_s pi(s) on one representation pi, so the spectrum of the
    Cayley graph is the union of their spectra, repeated dim pi times.

    Principal series: with chi_j(N(g)^m) = e^(2 pi i j m / (p - 1)), the
    functions on F_p^2 minus 0 with f(a v) = chi_j(a) f(v) are read off at the
    lines r = (x, 1) and (1, 0); writing s r = a r', P_j[r, r'] += chi_j(a) / 4.
    P_0 holds the constants and the Steinberg representation, and P_(p-1)/2
    the two halves of the reducible one.

    Cuspidal: the Weil representation on the functions f on F_p(sqrt(delta))
    with f(z theta) = nu_j(theta) f(z) for theta of norm 1, nu_j(theta_0^q) =
    e^(2 pi i j q / (p + 1)), read off at z_a = g^m of norm a = N(g)^m.  The
    upper unipotents act by C = diag(2 cos(2 pi a / p)), the lower ones by
    K* C K, K_j[a, a'] = (1/p) sum_theta psi(-Tr(z_a conj(z_a' theta)))
    nu_j(theta) with psi(t) = e^(2 pi i t / p); M_j = (C + K* C K) / 4.
    With z_a conj(z_a') = g^(k + (p - 1) q) and theta_0 = g^(p - 1),
    K_j[a, a'] = nu_j(theta_0^q) J[k, j], J one FFT over the norm-one fibre.
    M_0 is no representation, and M_(p+1)/2 holds the two halves of the
    reducible one.  The pieces of j and -j are isospectral."""
    gens = elementary_generators(2, p)  # raises for a modulus that is not prime
    x = _quadratic_extension_powers(p)
    norm = x[(p + 1) * np.arange(p - 1)]  # N(g^m) = g^(m (p + 1)), N(g) a primitive root
    log = np.zeros(p, dtype=np.int64)
    log[norm] = np.arange(p - 1)
    inv = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)])
    # the lines x = 0 .. p - 1 as (x, 1), line p as (1, 0)
    r0, r1 = np.append(np.arange(p), 1), np.append(np.ones(p, dtype=np.int64), 0)
    lines, moves = np.arange(p + 1), []
    for g in gens:
        (s00, s01), (s10, s11) = g.entries
        v0, v1 = (s00 * r0 + s01 * r1) % p, (s10 * r0 + s11 * r1) % p
        moves.append((np.where(v1 != 0, v0 * inv[v1] % p, p), log[np.where(v1 != 0, v1, v0)]))
    chi = np.exp(2j * np.pi * np.arange(p - 1) / (p - 1)) / 4.0

    def principal(js: np.ndarray) -> np.ndarray:
        pieces = np.zeros((js.size, p + 1, p + 1), dtype=complex)
        for target, scalar in moves:  # each generator permutes the lines
            pieces[:, lines, target] += chi[js[:, None] * scalar % (p - 1)]
        return pieces

    exponent = np.arange(p - 1)[:, None] + p * np.arange(p - 1)  # z_a conj(z_a') = g^exponent
    k, q = exponent % (p - 1), exponent // (p - 1)
    trace = np.exp(-4j * np.pi * x / p)  # psi(-Tr(g^n)), Tr(g^n) = 2 x[n]
    fibre = np.fft.fft(trace.reshape(p + 1, p - 1), axis=0) / p  # fibre[j, k] = J[k, j]
    nu = np.exp(2j * np.pi * np.arange(p + 1) / (p + 1))
    c = 2.0 * np.cos(2.0 * np.pi * norm / p)

    def cuspidal(js: np.ndarray) -> np.ndarray:
        kernel = nu[js[:, None, None] * q % (p + 1)] * fibre[js][:, k]
        return (np.diag(c) + np.conj(np.swapaxes(kernel, 1, 2)) @ (c[:, None] * kernel)) / 4.0

    return principal, cuspidal


def _checked_ends(pieces: np.ndarray, kind: str, js: np.ndarray, p: int) -> np.ndarray:
    """(bottom, second, top) eigenvalue of every Hermitian piece, from one
    batched `eigh`; each of the three pairs is residual-checked."""
    theta, vecs = np.linalg.eigh(pieces)
    ends = [0, -2, -1]
    theta, vecs = theta[:, ends], vecs[:, :, ends]
    res = np.linalg.norm(pieces @ vecs - vecs * theta[:, None, :], axis=1).max(axis=1)
    if res.max() > ITER_RESIDUAL_TOL:
        i = int(np.argmax(res > ITER_RESIDUAL_TOL))  # the first piece that fails
        rows = pieces.shape[1]
        raise ConvergenceError(
            f"expanders: {kind} piece j={js[i]} of SL_2(F_{p}) ({rows} rows): eigh residual "
            f"{res[i]:.2e} exceeds {ITER_RESIDUAL_TOL:.0e} on {rows} states"
        )
    return theta


def _irreps_gap_and_norm(p: int) -> tuple[float, float]:
    """lambda_1 = 1 - max(theta_2(P_0), theta_1 of every other piece) and the
    largest modulus over the pieces, P_0's eigenvalue 1 left out: the pieces
    P_j for j = 0 .. (p - 1) / 2 and M_j for j = 1 .. (p + 1) / 2 are one per
    irreducible representation, in batches of PIECE_BATCH_ENTRIES."""
    points = p * p - 1
    if points > ORBIT_BUDGET:
        raise BudgetExceededError(
            f"SL_2(F_{p}) acts on {points} nonzero vectors, over the {ORBIT_BUDGET} budget"
        )
    principal, cuspidal = _sl2_pieces(p)
    top, modulus = -math.inf, 0.0
    for kind, build, first, rows in (("principal", principal, 0, p + 1), ("cuspidal", cuspidal, 1, p - 1)):
        size = max(1, PIECE_BATCH_ENTRIES // (rows * rows))
        for lo in range(first, (p + 1) // 2 + first, size):
            js = np.arange(lo, min(lo + size, (p + 1) // 2 + first))
            theta = _checked_ends(build(js), kind, js, p)
            if js[0] == 0:  # P_0 holds the constants: drop their eigenvalue 1 once
                theta[0, 2] = theta[0, 1]
            top, modulus = max(top, theta[:, 2].max()), max(modulus, np.abs(theta).max())
    return 1.0 - float(top), float(modulus)


def build_family(n: int, primes) -> FamilyCertificate:
    """Certificate for the Cayley graphs of SL_n(F_p), p in `primes`, with
    the full set of signed elementary generators; SL_2(F_p) with p odd
    through its irreducible pieces, without building the group."""
    if n not in (2, 3):
        raise ValueError("only n = 2 or 3 are supported")
    records = []
    for p in sorted(set(int(q) for q in primes)):
        if n == 2 and p % 2 == 1:
            lam, norm0 = _irreps_gap_and_norm(p)
            order, k, h_exact, method = special_linear_order(2, p), 4, None, "irreps"
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
