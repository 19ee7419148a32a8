"""Cheeger constants of reversible chains, exact and by eigenvector sweep,
plus the area / co-area identities behind the isoperimetric bound.

The constant used throughout is
    h = inf_S  mu~(S x S^c) / (m(S) m(S^c)),
with m normalized to a probability measure first and
mu~(i, j) = m(i) p_ij.  The two-sided bound is h^2 / 8 <= lambda_1 <= 2 h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ConvergenceError
from .markov_core import (
    WeightedChain,
    chain_spectrum,
    lambda1,
    require_reversible,
    _require_connected,
)

EXACT_ENUMERATION_LIMIT = 22
RECOMPUTE_TOL = 1e-12


@dataclass(frozen=True)
class CutReport:
    """A cut value h with the subset that achieves it."""

    h: float
    argmin_subset: tuple[int, ...]
    method: str
    subset_count_examined: int

    def __post_init__(self):
        if not self.argmin_subset:
            raise ValueError("argmin subset must be non-empty")
        if self.method not in ("exact_enumeration", "fiedler_sweep"):
            raise ValueError(f"unknown method {self.method!r}")


def _normalized_measure(chain: WeightedChain) -> np.ndarray:
    m = chain.measure
    return m / math.fsum(m.tolist())


def _cut_edges(chain: WeightedChain, m_hat: np.ndarray):
    """Off-diagonal mu~ weights as (src, dst, weight) arrays."""
    keep = chain.src != chain.dst
    src = chain.src[keep]
    dst = chain.dst[keep]
    w = m_hat[src] * chain.prob[keep]
    return src, dst, w


def cut_ratio(chain: WeightedChain, subset) -> float:
    """h evaluated at one subset (with m normalized), for audits and sweeps."""
    m_hat = _normalized_measure(chain)
    mask = np.zeros(chain.n, dtype=bool)
    mask[list(subset)] = True
    if mask.all() or not mask.any():
        raise ValueError("subset must be proper and non-empty")
    src, dst, w = _cut_edges(chain, m_hat)
    cross = float(np.sum(w[mask[src] & ~mask[dst]]))
    ms = float(np.sum(m_hat[mask]))
    ms_c = float(np.sum(m_hat[~mask]))  # not 1 - ms, which tiny masses round to 0
    return cross / (ms * ms_c)


def _mask_to_subset(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if (mask >> i) & 1)


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """Entry i is the sum of values[k] over the set bits k of i."""
    sums = np.zeros(1)
    for x in values.tolist():
        sums = np.concatenate((sums, sums + x))
    return sums


def cheeger_exact(chain: WeightedChain) -> CutReport:
    """Exact Cheeger constant by enumeration of all proper non-empty subsets.

    Capped at 22 states (2^22 subsets).  By reversibility S and its
    complement have the same cut and the same ratio, so only the sets that
    contain state 0 are evaluated, each standing for its complement as well;
    `subset_count_examined` counts both, 2^n - 2.  Ties break toward the
    lexicographically smallest index set, which always contains state 0, so
    rounding cannot pick the complement of the minimizer.

    The cut of every set is built in O(2^n) total work, one state at a time:
    when state b joins the states below it, a set without b gains the flow
    from its members into b, and a set with b gains the flow from b to the
    states below b outside it.  Both are subset sums over the states below
    b, and every step only adds non-negative terms, so masses far below the
    float resolution of 1 keep their relative accuracy.
    """
    require_reversible(chain)
    _require_connected(chain)
    n = chain.n
    if n < 2:
        raise ValueError("need at least two states to cut")
    if n > EXACT_ENUMERATION_LIMIT:
        raise BudgetExceededError(
            f"{n} states exceeds the exact enumeration cap of "
            f"{EXACT_ENUMERATION_LIMIT}; use cheeger_sweep"
        )
    m_hat = _normalized_measure(chain)
    # Index i stands for S = {0} + {k + 1 : bit k of i}; its complement is
    # the set of states 1..n-1 with index 2^(n-1) - 1 - i.
    rest = _subset_sums(m_hat[1:])  # m(S) - m(0)

    src, dst, w = _cut_edges(chain, m_hat)
    flow = np.zeros((n, n))
    flow[src, dst] = w
    cut = np.zeros(1)
    for b in range(1, n):
        into_b = flow[0, b] + _subset_sums(flow[1:b, b])
        out_of_b = _subset_sums(flow[b, 1:b])[::-1]
        cut = np.concatenate((cut + into_b, cut + out_of_b))

    # the last index is S = every state
    ratios = cut[:-1] / ((rest[:-1] + m_hat[0]) * rest[:0:-1])
    h = float(ratios.min())
    minimizers = np.nonzero(ratios == h)[0]
    best = min(_mask_to_subset(2 * int(i) + 1, n) for i in minimizers)

    recomputed = cut_ratio(chain, best)
    if abs(recomputed - h) > RECOMPUTE_TOL:
        raise ConvergenceError(
            f"cheeger_exact: the cut ratio of subset {best} drifted: "
            f"{recomputed!r} recomputed against {h!r} enumerated"
        )
    return CutReport(
        h=h,
        argmin_subset=best,
        method="exact_enumeration",
        subset_count_examined=(1 << n) - 2,
    )


def cheeger_sweep(chain: WeightedChain) -> CutReport:
    """Upper bound on h from threshold cuts along the sorted second
    eigenvector of the Markov operator."""
    require_reversible(chain)
    _require_connected(chain)
    n = chain.n
    if n < 2:
        raise ValueError("need at least two states to cut")
    _theta, funcs = chain_spectrum(chain)
    f = funcs[:, 1]
    order = np.lexsort((np.arange(n), -f))
    best_h = math.inf
    best_subset: tuple[int, ...] = ()
    for k in range(1, n):
        subset = tuple(sorted(int(i) for i in order[:k]))
        h = cut_ratio(chain, subset)
        if h < best_h:
            best_h = h
            best_subset = subset
    return CutReport(
        h=float(best_h),
        argmin_subset=best_subset,
        method="fiedler_sweep",
        subset_count_examined=n - 1,
    )


def verify_cheeger(chain: WeightedChain) -> tuple[float, float, float, float]:
    """(h, lambda_1, h^2/8, 2h) with h from exact enumeration."""
    h = cheeger_exact(chain).h
    lam = lambda1(chain).estimate
    return h, lam, h * h / 8.0, 2.0 * h


def area_coarea_check(chain: WeightedChain, u) -> tuple[float, float, float, float]:
    """Both sides of the area and co-area identities for a non-negative u.

    Level sets use the strict convention S_t = {x : u(x) > t}; the integrals
    are exact finite sums over the distinct values of u.  Returns
    (area_lhs, area_rhs, coarea_lhs, coarea_rhs).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (chain.n,):
        raise ValueError(f"u has shape {u.shape}, chain has {chain.n} states")
    if np.any(u < 0.0):
        raise ValueError("u must be non-negative")
    m = chain.measure
    src, dst, w = _cut_edges(chain, m)

    area_lhs = math.fsum((u * m).tolist())
    coarea_lhs = 0.5 * math.fsum((np.abs(u[dst] - u[src]) * w).tolist())

    levels = np.unique(np.concatenate(([0.0], u)))
    area_terms = []
    coarea_terms = []
    for t, t_next in zip(levels[:-1], levels[1:]):
        gap = t_next - t
        in_s = u > t
        area_terms.append(gap * math.fsum(m[in_s].tolist()))
        crossing = in_s[src] & ~in_s[dst]
        coarea_terms.append(gap * math.fsum(w[crossing].tolist()))
    area_rhs = math.fsum(area_terms)
    coarea_rhs = math.fsum(coarea_terms)
    return area_lhs, area_rhs, coarea_lhs, coarea_rhs
