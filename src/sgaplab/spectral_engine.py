"""Norm machinery beyond a single chain: finite-section compressions of
operators on infinite graphs, their radial reduction on regular trees, the
radial Rayleigh quotient, the tensor-power norm inequality, and the expander
eigenvalue bound.

Compressions restrict the averaging operator to vertices within a graph
distance of the basepoint, so every value is a certified lower bound on the
full operator norm and is non-decreasing in the radius.  A compression of a
symmetric probability measure is symmetric and non-negative, so its norm is
its Perron eigenvalue; any other compression A is normed through its
symmetric dilation (0, A; A^T, 0).  Either way the norm is one top
eigenvalue from `markov_core.extremal_eigs`, which picks the solver.

On a regular tree that Perron vector is unique, so every automorphism fixing
the root fixes it: it is radial, and the norm of a ball of radius r is the top
eigenvalue of an (r + 1)-square Jacobi matrix on the spheres
(`tree_ball_ladder`).  Free-group orbits of finite configurations are tree
balls too (see `walk_models.build_bernoulli_schreier`).  Other graphs, such
as the torus orbits, whose balls the sup-norm box cuts, stay on the graph
path: a ladder assembles the operator once, for its largest radius, with rows
in order of distance from the basepoint; each smaller ball is then a leading
principal block, solved on the leading rows without a copy.  Each solve is
warm-started from the Perron vector of the ball before it, which is nearly
converged, so `extremal_eigs` runs its short restarted Lanczos on it rather
than a cold ARPACK solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import BudgetExceededError
from .group_algebra import ProbMeasure
from .markov_core import WeightedChain, extremal_eigs, lambda1, operator_norm_l20
from .walk_models import LabeledGraph

TENSOR_DIM_CAP = 4096
UNITARY_TOL = 1e-10
# Start-vector entry on a ladder's new sphere: far below the entries of the
# previous unit Perron vector.  On the torus ladder the warm solves took
# 1,512 products at radius 150 and 2,697 at radius 400 with this pad, and
# 3.4-3.7 and 4.9-5.8 times as many with pads of 1e-3 to 1e-2.
WARM_START_PAD = 1e-12
RADIAL_ROWS_BUDGET = 10**7


# ---------------------------------------------------------------------------
# compressions
# ---------------------------------------------------------------------------

def _measure_gen_weights(graph: LabeledGraph, mu: ProbMeasure) -> np.ndarray:
    """Per-generator weights of mu, requiring supp(mu) to sit inside the
    graph's generator list."""
    weights = np.zeros(graph.n_generators)
    for g, w in mu.items():
        hits = [k for k, gen in enumerate(graph.generators) if gen == g]
        if not hits:
            raise ValueError(
                "graph does not carry the action of the measure support; "
                f"unmatched element {g!r}"
            )
        # duplicated generator labels (involutions listed twice) share the mass
        share = w / len(hits)
        for k in hits:
            weights[k] += share
    return weights


def compressed_operator(
    graph: LabeledGraph, mu: ProbMeasure, radius: int
) -> sp.csr_matrix:
    """Matrix of the averaging operator compressed to the ball of the given
    graph-distance radius around the basepoint."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    dist = graph.distances_from_basepoint
    if dist[graph.basepoint] != 0:
        raise ValueError("graph has no usable basepoint")
    reach = int(dist.max())
    if radius > reach:
        raise ValueError(
            f"radius {radius} exceeds the generated graph (max distance {reach})"
        )
    keep = (dist >= 0) & (dist <= radius)
    new_index = -np.ones(graph.n_vertices, dtype=np.int64)
    new_index[keep] = np.arange(int(keep.sum()))
    w = _measure_gen_weights(graph, mu)
    esrc, edst, egen = graph.edge_src, graph.edge_dst, graph.edge_gen
    inside = keep[esrc] & keep[edst]
    wvals = w[egen[inside]]
    nonzero = wvals > 0.0
    rows = new_index[edst[inside]][nonzero]
    cols = new_index[esrc[inside]][nonzero]
    n_sub = int(keep.sum())
    return sp.csr_matrix(
        (wvals[nonzero], (rows, cols)), shape=(n_sub, n_sub)
    )


def _sparse_norm(
    a: sp.csr_matrix,
    v0: np.ndarray | None = None,
    *,
    symmetric: bool | None = None,
) -> tuple[float, np.ndarray | None]:
    """(norm, Perron vector) of a compression; the vector is None unless the
    compression is symmetric.  `a` may be the leading rows of a wider matrix
    whose further columns lie outside the compression (a ladder's ball).

    A symmetric compression of a probability measure is entrywise
    non-negative, so its norm is its largest eigenvalue (Perron-Frobenius),
    one "LA" value of `extremal_eigs`: warm-started from `v0` when one is
    given, else from the unit constant vector.  Any other A goes through its
    symmetric dilation (0, A; A^T, 0), whose largest eigenvalue is ||A||.
    `symmetric`, when known, saves the check.
    """
    n = a.shape[0]
    if n == 0:
        raise ValueError("empty compression")
    if a.nnz == 0:
        return 0.0, None
    if symmetric is None:
        symmetric = (a != a.T).nnz == 0
    if not symmetric:
        a = a[:, :n]
        a, v0 = sp.bmat([[None, a], [a.T, None]], format="csr"), None
    warm = v0 is not None
    if not warm:
        v0 = np.ones(a.shape[0]) / math.sqrt(a.shape[0])
    report, x = extremal_eigs(a, "LA", v0, stage=f"compressed_norm ({n} rows)", warm=warm)
    return report.estimate, x if symmetric else None


def compressed_norm(graph: LabeledGraph, mu: ProbMeasure, radius: int) -> float:
    """Norm of the ball compression; a certified lower bound on the norm of
    the averaging operator on the whole (possibly infinite) graph."""
    return _sparse_norm(compressed_operator(graph, mu, radius))[0]


def _require_radii(radii: Sequence[int]) -> None:
    if not radii:
        raise ValueError("radii must be non-empty")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if radii[0] < 0:
        raise ValueError("radius must be >= 0")


@dataclass(frozen=True)
class CompressionLadder:
    """Compressed norms along increasing radii, optionally checked against a
    known limiting value (`limit_claim`, with a short source tag)."""

    radii: tuple[int, ...]
    norms: tuple[float, ...]
    limit_claim: float | None = None
    claim_tag: str | None = None

    def __post_init__(self):
        if len(self.radii) != len(self.norms):
            raise ValueError("radii and norms must have equal length")
        _require_radii(self.radii)
        for a, b in zip(self.norms, self.norms[1:]):
            if b < a - 1e-12:
                raise ValueError("norms must be non-decreasing along nested radii")
        if self.limit_claim is not None:
            if any(x > self.limit_claim + 1e-9 for x in self.norms):
                raise ValueError("a compressed norm exceeds the claimed limit")

    @property
    def supremum(self) -> float:
        return max(self.norms)


def compression_ladder(
    graph: LabeledGraph,
    mu: ProbMeasure,
    radii: Sequence[int],
    limit_claim: float | None = None,
    claim_tag: str | None = None,
) -> CompressionLadder:
    """Compressed norms of the balls of the given strictly increasing radii.

    The operator is assembled once, for the largest radius, with its rows
    ordered by distance from the basepoint, so every smaller ball is a
    leading principal block of it.  A ball is solved on the leading rows of
    the operator, shared rather than copied, and warm-started from the
    Perron vector of the previous radius, padded on the new sphere.
    """
    radii = tuple(int(r) for r in radii)
    _require_radii(radii)
    full = compressed_operator(graph, mu, radii[-1])
    dist = graph.distances_from_basepoint
    dist = dist[(dist >= 0) & (dist <= radii[-1])]
    if np.any(dist[1:] < dist[:-1]):
        order = np.argsort(dist, kind="stable")
        full = full[order][:, order]
        dist = dist[order]
    sizes = np.searchsorted(dist, radii, side="right")
    symmetric = (full != full.T).nnz == 0
    norms = []
    x = None
    for n_r in sizes:
        v0 = None
        if x is not None:
            v0 = np.full(n_r, WARM_START_PAD)
            v0[: x.size] = np.abs(x)
        ball = sp.csr_matrix((full.data, full.indices, full.indptr[: n_r + 1]), shape=(n_r, full.shape[1]))
        norm, x = _sparse_norm(ball, v0, symmetric=symmetric)
        norms.append(norm)
    return CompressionLadder(radii, tuple(norms), limit_claim, claim_tag)


def tree_ball_ladder(d: int, radii: Sequence[int]) -> CompressionLadder:
    """Compressed norms of the simple walk on the d-regular tree over balls of
    strictly increasing radii: each is the top eigenvalue of the Jacobi matrix
    of the walk on the spheres (Kesten 1959).  The radii are read lazily, so a
    ladder over RADIAL_ROWS_BUDGET Jacobi rows fails before any allocation."""
    if d < 2:
        raise ValueError("degree must be >= 2")
    kept, rows = [], 0
    for r in map(int, radii):
        kept.append(r)
        rows += max(r, 0) + 1
        if rows > RADIAL_ROWS_BUDGET:
            raise BudgetExceededError(f"radial ladder passes {RADIAL_ROWS_BUDGET} Jacobi rows at radius {r}")
    _require_radii(kept)
    off = np.full(kept[-1], (d - 1) ** 0.5 / d)
    off[:1] = d**0.5 / d
    eig = partial(sla.eigh_tridiagonal, eigvals_only=True, select="i")
    norms = [float(eig(np.zeros(r + 1), off[:r], select_range=(r, r))[0]) if r else 0.0 for r in kept]
    return CompressionLadder(tuple(kept), tuple(norms), 2.0 * (d - 1) ** 0.5 / d, "Kesten 1959")


# ---------------------------------------------------------------------------
# radial Rayleigh quotients on the d-regular tree
# ---------------------------------------------------------------------------

def radial_rayleigh(d: int, lam: float, depth: int) -> float:
    """Rayleigh quotient of the radial vector f(v) = (lam / sqrt(d-1))^|v|
    truncated at the given depth, against the tree averaging operator.

    As lam -> 1 and depth -> infinity the quotient tends to 2 sqrt(d-1) / d,
    which is the norm of the operator.
    """
    if d < 3:
        raise ValueError("degree must be >= 3")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    root = math.sqrt(d - 1.0)
    lam2 = lam * lam
    geo = (1.0 - lam2**depth) / (1.0 - lam2)  # sum_{m=0}^{depth-1} lam^(2m)
    num = (2.0 * lam / root) * geo
    den = 1.0 + (d / (d - 1.0)) * lam2 * geo
    return num / den


# ---------------------------------------------------------------------------
# tensor powers
# ---------------------------------------------------------------------------

def _check_unitary(u: np.ndarray) -> None:
    d = u.shape[0]
    if u.shape != (d, d):
        raise ValueError("representation matrices must be square")
    err = np.max(np.abs(u.conj().T @ u - np.eye(d)))
    if err > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (deviation {err:.2e})")


def tensor_power_check(
    rep: Sequence[np.ndarray], mu: ProbMeasure, k: int
) -> tuple[float, float]:
    """(lhs, rhs) with lhs = ||sum mu(g) U_g|| and
    rhs = ||sum mu(g) (U_g (x) conj(U_g))^(x k)||^(1/2k).

    For a genuine unitary representation lhs <= rhs always holds; callers
    assert it with a small tolerance.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mats = [np.asarray(u, dtype=complex) for u in rep]
    if len(mats) != mu.support_size:
        raise ValueError("need exactly one unitary per support element")
    for u in mats:
        _check_unitary(u)
    d = mats[0].shape[0]
    if any(u.shape != (d, d) for u in mats):
        raise ValueError("representation matrices must share one dimension")
    if d ** (2 * k) > TENSOR_DIM_CAP:
        raise ValueError(
            f"tensor power dimension {d ** (2 * k)} exceeds cap {TENSOR_DIM_CAP}"
        )
    weights = [w for _g, w in mu.items()]
    lhs_mat = sum(w * u for w, u in zip(weights, mats))
    lhs = float(np.linalg.norm(lhs_mat, 2))
    rhs_mat = None
    for w, u in zip(weights, mats):
        block = np.kron(u, u.conj())
        power = block
        for _ in range(k - 1):
            power = np.kron(power, block)
        rhs_mat = w * power if rhs_mat is None else rhs_mat + w * power
    rhs = float(np.linalg.norm(rhs_mat, 2)) ** (1.0 / (2 * k))
    return lhs, rhs


# ---------------------------------------------------------------------------
# expander bound
# ---------------------------------------------------------------------------

def expander_bound_check(chain: WeightedChain) -> tuple[float, float]:
    """(lambda_1, (1 - ||M restricted to mean-zero||)^2 / 2) for the simple
    walk on a finite vertex-transitive graph; the gap always dominates the
    bound."""
    lam = lambda1(chain).estimate
    norm0 = operator_norm_l20(chain).estimate
    return lam, 0.5 * (1.0 - norm0) ** 2


__all__ = [
    "CompressionLadder",
    "compressed_norm",
    "compressed_operator",
    "compression_ladder",
    "expander_bound_check",
    "radial_rayleigh",
    "tensor_power_check",
    "tree_ball_ladder",
]
