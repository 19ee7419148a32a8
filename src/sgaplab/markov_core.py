"""Finite reversible Markov chains: weighted state spaces, detailed balance,
the Markov operator, and spectral quantities on the orthogonal complement of
the constants.

All spectral work happens on the symmetrized kernel D^(1/2) P D^(-1/2) with
D = diag(m), which is symmetric exactly when the chain is reversible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import BudgetExceededError, ConvergenceError, DisconnectedChainError, NotReversibleError

ROW_SUM_TOL = 1e-12
REVERSIBILITY_TOL = 1e-12
DENSE_LIMIT = 512
# Cap on the states of `chain_spectrum`, whose dense copy and eigenvectors
# take 8 n^2 bytes each.  The largest pgl2 truncation whose weights do not
# underflow (q = 2, trunc 1074) has 1,075 states.
SPECTRUM_LIMIT = 2048
ITER_RESIDUAL_TOL = 1e-10
# The warm branch of `extremal_eigs`: Lanczos cycles of WARM_BASIS products,
# at most WARM_CYCLES of them before ARPACK takes over.  Small top gaps
# stall short cycles: without the cap, the ladders of 30 random permutation
# graphs took 51 s instead of 8 s.
WARM_BASIS = 6
WARM_CYCLES = 20


class WeightedChain:
    """State space with positive weights m and a sparse (sub)stochastic kernel.

    `transitions` is a sparse list of (i, j, p) with p > 0, or a k x 3 float
    array of the same rows; rows must sum to 1
    (stochastic) or at most 1 (substochastic) within 1e-12.  Instances are
    immutable; detailed balance is a checked property, not a constructor
    requirement, so defective chains can still be diagnosed.
    """

    def __init__(
        self,
        states: Sequence[str],
        measure: Sequence[float],
        transitions: Iterable[tuple[int, int, float]],
        row_mode: str = "stochastic",
    ):
        if row_mode not in ("stochastic", "substochastic"):
            raise ValueError(f"unknown row_mode {row_mode!r}")
        self.states = tuple(str(s) for s in states)
        n = len(self.states)
        if n == 0:
            raise ValueError("chain needs at least one state")
        m = np.asarray(measure, dtype=float)
        if m.shape != (n,):
            raise ValueError("measure must assign a positive weight to every state")
        bad = np.flatnonzero(~(np.isfinite(m) & (m > 0.0)))
        if bad.size:
            raise ValueError(
                f"state {self.states[bad[0]]!r} has weight {float(m[bad[0]])}; "
                "weights must be positive and finite"
            )
        t = np.array(
            transitions if isinstance(transitions, np.ndarray) else list(transitions),
            dtype=float,
        )
        if t.size == 0:
            t = t.reshape(0, 3)
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("transitions must be (i, j, p) triples")
        # min and max are NaN if any entry is, so the checks reject NaN too
        if t.size and not (t[:, :2].min() >= 0 and t[:, :2].max() < n):
            raise ValueError("transition index out of range")
        if np.any(t[:, :2] != np.trunc(t[:, :2])):
            raise ValueError("transition indices must be integers")
        if t.size and not t[:, 2].min() > 0.0:
            raise ValueError("transition probabilities must be positive")
        src = t[:, 0].astype(np.int64)
        dst = t[:, 1].astype(np.int64)
        prob = np.ascontiguousarray(t[:, 2])
        if np.any(np.diff(np.sort(src * n + dst)) == 0):
            raise ValueError("duplicate (i, j) transition")
        row_sum = np.bincount(src, weights=prob, minlength=n)
        if row_mode == "stochastic":
            if np.any(np.abs(row_sum - 1.0) > ROW_SUM_TOL):
                bad = int(np.argmax(np.abs(row_sum - 1.0)))
                raise ValueError(
                    f"row {self.states[bad]!r} sums to {float(row_sum[bad])!r}, not 1"
                )
        else:
            if np.any(row_sum > 1.0 + ROW_SUM_TOL):
                bad = int(np.argmax(row_sum))
                raise ValueError(
                    f"row {self.states[bad]!r} sums to {float(row_sum[bad])!r} > 1"
                )
        for a in (m, src, dst, prob):
            a.setflags(write=False)
        self.measure = m
        self.src = src
        self.dst = dst
        self.prob = prob
        self.row_mode = row_mode

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def kernel(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.prob, (self.src, self.dst)), shape=(self.n, self.n)
        )

    @cached_property
    def symmetrized(self) -> sp.csr_matrix:
        """D^(1/2) P D^(-1/2); symmetrized explicitly to kill float dust."""
        scale = np.sqrt(self.measure[self.src] / self.measure[self.dst])
        s = sp.csr_matrix(
            (self.prob * scale, (self.src, self.dst)), shape=(self.n, self.n)
        )
        return (s + s.T) * 0.5

    def __repr__(self) -> str:
        return (
            f"WeightedChain(n={self.n}, nnz={self.prob.size}, "
            f"row_mode={self.row_mode!r})"
        )


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue/norm estimate with convergence diagnostics.

    `method` is the path `extremal_eigs` took: "dense" (a full `eigh`,
    iterations 1), "warm-lanczos" (the restarted Lanczos from a given warm
    start) or "lanczos" (ARPACK, also after the warm branch gave up);
    iterations count the operator products.  For each, `residual` is
    ||S x - theta x|| of the unit eigenpair (theta, x) behind the estimate,
    at most ITER_RESIDUAL_TOL.
    """

    estimate: float
    iterations: int
    residual: float
    method: str

    def __post_init__(self):
        if self.residual < 0.0:
            raise ValueError("residual must be non-negative")
        if self.method not in ("dense", "warm-lanczos", "lanczos"):
            raise ValueError(f"unknown method {self.method!r}")


# ---------------------------------------------------------------------------
# diagnostics and basic operator actions
# ---------------------------------------------------------------------------

def check_detailed_balance(chain: WeightedChain) -> float:
    """Max |m(i) p_ij - m(j) p_ji| over all stored pairs (0 means reversible);
    a pair stored one way only counts |m(i) p_ij|."""
    src, dst = chain.src, chain.dst
    # flows signed by direction, summed per unordered pair {i, j}
    flow = np.sign(dst - src) * (chain.measure[src] * chain.prob)
    _, pair = np.unique(np.minimum(src, dst) * chain.n + np.maximum(src, dst), return_inverse=True)
    return float(np.abs(np.bincount(pair, weights=flow)).max(initial=0.0))


def require_reversible(chain: WeightedChain, tol: float = REVERSIBILITY_TOL) -> None:
    v = check_detailed_balance(chain)
    if v > tol:
        raise NotReversibleError(
            f"detailed balance violated by {v:.3e} (tolerance {tol:.0e})"
        )


def apply_markov(chain: WeightedChain, f: Sequence[float]) -> np.ndarray:
    """(Mf)(i) = sum_j p_ij f(j)."""
    vec = np.asarray(f, dtype=float)
    if vec.shape != (chain.n,):
        raise ValueError(f"vector has shape {vec.shape}, chain has {chain.n} states")
    return chain.kernel @ vec


def m_inner(chain: WeightedChain, f, g) -> float:
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    return float(np.sum(chain.measure * f * g))


def dirichlet_form(chain: WeightedChain, f) -> float:
    """<Delta f, f> computed as (1/2) sum |f(j) - f(i)|^2 m(i) p_ij."""
    f = np.asarray(f, dtype=float)
    diff = f[chain.dst] - f[chain.src]
    return 0.5 * float(np.sum(chain.measure[chain.src] * chain.prob * diff * diff))


def disconnected_pair(chain: WeightedChain) -> tuple[str, str] | None:
    """A pair of states in different components, or None if irreducible:
    state 0 and the first state outside its weakly connected component."""
    _count, component = csgraph.connected_components(chain.kernel, connection="weak")
    outside = np.flatnonzero(component != component[0])
    if outside.size == 0:
        return None
    return chain.states[0], chain.states[int(outside[0])]


def _require_connected(chain: WeightedChain) -> None:
    pair = disconnected_pair(chain)
    if pair is not None:
        raise DisconnectedChainError(
            f"chain is disconnected: no path between {pair[0]!r} and {pair[1]!r}"
        )


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def chain_spectrum(chain: WeightedChain) -> tuple[np.ndarray, np.ndarray]:
    """Dense spectrum of the Markov operator in the m-weighted inner product.

    Returns eigenvalues in descending order and eigenvectors (columns) mapped
    back to plain function coordinates, m-orthonormal.  A chain of more than
    SPECTRUM_LIMIT states raises BudgetExceededError before the dense copy.
    """
    if chain.n > SPECTRUM_LIMIT:
        raise BudgetExceededError(
            f"dense spectrum of {chain.n} states is over the limit of {SPECTRUM_LIMIT} states"
        )
    require_reversible(chain)
    s = chain.symmetrized.toarray()
    theta, vecs = np.linalg.eigh(s)
    order = np.argsort(theta)[::-1]
    theta = theta[order]
    vecs = vecs[:, order]
    funcs = vecs / np.sqrt(chain.measure)[:, None]
    return theta, funcs


def _restarted_lanczos(matvec, x: np.ndarray, which: str):
    """(theta, x, S x) with ||S x - theta x|| <= ITER_RESIDUAL_TOL, theta the
    Rayleigh quotient of the unit vector x, or (None, x, None) after
    WARM_CYCLES cycles, x then the last Ritz vector.

    Each cycle builds a WARM_BASIS-vector Lanczos basis from x with full
    (twice classical Gram-Schmidt) reorthogonalisation and restarts from its
    extreme Ritz vector.  The product that checks x is the first of the next
    cycle, so a start that is already converged costs one product.
    """
    x = x / np.linalg.norm(x)
    basis = np.empty((WARM_BASIS, x.size))
    for _cycle in range(WARM_CYCLES):
        w = matvec(x)
        theta = float(x @ w)
        if np.linalg.norm(w - theta * x) <= ITER_RESIDUAL_TOL:
            return theta, x, w
        basis[0] = x
        alpha, beta = [], []
        for j in range(WARM_BASIS):
            if j:
                w = matvec(basis[j])
            span = basis[: j + 1]
            scale = np.linalg.norm(w)
            h = span @ w
            w -= h @ span
            again = span @ w
            w -= again @ span
            alpha.append(h[j] + again[j])
            b = np.linalg.norm(w)
            # past the cycle's end, or an invariant subspace: w is rounding
            if j + 1 == WARM_BASIS or b <= 1e-12 * scale:
                break
            beta.append(b)
            basis[j + 1] = w / b
        ritz, s = sla.eigh_tridiagonal(np.array(alpha), np.array(beta))
        pick = int(np.argmax(ritz if which == "LA" else np.abs(ritz)))
        x = s[:, pick] @ basis[: len(alpha)]
        x /= np.linalg.norm(x)
    return None, x, None


def extremal_eigs(
    op: sp.spmatrix,
    which: str,
    v0: np.ndarray,
    deflate: np.ndarray | None = None,
    *,
    stage: str,
    warm: bool = False,
) -> tuple[SpectralReport, np.ndarray]:
    """(report, unit eigenvector x) for the symmetric `op`, `which` in "LA"
    (the estimate is the largest eigenvalue) or "LM" (the eigenvalue of
    largest modulus).  `op` may also be the leading n rows of a wider matrix
    whose leading n columns are the symmetric operator: its further columns
    meet zeros.  The report's iterations count the operator products, the
    residual check's included.

    The one solver switch of the package: up to DENSE_LIMIT rows a full
    `eigh` of the dense matrix (method "dense"), beyond it ARPACK Lanczos
    for one Ritz pair from `v0` (method "lanczos").  With `warm`, `v0` is
    taken to be nearly converged, and a restarted Lanczos of short cycles
    runs first (method "warm-lanczos"); after WARM_CYCLES cycles it hands its
    Ritz vector to ARPACK.  `deflate`, a unit eigenvector of `op` with
    eigenvalue 1, is left out: the dense path drops the eigenpair most
    aligned with it, the Lanczos paths shift it to 0, or below the spectrum
    [-1, 1] for "LA".  Every pair is checked: a residual above
    ITER_RESIDUAL_TOL raises ConvergenceError naming the stage, the method
    and the size.
    """
    n = op.shape[0]
    shift = 3.0 if which == "LA" else 1.0
    products = 0
    wide = np.zeros(op.shape[1]) if op.shape[1] > n else None

    def matvec(x):
        nonlocal products
        products += 1
        x = np.ravel(x)
        if wide is not None:
            wide[:n] = x
        y = op @ (x if wide is None else wide)
        return y if deflate is None else y - (shift * (deflate @ x)) * deflate

    sx = None
    if n <= DENSE_LIMIT:
        method = "dense"
        theta, vecs = np.linalg.eigh((op if wide is None else op[:, :n]).toarray())
        if deflate is not None:
            drop = int(np.argmax(np.abs(deflate @ vecs)))
            theta, vecs = np.delete(theta, drop), np.delete(vecs, drop, axis=1)
    else:
        if warm:
            value, v0, sx = _restarted_lanczos(matvec, v0, which)
        if sx is not None:
            method, theta, vecs = "warm-lanczos", np.array([value]), v0[:, None]
        else:
            method = "lanczos"
            lin = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
            try:
                # one Ritz pair: Cayley-graph eigenvalues repeat (at least
                # (p - 1) / 2 times for SL_2(F_p)), and Lanczos only makes the
                # copies that more pairs wait for out of rounding
                theta, vecs = spla.eigsh(lin, k=1, which=which, v0=v0)
            except spla.ArpackNoConvergence as exc:
                raise ConvergenceError(
                    f"{stage}: lanczos (which={which}) did not converge on "
                    f"{n} states after {products} products: {exc}"
                ) from None
    pick = int(np.argmax(theta if which == "LA" else np.abs(theta)))
    value = float(theta[pick])
    x = vecs[:, pick]
    if sx is None:
        sx = matvec(x)
    res = float(np.linalg.norm(sx - value * x))
    if res > ITER_RESIDUAL_TOL:
        raise ConvergenceError(
            f"{stage}: {method} (which={which}) residual {res:.2e} exceeds "
            f"{ITER_RESIDUAL_TOL:.0e} on {n} states"
        )
    return SpectralReport(value, products, res, method), x


def _off_constants(chain: WeightedChain, which: str, stage: str) -> tuple[SpectralReport, np.ndarray]:
    """`extremal_eigs` of the symmetrized kernel of a connected reversible
    stochastic chain, with the constants deflated, from a fixed start."""
    if chain.row_mode != "stochastic":
        raise ValueError(f"{stage} needs a stochastic chain")
    _require_connected(chain)
    require_reversible(chain)
    if chain.n == 1:
        raise ValueError(f"{stage}: the complement of constants is trivial for one state")
    unit = np.sqrt(chain.measure)
    unit /= np.linalg.norm(unit)
    v0 = np.cos(np.arange(1, chain.n + 1) * 0.7) + 0.1
    return extremal_eigs(chain.symmetrized, which, v0, deflate=unit, stage=stage)


def lambda1(chain: WeightedChain) -> SpectralReport:
    """Smallest non-zero eigenvalue of the Laplacian I - M on the m-orthogonal
    complement of constants: one minus the top eigenvalue of the
    constants-deflated kernel."""
    report, _x = _off_constants(chain, "LA", "lambda1")
    return replace(report, estimate=1.0 - report.estimate)


def operator_norm_l20(chain: WeightedChain) -> SpectralReport:
    """Norm of the Markov operator restricted to the m-orthogonal complement
    of the constants (max |eigenvalue| there, by self-adjointness)."""
    report, _x = _off_constants(chain, "LM", "operator_norm_l20")
    return replace(report, estimate=abs(report.estimate))


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def chain_to_json_dict(chain: WeightedChain) -> dict:
    return {
        "states": list(chain.states),
        "measure": [float(x) for x in chain.measure],
        "transitions": [
            [int(i), int(j), float(p)]
            for i, j, p in zip(chain.src, chain.dst, chain.prob)
        ],
        "row_mode": chain.row_mode,
    }


def chain_to_json(chain: WeightedChain) -> str:
    return json.dumps(chain_to_json_dict(chain), sort_keys=True)


def chain_from_json_dict(data: dict) -> WeightedChain:
    if not isinstance(data, dict):
        raise ValueError(f"chain JSON must be an object, not {type(data).__name__}")
    try:
        states, measure, transitions = data["states"], data["measure"], data["transitions"]
    except KeyError as exc:
        raise ValueError(f"chain JSON lacks the key {exc.args[0]!r}") from None
    def numbers(row) -> bool:
        return isinstance(row, list) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in row
        )

    if not (isinstance(states, list) and numbers(measure) and isinstance(transitions, list)
            and all(map(numbers, transitions))):
        raise ValueError(
            "chain JSON needs a 'states' list, a 'measure' list of numbers and a "
            "'transitions' list of [i, j, p] triples of numbers"
        )
    return WeightedChain(
        states=states,
        measure=measure,
        transitions=[tuple(t) for t in transitions],
        row_mode=data.get("row_mode", "stochastic"),
    )


def chain_from_json(text: str) -> WeightedChain:
    return chain_from_json_dict(json.loads(text))
