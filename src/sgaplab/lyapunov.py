"""Top Lyapunov exponent of i.i.d. matrix products: seeded Monte-Carlo
estimates, exact small-n expectations of log ||product||, and the spectral
lower bound (1/d) log(1 / r_spec).

All logarithms are natural.  Matrix norms are operator norms induced by the
Euclidean norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .group_algebra import WEIGHT_SUM_TOL, ProbMeasure, convolution_powers
from .walk_models import sanov_generators

EXACT_POWER_CAP = 8
# Factor indices held at once by estimate_lyapunov: 2^19 int64 entries.
INDEX_BLOCK_ENTRIES = 1 << 19
# Cap on n_steps * n_trials of estimate_lyapunov, checked before any draw:
# ten times the largest run in use (2000 x 200).  One trial's indices are
# drawn together, so it also caps n_steps, and a block's indices at 32 MB.
FACTOR_BUDGET = 4_000_000


@dataclass(frozen=True)
class MatrixMeasure:
    """Finite-support measure on invertible real d x d matrices."""

    matrices: np.ndarray  # (k, d, d)
    weights: np.ndarray  # (k,)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[0] == 0:
            raise ValueError("matrices must have shape (k, d, d) with k >= 1")
        if w.shape != (mats.shape[0],) or not np.all(w > 0.0):  # also rejects NaN
            raise ValueError("weights must be positive, one per matrix")
        if abs(math.fsum(w.tolist()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}")
        dets = np.linalg.det(mats)
        if np.any(np.abs(dets) < 1e-12):
            bad = int(np.argmin(np.abs(dets)))
            raise ValueError(f"matrix {bad} is singular (det {dets[bad]:.2e})")
        mats.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return int(self.matrices.shape[1])

    @classmethod
    def from_group_measure(cls, mu: ProbMeasure) -> "MatrixMeasure":
        if mu.family[0] != "matz":
            raise ValueError("only integer-matrix measures convert to MatrixMeasure")
        mats = np.array([g.entries for g in mu.elements()], dtype=float)
        return cls(mats, np.array([w for _g, w in mu.items()]))


def sanov_matrix_measure() -> MatrixMeasure:
    """Uniform measure on (1 2; 0 1), (1 0; 2 1) and their inverses."""
    return MatrixMeasure.from_group_measure(sanov_group_measure())


@dataclass(frozen=True)
class LyapunovEstimate:
    """Monte-Carlo estimate of the top Lyapunov exponent with a 95 percent
    confidence half-width across independent trials.

    `exact_subadditive`, when present, holds the exact values of
    (1/n) E[log ||product of n factors||] for small n; these dominate the
    limit from above.
    """

    point_estimate: float
    ci_half_width: float
    n_steps: int
    n_trials: int
    seed: int
    exact_subadditive: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.ci_half_width < 0.0:
            raise ValueError("confidence half-width must be non-negative")
        if self.n_steps < 1 or self.n_trials < 1:
            raise ValueError("need at least one step and one trial")


def _trial_growths(
    measure: MatrixMeasure, n_steps: int, seed: int, trials: range
) -> np.ndarray:
    """(1/n) log ||X_n ... X_1|| for each trial in `trials`, all stepped
    together with one batched product per step.

    Trial t draws its factor indices from the substream keyed by (seed, t).
    Each running product is rescaled by frobenius/sqrt(d) every step
    (exactly 1 for orthogonal factors) and the log corrections accumulate,
    so the value equals the unnormalized one without overflow.  Every
    operation acts on each trial separately, so a trial's value does not
    depend on which other trials share its batch.
    """
    mats = measure.matrices
    d = measure.dim
    sqrt_d = math.sqrt(d)
    idx = np.stack(
        [
            np.random.default_rng(np.random.SeedSequence([int(seed), t])).choice(
                mats.shape[0], size=n_steps, p=measure.weights
            )
            for t in trials
        ],
        axis=1,
    )
    prods = np.tile(np.eye(d), (len(trials), 1, 1))
    log_acc = np.zeros(len(trials))
    for step_idx in idx:
        prods = mats[step_idx] @ prods
        scale = np.sqrt(np.sum(prods * prods, axis=(1, 2))) / sqrt_d
        prods /= scale[:, None, None]
        log_acc += np.log(scale)
    return (log_acc + np.log(np.linalg.norm(prods, 2, axis=(1, 2)))) / n_steps


def estimate_lyapunov(
    measure: MatrixMeasure | ProbMeasure,
    n_steps: int,
    n_trials: int,
    seed: int,
) -> LyapunovEstimate:
    """Monte-Carlo mean of the per-step log growth across independent trials.

    Each trial draws its factor sequence from a substream keyed by
    (seed, trial index), so results are bitwise reproducible and independent
    of evaluation order.  Trials run in blocks that step together with one
    (trials, d, d) matrix product per step.  A block holds the factor
    indices of as many trials as fit in INDEX_BLOCK_ENTRIES (4 MiB), and of
    one trial when n_steps alone is more.  A run of more than FACTOR_BUDGET
    factors raises BudgetExceededError before anything is drawn.
    """
    if isinstance(measure, ProbMeasure):
        measure = MatrixMeasure.from_group_measure(measure)
    if n_steps < 1 or n_trials < 1:
        raise ValueError("need n_steps >= 1 and n_trials >= 1")
    if n_steps * n_trials > FACTOR_BUDGET:
        raise BudgetExceededError(
            f"{n_steps} steps x {n_trials} trials is over the factor budget {FACTOR_BUDGET}"
        )
    block = max(1, INDEX_BLOCK_ENTRIES // n_steps)
    vals = np.concatenate(
        [
            _trial_growths(measure, n_steps, seed, range(start, min(start + block, n_trials)))
            for start in range(0, n_trials, block)
        ]
    )
    point = float(np.mean(vals))
    if n_trials > 1:
        ci = 1.96 * float(np.std(vals, ddof=1)) / math.sqrt(n_trials)
    else:
        ci = 0.0
    return LyapunovEstimate(
        point_estimate=point,
        ci_half_width=ci,
        n_steps=n_steps,
        n_trials=n_trials,
        seed=int(seed),
    )


def exact_u_n(mu: ProbMeasure, n_max: int) -> list[float]:
    """Exact expectations u_n = E[log ||g||] under the n-fold convolution
    power, for n = 1 .. n_max (n_max capped at 8).

    Convolution collapses equal products, which keeps free-group supports
    polynomial; `group_algebra.CONVOLUTION_BUDGET` guards everything else.
    """
    if mu.family[0] != "matz":
        raise ValueError("exact expectations need integer-matrix elements")
    if not 1 <= n_max <= EXACT_POWER_CAP:
        raise ValueError(f"n_max must be in 1..{EXACT_POWER_CAP}")
    out = []
    for power in convolution_powers(mu, n_max):
        mats = np.array([g.entries for g in power.elements()], dtype=float)
        norms = np.linalg.norm(mats, 2, axis=(1, 2)).tolist()
        out.append(math.fsum(w * math.log(x) for (_g, w), x in zip(power.items(), norms)))
    return out


def sanov_group_measure() -> ProbMeasure:
    return ProbMeasure.uniform(sanov_generators())


def furstenberg_bound(r_spec: float, d: int) -> float:
    """(1/d) log(1 / r_spec): the growth guaranteed by a spectral radius
    strictly below one for the averaging operator on L2 of the ambient
    vector space."""
    if not 0.0 < r_spec <= 1.0:
        raise ValueError(f"r_spec must lie in (0, 1], got {r_spec}")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.log(1.0 / r_spec) / d


__all__ = [
    "LyapunovEstimate",
    "MatrixMeasure",
    "estimate_lyapunov",
    "exact_u_n",
    "furstenberg_bound",
    "sanov_group_measure",
    "sanov_matrix_measure",
]
