"""Group elements, finite-support probability measures, convolution, and the
return-probability route to the norm of the averaging operator.

Three element families are supported: reduced words in a free group of fixed
rank, d x d matrices over Z/pZ with determinant 1, and unimodular d x d
integer matrices.  A measure's support must stay inside a single family.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import BudgetExceededError, UnsupportedVariantError, VariantMismatchError

WEIGHT_SUM_TOL = 1e-12

# Work cap of `convolution_powers`: the sum over its steps of
# |support(power)| * |support(mu)|.
CONVOLUTION_BUDGET = 400_000

# Cap on the points one `explore_orbit` run may find: group closures, Cayley
# graphs and Schreier orbits.
ORBIT_BUDGET = 1_000_000

# Cap on n_max of a return-probability series, checked before any allocation.
SERIES_BUDGET = 1_000_000


# ---------------------------------------------------------------------------
# element families
# ---------------------------------------------------------------------------

def _reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for raw in letters:
        s = int(raw)
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class FreeWord:
    """Reduced word in the free group of rank `rank`.

    Letters are signed 1-based generator indices: 1 means the first generator,
    -1 its inverse.  The stored letter sequence is always reduced.
    """

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"free rank must be >= 1, got {self.rank}")
        for s in self.letters:
            if s == 0 or abs(s) > self.rank:
                raise ValueError(f"letter {s} out of range for rank {self.rank}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"word {self.letters} is not reduced")

    def __len__(self) -> int:
        return len(self.letters)


def free_word(rank: int, letters: Iterable[int] = ()) -> FreeWord:
    """Build a FreeWord, reducing the letter sequence first."""
    return FreeWord(rank, _reduce_letters(letters))


def parse_word(rank: int, text: str) -> FreeWord:
    """The free word named by `text`, the inverse of `element_label` for rank
    <= 26: "e" is the identity, a-z the generators and A-Z their inverses.
    The letters are reduced, so "aA" names the identity."""
    if text == "e":
        return free_word(rank, [])
    if not text:
        raise ValueError("a word needs at least one letter; the identity is 'e'")
    letters = []
    for ch in text:
        index = ord(ch.lower()) - ord("a") + 1
        if not (ch.isascii() and ch.isalpha() and index <= rank):
            raise ValueError(
                f"word {text!r}: {ch!r} is not a generator letter of the free group of rank {rank}"
            )
        letters.append(index if ch.islower() else -index)
    return free_word(rank, letters)


def free_generators(rank: int) -> list[FreeWord]:
    """The signed generators a, A, b, B, ... of the free group of rank `rank`."""
    return [free_word(rank, [s]) for i in range(1, rank + 1) for s in (i, -i)]


def _as_int(x) -> int:
    """`x` as an exact integer; 1.5, 2.0, None, True and "3" are ValueErrors,
    not truncated or converted."""
    try:
        if not isinstance(x, bool):
            return operator.index(x)
    except TypeError:
        pass
    raise ValueError(f"{x!r} is not an integer")


def _int_rows(entries) -> tuple[tuple[int, ...], ...]:
    try:
        rows = tuple(tuple(map(_as_int, row)) for row in entries)
    except TypeError:  # entries or a row is not a sequence
        rows = ()
    d = len(rows)
    if d == 0 or any(len(r) != d for r in rows):
        raise ValueError("matrix entries must form a non-empty square array")
    return rows


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _int_minor_det(rows, skip_i, skip_j) -> int:
    sub = [
        [rows[i][j] for j in range(len(rows)) if j != skip_j]
        for i in range(len(rows))
        if i != skip_i
    ]
    if not sub:
        return 1
    return int_det(sub)


def _int_adjugate(rows) -> list[list[int]]:
    d = len(rows)
    return [
        [(-1) ** (i + j) * _int_minor_det(rows, j, i) for j in range(d)]
        for i in range(d)
    ]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class MatModP:
    """d x d matrix over Z/pZ with determinant 1 (an element of SL_d(F_p)).
    `mat_mod_p` checks outside input; `mul` and `inverse` stay in the group."""

    p: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)


def mat_mod_p(p: int, entries) -> MatModP:
    if not _is_prime(p):  # before reducing, which divides by p
        raise ValueError(f"modulus {p} is not prime")
    rows = _int_rows(entries)
    if int_det(rows) % p != 1:
        raise ValueError("determinant is not 1 mod p")
    return MatModP(p, tuple(tuple(x % p for x in row) for row in rows))


@dataclass(frozen=True)
class MatZ:
    """Unimodular integer matrix (determinant +1 or -1), so the inverse is
    integral.  `mat_z` validates outside input, as `mat_mod_p` does."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)


def mat_z(entries) -> MatZ:
    rows = _int_rows(entries)
    if int_det(rows) not in (1, -1):
        raise ValueError("integer matrix must have determinant +1 or -1")
    return MatZ(rows)


GroupElement = Union[FreeWord, MatModP, MatZ]


def family_key(g: GroupElement) -> tuple:
    """Hashable tag identifying the group an element lives in."""
    if isinstance(g, FreeWord):
        return ("free", g.rank)
    if isinstance(g, MatModP):
        return ("matmodp", g.dim, g.p)
    if isinstance(g, MatZ):
        return ("matz", g.dim)
    raise TypeError(f"not a group element: {g!r}")


def identity_like(g: GroupElement) -> GroupElement:
    if isinstance(g, FreeWord):
        return FreeWord(g.rank, ())
    d = g.dim
    eye = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    if isinstance(g, MatModP):
        return MatModP(g.p, eye)
    return MatZ(eye)


def is_identity(g: GroupElement) -> bool:
    return g == identity_like(g)


def _mat_mul_rows(a, b, mod: int | None = None):
    """Product of square matrices given as row tuples, mod `mod` if given."""
    cols = list(zip(*b))
    if mod is None:
        return tuple([tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in a])
    return tuple([tuple([sum(map(operator.mul, row, col)) % mod for col in cols]) for row in a])


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product.  Free words come back reduced; matrix products keep
    their modulus / unimodularity automatically.  Elements of different
    families raise VariantMismatchError; `family_key` raises TypeError first
    for anything that is not a group element."""
    if isinstance(a, MatModP) and isinstance(b, MatModP) and a.p == b.p and len(a.entries) == len(b.entries):
        return MatModP(a.p, _mat_mul_rows(a.entries, b.entries, a.p))
    if isinstance(a, MatZ) and isinstance(b, MatZ) and len(a.entries) == len(b.entries):
        return MatZ(_mat_mul_rows(a.entries, b.entries))
    if isinstance(a, FreeWord) and isinstance(b, FreeWord) and a.rank == b.rank:
        return FreeWord(a.rank, _reduce_letters(a.letters + b.letters))
    raise VariantMismatchError(f"cannot combine elements of {family_key(a)} and {family_key(b)}")


def inverse(g: GroupElement) -> GroupElement:
    if isinstance(g, FreeWord):
        return FreeWord(g.rank, tuple(-s for s in reversed(g.letters)))
    if isinstance(g, MatModP):
        # det = 1 mod p, so the inverse is the adjugate reduced mod p.
        adj = _int_adjugate(g.entries)
        return MatModP(g.p, tuple(tuple(x % g.p for x in row) for row in adj))
    det = int_det(g.entries)
    adj = _int_adjugate(g.entries)
    return MatZ(tuple(tuple(det * x for x in row) for row in adj))


def element_to_json(g: GroupElement):
    if isinstance(g, FreeWord):
        return list(g.letters)
    return [list(row) for row in g.entries]


def element_label(g: GroupElement) -> str:
    """Short printable name, used for vertex/edge labels."""
    if isinstance(g, FreeWord):
        if not g.letters:
            return "e"
        if g.rank <= 26:
            return "".join(
                chr(ord("a") + abs(s) - 1) if s > 0 else chr(ord("A") + abs(s) - 1)
                for s in g.letters
            )
        return ".".join(str(s) for s in g.letters)
    body = ";".join(",".join(str(x) for x in row) for row in g.entries)
    return f"[{body}]"


# ---------------------------------------------------------------------------
# probability measures
# ---------------------------------------------------------------------------

class ProbMeasure:
    """Finite-support probability measure on one group family.

    Weights are floats; the total mass must be 1 within 1e-12.  Instances are
    immutable and iteration order is the (deterministic) insertion order.
    """

    __slots__ = ("_elems", "_weights", "_index", "_family")

    def __init__(self, support: Mapping[GroupElement, float] | Iterable[tuple[GroupElement, float]]):
        items = list(support.items()) if isinstance(support, Mapping) else list(support)
        if not items:
            raise ValueError("measure support must be non-empty")
        merged: dict[GroupElement, float] = {}
        fam = None
        for g, w in items:
            key = family_key(g)
            if fam is None:
                fam = key
            elif key != fam:
                raise VariantMismatchError(
                    f"support mixes families {fam} and {key}"
                )
            w = float(w)
            if not 0.0 < w < math.inf:
                raise ValueError(f"weight {w} for {g!r} must be positive and finite")
            merged[g] = merged.get(g, 0.0) + w
        total = math.fsum(merged.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1 within {WEIGHT_SUM_TOL}")
        object.__setattr__(self, "_elems", tuple(merged.keys()))
        object.__setattr__(self, "_weights", tuple(merged.values()))
        object.__setattr__(self, "_index", {g: i for i, g in enumerate(merged)})
        object.__setattr__(self, "_family", fam)

    def __setattr__(self, name, value):
        raise AttributeError("ProbMeasure is immutable")

    @classmethod
    def delta(cls, g: GroupElement) -> "ProbMeasure":
        return cls([(g, 1.0)])

    @classmethod
    def uniform(cls, elems: Sequence[GroupElement]) -> "ProbMeasure":
        n = len(elems)
        if len(set(elems)) != n:
            raise ValueError("uniform support contains repeated elements")
        return cls([(g, 1.0 / n) for g in elems])

    @property
    def family(self) -> tuple:
        return self._family

    @property
    def support_size(self) -> int:
        return len(self._elems)

    def elements(self) -> tuple[GroupElement, ...]:
        return self._elems

    def items(self) -> tuple[tuple[GroupElement, float], ...]:
        return tuple(zip(self._elems, self._weights))

    def weight_of(self, g: GroupElement, default: float = 0.0) -> float:
        i = self._index.get(g)
        return self._weights[i] if i is not None else default

    def __contains__(self, g: GroupElement) -> bool:
        return g in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbMeasure):
            return NotImplemented
        return dict(self.items()) == dict(other.items())

    def __repr__(self) -> str:
        parts = ", ".join(f"{element_label(g)}:{w:.6g}" for g, w in self.items())
        return f"ProbMeasure({{{parts}}})"

    def check_symmetric(self) -> bool:
        """True iff mu(g) equals mu(g^-1) exactly for every g in the support."""
        return all(self.weight_of(inverse(g)) == w for g, w in self.items())

    def reversed_measure(self) -> "ProbMeasure":
        """The measure g -> mu(g^-1)."""
        return ProbMeasure([(inverse(g), w) for g, w in self.items()])

    # -- JSON wire format ---------------------------------------------------

    def to_json_dict(self) -> dict:
        kind = self._family[0]
        if kind == "free":
            params = {"rank": self._family[1]}
        elif kind == "matmodp":
            params = {"d": self._family[1], "p": self._family[2]}
        else:
            params = {"d": self._family[1]}
        return {
            "variant": kind,
            "params": params,
            "support": [
                {"elem": element_to_json(g), "w": w} for g, w in self.items()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProbMeasure":
        if not isinstance(data, dict):
            raise ValueError(f"measure JSON must be an object, not {type(data).__name__}")
        try:
            kind = data["variant"]
            params = data.get("params", {})
            support = data["support"]
            if not isinstance(params, dict):
                raise ValueError("measure JSON 'params' must be an object")
            if not (isinstance(support, list) and all(isinstance(r, dict) for r in support)):
                raise ValueError("measure JSON 'support' must be a list of {\"elem\", \"w\"} objects")
            pairs = []
            for rec in support:
                raw, w = rec["elem"], rec["w"]
                if kind == "free":
                    if not isinstance(raw, list):
                        raise ValueError(f"free-word element {raw!r} must be a list of letters")
                    g: GroupElement = free_word(_as_int(params["rank"]), map(_as_int, raw))
                elif kind == "matmodp":
                    g = mat_mod_p(_as_int(params["p"]), raw)
                elif kind == "matz":
                    g = mat_z(raw)
                else:
                    raise ValueError(f"unknown variant {kind!r}")
                if isinstance(w, bool) or not isinstance(w, (int, float)):
                    raise ValueError(f"weight {w!r} is not a number")
                pairs.append((g, float(w)))
        except KeyError as exc:
            raise ValueError(f"measure JSON lacks the key {exc.args[0]!r}") from None
        return cls(pairs)

    @classmethod
    def from_json(cls, text: str) -> "ProbMeasure":
        return cls.from_json_dict(json.loads(text))


def convolve(mu: ProbMeasure, nu: ProbMeasure) -> ProbMeasure:
    """Convolution (mu * nu)(g) = sum_h mu(h) nu(h^-1 g).

    Support collisions are merged with exact (correctly rounded) summation,
    so algebraically equal results agree bit for bit.
    """
    if mu.family != nu.family:
        raise VariantMismatchError(f"cannot convolve {mu.family} with {nu.family}")
    buckets: dict[GroupElement, list[float]] = {}
    for g, wg in mu.items():
        for h, wh in nu.items():
            buckets.setdefault(mul(g, h), []).append(wg * wh)
    return ProbMeasure([(g, math.fsum(ws)) for g, ws in buckets.items()])


def convolution_powers(mu: ProbMeasure, n: int) -> Iterator[ProbMeasure]:
    """Yield mu, mu * mu, ... up to the n-th power.  Step k costs
    |support(mu^k)| * |support(mu)| products; the step that would take their
    sum past CONVOLUTION_BUDGET raises BudgetExceededError instead."""
    if n < 1:
        raise ValueError("power must be >= 1")
    power = mu
    work = 0
    yield power
    for _ in range(n - 1):
        work += power.support_size * mu.support_size
        if work > CONVOLUTION_BUDGET:
            raise BudgetExceededError(
                f"convolution budget {CONVOLUTION_BUDGET} exceeded at support size {power.support_size}"
            )
        power = convolve(power, mu)
        yield power


def convolution_power(mu: ProbMeasure, n: int) -> ProbMeasure:
    for power in convolution_powers(mu, n):
        pass
    return power


# ---------------------------------------------------------------------------
# return probabilities and the operator-norm lower bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReturnProbabilitySeries:
    """Return probabilities a_n = (mu~ * mu)^n (e) together with the roots
    r_n = a_n^(1/2n).

    a_n values are carried in log form: for walks with exponential decay the
    raw probabilities underflow float64 long before n reaches useful sizes.
    The roots are non-decreasing and r_n certifies a lower bound on the norm
    of the averaging operator, with limit equal to that norm.
    """

    log_values: np.ndarray
    roots: np.ndarray
    symmetric: bool
    method: str

    def __post_init__(self):
        la = np.asarray(self.log_values, dtype=float)
        r = np.asarray(self.roots, dtype=float)
        if la.shape != r.shape or la.ndim != 1 or la.size < 1:
            raise ValueError("log_values and roots must be equal-length 1-d arrays")
        if np.any(la > 1e-9):
            raise ValueError("return probabilities must stay <= 1")
        if np.any(np.diff(r) < -1e-12):
            raise ValueError("roots r_n must be non-decreasing")
        la.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "log_values", la)
        object.__setattr__(self, "roots", r)

    @property
    def values(self) -> np.ndarray:
        """a_n as plain floats; underflows to 0.0 for very deep series."""
        return np.exp(self.log_values)

    @property
    def n_max(self) -> int:
        return int(self.log_values.size)

    @property
    def certified_lower_bound(self) -> float:
        return float(self.roots[-1])


def _radial_uniform_rank(mu: ProbMeasure) -> int | None:
    """Rank N if mu is the uniform measure on all 2N signed generators."""
    if mu.family[0] != "free":
        return None
    rank = mu.family[1]
    if mu.support_size != 2 * rank:
        return None
    want = 1.0 / (2 * rank)
    seen = set()
    for g, w in mu.items():
        if len(g.letters) != 1 or abs(w - want) > WEIGHT_SUM_TOL:
            return None
        seen.add(g.letters[0])
    return rank if len(seen) == 2 * rank else None


def _birth_death_log_returns(
    p_up: float, p_down: float, p_hold: float, hold0: float, steps: int, record_stride: int
) -> np.ndarray:
    """Log return probabilities of the homogeneous birth-death chain on the
    non-negative integers started at 0 (up/down/hold away from 0; at 0 it
    holds with `hold0` and otherwise moves up).

    Uses the first-return decomposition: with phi the generating series of
    the first passage from 1 to 0 (phi = z q + z h phi + z p phi^2) and
    H = z hold0 + z (1 - hold0) phi the first-return series, the return
    series is R = 1 / (1 - H).  Coefficients are tilted by the walk's decay
    rate rho = hold + 2 sqrt(p q), which keeps them polynomially sized, so
    arbitrarily deep series never underflow.  Returns log a at multiples of
    `record_stride`.

    Both series are algebraic, so each coefficient costs O(1).  In tilted
    units the discriminant of the phi quadratic is Delta = (1 - z)(1 - c z)
    with c = 2h - 1, and s = sqrt(Delta) obeys the three-term recurrence
    (k + 1) s_{k+1} = (1 + c)(k - 1/2) s_k - c (k - 2) s_{k-1}, which is
    stable forward.  Then phi_k = -s_{k+1} / (2p) for k >= 1, and with
    alpha = u0 / (2p) and A = (1 - alpha) + (alpha h - h0) z,
    1 - H = A + alpha s, so D R = A - alpha s with D = A^2 - alpha^2 Delta of
    degree 2.  Dividing by D forward amplifies errors by 1/|zeta| per step,
    zeta a root of D: that is harmless when the roots lie on or outside the
    unit circle (every lazy-line walk, and the radial walk of rank 1).  The
    radial walk of rank N >= 2 has both roots at +-sqrt(2N - 1)/N, inside the
    disk; there the same relation runs backward (Miller's method) from zeros
    at `steps` + pad, where pad steps shrink the starting error by e^-40.
    """
    rho = p_hold + 2.0 * math.sqrt(p_up * p_down)
    h = p_hold / rho
    p = p_up / rho
    h0 = hold0 / rho
    u0 = (1.0 - hold0) / rho
    c = 2.0 * h - 1.0
    alpha = u0 / (2.0 * p)
    a0 = 1.0 - alpha
    a1 = alpha * h - h0
    d0 = a0 * a0 - alpha * alpha
    d1 = 2.0 * a0 * a1 + alpha * alpha * (1.0 + c)
    d2 = a1 * a1 - alpha * alpha * c

    roots = np.roots([d2, d1, d0])
    widest = float(np.max(np.abs(roots))) if roots.size else math.inf
    backward = widest < 1.0 - 1e-9
    terms = steps + 1 + (math.ceil(40.0 / -math.log(widest)) if backward else 0)

    s = [0.0] * terms  # steps >= 1, so terms >= 2
    s[0] = 1.0
    s[1] = -(1.0 + c) / 2.0
    for k in range(1, terms - 1):
        s[k + 1] = ((1.0 + c) * (k - 0.5) * s[k] - c * (k - 2) * s[k - 1]) / (k + 1)
    rhs = [-alpha * x for x in s]  # coefficients of A - alpha s
    rhs[0] += a0
    rhs[1] += a1

    ret = [0.0] * terms
    if backward:
        for k in range(terms - 1, 1, -1):
            ret[k - 2] = (rhs[k] - d0 * ret[k] - d1 * ret[k - 1]) / d2
    else:
        prev = prev2 = 0.0
        for k in range(terms):
            prev, prev2 = (rhs[k] - d1 * prev - d2 * prev2) / d0, prev
            ret[k] = prev

    log_rho = math.log(rho)
    out = []
    for t in range(record_stride, steps + 1, record_stride):
        out.append(math.log(ret[t]) + t * log_rho)
    return np.array(out)


def _radial_tree_log_returns(rank: int, n_max: int) -> np.ndarray:
    """a_n for the walk uniform on 2N free generators, via the distance chain
    on the non-negative integers: p(0->1) = 1, p(k->k+1) = (2N-1)/2N,
    p(k->k-1) = 1/2N.  One a_n step is two walk steps."""
    two_n = 2.0 * rank
    return _birth_death_log_returns(
        p_up=(two_n - 1.0) / two_n,
        p_down=1.0 / two_n,
        p_hold=0.0,
        hold0=0.0,
        steps=2 * n_max,
        record_stride=2,
    )


def _lazy_line_log_returns(hold_weight: float, step_weight: float, n_max: int) -> np.ndarray:
    """a_n for a symmetric measure supported on {e, c, c^-1} with c of
    infinite order: the distance chain holds with the loop weight and moves
    with the step weight (doubled out of 0)."""
    return _birth_death_log_returns(
        p_up=step_weight,
        p_down=step_weight,
        p_hold=hold_weight,
        hold0=hold_weight,
        steps=n_max,
        record_stride=1,
    )


def spectral_radius_return(mu: ProbMeasure, n_max: int) -> ReturnProbabilitySeries:
    """Return-probability series of mu~ * mu up to n_max.

    r_{n_max} is a certified lower bound on the norm of the averaging
    operator of mu on l2 of the group, and the r_n converge to that norm.
    Radial and one-dimensional reductions keep the cost linear in n_max for
    the free-generator and two-point cases: both reduce to a birth-death
    chain whose return series satisfies a recurrence of fixed order, so
    each term costs O(1).  Anything else falls back to `convolution_powers`.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > SERIES_BUDGET:
        raise BudgetExceededError(f"n_max {n_max} is over the series budget {SERIES_BUDGET}")

    rank = _radial_uniform_rank(mu)
    if rank is not None:
        logs = _radial_tree_log_returns(rank, n_max)
        return _finish_series(logs, symmetric=True, method="radial_tree")

    nu = convolve(mu.reversed_measure(), mu)
    non_identity = [g for g in nu.elements() if not is_identity(g)]
    if not non_identity:
        logs = np.zeros(n_max)
        return _finish_series(logs, symmetric=True, method="point_mass")
    if mu.family[0] == "free" and len(non_identity) == 2:
        c, c_inv = non_identity
        if inverse(c) == c_inv:
            logs = _lazy_line_log_returns(
                nu.weight_of(identity_like(c)), nu.weight_of(c), n_max
            )
            return _finish_series(logs, symmetric=mu.check_symmetric(), method="lazy_line")

    e = identity_like(nu.elements()[0])
    try:
        logs = [math.log(power.weight_of(e)) for power in convolution_powers(nu, n_max)]
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"direct {exc} and no radial reduction applies; reduce n_max or use a reducible measure"
        ) from None
    return _finish_series(np.array(logs), symmetric=mu.check_symmetric(), method="direct")


def _finish_series(log_values: np.ndarray, symmetric: bool, method: str) -> ReturnProbabilitySeries:
    n = np.arange(1, log_values.size + 1)
    roots = np.exp(log_values / (2.0 * n))
    return ReturnProbabilitySeries(log_values, roots, symmetric, method)


# ---------------------------------------------------------------------------
# adaptedness
# ---------------------------------------------------------------------------

def special_linear_order(d: int, p: int) -> int:
    """|SL_d(F_p)|."""
    order = p ** (d * (d - 1) // 2)
    for k in range(2, d + 1):
        order *= p**k - 1
    return order


def explore_orbit(base, moves, inverse_of, inside=None):
    """Breadth-first orbit of the hashable point `base` under the maps `moves`.

    Returns (points, target): the points in discovery order, so their
    distance from `base` never decreases along the list, and the action
    table as one flat list in (point, move) order.  Entry i * len(moves) + k
    is the index of the image of point i under move k, or -1 for a stub: a
    move to a new point that fails `inside(point, depth)`, depth being that
    point's distance from `base`.  Raises BudgetExceededError once more than
    ORBIT_BUDGET points are found.

    Move inverse_of[k] undoes move k, and the caller must make it the exact
    inverse map.  An edge found from v to w = moves[k](v) also fills its
    inverse slot, entry (w, inverse_of[k]) = v; a slot whose inverse edge is
    known is read, not computed, so each edge pair costs one move and each
    stub one, and the result is what computing every slot would give.
    """
    k = len(moves)
    index = {base: 0}
    points = [base]
    depth = [0]
    target = [None] * k
    for head, v in enumerate(points):  # points grows while the loop reads it
        d = depth[head] + 1
        row = head * k
        for j, (move, back) in enumerate(zip(moves, inverse_of)):
            if target[row + j] is not None:
                continue
            w = move(v)
            iw = index.get(w)
            if iw is None:
                if inside is not None and not inside(w, d):
                    target[row + j] = -1
                    continue
                iw = len(points)
                if iw >= ORBIT_BUDGET:
                    raise BudgetExceededError(f"orbit enumeration exceeded {iw} points at distance {d}")
                index[w] = iw
                points.append(w)
                depth.append(d)
                target += [None] * k
            target[row + j] = iw
            target[iw * k + back] = head
    return points, target


def group_closure(generators: Sequence[GroupElement]) -> set[GroupElement]:
    """Subgroup generated by the given elements, via breadth-first closure."""
    if not generators:
        raise ValueError("need at least one generator")
    n = len(generators)
    gens = list(generators) + [inverse(g) for g in generators]
    moves = [partial(mul, g) for g in gens]
    points, _target = explore_orbit(identity_like(gens[0]), moves, [*range(n, 2 * n), *range(n)])
    return set(points)


def check_adapted(mu: ProbMeasure) -> bool:
    """True iff the support of mu generates the whole ambient group.

    Decidable here for the mod-p family (finite closure) and for free-group
    measures whose support covers every generator by a single letter.
    """
    kind = mu.family[0]
    if kind == "matmodp":
        _, d, p = mu.family
        closure = group_closure(mu.elements())
        return len(closure) == special_linear_order(d, p)
    if kind == "free":
        rank = mu.family[1]
        if all(is_identity(g) for g in mu.elements()):
            return False
        touched = {
            abs(g.letters[0]) for g in mu.elements() if len(g.letters) == 1
        }
        if touched == set(range(1, rank + 1)):
            return True
        raise UnsupportedVariantError(
            "free-group adaptedness is only decided for supports that cover "
            "every generator with a single-letter word"
        )
    raise UnsupportedVariantError(
        "subgroup membership for integer matrices is out of scope"
    )
