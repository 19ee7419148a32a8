"""Builders that turn the worked examples into labeled graphs and chains:
truncated regular trees, the projected half-line walk over a local field,
Cayley graphs of finite matrix groups, and Schreier graphs of the dual torus
action and of shift actions on finite configurations.

Graphs use left actions throughout: the edge (v -> g.v) carries the label of
g, and the reverse edge carries the label of g^-1.  A graph is its action
table, `target[v, k]` = the vertex generator k takes v to; a move that would
leave a truncated vertex set is a boundary stub, -1 in the table, so that
compressions of the ambient operator stay genuine subspace restrictions.

Cayley and torus Schreier graphs are orbits of a group action, and one
enumeration builds them: `group_algebra.explore_orbit`, given the action of
each generator as a move, the generators' inverse pairing and, for truncated
orbits, the rule that keeps a point inside, writes the table row by row.  An
edge it finds fills its inverse slot too, so each edge pair costs one action.
It numbers vertices in breadth-first order, so distance from the basepoint
never decreases along the vertex index; `build_tree` fills its table in the
same order.
Configuration-shift orbits need no enumeration: the free group acts freely
on them, so their balls are tree balls.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError
from .group_algebra import (
    FreeWord,
    GroupElement,
    MatModP,
    MatZ,
    element_label,
    explore_orbit,
    free_generators,
    free_word,
    identity_like,
    inverse,
    mat_mod_p,
    mul,
)
from .markov_core import WeightedChain

TREE_LABEL_LIMIT = 200_000
TREE_BUDGET = 4_000_000


class LabeledGraph:
    """Generator-labeled action graph on an indexed vertex set.

    `target[v, k]` is the vertex that generator k takes v to, or -1 for a
    stub, a move that leaves the truncation, so every vertex has one edge or
    stub per generator.  `generators[inverse_of[k]]` is the inverse of
    `generators[k]`.  The edge and stub arrays are read-only arrays derived
    from the table, in (vertex, generator) order.
    """

    def __init__(
        self,
        generators: Sequence,
        gen_names: Sequence[str],
        inverse_of: Sequence[int],
        target,
        basepoint: int = 0,
        labels: Sequence[str] | None = None,
    ):
        self.generators = tuple(generators)
        self.gen_names = tuple(gen_names)
        self.inverse_of = tuple(int(i) for i in inverse_of)
        self.target = np.asarray(target, dtype=np.int64)
        self.target.setflags(write=False)
        self.basepoint = int(basepoint)
        self.labels = tuple(labels) if labels is not None else None
        validate_labeled_graph(self)

    @property
    def n_vertices(self) -> int:
        return self.target.shape[0]

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    @cached_property
    def _edges(self) -> tuple[np.ndarray, ...]:
        src, gen = np.nonzero(self.target >= 0)
        return _read_only(src, self.target[src, gen], gen)

    @cached_property
    def _stubs(self) -> tuple[np.ndarray, ...]:
        return _read_only(*np.nonzero(self.target < 0))

    edge_src = property(lambda self: self._edges[0])
    edge_dst = property(lambda self: self._edges[1])
    edge_gen = property(lambda self: self._edges[2])
    stub_src = property(lambda self: self._stubs[0])
    stub_gen = property(lambda self: self._stubs[1])

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    @cached_property
    def distances_from_basepoint(self) -> np.ndarray:
        """Graph distance from the basepoint (-1 for unreachable vertices),
        level by level over the rows of the table."""
        dist = np.full(self.n_vertices, -1, dtype=np.int64)
        frontier = np.array([self.basepoint])
        d = 0
        while frontier.size:
            dist[frontier] = d
            d += 1
            step = self.target[frontier].ravel()
            step = step[step >= 0]
            step = np.sort(step[dist[step] < 0])
            frontier = step[np.diff(step, prepend=-1) > 0]
        return dist

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(n={self.n_vertices}, k={self.n_generators}, "
            f"edges={self.edge_src.size}, stubs={self.stub_src.size})"
        )


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def validate_labeled_graph(g: LabeledGraph) -> None:
    """Check the shape and range of the action table and that every edge's
    inverse edge leads back to its source."""
    k = g.n_generators
    if sorted(g.inverse_of) != list(range(k)):
        raise ValueError("inverse_of must be a permutation of the generators")
    for i, j in enumerate(g.inverse_of):
        if g.inverse_of[j] != i:
            raise ValueError("inverse_of must be an involution")
    if g.target.ndim != 2 or g.target.shape[1] != k:
        raise ValueError(f"target must have one column per generator, got shape {g.target.shape}")
    n = g.n_vertices
    if n == 0:
        raise ValueError("graph needs at least one vertex")
    if not (0 <= g.basepoint < n):
        raise ValueError("basepoint out of range")
    if g.target.size and not (-1 <= g.target.min() and g.target.max() < n):
        raise ValueError(f"target entries must lie in [-1, {n})")
    src, dst, gen = g.edge_src, g.edge_dst, g.edge_gen
    back = g.target[dst, np.asarray(g.inverse_of, dtype=np.int64)[gen]]
    if np.any(back < 0):
        bad = int(np.flatnonzero(back < 0)[0])
        raise ValueError(f"edge ({src[bad]} -> {dst[bad]}, gen {gen[bad]}) has no inverse edge")
    if np.any(back != src):
        bad = int(np.flatnonzero(back != src)[0])
        raise ValueError(
            f"inverse edge of ({src[bad]} -> {dst[bad]}) lands on "
            f"{back[bad]}, not back on the source"
        )


# ---------------------------------------------------------------------------
# regular trees
# ---------------------------------------------------------------------------

def tree_ball_size(d: int, depth: int) -> int:
    if depth == 0:
        return 1
    if d == 2:
        return 2 * depth + 1
    return 1 + d * ((d - 1) ** depth - 1) // (d - 2)


def build_tree(d: int, depth: int) -> LabeledGraph:
    """Ball of the given depth in the d-regular tree, rooted at the basepoint.

    For even d = 2N the ball is the Cayley ball of the free group of rank N
    (generators and their inverses label the edges); odd d uses d self-inverse
    abstract letters.  Edges from the outermost sphere to the rest of the
    tree become stubs.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = tree_ball_size(d, depth)
    if n > TREE_BUDGET:
        raise BudgetExceededError(f"tree ball has {n} vertices, cap is {TREE_BUDGET}")

    if d % 2 == 0:
        gens: list = free_generators(d // 2)
        inverse_of = [i ^ 1 for i in range(d)]
    else:
        gens = [f"s{i}" for i in range(d)]
        inverse_of = list(range(d))
    gen_names = [element_label(g) if isinstance(g, FreeWord) else g for g in gens]

    # one outward rule per level: every slot not yet filled, which is every
    # generator at the root and all but the one back to the parent below it;
    # the outer sphere's slots stay -1, the stubs
    target = np.full((n, d), -1, dtype=np.int64)
    inv = np.asarray(inverse_of)
    labels = ["e"] if n <= TREE_LABEL_LIMIT else None
    level = np.zeros(1, dtype=np.int64)
    for _ in range(depth):
        rows, gen = np.nonzero(target[level] < 0)
        src = level[rows]
        level = np.arange(level[-1] + 1, level[-1] + 1 + src.size)
        target[src, gen] = level
        target[level, inv[gen]] = src
        if labels is not None:
            labels += [
                gen_names[k] + (labels[v] if v else "") for v, k in zip(src.tolist(), gen.tolist())
            ]

    return LabeledGraph(gens, gen_names, inverse_of, target, labels=labels)


# ---------------------------------------------------------------------------
# the half-line projection of the (q+1)-regular tree walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfLineSpec:
    """Parameters of the truncated half-line walk: residue field size q,
    index of the last kept state, and the truncation mode.

    Mode "compression" drops the forward probability of the last state
    (substochastic, a genuine compression); mode "lumped" sends the last
    state back with probability one and gives it the unique lumped mass that
    restores detailed balance.
    """

    q: int
    length: int
    mode: str

    def __post_init__(self):
        if not _is_prime_power(self.q):
            raise ValueError(f"q must be a prime power >= 2, got {self.q}")
        if self.length < 2:
            raise ValueError("length must be >= 2")
        if self.mode not in ("compression", "lumped"):
            raise ValueError(f"mode must be 'compression' or 'lumped', got {self.mode!r}")


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    # the least factor of q is at most isqrt(q), or q is prime
    p = next((p for p in range(2, math.isqrt(q) + 1) if q % p == 0), q)
    while q % p == 0:
        q //= p
    return q == 1


def halfline_measure(q: int, length: int) -> list[float]:
    """Stationary weights in the rescaled normalization: m(x_0) = 1/(q+1),
    m(x_n) = q^-n for n >= 1."""
    return [1.0 / (q + 1)] + [float(q) ** (-n) for n in range(1, length + 1)]


def build_pgl2_halfline(spec: HalfLineSpec) -> WeightedChain:
    """The projected half-line walk truncated at x_length.

    Interior transitions: p(x_0, x_1) = 1, p(x_n, x_{n+1}) = 1/(q+1) and
    p(x_n, x_{n-1}) = q/(q+1) for n >= 1.
    """
    q, n_last = spec.q, spec.length
    forward = 1.0 / (q + 1)
    backward = q / (q + 1.0)
    m = halfline_measure(q, n_last)
    trans: list[tuple[int, int, float]] = [(0, 1, 1.0)]
    for i in range(1, n_last):
        trans.append((i, i - 1, backward))
        trans.append((i, i + 1, forward))
    if spec.mode == "lumped":
        trans.append((n_last, n_last - 1, 1.0))
        m[n_last] = m[n_last - 1] / (q + 1)
        row_mode = "stochastic"
    else:
        trans.append((n_last, n_last - 1, backward))
        row_mode = "substochastic"
    states = [f"x{i}" for i in range(n_last + 1)]
    return WeightedChain(states, m, trans, row_mode=row_mode)


def pgl2_cheeger_bound(q: int) -> float:
    """Closed-form lower bound for the Cheeger constant of the untruncated
    half-line walk: min((q-1)/(q+1), 4q^2/((q+1)(q^2-1)))."""
    if not _is_prime_power(q):
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    return min((q - 1) / (q + 1), 4.0 * q * q / ((q + 1) * (q * q - 1)))


# ---------------------------------------------------------------------------
# Cayley graphs of finite matrix groups
# ---------------------------------------------------------------------------

def elementary_generators(d: int, p: int) -> list[MatModP]:
    """E_ij and E_ij^-1 for all i != j, in a fixed deterministic order."""
    gens: list[MatModP] = []
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            for sign in (1, -1):
                rows = [[1 if a == b else 0 for b in range(d)] for a in range(d)]
                rows[i][j] = sign
                gens.append(mat_mod_p(p, rows))
    return gens


def _check_inverse_closed(generators: Sequence[GroupElement]) -> list[int]:
    """Pair every generator with an inverse partner in the list.

    Self-inverse elements pair with themselves, so duplicated involutions
    (e.g. elementary matrices mod 2) still yield a valid involution map.
    """
    gens = list(generators)
    k = len(gens)
    assigned = [-1] * k
    for i in range(k):
        if assigned[i] >= 0:
            continue
        gi = inverse(gens[i])
        if gi == gens[i]:
            assigned[i] = i
            continue
        partner = next(
            (j for j in range(k) if assigned[j] < 0 and j != i and gens[j] == gi),
            None,
        )
        if partner is None:
            raise ValueError(
                f"generator list must be closed under inverses; missing inverse of "
                f"{element_label(gens[i])}"
            )
        assigned[i], assigned[partner] = partner, i
    return assigned


def _orbit_graph(generators, moves, base, label, inside=None) -> LabeledGraph:
    """The orbit of `base` under `moves`, the action of each generator, as
    `explore_orbit` finds it; vertex i is the i-th point found, labeled by
    `label(point)`."""
    inverse_of = _check_inverse_closed(generators)
    points, target = explore_orbit(base, moves, inverse_of, inside)
    return LabeledGraph(
        generators,
        [element_label(g) for g in generators],
        inverse_of,
        np.reshape(np.array(target, dtype=np.int64), (len(points), len(generators))),
        labels=[label(v) for v in points],
    )


def build_cayley(
    generators: Sequence[GroupElement], expect_order: int | None = None
) -> LabeledGraph:
    """Cayley graph of the group generated by `generators`, via breadth-first
    enumeration from the identity.  Edges act by left multiplication."""
    if not generators:
        raise ValueError("need at least one generator")
    moves = [partial(mul, g) for g in generators]
    graph = _orbit_graph(generators, moves, identity_like(generators[0]), element_label)
    if expect_order is not None and graph.n_vertices != expect_order:
        raise ValueError(f"generators produced a group of order {graph.n_vertices}, expected {expect_order}")
    return graph


# ---------------------------------------------------------------------------
# Schreier graphs: dual torus action and configuration shifts
# ---------------------------------------------------------------------------

def dual_action_matrix(g: MatZ) -> tuple[tuple[int, ...], ...]:
    """The matrix of the dual action v -> (g^t)^-1 v, exact over the integers."""
    return inverse(MatZ(tuple(zip(*g.entries)))).entries


def _apply_rows(rows, vec: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([sum(map(operator.mul, row, vec)) for row in rows])


def build_torus_schreier(
    generators: Sequence[MatZ],
    basepoint: Sequence[int],
    radius: int,
) -> LabeledGraph:
    """Portion of the dual-action orbit of `basepoint` inside the sup-norm
    ball of the given radius, explored by paths that stay inside the ball.
    Moves that leave the ball are recorded as stubs.  The enumeration stops
    with BudgetExceededError past `group_algebra.ORBIT_BUDGET` points."""
    base = tuple(int(x) for x in basepoint)
    if all(x == 0 for x in base):
        raise ValueError("basepoint must be a non-zero integer vector")
    if max(map(abs, base)) > radius:
        raise ValueError(
            f"basepoint {base} lies outside the sup-norm ball of radius {radius}"
        )
    for g in generators:
        if g.dim != len(base):
            raise ValueError(
                f"basepoint {base} has {len(base)} coordinates, but generator "
                f"{element_label(g)} acts on dimension {g.dim}"
            )
    moves = [partial(_apply_rows, dual_action_matrix(g)) for g in generators]
    return _orbit_graph(generators, moves, base, str, inside=lambda w, _depth: max(map(abs, w)) <= radius)


def sanov_generators() -> list[MatZ]:
    """The free pair (1 2; 0 1), (1 0; 2 1) with inverses, in a fixed order."""
    a = MatZ(((1, 2), (0, 1)))
    b = MatZ(((1, 0), (2, 1)))
    return [a, inverse(a), b, inverse(b)]


def build_bernoulli_schreier(
    rank: int,
    config: Iterable[FreeWord] | Iterable[Sequence[int]],
    radius: int,
) -> LabeledGraph:
    """Schreier graph of the shift action on a finite configuration C: the
    group translates every member word, and the graph keeps the part of the
    orbit reachable by words of length at most `radius`.

    A free group is torsion-free, so g.C = C for a finite non-empty C forces
    g = e (the powers of g would permute the finite set C, so some g^k fixes
    a word and g^k = e).  The action on the orbit is therefore free, g -> g.C
    carries the Cayley ball onto the orbit ball, and the graph is the tree
    ball `build_tree(2 * rank, radius)`, its vertex g.C labeled by g.
    """
    words = {c if isinstance(c, FreeWord) else free_word(rank, c) for c in config}
    if not words:
        raise ValueError("configuration must be a non-empty finite set of words")
    if any(w.rank != rank for w in words):
        raise ValueError("configuration words must match the stated rank")
    return build_tree(2 * rank, radius)


# ---------------------------------------------------------------------------
# exports and conversions
# ---------------------------------------------------------------------------

def graph_to_simple_walk_chain(graph: LabeledGraph) -> WeightedChain:
    """Simple random walk on the realized edges: m = out-degree and each edge
    gets probability 1/degree (parallel labels accumulate)."""
    n = graph.n_vertices
    degree = np.bincount(graph.edge_src, minlength=n)
    if np.any(degree == 0):
        raise ValueError("every vertex needs at least one realized edge")
    keys, first, pair = np.unique(
        graph.edge_src * n + graph.edge_dst, return_index=True, return_inverse=True
    )
    # bincount adds in edge order, and the pairs go out in first-visit order
    weight = np.bincount(pair, weights=1.0 / degree[graph.edge_src])
    order = np.argsort(first)
    keys = keys[order]
    trans = np.column_stack([keys // n, keys % n, weight[order]])
    labels = graph.labels if graph.labels is not None else range(n)
    return WeightedChain(labels, degree.astype(float), trans, row_mode="stochastic")


def graph_to_edge_list_text(graph: LabeledGraph) -> str:
    lines = [
        f"{i} {j} {graph.gen_names[g]}"
        for i, j, g in zip(
            graph.edge_src.tolist(), graph.edge_dst.tolist(), graph.edge_gen.tolist()
        )
    ]
    return "\n".join(lines) + "\n"
