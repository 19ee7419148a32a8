"""Builders that turn the worked examples into labeled graphs and chains:
truncated regular trees, the projected half-line walk over a local field,
Cayley graphs of finite matrix groups, and Schreier graphs of the dual torus
action and of shift actions on finite configurations.

Graphs use left actions throughout: the edge (v -> g.v) carries the label of
g, and the reverse edge carries the label of g^-1.  Edges that would leave a
truncated vertex set are recorded as boundary stubs so that compressions of
the ambient operator stay genuine subspace restrictions.

Cayley and torus Schreier graphs are orbits of a group action, and one
enumeration builds them: `group_algebra.explore_orbit`, given the action of
each generator as a move and, for truncated orbits, the rule that keeps a
point inside.  It numbers vertices in breadth-first order, so distance from
the basepoint never decreases along the vertex index.  Configuration-shift
orbits need no enumeration: the free group acts freely on them, so their
balls are tree balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

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

    Every vertex has exactly one outgoing edge per generator; an edge whose
    target fell outside the truncation is kept as a stub (source, generator).
    `generators[inverse_of[k]]` is the inverse of `generators[k]`.
    """

    def __init__(
        self,
        n_vertices: int,
        generators: Sequence,
        gen_names: Sequence[str],
        inverse_of: Sequence[int],
        edge_src,
        edge_dst,
        edge_gen,
        stub_src=(),
        stub_gen=(),
        basepoint: int = 0,
        labels: Sequence[str] | None = None,
    ):
        self.n_vertices = int(n_vertices)
        self.generators = tuple(generators)
        self.gen_names = tuple(gen_names)
        self.inverse_of = tuple(int(i) for i in inverse_of)
        self.edge_src = np.asarray(edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self.edge_gen = np.asarray(edge_gen, dtype=np.int64)
        self.stub_src = np.asarray(stub_src, dtype=np.int64)
        self.stub_gen = np.asarray(stub_gen, dtype=np.int64)
        self.basepoint = int(basepoint)
        self.labels = tuple(labels) if labels is not None else None
        for a in (self.edge_src, self.edge_dst, self.edge_gen, self.stub_src, self.stub_gen):
            a.setflags(write=False)
        validate_labeled_graph(self)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    @cached_property
    def distances_from_basepoint(self) -> np.ndarray:
        """Graph distance from the basepoint (-1 for unreachable vertices)."""
        n = self.n_vertices
        dist = np.full(n, -1, dtype=np.int64)
        dist[self.basepoint] = 0
        if self.edge_src.size == 0:
            return dist
        # boolean entries add by "or", so parallel edges cannot overflow a count
        adj = sp.csr_matrix(
            (np.ones(self.edge_src.size, dtype=bool), (self.edge_dst, self.edge_src)),
            shape=(n, n),
        )
        frontier = np.zeros(n, dtype=bool)
        frontier[self.basepoint] = True
        d = 0
        while frontier.any():
            d += 1
            frontier = (adj @ frontier) & (dist < 0)
            dist[frontier] = d
        return dist

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(n={self.n_vertices}, k={self.n_generators}, "
            f"edges={self.edge_src.size}, stubs={self.stub_src.size})"
        )


def validate_labeled_graph(g: LabeledGraph) -> None:
    """Check totality (one outgoing slot per generator per vertex, counting
    stubs) and the presence of every inverse edge."""
    k = g.n_generators
    if sorted(g.inverse_of) != list(range(k)):
        raise ValueError("inverse_of must be a permutation of the generators")
    for i, j in enumerate(g.inverse_of):
        if g.inverse_of[j] != i:
            raise ValueError("inverse_of must be an involution")
    if g.n_vertices == 0:
        raise ValueError("graph needs at least one vertex")
    if not (0 <= g.basepoint < g.n_vertices):
        raise ValueError("basepoint out of range")
    slots = np.concatenate([g.edge_src * k + g.edge_gen, g.stub_src * k + g.stub_gen])
    slots.sort()
    if slots.size != g.n_vertices * k or not np.array_equal(
        slots, np.arange(g.n_vertices * k)
    ):
        raise ValueError("action is not total: each vertex needs one edge or stub per generator")
    # inverse-edge presence: (dst, inv(gen)) must map back to src
    edge_keys = g.edge_src * k + g.edge_gen
    order = np.argsort(edge_keys)
    sorted_keys = edge_keys[order]
    sorted_dst = g.edge_dst[order]
    inv = np.asarray(g.inverse_of)
    want_keys = g.edge_dst * k + inv[g.edge_gen]
    pos = np.searchsorted(sorted_keys, want_keys)
    ok = (pos < sorted_keys.size) & (sorted_keys[np.minimum(pos, sorted_keys.size - 1)] == want_keys)
    if not ok.all():
        bad = int(np.nonzero(~ok)[0][0])
        raise ValueError(
            f"edge ({g.edge_src[bad]} -> {g.edge_dst[bad]}, gen {g.edge_gen[bad]}) "
            "has no inverse edge"
        )
    back = sorted_dst[np.minimum(pos, sorted_keys.size - 1)]
    if not np.array_equal(back, g.edge_src):
        bad = int(np.nonzero(back != g.edge_src)[0][0])
        raise ValueError(
            f"inverse edge of ({g.edge_src[bad]} -> {g.edge_dst[bad]}) lands on "
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

    parent = np.full(n, -1, dtype=np.int64)
    incoming = np.full(n, -1, dtype=np.int64)  # generator index that produced the vertex
    level_start = [0, 1]
    next_free = 1
    current = np.array([0], dtype=np.int64)
    for level in range(1, depth + 1):
        if level == 1:
            gen_rows = np.broadcast_to(np.arange(d), (1, d))
            child_gens = gen_rows.reshape(-1)
            parents_rep = np.zeros(d, dtype=np.int64)
        else:
            k = current.size
            all_g = np.broadcast_to(np.arange(d), (k, d))
            banned = np.asarray(inverse_of)[incoming[current]]
            keep = all_g != banned[:, None]
            child_gens = all_g[keep]
            parents_rep = np.repeat(current, d - 1)
        count = child_gens.size
        children = np.arange(next_free, next_free + count, dtype=np.int64)
        parent[children] = parents_rep
        incoming[children] = child_gens
        next_free += count
        level_start.append(next_free)
        current = children

    non_root = np.arange(1, n, dtype=np.int64)
    inv = np.asarray(inverse_of)
    edge_src = np.concatenate([parent[non_root], non_root])
    edge_dst = np.concatenate([non_root, parent[non_root]])
    edge_gen = np.concatenate([incoming[non_root], inv[incoming[non_root]]])

    # outermost sphere: remaining generator slots point out of the ball
    outer = np.arange(level_start[-2], n, dtype=np.int64) if depth >= 1 else np.array([], dtype=np.int64)
    if depth == 0:
        stub_src = np.repeat(0, d)
        stub_gen = np.arange(d)
    else:
        kk = outer.size
        all_g = np.broadcast_to(np.arange(d), (kk, d))
        banned = inv[incoming[outer]]
        keep = all_g != banned[:, None]
        stub_gen = all_g[keep]
        stub_src = np.repeat(outer, d - 1)

    labels = None
    if n <= TREE_LABEL_LIMIT:
        names = list(gen_names)
        out = [""] * n
        out[0] = "e"
        for v in range(1, n):
            prefix = names[incoming[v]]
            out[v] = prefix if parent[v] == 0 else prefix + out[parent[v]]
        labels = out

    return LabeledGraph(
        n_vertices=n,
        generators=gens,
        gen_names=gen_names,
        inverse_of=inverse_of,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_gen=edge_gen,
        stub_src=stub_src,
        stub_gen=stub_gen,
        basepoint=0,
        labels=labels,
    )


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


def _orbit_graph(generators, inverse_of, orbit, label) -> LabeledGraph:
    """The labeled graph of an `explore_orbit` result; vertex i is the i-th
    point found, labeled by `label(point)`."""
    points, (edge_src, edge_dst, edge_gen), (stub_src, stub_gen) = orbit
    return LabeledGraph(
        n_vertices=len(points),
        generators=tuple(generators),
        gen_names=[element_label(g) for g in generators],
        inverse_of=inverse_of,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_gen=edge_gen,
        stub_src=stub_src,
        stub_gen=stub_gen,
        basepoint=0,
        labels=[label(v) for v in points],
    )


def build_cayley(
    generators: Sequence[GroupElement], expect_order: int | None = None
) -> LabeledGraph:
    """Cayley graph of the group generated by `generators`, via breadth-first
    enumeration from the identity.  Edges act by left multiplication."""
    if not generators:
        raise ValueError("need at least one generator")
    inverse_of = _check_inverse_closed(generators)
    moves = [partial(mul, g) for g in generators]
    orbit = explore_orbit(identity_like(generators[0]), moves)
    order = len(orbit[0])
    if expect_order is not None and order != expect_order:
        raise ValueError(
            f"generators produced a group of order {order}, expected {expect_order}"
        )
    return _orbit_graph(generators, inverse_of, orbit, element_label)


# ---------------------------------------------------------------------------
# Schreier graphs: dual torus action and configuration shifts
# ---------------------------------------------------------------------------

def dual_action_matrix(g: MatZ) -> tuple[tuple[int, ...], ...]:
    """The matrix of the dual action v -> (g^t)^-1 v, exact over the integers."""
    d = g.dim
    transpose = tuple(tuple(g.entries[j][i] for j in range(d)) for i in range(d))
    return inverse(MatZ(transpose)).entries


def _apply_rows(rows, vec: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(r[j] * vec[j] for j in range(len(vec))) for r in rows)


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
    if max(abs(x) for x in base) > radius:
        raise ValueError(
            f"basepoint {base} lies outside the sup-norm ball of radius {radius}"
        )
    for g in generators:
        if g.dim != len(base):
            raise ValueError(
                f"basepoint {base} has {len(base)} coordinates, but generator "
                f"{element_label(g)} acts on dimension {g.dim}"
            )
    inverse_of = _check_inverse_closed(generators)
    moves = [partial(_apply_rows, dual_action_matrix(g)) for g in generators]
    orbit = explore_orbit(
        base, moves, inside=lambda w, _depth: max(abs(x) for x in w) <= radius
    )
    return _orbit_graph(generators, inverse_of, orbit, str)


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
