"""Compressions, radial quotients, tensor powers, and the expander bound."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgaplab as sg
from sgaplab import cli
from sgaplab import group_algebra as ga
from sgaplab import markov_core
from sgaplab import spectral_engine as se
from sgaplab.errors import BudgetExceededError
from sgaplab.spectral_engine import compressed_operator
from sgaplab.walk_models import tree_ball_size

from conftest import (
    cycle_chain,
    free_uniform_measure,
    random_cyclic_unitary_rep,
    relabel,
    two_state_swap,
)


# ---------------------------------------------------------------------------
# compressed norms
# ---------------------------------------------------------------------------

def test_tree_compression_against_radial_tridiagonal_oracle():
    graph = sg.build_tree(4, 8)
    mu = free_uniform_measure(2)
    for radius in (2, 5, 8):
        got = sg.compressed_norm(graph, mu, radius)
        off = np.array([0.5] + [math.sqrt(3) / 4] * (radius - 1))
        tri = np.diag(off, 1) + np.diag(off, -1)
        want = float(np.linalg.eigvalsh(tri).max())
        assert got == pytest.approx(want, abs=1e-10)


def test_compression_monotone_in_radius():
    graph = sg.build_tree(4, 7)
    mu = free_uniform_measure(2)
    ladder = sg.compression_ladder(graph, mu, list(range(8)))
    for a, b in zip(ladder.norms, ladder.norms[1:]):
        assert b >= a - 1e-12
    assert ladder.supremum == ladder.norms[-1]


def test_radius_zero_is_loop_weight():
    graph = sg.build_torus_schreier(sg.sanov_generators(), (1, 0), 4)
    mu = sg.ProbMeasure.uniform(sg.sanov_generators())
    # (1, 0) is fixed by the lower-triangular generator and its inverse
    assert sg.compressed_norm(graph, mu, 0) == pytest.approx(0.5, abs=1e-14)
    tree = sg.build_tree(4, 3)
    assert sg.compressed_norm(tree, free_uniform_measure(2), 0) == 0.0


def test_line_graph_compression_matches_path_eigenvalue():
    line = sg.build_tree(2, 100)
    mu = free_uniform_measure(1)
    got = sg.compressed_norm(line, mu, 100)
    assert got == pytest.approx(math.cos(math.pi / 202), abs=1e-12)
    assert got >= 0.999


@pytest.mark.parametrize("radius, rows", [(4, 161), (6, 1457)])  # dense, Lanczos
def test_non_symmetric_compression_norm_is_the_largest_singular_value(radius, rows):
    # mu uniform on {a, b}: the compression is not symmetric, and its norm
    # is the top eigenvalue of the symmetric dilation
    graph = sg.build_tree(4, 6)
    mu = sg.ProbMeasure.uniform([sg.free_word(2, [1]), sg.free_word(2, [2])])
    mat = compressed_operator(graph, mu, radius)
    assert mat.shape == (rows, rows) and (mat != mat.T).nnz > 0
    want = float(np.linalg.norm(mat.toarray(), 2))
    assert sg.compressed_norm(graph, mu, radius) == pytest.approx(want, rel=1e-12, abs=0.0)
    norms = sg.compression_ladder(graph, mu, list(range(radius + 1))).norms
    assert norms[-1] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


def test_compression_radius_and_support_validation():
    graph = sg.build_tree(4, 3)
    mu = free_uniform_measure(2)
    with pytest.raises(ValueError):
        sg.compressed_norm(graph, mu, 4)
    with pytest.raises(ValueError):
        sg.compressed_norm(graph, free_uniform_measure(3), 2)


def test_compressed_operator_is_symmetric_for_symmetric_measure():
    graph = sg.build_torus_schreier(sg.sanov_generators(), (1, 0), 10)
    mu = sg.ProbMeasure.uniform(sg.sanov_generators())
    mat = compressed_operator(graph, mu, 6).toarray()
    assert np.max(np.abs(mat - mat.T)) == 0.0
    assert np.linalg.norm(mat, 2) <= 1.0 + 1e-12


def test_torus_ladder_stays_under_free_walk_norm():
    graph = sg.build_torus_schreier(sg.sanov_generators(), (1, 0), 30)
    mu = sg.ProbMeasure.uniform(sg.sanov_generators())
    max_r = int(graph.distances_from_basepoint.max())
    ladder = sg.compression_ladder(
        graph, mu, list(range(max_r + 1)),
        limit_claim=math.sqrt(3) / 2, claim_tag="free-group walk norm",
    )
    assert ladder.supremum <= math.sqrt(3) / 2 + 1e-9


def test_ladder_csv_and_validation(tmp_path):
    ladder = sg.CompressionLadder((0, 1, 2), (0.1, 0.2, 0.25))
    assert dataclasses.asdict(ladder) == {
        "radii": (0, 1, 2), "norms": (0.1, 0.2, 0.25), "limit_claim": None, "claim_tag": None,
    }
    out = tmp_path / "ladder.csv"
    argv = ["tree-norm", "--degree", "4", "--depth", "2", "--ladder", "--format", "csv",
            "--output", str(out)]
    assert cli.run(argv) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "radius,norm"
    assert len(text.splitlines()) == 4
    assert [row.split(",")[0] for row in text.splitlines()[1:]] == ["0", "1", "2"]
    with pytest.raises(ValueError):
        sg.CompressionLadder((0, 1), (0.3, 0.1))
    with pytest.raises(ValueError):
        sg.CompressionLadder((0, 1), (0.3, 0.5), limit_claim=0.4)


def _torus(radius: int):
    gens = sg.sanov_generators()
    return sg.build_torus_schreier(gens, (1, 0), radius), sg.ProbMeasure.uniform(gens)


def _ladder_cases():
    yield "torus r=30", *_torus(30)
    # balls above DENSE_LIMIT rows: warm-started Lanczos solves
    yield "torus r=60", *_torus(60)
    yield "tree (4, 6)", sg.build_tree(4, 6), free_uniform_measure(2)
    config = [sg.free_word(2, []), sg.free_word(2, [1])]
    yield "bernoulli e,a r=4", sg.build_bernoulli_schreier(2, config, 4), free_uniform_measure(2)
    # vertices renumbered out of distance order: the ladder reorders them
    yield "relabelled torus r=10", relabel(_torus(10)[0], 7), _torus(10)[1]
    yield "relabelled tree (4, 6)", relabel(sg.build_tree(4, 6), 8), free_uniform_measure(2)


@pytest.mark.parametrize("case", list(_ladder_cases()), ids=lambda c: c[0])
def test_incremental_ladder_matches_per_radius_norms(case):
    _name, graph, mu = case
    radii = list(range(int(graph.distances_from_basepoint.max()) + 1))
    ladder = sg.compression_ladder(graph, mu, radii)
    for r, got in zip(radii, ladder.norms):
        assert got == pytest.approx(sg.compressed_norm(graph, mu, r), rel=1e-12, abs=0.0)


def _solve_log(monkeypatch):
    """The reports of the ladder's solves and the sizes of its ARPACK calls."""
    reports, arpack_sizes = [], []
    solve, eigsh = se.extremal_eigs, markov_core.spla.eigsh

    def logged_solve(*args, **kwargs):
        report, x = solve(*args, **kwargs)
        reports.append(report)
        return report, x

    def logged_eigsh(op, *args, **kwargs):
        arpack_sizes.append(op.shape[0])
        return eigsh(op, *args, **kwargs)

    monkeypatch.setattr(se, "extremal_eigs", logged_solve)
    monkeypatch.setattr(markov_core.spla, "eigsh", logged_eigsh)
    return reports, arpack_sizes


def test_torus_ladder_solves_warm_past_its_first_sparse_radius(monkeypatch):
    # its norms match compressed_norm: test_incremental_ladder_matches_per_radius_norms
    graph, mu = _torus(60)
    radii = list(range(int(graph.distances_from_basepoint.max()) + 1))
    sizes = [compressed_operator(graph, mu, r).shape[0] for r in radii]
    first_sparse = next(n for n in sizes if n > markov_core.DENSE_LIMIT)
    reports, arpack_sizes = _solve_log(monkeypatch)
    sg.compression_ladder(graph, mu, radii)
    assert set(arpack_sizes) <= {first_sparse}
    later = [r.method for n, r in zip(sizes, reports, strict=True) if n > first_sparse]
    assert later and set(later) == {"warm-lanczos"}


def _cycle_graph(n: int):
    words = [sg.free_word(1, [1]), sg.free_word(1, [-1])]
    step = np.arange(n)
    graph = sg.LabeledGraph(
        words, [str(w) for w in words], [1, 0],
        np.column_stack([(step + 1) % n, (step - 1) % n]), basepoint=0,
    )
    return graph, sg.ProbMeasure.uniform(words)


def test_ladder_past_the_warm_cap_falls_back_to_arpack(monkeypatch):
    # balls of the 600-cycle are paths, whose top gap (about 6e-5 at 513
    # rows) the short warm cycles cannot resolve within their cap
    graph, mu = _cycle_graph(600)
    radii = [255, 256, 257]
    reports, arpack_sizes = _solve_log(monkeypatch)
    norms = sg.compression_ladder(graph, mu, radii).norms
    assert arpack_sizes == [513, 515]
    cap = markov_core.WARM_CYCLES * markov_core.WARM_BASIS
    assert [r.method for r in reports[1:]] == ["lanczos", "lanczos"]
    assert all(r.iterations > cap for r in reports[1:])
    for r, got in zip(radii, norms):
        want = np.linalg.eigvalsh(compressed_operator(graph, mu, r).toarray())[-1]
        assert got == pytest.approx(want, abs=1e-12)


def test_relabelled_ladder_matches_the_original():
    graph, mu = _torus(10)
    radii = list(range(int(graph.distances_from_basepoint.max()) + 1))
    want = sg.compression_ladder(graph, mu, radii).norms
    got = sg.compression_ladder(relabel(graph, 7), mu, radii).norms
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@st.composite
def _symmetric_graphs(draw):
    """A graph on n vertices (some possibly unreachable) carrying k random
    permutations and their inverses, numbered in no particular order, with a
    symmetric measure on the 2k generators."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(markov_core.DENSE_LIMIT + 1, 900)))
    k = draw(st.integers(1, 3))
    columns = []
    for _ in range(k):
        perm = np.array(draw(st.permutations(range(n))))
        columns += [perm, np.argsort(perm)]
    words = [sg.free_word(k, [s]) for i in range(1, k + 1) for s in (i, -i)]
    graph = sg.LabeledGraph(
        words, [str(w) for w in words], [g ^ 1 for g in range(2 * k)],
        np.column_stack(columns), basepoint=draw(st.integers(0, n - 1)),
    )
    w = [draw(st.floats(0.1, 1.0)) for _ in range(k)]
    total = 2.0 * sum(w)
    mu = sg.ProbMeasure([(words[2 * i + j], w[i] / total) for i in range(k) for j in (0, 1)])
    return graph, mu


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_symmetric_graphs())
def test_ladder_norms_never_decrease(case):
    # Cauchy interlacing: a ball's compression is a principal block of the
    # next ball's, so its largest eigenvalue cannot be larger
    graph, mu = case
    radii = list(range(int(graph.distances_from_basepoint.max()) + 1))
    norms = sg.compression_ladder(graph, mu, radii).norms
    for a, b in zip(norms, norms[1:]):
        assert b >= a - 1e-12
    assert norms[-1] <= 1.0 + 1e-12


@pytest.mark.parametrize("radii", [[], [0, 2, 2], [0, 3, 1], [-1, 0], [0, 1, 99]])
def test_ladder_rejects_bad_radii_before_any_solve(monkeypatch, radii):
    graph = sg.build_tree(4, 3)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the radii were checked")

    monkeypatch.setattr(se, "_sparse_norm", no_solve)
    with pytest.raises(ValueError):
        sg.compression_ladder(graph, free_uniform_measure(2), radii)


# ---------------------------------------------------------------------------
# the radial reduction on regular trees
# ---------------------------------------------------------------------------

class _UniformOnGenerators:
    """Uniform weights on a graph's generator labels.  Odd-degree trees are
    labeled by abstract letters that no ProbMeasure family holds, and the
    compression only reads `items()`."""

    def __init__(self, generators):
        self._items = [(g, 1.0 / len(generators)) for g in generators]

    def items(self):
        return self._items


@pytest.mark.parametrize("d, depth", [(3, 9), (4, 7), (6, 5), (2, 100)])
def test_tree_ball_ladder_matches_the_graph_ladder(d, depth):
    graph = sg.build_tree(d, depth)
    radii = list(range(depth + 1))
    want = sg.compression_ladder(graph, _UniformOnGenerators(graph.generators), radii)
    got = sg.tree_ball_ladder(d, radii)
    assert got.radii == want.radii
    assert got.norms == pytest.approx(want.norms, rel=1e-12, abs=0.0)
    assert got.norms[0] == 0.0
    assert got.limit_claim == 2.0 * math.sqrt(d - 1) / d
    if d == 2:
        assert got.norms[-1] == pytest.approx(math.cos(math.pi / 202), rel=1e-12)


@pytest.mark.parametrize("d, radii", [(4, []), (4, [0, 2, 2]), (4, [0, 3, 1]), (4, [-1, 0]), (1, [2])])
def test_tree_ball_ladder_validation(d, radii):
    with pytest.raises(ValueError):
        sg.tree_ball_ladder(d, radii)


def test_tree_ball_ladder_budget_counts_rows_over_all_radii(monkeypatch):
    monkeypatch.setattr(se, "RADIAL_ROWS_BUDGET", 10)
    assert sg.tree_ball_ladder(4, [9]).radii == (9,)
    assert sg.tree_ball_ladder(4, [0, 2, 5]).radii == (0, 2, 5)
    for radii in ([10], [0, 3, 5], itertools.count()):
        with pytest.raises(BudgetExceededError):
            sg.tree_ball_ladder(4, radii)


def _word_set_orbit(rank, config, radius):
    """The shift action on configurations, enumerated word set by word set:
    the graph path that the radial reduction replaced, kept as its oracle."""
    gens = ga.free_generators(rank)
    moves = [lambda c, g=g: frozenset(ga.mul(g, w) for w in c) for g in gens]
    inverse_of = [i ^ 1 for i in range(2 * rank)]
    points, target = ga.explore_orbit(
        frozenset(config), moves, inverse_of, inside=lambda _c, depth: depth <= radius
    )
    return sg.LabeledGraph(
        gens, [ga.element_label(g) for g in gens], inverse_of,
        np.reshape(target, (len(points), len(gens))),
    )


@pytest.mark.parametrize("rank, config", [
    (1, "e"), (1, "e,a"), (1, "e,a,aa"),
    (2, "e"), (2, "e,a"), (2, "e,a,ab"),
    (3, "e"), (3, "e,a"), (3, "e,a,ab"),
])
def test_word_set_orbit_is_the_tree_ball(rank, config):
    words = [ga.parse_word(rank, name) for name in config.split(",")]
    mu = free_uniform_measure(rank)
    jacobi = sg.tree_ball_ladder(2 * rank, range(5)).norms
    for radius in range(5):
        orbit = _word_set_orbit(rank, words, radius)
        assert orbit.n_vertices == tree_ball_size(2 * rank, radius)
        assert sg.compressed_norm(orbit, mu, radius) == pytest.approx(
            jacobi[radius], rel=1e-12, abs=1e-15
        )


@pytest.mark.parametrize("d, lam, depth", [(3, 0.5, 10), (4, 0.9, 40), (6, 0.99, 200)])
def test_radial_rayleigh_is_the_jacobi_rayleigh_quotient(d, lam, depth):
    x = lam / math.sqrt(d - 1)
    f = np.array([x**k * math.sqrt(tree_ball_size(d, k) - tree_ball_size(d, k - 1) if k else 1)
                  for k in range(depth + 1)])
    off = np.array([math.sqrt(d) / d] + [math.sqrt(d - 1) / d] * (depth - 1))
    quotient = 2.0 * float(off @ (f[:-1] * f[1:])) / float(f @ f)
    got = sg.radial_rayleigh(d, lam, depth)
    assert got == pytest.approx(quotient, rel=1e-13)
    assert got <= sg.tree_ball_ladder(d, [depth]).norms[0]


# ---------------------------------------------------------------------------
# radial Rayleigh quotient
# ---------------------------------------------------------------------------

def test_radial_rayleigh_closed_form_against_direct_sum():
    # independent oracle: evaluate both sums term by term
    d, lam, depth = 4, 0.9, 40
    x = lam / math.sqrt(d - 1)
    norm2 = 1.0 + sum(d * (d - 1) ** (m - 1) * x ** (2 * m) for m in range(1, depth + 1))
    cross = 2.0 * sum(d * (d - 1) ** m / d * x ** (2 * m + 1) for m in range(0, depth))
    assert sg.radial_rayleigh(d, lam, depth) == pytest.approx(cross / norm2, rel=1e-12)


def test_radial_rayleigh_reaches_band_edge():
    assert sg.radial_rayleigh(4, 0.999, 2000) >= 0.86
    assert abs(sg.radial_rayleigh(3, 0.999, 2000) - 2 * math.sqrt(2) / 3) <= 0.01


def test_radial_rayleigh_small_lambda_vanishes():
    assert sg.radial_rayleigh(4, 1e-9, 1) == pytest.approx(0.0, abs=1e-8)


def test_radial_rayleigh_monotone_in_lambda():
    grid = np.linspace(0.05, 0.995, 60)
    vals = [sg.radial_rayleigh(4, float(x), 500) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_radial_rayleigh_validation():
    with pytest.raises(ValueError):
        sg.radial_rayleigh(2, 0.5, 10)
    with pytest.raises(ValueError):
        sg.radial_rayleigh(4, 1.0, 10)
    with pytest.raises(ValueError):
        sg.radial_rayleigh(4, 0.5, 0)


# ---------------------------------------------------------------------------
# tensor powers
# ---------------------------------------------------------------------------

def test_tensor_trivial_representation():
    e = sg.mat_mod_p(3, [[1, 0], [0, 1]])
    mu = sg.ProbMeasure.delta(e)
    for k in (1, 2):
        lhs, rhs = sg.tensor_power_check([np.eye(2)], mu, k)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)


def test_tensor_sign_representation():
    g = sg.mat_mod_p(2, [[1, 1], [0, 1]])  # order 2 in SL_2(F_2)
    lhs, rhs = sg.tensor_power_check([np.array([[-1.0]])], sg.ProbMeasure.delta(g), 1)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)


def test_tensor_inequality_on_random_representations(rng):
    for trial in range(100):
        p = int(rng.choice([2, 3, 5, 7]))
        dim = int(rng.integers(1, 5))
        k = int(rng.integers(1, 3))
        elems, mats = random_cyclic_unitary_rep(p, dim, rng)
        support = sorted(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
        w = rng.random(len(support)) + 0.05
        w /= w.sum()
        mu = sg.ProbMeasure([(elems[j], float(x)) for j, x in zip(support, w)])
        aligned = [mats[support[i]] for i in range(len(support))]
        lhs, rhs = sg.tensor_power_check(aligned, mu, k)
        assert lhs <= rhs + 1e-9


def test_tensor_validation():
    e = sg.mat_mod_p(3, [[1, 0], [0, 1]])
    mu = sg.ProbMeasure.delta(e)
    with pytest.raises(ValueError):
        sg.tensor_power_check([np.eye(2) * 2.0], mu, 1)  # not unitary
    with pytest.raises(ValueError):
        sg.tensor_power_check([np.eye(4)], mu, 4)  # 4^8 over the cap


# ---------------------------------------------------------------------------
# expander bound
# ---------------------------------------------------------------------------

def test_expander_bound_cycle_5():
    lam, bound = sg.expander_bound_check(cycle_chain(5))
    assert lam == pytest.approx(1 - math.cos(2 * math.pi / 5), abs=1e-10)
    assert bound == pytest.approx(0.5 * (1 - math.cos(math.pi / 5)) ** 2, abs=1e-10)
    assert lam >= bound - 1e-9


def test_expander_bound_two_state():
    lam, bound = sg.expander_bound_check(two_state_swap())
    assert lam == pytest.approx(2.0, abs=1e-12)
    assert bound == pytest.approx(0.0, abs=1e-12)


def test_expander_bound_sl2_mod3_dense():
    graph = sg.build_cayley(sg.elementary_generators(2, 3))
    chain = sg.graph_to_simple_walk_chain(graph)
    lam, bound = sg.expander_bound_check(chain)
    assert lam >= bound - 1e-9
    theta, _ = sg.chain_spectrum(chain)
    assert lam == pytest.approx(1.0 - theta[1], abs=1e-10)
