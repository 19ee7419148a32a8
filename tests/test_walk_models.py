"""Graph builders: trees, the half-line chain, Cayley and Schreier graphs."""

import networkx as nx
import numpy as np
import pytest

import sgaplab as sg
from sgaplab import expanders as ex
from sgaplab import group_algebra as ga
from sgaplab import walk_models as wm
from sgaplab.errors import BudgetExceededError
from sgaplab.walk_models import (
    LabeledGraph,
    dual_action_matrix,
    graph_to_edge_list_text,
    tree_ball_size,
    validate_labeled_graph,
)

from conftest import relabel


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def test_tree_ball_sizes():
    assert sg.build_tree(4, 1).n_vertices == 5
    assert sg.build_tree(4, 2).n_vertices == 17
    assert sg.build_tree(2, 5).n_vertices == 11
    assert tree_ball_size(4, 12) == 1062881


def test_tree_passes_graph_invariants():
    for d, depth in ((4, 3), (3, 3), (2, 6)):
        graph = sg.build_tree(d, depth)
        validate_labeled_graph(graph)
        dist = graph.distances_from_basepoint
        assert int(dist.max()) == depth
        assert np.all(dist >= 0)


def test_tree_is_acyclic_and_labels_reduced():
    graph = sg.build_tree(4, 4)
    # tree: edge pairs count = 2 (n - 1)
    assert graph.edge_src.size == 2 * (graph.n_vertices - 1)
    labels = [graph.label_of(v) for v in range(graph.n_vertices)]
    assert labels[0] == "e"
    assert len(set(labels)) == graph.n_vertices
    for lab in labels[1:]:
        for x, y in zip(lab, lab[1:]):
            assert x.swapcase() != y  # no cancelling adjacent letters


def test_tree_budget():
    with pytest.raises(BudgetExceededError):
        sg.build_tree(4, 15)


# ---------------------------------------------------------------------------
# half-line
# ---------------------------------------------------------------------------

def test_halfline_measure_head_and_total():
    m = sg.walk_models.halfline_measure(2, 40)
    assert m[:4] == [pytest.approx(1 / 3), 0.5, 0.25, 0.125]
    assert sum(m) == pytest.approx(4 / 3, abs=1e-9)  # 2q/(q^2-1) at q=2


def test_halfline_modes():
    lumped = sg.build_pgl2_halfline(sg.HalfLineSpec(q=2, length=8, mode="lumped"))
    assert lumped.row_mode == "stochastic"
    assert sg.check_detailed_balance(lumped) < 1e-14
    assert lumped.measure[-1] == pytest.approx(lumped.measure[-2] / 3, abs=1e-15)
    compressed = sg.build_pgl2_halfline(sg.HalfLineSpec(q=2, length=8, mode="compression"))
    assert compressed.row_mode == "substochastic"
    assert sg.check_detailed_balance(compressed) < 1e-14


def test_halfline_balance_at_every_length():
    for n in range(2, 61):
        chain = sg.build_pgl2_halfline(sg.HalfLineSpec(q=2, length=n, mode="lumped"))
        assert sg.check_detailed_balance(chain) < 1e-14


def test_halfline_spectrum_against_band_edge():
    chain = sg.build_pgl2_halfline(sg.HalfLineSpec(q=2, length=60, mode="lumped"))
    theta, _ = sg.chain_spectrum(chain)
    assert abs(theta[1] - 2 * np.sqrt(2) / 3) <= 0.02
    assert theta[-1] == pytest.approx(-1.0, abs=1e-12)


def test_closed_form_bound_below_truncated_cut():
    for q in (2, 3):
        chain = sg.build_pgl2_halfline(sg.HalfLineSpec(q=q, length=12, mode="lumped"))
        h = sg.cheeger_exact(chain).h
        assert sg.pgl2_cheeger_bound(q) <= h + 0.05


def test_pgl2_cheeger_bound_values():
    assert sg.pgl2_cheeger_bound(2) == pytest.approx(1 / 3, abs=0)
    assert sg.pgl2_cheeger_bound(3) == pytest.approx(0.5, abs=0)
    assert sg.pgl2_cheeger_bound(4) == pytest.approx(0.6, abs=1e-15)
    with pytest.raises(ValueError):
        sg.pgl2_cheeger_bound(6)  # not a prime power


def test_halfline_spec_validation():
    with pytest.raises(ValueError):
        sg.HalfLineSpec(q=1, length=5, mode="lumped")
    with pytest.raises(ValueError):
        sg.HalfLineSpec(q=2, length=1, mode="lumped")
    with pytest.raises(ValueError):
        sg.HalfLineSpec(q=2, length=5, mode="open")


def test_prime_power_check_divides_up_to_the_square_root():
    # 2^31 - 1 is prime: trial division by every p <= q ran past 20 s
    for q in (2**31 - 1, 3**19):
        assert sg.HalfLineSpec(q=q, length=5, mode="lumped").q == q
        assert 0.0 < sg.pgl2_cheeger_bound(q) < 1.0
    for q in (2 * (2**31 - 1), 12):
        with pytest.raises(ValueError, match="prime power"):
            sg.HalfLineSpec(q=q, length=5, mode="lumped")


# ---------------------------------------------------------------------------
# Cayley graphs
# ---------------------------------------------------------------------------

def test_cayley_sl2_mod3():
    graph = sg.build_cayley(sg.elementary_generators(2, 3))
    validate_labeled_graph(graph)
    assert graph.n_vertices == 24
    assert graph.n_generators == 4
    degree = np.bincount(graph.edge_src, minlength=graph.n_vertices)
    assert np.all(degree == 4)


def test_cayley_sl3_mod2():
    graph = sg.build_cayley(sg.elementary_generators(3, 2), expect_order=168)
    validate_labeled_graph(graph)
    assert graph.n_vertices == 168
    degree = np.bincount(graph.edge_src, minlength=graph.n_vertices)
    assert np.all(degree == 12)


def test_cayley_two_element_group():
    neg = sg.mat_mod_p(3, [[2, 0], [0, 2]])  # -I, an involution
    graph = sg.build_cayley([neg])
    assert graph.n_vertices == 2
    chain = sg.graph_to_simple_walk_chain(graph)
    assert sg.lambda1(chain).estimate == pytest.approx(2.0, abs=1e-12)


def test_cayley_budget_and_inverse_closure(monkeypatch):
    with pytest.raises(ValueError):
        sg.build_cayley([sg.mat_mod_p(5, [[1, 1], [0, 1]])])  # missing inverse
    monkeypatch.setattr(sg.group_algebra, "ORBIT_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        sg.build_cayley(sg.elementary_generators(2, 13))


# ---------------------------------------------------------------------------
# torus Schreier graphs
# ---------------------------------------------------------------------------

def test_dual_action_is_transpose_inverse():
    a = sg.mat_z([[1, 2], [0, 1]])
    assert dual_action_matrix(a) == ((1, 0), (-2, 1))


def test_torus_orbit_ball_radius_3():
    graph = sg.build_torus_schreier(sg.sanov_generators(), (1, 0), 3)
    validate_labeled_graph(graph)
    got = {graph.label_of(v) for v in range(graph.n_vertices)}
    # independent hand BFS of the constrained orbit
    assert got == {"(1, 0)", "(1, -2)", "(1, 2)", "(-3, -2)", "(-3, 2)"}
    assert graph.label_of(graph.basepoint) == "(1, 0)"


def test_torus_identity_generators_single_vertex():
    eye = sg.mat_z([[1, 0], [0, 1]])
    graph = sg.build_torus_schreier([eye], (2, 1), 3)
    assert graph.n_vertices == 1
    assert graph.edge_src.size == 1  # a single self-loop


def test_torus_basepoint_validation():
    with pytest.raises(ValueError):
        sg.build_torus_schreier(sg.sanov_generators(), (0, 0), 5)
    with pytest.raises(ValueError):
        sg.build_torus_schreier(sg.sanov_generators(), (1, 0), 0)
    for base in ((1, 0, 0), (1,)):
        with pytest.raises(ValueError, match="coordinates"):
            sg.build_torus_schreier(sg.sanov_generators(), base, 5)


def test_torus_orbit_respects_mod2_congruence():
    graph = sg.build_torus_schreier(sg.sanov_generators(), (1, 0), 9)
    for v in range(graph.n_vertices):
        x, y = eval(graph.label_of(v))
        assert x % 2 == 1 and y % 2 == 0


# ---------------------------------------------------------------------------
# Bernoulli Schreier graphs
# ---------------------------------------------------------------------------

def _rooted_tree_signature(graph) -> tuple:
    """Canonical form of a rooted tree (sorted-subtree hashing)."""
    n = graph.n_vertices
    adj = [[] for _ in range(n)]
    seen = set()
    for i, j in zip(graph.edge_src.tolist(), graph.edge_dst.tolist()):
        if (i, j) not in seen and i != j:
            seen.add((i, j))
            adj[i].append(j)
    parent = [-1] * n
    order = [graph.basepoint]
    visited = {graph.basepoint}
    k = 0
    while k < len(order):
        v = order[k]
        k += 1
        for w in adj[v]:
            if w not in visited:
                visited.add(w)
                parent[w] = v
                order.append(w)
    sig = [None] * n
    for v in reversed(order):
        children = sorted(sig[w] for w in adj[v] if parent[w] == v)
        sig[v] = tuple(children)
    return sig[graph.basepoint]


def test_bernoulli_singleton_config_is_tree_ball():
    for radius in (2, 3, 4):
        graph = sg.build_bernoulli_schreier(2, [sg.free_word(2, [])], radius)
        validate_labeled_graph(graph)
        tree = sg.build_tree(4, radius)
        assert graph.n_vertices == tree.n_vertices
        assert _rooted_tree_signature(graph) == _rooted_tree_signature(tree)


def test_bernoulli_two_point_config_trivial_stabilizer():
    config = [sg.free_word(2, []), sg.free_word(2, [1])]
    graph = sg.build_bernoulli_schreier(2, config, 2)
    assert graph.n_vertices == tree_ball_size(4, 2) == 17


def test_bernoulli_radius_zero_single_vertex():
    graph = sg.build_bernoulli_schreier(2, [sg.free_word(2, [1])], 0)
    assert graph.n_vertices == 1
    assert graph.stub_src.size == 4


def test_bernoulli_rejects_empty_config():
    with pytest.raises(ValueError):
        sg.build_bernoulli_schreier(2, [], 3)


# ---------------------------------------------------------------------------
# conversions and exports
# ---------------------------------------------------------------------------

def test_simple_walk_conversion_detailed_balance():
    graph = sg.build_cayley(sg.elementary_generators(2, 3))
    chain = sg.graph_to_simple_walk_chain(graph)
    assert sg.check_detailed_balance(chain) < 1e-14
    assert chain.n == 24
    tree = sg.build_tree(4, 3)
    walk = sg.graph_to_simple_walk_chain(tree)
    assert sg.check_detailed_balance(walk) < 1e-14
    # boundary vertices have degree 1, interior 4
    assert sorted(set(walk.measure.tolist())) == [1.0, 4.0]


def test_simple_walk_conversion_sums_parallel_edges_in_first_visit_order():
    # generators mod 2 repeat (E_ij = E_ij^-1), so every edge is doubled
    for graph in (sg.build_cayley(sg.elementary_generators(2, 2)), sg.build_tree(3, 4)):
        degree = np.bincount(graph.edge_src)
        weight = {}
        for i, j in zip(graph.edge_src.tolist(), graph.edge_dst.tolist()):
            weight[(i, j)] = weight.get((i, j), 0.0) + 1.0 / degree[i]
        chain = sg.graph_to_simple_walk_chain(graph)
        got = list(zip(chain.src.tolist(), chain.dst.tolist(), chain.prob.tolist()))
        assert got == [(i, j, p) for (i, j), p in weight.items()]
        assert chain.measure.tolist() == degree.astype(float).tolist()


def test_edge_list_export_round_shape():
    graph = sg.build_torus_schreier(sg.sanov_generators(), (1, 0), 3)
    text = graph_to_edge_list_text(graph)
    lines = text.strip().splitlines()
    assert len(lines) == graph.edge_src.size
    first = lines[0].split()
    assert len(first) == 3


def test_tree_label_of_large_tree_falls_back_to_index():
    graph = sg.build_tree(4, 12)
    assert graph.labels is None
    assert graph.label_of(12345) == "12345"


# ---------------------------------------------------------------------------
# the action table and its validation
# ---------------------------------------------------------------------------

# the 3-cycle under a = +1 and A = -1
CYCLE3 = [[1, 2], [2, 0], [0, 1]]


@pytest.mark.parametrize("inverse_of, target, basepoint, message", [
    ([0, 0], CYCLE3, 0, "inverse_of must be a permutation of the generators"),
    ([1, 2, 0], [[0, 0, 0]], 0, "inverse_of must be an involution"),
    ([1, 0], [[0, 0, 0]], 0, "target must have one column per generator"),
    ([1, 0], np.zeros((0, 2)), 0, "graph needs at least one vertex"),
    ([1, 0], CYCLE3, 3, "basepoint out of range"),
    ([1, 0], CYCLE3, -1, "basepoint out of range"),
    ([1, 0], [[1, 2], [2, 0], [0, 3]], 0, r"target entries must lie in \[-1, 3\)"),
    ([1, 0], [[1, 2], [2, 0], [0, -2]], 0, r"target entries must lie in \[-1, 3\)"),
    ([1, 0], [[1, 2], [2, 0], [-1, 1]], 0, r"^edge \(0 -> 2, gen 1\) has no inverse edge$"),
    ([1, 0], [[1, 2], [2, 0], [1, 1]], 0,
     r"^inverse edge of \(0 -> 2\) lands on 1, not back on the source$"),
])
def test_validation_rejects_malformed_tables(inverse_of, target, basepoint, message):
    k = len(inverse_of)
    with pytest.raises(ValueError, match=message):
        LabeledGraph(range(k), [f"s{g}" for g in range(k)], inverse_of, target, basepoint=basepoint)


@pytest.mark.parametrize("build, act, moves", [
    (lambda: sg.build_torus_schreier(sg.sanov_generators(), (1, 0), 12),
     lambda g, x: tuple(np.array(dual_action_matrix(g)) @ np.array(x)), 189),
    (lambda: ex.build_member_graph(2, 5), ga.mul, 240),
], ids=["torus r=12", "cayley SL2(F5)"])
def test_explorer_list_is_the_graph_table(build, act, moves, monkeypatch):
    found = []
    calls = []

    def counted(move):
        def call(x):
            calls.append(x)
            return move(x)
        return call

    def spy(base, moves, *args, **kwargs):
        found.append(ga.explore_orbit(base, [counted(m) for m in moves], *args, **kwargs))
        return found[-1]

    monkeypatch.setattr(wm, "explore_orbit", spy)
    graph = build()
    [(points, target)] = found
    # one move per edge pair, its inverse slot filled from it, and one per stub
    assert len(calls) == graph.edge_src.size // 2 + graph.stub_src.size == moves
    assert graph.target.shape == (len(points), graph.n_generators)
    assert graph.target.ravel().tolist() == target
    index = {x: i for i, x in enumerate(points)}
    for v, row in enumerate(graph.target.tolist()):
        assert row == [index.get(act(g, points[v]), -1) for g in graph.generators]


def test_table_and_derived_views_are_read_only_and_in_slot_order():
    graph = sg.build_tree(3, 3)
    k = graph.n_generators
    for name in ("target", "edge_src", "edge_dst", "edge_gen", "stub_src", "stub_gen"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(graph, name)[0] = 0
    edge_slots = graph.edge_src * k + graph.edge_gen
    stub_slots = graph.stub_src * k + graph.stub_gen
    assert np.all(np.diff(edge_slots) > 0) and np.all(np.diff(stub_slots) > 0)
    assert np.array_equal(np.sort(np.concatenate([edge_slots, stub_slots])), np.arange(graph.n_vertices * k))
    assert np.array_equal(graph.target[graph.edge_src, graph.edge_gen], graph.edge_dst)
    assert np.all(graph.target[graph.stub_src, graph.stub_gen] == -1)


# ---------------------------------------------------------------------------
# distances from the basepoint
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("parallel", [127, 128, 300])
def test_distances_survive_many_parallel_edges(parallel):
    # `parallel` self-inverse generators all join vertex 0 to vertex 1
    gens = list(range(parallel))
    graph = LabeledGraph(gens, [f"s{g}" for g in gens], gens, [[1] * parallel, [0] * parallel])
    assert graph.distances_from_basepoint.tolist() == [0, 1]


def _bfs_cases():
    yield "tree (4, 5)", sg.build_tree(4, 5)
    yield "torus r=12", sg.build_torus_schreier(sg.sanov_generators(), (1, 0), 12)
    config = [sg.free_word(2, []), sg.free_word(2, [1])]
    yield "bernoulli e,a r=4", sg.build_bernoulli_schreier(2, config, 4)
    yield "cayley SL2(F5)", ex.build_member_graph(2, 5)
    yield "relabelled torus r=12", relabel(
        sg.build_torus_schreier(sg.sanov_generators(), (1, 0), 12), 3
    )


@pytest.mark.parametrize(
    "case", [c for c in _bfs_cases() if not c[0].startswith("relabelled")], ids=lambda c: c[0]
)
def test_builders_number_vertices_in_bfs_order(case):
    # compression_ladder takes each ball as a leading block because of this
    _name, graph = case
    assert np.all(np.diff(graph.distances_from_basepoint) >= 0)


@pytest.mark.parametrize("case", list(_bfs_cases()), ids=lambda c: c[0])
def test_distances_match_networkx_bfs(case):
    _name, graph = case
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(graph.n_vertices))
    digraph.add_edges_from(zip(graph.edge_src.tolist(), graph.edge_dst.tolist()))
    want = np.full(graph.n_vertices, -1)
    for v, d in nx.single_source_shortest_path_length(digraph, graph.basepoint).items():
        want[v] = d
    assert graph.distances_from_basepoint.tolist() == want.tolist()
