"""Weighted chains, detailed balance, and the spectral operations."""

import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp

import sgaplab as sg
from sgaplab import markov_core
from sgaplab.errors import ConvergenceError, DisconnectedChainError, NotReversibleError
from sgaplab.markov_core import (
    ITER_RESIDUAL_TOL,
    _off_constants,
    chain_from_json,
    chain_to_json,
    dirichlet_form,
    m_inner,
)

from conftest import (
    complete_graph_chain,
    cycle_chain,
    random_reversible_chain,
    tilted_eigh,
    two_state_swap,
)


# ---------------------------------------------------------------------------
# construction and diagnostics
# ---------------------------------------------------------------------------

def test_construction_validates_rows_and_measure():
    with pytest.raises(ValueError):
        sg.WeightedChain(["a"], [0.0], [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        sg.WeightedChain(["a", "b"], [1, 1], [(0, 1, 0.7), (1, 0, 1.0)])
    sub = sg.WeightedChain(["a", "b"], [1, 1], [(0, 1, 0.7), (1, 0, 1.0)], row_mode="substochastic")
    assert sub.row_mode == "substochastic"
    with pytest.raises(ValueError):
        sg.WeightedChain(["a", "b"], [1, 1], [(0, 1, 1.2), (1, 0, 1.0)], row_mode="substochastic")


@pytest.mark.parametrize("p, mode, total", [
    (0.7, "stochastic", "0.7"), (1.2, "substochastic", "1.2"), (float("inf"), "stochastic", "inf"),
])
def test_row_sum_errors_print_plain_floats(p, mode, total):
    with pytest.raises(ValueError) as info:
        sg.WeightedChain(["a", "b"], [1, 1], [(0, 1, p), (1, 0, 1.0)], row_mode=mode)
    assert f"row 'a' sums to {total}" in str(info.value) and "np." not in str(info.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_weights_are_rejected_naming_the_state(bad):
    swap = [(0, 1, 1.0), (1, 0, 1.0)]
    with pytest.raises(ValueError, match=f"state 'b' has weight {bad}"):
        sg.WeightedChain(["a", "b"], [1.0, bad], swap)
    for mode in ("stochastic", "substochastic"):
        with pytest.raises(ValueError):
            sg.WeightedChain(["a", "b"], [1.0, 1.0], [(0, 1, bad), (1, 0, 1.0)], row_mode=mode)


def test_detailed_balance_values():
    halfline = sg.build_pgl2_halfline(sg.HalfLineSpec(q=2, length=10, mode="lumped"))
    assert sg.check_detailed_balance(halfline) < 1e-14
    graph_walk = cycle_chain(6)
    assert sg.check_detailed_balance(graph_walk) == 0.0
    lopsided = sg.WeightedChain(
        ["0", "1"], [0.5, 0.5], [(0, 1, 1.0), (1, 0, 0.5), (1, 1, 0.5)]
    )
    assert sg.check_detailed_balance(lopsided) == pytest.approx(0.25, abs=0)
    assert type(sg.check_detailed_balance(lopsided)) is float
    assert type(sg.check_detailed_balance(halfline)) is float
    with pytest.raises(NotReversibleError):
        sg.lambda1(lopsided)


def test_detailed_balance_counts_a_missing_reverse_pair_as_its_flow():
    one_way = sg.WeightedChain(
        ["a", "b", "c"], [2.0, 1.0, 1.0], [(0, 1, 0.25), (1, 0, 0.5), (1, 2, 0.5), (2, 2, 0.75)],
        row_mode="substochastic",
    )
    assert sg.check_detailed_balance(one_way) == 0.5  # m(b) p(b, c), no (c, b)
    assert sg.check_detailed_balance(sg.WeightedChain(["a"], [1.0], [], row_mode="substochastic")) == 0.0


def test_transitions_accept_arrays_and_keep_their_error_texts():
    rows = [(0, 1, 1.0), (1, 0, 0.5), (1, 1, 0.5)]
    a = sg.WeightedChain(["0", "1"], [0.5, 1.0], rows)
    b = sg.WeightedChain(["0", "1"], [0.5, 1.0], np.array(rows))
    c = sg.WeightedChain(["0", "1"], [0.5, 1.0], iter(rows))
    for other in (b, c):
        assert chain_to_json(other) == chain_to_json(a)
        assert other.src.dtype == np.int64 and other.prob.flags.c_contiguous
    bad = {
        "duplicate (i, j) transition": [(0, 1, 0.5), (0, 1, 0.5), (1, 0, 1.0)],
        "transition index out of range": [(0, 2, 1.0), (1, 0, 1.0)],
        "transition probabilities must be positive": [(0, 1, 1.0), (1, 0, 0.0)],
        "triples": [(0, 1), (1, 0)],
    }
    for text, trans in bad.items():
        with pytest.raises(ValueError, match=re.escape(text)):
            sg.WeightedChain(["0", "1"], [1.0, 1.0], trans)
    for nan_at in (0, 2):
        row = [0, 1, 1.0]
        row[nan_at] = float("nan")
        with pytest.raises(ValueError):
            sg.WeightedChain(["0", "1"], [1.0, 1.0], [tuple(row), (1, 0, 1.0)])


def test_apply_markov_basics():
    chain = cycle_chain(5)
    ones = np.ones(5)
    assert np.max(np.abs(sg.apply_markov(chain, ones) - 1.0)) <= 1e-12
    swap = two_state_swap()
    assert np.allclose(sg.apply_markov(swap, [1.0, -1.0]), [-1.0, 1.0])
    with pytest.raises(ValueError):
        sg.apply_markov(swap, [1.0, 2.0, 3.0])


def test_construction_rejects_non_integral_indices():
    with pytest.raises(ValueError, match="transition indices must be integers"):
        sg.WeightedChain(["a", "b"], [1, 1], [(0.7, 1, 1.0), (1, 0.2, 1.0)])


def test_apply_markov_alternating_on_halfline():
    for q, n in ((2, 7), (3, 12), (4, 9)):
        chain = sg.build_pgl2_halfline(sg.HalfLineSpec(q=q, length=n, mode="lumped"))
        f = np.array([(-1.0) ** i for i in range(chain.n)])
        assert np.max(np.abs(sg.apply_markov(chain, f) + f)) < 1e-12


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_lambda1_complete_graph():
    report = sg.lambda1(complete_graph_chain(3))
    assert report.estimate == pytest.approx(1.5, abs=1e-12)
    assert report.method == "dense"


def test_lambda1_cycles_match_circulant_formula():
    # 600 states take the Lanczos path, where the gap is 5.5e-5
    for n in (3, 4, 5, 8, 12, 600):
        lam = sg.lambda1(cycle_chain(n)).estimate
        assert lam == pytest.approx(1.0 - np.cos(2 * np.pi / n), abs=1e-10)


def test_lambda1_two_state_swap():
    assert sg.lambda1(two_state_swap()).estimate == pytest.approx(2.0, abs=1e-12)


def test_operator_norm_values():
    assert sg.operator_norm_l20(two_state_swap()).estimate == pytest.approx(1.0, abs=1e-12)
    assert sg.operator_norm_l20(complete_graph_chain(3)).estimate == pytest.approx(0.5, abs=1e-12)
    for q, n in ((2, 9), (3, 6)):
        chain = sg.build_pgl2_halfline(sg.HalfLineSpec(q=q, length=n, mode="lumped"))
        assert sg.operator_norm_l20(chain).estimate == pytest.approx(1.0, abs=1e-10)


def test_spectral_ops_reject_substochastic_rows():
    chain = sg.build_pgl2_halfline(sg.HalfLineSpec(q=2, length=6, mode="compression"))
    with pytest.raises(ValueError):
        sg.lambda1(chain)
    with pytest.raises(ValueError):
        sg.operator_norm_l20(chain)


def test_disconnected_chain_error_names_pair():
    chain = sg.WeightedChain(
        ["left", "right"], [1.0, 1.0], [(0, 0, 1.0), (1, 1, 1.0)]
    )
    with pytest.raises(DisconnectedChainError) as err:
        sg.lambda1(chain)
    assert "left" in str(err.value) and "right" in str(err.value)
    # states 0 and 1 swap, state 2 sits alone: the pair is (0, 2)
    chain = sg.WeightedChain(
        ["a", "b", "c"], [1.0, 1.0, 1.0], [(0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)]
    )
    with pytest.raises(DisconnectedChainError) as err:
        sg.operator_norm_l20(chain)
    assert "'a'" in str(err.value) and "'c'" in str(err.value)
    assert "'b'" not in str(err.value)


def test_dense_and_iterative_paths_agree(rng, monkeypatch):
    # every chain below takes the Lanczos path, checked against a full eigh
    monkeypatch.setattr(markov_core, "DENSE_LIMIT", 0)
    chains = [
        random_reversible_chain(rng, n_states=int(rng.integers(8, 65)))
        for _ in range(12)
    ]
    # K_9: the non-trivial spectrum is all negative (-1/8, eight times);
    # the 10-cycle is bipartite with bottom eigenvalue -1
    chains += [complete_graph_chain(9), cycle_chain(10)]
    for chain in chains:
        theta, _funcs = sg.chain_spectrum(chain)
        top, _x = _off_constants(chain, "LA", "test")
        assert top.estimate == pytest.approx(float(theta[1]), abs=1e-8)
        assert top.residual <= ITER_RESIDUAL_TOL
        widest, _x = _off_constants(chain, "LM", "test")
        want = max(abs(float(theta[1])), abs(float(theta[-1])))
        assert abs(widest.estimate) == pytest.approx(want, abs=1e-8)
        assert widest.residual <= ITER_RESIDUAL_TOL


def test_lanczos_failures_raise_convergence_error(monkeypatch):
    def stall(*_args, **_kwargs):
        raise markov_core.spla.ArpackNoConvergence("No convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(markov_core.spla, "eigsh", stall)
    with pytest.raises(ConvergenceError) as err:
        sg.lambda1(cycle_chain(600))
    assert "lambda1" in str(err.value) and "600 states" in str(err.value)


def test_reports_and_errors_name_the_method_alike(monkeypatch):
    assert sg.lambda1(cycle_chain(600)).method == "lanczos"

    def stall(*_args, **_kwargs):
        raise markov_core.spla.ArpackNoConvergence("No convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(markov_core.spla, "eigsh", stall)
    with pytest.raises(ConvergenceError, match="lambda1: lanczos "):
        sg.lambda1(cycle_chain(600))


def _perturbed_ritz_pair(monkeypatch):
    """Make every Lanczos solve return its Ritz vector tilted by 1e-6: ARPACK's,
    and the warm branch's, through the tridiagonal eigenvectors of its
    cycles."""

    def tilt(solve):
        def tilted(*args, **kwargs):
            theta, vecs = solve(*args, **kwargs)
            vecs = vecs + 1e-6 * np.cos(np.arange(vecs.shape[0]))[:, None]
            vecs /= np.linalg.norm(vecs, axis=0)
            return theta, vecs

        return tilted

    monkeypatch.setattr(markov_core.spla, "eigsh", tilt(markov_core.spla.eigsh))
    monkeypatch.setattr(markov_core.sla, "eigh_tridiagonal", tilt(markov_core.sla.eigh_tridiagonal))


def _family_with_tilted_cuspidal_pieces():
    with tilted_eigh(16):  # the (17 - 1)-row cuspidal pieces of SL_2(F_17)
        return sg.build_family(2, [17])


@pytest.mark.parametrize("solve, stage, size", [
    (lambda: sg.lambda1(cycle_chain(600)), "lambda1", "600 states"),
    (lambda: sg.operator_norm_l20(cycle_chain(600)), "operator_norm_l20", "600 states"),
    (lambda: sg.expander_bound_check(cycle_chain(600)), "lambda1", "600 states"),
    (lambda: sg.compressed_norm(sg.build_tree(4, 6), sg.ProbMeasure.uniform(
        [sg.free_word(2, [s]) for s in (1, -1, 2, -2)]), 6), "compressed_norm (1457 rows)", "1457 states"),
    (_family_with_tilted_cuspidal_pieces, "cuspidal piece j=1 of SL_2(F_17) (16 rows)", "16 states"),
    # radius 5 (485 rows) is dense; the last radius, 6, is warm-started from
    # it and checked too
    (lambda: sg.compression_ladder(sg.build_tree(4, 6), sg.ProbMeasure.uniform(
        [sg.free_word(2, [s]) for s in (1, -1, 2, -2)]), [5, 6]), "compressed_norm (1457 rows)", "1457 states"),
], ids=["lambda1", "operator_norm_l20", "expander_bound_check", "compressed_norm", "twisted_block",
        "ladder_last_radius"])
def test_unconverged_ritz_pair_raises_naming_stage_and_size(monkeypatch, solve, stage, size):
    _perturbed_ritz_pair(monkeypatch)
    with pytest.raises(ConvergenceError) as err:
        solve()
    assert stage in str(err.value) and size in str(err.value)


def test_stalled_warm_start_raises_naming_stage_and_size(monkeypatch):
    # the path on 600 vertices has a top gap of about 4e-5: short restarted
    # cycles from the constant vector stall, and ARPACK, which takes over,
    # is made to fail too; the error counts the warm branch's products
    path = sp.diags([0.5, 0.5], [-1, 1], shape=(600, 600), format="csr")

    def no_convergence(*_args, **_kwargs):
        raise markov_core.spla.ArpackNoConvergence("No convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(markov_core.spla, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError, match=r"path ball: lanczos \(which=LA\) did not converge "
                       r"on 600 states after (\d+) products") as err:
        markov_core.extremal_eigs(path, "LA", np.ones(600), stage="path ball", warm=True)
    products = int(re.search(r"after (\d+) products", str(err.value)).group(1))
    assert products >= markov_core.WARM_CYCLES * markov_core.WARM_BASIS


def test_rayleigh_identity_dirichlet_form(rng):
    for _ in range(10):
        chain = random_reversible_chain(rng)
        f = rng.normal(size=chain.n)
        direct = m_inner(chain, f - sg.apply_markov(chain, f), f)
        assert dirichlet_form(chain, f) == pytest.approx(direct, abs=1e-12)


def test_substochastic_singular_values_below_one():
    for q, n in ((2, 10), (3, 8)):
        chain = sg.build_pgl2_halfline(sg.HalfLineSpec(q=q, length=n, mode="compression"))
        svals = np.linalg.svd(chain.symmetrized.toarray(), compute_uv=False)
        assert svals.max() <= 1.0 + 1e-12


def test_constant_eigenvector_and_m_orthogonality(rng):
    for _ in range(5):
        chain = random_reversible_chain(rng)
        ones = np.ones(chain.n)
        assert np.max(np.abs(sg.apply_markov(chain, ones) - ones)) <= 1e-12
        theta, funcs = sg.chain_spectrum(chain)
        assert theta[0] == pytest.approx(1.0, abs=1e-10)
        for i in range(1, chain.n):
            assert abs(m_inner(chain, funcs[:, i], ones)) <= 1e-10


def test_spectral_report_validation():
    with pytest.raises(ValueError):
        sg.SpectralReport(estimate=1.0, iterations=1, residual=-1.0, method="dense")
    rep = sg.SpectralReport(estimate=1.0, iterations=3, residual=0.01, method="lanczos")
    assert dataclasses.asdict(rep) == {
        "estimate": 1.0, "iterations": 3, "residual": 0.01, "method": "lanczos",
    }


def test_chain_json_round_trip(rng):
    chain = random_reversible_chain(rng)
    again = chain_from_json(chain_to_json(chain))
    assert again.states == chain.states
    assert np.allclose(again.measure, chain.measure)
    assert sg.lambda1(again).estimate == pytest.approx(sg.lambda1(chain).estimate, abs=0)
