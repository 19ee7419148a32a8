"""Cheeger constants, the two-sided gap bound, and the area / co-area sums."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sgaplab as sg
from sgaplab.cheeger import cut_ratio
from sgaplab.errors import BudgetExceededError
from sgaplab.markov_core import dirichlet_form, m_inner

from conftest import (
    complete_graph_chain,
    cycle_chain,
    random_reversible_chain,
    two_state_swap,
)


def barbell_chain() -> sg.WeightedChain:
    """Two complete 5-vertex blocks joined by a single edge, simple walk."""
    edges = set()
    for block in (range(5), range(5, 10)):
        for i in block:
            for j in block:
                if i < j:
                    edges.add((i, j))
    edges.add((4, 5))
    deg = np.zeros(10)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    trans = []
    for i, j in edges:
        trans.append((i, j, 1.0 / deg[i]))
        trans.append((j, i, 1.0 / deg[j]))
    return sg.WeightedChain([str(i) for i in range(10)], deg, trans)


def exact_cut_ratio(chain: sg.WeightedChain, subset) -> Fraction:
    """h at one subset in exact rational arithmetic on the chain's floats."""
    m = [Fraction(x) for x in chain.measure.tolist()]
    inside = set(subset)
    edges = zip(chain.src.tolist(), chain.dst.tolist(), chain.prob.tolist())
    cross = sum(
        (m[i] * Fraction(p) for i, j, p in edges if i in inside and j not in inside),
        Fraction(0),
    )
    ms = sum(m[i] for i in inside)
    total = sum(m)
    return cross * total / (ms * (total - ms))


def scaled_measure(chain: sg.WeightedChain, factor: float) -> sg.WeightedChain:
    return sg.WeightedChain(
        chain.states,
        chain.measure * factor,
        list(zip(chain.src.tolist(), chain.dst.tolist(), chain.prob.tolist())),
    )


def exact_minimizer(chain: sg.WeightedChain) -> tuple[Fraction, tuple[int, ...]]:
    """(min h, the lexicographically smallest subset attaining it) over every
    proper non-empty subset, in exact rational arithmetic on the chain's
    floats."""
    m = [Fraction(x) for x in chain.measure.tolist()]
    flows = [
        (i, j, m[i] * Fraction(p))
        for i, j, p in zip(chain.src.tolist(), chain.dst.tolist(), chain.prob.tolist())
        if i != j
    ]
    scale = math.lcm(*(x.denominator for x in m), *(f.denominator for *_, f in flows))
    mass = [int(x * scale) for x in m]
    flow = [(i, j, int(f * scale)) for i, j, f in flows]
    total = sum(mass)
    n = chain.n
    best = None
    for k in range(1, n):
        for subset in combinations(range(n), k):  # lexicographic order
            inside = set(subset)
            cut = sum(f for i, j, f in flow if i in inside and j not in inside)
            ms = sum(mass[i] for i in inside)
            ratio = Fraction(cut * total, ms * (total - ms))
            if best is None or ratio < best[0] or (ratio == best[0] and subset < best[1]):
                best = (ratio, subset)
    return best


@st.composite
def dyadic_chains(draw) -> sg.WeightedChain:
    """Connected reversible chains on 2..10 states whose masses are powers of
    two summing to 2^14 and whose flows m(i) p(i, j) are integers, so every
    mass, probability, flow and cut is exact in floats and equal exact
    ratios round to equal floats."""
    n = draw(st.integers(2, 10))
    masses = [1 << 14]
    while len(masses) < n:  # split one part in half; parts stay >= 2^5
        i = draw(st.integers(0, len(masses) - 1))
        half = masses.pop(i) // 2
        masses[i:i] = [half, half]
    masses = draw(st.permutations(masses))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
    if extra:
        pairs |= set(draw(st.lists(st.sampled_from(extra), unique=True)))
    trans = []
    out = [0] * n
    for i, j in sorted(pairs):
        # at most n - 1 edges of at most min(m) / n each leave room for a loop
        f = draw(st.integers(1, min(masses[i], masses[j]) // n))
        trans += [(i, j, f / masses[i]), (j, i, f / masses[j])]
        out[i] += f
        out[j] += f
    trans += [(i, i, (masses[i] - out[i]) / masses[i]) for i in range(n)]
    return sg.WeightedChain([str(i) for i in range(n)], [float(x) for x in masses], trans)


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def test_exact_two_state_swap():
    report = sg.cheeger_exact(two_state_swap())
    assert report.h == pytest.approx(2.0, abs=1e-14)
    assert report.argmin_subset == (0,)
    assert report.method == "exact_enumeration"
    assert report.subset_count_examined == 2


def test_exact_complete_graph():
    report = sg.cheeger_exact(complete_graph_chain(3))
    assert report.h == pytest.approx(1.5, abs=1e-12)
    assert report.argmin_subset == (0,)  # lexicographic tie-break


def test_exact_recomputes_from_subset(rng):
    for _ in range(10):
        chain = random_reversible_chain(rng)
        report = sg.cheeger_exact(chain)
        assert cut_ratio(chain, report.argmin_subset) == pytest.approx(report.h, abs=1e-12)
        assert 0 < len(report.argmin_subset) < chain.n


def test_exact_budget_cap_names_sweep():
    chain = cycle_chain(23)
    with pytest.raises(BudgetExceededError) as err:
        sg.cheeger_exact(chain)
    assert "sweep" in str(err.value)


def test_exact_halfline_q2_truncated():
    chain = sg.build_pgl2_halfline(sg.HalfLineSpec(q=2, length=12, mode="lumped"))
    report = sg.cheeger_exact(chain)
    assert report.h >= sg.pgl2_cheeger_bound(2) - 0.02


def test_exact_halfline_tiny_masses_match_exact_arithmetic():
    # masses reach 7^-11, so 1 - m(S) loses most of its digits
    chain = sg.build_pgl2_halfline(sg.HalfLineSpec(q=7, length=11, mode="lumped"))
    report = sg.cheeger_exact(chain)
    n = chain.n
    want = min(
        exact_cut_ratio(chain, subset)
        for k in range(1, n)
        for subset in combinations(range(n), k)
    )
    assert report.h == pytest.approx(float(want), rel=1e-12)


def test_exact_invariant_under_relabeling(rng):
    chain = random_reversible_chain(rng, n_states=7)
    h0 = sg.cheeger_exact(chain).h
    perm = rng.permutation(chain.n)
    inv = np.argsort(perm)
    relabeled = sg.WeightedChain(
        [chain.states[int(inv[i])] for i in range(chain.n)],
        chain.measure[inv],
        [
            (int(perm[i]), int(perm[j]), p)
            for i, j, p in zip(chain.src, chain.dst, chain.prob)
        ],
    )
    assert sg.cheeger_exact(relabeled).h == pytest.approx(h0, abs=1e-12)


def test_exact_invariant_under_measure_scaling(rng):
    chain = random_reversible_chain(rng, n_states=8)
    h0 = sg.cheeger_exact(chain).h
    scaled = scaled_measure(chain, 37.5)
    assert sg.cheeger_exact(scaled).h == pytest.approx(h0, abs=1e-12)


def test_exact_argmin_does_not_flip_to_complement_under_rescaling():
    # S and S^c have the same exact ratio; once float rounding picked
    # between them, and rescaling the measure moved the pick.
    chain = random_reversible_chain(np.random.default_rng(0), n_states=5, allow_loops=False)
    picks = {sg.cheeger_exact(scaled_measure(chain, f)).argmin_subset for f in (1.0, 3.0, 7.0)}
    assert picks == {(0, 1, 4)}


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dyadic_chains())
def test_exact_matches_rational_enumeration_on_dyadic_chains(chain):
    want_h, want_subset = exact_minimizer(chain)
    report = sg.cheeger_exact(chain)
    assert report.h == pytest.approx(float(want_h), rel=1e-12)
    assert report.argmin_subset == want_subset
    assert report.subset_count_examined == 2**chain.n - 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_exact_matches_rational_enumeration_on_float_chains(n, seed):
    # float flows break the S / S^c symmetry by an ulp, so only the value
    # and the optimality of the reported subset are compared
    chain = random_reversible_chain(np.random.default_rng(seed), n_states=n)
    want_h, _subset = exact_minimizer(chain)
    report = sg.cheeger_exact(chain)
    assert report.h == pytest.approx(float(want_h), rel=1e-12)
    assert float(exact_cut_ratio(chain, report.argmin_subset)) == pytest.approx(
        float(want_h), rel=1e-12
    )
    assert report.argmin_subset[0] == 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_two_state_finds_exact():
    report = sg.cheeger_sweep(two_state_swap())
    assert report.h == pytest.approx(2.0, abs=1e-14)
    assert report.method == "fiedler_sweep"


def test_sweep_upper_bounds_exact(rng):
    for _ in range(15):
        chain = random_reversible_chain(rng)
        exact = sg.cheeger_exact(chain).h
        swept = sg.cheeger_sweep(chain).h
        assert swept >= exact - 1e-12


def test_sweep_halfline_length_60_matches_exact_arithmetic():
    # masses reach 2^-60, where 1 - m(S) rounds to 0
    chain = sg.build_pgl2_halfline(sg.HalfLineSpec(q=2, length=60, mode="lumped"))
    report = sg.cheeger_sweep(chain)
    # a birth-death chain has a monotone second eigenvector, so the sweep
    # cuts are the initial segments
    want = min(exact_cut_ratio(chain, range(k)) for k in range(1, chain.n))
    assert report.h == pytest.approx(float(want), rel=1e-12)
    assert report.h == pytest.approx(
        float(exact_cut_ratio(chain, report.argmin_subset)), rel=1e-12
    )


def test_sweep_separates_barbell_blocks():
    chain = barbell_chain()
    report = sg.cheeger_sweep(chain)
    assert report.argmin_subset in ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
    exact = sg.cheeger_exact(chain)
    assert exact.argmin_subset in ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
    assert report.h == pytest.approx(exact.h, abs=1e-12)


# ---------------------------------------------------------------------------
# the two-sided bound
# ---------------------------------------------------------------------------

def test_verify_cheeger_closed_forms():
    h, lam, lower, upper = sg.verify_cheeger(two_state_swap())
    assert (h, lam, lower, upper) == pytest.approx((2.0, 2.0, 0.5, 4.0), abs=1e-12)
    h, lam, lower, upper = sg.verify_cheeger(complete_graph_chain(3))
    assert (h, lam, lower, upper) == pytest.approx((1.5, 1.5, 9 / 32, 3.0), abs=1e-12)


def test_verify_cheeger_on_random_chains(rng):
    for _ in range(200):
        chain = random_reversible_chain(rng)
        h, lam, lower, upper = sg.verify_cheeger(chain)
        assert lower <= lam + 1e-9
        assert lam <= upper + 1e-9


def test_proof_display_inequality_for_gap_eigenvector(rng):
    # h ||f||^2 <= 2 sqrt(2) ||f|| sqrt(<Delta f, f>) for the gap eigenvector
    for _ in range(20):
        chain = random_reversible_chain(rng)
        h = sg.cheeger_exact(chain).h
        _theta, funcs = sg.chain_spectrum(chain)
        f = funcs[:, 1]
        norm2 = m_inner(chain, f, f)
        energy = dirichlet_form(chain, f)
        assert h * norm2 <= 2 * np.sqrt(2) * np.sqrt(norm2) * np.sqrt(energy) + 1e-9


# ---------------------------------------------------------------------------
# area / co-area
# ---------------------------------------------------------------------------

def test_area_coarea_zero_vector():
    chain = cycle_chain(5)
    assert sg.area_coarea_check(chain, np.zeros(5)) == (0.0, 0.0, 0.0, 0.0)


def test_area_coarea_indicator_matches_cut_numerator(rng):
    chain = random_reversible_chain(rng, n_states=9)
    m_hat = chain.measure / chain.measure.sum()
    subset = (1, 4, 7)
    u = np.zeros(chain.n)
    u[list(subset)] = 1.0
    area_lhs, area_rhs, co_lhs, co_rhs = sg.area_coarea_check(chain, u)
    m_s = float(chain.measure[list(subset)].sum())
    assert area_lhs == pytest.approx(m_s, abs=1e-12)
    assert area_rhs == pytest.approx(m_s, abs=1e-12)
    # co-area sides both equal the h numerator for the unnormalized measure
    ratio = cut_ratio(chain, subset)
    total = chain.measure.sum()
    ms_hat = m_s / total
    numerator_unnormalized = ratio * ms_hat * (1 - ms_hat) * total
    assert co_lhs == pytest.approx(numerator_unnormalized, abs=1e-12)
    assert co_rhs == pytest.approx(co_lhs, abs=1e-12)


def test_area_coarea_random_pairs(rng):
    for _ in range(100):
        chain = random_reversible_chain(rng, n_states=10)
        u = rng.random(10) * rng.choice([0.5, 3.0])
        u[rng.integers(0, 10)] = 0.0  # exercise repeated/zero levels
        area_lhs, area_rhs, co_lhs, co_rhs = sg.area_coarea_check(chain, u)
        assert area_lhs == pytest.approx(area_rhs, abs=1e-12)
        assert co_lhs == pytest.approx(co_rhs, abs=1e-12)


def test_area_coarea_rejects_negative():
    with pytest.raises(ValueError):
        sg.area_coarea_check(cycle_chain(4), [-0.1, 0, 0, 0])
