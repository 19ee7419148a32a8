"""Elements, measures, convolution, and the return-probability series."""

import itertools
import math
import re

import numpy as np
import pytest

import sgaplab as sg
from sgaplab import group_algebra as ga
from sgaplab.errors import (
    BudgetExceededError,
    UnsupportedVariantError,
    VariantMismatchError,
)

from conftest import free_uniform_measure


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def test_free_word_reduction_on_mul():
    a = sg.free_word(2, [1])
    a_inv = sg.free_word(2, [-1])
    assert sg.mul(a, a_inv) == sg.free_word(2, [])
    ab = sg.free_word(2, [1, 2])
    b_inv_a = sg.free_word(2, [-2, 1])
    assert sg.mul(ab, b_inv_a) == sg.free_word(2, [1, 1])
    assert len(sg.mul(ab, b_inv_a).letters) == 2


def test_free_word_constructor_rejects_unreduced():
    with pytest.raises(ValueError):
        sg.FreeWord(2, (1, -1))
    assert sg.free_word(2, [1, -1]) == sg.free_word(2, [])


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_parse_word_inverts_element_label(rank):
    letters = [s for i in range(1, rank + 1) for s in (i, -i)]
    words = {sg.free_word(rank, w) for n in range(4) for w in itertools.product(letters, repeat=n)}
    for word in words:
        label = ga.element_label(word)
        assert ga.parse_word(rank, label) == word
        assert ga.element_label(ga.parse_word(rank, label)) == label
    assert ga.parse_word(rank, "aA") == sg.free_word(rank, [])


@pytest.mark.parametrize("text, bad", [("a1", "1"), ("ac", "c"), ("aé", "é"), ("a-b", "-")])
def test_parse_word_names_the_word_and_the_bad_character(text, bad):
    with pytest.raises(ValueError, match=re.escape(f"word {text!r}: {bad!r}")):
        ga.parse_word(2, text)
    with pytest.raises(ValueError):
        ga.parse_word(2, "")


def test_mat_mod_p_elementary_product():
    e12 = sg.mat_mod_p(3, [[1, 1], [0, 1]])
    sq = sg.mul(e12, e12)
    assert sq.entries == ((1, 2), (0, 1))
    cube = sg.mul(sq, e12)
    assert cube == sg.identity_like(e12)


def _matrix_measure_json(variant: str, params: dict, elem) -> dict:
    return {"variant": variant, "params": params, "support": [{"elem": elem, "w": 1.0}]}


def test_mat_mod_p_rejects_bad_determinant():
    with pytest.raises(ValueError):
        sg.mat_mod_p(5, [[2, 0], [0, 2]])  # det = 4 mod 5
    with pytest.raises(ValueError):
        sg.mat_mod_p(4, [[1, 0], [0, 1]])  # modulus not prime
    # the JSON route validates through the same factory
    with pytest.raises(ValueError, match="determinant is not 1 mod p"):
        sg.ProbMeasure.from_json_dict(_matrix_measure_json("matmodp", {"d": 2, "p": 5}, [[2, 0], [0, 2]]))
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        sg.ProbMeasure.from_json_dict(_matrix_measure_json("matmodp", {"d": 2, "p": 4}, [[1, 0], [0, 1]]))


def test_mat_z_rejects_non_unimodular():
    with pytest.raises(ValueError):
        sg.mat_z([[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="determinant \\+1 or -1"):
        sg.ProbMeasure.from_json_dict(_matrix_measure_json("matz", {"d": 2}, [[2, 0], [0, 1]]))
    g = sg.mat_z([[1, 2], [0, 1]])
    assert sg.mul(g, sg.inverse(g)) == sg.identity_like(g)


def test_inverse_round_trip_matrices():
    g = sg.mat_z([[2, 1], [1, 1]])
    assert sg.mul(sg.inverse(g), g) == sg.identity_like(g)
    h = sg.mat_mod_p(7, [[3, 1], [2, 1]])
    assert sg.mul(h, sg.inverse(h)) == sg.identity_like(h)


def test_variant_mismatch_raises():
    with pytest.raises(VariantMismatchError):
        sg.mul(sg.free_word(2, [1]), sg.free_word(3, [1]))
    with pytest.raises(VariantMismatchError):
        sg.mul(sg.mat_mod_p(3, [[1, 0], [0, 1]]), sg.mat_mod_p(5, [[1, 0], [0, 1]]))
    eye2, eye3 = [[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for a, b in [
        (sg.mat_mod_p(3, eye2), sg.mat_mod_p(3, eye3)),
        (sg.mat_mod_p(3, eye2), sg.mat_z(eye2)),
        (sg.mat_z(eye2), sg.mat_mod_p(3, eye2)),
        (sg.mat_z(eye2), sg.mat_z(eye3)),
        (sg.free_word(2, [1]), sg.mat_z(eye2)),
    ]:
        with pytest.raises(VariantMismatchError, match="cannot combine elements of"):
            sg.mul(a, b)
    for a, b in [(sg.mat_z(eye2), eye2), (eye2, sg.mat_z(eye2)), (eye2, eye2)]:
        with pytest.raises(TypeError, match=re.escape(f"not a group element: {eye2!r}")):
            sg.mul(a, b)


# ---------------------------------------------------------------------------
# measures and convolution
# ---------------------------------------------------------------------------

def test_measure_validation():
    a = sg.free_word(2, [1])
    with pytest.raises(ValueError):
        sg.ProbMeasure([(a, 0.5)])  # mass 0.5
    with pytest.raises(ValueError):
        sg.ProbMeasure([(a, -0.2), (sg.free_word(2, [2]), 1.2)])
    with pytest.raises(VariantMismatchError):
        sg.ProbMeasure([(a, 0.5), (sg.mat_z([[1, 0], [0, 1]]), 0.5)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_measure_weight_is_rejected_naming_the_element(bad):
    a, b = sg.free_word(2, [1]), sg.free_word(2, [2])
    with pytest.raises(ValueError, match=re.escape(f"weight {bad} for {b!r}")):
        sg.ProbMeasure([(a, 0.5), (b, bad)])


def test_delta_convolution_is_identity():
    mu = free_uniform_measure(2)
    delta = sg.ProbMeasure.delta(sg.free_word(2, []))
    assert sg.convolve(delta, mu) == mu
    assert sg.convolve(mu, delta) == mu


def test_symmetric_uniform_return_weight():
    mu = free_uniform_measure(2)
    nu = sg.convolve(mu.reversed_measure(), mu)
    assert nu.weight_of(sg.free_word(2, [])) == pytest.approx(0.25, abs=0)


def test_two_step_return_weight_against_double_sum():
    mu = free_uniform_measure(2)
    nu = sg.convolve(mu.reversed_measure(), mu)
    nu2 = sg.convolve(nu, nu)
    # independent oracle: brute-force double sum over the support of nu
    e = sg.free_word(2, [])
    expected = math.fsum(
        wg * wh
        for g, wg in nu.items()
        for h, wh in nu.items()
        if sg.mul(g, h) == e
    )
    assert expected == pytest.approx(7 / 64, abs=0)
    assert nu2.weight_of(e) == pytest.approx(7 / 64, abs=1e-15)


def test_convolution_associative_on_random_triples(rng):
    words = [sg.free_word(2, [s]) for s in (1, -1, 2, -2)] + [
        sg.free_word(2, [1, 2]),
        sg.free_word(2, [-2, 1]),
        sg.free_word(2, []),
    ]
    for _ in range(25):
        def rand_measure():
            k = int(rng.integers(1, 5))
            picks = rng.choice(len(words), size=k, replace=False)
            w = rng.random(k) + 0.1
            w /= w.sum()
            return sg.ProbMeasure([(words[i], float(x)) for i, x in zip(picks, w)])

        mu, nu, rho = rand_measure(), rand_measure(), rand_measure()
        left = sg.convolve(sg.convolve(mu, nu), rho)
        right = sg.convolve(mu, sg.convolve(nu, rho))
        assert set(left.elements()) == set(right.elements())
        for g, w in left.items():
            assert abs(w - right.weight_of(g)) <= 1e-12


def test_reversed_convolution_exactly_symmetric(rng):
    letters = [1, -1, 2, -2]
    for _ in range(10):
        k = int(rng.integers(1, 5))
        words = [
            sg.free_word(2, [letters[i] for i in rng.integers(0, 4, size=rng.integers(0, 4))])
            for _ in range(k)
        ]
        wts = rng.random(len(words)) + 0.05
        wts /= wts.sum()
        mu = sg.ProbMeasure(list(zip(words, map(float, wts))))
        nu = sg.convolve(mu.reversed_measure(), mu)
        assert nu.check_symmetric()
        for g, w in nu.items():
            assert nu.weight_of(sg.inverse(g)) == w  # exact, not approximate


def test_measure_json_round_trip():
    mu = free_uniform_measure(2)
    again = sg.ProbMeasure.from_json(mu.to_json())
    assert again == mu
    mats = sg.ProbMeasure.uniform(sg.sanov_generators())
    assert sg.ProbMeasure.from_json(mats.to_json()) == mats
    modp = sg.ProbMeasure.uniform(sg.elementary_generators(2, 3))
    assert sg.ProbMeasure.from_json(modp.to_json()) == modp


# ---------------------------------------------------------------------------
# return-probability series
# ---------------------------------------------------------------------------

def _bilinear_return_oracle(mu: sg.ProbMeasure, n_max: int) -> np.ndarray:
    """a_n via pairings of half powers: a_{m+k} = sum_g nu^m(g) nu^k(g^-1)."""
    nu = sg.convolve(mu.reversed_measure(), mu)
    half = (n_max + 1) // 2
    powers = {1: nu}
    for j in range(2, half + 1):
        powers[j] = sg.convolve(powers[j - 1], nu)
    e = sg.free_word(mu.family[1], [])
    out = []
    for n in range(1, n_max + 1):
        m = (n + 1) // 2
        k = n - m
        if k == 0:
            out.append(powers[m].weight_of(e))
        else:
            out.append(
                math.fsum(
                    w * powers[k].weight_of(sg.inverse(g))
                    for g, w in powers[m].items()
                )
            )
    return np.array(out)


def test_radial_reduction_matches_direct_convolution():
    mu = free_uniform_measure(2)
    series = sg.spectral_radius_return(mu, 6)
    assert series.method == "radial_tree"
    oracle = _bilinear_return_oracle(mu, 6)
    assert np.max(np.abs(series.values - oracle)) <= 1e-12


def test_lazy_reduction_matches_direct_convolution():
    mu = sg.ProbMeasure.uniform([sg.free_word(2, [1]), sg.free_word(2, [2])])
    series = sg.spectral_radius_return(mu, 8)
    assert series.method == "lazy_line"
    oracle = _bilinear_return_oracle(mu, 8)
    assert np.max(np.abs(series.values - oracle)) <= 1e-12
    assert series.values[0] == pytest.approx(0.5, abs=0)
    assert series.values[1] == pytest.approx(3 / 8, abs=1e-15)


def test_rank_one_radial_is_central_binomial():
    mu = free_uniform_measure(1)
    series = sg.spectral_radius_return(mu, 10)
    want = np.array([math.comb(2 * n, n) / 4.0**n for n in range(1, 11)])
    assert np.max(np.abs(series.values - want)) <= 1e-13


def test_free_group_root_approaches_tree_norm():
    series = sg.spectral_radius_return(free_uniform_measure(2), 5000)
    assert abs(series.roots[-1] - math.sqrt(3) / 2) <= 0.01
    assert np.all(np.diff(series.roots) >= 0)


def test_integers_and_nonsymmetric_free_measures_degenerate_to_one():
    z_series = sg.spectral_radius_return(free_uniform_measure(1), 5000)
    assert z_series.roots[-1] >= 0.99
    ab = sg.ProbMeasure.uniform([sg.free_word(2, [1]), sg.free_word(2, [2])])
    ab_series = sg.spectral_radius_return(ab, 5000)
    assert ab_series.roots[-1] >= 0.99
    assert ab_series.method == "lazy_line"


def _convolution_log_returns(
    p_up: float, p_down: float, p_hold: float, hold0: float, steps: int, record_stride: int
) -> np.ndarray:
    """The O(steps^2) reference for `_birth_death_log_returns`: the same
    tilted first-return decomposition, with phi and R = 1 / (1 - H) expanded
    by convolving their coefficients term by term."""
    rho = p_hold + 2.0 * math.sqrt(p_up * p_down)
    q = p_down / rho
    h = p_hold / rho
    p = p_up / rho
    h0 = hold0 / rho
    u0 = (1.0 - hold0) / rho

    phi = np.zeros(steps + 1)
    if steps >= 1:
        phi[1] = q
    for t in range(2, steps + 1):
        acc = h * phi[t - 1]
        if t >= 3:
            acc += p * float(np.dot(phi[1 : t - 1], phi[t - 2 : 0 : -1]))
        phi[t] = acc

    ret = np.zeros(steps + 1)
    ret[0] = 1.0
    for t in range(1, steps + 1):
        acc = h0 * ret[t - 1]
        if t >= 2:
            acc += u0 * float(np.dot(phi[1:t], ret[t - 2 :: -1]))
        ret[t] = acc

    log_rho = math.log(rho)
    return np.array(
        [math.log(ret[t]) + t * log_rho for t in range(record_stride, steps + 1, record_stride)]
    )


def _assert_series_close(logs: np.ndarray, want_logs: np.ndarray) -> None:
    n = np.arange(1, want_logs.size + 1)
    assert logs.shape == want_logs.shape
    assert np.max(np.abs(logs - want_logs)) <= 1e-10
    roots, want_roots = np.exp(logs / (2.0 * n)), np.exp(want_logs / (2.0 * n))
    assert np.max(np.abs(roots - want_roots) / want_roots) <= 1e-12


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_radial_recurrence_matches_convolution_reference(rank):
    # rank >= 2 runs the backward recurrence, rank 1 the forward one
    series = sg.spectral_radius_return(free_uniform_measure(rank), 5000)
    assert series.method == "radial_tree"
    two_n = 2.0 * rank
    want = _convolution_log_returns((two_n - 1.0) / two_n, 1.0 / two_n, 0.0, 0.0, 10_000, 2)
    _assert_series_close(series.log_values, want)


@pytest.mark.parametrize("hold", [0.02, 0.5, 0.98])
def test_lazy_line_recurrence_matches_convolution_reference(hold):
    step = (1.0 - hold) / 2.0
    logs = ga._lazy_line_log_returns(hold, step, 5000)
    _assert_series_close(logs, _convolution_log_returns(step, step, hold, hold, 5000, 1))


@pytest.mark.parametrize(
    "mu, n_max",
    [
        (free_uniform_measure(1), 6),
        # nu^5 of the rank-2 walk already has 88,573 support points
        (free_uniform_measure(2), 4),
        (sg.ProbMeasure.uniform([sg.free_word(2, [1]), sg.free_word(2, [2])]), 6),
        (sg.ProbMeasure([(sg.free_word(2, [1]), 0.9), (sg.free_word(2, [2]), 0.1)]), 6),
    ],
)
def test_series_matches_convolution_powers(mu, n_max):
    nu = sg.convolve(mu.reversed_measure(), mu)
    e = sg.free_word(mu.family[1], [])
    series = sg.spectral_radius_return(mu, n_max)
    assert series.method in ("radial_tree", "lazy_line")
    for n in range(1, n_max + 1):
        want = sg.convolution_power(nu, n).weight_of(e)
        assert series.values[n - 1] == pytest.approx(want, rel=1e-12)


def test_point_mass_series_is_constant_one():
    series = sg.spectral_radius_return(sg.ProbMeasure.delta(sg.free_word(2, [1, 2])), 20)
    assert np.all(series.values == 1.0)
    assert np.all(series.roots == 1.0)


def test_roots_monotone_on_random_symmetric_measures(rng):
    # direct-path measures on a finite matrix group
    gens = sg.elementary_generators(2, 3)
    mu = sg.ProbMeasure.uniform(gens)
    series = sg.spectral_radius_return(mu, 40)
    assert series.method == "direct"
    assert np.all(np.diff(series.roots) >= -1e-12)
    # finite group: norm on all of l2 is 1, roots must approach it
    assert series.roots[-1] > 0.9


def test_direct_path_budget_error_mentions_alternative():
    mu = sg.ProbMeasure.uniform(
        [sg.free_word(3, [1]), sg.free_word(3, [-1]), sg.free_word(3, [2]), sg.free_word(3, [-2])]
    )  # rank-3 family but only 4 letters: not radial, not lazy
    with pytest.raises(BudgetExceededError, match="reduce n_max or use a reducible measure"):
        sg.spectral_radius_return(mu, 5000)


def test_series_budget_fails_before_allocating(monkeypatch):
    monkeypatch.setattr(ga, "SERIES_BUDGET", 10)
    for mu in (free_uniform_measure(2), sg.ProbMeasure.delta(sg.free_word(2, []))):
        assert sg.spectral_radius_return(mu, 10).n_max == 10
        with pytest.raises(BudgetExceededError, match="n_max 11 is over the series budget 10"):
            sg.spectral_radius_return(mu, 11)


def test_convolution_powers_stop_at_the_budget(monkeypatch):
    mu = sg.ProbMeasure.uniform(sg.elementary_generators(2, 5))
    powers = list(sg.convolution_powers(mu, 4))
    assert [p.support_size for p in powers] == [4, 13, 34, 81]
    assert powers[-1] == sg.convolution_power(mu, 4)
    # steps cost 4 * 4, 13 * 4 and 34 * 4: 204 in all
    monkeypatch.setattr(ga, "CONVOLUTION_BUDGET", 203)
    assert len(list(sg.convolution_powers(mu, 3))) == 3
    with pytest.raises(BudgetExceededError, match="convolution budget 203 exceeded at support size 34"):
        sg.convolution_power(mu, 4)


def test_series_values_in_unit_interval_and_certified_bound():
    series = sg.spectral_radius_return(free_uniform_measure(2), 50)
    vals = series.values
    assert np.all(vals > 0) and np.all(vals <= 1.0)
    assert series.certified_lower_bound <= math.sqrt(3) / 2 + 1e-12


# ---------------------------------------------------------------------------
# adaptedness
# ---------------------------------------------------------------------------

def test_adapted_elementary_generators_mod_3(monkeypatch):
    mu = sg.ProbMeasure.uniform(sg.elementary_generators(2, 3))
    assert sg.check_adapted(mu) is True
    assert sg.special_linear_order(2, 3) == 24
    assert len(sg.group_closure(sg.elementary_generators(2, 3))) == 24
    with pytest.raises(ValueError, match="need at least one generator"):
        sg.group_closure([])
    monkeypatch.setattr(ga, "ORBIT_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        sg.group_closure(sg.elementary_generators(2, 13))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closure_of_elementary_generators_is_all_of_sl2(p):
    brute = {
        sg.mat_mod_p(p, [[a, b], [c, d]])
        for a in range(p) for b in range(p) for c in range(p) for d in range(p)
        if (a * d - b * c) % p == 1
    }
    assert sg.group_closure(sg.elementary_generators(2, p)) == brute


def test_explore_orbit_points_edges_and_stubs(monkeypatch):
    # the integers under x -> x + 1 and x -> x - 1, kept inside |x| <= 2
    moves = [lambda x: x + 1, lambda x: x - 1]
    points, target = ga.explore_orbit(0, moves, [1, 0], inside=lambda x, depth: abs(x) <= 2)
    assert points == [0, 1, -1, 2, -2]
    # rows (x + 1, x - 1) per point; the two moves out of |x| <= 2 are stubs
    assert target == [1, 2, 3, 0, 0, 4, -1, 1, 2, -1]
    points, target = ga.explore_orbit(0, moves, [1, 0], inside=lambda x, depth: depth <= 1)
    assert points == [0, 1, -1] and target == [1, 2, -1, 0, 0, -1]
    monkeypatch.setattr(ga, "ORBIT_BUDGET", 4)
    with pytest.raises(BudgetExceededError):
        ga.explore_orbit(0, moves, [1, 0])


def test_adapted_rejects_trivial_support():
    e = sg.identity_like(sg.mat_mod_p(3, [[1, 0], [0, 1]]))
    assert sg.check_adapted(sg.ProbMeasure.delta(e)) is False


def test_adapted_free_full_generator_set():
    assert sg.check_adapted(free_uniform_measure(2)) is True
    ab = sg.ProbMeasure.uniform([sg.free_word(2, [1]), sg.free_word(2, [2])])
    assert sg.check_adapted(ab) is True


def test_adapted_free_identity_only_is_false():
    assert sg.check_adapted(sg.ProbMeasure.delta(sg.free_word(2, []))) is False


def test_adapted_undecided_and_unsupported_variants():
    with pytest.raises(UnsupportedVariantError):
        sg.check_adapted(sg.ProbMeasure.delta(sg.free_word(2, [1, 2])))
    with pytest.raises(UnsupportedVariantError):
        sg.check_adapted(sg.ProbMeasure.uniform(sg.sanov_generators()))


def test_special_linear_orders():
    assert sg.special_linear_order(2, 5) == 120
    assert sg.special_linear_order(3, 2) == 168
    assert sg.special_linear_order(3, 3) == 27 * 26 * 8
