"""Lyapunov estimates, exact log-norm expectations, and the spectral bound."""

import dataclasses
import json
import math

import numpy as np
import pytest

import sgaplab as sg
from sgaplab import cli, group_algebra, lyapunov
from sgaplab.errors import BudgetExceededError
from sgaplab.group_algebra import WEIGHT_SUM_TOL


# ---------------------------------------------------------------------------
# matrix measures
# ---------------------------------------------------------------------------

def test_matrix_measure_validation():
    with pytest.raises(ValueError):
        sg.MatrixMeasure(np.zeros((1, 2, 2)), np.array([1.0]))  # singular
    with pytest.raises(ValueError):
        sg.MatrixMeasure(np.array([np.eye(2)]), np.array([0.5]))  # mass 0.5
    ok = sg.MatrixMeasure(np.array([np.eye(2)]), np.array([1.0]))
    assert ok.dim == 2
    pair = np.array([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        sg.MatrixMeasure(pair, np.array([0.5, float("nan")]))
    # the weight-sum tolerance is the one ProbMeasure uses
    sg.MatrixMeasure(pair, np.array([0.5, 0.5 + WEIGHT_SUM_TOL / 4]))
    with pytest.raises(ValueError, match="sum to 1"):
        sg.MatrixMeasure(pair, np.array([0.5, 0.5 + 4 * WEIGHT_SUM_TOL]))


def test_from_group_measure_matches_sanov():
    mm = sg.MatrixMeasure.from_group_measure(sg.sanov_group_measure())
    direct = sg.sanov_matrix_measure()
    assert sorted(map(tuple, mm.matrices.reshape(4, 4).tolist())) == sorted(
        map(tuple, direct.matrices.reshape(4, 4).tolist())
    )


# ---------------------------------------------------------------------------
# Monte-Carlo estimates
# ---------------------------------------------------------------------------

def test_identity_point_mass_is_exactly_zero():
    mm = sg.MatrixMeasure(np.array([np.eye(2)]), np.array([1.0]))
    est = sg.estimate_lyapunov(mm, 100, 5, 0)
    assert est.point_estimate == 0.0
    assert est.ci_half_width == 0.0


def test_deterministic_diagonal_growth():
    g = np.array([[2.0, 0.0], [0.0, 0.5]])
    mm = sg.MatrixMeasure(g[None, :, :], np.array([1.0]))
    est = sg.estimate_lyapunov(mm, 400, 3, 1)
    assert est.point_estimate == pytest.approx(math.log(2.0), abs=1e-9)


def test_deterministic_matches_log_norm_of_power():
    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    mm = sg.MatrixMeasure(g[None, :, :], np.array([1.0]))
    n = 37
    est = sg.estimate_lyapunov(mm, n, 2, 0)
    want = math.log(np.linalg.norm(np.linalg.matrix_power(g, n), 2)) / n
    assert est.point_estimate == pytest.approx(want, abs=1e-9)


def test_seeded_runs_bitwise_reproducible():
    mm = sg.sanov_matrix_measure()
    a = sg.estimate_lyapunov(mm, 200, 20, 42)
    b = sg.estimate_lyapunov(mm, 200, 20, 42)
    assert a.point_estimate == b.point_estimate
    assert a.ci_half_width == b.ci_half_width
    c = sg.estimate_lyapunov(mm, 200, 20, 43)
    assert c.point_estimate != a.point_estimate


def _scalar_trial_values(measure, n_steps: int, n_trials: int, seed: int) -> np.ndarray:
    """Reference: one trial at a time, one Python step per factor."""
    mats = measure.matrices
    d = measure.dim
    sqrt_d = math.sqrt(d)
    vals = np.empty(n_trials)
    for t in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), t]))
        idx = rng.choice(mats.shape[0], size=n_steps, p=measure.weights)
        prod = np.eye(d)
        log_acc = 0.0
        for i in idx:
            prod = mats[i] @ prod
            scale = math.sqrt(float(np.sum(prod * prod))) / sqrt_d
            prod /= scale
            log_acc += math.log(scale)
        vals[t] = (log_acc + math.log(float(np.linalg.norm(prod, 2)))) / n_steps
    return vals


@pytest.mark.parametrize("n_trials", [1, 7, 40])
def test_batched_estimate_matches_scalar_loop(n_trials):
    mm = sg.sanov_matrix_measure()
    want = _scalar_trial_values(mm, 300, n_trials, 19)
    est = sg.estimate_lyapunov(mm, 300, n_trials, 19)
    # n_trials = 1 is trial 0 of the scalar loop on its own
    assert est.point_estimate == pytest.approx(float(np.mean(want)), abs=1e-13)


def test_trial_values_do_not_depend_on_batching(monkeypatch):
    rng = np.random.default_rng(5)
    mm = sg.MatrixMeasure(rng.normal(size=(3, 3, 3)), np.array([0.2, 0.3, 0.5]))
    alone = lyapunov._trial_growths(mm, 250, 8, range(1))[0]
    assert lyapunov._trial_growths(mm, 250, 8, range(40))[0] == alone
    assert alone == pytest.approx(_scalar_trial_values(mm, 250, 1, 8)[0], abs=1e-13)
    whole = sg.estimate_lyapunov(mm, 250, 40, 8)
    monkeypatch.setattr(lyapunov, "INDEX_BLOCK_ENTRIES", 3 * 250)  # blocks of 3 trials
    blocked = sg.estimate_lyapunov(mm, 250, 40, 8)
    assert (blocked.point_estimate, blocked.ci_half_width) == (
        whole.point_estimate,
        whole.ci_half_width,
    )


def test_sanov_estimate_beats_spectral_bound():
    est = sg.estimate_lyapunov(sg.sanov_matrix_measure(), 500, 50, 7)
    bound = sg.furstenberg_bound(math.sqrt(math.sqrt(3) / 2), 2)
    assert est.point_estimate > bound
    assert est.ci_half_width < 0.05


# ---------------------------------------------------------------------------
# exact expectations
# ---------------------------------------------------------------------------

def test_exact_u1_is_common_generator_norm():
    u = sg.exact_u_n(sg.sanov_group_measure(), 1)
    assert u[0] == pytest.approx(math.log(1 + math.sqrt(2)), abs=1e-12)
    # all four generators share the same operator norm
    for g in sg.sanov_generators():
        assert np.linalg.norm(np.array(g.entries, float), 2) == pytest.approx(
            1 + math.sqrt(2), abs=1e-12
        )


def test_exact_u_n_subadditive_and_decreasing_for_sanov():
    u = sg.exact_u_n(sg.sanov_group_measure(), 6)
    over_n = [x / (i + 1) for i, x in enumerate(u)]
    assert u[1] / 2 <= u[0]
    for a, b in zip(over_n, over_n[1:]):
        assert b <= a + 1e-12


def test_exact_symmetric_power_of_fixed_matrix():
    g = sg.mat_z([[2, 1], [1, 1]])  # symmetric positive, norm = top eigenvalue
    top = (3 + math.sqrt(5)) / 2
    u = sg.exact_u_n(sg.ProbMeasure.delta(g), 4)
    for n, val in enumerate(u, start=1):
        assert val == pytest.approx(n * math.log(top), abs=1e-10)


def test_exact_u_n_dominates_monte_carlo_at_same_n():
    mu = sg.sanov_group_measure()
    u = sg.exact_u_n(mu, 6)
    for n in (3, 6):
        est = sg.estimate_lyapunov(sg.sanov_matrix_measure(), n, 300, 11)
        assert u[n - 1] / n >= est.point_estimate - 3 * est.ci_half_width


def test_exact_u_n_stops_at_the_convolution_budget(monkeypatch):
    mu = sg.sanov_group_measure()
    # power supports 4, 13, 40, 121, 364: five powers cost 4 * 178 = 712
    monkeypatch.setattr(group_algebra, "CONVOLUTION_BUDGET", 1000)
    assert len(sg.exact_u_n(mu, 5)) == 5
    with pytest.raises(BudgetExceededError, match="convolution budget 1000 exceeded at support size 364"):
        sg.exact_u_n(mu, 6)


def test_exact_u_n_validation():
    with pytest.raises(ValueError):
        sg.exact_u_n(sg.sanov_group_measure(), 9)
    with pytest.raises(ValueError):
        sg.exact_u_n(sg.ProbMeasure.uniform(sg.elementary_generators(2, 3)), 2)


# ---------------------------------------------------------------------------
# the spectral bound
# ---------------------------------------------------------------------------

def test_furstenberg_bound_values():
    assert sg.furstenberg_bound(1.0, 2) == 0.0
    assert sg.furstenberg_bound(math.exp(-3.0), 3) == pytest.approx(1.0, abs=1e-12)
    got = sg.furstenberg_bound(math.sqrt(math.sqrt(3) / 2), 2)
    assert got == pytest.approx(math.log(2 / math.sqrt(3)) / 4, abs=1e-15)
    assert got == pytest.approx(0.03596, abs=1e-5)
    # the same closed form evaluated in base 10 is the printed 0.015617
    assert math.log10(2 / math.sqrt(3)) / 4 == pytest.approx(0.015617, abs=1e-6)


def test_furstenberg_bound_validation():
    with pytest.raises(ValueError):
        sg.furstenberg_bound(0.0, 2)
    with pytest.raises(ValueError):
        sg.furstenberg_bound(1.5, 2)


def test_estimate_json_round_trip_fields(tmp_path):
    est = sg.estimate_lyapunov(sg.sanov_matrix_measure(), 50, 5, 3)
    fields = dataclasses.asdict(est)
    assert fields["n_steps"] == 50 and fields["n_trials"] == 5 and fields["seed"] == 3
    assert fields["exact_subadditive"] is None
    out = tmp_path / "lyapunov.json"
    argv = ["lyapunov", "--n-steps", "50", "--trials", "5", "--seed", "3", "--u-max", "2",
            "--no-timestamp", "--output", str(out)]
    assert cli.run(argv) == 0
    assert json.loads(out.read_text())["result"]["estimate"] == fields
