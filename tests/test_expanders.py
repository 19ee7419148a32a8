"""Expander family certificates from congruence quotients."""

import dataclasses

import numpy as np
import pytest

import sgaplab as sg
from sgaplab import cli
from sgaplab.errors import BudgetExceededError
from sgaplab.expanders import MemberRecord, build_member_graph


def test_member_graph_orders_and_regularity():
    g2 = build_member_graph(2, 5)
    assert g2.n_vertices == 5 * 24 == sg.special_linear_order(2, 5)
    assert np.all(np.bincount(g2.edge_src) == 4)
    g3 = build_member_graph(3, 2)
    assert g3.n_vertices == 168
    assert np.all(np.bincount(g3.edge_src) == 12)


def test_family_certificate_small():
    cert = sg.build_family(2, [3, 5])
    assert [r.prime for r in cert.members] == [3, 5]
    assert [r.order for r in cert.members] == [24, 120]
    for rec in cert.members:
        assert rec.lambda_1 > 0
        assert rec.lambda_1 >= rec.gap_bound - 1e-9
        assert rec.h_lower == pytest.approx(rec.lambda_1 / 2)
        assert rec.h_upper == pytest.approx(np.sqrt(8 * rec.lambda_1))
    assert cert.family_inf_lambda1 == pytest.approx(
        min(r.lambda_1 for r in cert.members)
    )


def test_expanding_constant_is_half_min_gap():
    cert = sg.build_family(2, [3, 5])
    assert sg.expanding_constant_report(cert) == pytest.approx(
        cert.family_inf_lambda1 / 2
    )


def test_lambda1_invariant_under_generator_reordering():
    gens = sg.elementary_generators(2, 5)
    chain_a = sg.graph_to_simple_walk_chain(sg.build_cayley(gens))
    chain_b = sg.graph_to_simple_walk_chain(sg.build_cayley(list(reversed(gens))))
    lam_a = sg.lambda1(chain_a).estimate
    lam_b = sg.lambda1(chain_b).estimate
    assert lam_a == pytest.approx(lam_b, abs=1e-12)


def test_certificate_rejects_violations():
    bad = MemberRecord(
        prime=3, order=24, degree=4, lambda_1=0.0, norm_l20=0.5, gap_bound=0.1,
        h_lower=0.0, h_upper=0.0, h_edge_lower=0.0, h_edge_upper=0.0,
        h_exact=None, method="dense",
    )
    with pytest.raises(ValueError):
        sg.FamilyCertificate(n=2, members=(bad,))
    with pytest.raises(ValueError):
        sg.FamilyCertificate(n=2, members=())


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        build_member_graph(3, 11)  # order ~ 10^9


def test_certificate_serialization(tmp_path):
    cert = sg.build_family(2, [3])
    blob = dataclasses.asdict(cert)
    assert blob["members"][0]["order"] == 24
    assert set(blob["members"][0]) == {f.name for f in dataclasses.fields(MemberRecord)}
    out = tmp_path / "cert.csv"
    argv = ["expanders", "--n", "2", "--primes", "3", "--format", "csv", "--output", str(out)]
    assert cli.run(argv) == 0
    csv_lines = out.read_text().splitlines()
    assert csv_lines[0] == "p,order,lambda_1,gap_bound"
    assert len(csv_lines) == 2
    assert csv_lines[1].split(",")[:2] == ["3", "24"]
