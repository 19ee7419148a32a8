"""Expander family certificates from congruence quotients."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp

import sgaplab as sg
from sgaplab import cli
from sgaplab import markov_core
from sgaplab.errors import BudgetExceededError, ConvergenceError
from sgaplab.expanders import MemberRecord, _point_moves, _sl2_pieces, build_member_graph, u_block

from conftest import tilted_eigh


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


# ---------------------------------------------------------------------------
# SL_2(F_p), p odd: the U-blocks, the reference, and the irreducible pieces
# ---------------------------------------------------------------------------

def _block_spectrum(p, k):
    """The spectrum of block k: its real form's, with the doubling undone."""
    theta = np.linalg.eigvalsh(u_block(p, k).toarray())
    assert np.max(np.abs(theta[0::2] - theta[1::2])) <= 1e-12
    return theta[0::2]


def _pieces_spectrum(p):
    """The spectra of the pieces, one per irreducible representation, each
    eigenvalue repeated dim pi times: P_0 holds the trivial representation and
    the Steinberg one (dim p); P_(p-1)/2 and M_(p+1)/2 each hold two halves,
    of dim (p + 1) / 2 and (p - 1) / 2."""
    principal, cuspidal = _sl2_pieces(p)
    half = (p + 1) // 2
    out = []
    for j, theta in enumerate(np.linalg.eigvalsh(principal(np.arange(half)))):
        if j == 0:
            out += [theta[-1:], np.repeat(theta[:-1], p)]
        else:
            out.append(np.repeat(theta, half if 2 * j == p - 1 else p + 1))
    for j, theta in enumerate(np.linalg.eigvalsh(cuspidal(np.arange(1, half + 1))), start=1):
        out.append(np.repeat(theta, half - 1 if j == half else p - 1))
    return np.sort(np.concatenate(out))


@pytest.mark.parametrize("p", [5, 7])
def test_union_of_all_blocks_is_the_cayley_spectrum(p):
    blocks = np.sort(np.concatenate([_block_spectrum(p, k) for k in range(p)]))
    theta, _ = sg.chain_spectrum(sg.graph_to_simple_walk_chain(build_member_graph(2, p)))
    assert blocks.size == sg.special_linear_order(2, p)
    assert np.max(np.abs(blocks - np.sort(theta))) <= 1e-12
    pieces = _pieces_spectrum(p)
    assert pieces.size == sg.special_linear_order(2, p)
    assert np.max(np.abs(pieces - np.sort(theta))) <= 1e-12


def test_blocks_k_and_k_times_a_square_are_isospectral():
    p = 13
    spectra = {k: _block_spectrum(p, k) for k in range(1, p)}
    for k in range(1, p):
        for a in range(2, p):
            assert np.max(np.abs(spectra[k] - spectra[k * a * a % p])) <= 1e-12
    # the residues and the non-residues are the two classes, and they differ
    assert np.max(np.abs(spectra[1] - spectra[2])) > 1e-3
    # the pieces of chi_j and chi_-j, and of nu_j and nu_-j, are isospectral
    principal, cuspidal = _sl2_pieces(p)
    for build, order in ((principal, p - 1), (cuspidal, p + 1)):
        theta = np.linalg.eigvalsh(build(np.arange(order)))
        assert np.max(np.abs(theta - theta[-np.arange(order)])) <= 1e-12
        assert np.max(np.abs(theta[1] - theta[2])) > 1e-3


def test_blocks_are_exactly_symmetric_and_block_zero_is_stochastic():
    for p in (3, 11, 29):
        n = p * p - 1
        for k in range(p):
            block = u_block(p, k)
            assert block.shape == (2 * n, 2 * n)
            assert abs(block - block.T).max() == 0.0
        b0 = u_block(p, 0)
        assert abs(b0[:n, n:]).max() == 0.0
        assert np.array_equal(np.asarray(b0[:n, :n].sum(axis=1)).ravel(), np.ones(n))


def test_block_family_matches_the_graph_path():
    primes = [3, 5, 7, 11, 13, 17]
    cert = sg.build_family(2, primes)
    for rec in cert.members:
        chain = sg.graph_to_simple_walk_chain(build_member_graph(2, rec.prime))
        lam = sg.lambda1(chain).estimate
        norm = sg.operator_norm_l20(chain).estimate
        assert rec.method == "irreps"
        assert rec.order == chain.n and rec.degree == 4 and rec.h_exact is None
        assert abs(rec.lambda_1 - lam) <= 1e-12 * lam
        assert abs(rec.norm_l20 - norm) <= 1e-12 * norm
    closed_forms = {3: (3 - np.sqrt(3)) / 4, 5: (3 - np.sqrt(5)) / 4, 7: (2 - np.sqrt(2)) / 4,
                    11: (3 - np.sqrt(5)) / 8}
    for rec in cert.members[:4]:
        assert abs(rec.lambda_1 - closed_forms[rec.prime]) <= 1e-14


def _schreier_chain_route(p):
    """(lambda_1, norm_l20) with block 0 as a WeightedChain through the
    checked `lambda1` and `operator_norm_l20`, combined with the two
    twisted blocks."""
    points = p * p - 1
    src, dst, _phase = _point_moves(p)
    b0 = sp.csr_matrix((np.full(src.size, 0.25), (src, dst)), shape=(points, points)).tocoo()
    chain = sg.WeightedChain(range(points), np.ones(points), np.column_stack([b0.row, b0.col, b0.data]))
    lam, norm = sg.lambda1(chain).estimate, sg.operator_norm_l20(chain).estimate
    non_residue = next(k for k in range(2, p) if pow(k, (p - 1) // 2, p) == p - 1)
    for k in (1, non_residue):
        block = u_block(p, k)
        v0 = np.cos(np.arange(1, block.shape[0] + 1) * 0.7) + 0.1
        top = markov_core.extremal_eigs(block, "LA", v0, stage="oracle")[0].estimate
        modulus = abs(markov_core.extremal_eigs(block, "LM", v0, stage="oracle")[0].estimate)
        lam, norm = min(lam, 1.0 - top), max(norm, modulus)
    return lam, norm


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_block_zero_matches_the_schreier_chain(p):
    (rec,) = sg.build_family(2, [p]).members
    lam, norm = _schreier_chain_route(p)
    assert abs(rec.lambda_1 - lam) <= 1e-12 * lam
    assert abs(rec.norm_l20 - norm) <= 1e-12 * norm


def test_block_path_budget_and_moduli():
    with pytest.raises(BudgetExceededError, match="1018080 nonzero vectors"):
        sg.build_family(2, [1009])  # p^2 - 1 over ORBIT_BUDGET, before any block
    for bad in (9, 1, 0, -3):
        with pytest.raises(ValueError, match=f"modulus {bad} is not prime"):
            sg.build_family(2, [bad])


def test_twisted_block_residual_failure_names_stage_block_and_size():
    # 22 = 23 - 1 rows: the cuspidal pieces, not the principal series
    with tilted_eigh(22), pytest.raises(ConvergenceError,
                                        match=r"expanders: cuspidal piece j=1 of SL_2\(F_23\) \(22 rows\)"):
        sg.build_family(2, [23])


def test_expanders_cli_routes_p2_through_the_graph(capsys):
    assert cli.run(["expanders", "--n", "2", "--primes", "2,3", "--no-timestamp"]) == 0
    members = json.loads(capsys.readouterr().out)["result"]["members"]
    assert [(m["prime"], m["order"], m["method"]) for m in members] == [
        (2, 6, "dense"), (3, 24, "irreps"),
    ]
    assert members[0]["h_exact"] is not None and members[1]["h_exact"] is None


def test_expanders_cli_p97(capsys):
    assert cli.run(["expanders", "--n", "2", "--primes", "97", "--no-timestamp"]) == 0
    (member,) = json.loads(capsys.readouterr().out)["result"]["members"]
    assert member["order"] == 97 * (97 * 97 - 1) and member["method"] == "irreps"
    assert 0.0 < member["gap_bound"] <= member["lambda_1"]
    assert member["lambda_1"] == pytest.approx(0.0342577608, abs=1e-10)
