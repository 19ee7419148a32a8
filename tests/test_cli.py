"""Command-line behavior: formats, exit codes, error prefixes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import sgaplab as sg
from sgaplab import cli
from sgaplab.errors import ConvergenceError


def run_cli(*argv: str):
    proc = subprocess.run(
        [sys.executable, "-m", "sgaplab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def test_tree_norm_json_shape():
    proc = run_cli("tree-norm", "--degree", "4", "--depth", "4", "--no-timestamp")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["config"]["subcommand"] == "tree-norm"
    assert blob["config"]["seed"] == 0
    assert 0.7 <= blob["result"]["compressed_norm"] <= 0.866026
    assert "generated_at" not in blob


def test_timestamp_present_by_default():
    proc = run_cli("tree-norm", "--degree", "4", "--depth", "2")
    blob = json.loads(proc.stdout)
    assert "generated_at" in blob


def test_ladder_csv_output():
    proc = run_cli(
        "tree-norm", "--degree", "4", "--depth", "3", "--ladder",
        "--format", "csv", "--no-timestamp",
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "radius,norm"
    assert len(lines) == 5


def test_csv_is_rendered_only_for_csv_format(monkeypatch, tmp_path):
    def no_csv(self):
        raise RuntimeError("csv rendered for a non-csv format")

    monkeypatch.setattr(sg.CompressionLadder, "to_csv", no_csv)
    argv = ["tree-norm", "--degree", "4", "--depth", "3", "--ladder", "--no-timestamp"]
    for fmt in ("json", "text"):
        out = str(tmp_path / f"ladder.{fmt}")
        assert cli.run(argv + ["--format", fmt, "--output", out]) == 0
    with pytest.raises(RuntimeError):
        cli.run(argv + ["--format", "csv", "--output", str(tmp_path / "ladder.csv")])


def test_unknown_flag_is_usage_error():
    proc = run_cli("tree-norm", "--degree", "4", "--depth", "2", "--frobnicate")
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR:usage:")


def test_missing_subcommand_argument_is_usage_error():
    proc = run_cli("pgl2", "--q", "2")
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR:usage:")


def test_invalid_value_maps_to_exit_one_with_prefix():
    proc = run_cli("pgl2", "--q", "6", "--trunc", "10", "--no-timestamp")
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR:")


@pytest.mark.parametrize("basepoint", ["1,0,0", "1"])
def test_torus_basepoint_of_wrong_dimension_is_invalid(basepoint, capsys):
    assert cli.run(["torus", "--basepoint", basepoint, "--no-timestamp"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR:invalid:")


def test_cheeger_subcommand_reads_chain_json(tmp_path):
    chain = sg.WeightedChain(["0", "1"], [0.5, 0.5], [(0, 1, 1.0), (1, 0, 1.0)])
    path = tmp_path / "chain.json"
    path.write_text(sg.chain_to_json(chain))
    proc = run_cli("cheeger", "--input", str(path), "--exact", "--no-timestamp")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["result"]["h"] == pytest.approx(2.0, abs=1e-12)
    assert blob["result"]["argmin_subset"] == [0]


def test_pgl2_report_contents():
    proc = run_cli("pgl2", "--q", "2", "--trunc", "60", "--mode", "lumped", "--no-timestamp")
    blob = json.loads(proc.stdout)
    res = blob["result"]
    assert res["cheeger_bound"] == pytest.approx(1 / 3, abs=1e-15)
    assert abs(res["second_eigenvalue"] - 0.9428090415820635) <= 0.02
    assert res["detailed_balance_violation"] < 1e-14
    assert res["alternating_defect"] < 1e-12


def test_output_file_and_cite(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "expanders", "--n", "2", "--primes", "3", "--no-timestamp",
        "--output", str(out),
    )
    assert proc.returncode == 0 and proc.stdout == ""
    blob = json.loads(out.read_text())
    assert blob["result"]["members"][0]["order"] == 24
    cite = run_cli("expanders", "--n", "2", "--primes", "3", "--cite")
    assert cite.returncode == 0
    assert "expander" in cite.stdout.lower() or "Margulis" in cite.stdout


def test_bernoulli_and_torus_subcommands():
    proc = run_cli("bernoulli", "--config", "e,a", "--radius", "3", "--no-timestamp")
    blob = json.loads(proc.stdout)
    assert blob["result"]["compressed_norm"] <= 0.866025403784 + 1e-9
    proc = run_cli("torus", "--radius", "10", "--no-timestamp", "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "radius,norm"


def test_seeded_outputs_bitwise_identical():
    argv = ("lyapunov", "--n-steps", "60", "--trials", "8", "--seed", "5", "--no-timestamp")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    third = run_cli("lyapunov", "--n-steps", "60", "--trials", "8", "--seed", "6", "--no-timestamp")
    assert third.stdout != first.stdout


def test_convergence_error_maps_to_exit_two(monkeypatch):
    def explode(_args):
        raise ConvergenceError("did not converge")

    monkeypatch.setitem(cli._RUNNERS, "tree-norm", explode)
    code = cli.run(["tree-norm", "--degree", "4", "--depth", "2"])
    assert code == 2


def test_tree_norm_depth_12_in_stated_range():
    proc = run_cli("tree-norm", "--degree", "4", "--depth", "12", "--no-timestamp")
    blob = json.loads(proc.stdout)
    assert 0.80 <= blob["result"]["compressed_norm"] <= 0.866026


def test_return_prob_measure_file(tmp_path):
    mu = sg.ProbMeasure.uniform(
        [sg.free_word(2, [s]) for s in (1, -1, 2, -2)]
    )
    path = tmp_path / "measure.json"
    path.write_text(mu.to_json())
    proc = run_cli(
        "return-prob", "--measure-file", str(path), "--n-max", "100", "--no-timestamp"
    )
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["result"]["method"] == "radial_tree"
    assert blob["result"]["monotone"] is True


def test_return_prob_csv_roots_are_plain_floats(tmp_path):
    out = tmp_path / "roots.csv"
    argv = ["return-prob", "--preset", "free-symmetric", "--n-max", "40",
            "--format", "csv", "--no-timestamp", "--output", str(out)]
    assert cli.run(argv) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[0] == ["n", "root"] and len(rows) == 41
    roots = [float(root) for _n, root in rows[1:]]
    assert all(0.0 < r < 1.0 for r in roots)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_sgap_threads_caps_blas_threads():
    env = dict(os.environ, SGAP_THREADS="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sgaplab; print(len(os.listdir('/proc/self/task')))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_run_config_echoed_in_header():
    proc = run_cli(
        "return-prob", "--preset", "z", "--n-max", "30", "--no-timestamp"
    )
    blob = json.loads(proc.stdout)
    assert blob["config"]["preset"] == "z"
    assert blob["config"]["n_max"] == 30
    assert blob["result"]["final_root"] > 0.9
