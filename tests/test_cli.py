"""Command-line behavior: formats, exit codes, error prefixes, determinism."""

import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import sgaplab as sg
from sgaplab import cheeger, cli, markov_core
from sgaplab.errors import ConvergenceError
from sgaplab.walk_models import tree_ball_size

from conftest import complete_graph_chain


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


SMALL_RUNS = {
    "tree-norm": ["--degree", "4", "--depth", "3", "--ladder"],
    "return-prob": ["--preset", "free-ab", "--n-max", "30"],
    "pgl2": ["--q", "3", "--trunc", "11"],
    "cheeger": ["--input", "{chain}", "--exact"],
    "cayley": ["--n", "2", "--p", "3"],
    "torus": ["--radius", "4", "--ladder-step", "2"],
    "bernoulli": ["--config", "e,a", "--radius", "2"],
    "expanders": ["--n", "2", "--primes", "3,5"],
    "lyapunov": ["--n-steps", "20", "--trials", "2", "--u-max", "3"],
}


def small_argv(subcommand: str, tmp_path) -> list[str]:
    chain = tmp_path / "chain.json"
    if not chain.exists():
        chain.write_text(sg.chain_to_json(sg.WeightedChain(
            ["a", "b", "c"], [1.0, 2.0, 1.0],
            [(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5), (2, 1, 1.0)],
        )))
    args = [a.format(chain=chain) for a in SMALL_RUNS[subcommand]]
    return [subcommand, *args, "--no-timestamp"]


def test_csv_is_rendered_only_for_csv_format(monkeypatch, tmp_path):
    def no_csv(_x):
        raise RuntimeError("csv rendered for a non-csv format")

    monkeypatch.setattr(cli, "_cell", no_csv)
    assert sorted(SMALL_RUNS) == sorted(cli._RUNNERS)
    for subcommand in SMALL_RUNS:
        argv = small_argv(subcommand, tmp_path)
        for fmt in ("json", "text"):
            out = str(tmp_path / f"{subcommand}.{fmt}")
            assert cli.run(argv + ["--format", fmt, "--output", out]) == 0
        with pytest.raises(RuntimeError):
            cli.run(argv + ["--format", "csv", "--output", str(tmp_path / "out.csv")])


NUMBER = re.compile(r"-?(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|-?inf|nan")
BARE_WORD = re.compile(r"[A-Za-z_][\w@]*")


def csv_cell(cell: str):
    """A CSV cell as a float, or as itself when it is a bare word."""
    if NUMBER.fullmatch(cell):
        return float(cell)
    assert BARE_WORD.fullmatch(cell), f"cell {cell!r} is neither a number nor a bare word"
    return cell


def table_from_json(subcommand: str, blob: dict) -> list[tuple]:
    """The rows the CSV must hold, read from the JSON run of the same job."""
    config, res = blob["config"], blob["result"]
    if subcommand in ("tree-norm", "torus"):
        return [("radius", "norm"), *zip(res["radii"], res["norms"])]
    if subcommand == "return-prob":
        return [("n", "root"), (config["n_max"], res["final_root"])]  # last row only
    if subcommand in ("pgl2", "cayley"):
        return [("key", "value"), *res.items()]
    if subcommand == "cheeger":
        return [("h", "method"), (res["h"], res["method"])]
    if subcommand == "bernoulli":
        return [("radius", "norm"), (config["radius"], res["compressed_norm"])]
    if subcommand == "expanders":
        members = [(r["prime"], r["order"], r["lambda_1"], r["gap_bound"]) for r in res["members"]]
        return [("p", "order", "lambda_1", "gap_bound"), *members]
    assert subcommand == "lyapunov"
    rows = [("n", "u_over_n"), *enumerate(res["u_over_n"], 1)]
    rows += [(f"mc@{config['n_steps']}", res["estimate"]["point_estimate"])]
    return rows + [("bound", res["spectral_bound"])]


@pytest.mark.parametrize("subcommand", sorted(SMALL_RUNS))
def test_csv_cells_are_plain_and_match_json(subcommand, tmp_path):
    argv = small_argv(subcommand, tmp_path)
    json_out, csv_out = tmp_path / "run.json", tmp_path / "run.csv"
    assert cli.run(argv + ["--output", str(json_out)]) == 0
    assert cli.run(argv + ["--format", "csv", "--output", str(csv_out)]) == 0
    text = csv_out.read_text()
    assert "np." not in text and "'" not in text and '"' not in text
    rows = [tuple(csv_cell(c) for c in line.split(",")) for line in text.splitlines()]
    want = table_from_json(subcommand, json.loads(json_out.read_text()))
    want = [tuple(c if isinstance(c, str) else float(c) for c in row) for row in want]
    if subcommand == "return-prob":
        assert len(rows) == 1 + 30 and rows[0] == want[0] and rows[-1] == want[1]
    elif subcommand in ("pgl2", "cayley"):  # the JSON keys are sorted
        assert rows[0] == want[0] and dict(rows[1:]) == dict(want[1:]) and len(rows) == len(want)
    else:
        assert rows == want


@pytest.mark.parametrize("argv, blob, key", [
    (["cheeger", "--input"], {"measure": [1.0], "transitions": [[0, 0, 1.0]]}, "states"),
    (["return-prob", "--measure-file"], {"params": {"rank": 1}, "support": [{"elem": [1], "w": 1.0}]}, "variant"),
])
def test_missing_key_in_input_json_is_invalid(argv, blob, key, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(blob))
    assert cli.run(argv + [str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR:invalid:") and repr(key) in err[0]


@pytest.mark.parametrize("argv, blob", [
    (["cheeger", "--input"], [1, 2]),
    (["return-prob", "--measure-file"], [1, 2]),
    (["return-prob", "--measure-file"], {"variant": "free", "params": {"rank": 1}, "support": 5}),
])
def test_non_object_input_json_is_invalid(argv, blob, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(blob))
    assert cli.run(argv + [str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR:invalid:")


def _free_measure(elem=(1,), w=1.0, rank=1):
    return {"variant": "free", "params": {"rank": rank}, "support": [{"elem": elem, "w": w}]}


def _matz_measure(elem):
    inverse = [[1, -2], [0, 1]]
    return {"variant": "matz", "params": {"d": 2},
            "support": [{"elem": elem, "w": 0.5}, {"elem": inverse, "w": 0.5}]}


@pytest.mark.parametrize("argv, blob, message", [
    (["cheeger", "--input"],
     {"states": ["a", "b"], "measure": {"a": 1}, "transitions": [[0, 1, 1.0], [1, 0, 1.0]]},
     "'measure' list of numbers"),
    (["return-prob", "--measure-file"], _free_measure(elem=5), "element 5 must be a list"),
    (["return-prob", "--measure-file"], _matz_measure([[1, None], [0, 1]]), "None is not an integer"),
    (["return-prob", "--measure-file"], _free_measure(w=None), "weight None is not a number"),
    (["return-prob", "--measure-file"], _free_measure(rank=None), "None is not an integer"),
    (["return-prob", "--measure-file"], _free_measure(elem=[1.5]), "1.5 is not an integer"),
    (["return-prob", "--measure-file"], _free_measure(elem=[True]), "True is not an integer"),
    (["return-prob", "--measure-file"], _matz_measure([[1, 2.7], [0, 1]]), "2.7 is not an integer"),
], ids=["measure-object", "elem-5", "elem-null-entry", "w-null", "rank-null", "letter-1.5", "letter-true",
     "matz-2.7"])
def test_malformed_input_json_is_invalid_not_a_traceback_or_truncated(argv, blob, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(blob))
    assert cli.run(argv + [str(path), "--output", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR:invalid:") and message in err[0]
    assert not (tmp_path / "out.json").exists()


def test_non_integral_transition_index_in_input_json_is_invalid(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"states": ["a", "b"], "measure": [1.0, 1.0],
                                "transitions": [[0.7, 1, 1.0], [1, 0.2, 1.0]]}))
    assert cli.run(["cheeger", "--input", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["ERROR:invalid:transition indices must be integers"]


def test_bad_bernoulli_word_names_the_word_and_the_character(capsys):
    assert cli.run(["bernoulli", "--config", "e,a1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR:invalid:word 'a1': '1' ")


@pytest.mark.parametrize("subcommand, extra", [
    ("tree-norm", ["--degree", "4", "--depth", "1000000000"]),
    ("tree-norm", ["--degree", "4", "--depth", "1000000000", "--ladder"]),
    ("bernoulli", ["--radius", "1000000000"]),
])
def test_radial_depth_over_budget_fails_before_allocating(subcommand, extra, capsys):
    tracemalloc.start()
    try:
        code = cli.run([subcommand, *extra, "--no-timestamp"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR:budget:")
    assert peak < 1 << 20


def test_return_prob_n_max_over_budget_fails_before_allocating(capsys):
    tracemalloc.start()
    try:
        code = cli.run(["return-prob", "--preset", "free-symmetric", "--n-max", "100000000", "--no-timestamp"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR:budget:n_max 100000000 is over the series budget")
    assert peak < 1 << 20


def test_torus_orbit_over_budget_is_a_budget_error(monkeypatch, capsys):
    monkeypatch.setattr(sg.group_algebra, "ORBIT_BUDGET", 1000)
    assert cli.run(["torus", "--radius", "150", "--no-timestamp"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR:budget:orbit enumeration exceeded 1000 points")


def test_bernoulli_vertex_count_past_the_str_digit_limit_is_a_budget_error(capsys):
    limit = sys.get_int_max_str_digits()
    assert limit > 0
    radius = next(r for r in range(1, 100_000) if tree_ball_size(4, r) >= 10**limit)
    assert cli.run(["bernoulli", "--radius", str(radius - 1), "--format", "csv"]) == 0
    capsys.readouterr()
    for r in (radius, 10_000):
        assert cli.run(["bernoulli", "--radius", str(r), "--no-timestamp"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ERROR:budget:bernoulli radius {r}:")


def test_lyapunov_factors_over_budget_fail_before_allocating(capsys):
    tracemalloc.start()
    try:
        code = cli.run(["lyapunov", "--n-steps", "1000000000", "--trials", "1", "--no-timestamp"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR:budget:1000000000 steps x 1 trials")
    assert peak < 1 << 20


def path_chain(n: int) -> sg.WeightedChain:
    """The simple walk on a path of n states."""
    measure = [1.0] + [2.0] * (n - 2) + [1.0]
    steps = [(i, i + 1, 1.0 / measure[i]) for i in range(n - 1)]
    steps += [(i + 1, i, 1.0 / measure[i + 1]) for i in range(n - 1)]
    return sg.WeightedChain([str(i) for i in range(n)], measure, steps)


def test_sweep_over_the_spectrum_limit_fails_before_the_dense_copy(tmp_path, capsys):
    n = markov_core.SPECTRUM_LIMIT + 1
    chain = tmp_path / "path.json"
    chain.write_text(sg.chain_to_json(path_chain(n)))
    tracemalloc.start()
    try:
        code = cli.run(["cheeger", "--input", str(chain), "--sweep", "--no-timestamp"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ERROR:budget:dense spectrum of {n} states")
    assert peak < 8 * n * n // 4
    # the largest half-line chain whose weights do not underflow stays admitted
    assert cli.run(["pgl2", "--q", "2", "--trunc", "1074", "--output", str(tmp_path / "q2.json")]) == 0


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


@pytest.mark.parametrize("step", ["0", "-2"])
def test_torus_ladder_step_below_one_is_invalid(step, capsys):
    assert cli.run(["torus", "--radius", "4", "--ladder-step", step, "--no-timestamp"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ERROR:invalid:--ladder-step must be at least 1, got {step}"]


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


@pytest.mark.parametrize("subcommand", sorted(SMALL_RUNS))
def test_cite_prints_one_source_line(subcommand, tmp_path, capsys):
    assert cli.run(small_argv(subcommand, tmp_path) + ["--cite"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out == cli.CITATIONS[subcommand] + "\n"


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


def test_cheeger_exact_drift_is_a_convergence_error(monkeypatch, tmp_path, capsys):
    # a recomputed cut that disagrees with the enumeration is reported, typed
    path = tmp_path / "chain.json"
    path.write_text(sg.chain_to_json(complete_graph_chain(3)))
    monkeypatch.setattr(cheeger, "cut_ratio", lambda chain, subset: 0.25)
    assert cli.run(["cheeger", "--input", str(path), "--exact"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR:converge:cheeger_exact: ")
    assert "subset (0,)" in err[0] and "0.25 recomputed" in err[0] and "1.5 enumerated" in err[0]


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
    # the per-library variables unset, then preset above the cap
    for preset in (None, "2"):
        env = dict(os.environ, SGAP_THREADS="1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
            if preset is not None:
                env[var] = preset
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, sgaplab, numpy; print(len(os.listdir('/proc/self/task')))"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1", f"preset {preset}"


def test_run_config_echoed_in_header():
    proc = run_cli(
        "return-prob", "--preset", "z", "--n-max", "30", "--no-timestamp"
    )
    blob = json.loads(proc.stdout)
    assert blob["config"]["preset"] == "z"
    assert blob["config"]["n_max"] == 30
    assert blob["result"]["final_root"] > 0.9


def test_one_process_matches_fresh_processes_and_builds_the_parser_once(tmp_path, capsys):
    chain = small_argv("cheeger", tmp_path)[2]
    runs = [
        ["cheeger", "--input", chain, "--sweep", "--no-timestamp"],
        ["cheeger", "--input", chain, "--exact", "--no-timestamp"],
        ["pgl2", "--q", "2"],
        ["tree-norm", "--degree", "4", "--depth", "3", "--ladder", "--no-timestamp"],
    ]
    cli.build_parser.cache_clear()
    codes = []
    for argv in runs:
        codes.append(cli.run(argv))
        got = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (codes[-1], got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert codes == [0, 0, 1, 0]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(runs) - 1)
