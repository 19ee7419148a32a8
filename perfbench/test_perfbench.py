"""Self-tests of the benchmark: seeded inputs, self-time arithmetic, wrapper
restoration, reference checks and the job runner."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import types

import pytest

import sgaplab as sg
import sgaplab.cli as cli
import tracing
from references import check_job
from tracing import PER_LAYER, Span, Tracer, self_times
from worker import Tally, run_jobs
from workloads import WORKLOADS, Job, build, halfline_chain, random_chain

HERE = os.path.dirname(os.path.abspath(__file__))


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_ref", "peak_rss_mib", "pass_ratio"]


def _files(directory) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_bytes(tmp_path, workload):
    runs = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        workdir = tmp_path / tag
        workdir.mkdir()
        jobs = build(workload, seed, str(workdir))
        argv = [[a.replace(str(workdir), "<dir>") for a in job.argv] for job in jobs]
        runs[tag] = (argv, _files(workdir))
    assert runs["a"] == runs["b"]
    assert len(runs["a"][0]) == len(runs["c"][0])
    if runs["a"][1]:
        assert runs["a"][1] != runs["c"][1]


def test_generated_chains_have_fixed_counts():
    for seed in range(5):
        data = random_chain(random.Random(seed), 20, 90)
        chain = sg.chain_from_json(json.dumps(data))
        assert chain.n == 20 and chain.prob.size == 180
        assert sg.check_detailed_balance(chain) < 1e-12
        assert sg.cheeger_sweep(chain).h > 0.0  # connected


@pytest.mark.parametrize("q, length", [(2, 2), (2, 7), (2, 60), (3, 11), (9, 30)])
def test_halfline_chain_matches_library(q, length):
    spec = sg.HalfLineSpec(q=q, length=length, mode="lumped")
    library = json.loads(sg.chain_to_json(sg.build_pgl2_halfline(spec)))
    assert halfline_chain(q, length) == library


def test_self_times_on_nested_spans():
    spans = [
        Span(1, "cli.run", -1, 0.0, 10.0),
        Span(1, "markov_core.lambda1", 0, 1.0, 4.0),
        Span(1, "markov_core.chain_spectrum", 1, 2.0, 3.0),
        Span(1, "cheeger.cheeger_sweep", 0, 5.0, 9.0),
        Span(2, "cli.run", -1, 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_self_times_clip_overlapping_children():
    spans = [
        Span(1, "cli.run", -1, 0.0, 10.0),
        Span(1, "a.f", 0, 2.0, 6.0),
        Span(1, "a.g", 0, 4.0, 8.0),
        Span(1, "a.h", 0, 9.0, 12.0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "sgaplab" or name.startswith("sgaplab.")):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    out[("WeightedChain", "__init__")] = vars(sg.WeightedChain)["__init__"]
    return out


def test_tracer_follows_the_call_graph_and_restores_wrappers(tmp_path):
    before = _bindings()
    tracer = Tracer()
    out = str(tmp_path / "cayley.json")
    with tracer.installed():
        assert sg.lambda1 is not before[("sgaplab", "lambda1")]
        assert cli.run(["cayley", "--n", "2", "--p", "3", "--no-timestamp", "--output", out]) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    assert tracer.spans[0].name == "cli.run" and tracer.spans[0].parent == -1
    assert {span.job for span in tracer.spans} == {1}
    metrics = tracer.metrics()
    # lambda_1 is solved twice (cli and expander_bound_check), plus the norm
    assert metrics["markov_core.solves"] == 3
    assert metrics["expanders.members"] == 1
    assert metrics["walk_models.vertices"] == 24
    assert metrics["group_algebra.mul_calls"] > 0
    assert metrics["cli.bytes_out"] == os.path.getsize(out)
    assert metrics["spectral_engine.solves"] == 0
    assert tracer.missing == []

    spans_file = tmp_path / "spans.jsonl"
    tracer.write_spans(str(spans_file))
    written = [json.loads(line) for line in spans_file.read_text().splitlines()]
    assert [(s["name"], s["parent"]) for s in written] == [(s.name, s.parent) for s in tracer.spans]


def test_tracer_lists_targets_the_library_lacks(monkeypatch):
    monkeypatch.setattr(tracing, "SPANNED", tracing.SPANNED + (("cheeger", "no_such_function", None, None),))
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["cheeger.no_such_function"]


def test_tracer_restores_wrappers_when_the_body_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def _run_one(tmp_path, *argv, chain=None) -> tuple[Job, str]:
    job = Job(tuple(argv), chain)
    out = str(tmp_path / f"out{job.output_suffix}")
    assert cli.run([*argv, "--no-timestamp", "--output", out]) == 0
    return job, out


def _perturb(path, edit) -> None:
    with open(path) as fh:
        data = json.load(fh)
    edit(data["result"])
    with open(path, "w") as fh:
        json.dump(data, fh)


def test_tree_norm_perturbed_output_fails(tmp_path):
    job, out = _run_one(tmp_path, "tree-norm", "--degree", "4", "--depth", "4", "--ladder")
    assert check_job(job, out) is None
    _perturb(out, lambda r: r["norms"].__setitem__(2, r["norms"][2] * (1 + 1e-6)))
    assert "radius 2" in check_job(job, out)


def test_cheeger_perturbed_output_fails(tmp_path):
    chain = random_chain(random.Random(3), 9, 18)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    job, out = _run_one(tmp_path, "cheeger", "--input", str(path), "--exact", chain=chain)
    assert check_job(job, out) is None
    _perturb(out, lambda r: r.__setitem__("h", r["h"] * 1.001))
    assert check_job(job, out) is not None


def test_return_prob_perturbed_output_fails(tmp_path):
    job, out = _run_one(tmp_path, "return-prob", "--preset", "free-ab", "--n-max", "300")
    assert check_job(job, out) is None
    _perturb(out, lambda r: r.__setitem__("final_root", r["final_root"] - 1e-7))
    assert check_job(job, out) is not None


def test_missing_output_fails(tmp_path):
    job = Job(("bernoulli", "--radius", "3"))
    assert "unreadable output" in check_job(job, str(tmp_path / "absent.json"))


def test_raising_job_counts_as_failed_and_the_run_goes_on(tmp_path):
    def run(argv):
        if "--boom" in argv:
            raise ZeroDivisionError("float division by zero")
        return cli.run(argv)

    jobs = [
        Job(("tree-norm", "--degree", "4", "--depth", "3")),
        Job(("tree-norm", "--boom")),
        Job(("tree-norm", "--degree", "6", "--depth", "2")),
    ]
    outputs = [str(tmp_path / f"out{i}.json") for i in range(3)]
    samples = iter([1.0, 3.0, 2.0, 2.0])
    wall, relative, errors = run_jobs(types.SimpleNamespace(run=run), jobs, outputs, lambda: next(samples))
    assert wall > 0.0
    assert relative == pytest.approx(wall / 2.0)  # one segment: three short jobs
    assert errors[0] is None and errors[2] is None
    assert errors[1].startswith("raised ZeroDivisionError")
    tally = Tally()
    tally.record(jobs, outputs, errors)
    assert (tally.attempted, tally.failed, len(tally.unexpected)) == (3, 1, 1)

    known = [jobs[0], Job(jobs[1].argv, known_defect="documented"), jobs[2]]
    tally = Tally()
    tally.record(known, outputs, errors)
    assert (tally.attempted, tally.failed, tally.unexpected) == (3, 1, [])


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernels", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
