"""Span tracing for the traced benchmark pass.

The tracer rebinds public sgaplab functions, in every sgaplab module that
holds them, with wrappers that record one span per call: name, start, end,
parent span and job.  A span with no parent is a `cli.run` call and starts a
new job.  Spans stay in memory; `metrics` turns them into the per-layer
numbers and `write_spans` writes them out when the run ends.  The library
itself is not edited, and leaving `installed()` puts every original back.
A target the library no longer has is listed in `missing`, so that its
zero metrics are not taken for a layer the workload skips.

Small helpers (`free_word`, `inverse`, `int_det`, ...) are not wrapped:
their time counts as self time of the span that called them.  `mul` and
`cut_ratio` run per element or per prefix, so they are counted, not
spanned.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

from sgaplab.markov_core import ITER_RESIDUAL_TOL

PACKAGE = "sgaplab"

# Per-layer metrics in report order, with their units.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("group_algebra.self_s", "s"),
    ("group_algebra.series_s", "s"),
    ("group_algebra.series_terms", "count"),
    ("group_algebra.mul_calls", "count"),
    ("group_algebra.convolve_calls", "count"),
    ("walk_models.build_s", "s"),
    ("walk_models.validate_s", "s"),
    ("walk_models.to_chain_s", "s"),
    ("walk_models.vertices", "count"),
    ("walk_models.edges", "count"),
    ("markov_core.assemble_s", "s"),
    ("markov_core.balance_s", "s"),
    ("markov_core.solve_s", "s"),
    ("markov_core.solves", "count"),
    ("markov_core.solver_iterations", "count"),
    ("markov_core.solver_unconverged", "count"),
    ("markov_core.states", "count"),
    ("markov_core.nnz", "count"),
    ("spectral_engine.assemble_s", "s"),
    ("spectral_engine.solve_s", "s"),
    ("spectral_engine.solves", "count"),
    ("spectral_engine.rows", "count"),
    ("spectral_engine.nnz", "count"),
    ("cheeger.exact_s", "s"),
    ("cheeger.sweep_s", "s"),
    ("cheeger.subsets", "count"),
    ("cheeger.cut_ratio_calls", "count"),
    ("expanders.self_s", "s"),
    ("expanders.members", "count"),
    ("lyapunov.mc_s", "s"),
    ("lyapunov.factor_products", "count"),
    ("lyapunov.exact_s", "s"),
    ("trace.overhead_s", "s"),
)

# Layers whose whole self time is reported as <layer>.self_s.
SELF_TIME_LAYERS = ("cli", "group_algebra", "expanders")


@dataclass
class Span:
    job: int
    name: str
    parent: int
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Count hooks, called with (tracer, span, args, kwargs, result) after a call
# returns.

def _count_bytes_out(tr, span, args, kwargs, result) -> None:
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        if os.path.exists(path):
            tr.counts["cli.bytes_out"] += os.path.getsize(path)


def _count_series(tr, span, args, kwargs, result) -> None:
    tr.counts["group_algebra.series_terms"] += int(_arg(args, kwargs, 1, "n_max"))


def _count_convolve(tr, span, args, kwargs, result) -> None:
    tr.counts["group_algebra.convolve_calls"] += 1


def _count_graph(tr, span, args, kwargs, result) -> None:
    if hasattr(result, "n_vertices"):
        tr.counts["walk_models.vertices"] += result.n_vertices
        tr.counts["walk_models.edges"] += len(result.edge_src)
    else:  # build_pgl2_halfline returns a chain
        tr.counts["walk_models.vertices"] += result.n
        tr.counts["walk_models.edges"] += len(result.prob)


def _count_solve(tr, span, args, kwargs, result) -> None:
    if span.parent >= 0 and tr.spans[span.parent].name in _SOLVERS:
        return  # the dense path of lambda1 / operator_norm_l20
    chain = _arg(args, kwargs, 0, "chain")
    tr.counts["markov_core.solves"] += 1
    tr.counts["markov_core.states"] += chain.n
    tr.counts["markov_core.nnz"] += len(chain.prob)
    # chain_spectrum returns arrays: one dense solve
    tr.counts["markov_core.solver_iterations"] += getattr(result, "iterations", 1)
    if getattr(result, "residual", 0.0) > ITER_RESIDUAL_TOL:
        tr.counts["markov_core.solver_unconverged"] += 1


def _count_compression(tr, span, args, kwargs, result) -> None:
    tr.counts["spectral_engine.rows"] += result.shape[0]
    tr.counts["spectral_engine.nnz"] += result.nnz


def _count_compressed_norm(tr, span, args, kwargs, result) -> None:
    tr.counts["spectral_engine.solves"] += 1


def _count_cut_report(tr, span, args, kwargs, result) -> None:
    tr.counts["cheeger.subsets"] += result.subset_count_examined


def _count_member(tr, span, args, kwargs, result) -> None:
    tr.counts["expanders.members"] += 1


def _count_factors(tr, span, args, kwargs, result) -> None:
    n_steps = int(_arg(args, kwargs, 1, "n_steps"))
    tr.counts["lyapunov.factor_products"] += n_steps * int(_arg(args, kwargs, 2, "n_trials"))


# (module, function or Class.method, stage metric for its self time, count hook)
SPANNED = (
    ("cli", "run", None, _count_bytes_out),
    ("group_algebra", "spectral_radius_return", "group_algebra.series_s", _count_series),
    ("group_algebra", "convolve", None, _count_convolve),
    ("group_algebra", "convolution_power", None, None),
    ("group_algebra", "group_closure", None, None),
    ("group_algebra", "check_adapted", None, None),
    ("group_algebra", "special_linear_order", None, None),
    ("walk_models", "build_tree", "walk_models.build_s", _count_graph),
    ("walk_models", "build_pgl2_halfline", "walk_models.build_s", _count_graph),
    ("walk_models", "build_cayley", "walk_models.build_s", _count_graph),
    ("walk_models", "build_torus_schreier", "walk_models.build_s", _count_graph),
    ("walk_models", "build_bernoulli_schreier", "walk_models.build_s", _count_graph),
    ("walk_models", "validate_labeled_graph", "walk_models.validate_s", None),
    ("walk_models", "graph_to_simple_walk_chain", "walk_models.to_chain_s", None),
    ("markov_core", "WeightedChain.__init__", "markov_core.assemble_s", None),
    ("markov_core", "check_detailed_balance", "markov_core.balance_s", None),
    ("markov_core", "lambda1", "markov_core.solve_s", _count_solve),
    ("markov_core", "operator_norm_l20", "markov_core.solve_s", _count_solve),
    ("markov_core", "chain_spectrum", "markov_core.solve_s", _count_solve),
    ("spectral_engine", "compressed_operator", "spectral_engine.assemble_s", _count_compression),
    ("spectral_engine", "compressed_norm", "spectral_engine.solve_s", _count_compressed_norm),
    ("cheeger", "cheeger_exact", "cheeger.exact_s", _count_cut_report),
    ("cheeger", "cheeger_sweep", "cheeger.sweep_s", _count_cut_report),
    ("expanders", "build_family", None, None),
    ("expanders", "build_member_graph", None, _count_member),
    ("expanders", "expanding_constant_report", None, None),
    ("lyapunov", "estimate_lyapunov", "lyapunov.mc_s", _count_factors),
    ("lyapunov", "exact_u_n", "lyapunov.exact_s", None),
)
COUNTED = (
    ("group_algebra", "mul", "group_algebra.mul_calls"),
    ("cheeger", "cut_ratio", "cheeger.cut_ratio_calls"),
)
_SOLVERS = {f"markov_core.{fn}" for mod, fn, stage, _ in SPANNED if stage == "markov_core.solve_s"}
_STAGES = {f"{mod}.{fn}": stage for mod, fn, stage, _ in SPANNED if stage}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._jobs = 0
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _spanned(self, fn, name: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if parent < 0:
                self._jobs += 1
            span = Span(self._jobs, name, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, module: str, target: str, make) -> None:
        """Replace `module.target` everywhere in the package; a name the
        library does not have is added to `missing`."""
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or attr not in vars(cls):
                self.missing.append(f"{module}.{target}")
                return
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(owner, target, None)
        if original is None:
            self.missing.append(f"{module}.{target}")
            return
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Trace the library inside the block; every original is put back
        when it ends, also on an exception."""
        try:
            for module, target, _stage, hook in SPANNED:
                name = f"{module}.{target}"
                self._rebind(module, target, lambda fn, n=name, h=hook: self._spanned(fn, n, h))
            for module, target, key in COUNTED:
                self._rebind(module, target, lambda fn, k=key: self._counted(fn, k))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line: its index, the Span fields
        and its self time."""
        with open(path, "w") as fh:
            for index, (span, own) in enumerate(zip(self.spans, self_times(self.spans))):
                fh.write(json.dumps({"id": index, **asdict(span), "self_s": own}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, which needs an
        untraced pass to compare with."""
        out: dict[str, float] = {name: 0 for name, _unit in PER_LAYER}
        for span, own in zip(self.spans, self_times(self.spans)):
            if span.layer in SELF_TIME_LAYERS:
                out[f"{span.layer}.self_s"] += own
            stage = _STAGES.get(span.name)
            if stage is not None:
                out[stage] += own
        for key, value in self.counts.items():
            out[key] += value
        del out["trace.overhead_s"]
        return out
