"""Shared builders for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import sgaplab as sg


def cycle_chain(n: int) -> sg.WeightedChain:
    trans = []
    for i in range(n):
        trans.append((i, (i + 1) % n, 0.5))
        trans.append((i, (i - 1) % n, 0.5))
    return sg.WeightedChain([str(i) for i in range(n)], [1.0] * n, trans)


def complete_graph_chain(n: int) -> sg.WeightedChain:
    p = 1.0 / (n - 1)
    trans = [(i, j, p) for i in range(n) for j in range(n) if i != j]
    return sg.WeightedChain([str(i) for i in range(n)], [1.0] * n, trans)


def two_state_swap() -> sg.WeightedChain:
    return sg.WeightedChain(["0", "1"], [0.5, 0.5], [(0, 1, 1.0), (1, 0, 1.0)])


def random_reversible_chain(rng: np.random.Generator, n_states: int | None = None,
                            allow_loops: bool = True) -> sg.WeightedChain:
    """Connected reversible chain from a random symmetric weight matrix
    (random spanning tree plus extra edges); p = W/rowsum, m = rowsum."""
    n = int(n_states if n_states is not None else rng.integers(2, 13))
    w = np.zeros((n, n))
    for v in range(1, n):
        u = int(rng.integers(0, v))
        w[u, v] = w[v, u] = rng.uniform(0.2, 2.0)
    extra = int(rng.integers(0, n * (n - 1) // 2 + 1))
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            x = rng.uniform(0.2, 2.0)
            w[i, j] = w[j, i] = x
    if allow_loops and rng.random() < 0.4:
        i = int(rng.integers(0, n))
        w[i, i] = rng.uniform(0.2, 2.0)
    rowsum = w.sum(axis=1)
    trans = [
        (i, j, w[i, j] / rowsum[i])
        for i in range(n)
        for j in range(n)
        if w[i, j] > 0.0
    ]
    return sg.WeightedChain([str(i) for i in range(n)], rowsum, trans)


def free_uniform_measure(rank: int) -> sg.ProbMeasure:
    elems = [sg.free_word(rank, [s]) for i in range(1, rank + 1) for s in (i, -i)]
    return sg.ProbMeasure.uniform(elems)


def random_cyclic_unitary_rep(p: int, dim: int, rng: np.random.Generator):
    """A genuine unitary representation of the order-p cyclic group realized
    inside SL_2(F_p): elements E^j and unitaries U^j with U^p = I."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    qmat, _ = np.linalg.qr(z)
    ks = rng.integers(0, p, size=dim)
    u = qmat @ np.diag(np.exp(2j * np.pi * ks / p)) @ qmat.conj().T
    gen = sg.mat_mod_p(p, [[1, 1], [0, 1]])
    elems, mats = [], []
    cur = sg.identity_like(gen)
    ucur = np.eye(dim, dtype=complex)
    for _ in range(p):
        elems.append(cur)
        mats.append(ucur)
        cur = sg.mul(gen, cur)
        ucur = u @ ucur
    return elems, mats


def relabel(graph: sg.LabeledGraph, seed: int) -> sg.LabeledGraph:
    """The same graph with its vertices renumbered by a seeded permutation,
    so that vertex order no longer follows distance from the basepoint."""
    perm = np.random.default_rng(seed).permutation(graph.n_vertices)
    target = np.empty_like(graph.target)
    target[perm] = np.where(graph.target >= 0, perm[graph.target], -1)
    return sg.LabeledGraph(
        graph.generators,
        graph.gen_names,
        graph.inverse_of,
        target,
        basepoint=int(perm[graph.basepoint]),
    )


@contextlib.contextmanager
def tilted_eigh(rows: int):
    """np.linalg.eigh with the eigenvectors of every batched rows-square
    piece tilted by 1e-6, as an unconverged solve would return them."""
    eigh = np.linalg.eigh

    def tilted(a, *args, **kwargs):
        theta, vecs = eigh(a, *args, **kwargs)
        if a.ndim == 3 and a.shape[-1] == rows:
            vecs = vecs + 1e-6 * np.cos(np.arange(rows))[:, None]
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        return theta, vecs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", tilted)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
