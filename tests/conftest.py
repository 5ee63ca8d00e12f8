from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dcmetrics import Graph, build_graph, builtin_dataset


@pytest.fixture
def toy() -> Graph:
    return builtin_dataset("toy-undirected")


@pytest.fixture
def toy_directed() -> Graph:
    return builtin_dataset("toy-directed")


@pytest.fixture
def florentine() -> Graph:
    return builtin_dataset("florentine")


@pytest.fixture
def zachary() -> Graph:
    return builtin_dataset("zachary")


def random_graph(rng: np.random.Generator, n: int, directed: bool = False,
                 density: float = 0.25, max_weight: int = 9) -> Graph:
    """Random simple graph with at least a spanning chain, integer weights >= 1."""
    edges = []
    present: set[tuple[str, str]] = set()

    def add(u: int, v: int) -> None:
        key = (str(u), str(v))
        if key in present:
            return
        present.add(key)
        if not directed:
            present.add((key[1], key[0]))
        edges.append((key[0], key[1], float(rng.integers(1, max_weight + 1))))

    for i in range(1, n):
        add(int(rng.integers(0, i)), i)
    for i in range(n):
        for j in range(n):
            if i == j or (not directed and j <= i):
                continue
            if rng.random() < density:
                add(i, j)
    return build_graph(edges, directed=directed, nodes=[str(i) for i in range(n)])


def assert_same_graph(g, ref):
    """Same nodes, direction, build report, and CSR arrays bit for bit; an
    undirected graph's in-arrays are its out-arrays, on both sides."""
    assert g.nodes == ref.nodes
    assert g.directed == ref.directed
    assert g.build_report == ref.build_report
    for name in ("indptr", "indices", "weights", "in_indptr", "in_indices", "in_weights"):
        a, b = getattr(g, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        # bitwise, so that -0.0/0.0 or a last-bit difference in a merged weight fails
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
    if not ref.directed:
        for side in (g, ref):
            assert side.in_indptr is side.indptr
            assert side.in_indices is side.indices
            assert side.in_weights is side.weights
