"""The kernels, and the benchmark's own oracle, against the exact scores of
tests/exact.py, at the ends of the float range; d3's known defects there
are strict expected failures.

The full float-range grid runs in CI as:
PYTHONPATH=src:tests python -c 'import test_exact; test_exact.check_float_range(40, (1, 2, 5, 13, 100))'
"""

import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dcmetrics import all_distinctiveness, build_graph
from conftest import random_graph
import exact
from test_distinctiveness import heavy_weight_graphs

ROOT = Path(__file__).resolve().parent.parent


def float_range_graphs(count):
    """Seeded graphs of 3 to 8 nodes with weights 10**U(-300, 300), every other one directed."""
    rng = np.random.default_rng(300)
    for i in range(count):
        edges = list(random_graph(rng, int(rng.integers(3, 9)), directed=i % 2 == 1, density=0.5).edges())
        weights = 10 ** rng.uniform(-300, 300, size=len(edges))
        yield build_graph([(u, v, float(w)) for (u, v, _), w in zip(edges, weights)], directed=i % 2 == 1)


def check_float_range(count, alphas):
    """d1, d2, d4 and d5 of ``count`` float-range graphs, in every direction:
    within 1e-12 of their terms' magnitude where the exact score is finite
    in float64, and the named error, naming a node whose exact score is
    not, where one is not."""
    for g in float_range_graphs(count):
        for direction in ("in", "out") if g.directed else ("undirected",):
            for alpha in alphas:
                want = exact.scores(g.nodes, g.edges(), g.directed, alpha, direction)
                for metric in ("d1", "d2", "d4", "d5"):
                    finite = all(math.isfinite(value) for value, _ in want[metric].values())
                    try:
                        got = all_distinctiveness(g, alpha, direction, metrics=(metric,))[metric]
                    except ValueError as err:
                        named = re.fullmatch(rf"{metric} of node '(.*)' overflows float64 at alpha={alpha} "
                                             rf"\({direction}\)", str(err))
                        assert named and not math.isfinite(want[metric][named[1]][0]), (g.edges(), alpha, err)
                        continue
                    assert finite, (g.edges(), alpha, direction, metric)
                    for label in g.nodes:
                        value, scale = want[metric][label]
                        assert abs(got[label] - value) <= 1e-12 * scale, (
                            g.edges(), alpha, direction, metric, label, got[label], value)


@pytest.mark.filterwarnings("error")
def test_float_range_grid():
    check_float_range(10, (1, 2, 5, 13))


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("directed", [False, True])
def test_benchmark_oracle_agrees(directed):
    inputs, oracle = _perfbench("inputs"), _perfbench("oracle")
    net = oracle.Network((inputs.directed_edge_list if directed else inputs.undirected_edge_list)(4, 300, 100))
    edges = [(i, j, w) for i, row in enumerate(net.out) for j, w in row.items() if directed or i < j]
    for alpha in (1, 2, 5):
        for direction in ("in", "out") if directed else ("undirected",):
            want = exact.scores(range(net.n), edges, directed, alpha, direction)
            for node in range(net.n):
                for metric, (got, _) in net.scores(node, alpha, direction).items():
                    value, scale = want[metric][node]
                    assert abs(got - value) <= 1e-12 * scale, (alpha, direction, node, metric, got, value)


def _d3_defect(reason, raises=AssertionError):
    return pytest.mark.xfail(strict=True, raises=raises, reason=reason)


LOST_TOTAL = "the total 50 + 2e-170 rounds to 50: 0.0 against 1.737e-172"


@pytest.mark.parametrize("graph, alpha, label", [
    pytest.param(0, 1, "A", marks=_d3_defect("S_B - 1e200 + 1 gives 1, not 2: 2e202 against 1.997e202")),
    pytest.param(1, 1, "a", marks=_d3_defect("the total and S_b both lose the 1e250: 0.0 against 4.34e199")),
    pytest.param(1, 1, "b", marks=_d3_defect("S_c - 1e300 + 1 gives 1, not 1e150: 3.0e302 against 1.5e302")),
    pytest.param("path", 13, "C", marks=_d3_defect("S_B - 20**13 + 1 gives 1, not 2: 26.4444 against 20.4238")),
    pytest.param("path", 20, "C", marks=_d3_defect("S_B - 20**20 + 1 gives 1, not 2: 26.4444 against 20.4238")),
    pytest.param(4, 2, "leaf0", marks=_d3_defect(LOST_TOTAL)),
    pytest.param(4, 3, "leaf0", marks=_d3_defect(LOST_TOTAL)),
    pytest.param(4, 7, "leaf0", marks=_d3_defect(LOST_TOTAL)),
    pytest.param(0, 2, "A", marks=_d3_defect("1e200**2 overflows: the named error for a finite score", ValueError)),
])
def test_d3_defects(graph, alpha, label):
    """d3's defects at the ends of the float range (ROADMAP item 6): each
    fails today and passes once d3 matches the exact oracle there."""
    g = build_graph([("A", "B", 1.0), ("B", "C", 20.0)]) if graph == "path" else heavy_weight_graphs()[graph]
    value, scale = exact.scores(g.nodes, g.edges(), False, alpha)["d3"][label]
    got = all_distinctiveness(g, alpha, metrics=("d3",))["d3"][label]
    assert abs(got - value) <= 1e-12 * scale, (got, value)
