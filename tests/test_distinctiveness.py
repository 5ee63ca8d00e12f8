import math
import tracemalloc

import numpy as np
import pytest

from dcmetrics import (
    METRICS,
    MetricSpec,
    all_distinctiveness,
    build_graph,
    d1,
    d2,
    d3,
    d4,
    d5,
    distinctiveness,
    negative_contribution_threshold,
)
from dcmetrics.graph import graph_from_arrays
from conftest import random_graph
from naive import naive_distinctiveness
from reference_values import DIRECTED_TOY_SCORES, PRINT_TOL, TOY_SCORES


def star(n, weight=1.0):
    return build_graph([("hub", f"leaf{i}", weight) for i in range(n - 1)])


def full_mesh(n, weight=1.0):
    return build_graph(
        [(f"v{i}", f"v{j}", weight) for i in range(n) for j in range(i + 1, n)]
    )


class TestSpecValidation:
    def test_alpha_below_one_rejected(self, toy):
        with pytest.raises(ValueError, match="alpha"):
            d1(toy, alpha=0.5)

    def test_relaxed_alpha_allows_fractions(self, toy):
        vec = d1(toy, alpha=0.5, relaxed_alpha=True)
        assert np.all(np.isfinite(vec.values))

    def test_relaxed_alpha_still_rejects_nonpositive(self, toy):
        with pytest.raises(ValueError):
            d1(toy, alpha=0.0, relaxed_alpha=True)

    def test_direction_mismatch_rejected(self, toy, toy_directed):
        with pytest.raises(ValueError):
            d1(toy, direction="in")
        with pytest.raises(ValueError):
            d1(toy_directed, direction="undirected")
        with pytest.raises(ValueError, match="specify direction"):
            d1(toy_directed)

    def test_unknown_metric_rejected(self, toy):
        with pytest.raises(ValueError, match="unknown metric"):
            distinctiveness(toy, "d9")

    def test_metric_spec_invariants(self):
        with pytest.raises(ValueError):
            MetricSpec("d1", alpha=0.9)
        with pytest.raises(ValueError):
            MetricSpec("d1", alpha=float("nan"))
        assert MetricSpec("d3", alpha=0.5, relaxed_alpha=True).alpha == 0.5


class TestToyTables:
    @pytest.mark.parametrize("alpha", [1, 2, 5])
    @pytest.mark.parametrize("metric", METRICS)
    def test_undirected_scores(self, toy, alpha, metric):
        vec = distinctiveness(toy, metric, alpha=alpha)
        for node, expected in TOY_SCORES[alpha][metric].items():
            assert vec[node] == pytest.approx(expected, abs=PRINT_TOL)

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("direction", ["in", "out"])
    def test_directed_scores(self, toy_directed, alpha, metric, direction):
        vec = distinctiveness(toy_directed, metric, alpha=alpha, direction=direction)
        for node, expected in DIRECTED_TOY_SCORES[alpha][(metric, direction)].items():
            assert vec[node] == pytest.approx(expected, abs=PRINT_TOL)

    def test_ranking_flip_between_alphas(self, toy):
        # C and D outrank E at alpha=1 but fall below it at alpha=2 for d1-d3
        for metric in ("d1", "d2", "d3"):
            low = distinctiveness(toy, metric, alpha=1)
            high = distinctiveness(toy, metric, alpha=2)
            assert low["C"] > low["E"] and low["D"] > low["E"]
            assert high["C"] < high["E"] and high["D"] < high["E"]


class TestClosedFormCases:
    def test_star_hub_d1_upper(self):
        g = star(6, weight=5.0)
        assert d1(g)["hub"] == pytest.approx(5 * 5 * math.log10(5), rel=1e-12)

    def test_full_mesh_d2_zero(self):
        for n in (3, 5, 8):
            vec = d2(full_mesh(n))
            assert np.all(vec.values == 0.0)

    def test_two_node_d3_zero(self):
        g = build_graph([("A", "B", 1.0)])
        assert d3(g)["A"] == 0.0
        assert d3(g)["B"] == 0.0

    @pytest.mark.parametrize("alpha", [1, 2, 5])
    @pytest.mark.parametrize("weight", [1.0, 2.5, 7.0])
    def test_two_node_d4_equals_weight(self, alpha, weight):
        g = build_graph([("A", "B", weight)])
        assert d4(g, alpha=alpha)["A"] == pytest.approx(weight, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1, 2, 5])
    def test_star_hub_d5_is_n_minus_1(self, alpha):
        g = star(7)
        assert d5(g, alpha=alpha)["hub"] == pytest.approx(6.0, rel=1e-12)


class TestNegativeContributionThreshold:
    def test_alpha_one_is_n_minus_1(self):
        assert negative_contribution_threshold(6, 1) == 5.0

    def test_alpha_two(self):
        assert negative_contribution_threshold(6, 2) == pytest.approx(math.sqrt(5), rel=1e-12)

    def test_large_alpha(self):
        assert negative_contribution_threshold(50, 5) == pytest.approx(49 ** 0.2, rel=1e-12)
        assert negative_contribution_threshold(50, 5) == pytest.approx(2.178, abs=5e-4)

    def test_threshold_explains_toy_sign_flip(self, toy):
        # B has degree 4 > sqrt(5), so its neighbors pick up negative terms
        # at alpha=2, which is exactly what drags C and D below E
        thr = negative_contribution_threshold(6, 2)
        assert 4 > thr
        vec = d1(toy, alpha=2)
        assert vec["C"] < 0

    def test_domain(self):
        with pytest.raises(ValueError):
            negative_contribution_threshold(1, 1)
        with pytest.raises(ValueError):
            negative_contribution_threshold(6, 0.5)


class TestInvariants:
    @pytest.mark.parametrize("alpha", [1, 2, 5])
    def test_unweighted_collapse_d1_d2(self, alpha):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_graph(rng, int(rng.integers(4, 20)), max_weight=1)
            vals = all_distinctiveness(g, alpha=alpha, metrics=("d1", "d2"))
            assert np.array_equal(vals["d1"].values, vals["d2"].values)

    def test_unweighted_collapse_d4_d5_alpha1(self):
        # d4 loses its alpha dependence entirely on unit weights, so the
        # collapse onto d5 holds at alpha=1
        rng = np.random.default_rng(4)
        for _ in range(5):
            g = random_graph(rng, int(rng.integers(4, 20)), max_weight=1)
            vals = all_distinctiveness(g, alpha=1, metrics=("d4", "d5"))
            assert np.array_equal(vals["d4"].values, vals["d5"].values)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_bidirected_in_matches_undirected(self, metric, alpha):
        rng = np.random.default_rng(5)
        for _ in range(3):
            g = random_graph(rng, 10)
            arcs = []
            for u, v, w in g.edges():
                arcs.append((u, v, w))
                arcs.append((v, u, w))
            gd = build_graph(arcs, directed=True, nodes=list(g.nodes))
            und = distinctiveness(g, metric, alpha=alpha)
            for direction in ("in", "out"):
                dirv = distinctiveness(gd, metric, alpha=alpha, direction=direction)
                if metric == "d3":
                    # the directed total counts both reciprocal arcs; shift
                    # each of the deg(i) log terms by log10(2T/T)
                    deg = {lab: 0.0 for lab in g.nodes}
                    for u, v, w in g.edges():
                        deg[u] += w
                        deg[v] += w
                    for lab in g.nodes:
                        expected = und[lab] + deg[lab] * math.log10(2.0)
                        assert dirv[lab] == pytest.approx(expected, rel=1e-10, abs=1e-12)
                else:
                    for lab in g.nodes:
                        assert dirv[lab] == pytest.approx(und[lab], rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1, 2, 5])
    def test_d4_d5_strictly_positive(self, alpha):
        rng = np.random.default_rng(6)
        for _ in range(5):
            g = random_graph(rng, int(rng.integers(3, 25)))
            vals = all_distinctiveness(g, alpha=alpha, metrics=("d4", "d5"))
            assert np.all(vals["d4"].values > 0)
            assert np.all(vals["d5"].values > 0)

    def test_isolate_scores_zero_and_flagged(self):
        g = build_graph([("A", "B", 2), ("B", "C", 1)], nodes=["Z"])
        for metric in METRICS:
            vec = distinctiveness(g, metric, alpha=2)
            assert vec["Z"] == 0.0
            assert vec.isolates == {"Z"}

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 12)
        mapping = {lab: f"x{lab}" for lab in g.nodes}
        g2 = build_graph([(mapping[u], mapping[v], w) for u, v, w in g.edges()])
        for metric in METRICS:
            v1 = distinctiveness(g, metric, alpha=2)
            v2 = distinctiveness(g2, metric, alpha=2)
            for lab in g.nodes:
                assert v2[mapping[lab]] == pytest.approx(v1[lab], rel=1e-12, abs=1e-15)


class TestOracleEquivalence:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("alpha", [1, 2, 5])
    def test_kernels_match_naive_evaluator(self, directed, alpha):
        rng = np.random.default_rng(42 + alpha)
        for _ in range(4):
            g = random_graph(rng, int(rng.integers(3, 30)), directed=directed)
            directions = ("in", "out") if directed else ("undirected",)
            for direction in directions:
                kw = {"direction": direction} if directed else {}
                vals = all_distinctiveness(g, alpha=alpha, **kw)
                for metric in METRICS:
                    ref = naive_distinctiveness(
                        g.nodes, list(g.edges()), directed, metric, alpha, direction
                    )
                    for lab in g.nodes:
                        got = vals[metric][lab]
                        assert got == pytest.approx(ref[lab], rel=1e-12, abs=1e-12)


class TestKernelMemory:
    """The kernels work on each per-entry array in place and find the
    entry rows once per call, so their traced peak stays near twice the
    bytes of the scored CSR on this graph; three live per-entry temporaries
    at a time, as before, pass 2.9 times."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_peak(self, directed):
        rng = np.random.default_rng(9)
        src, dst = rng.integers(0, 30_000, size=(2, 100_000))
        weights = rng.integers(1, 21, size=100_000).astype(np.float64)
        g = graph_from_arrays(tuple(map(str, range(30_000))), src, dst, weights, directed)
        csr = g.indptr.nbytes + g.indices.nbytes + g.weights.nbytes
        for direction in ("in", "out") if directed else ("undirected",):
            tracemalloc.start()
            try:
                all_distinctiveness(g, alpha=2.0, direction=direction)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * csr, direction
