import math
import re
import tracemalloc

import numpy as np
import pytest

from dcmetrics import (
    METRICS,
    BoundsRecord,
    CentralityVector,
    GeneratorParams,
    MetricSpec,
    all_distinctiveness,
    barabasi_albert,
    build_graph,
    d1,
    d2,
    d3,
    d4,
    d5,
    distinctiveness,
    negative_contribution_threshold,
)
from dcmetrics.datasets import builtin_dataset
from dcmetrics.distinctiveness import _scores
from dcmetrics.graph import graph_from_arrays
from dcmetrics.stats import _block_diagonal
from conftest import random_graph
import exact
from naive import naive_degree_distinctiveness
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

    @pytest.mark.parametrize("make, message", [
        (lambda: MetricSpec("d1", direction="sideways"),
         "unknown direction 'sideways', expected one of ('undirected', 'in', 'out')"),
        (lambda: d1(build_graph([("A", "B", 1.0)]), direction="sideways"),
         "unknown direction 'sideways', expected one of ('undirected', 'in', 'out')"),
        (lambda: all_distinctiveness(build_graph([("A", "A", 1.0)])), "distinctiveness needs at least 2 nodes"),
        (lambda: CentralityVector("d1", 1.0, "undirected", ("A", "B"), np.array([1.0])),
         "one score per node required"),
        (lambda: CentralityVector("d1", 1.0, "undirected", ("A", "B"), np.array([1.0, np.inf])),
         "non-finite score in d1 vector"),
        (lambda: BoundsRecord("d1", 1.0, 3, 1.0, 1.0, lower=2.0, upper=1.0),
         "degenerate bounds for d1: lower 2.0 > upper 1.0"),
    ])
    def test_rejected_with_message(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

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

    def test_vector_as_dict_and_items(self, toy):
        vec = d5(toy, alpha=2)
        assert vec.as_dict() == dict(zip(toy.nodes, vec.values.tolist()))
        assert list(vec.items()) == list(zip(toy.nodes, vec.values.tolist()))

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


def within_exact(got: float, want: tuple[float, float]) -> bool:
    """Whether a score is within 1e-12 of its exact (score, scale) from
    ``exact.scores``, taken of the smaller of the scale and max(1, |score|),
    or within 1e-320 where that is below the subnormal range."""
    value, scale = want
    return math.isfinite(value) and abs(got - value) <= max(1e-12 * min(scale, max(1.0, abs(value))), 1e-320)


@pytest.mark.filterwarnings("error")
class TestDegreePowerOverflow:
    """d1, d2 and d5 where the neighbor degree power g**alpha overflows:
    the log form (d1, d2) and the negative power (d5) take over for those
    entries, without a RuntimeWarning."""

    @pytest.mark.parametrize("alpha", [100, 110, 400])
    def test_star_leaf_and_hub(self, alpha):
        scores = all_distinctiveness(star(1001), alpha=alpha, metrics=("d1", "d2"))
        for metric in ("d1", "d2"):
            assert scores[metric]["leaf0"] == pytest.approx(3.0 - 3.0 * alpha, rel=1e-12)
            assert scores[metric]["hub"] == 3000.0

    def test_d1_weight_product_fails_by_name(self):
        # the hub's 19 terms of 1.28e308 sum past the float limit; each leaf's one term, -510 x 1e308, is past it
        with pytest.raises(ValueError, match=r"^d1 of node 'hub' overflows float64 at alpha=400 \(undirected\)$"):
            all_distinctiveness(star(20, weight=1e308), alpha=400, metrics=("d1",))

    @pytest.mark.parametrize("name", ["florentine", "zachary", "star"])
    @pytest.mark.parametrize("alpha", [1, 2.5, 100, 110, 240, 400, 1000])
    def test_against_decimal_logs(self, name, alpha):
        # exact logs of the degree ratios (tests/exact.py); the test id predates that oracle
        g = star(1001) if name == "star" else builtin_dataset(name)
        scores = all_distinctiveness(g, alpha=alpha, metrics=("d1", "d2", "d5"))
        want = exact.scores(g.nodes, g.edges(), False, alpha)
        for metric, vector in scores.items():
            for label in g.nodes:
                got = vector[label]
                assert within_exact(got, want[metric][label]), (metric, label, got, want[metric][label])


def heavy_weight_graphs():
    rng = np.random.default_rng(7)
    graphs = [
        build_graph([("A", "B", 1e200), ("B", "C", 1.0), ("C", "D", 2.0)]),
        # (1e250/1e300)**7 is below the normal range, 1e250 times it is not
        build_graph([("a", "b", 1e250), ("b", "c", 1e300), ("b", "d", 1e-3), ("c", "d", 1e150), ("d", "e", 1.0)]),
        # every strength but z's overflows at alpha=1, and z's d4 is 1e20/2e308
        build_graph([("h", "x", 1e308), ("h", "y", 1e308), ("x", "y", 1e308), ("h", "z", 1e10)]),
        # at alpha=1, 1e-170**2 is 0.0 and 1e-160**2 subnormal; at alpha=2 the strength of C is subnormal
        build_graph([("A", "B", 1e-170), ("B", "C", 1e-160)]),
    ]
    # two rescaled terms share the hub's long row (in the directed graph, the in-scores' terms do)
    star = [("hub", f"leaf{i}", 1.0) for i in range(50)] + [("hub", "t1", 1e-170), ("hub", "t2", 1e-170)]
    graphs += [build_graph(star), build_graph(star, directed=True)]
    for directed in (False, True):
        g = random_graph(rng, 12, directed=directed, density=0.3)
        graphs.append(build_graph([(u, v, float(10 ** rng.uniform(-3, 300))) for u, v, _ in g.edges()],
                                  directed=directed))
    return graphs


@pytest.mark.filterwarnings("error")
class TestWeightPowerOverflow:
    """d4 where w**(alpha+1) or the neighbor's alpha-strength overflows, or
    falls below the normal range: those terms are rescaled by the largest
    weight of the neighbor's row, without a RuntimeWarning."""

    def test_heavy_path(self):
        scores = all_distinctiveness(heavy_weight_graphs()[0], alpha=1, metrics=("d4",))["d4"]
        assert scores.values.tolist() == [1e200, 1e200, 2.0, 4 / 3]

    @pytest.mark.parametrize("alpha", [1, 2, 3, 7])
    def test_against_fractions(self, alpha):
        for g in heavy_weight_graphs():
            for direction in ("in", "out") if g.directed else ("undirected",):
                want = exact.scores(g.nodes, g.edges(), g.directed, alpha, direction)["d4"]
                got = all_distinctiveness(g, alpha, direction, metrics=("d4",))["d4"]
                for label in g.nodes:
                    assert within_exact(got[label], want[label]), (label, direction, got[label], want[label])

    def test_d3_fails_by_name_past_a_finite_total(self):
        # the total weight is finite though the stored entries sum past the float limit
        g = build_graph([("A", "B", 1.7e308), ("B", "C", 1.0), ("C", "D", 1.0)])
        with pytest.raises(ValueError, match=r"^d3 of node 'A' overflows float64 at alpha=1 \(undirected\)$"):
            all_distinctiveness(g, metrics=("d3",))

    @pytest.mark.parametrize("alpha", [2, 3])
    def test_d3_still_fails(self, alpha):
        with pytest.raises(ValueError, match=rf"^d3 of node 'A' overflows float64 at alpha={alpha} \(undirected\)$"):
            all_distinctiveness(heavy_weight_graphs()[0], alpha=alpha, metrics=("d3",))


def degree_term_corpus():
    """(name, graph, direction) for every scored side of the graphs the
    per-node degree terms are checked on: the datasets, random simple
    graphs (directed ones have nodes of in- or out-degree 0), a 1000-leaf
    star, declared isolates, BA graphs and a star whose d1 overflows."""
    rng = np.random.default_rng(14)
    graphs = [(name, builtin_dataset(name)) for name in ("toy-undirected", "toy-directed", "florentine", "zachary")]
    graphs += [(f"random{i}", random_graph(rng, int(rng.integers(3, 30)), directed=i >= 30)) for i in range(60)]
    graphs.append(("star", star(1001)))
    graphs.append(("isolate", build_graph([("A", "B", 2), ("B", "C", 1), ("C", "A", 3)], nodes=["Z"])))
    graphs.append(("isolate-directed", build_graph([("A", "B", 2), ("B", "C", 1)], directed=True, nodes=["Z"])))
    graphs += [(f"ba{seed}", barabasi_albert(GeneratorParams(n=300, m_attach=2, weight_high=20, seed=seed)))
               for seed in range(5)]
    graphs.append(("heavy-star", star(20, weight=1e308)))
    for name, g in graphs:
        for direction in ("in", "out") if g.directed else (None,):
            yield name, g, direction


def scored_or_raised(kernel, *args, **kwargs):
    try:
        vectors = kernel(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    return {m: (v.values.tobytes(), v.isolates) for m, v in vectors.items()}


@pytest.mark.filterwarnings("error")
class TestPerNodeDegreeTerms:
    """d1, d2 and d5 take each neighbor's degree power once per node; their
    vectors and errors are those of the per-entry powers they replaced
    (tests/naive.py), bit for bit."""

    @pytest.mark.parametrize("alpha,relaxed", [(1, False), (1.5, False), (2, False), (5, False), (30, False),
                                               (110, False), (400, False), (0.5, True), (0.5, False)])
    @pytest.mark.parametrize("metrics", [("d1", "d2", "d5"), ("d5", "d2"), ("d1",)])
    def test_bitwise_against_per_entry_powers(self, alpha, relaxed, metrics):
        for name, g, direction in degree_term_corpus():
            got = scored_or_raised(all_distinctiveness, g, alpha, direction, relaxed, metrics)
            want = scored_or_raised(naive_degree_distinctiveness, g, alpha, direction, relaxed, metrics)
            assert got == want, (name, direction)


class TestStackedKernels:
    """``_scores`` on a block-diagonal graph of several graphs of n nodes,
    given the common n and each entry's own graph total, scores every graph
    as ``all_distinctiveness`` scores it alone, bit for bit."""

    @staticmethod
    def assert_stacked_bitwise(graphs, alpha, metrics):
        chunk = _block_diagonal(graphs)
        totals = np.repeat([g.total_weight() for g in graphs], [g.indices.size for g in graphs])
        got = _scores(chunk, float(alpha), "undirected", metrics, graphs[0].n, totals)
        for m in metrics:
            want = np.concatenate([all_distinctiveness(g, alpha, metrics=metrics)[m].values for g in graphs])
            assert got[m].tobytes() == want.tobytes(), (m, alpha)

    @pytest.mark.parametrize("alpha", [1, 2.5, 5, 400])
    def test_bitwise_per_graph(self, alpha):
        graphs = [barabasi_albert(GeneratorParams(n=40, m_attach=m, weight_high=2, seed=seed))
                  for seed, m in enumerate((1, 2, 3, 2, 1))]
        assert len({g.total_weight() for g in graphs}) == len(graphs)
        # at 400, a neighbor of degree 6 or more overflows the degree power of d1, d2 and d5
        assert max(int(g.out_degrees().max()) for g in graphs) >= 6
        self.assert_stacked_bitwise(graphs, alpha, METRICS)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [1, 2, 7])
    def test_heavy_weights_take_d4_rescaled_terms(self, alpha):
        graphs = [
            build_graph([("A", "B", 1e200), ("B", "C", 1.0), ("C", "D", 2.0), ("D", "E", 3.0)]),
            build_graph([("a", "b", 1e250), ("b", "c", 1e300), ("b", "d", 1e-3), ("c", "d", 1e150), ("d", "e", 1.0)]),
            build_graph([("A", "B", 1.0), ("B", "C", 2.0), ("C", "D", 3.0), ("D", "E", 4.0)]),
            build_graph([("h", "a", 1.0), ("h", "b", 1.0), ("h", "c", 1e-170), ("h", "d", 1e-170)]),
        ]
        self.assert_stacked_bitwise(graphs, alpha, ("d1", "d2", "d4", "d5"))


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
