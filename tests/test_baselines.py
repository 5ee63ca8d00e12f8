import math
import warnings

import numpy as np
import pytest

from dcmetrics import (
    BASELINES,
    ConvergenceError,
    DisconnectedGraphError,
    GeneratorParams,
    all_baselines,
    barabasi_albert,
    baseline,
    betweenness_centrality,
    build_graph,
    burt_constraint,
    closeness_centrality,
    degree_centrality,
    effective_size,
    eigenvector_centrality,
)
from conftest import random_graph
import dcmetrics.graph as graph_module
from dcmetrics import baselines
from dcmetrics.stats import _block_diagonal
from naive import (
    naive_betweenness,
    naive_brandes_betweenness,
    naive_burt_constraint,
    naive_closeness,
    naive_dijkstra_closeness,
    naive_effective_size,
    naive_power_eigenvector,
    naive_triangles,
)
from reference_values import PRINT_TOL, TOY_BASELINES, matches_print
from test_distinctiveness import star


class TestToyTable:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("metric", BASELINES)
    def test_printed_values(self, toy, weighted, metric):
        # the published weighted closeness/betweenness columns are hop-based
        # (numerically equal to the unweighted columns), so reproduce them
        # with the hop computation
        use_weights = weighted and metric not in ("closeness", "betweenness")
        vec = baseline(toy, metric, weighted=use_weights)
        tol = 0.02 if metric in ("constraint", "effective-size") else PRINT_TOL
        for node, expected in TOY_BASELINES[weighted][metric].items():
            assert matches_print(vec[node], expected, tol), (node, vec[node], expected)

    @pytest.mark.parametrize("metric", BASELINES)
    def test_directed_graph_rejected(self, toy_directed, metric):
        with pytest.raises(ValueError, match="undirected"):
            baseline(toy_directed, metric)

    def test_unknown_baseline_rejected(self, toy):
        with pytest.raises(ValueError, match=r"^unknown baseline 'pagerank', expected one of \('degree', "):
            baseline(toy, "pagerank")

    @pytest.mark.parametrize("weighted", [False, True])
    def test_all_baselines_in_order(self, toy, weighted):
        vectors = all_baselines(toy, weighted)
        assert list(vectors) == list(BASELINES)
        for name, vec in vectors.items():
            assert vec.values.tobytes() == baseline(toy, name, weighted).values.tobytes()


class TestDegree:
    def test_isolate_scores_zero(self):
        g = build_graph([("A", "B", 2)], nodes=["Z"])
        vec = degree_centrality(g)
        assert vec["Z"] == 0.0
        assert vec.isolates == {"Z"}


class TestCloseness:
    def test_path_graph(self):
        g = build_graph([("A", "B", 1), ("B", "C", 1)])
        vec = closeness_centrality(g)
        assert vec["B"] == 1.0
        assert vec["A"] == pytest.approx(2 / 3, rel=1e-12)

    def test_disconnected_rejected_with_pair(self):
        g = build_graph([("A", "B", 1), ("C", "D", 1)])
        with pytest.raises(DisconnectedGraphError, match="'A'.*'C'"):
            closeness_centrality(g)

    def test_weighted_uses_inverse_weight_lengths(self, toy):
        # B's inverse-weight distances: 0.5 to A/C/D, 0.2 to F, 0.7 to E
        vec = closeness_centrality(toy, weighted=True)
        assert vec["B"] == pytest.approx(5 / 2.4, rel=1e-12)

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = random_graph(rng, 9)
            for weighted in (False, True):
                ref = naive_closeness(g.nodes, list(g.edges()), weighted)
                vec = closeness_centrality(g, weighted=weighted)
                for lab in g.nodes:
                    assert vec[lab] == pytest.approx(ref[lab], rel=1e-9)


class TestBetweenness:
    def test_star_hub(self):
        g = star(5)
        vec = betweenness_centrality(g)
        assert vec["hub"] == 6.0
        assert vec["leaf0"] == 0.0

    def test_equal_weights_match_unweighted(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 12, max_weight=1)
        unw = betweenness_centrality(g, weighted=False)
        wtd = betweenness_centrality(g, weighted=True)
        assert np.allclose(unw.values, wtd.values, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_path_enumeration_oracle(self, weighted):
        rng = np.random.default_rng(14)
        for _ in range(4):
            g = random_graph(rng, int(rng.integers(5, 11)), density=0.3)
            ref = naive_betweenness(g.nodes, list(g.edges()), weighted)
            vec = betweenness_centrality(g, weighted=weighted)
            for lab in g.nodes:
                assert vec[lab] == pytest.approx(ref[lab], rel=1e-9, abs=1e-9)

    def test_pair_dependency_total(self):
        # sum of betweenness = sum over pairs of expected interior counts,
        # cross-checked against the enumeration oracle
        rng = np.random.default_rng(15)
        g = random_graph(rng, 10, density=0.25)
        ref = naive_betweenness(g.nodes, list(g.edges()))
        vec = betweenness_centrality(g)
        assert float(vec.values.sum()) == pytest.approx(sum(ref.values()), rel=1e-9)


class TestEigenvector:
    def test_k2_symmetry(self):
        g = build_graph([("A", "B", 1)])
        vec = eigenvector_centrality(g)
        assert vec["A"] == pytest.approx(1 / math.sqrt(2), rel=1e-9)
        assert vec["B"] == pytest.approx(1 / math.sqrt(2), rel=1e-9)

    def test_unit_norm_and_positive(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            g = random_graph(rng, 15)
            for weighted in (False, True):
                vec = eigenvector_centrality(g, weighted=weighted)
                assert np.linalg.norm(vec.values) == pytest.approx(1.0, rel=1e-9)
                assert np.all(vec.values > 0)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            g = random_graph(rng, 12)
            mat = np.zeros((g.n, g.n))
            for u, v, w in g.edges():
                i, j = g.index_of(u), g.index_of(v)
                mat[i, j] = mat[j, i] = w
            eigvals, eigvecs = np.linalg.eigh(mat)
            dominant = eigvecs[:, -1]
            dominant *= np.sign(dominant.sum())
            vec = eigenvector_centrality(g, weighted=True)
            assert np.allclose(vec.values, dominant, atol=1e-8)

    def test_converges_on_bipartite(self):
        g = star(6)  # stars are bipartite; the identity shift must handle them
        vec = eigenvector_centrality(g)
        assert vec["hub"] > vec["leaf0"] > 0

    def test_nonconvergence_reports_iterations(self, toy):
        with pytest.raises(ConvergenceError, match="2 iterations"):
            eigenvector_centrality(toy, max_iter=2)

    def test_disconnected_rejected(self):
        g = build_graph([("A", "B", 1), ("C", "D", 1)])
        with pytest.raises(DisconnectedGraphError):
            eigenvector_centrality(g)

    def test_overflow_names_the_largest_weight(self):
        g = build_graph([("a", "b", 1e200), ("b", "c", 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no RuntimeWarning on the way
            with pytest.raises(ConvergenceError, match=r"overflows float64 at the largest weight 1e\+200 \(after 1 "):
                eigenvector_centrality(g, weighted=True)
        # the same graph unweighted, and weights just below the overflow, converge
        eigenvector_centrality(g)
        eigenvector_centrality(build_graph([("a", "b", 1e150), ("b", "c", 1.0)]), weighted=True)


class TestConstraint:
    def test_k2_members_fully_constrained(self):
        g = build_graph([("A", "B", 1)])
        vec = burt_constraint(g)
        assert vec["A"] == 1.0
        assert vec["B"] == 1.0

    def test_star_leaves_fully_constrained(self):
        g = star(6)
        vec = burt_constraint(g)
        assert vec["leaf0"] == 1.0

    def test_unconnected_alters_give_reciprocal_degree(self):
        # ego whose alters have no other ties and no mutual ties:
        # constraint = sum p^2 = 1/degree
        g = star(7)
        vec = burt_constraint(g)
        assert vec["hub"] == pytest.approx(1 / 6, rel=1e-12)

    def test_isolate_scores_zero(self):
        g = build_graph([("A", "B", 1)], nodes=["Z"])
        vec = burt_constraint(g)
        assert vec["Z"] == 0.0
        assert vec.isolates == {"Z"}

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_matrix_formulation(self, weighted):
        # independent dense-matrix evaluation of the same definition
        rng = np.random.default_rng(18)
        for _ in range(4):
            g = random_graph(rng, 10)
            mat = np.zeros((g.n, g.n))
            for u, v, w in g.edges():
                i, j = g.index_of(u), g.index_of(v)
                val = w if weighted else 1.0
                mat[i, j] = mat[j, i] = val
            p = mat / mat.sum(axis=1, keepdims=True)
            local = (p + p @ p) ** 2
            expected = ((mat > 0) * local).sum(axis=1)
            vec = burt_constraint(g, weighted=weighted)
            assert np.allclose(vec.values, expected, rtol=1e-10)


class TestEffectiveSize:
    def test_star_hub_no_redundancy(self):
        g = star(8)
        assert effective_size(g)["hub"] == 7.0

    def test_k2(self):
        g = build_graph([("A", "B", 3)])
        assert effective_size(g)["A"] == 1.0
        assert effective_size(g, weighted=True)["A"] == 1.0

    def test_triangle_full_redundancy(self):
        g = build_graph([("A", "B", 1), ("B", "C", 1), ("A", "C", 1)])
        vec = effective_size(g)
        assert vec["A"] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_matrix_formulation(self, weighted):
        rng = np.random.default_rng(19)
        for _ in range(4):
            g = random_graph(rng, 10)
            mat = np.zeros((g.n, g.n))
            for u, v, w in g.edges():
                i, j = g.index_of(u), g.index_of(v)
                val = w if weighted else 1.0
                mat[i, j] = mat[j, i] = val
            p_sum = mat / mat.sum(axis=1, keepdims=True)
            p_max = mat / mat.max(axis=1, keepdims=True)
            r = 1.0 - p_sum @ p_max.T
            expected = ((mat > 0) * r).sum(axis=1)
            vec = effective_size(g, weighted=weighted)
            assert np.allclose(vec.values, expected, rtol=1e-10)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.fixture(scope="module")
def path_graphs():
    """Seeded BA and random graphs; weights 1..2 make many weighted path
    lengths tie exactly, 1..20 few."""
    graphs = [
        barabasi_albert(GeneratorParams(n=n, m_attach=m, weight_low=1, weight_high=high, seed=seed))
        for seed, (n, m, high) in enumerate([(10, 1, 1), (10, 3, 20), (50, 2, 20), (50, 3, 2), (120, 2, 20)])
    ]
    rng = np.random.default_rng(30)
    graphs += [random_graph(rng, int(rng.integers(5, 30)), density=0.2, max_weight=mw) for mw in (1, 2, 9, 9)]
    return graphs


class TestPathBaselinesMatchReference:
    """The per-node-list path loops against the CSR-indexing loops they
    replaced (tests/naive.py), bit for bit."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_betweenness_bitwise(self, path_graphs, weighted):
        rng = np.random.default_rng(31)
        disconnected = build_graph(
            [(str(i), str(i + 1), float(rng.integers(1, 3))) for i in range(6)]
            + [("x", "y", 1.0), ("y", "z", 2.0), ("z", "x", 1.0), ("z", "t", 1.0)]
        )
        for g in path_graphs + [disconnected]:
            got = betweenness_centrality(g, weighted=weighted).values
            assert np.array_equal(_bits(got), _bits(naive_brandes_betweenness(g, weighted)))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_closeness_bitwise(self, path_graphs, weighted):
        for g in path_graphs:
            got = closeness_centrality(g, weighted=weighted).values
            assert np.array_equal(_bits(got), _bits(naive_dijkstra_closeness(g, weighted)))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_closeness_error_matches(self, weighted):
        g = build_graph([("A", "B", 1), ("B", "C", 2), ("D", "E", 1)])
        with pytest.raises(DisconnectedGraphError) as ref:
            naive_dijkstra_closeness(g, weighted)
        with pytest.raises(DisconnectedGraphError) as got:
            closeness_centrality(g, weighted=weighted)
        assert str(got.value) == str(ref.value) == "closeness needs a connected graph: no path from 'A' to 'D'"


def _hop_graphs(path_graphs):
    """The path graphs plus the shapes a breadth-first block must handle:
    a star, a path, a disconnected graph, isolates and a single node."""
    rng = np.random.default_rng(32)
    return path_graphs + [
        star(7),
        build_graph([(f"p{i}", f"p{i + 1}", 1.0) for i in range(9)]),
        build_graph([("A", "B", 1), ("B", "C", 2), ("D", "E", 1), ("E", "F", 1), ("F", "D", 1)]),
        build_graph([(str(i), str(int(rng.integers(0, i))), 1.0) for i in range(1, 12)], nodes=["x", "3", "y"]),
        build_graph([("A", "A", 1.0)]),
    ]


def _outcome(fn, g):
    """The bits of fn(g), or the type and message of the error it raised."""
    try:
        return _bits(fn(g)).tolist()
    except DisconnectedGraphError as exc:
        return type(exc), str(exc)


class TestBreadthFirstBlocks:
    """Unweighted betweenness and closeness, run as breadth-first blocks of
    sources, against the one-source-at-a-time loops (tests/naive.py), bit
    for bit, errors included. ``sources`` caps the sources per block, so
    that several blocks run; None keeps the module's cap."""

    @pytest.mark.parametrize("sources", [None, 1, 3])
    def test_betweenness_bitwise(self, path_graphs, monkeypatch, sources):
        for g in _hop_graphs(path_graphs):
            if sources is not None:
                monkeypatch.setattr(baselines, "_BLOCK_CELLS", sources * (g.n + g.indices.size))
            got = _outcome(lambda g: betweenness_centrality(g).values, g)
            assert got == _outcome(naive_brandes_betweenness, g)

    @pytest.mark.parametrize("sources", [None, 1, 3])
    def test_closeness_bitwise(self, path_graphs, monkeypatch, sources):
        outcomes = set()
        for g in _hop_graphs(path_graphs):
            if sources is not None:
                monkeypatch.setattr(baselines, "_BLOCK_CELLS", sources * (g.n + g.indices.size))
            got = _outcome(lambda g: closeness_centrality(g).values, g)
            assert got == _outcome(naive_dijkstra_closeness, g)
            outcomes.add(type(got) is tuple and got[0])
        # the list covers connected graphs (n=1 among them) and disconnected ones
        assert outcomes == {False, DisconnectedGraphError}

    @pytest.mark.parametrize("sources", [None, 1, 3])
    def test_shared_search_bitwise(self, path_graphs, monkeypatch, sources):
        """One search gives betweenness_centrality's and closeness_centrality's
        bits, and closeness's error where a source misses a node."""
        outcomes = set()
        for g in _hop_graphs(path_graphs):
            if sources is not None:
                monkeypatch.setattr(baselines, "_BLOCK_CELLS", sources * (g.n + g.indices.size))
            got = _outcome(lambda g: np.concatenate(baselines._hop_paths(g)).ravel(), g)
            want = _outcome(lambda g: np.concatenate([betweenness_centrality(g).values,
                                                      closeness_centrality(g).values]), g)
            assert got == want
            outcomes.add(type(got) is tuple and got[0])
        assert outcomes == {False, DisconnectedGraphError}


def _stack_groups(path_graphs):
    """The breadth-first shapes and BA n=50 graphs, grouped by node count,
    plus a 6-node stack whose third graph is disconnected and whose labels
    differ from graph to graph."""
    ba = [barabasi_albert(GeneratorParams(n=50, m_attach=m, weight_low=1, weight_high=20, seed=seed))
          for seed, m in enumerate([1, 2, 2, 3])]
    groups: dict[int, list] = {}
    for g in _hop_graphs(path_graphs) + ba:
        groups.setdefault(g.n, []).append(g)
    path = lambda tag: build_graph([(f"{tag}{i}", f"{tag}{i + 1}", 1.0) for i in range(5)])
    split = build_graph([("a", "b", 1), ("b", "c", 2), ("d", "e", 1), ("e", "f", 1), ("f", "d", 1)])
    return [*groups.values(), [path("p"), path("q"), split, path("r")]]


def _each_alone(group, fn):
    """fn's stacked rows over the graphs scored one by one, or the error of the first that fails."""
    rows = []
    for g in group:
        got = _outcome(fn, g)
        if type(got) is not list:
            return got
        rows.append(got)
    return rows


class TestStackedSearch:
    """``_hop_paths`` over k stacked graphs of n nodes against
    ``betweenness_centrality`` and ``closeness_centrality`` on each graph
    alone, bit for bit, errors included, with search blocks of one graph,
    of two (cutting a stack of three mid-stack) and of the whole stack."""

    @pytest.mark.parametrize("graphs_per_block", [1, 2, None])
    def test_matches_each_graph_alone(self, path_graphs, monkeypatch, graphs_per_block):
        outcomes = set()
        for group in _stack_groups(path_graphs):
            k, chunk = len(group), _block_diagonal(group)
            n = chunk.n // k
            per_block = k if graphs_per_block is None else graphs_per_block
            monkeypatch.setattr(baselines, "_STACK_CELLS", per_block * n * (n + chunk.indices.size // k))
            assert baselines._blocks(chunk, k)[0] == (0, min(per_block, k) * n)
            got = _outcome(lambda g: np.stack(baselines._hop_paths(g, k), axis=1).reshape(k, -1), chunk)
            both = lambda g: np.concatenate([betweenness_centrality(g).values, closeness_centrality(g).values])
            assert got == _each_alone(group, both)
            outcomes.add((k > 2, type(got) is tuple and got[0]))
        # stacks of three and more graphs, connected and not
        assert {(True, False), (True, DisconnectedGraphError)} <= outcomes

    def test_disconnected_member_names_its_own_pair(self, path_graphs):
        *_, group = _stack_groups(path_graphs)
        with pytest.raises(DisconnectedGraphError) as alone:
            closeness_centrality(group[2])
        with pytest.raises(DisconnectedGraphError) as stacked:
            baselines._hop_paths(_block_diagonal(group), len(group))
        assert str(stacked.value) == str(alone.value) == "closeness needs a connected graph: no path from 'a' to 'd'"

    @pytest.mark.parametrize("lookups", [1, 40, None])
    def test_shared_triangles_match_constraint_and_effective_size(self, path_graphs, monkeypatch, lookups):
        """Constraint and effective size from one triangle join over the
        stack, cut into blocks of ``lookups`` (None keeps the module's
        bound), against ``burt_constraint`` and ``effective_size`` on each
        graph alone."""
        if lookups is not None:
            monkeypatch.setattr(baselines, "_STACK_LOOKUPS", lookups)
        for group in _stack_groups(path_graphs):
            k, chunk = len(group), _block_diagonal(group)
            triangles = baselines._triangles(chunk, k)
            for weighted in (False, True):
                got = [baselines._constraint(chunk, weighted, triangles),
                       baselines._effective_size(chunk, weighted, triangles)]
                want = [np.concatenate([burt_constraint(g, weighted).values for g in group]),
                        np.concatenate([effective_size(g, weighted).values for g in group])]
                assert _bits(got).tolist() == _bits(want).tolist()


class TestEigenvectorMatchesReference:
    """The power loop with its entry rows built once against the loop that
    rebuilt them on every step (tests/naive.py), bit for bit."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_bitwise(self, path_graphs, weighted, tol):
        for g in path_graphs + [star(6)]:
            got = eigenvector_centrality(g, weighted=weighted, tol=tol).values
            assert np.array_equal(_bits(got), _bits(naive_power_eigenvector(g, weighted, tol)))


def _power_groups(path_graphs):
    """The path graphs, a star, 6-node paths and BA graphs, grouped by node
    count: the graphs one stack can hold."""
    ba = [barabasi_albert(GeneratorParams(n=50, m_attach=m, weight_low=1, weight_high=high, seed=seed))
          for seed, (m, high) in enumerate([(1, 20), (2, 1), (2, 20), (3, 20), (4, 2)])]
    paths = [build_graph([(f"p{i}", f"p{i + 1}", float(1 + i * w)) for i in range(5)]) for w in (0, 3)]
    groups: dict[int, list] = {}
    for g in path_graphs + ba + [star(6)] + paths:
        groups.setdefault(g.n, []).append(g)
    return list(groups.values())


def _power_steps(g, weighted, tol):
    """The step at which the reference power loop stops on g."""
    lo, hi = 1, 10000
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            naive_power_eigenvector(g, weighted, tol, max_iter=mid)
            hi = mid
        except ConvergenceError:
            lo = mid + 1
    return lo


def _first_error(graphs, **kwargs):
    """The error of eigenvector_centrality on the first of ``graphs`` it fails on."""
    for g in graphs:
        try:
            eigenvector_centrality(g, weighted=True, **kwargs)
        except ConvergenceError as exc:
            return str(exc), exc.iterations


def _stack_error(graphs, **kwargs):
    chunk = _block_diagonal(graphs)
    with pytest.raises(ConvergenceError) as exc:
        baselines._power_stack(chunk, len(graphs), chunk.weights, **kwargs)
    return str(exc.value), exc.value.iterations


class TestPowerStack:
    """The power loop over a stack of equal-size graphs, each row against
    the loop on its graph alone (tests/naive.py), bit for bit, errors
    included."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_bitwise(self, path_graphs, weighted, tol):
        steps = set()
        for group in _power_groups(path_graphs):
            chunk = _block_diagonal(group)
            weights = chunk.weights if weighted else np.ones_like(chunk.weights)
            got = baselines._power_stack(chunk, len(group), weights, tol)
            want = np.stack([naive_power_eigenvector(g, weighted, tol) for g in group])
            assert np.array_equal(_bits(got), _bits(want))
            steps.add(len({_power_steps(g, weighted, tol) for g in group}))
        assert max(steps) >= 4  # rows of one stack stop at several steps

    def test_lowest_failing_graph_raises(self):
        """Graph 1 overflows at step 2, graph 2 at step 1: the per-graph loop
        raises graph 1's error, and so does the stack."""
        path = lambda w: build_graph([(f"p{i}", f"p{i + 1}", w if i == 9 else 1.0) for i in range(19)])
        graphs = [path(1.0), path(2e154), path(5e154), path(1.0)]
        want = _first_error(graphs)
        assert want == ("power iteration overflows float64 at the largest weight 2e+154 (after 2 iterations)", 2)
        assert _first_error(graphs[2:]) == (want[0].replace("2e+154 (after 2", "5e+154 (after 1"), 1)
        assert _stack_error(graphs) == want
        # two graphs that overflow at the same step
        graphs = [path(1.0), path(5e154), path(6e154)]
        assert _stack_error(graphs) == _first_error(graphs) == _first_error(graphs[1:2])
        # a graph that has not converged by max_iter comes first
        graphs = [graphs[0], graphs[2]]
        want = _first_error(graphs, max_iter=3)
        assert want == ("power iteration did not reach tolerance 1e-10 (after 3 iterations)", 3)
        assert _stack_error(graphs, max_iter=3) == want


def _ego_graphs(path_graphs):
    """The path graphs plus a hub-heavy graph, one with merged parallel
    edges, self-loops, an isolate and weights from 1e-3 to 7e5, one with
    self-loops only, and a dense one whose rows list their neighbours in
    random orders, with weights in [1, 2) so that the order of a sum shows
    in its bits."""
    rng = np.random.default_rng(33)
    dense = [(str(i), str(j), float(rng.uniform(1, 2))) for i in range(20) for j in range(i) if rng.random() < 0.6]
    hubs = [(f"h{i % 3}", f"n{i}", float(rng.integers(1, 20))) for i in range(60)]
    hubs += [(f"n{i}", f"n{i + 1}", 1.0) for i in range(0, 60, 2)] + [("h0", "h1", 2.0), ("h1", "h2", 3.0)]
    src, dst = rng.integers(0, 15, 80), rng.integers(0, 15, 80)
    messy = [(str(a), str(b), float(w)) for a, b, w in zip(src, dst, 10.0 ** rng.uniform(-3, 5.8, 80))]
    return path_graphs + [
        build_graph(hubs),
        build_graph(messy, nodes=["isolate"]),
        build_graph([("A", "A", 1.0), ("B", "B", 2.0)]),
        build_graph([dense[k] for k in rng.permutation(len(dense))]),
    ]


class TestEgoBaselinesMatchReference:
    """Constraint and effective size, run as one triangle join over the
    CSR, against the per-node dict loops they replaced (tests/naive.py), bit
    for bit. ``cells`` caps the lookups per block, so that several blocks
    run; None keeps the module's cap."""

    @pytest.mark.parametrize("cells", [None, 1, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_constraint_bitwise(self, path_graphs, monkeypatch, weighted, cells):
        if cells is not None:
            monkeypatch.setattr(baselines, "_BLOCK_CELLS", cells)
        for g in _ego_graphs(path_graphs):
            got = burt_constraint(g, weighted=weighted).values
            assert np.array_equal(_bits(got), _bits(naive_burt_constraint(g, weighted)))

    @pytest.mark.parametrize("cells", [None, 1, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_effective_size_bitwise(self, path_graphs, monkeypatch, weighted, cells):
        if cells is not None:
            monkeypatch.setattr(baselines, "_BLOCK_CELLS", cells)
        for g in _ego_graphs(path_graphs):
            got = effective_size(g, weighted=weighted).values
            assert np.array_equal(_bits(got), _bits(naive_effective_size(g, weighted)))

    @pytest.mark.parametrize("packed_from", [0, graph_module._PACKED_FROM])
    @pytest.mark.parametrize("cells", [None, 1, 5])
    @pytest.mark.parametrize("directed", [False, True])
    def test_triangles_match_the_argsort_join(self, monkeypatch, directed, cells, packed_from):
        # random multigraphs: parallel edges, reversed copies and self-loops;
        # at packed_from 0 every sort in the join is the packed one
        if cells is not None:
            monkeypatch.setattr(baselines, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(graph_module, "_PACKED_FROM", packed_from)
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            ends = rng.integers(0, n, size=(int(rng.integers(1, 200)), 2)).tolist()
            g = build_graph([(str(u), str(v), 1.0) for u, v in ends] + [("0", "1", 2.0)], directed=directed)
            for got, expected in zip(baselines._triangles(g), naive_triangles(g)):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_graphs_cover_the_cleanups(self, path_graphs):
        *_, hubs, messy, loops_only, _ = _ego_graphs(path_graphs)
        assert max(np.diff(hubs.indptr)) >= 20
        assert messy.build_report.merged_edges and messy.build_report.self_loops_dropped
        assert "isolate" in messy.isolates() and loops_only.indices.size == 0


def _nx_graph(nx, g):
    graph = nx.Graph()
    graph.add_nodes_from(g.nodes)
    graph.add_edges_from((u, v, {"weight": w, "length": 1.0 / w}) for u, v, w in g.edges())
    return graph


# networkx calls computing each baseline's definition; path metrics take
# arc length 1/weight, strength metrics the weight itself.
# - betweenness: networkx halves undirected pair counts when not normalized,
#   as this package does.
# - eigenvector: both iterate on A + I. Here tol bounds the norm of one
#   step, which at the default 1e-10 leaves up to ~2e-9 relative error in
#   the smallest components, so both sides are iterated to a tighter tol.
# - weighted constraint and effective size: networkx 3.6 has a scipy
#   shortcut (taken when `nodes` is omitted) that gives weighted effective
#   sizes up to 8% away from its own per-node definition; `nodes` selects
#   the per-node definition, which this package matches.
NX_BASELINES = {
    ("closeness", False): lambda nx, G: nx.closeness_centrality(G),
    ("closeness", True): lambda nx, G: nx.closeness_centrality(G, distance="length"),
    ("betweenness", False): lambda nx, G: nx.betweenness_centrality(G, normalized=False),
    ("betweenness", True): lambda nx, G: nx.betweenness_centrality(G, normalized=False, weight="length"),
    ("eigenvector", False): lambda nx, G: nx.eigenvector_centrality(G, max_iter=100_000, tol=1e-14),
    ("eigenvector", True): lambda nx, G: nx.eigenvector_centrality(G, max_iter=100_000, tol=1e-14, weight="weight"),
    ("constraint", False): lambda nx, G: nx.constraint(G),
    ("constraint", True): lambda nx, G: nx.constraint(G, nodes=list(G), weight="weight"),
    ("effective-size", False): lambda nx, G: nx.effective_size(G),
    ("effective-size", True): lambda nx, G: nx.effective_size(G, nodes=list(G), weight="weight"),
}


@pytest.mark.parametrize("metric, weighted", list(NX_BASELINES))
def test_matches_networkx(path_graphs, metric, weighted):
    nx = pytest.importorskip("networkx")
    # plus a one-node graph, where networkx gives the isolate of the
    # structural-hole metrics nan and this package 0.0
    one_node = [] if metric in ("constraint", "effective-size") else [build_graph([("A", "A", 1.0)])]
    for g in path_graphs + one_node:
        if metric == "eigenvector":
            ours = eigenvector_centrality(g, weighted=weighted, tol=1e-13).values
        else:
            ours = baseline(g, metric, weighted=weighted).values
        theirs = NX_BASELINES[metric, weighted](nx, _nx_graph(nx, g))
        np.testing.assert_allclose(ours, [theirs[u] for u in g.nodes], rtol=1e-9, atol=0)
