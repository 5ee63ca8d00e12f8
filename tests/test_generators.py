import numpy as np
import pytest

from conftest import assert_same_graph
from dcmetrics import GeneratorParams, barabasi_albert, profile
from naive import naive_barabasi_albert


class TestParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            GeneratorParams(n=5, m_attach=5)
        with pytest.raises(ValueError):
            GeneratorParams(n=5, m_attach=0)
        with pytest.raises(ValueError):
            GeneratorParams(n=5, m_attach=2, weight_low=0)
        with pytest.raises(ValueError):
            GeneratorParams(n=5, m_attach=2, weight_low=3, weight_high=2)


class TestTopology:
    def test_edge_count_is_forced_by_growth_rule(self):
        for seed in range(100):
            g = barabasi_albert(GeneratorParams(n=50, m_attach=2, seed=seed))
            assert g.edge_count == 2 * (50 - 2) == 96
            assert g.n == 50

    def test_smallest_case_is_the_seed_star(self):
        g = barabasi_albert(GeneratorParams(n=3, m_attach=2, seed=1))
        assert g.edge_count == 2
        assert set(g.nodes) == {"0", "1", "2"}
        prof = profile(g)
        # node 2 is the seed-star hub
        assert prof.degree_map()["2"] == 2

    def test_degree_sum(self):
        for seed in (0, 7, 99):
            g = barabasi_albert(GeneratorParams(n=40, m_attach=3, seed=seed))
            assert profile(g).out_degree.sum() == 2 * g.edge_count

    def test_connected(self):
        from dcmetrics import is_connected

        for seed in range(10):
            g = barabasi_albert(GeneratorParams(n=30, m_attach=1, seed=seed))
            assert is_connected(g)

    def test_early_nodes_trend_higher_degree(self):
        # preferential attachment advantage: averaged over many seeds the
        # first nodes end up with clearly higher degree than the last
        total = np.zeros(50)
        for seed in range(1000):
            g = barabasi_albert(GeneratorParams(n=50, m_attach=2, seed=seed))
            deg = profile(g).degree_map()
            total += [deg[str(i)] for i in range(50)]
        mean = total / 1000
        assert mean[:10].mean() > 2 * mean[-10:].mean()
        # monotone trend over index blocks
        blocks = mean.reshape(10, 5).mean(axis=1)
        assert all(blocks[i] >= blocks[i + 1] for i in range(len(blocks) - 2))


class TestWeights:
    def test_weights_are_integers_in_range(self):
        g = barabasi_albert(GeneratorParams(n=50, m_attach=2, weight_low=1, weight_high=20, seed=3))
        ws = [w for _, _, w in g.edges()]
        assert all(w == int(w) and 1 <= w <= 20 for w in ws)
        assert len(set(ws)) > 5  # actually random, not constant

    def test_unit_weight_default(self):
        g = barabasi_albert(GeneratorParams(n=10, m_attach=2, seed=3))
        assert all(w == 1.0 for _, _, w in g.edges())


class TestDeterminism:
    def test_same_seed_same_graph(self):
        a = barabasi_albert(GeneratorParams(n=30, m_attach=2, weight_low=1, weight_high=9, seed=11))
        b = barabasi_albert(GeneratorParams(n=30, m_attach=2, weight_low=1, weight_high=9, seed=11))
        assert list(a.edges()) == list(b.edges())

    def test_different_seed_different_graph(self):
        a = barabasi_albert(GeneratorParams(n=30, m_attach=2, weight_low=1, weight_high=9, seed=11))
        b = barabasi_albert(GeneratorParams(n=30, m_attach=2, weight_low=1, weight_high=9, seed=12))
        assert list(a.edges()) != list(b.edges())

    def test_weight_stream_independent_of_topology_stream(self):
        # same seed, different weight range: identical topology
        a = barabasi_albert(GeneratorParams(n=30, m_attach=2, weight_low=1, weight_high=1, seed=11))
        b = barabasi_albert(GeneratorParams(n=30, m_attach=2, weight_low=1, weight_high=9, seed=11))
        assert [(u, v) for u, v, _ in a.edges()] == [(u, v) for u, v, _ in b.edges()]


class TestMatchesUrnLoop:
    """The generator reads its urn from the edge list; the graphs stay bit for
    bit those of the urn-list loop in tests/naive.py."""

    @pytest.mark.parametrize("m, sizes", [
        (1, (2, 3, 50, 300)),
        (2, (3, 4, 50, 300)),
        (3, (4, 5, 50, 300)),
        (7, (8, 9, 50, 300)),
        (4, (5,)),
    ])
    @pytest.mark.parametrize("weight_high", [1, 20])
    def test_bitwise(self, m, sizes, weight_high):
        for n in sizes:
            for seed in range(10):
                params = GeneratorParams(n=n, m_attach=m, weight_low=1, weight_high=weight_high, seed=seed)
                assert_same_graph(barabasi_albert(params), naive_barabasi_albert(params))
