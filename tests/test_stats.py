import numpy as np
import pytest

from dcmetrics import (
    METRICS,
    TIE_RULES,
    CentralityVector,
    GeneratorParams,
    correlation_sweep,
    d1,
    degree_centrality,
    rank,
    spearman,
)
from dcmetrics import stats
from dcmetrics.stats import _CHUNK, _rank_array, _ranked, _rho_matrix
from naive import (
    naive_correlation_sweep,
    naive_pairwise_spearman,
    naive_rank_array,
    naive_spearman,
)

# tie-heavy values: signed zeros, subnormals and exact repeats
TIE_POOL = np.array([0.0, -0.0, 1.0, -1.0, 0.1, 0.3, 1e-300, 5e-324, -5e-324, 2.5, 1e300])


def tie_rows(rng, rows, n):
    """Rows drawn from a prefix of TIE_POOL each, so some rows are constant."""
    return np.stack([rng.choice(TIE_POOL[: int(rng.integers(1, TIE_POOL.size + 1))], size=n)
                     for _ in range(rows)])


def vec(scores: dict, metric="test") -> CentralityVector:
    return CentralityVector(
        metric=metric,
        alpha=None,
        direction="undirected",
        labels=tuple(scores),
        values=np.array(list(scores.values()), dtype=float),
    )


class TestRank:
    def test_competition_example(self):
        v = vec(dict(zip("ABCDEF", [2, 4, 2, 2, 1, 1])))
        r = rank(v, "competition")
        assert [r[x] for x in "ABCDEF"] == [2, 1, 2, 2, 5, 5]

    def test_all_equal(self):
        v = vec({c: 3.0 for c in "ABCDE"})
        assert set(rank(v, "competition").ranks) == {1}
        assert set(rank(v, "average").ranks) == {3.0}

    def test_strictly_decreasing(self):
        v = vec(dict(zip("ABCD", [9.0, 7.0, 5.0, 1.0])))
        assert list(rank(v, "competition").ranks) == [1, 2, 3, 4]
        assert list(rank(v, "average").ranks) == [1.0, 2.0, 3.0, 4.0]

    def test_competition_skips_after_ties(self):
        v = vec(dict(zip("ABCDE", [5, 5, 5, 2, 1])))
        assert list(rank(v).ranks) == [1, 1, 1, 4, 5]

    def test_average_ranks_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            values = rng.integers(0, 5, size=12).astype(float)
            v = vec({str(i): x for i, x in enumerate(values)})
            r = rank(v, "average")
            assert float(r.ranks.sum()) == pytest.approx(12 * 13 / 2)

    @pytest.mark.parametrize("rule", TIE_RULES)
    def test_matches_tie_loop_reference(self, rule):
        rng = np.random.default_rng(22)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 0.1, 0.3, 1e-300, 5e-324, 2.5, 1e300])
        for _ in range(400):
            n = int(rng.integers(1, 60))
            values = rng.choice(pool[: int(rng.integers(1, pool.size + 1))], size=n)
            r = rank(vec({str(i): x for i, x in enumerate(values)}), rule)
            want = naive_rank_array(values, rule)
            assert r.ranks.dtype == want.dtype == (np.int64 if rule == "competition" else np.float64)
            assert r.ranks.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rule", TIE_RULES)
    def test_stack_ranks_each_row(self, rule):
        rng = np.random.default_rng(23)
        for n in (1, 2, 7, 40):
            stack = tie_rows(rng, 9, n)
            got = _rank_array(stack, rule)
            assert got.shape == stack.shape
            for values, ranks in zip(stack, got):
                want = naive_rank_array(values, rule)
                assert ranks.dtype == want.dtype
                assert ranks.tobytes() == want.tobytes()

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            rank(vec({"A": 1.0, "B": 2.0}), "dense")

    @pytest.mark.parametrize("rule, kind", [("competition", int), ("average", float)])
    def test_lookup_by_label(self, rule, kind):
        v = vec(dict(zip("ABCDEF", [2, 4, 2, 2, 1, 1])))
        r = rank(v, rule)
        ranks = r.as_dict()
        assert list(ranks) == list("ABCDEF")
        assert all(type(x) is kind and x == r[label] for label, x in ranks.items())
        assert [v[label] for label in "ABCDEF"] == [2, 4, 2, 2, 1, 1]
        with pytest.raises(KeyError):
            r["Z"]
        with pytest.raises(KeyError):
            v["Z"]


class TestSpearman:
    def test_identity(self, toy):
        v = d1(toy)
        assert spearman(v, v) == 1.0

    def test_reversal(self):
        x = vec(dict(zip("ABCDE", [5.0, 4.0, 3.0, 2.0, 1.0])))
        y = vec(dict(zip("ABCDE", [1.0, 2.0, 3.0, 4.0, 5.0])))
        assert spearman(x, y) == -1.0

    def test_symmetry(self, toy):
        a, b = d1(toy), degree_centrality(toy)
        assert spearman(a, b) == pytest.approx(spearman(b, a), abs=0)

    def test_monotone_transform_invariance(self, toy):
        a = d1(toy)
        b = CentralityVector(
            metric="t", alpha=None, direction="undirected",
            labels=a.labels, values=np.exp(a.values * 0.3) + 5.0,
        )
        assert spearman(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_label_alignment(self):
        x = vec({"A": 3.0, "B": 2.0, "C": 1.0})
        y = vec({"C": 9.0, "A": 30.0, "B": 20.0})
        assert spearman(x, y) == pytest.approx(1.0)

    def test_mismatched_nodes_rejected(self):
        x = vec({"A": 1.0, "B": 2.0, "C": 3.0})
        y = vec({"A": 1.0, "B": 2.0, "D": 3.0})
        with pytest.raises(ValueError, match="same node set"):
            spearman(x, y)

    def test_needs_three_nodes(self):
        x = vec({"A": 1.0, "B": 2.0})
        with pytest.raises(ValueError, match="3 nodes"):
            spearman(x, x)

    def test_constant_rejected(self):
        x = vec({"A": 1.0, "B": 2.0, "C": 3.0})
        y = vec({"A": 1.0, "B": 1.0, "C": 1.0})
        with pytest.raises(ValueError, match="constant"):
            spearman(x, y)

    def test_matches_first_principles_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            xs = rng.integers(0, 6, size=n).astype(float)
            ys = rng.integers(0, 6, size=n).astype(float)
            if np.ptp(xs) == 0 or np.ptp(ys) == 0:
                continue
            x = vec({str(i): v for i, v in enumerate(xs)})
            y = vec({str(i): v for i, v in enumerate(ys)})
            assert spearman(x, y) == pytest.approx(naive_spearman(xs, ys), rel=1e-12)


class TestRhoMatrix:
    """Every pair of a rho matrix against the per-pair reference, bit for
    bit, with constant, equal and reversed rows."""

    def test_matches_per_pair_reference(self):
        rng = np.random.default_rng(24)
        checked = set()
        for n in (3, 9, 40):
            x = tie_rows(rng, 8, n)
            y = np.concatenate([tie_rows(rng, 5, n), x[:2], -x[2:4]])
            varied = lambda stack: stack[np.ptp(_ranked(stack), axis=1) > 0]
            xs, ys = varied(x), varied(y)
            rho = _rho_matrix(_ranked(xs), _ranked(ys))
            assert rho.shape == (len(xs), len(ys))
            for i, a in enumerate(xs):
                for j, b in enumerate(ys):
                    want = naive_pairwise_spearman(a, b)
                    assert np.float64(rho[i, j]).view(np.int64) == np.float64(want).view(np.int64)
                    checked.add(want if abs(want) == 1.0 else 0.0)
        assert checked == {-1.0, 0.0, 1.0}

    @pytest.mark.parametrize("n", [3, 300_001])
    def test_equal_and_reversed_rows_are_exact(self, n):
        """The Pearson formula alone gives exactly 1.0 and -1.0 for equal and
        reversed tie-heavy rows, also where its sums are no longer exact."""
        rng = np.random.default_rng(n)
        x = _ranked(np.stack([rng.permutation(np.arange(n) % k) for k in (2, 7, n)]).astype(float))
        rho = _rho_matrix(x, np.concatenate([x, n + 1.0 - x]))
        assert np.diagonal(rho[:, :3]).tolist() == [1.0] * 3
        assert np.diagonal(rho[:, 3:]).tolist() == [-1.0] * 3

    def test_constant_row_rejected(self):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]])
        y = np.array([[3.0, 1.0, 2.0]])
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="constant"):
                _rho_matrix(_ranked(a), _ranked(b))
        with pytest.raises(ValueError, match="constant"):
            naive_pairwise_spearman(x[1], y[0])

    def test_stacks_match_separate_matrices(self):
        """A (g, m, n) stack against a (g, j, n) stack gives, bit for bit,
        the g matrices of the 2-D calls; a constant row in any one graph of
        either stack is refused."""
        rng = np.random.default_rng(17)
        for g, m, j, n in ((1, 1, 1, 3), (8, 15, 7, 50), (3, 4, 6, 9)):
            x = _ranked(tie_rows(rng, g * m, n)).reshape(g, m, n)
            y = _ranked(tie_rows(rng, g * j, n)).reshape(g, j, n)
            x, y = x[:, np.ptp(x, axis=2).min(axis=0) > 0], y[:, np.ptp(y, axis=2).min(axis=0) > 0]
            rho = _rho_matrix(x, y)
            assert rho.shape == (g, x.shape[1], y.shape[1])
            assert rho.tobytes() == np.stack([_rho_matrix(a, b) for a, b in zip(x, y)]).tobytes()
        flat = x.copy()
        flat[-1, 1] = 2.0
        for a, b in ((flat, y), (y, flat)):
            with pytest.raises(ValueError, match="^rank correlation is undefined for constant scores$"):
                _rho_matrix(a, b)


PARAMS = GeneratorParams(n=30, m_attach=2, weight_low=1, weight_high=20)


class TestSweep:
    def test_self_pair_is_one(self):
        from dcmetrics import all_distinctiveness, barabasi_albert
        from dataclasses import replace

        g = barabasi_albert(replace(PARAMS, seed=5))
        for v in all_distinctiveness(g, alpha=1).values():
            assert spearman(v, v) == 1.0
        sweep = correlation_sweep(PARAMS, ensemble_size=1, alphas=(1.0,), seed=5, dc_metrics=("d1",))
        assert all(-1.0 <= rho <= 1.0 for rho in sweep.means.values())

    def test_deterministic_given_seed(self):
        a = correlation_sweep(PARAMS, ensemble_size=3, alphas=(1.0, 2.0), seed=9)
        b = correlation_sweep(PARAMS, ensemble_size=3, alphas=(1.0, 2.0), seed=9)
        assert a.means == b.means
        assert a.perfect_overlaps == b.perfect_overlaps

    def test_different_seed_differs(self):
        a = correlation_sweep(PARAMS, ensemble_size=3, alphas=(1.0,), seed=9, dc_metrics=("d1",))
        b = correlation_sweep(PARAMS, ensemble_size=3, alphas=(1.0,), seed=10, dc_metrics=("d1",))
        assert a.means != b.means

    def test_rows_cover_all_pairs(self):
        sweep = correlation_sweep(PARAMS, ensemble_size=2, alphas=(1.0, 2.0), seed=1)
        rows = list(sweep.rows())
        assert len(rows) == 5 * 7 * 2
        assert all(-1.0 <= r[3] <= 1.0 for r in rows)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            correlation_sweep(PARAMS, ensemble_size=0, alphas=(1.0,))
        with pytest.raises(ValueError):
            correlation_sweep(PARAMS, ensemble_size=1, alphas=())

    def test_rejects_repeated_alpha_and_metric(self):
        with pytest.raises(ValueError, match="alpha 2.0 is given more than once"):
            correlation_sweep(PARAMS, ensemble_size=1, alphas=(2, 1.0, 2.0))
        with pytest.raises(ValueError, match="DC metric 'd3' is given more than once"):
            correlation_sweep(PARAMS, ensemble_size=1, alphas=(1.0,), dc_metrics=("d3", "d1", "d3"))

    def test_rejects_graphs_below_three_nodes_before_generating(self, monkeypatch):
        monkeypatch.setattr(stats, "barabasi_albert", None)  # not called
        with pytest.raises(ValueError, match="at least 3 nodes for rank correlation, got n=2"):
            correlation_sweep(GeneratorParams(n=2, m_attach=1), ensemble_size=5, alphas=(1.0,))

    @pytest.mark.parametrize("alphas,dc_metrics,message", [
        ((1.0, 0.5), METRICS, r"alpha must be >= 1 \(pass relaxed_alpha=True to explore 0 < alpha < 1\), got 0.5"),
        ((1.0,), ("d1", "d6"), r"unknown metric 'd6', expected one of \('d1', 'd2', 'd3', 'd4', 'd5'\)"),
    ])
    def test_rejects_alpha_and_metric_before_generating(self, monkeypatch, alphas, dc_metrics, message):
        monkeypatch.setattr(stats, "barabasi_albert", None)  # not called
        with pytest.raises(ValueError, match=f"^{message}$"):
            correlation_sweep(PARAMS, ensemble_size=3, alphas=alphas, dc_metrics=dc_metrics)

    def test_non_finite_d3_fails_as_scored_alone(self):
        """d3's strength power overflows at alpha 300 on weights up to 20:
        the sweep raises the error all_distinctiveness raises on that graph,
        with no RuntimeWarning."""
        with pytest.raises(ValueError, match=r"^d3 of node '0' overflows float64 at alpha=300 \(undirected\)$"):
            correlation_sweep(PARAMS, ensemble_size=_CHUNK + 1, alphas=(1.0, 300.0), seed=3)

    def test_matches_per_pair_reference(self):
        """Chunks of graphs scored at once, with rank stacks per chunk and one
        rho matrix per graph, over the breadth-first path baselines, give the
        sweep of per-pair ranking over the one-source loops (tests/naive.py),
        bit for bit, at ensemble sizes below, at and past the chunk size."""
        params = GeneratorParams(n=50, m_attach=2, weight_low=1, weight_high=20)
        for seed, size in enumerate([3, 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]):
            got = correlation_sweep(params, ensemble_size=size, alphas=(1.0, 2.0, 5.0), seed=seed)
            means, overlaps = naive_correlation_sweep(params, size, (1.0, 2.0, 5.0), seed=seed)
            assert list(got.means) == list(means)
            assert np.array_equal(np.array(list(got.means.values())).view(np.int64),
                                  np.array(list(means.values())).view(np.int64))
            assert got.perfect_overlaps == overlaps

    def test_overlaps_and_repeated_alpha_in_loop_order(self):
        """Small trees give perfect overlaps, recorded in loop order; a
        repeated alpha, which would add its rows into the same means, is
        refused."""
        params = GeneratorParams(n=6, m_attach=1, weight_low=1, weight_high=3)
        with pytest.raises(ValueError, match="alpha 1.0 is given more than once"):
            correlation_sweep(params, ensemble_size=6, alphas=(1.0, 3.0, 1.0), seed=1)
        got = correlation_sweep(params, ensemble_size=6, alphas=(1.0, 3.0), seed=1)
        means, overlaps = naive_correlation_sweep(params, 6, (1.0, 3.0), seed=1)
        assert list(got.means) == list(means)
        assert np.array_equal(np.array(list(got.means.values())).view(np.int64),
                              np.array(list(means.values())).view(np.int64))
        assert got.perfect_overlaps == overlaps
        assert {rho for *_, rho in overlaps} == {-1.0, 1.0}
