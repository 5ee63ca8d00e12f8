import numpy as np
import pytest

from dcmetrics import (
    CentralityVector,
    GeneratorParams,
    correlation_sweep,
    d1,
    degree_centrality,
    rank,
    spearman,
)
from naive import naive_spearman


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
