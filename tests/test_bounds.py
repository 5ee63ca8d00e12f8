import math

import numpy as np
import pytest

from dcmetrics import (
    METRICS,
    GeneratorParams,
    all_distinctiveness,
    barabasi_albert,
    bounds,
    build_graph,
    d1,
    d2,
    d3,
    d4,
    d5,
    normalize,
    profile,
)
import exact
from test_distinctiveness import full_mesh, star


class TestBoundFormulas:
    def test_d1_example(self):
        rec = bounds("d1", n=6, min_weight=2, max_weight=5, alpha=1)
        assert rec.upper == pytest.approx(25 * math.log10(5), rel=1e-12)
        assert rec.upper == pytest.approx(17.4743, abs=5e-4)
        assert rec.lower == 0.0

    def test_d5_example(self):
        rec = bounds("d5", n=6, alpha=2)
        assert rec.upper == 5.0
        assert rec.lower == pytest.approx(0.04, rel=1e-12)

    def test_d2_negative_lower(self):
        rec = bounds("d2", n=6, alpha=2)
        assert rec.lower == pytest.approx(-5 * math.log10(5), rel=1e-12)
        assert rec.lower == pytest.approx(-3.495, abs=5e-4)

    def test_d3_lower_branch_selection(self):
        # single-term branch only when (n-2)(M^alpha - M) < m - 1
        tight = bounds("d3", n=5, min_weight=3, max_weight=3, alpha=1)
        assert tight.lower == pytest.approx(3 * math.log10(12 / 10), rel=1e-12)
        loose = bounds("d3", n=5, min_weight=1, max_weight=3, alpha=2)
        assert loose.lower == pytest.approx(4 * 3 * math.log10(10 / 28), rel=1e-12)

    def test_d4_bounds(self):
        rec = bounds("d4", n=6, min_weight=1, max_weight=5, alpha=2)
        assert rec.upper == 25.0
        assert rec.lower == pytest.approx(1 / (1 + 4 * 25), rel=1e-12)

    def test_lower_never_exceeds_upper(self):
        for metric in METRICS:
            for alpha in (1, 2, 5):
                for n in (2, 3, 10, 50):
                    rec = bounds(metric, n=n, min_weight=1, max_weight=20, alpha=alpha)
                    assert rec.lower <= rec.upper

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bounds("d1", n=1)
        with pytest.raises(ValueError):
            bounds("d1", n=6, min_weight=0.0)
        with pytest.raises(ValueError):
            bounds("d1", n=6, min_weight=3, max_weight=2)
        with pytest.raises(ValueError):
            bounds("d1", n=6, alpha=0.5)

    @pytest.mark.parametrize("metric, n, max_weight, alpha", [
        ("d1", 100, 1e307, 3),  # both bounds were +-inf
        ("d2", 10, 1.0, 1e308),  # the lower bound was -inf
        ("d3", 10, 1e200, 2),  # M**alpha raised OverflowError
        ("d3", 10, 1e307, 1),  # the upper bound was inf
        ("d4", 10, 1e308, 2),  # the upper bound was inf
    ])
    def test_overflow_is_a_value_error(self, metric, n, max_weight, alpha):
        message = (f"{metric} bounds are not finite in float64 at n={n}, "
                   f"weights in [1.0, {float(max_weight)!r}], alpha={float(alpha)!r}")
        with pytest.raises(ValueError) as err:
            bounds(metric, n=n, max_weight=max_weight, alpha=alpha)
        assert str(err.value) == message

    def test_finite_bounds_near_overflow_kept(self):
        # the same formulas as before, up to the last finite value
        assert bounds("d5", n=100, alpha=150).lower == 1.0 / 99**150.0
        assert bounds("d4", n=10, max_weight=1e150, alpha=2).lower == 1.0 / (1.0 + 8 * 1e150**2.0)
        assert bounds("d1", n=100, max_weight=1e300, alpha=3).upper == 1e300 * 99 * math.log10(99)

    def test_overflowing_power_gives_the_rounded_lower_bound(self):
        assert bounds("d5", n=100, alpha=155).lower == 99.0**-155 == 4.748373115088700e-310
        assert bounds("d5", n=100, alpha=1000).lower == 0.0
        assert bounds("d5", n=3, alpha=1e300).lower == 0.0
        assert bounds("d4", n=100, max_weight=10, alpha=400).lower == 0.0
        assert bounds("d4", n=3, max_weight=10, alpha=310).lower == 1e-310
        # a finite quotient of normal size, though its power overflows
        assert bounds("d4", n=3, min_weight=1e300, max_weight=1e301, alpha=310).lower == 1e-10
        # (n-2) is 0: the bound is min_weight exactly
        assert bounds("d4", n=2, max_weight=10, alpha=400).lower == 1.0
        assert bounds("d4", n=2, min_weight=3, max_weight=30, alpha=1e300).lower == 3.0

    @pytest.mark.parametrize("n, min_weight, max_weight, alpha", [
        (100, 1.0, 10.0, 307),
        (1000, 1.0, 10.0, 306),
        (10**6, 1.0, 2.0, 1020),
        (100, 1e300, 1e301, 307),  # a quotient of normal size
    ])
    def test_overflowing_denominator_gives_the_rounded_lower_bound(self, n, min_weight, max_weight, alpha):
        # (M/m)**alpha is finite but (n-2) times it is not: the float formula
        # gives 0.0, the bound is the exact quotient rounded to float64
        m, M = min_weight, max_weight
        assert m / (1.0 + (n - 2) * (M / m) ** float(alpha)) == 0.0
        lower = bounds("d4", n=n, min_weight=m, max_weight=M, alpha=alpha).lower
        assert lower == exact.bounds("d4", n, m, M, alpha)[0] > 0.0

    @pytest.mark.parametrize("metric", ["d4", "d5"])
    def test_lower_bound_grid_against_the_float_formula(self, metric):
        # where the float formula has a value, the bits are its own; where its
        # power overflows, the bound is the exact quotient rounded to float64
        # (integer alpha), or the float power taken with -alpha (d5, any alpha)
        def formula(n, m, M, alpha):
            return m / (1.0 + (n - 2) * (M / m) ** alpha) if metric == "d4" else 1.0 / (n - 1) ** alpha

        kept = rounded = 0
        for n in (2, 3, 4, 10, 100, 10**6):
            for m, M in ((1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (1.0, 20.0), (3.0, 7.0), (1e300, 1e301)):
                for alpha in (1, 1.5, 2, 10, 100, 150, 155, 240, 247.25, 310, 317, 400, 411.5, 1000, 1100):
                    lower = bounds(metric, n=n, min_weight=m, max_weight=M, alpha=alpha).lower
                    try:
                        want = formula(n, m, M, float(alpha))
                    except OverflowError:
                        rounded += 1
                        if float(alpha).is_integer():
                            assert lower == exact.bounds(metric, n, m, M, int(alpha))[0], (n, m, M, alpha)
                        elif metric == "d5":
                            assert math.isclose(lower, (n - 1.0) ** -alpha, rel_tol=1e-12, abs_tol=1e-322)
                        else:
                            assert lower == m if n == 2 else 0.0 <= lower < m
                        continue
                    kept += 1
                    assert np.float64(lower).view(np.int64) == np.float64(want).view(np.int64), (n, m, M, alpha)
        assert kept > 50 and rounded > 50

    def test_against_the_exact_bounds(self):
        for metric in METRICS:
            for n in (2, 3, 10, 100):
                for m, M in ((1.0, 1.0), (1.0, 2.0), (1.0, 20.0), (3.0, 7.0), (0.5, 3.0)):
                    for alpha in (1, 2, 5, 13):
                        rec = bounds(metric, n=n, min_weight=m, max_weight=M, alpha=alpha)
                        lower, upper = exact.bounds(metric, n, m, M, alpha)
                        assert math.isclose(rec.lower, lower, rel_tol=1e-12), (metric, n, m, M, alpha)
                        assert math.isclose(rec.upper, upper, rel_tol=1e-12), (metric, n, m, M, alpha)


class TestContainment:
    @pytest.mark.parametrize("alpha", [1, 2, 5])
    def test_random_ba_graphs_within_bounds(self, alpha):
        for seed in range(20):
            g = barabasi_albert(GeneratorParams(n=50, m_attach=2, weight_low=1, weight_high=20, seed=seed))
            prof = profile(g)
            vals = all_distinctiveness(g, alpha=alpha)
            for metric in METRICS:
                rec = bounds(metric, prof.n, prof.min_weight, prof.max_weight, alpha)
                v = vals[metric].values
                assert v.min() >= rec.lower - 1e-9
                assert v.max() <= rec.upper + 1e-9

    def test_toy_within_bounds(self, toy):
        prof = profile(toy)
        for alpha in (1, 2, 5):
            vals = all_distinctiveness(toy, alpha=alpha)
            for metric in METRICS:
                rec = bounds(metric, prof.n, prof.min_weight, prof.max_weight, alpha)
                assert rec.lower <= vals[metric].values.min()
                assert vals[metric].values.max() <= rec.upper


class TestAttainment:
    @pytest.mark.parametrize("alpha", [1, 2, 5])
    def test_star_hub_attains_uppers(self, alpha):
        n, M = 9, 4.0
        g = star(n, weight=M)
        for metric, fn in (("d1", d1), ("d2", d2), ("d4", d4), ("d5", d5)):
            rec = bounds(metric, n=n, min_weight=M, max_weight=M, alpha=alpha)
            hub = fn(g, alpha=alpha)["hub"]
            assert hub == pytest.approx(rec.upper, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_star_leaf_attains_d3_lower(self, n):
        # at alpha 1 and unit weights each leaf's one term is log10(total / S_hub) = log10(1)
        assert d3(star(n))["leaf0"] == bounds("d3", n=n).lower == 0.0

    @pytest.mark.parametrize("alpha", [1, 2, 5])
    @pytest.mark.parametrize("metric,fn", [("d1", d1), ("d2", d2)])
    def test_full_mesh_attains_lower(self, alpha, metric, fn):
        n, M = 7, 3.0
        g = full_mesh(n, weight=M)
        rec = bounds(metric, n=n, min_weight=M, max_weight=M, alpha=alpha)
        score = fn(g, alpha=alpha)["v0"]
        if rec.lower == 0.0:
            assert score == pytest.approx(0.0, abs=1e-12)
        else:
            assert score == pytest.approx(rec.lower, rel=1e-12)


class TestNormalize:
    def test_star_hub_normalizes_to_one(self):
        g = star(8)
        rec = bounds("d5", n=8, alpha=1)
        vec = normalize(d5(g), rec)
        assert vec.normalized
        assert vec["hub"] == pytest.approx(1.0, rel=1e-12)

    def test_full_mesh_d1_alpha1_normalizes_to_zero(self):
        g = full_mesh(5, weight=2.0)
        rec = bounds("d1", n=5, min_weight=2, max_weight=2, alpha=1)
        vec = normalize(d1(g), rec)
        assert vec["v0"] == pytest.approx(0.0, abs=1e-15)

    def test_toy_d5_example(self, toy):
        rec = bounds("d5", n=6, alpha=1)
        assert (rec.lower, rec.upper) == (0.2, 5.0)
        vec = normalize(d5(toy), rec)
        assert vec["B"] == pytest.approx((2.5 - 0.2) / 4.8, rel=1e-12)
        assert vec["B"] == pytest.approx(0.479, abs=5e-4)

    def test_mismatches_rejected(self, toy):
        vec = d5(toy)
        with pytest.raises(ValueError, match="bounds are for"):
            normalize(vec, bounds("d4", n=6, min_weight=2, max_weight=5, alpha=1))
        with pytest.raises(ValueError, match="alpha"):
            normalize(vec, bounds("d5", n=6, alpha=2))

    def test_degenerate_bounds_rejected(self):
        g = build_graph([("A", "B", 1.0)])
        rec = bounds("d3", n=2, min_weight=1, max_weight=1, alpha=1)
        assert rec.lower == rec.upper == 0.0
        with pytest.raises(ValueError, match="degenerate"):
            normalize(d3(g), rec)

    @pytest.mark.parametrize("direction", ["in", "out"])
    def test_directed_vector_rejected(self, direction):
        # A's d3 in either direction is 1.26186 normalized by the undirected bounds, above 1
        g = build_graph([("B", "A", 1.0), ("C", "A", 1.0), ("A", "B", 1.0), ("A", "C", 1.0)], directed=True)
        message = f"bounds are derived for undirected graphs, cannot normalize a d3 vector of direction '{direction}'"
        with pytest.raises(ValueError, match=f"^{message}$"):
            normalize(d3(g, direction=direction), bounds("d3", n=3))

    def test_double_normalization_rejected(self, toy):
        rec = bounds("d5", n=6, alpha=1)
        vec = normalize(d5(toy), rec)
        with pytest.raises(ValueError, match="already"):
            normalize(vec, rec)

    def test_normalization_preserves_ranking(self, toy):
        from dcmetrics import rank

        prof = profile(toy)
        for metric in METRICS:
            for alpha in (1, 2):
                vec = all_distinctiveness(toy, alpha=alpha, metrics=(metric,))[metric]
                rec = bounds(metric, prof.n, prof.min_weight, prof.max_weight, alpha)
                if rec.upper == rec.lower:
                    continue
                normed = normalize(vec, rec)
                assert np.array_equal(rank(vec).ranks, rank(normed).ranks)
