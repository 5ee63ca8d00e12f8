"""Ranking with tie rules, Spearman rank correlation, and the
correlation-vs-alpha ensemble sweep."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .baselines import baseline
from .distinctiveness import METRICS, CentralityVector, all_distinctiveness
from .generators import GeneratorParams, barabasi_albert

__all__ = [
    "TIE_RULES",
    "SWEEP_BASELINES",
    "RankVector",
    "CorrelationSweep",
    "rank",
    "spearman",
    "correlation_sweep",
]

TIE_RULES = ("competition", "average")

# baseline suite used by the sweep, matching the published comparison set:
# plain degree plus the weighted strength-based metrics; the path-based
# pair runs on hop counts (see baselines module docstring)
SWEEP_BASELINES = (
    ("degree", False),
    ("degree", True),
    ("betweenness", False),
    ("closeness", False),
    ("eigenvector", True),
    ("constraint", True),
    ("effective-size", True),
)


@dataclass(frozen=True, eq=False)
class RankVector:
    """Per-node ranks, descending by score (rank 1 = highest score)."""

    metric: str
    tie_rule: str
    labels: tuple[str, ...]
    ranks: np.ndarray

    @cached_property
    def _position(self) -> dict[str, int]:
        return dict(zip(self.labels, range(len(self.labels))))

    def __getitem__(self, label: str) -> float:
        r = self.ranks[self._position[label]]
        return int(r) if self.tie_rule == "competition" else float(r)

    def as_dict(self) -> dict[str, float]:
        cast = int if self.tie_rule == "competition" else float
        return dict(zip(self.labels, map(cast, self.ranks.tolist())))


def _rank_array(values: np.ndarray, tie_rule: str) -> np.ndarray:
    """Descending ranks of a vector, or of each row of a 2-D stack; ties
    share the minimum rank (competition) or the average of their positions.
    Tie detection is exact float equality.

    One stable sort per row by descending score; a run of ties starts at
    the head of a row or wherever a sorted value differs from its
    predecessor, at 0-based position ``start`` in its row, and ends before
    the next start. Its members rank ``start + 1`` (competition, int64) or
    ``(start + end + 1) / 2`` (average, float64).
    """
    rows = np.atleast_2d(values)
    m, n = rows.shape
    step = max(n, 1)
    # positions into the flattened stack, each row sorted on its own
    order = (np.argsort(-rows, axis=1, kind="stable") + np.arange(m)[:, None] * n).ravel()
    s = rows.ravel()[order]
    new_run = np.concatenate(([True], s[1:] != s[:-1]))
    new_run[::step] = True
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], s.size)
    row_start = starts - starts % step
    starts, ends = starts - row_start, ends - row_start
    if tie_rule == "competition":
        run_rank = starts + 1
    else:
        run_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(s.size, dtype=run_rank.dtype)
    ranks[order] = np.repeat(run_rank, ends - starts)
    return ranks.reshape(values.shape)


def rank(vector: CentralityVector, tie_rule: str = "competition") -> RankVector:
    """Rank nodes by score, highest first."""
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}, expected one of {TIE_RULES}")
    return RankVector(
        metric=vector.metric,
        tie_rule=tie_rule,
        labels=vector.labels,
        ranks=_rank_array(np.asarray(vector.values, dtype=np.float64), tie_rule),
    )


def _ranked(stack: np.ndarray) -> np.ndarray:
    """Average-tie ranks of each row of a 2-D stack of score vectors."""
    if stack.shape[1] < 3:
        raise ValueError("spearman needs at least 3 nodes")
    return _rank_array(np.asarray(stack, dtype=np.float64), "average")


def _rho_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Spearman rho of every row of the rank stack ``x`` (m x n) against
    every row of ``y`` (k x n), as an m x k matrix: Pearson on the ranks.

    Average ranks are multiples of 1/2, so all the sums are exact while
    n**3 < 2**53. Equal and reversed rows need no special case: the mean
    rank is exactly (n+1)/2, so their deviations are equal or negated bit
    for bit, cov = +-sxx = +-syy, and sqrt(fl(s*s)) == s in IEEE arithmetic.
    The covariance is summed one row of ``x`` at a time, so the products
    stay k x n, with the same contiguous pairwise reduction for each pair.
    """
    if np.any(np.ptp(x, axis=1) == 0.0) or np.any(np.ptp(y, axis=1) == 0.0):
        raise ValueError("rank correlation is undefined for constant scores")
    dx = x - x.mean(axis=1, keepdims=True)
    dy = y - y.mean(axis=1, keepdims=True)
    cov = np.array([np.sum(row * dy, axis=1) for row in dx])
    denom = np.sqrt(np.sum(dx * dx, axis=1)[:, None] * np.sum(dy * dy, axis=1)[None, :])
    return np.clip(cov / denom, -1.0, 1.0)


def spearman(x: CentralityVector, y: CentralityVector) -> float:
    """Spearman rank correlation: Pearson correlation of average-tie ranks."""
    rx = _ranked(x.values[None, :])
    if x.labels == y.labels:
        yv = y.values
    elif set(x.labels) == set(y.labels):
        idx = {lab: i for i, lab in enumerate(y.labels)}
        yv = y.values[[idx[lab] for lab in x.labels]]
    else:
        raise ValueError("spearman inputs must score the same node set")
    return float(_rho_matrix(rx, _ranked(yv[None, :]))[0, 0])


@dataclass(frozen=True)
class CorrelationSweep:
    """Mean Spearman correlation of every (DC metric, baseline) pair across a
    seeded graph ensemble, at each alpha."""

    alphas: tuple[float, ...]
    dc_metrics: tuple[str, ...]
    baselines: tuple[str, ...]
    means: dict[tuple[str, str, float], float]
    ensemble_size: int
    params: GeneratorParams
    seed: int
    perfect_overlaps: tuple[tuple[int, str, str, float, float], ...]

    def mean(self, dc_metric: str, baseline_key: str, alpha: float) -> float:
        return self.means[(dc_metric, baseline_key, float(alpha))]

    def rows(self):
        """Flat (dc_metric, baseline, alpha, mean_rho) rows in column order."""
        for d in self.dc_metrics:
            for b in self.baselines:
                for a in self.alphas:
                    yield d, b, a, self.means[(d, b, a)]


def correlation_sweep(
    params: GeneratorParams,
    ensemble_size: int,
    alphas: tuple[float, ...],
    seed: int = 0,
    dc_metrics: tuple[str, ...] = METRICS,
) -> CorrelationSweep:
    """Generate ``ensemble_size`` graphs, score all DC metrics at each alpha
    plus every baseline once per graph, and average the pairwise Spearman
    correlations. Deterministic given the seed (per-graph seeds are drawn
    from one PCG64 stream; the ``seed`` field of ``params`` is ignored).

    Pairs whose |rho| reaches 1 within 1e-12 on an individual graph are
    recorded in ``perfect_overlaps`` rather than failing the sweep. Each
    alpha and each DC metric must appear once.
    """
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be >= 1")
    if not alphas:
        raise ValueError("alphas must be non-empty")
    alphas = tuple(float(a) for a in alphas)
    for kind, values in (("alpha", alphas), ("DC metric", dc_metrics)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"{kind} {repeated[0]!r} is given more than once")
    seeder = np.random.default_rng(np.random.SeedSequence(seed))
    graph_seeds = seeder.integers(0, 2**63 - 1, size=ensemble_size)

    # rho rows are (alpha, dc metric) pairs in loop order, columns baselines
    pairs = [(a, d) for a in alphas for d in dc_metrics]
    sums = np.zeros((len(pairs), len(SWEEP_BASELINES)))
    overlaps: list[tuple[int, str, str, float, float]] = []

    for g in range(ensemble_size):
        graph = barabasi_albert(replace(params, seed=int(graph_seeds[g])))
        # every vector scores graph.nodes in order, so vectors are paired
        # by position (what spearman does for equal labels)
        base = [baseline(graph, m, weighted=w) for m, w in SWEEP_BASELINES]
        keys = [v.metric for v in base]
        dc = []
        for a in alphas:
            vectors = all_distinctiveness(graph, alpha=a, metrics=dc_metrics)
            dc += [vectors[d].values for d in dc_metrics]
        rho = _rho_matrix(_ranked(np.stack(dc)), _ranked(np.stack([v.values for v in base])))
        sums += rho
        for i, j in np.argwhere(np.abs(rho) >= 1.0 - 1e-12).tolist():
            a, d = pairs[i]
            overlaps.append((g, d, keys[j], a, float(rho[i, j])))

    means = {
        (d, b, a): float(sums[i * len(dc_metrics) + k, j]) / ensemble_size
        for k, d in enumerate(dc_metrics) for j, b in enumerate(keys) for i, a in enumerate(alphas)
    }
    return CorrelationSweep(
        alphas=alphas,
        dc_metrics=tuple(dc_metrics),
        baselines=tuple(keys),
        means=means,
        ensemble_size=ensemble_size,
        params=params,
        seed=seed,
        perfect_overlaps=tuple(overlaps),
    )
