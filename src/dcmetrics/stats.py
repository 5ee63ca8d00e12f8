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
    """Descending ranks; ties share the minimum rank (competition) or the
    average of their positions. Tie detection is exact float equality.

    One stable sort by descending score; a run of ties starts wherever a
    sorted value differs from its predecessor, at 0-based position
    ``start``, and ends before the next start. Its members rank
    ``start + 1`` (competition, int64) or ``(start + end + 1) / 2``
    (average, float64).
    """
    n = values.size
    order = np.argsort(-values, kind="stable")
    s = values[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], n)
    if tie_rule == "competition":
        run_rank, dtype = starts + 1, np.int64
    else:
        run_rank, dtype = (starts + ends + 1) / 2.0, np.float64
    ranks = np.empty(n, dtype=dtype)
    ranks[order] = np.repeat(run_rank, ends - starts)
    return ranks


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


@dataclass(frozen=True, eq=False)
class _Ranked:
    """Average-tie ranks of one score vector, with the terms of the Spearman
    formula that depend on that vector alone, so that a vector paired with
    many others is ranked once."""

    ranks: np.ndarray
    reversed: np.ndarray  # n + 1 - ranks: equal to another's ranks on perfect reversal
    dev: np.ndarray  # ranks - mean rank
    sum_sq: float  # sum(dev * dev)
    constant: bool


def _ranked(values: np.ndarray) -> _Ranked:
    if values.size < 3:
        raise ValueError("spearman needs at least 3 nodes")
    r = _rank_array(np.asarray(values, dtype=np.float64), "average")
    dev = r - r.mean()
    return _Ranked(r, r.size + 1.0 - r, dev, float(np.sum(dev * dev)), bool(np.ptp(r) == 0.0))


def _rho(x: _Ranked, y: _Ranked) -> float:
    if x.constant or y.constant:
        raise ValueError("rank correlation is undefined for constant scores")
    # perfect agreement/reversal detected exactly on the ranks
    if np.array_equal(x.ranks, y.ranks):
        return 1.0
    if np.array_equal(x.ranks, y.reversed):
        return -1.0
    # Pearson on the ranks, written so that swapping x and y is bitwise
    # neutral (elementwise products commute, the summation order is fixed)
    cov = float(np.sum(x.dev * y.dev))
    denom = float(np.sqrt(x.sum_sq * y.sum_sq))
    return max(-1.0, min(1.0, cov / denom))


def spearman(x: CentralityVector, y: CentralityVector) -> float:
    """Spearman rank correlation: Pearson correlation of average-tie ranks."""
    rx = _ranked(x.values)
    if x.labels == y.labels:
        yv = y.values
    elif set(x.labels) == set(y.labels):
        idx = {lab: i for i, lab in enumerate(y.labels)}
        yv = y.values[[idx[lab] for lab in x.labels]]
    else:
        raise ValueError("spearman inputs must score the same node set")
    return _rho(rx, _ranked(yv))


def _baseline_key(metric: str, weighted: bool) -> str:
    return f"weighted-{metric}" if weighted else metric


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
    recorded in ``perfect_overlaps`` rather than failing the sweep.
    """
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be >= 1")
    if not alphas:
        raise ValueError("alphas must be non-empty")
    alphas = tuple(float(a) for a in alphas)
    seeder = np.random.default_rng(np.random.SeedSequence(seed))
    graph_seeds = seeder.integers(0, 2**63 - 1, size=ensemble_size)

    keys = [_baseline_key(m, w) for m, w in SWEEP_BASELINES]
    sums = {(d, b, a): 0.0 for d in dc_metrics for b in keys for a in alphas}
    overlaps: list[tuple[int, str, str, float, float]] = []

    for g in range(ensemble_size):
        graph = barabasi_albert(replace(params, seed=int(graph_seeds[g])))
        # every vector scores graph.nodes in order, so each is ranked once
        # and paired by position (what spearman does for equal labels)
        base_ranked = {
            _baseline_key(m, w): _ranked(baseline(graph, m, weighted=w).values) for m, w in SWEEP_BASELINES
        }
        for a in alphas:
            dc_vectors = all_distinctiveness(graph, alpha=a, metrics=dc_metrics)
            for d in dc_metrics:
                dc_ranked = _ranked(dc_vectors[d].values)
                for b in keys:
                    rho = _rho(dc_ranked, base_ranked[b])
                    sums[(d, b, a)] += rho
                    if abs(rho) >= 1.0 - 1e-12:
                        overlaps.append((g, d, b, a, rho))

    means = {k: v / ensemble_size for k, v in sums.items()}
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
