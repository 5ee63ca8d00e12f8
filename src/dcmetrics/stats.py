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
    every row of ``y`` (k x n), as an m x k matrix.

    Perfect agreement and reversal are detected exactly on the ranks.
    Otherwise rho is Pearson on the ranks: average ranks are multiples of
    1/2, so the deviations, their squares and their products are exact
    multiples of 1/4 and all their sums are exact while n**3 < 2**53.
    """
    if np.any(np.ptp(x, axis=1) == 0.0) or np.any(np.ptp(y, axis=1) == 0.0):
        raise ValueError("rank correlation is undefined for constant scores")
    dx = x - x.mean(axis=1, keepdims=True)
    dy = y - y.mean(axis=1, keepdims=True)
    cov = np.sum(dx[:, None, :] * dy[None, :, :], axis=2)
    denom = np.sqrt(np.sum(dx * dx, axis=1)[:, None] * np.sum(dy * dy, axis=1)[None, :])
    rho = np.clip(cov / denom, -1.0, 1.0)
    rho[(x[:, None, :] == y[None, :, :]).all(axis=2)] = 1.0
    rho[(x[:, None, :] == x.shape[1] + 1.0 - y[None, :, :]).all(axis=2)] = -1.0
    return rho


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
    # rho rows are (alpha, dc metric) pairs in loop order, columns baselines;
    # a repeated alpha adds its rows into the same sums, in that order
    pairs = [(a, d) for a in alphas for d in dc_metrics]
    row = {pair: i for i, pair in reversed(list(enumerate(pairs)))}
    rows = [row[pair] for pair in pairs]
    sums = np.zeros((len(pairs), len(keys)))
    overlaps: list[tuple[int, str, str, float, float]] = []

    for g in range(ensemble_size):
        graph = barabasi_albert(replace(params, seed=int(graph_seeds[g])))
        # every vector scores graph.nodes in order, so vectors are paired
        # by position (what spearman does for equal labels)
        base = _ranked(np.stack([baseline(graph, m, weighted=w).values for m, w in SWEEP_BASELINES]))
        dc = []
        for a in alphas:
            vectors = all_distinctiveness(graph, alpha=a, metrics=dc_metrics)
            dc += [vectors[d].values for d in dc_metrics]
        rho = _rho_matrix(_ranked(np.stack(dc)), base)
        np.add.at(sums, rows, rho)
        for i, j in np.argwhere(np.abs(rho) >= 1.0 - 1e-12).tolist():
            a, d = pairs[i]
            overlaps.append((g, d, keys[j], a, float(rho[i, j])))

    means = {
        (d, b, a): float(sums[row[(a, d)], j]) / ensemble_size
        for d in dc_metrics for j, b in enumerate(keys) for a in alphas
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
