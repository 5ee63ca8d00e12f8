"""Ranking with tie rules, Spearman rank correlation, and the
correlation-vs-alpha ensemble sweep.

The sweep scores chunks of graphs laid out as one block-diagonal graph, as
many graphs as keep the chunk within ``_CHUNK_ENTRIES`` stored entries (all
40 of the gated n=50 ensemble). The per-node sums, eigenvector's power loop
and constraint's and effective size's one triangle join run once per chunk,
and the DC kernels once per chunk and alpha: d1 and d2 read the graphs'
common n, and d3 each entry's own graph total. Betweenness and closeness
share one search over the stack, run in blocks of whole graphs. The ranks
and rho matrices run per block of ``_RANK_GRAPHS`` graphs. So the stages
whose temporaries grow with the chunk stay within blocks of a few graphs,
and every score keeps the bits it has when its graph is scored alone."""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property

import numpy as np

# perfbench/tracer.py wraps stats.all_distinctiveness, stats.baseline,
# stats.barabasi_albert and stats.spearman by name: keep them
from .baselines import _constraint, _effective_size, _hop_paths, _power_stack, _triangles, baseline
from .distinctiveness import METRICS, TIE_RULES, CentralityVector, MetricSpec, _scores, all_distinctiveness
from .generators import GeneratorParams, barabasi_albert
from .graph import Graph, Record

__all__ = [
    "TIE_RULES",
    "SWEEP_BASELINES",
    "RankVector",
    "CorrelationSweep",
    "rank",
    "spearman",
    "correlation_sweep",
]

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

# stored entries per block-diagonal chunk of graphs (at least one graph):
# 42 graphs of n=50, m_attach=2 (192 entries each). Larger chunks cut the
# per-call overhead; the stages whose temporaries grow with the chunk run in
# blocks of their own (the path searches, the triangle join, the ranks)
_CHUNK_ENTRIES = 1 << 13
# graphs whose score stacks are ranked, and correlated, at once
_RANK_GRAPHS = 8


class RankVector(Record, eq=False):
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
    Stacks of such pairs, (..., m, n) against (..., k, n), give (..., m, k).

    Average ranks are multiples of 1/2, so all the sums are exact while
    n**3 < 2**53. Equal and reversed rows need no special case: the mean
    rank is exactly (n+1)/2, so their deviations are equal or negated bit
    for bit, cov = +-sxx = +-syy, and sqrt(fl(s*s)) == s in IEEE arithmetic.
    The covariance is summed one row of ``x`` at a time, so the products
    stay k x n (times the stack), with the same contiguous pairwise
    reduction for each pair.
    """
    if np.any(np.ptp(x, axis=-1) == 0.0) or np.any(np.ptp(y, axis=-1) == 0.0):
        raise ValueError("rank correlation is undefined for constant scores")
    dx = x - x.mean(axis=-1, keepdims=True)
    dy = y - y.mean(axis=-1, keepdims=True)
    cov = np.stack([np.sum(dx[..., i, None, :] * dy, axis=-1) for i in range(x.shape[-2])], axis=-2)
    denom = np.sqrt(np.sum(dx * dx, axis=-1)[..., :, None] * np.sum(dy * dy, axis=-1)[..., None, :])
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


class CorrelationSweep(Record):
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


def _block_diagonal(graphs: list[Graph]) -> Graph:
    """Graphs of n nodes as one, graph g's node v at g*n + v, rows in order: row sums keep their bits."""
    n, starts = graphs[0].n, np.cumsum([0] + [g.indices.size for g in graphs])
    indptr = np.concatenate([[0]] + [g.indptr[1:] + s for g, s in zip(graphs, starts)])
    indices = np.concatenate([g.indices + i * n for i, g in enumerate(graphs)])
    weights = np.concatenate([g.weights for g in graphs])
    nodes = tuple(label for g in graphs for label in g.nodes)
    return Graph(nodes, False, indptr, indices, weights, indptr, indices, weights)


def _score_chunk(params: GeneratorParams, seeds: np.ndarray, alphas: tuple[float, ...],
                 dc_metrics: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Generate a graph per seed and score them all as one block-diagonal
    graph: the (graphs, baselines, n) stack of ``SWEEP_BASELINES``, and the
    (graphs, alphas x DC metrics, n) stack of the DC scores. Every vector
    scores the nodes in order, so the sweep pairs them by position (what
    spearman does for equal labels)."""
    graphs = [barabasi_albert(replace(params, seed=int(s))) for s in seeds]
    k, n, chunk = len(graphs), params.n, _block_diagonal(graphs)
    # a disconnected graph fails here, before eigenvector needs it connected
    between, close = _hop_paths(chunk, k)
    triangles = _triangles(chunk, k)  # constraint's and effective size's
    stacked = {("betweenness", False): between, ("closeness", False): close,
               ("eigenvector", True): _power_stack(chunk, k, chunk.weights),
               ("constraint", True): _constraint(chunk, True, triangles),
               ("effective-size", True): _effective_size(chunk, True, triangles)}
    base = np.stack([(stacked[mw] if mw in stacked else baseline(chunk, *mw).values).reshape(k, n)
                     for mw in SWEEP_BASELINES], axis=1)
    del stacked, triangles  # before the DC kernels' peak
    # the DC kernels score the chunk at once: d1 and d2 read the graphs'
    # common n, d3 each entry's own graph total
    totals = np.repeat([g.total_weight() for g in graphs], [g.indices.size for g in graphs])
    scores = [_scores(chunk, a, "undirected", dc_metrics, n, totals) for a in alphas]
    dc = np.stack([s[d].reshape(k, n) for s in scores for d in dc_metrics], axis=1)
    if not np.isfinite(dc).all():  # raise the error of the first graph that fails, as scored alone
        for graph in graphs:
            for a in alphas:
                all_distinctiveness(graph, alpha=a, metrics=dc_metrics)
    return base, dc


def correlation_sweep(
    params: GeneratorParams,
    ensemble_size: int,
    alphas: tuple[float, ...],
    seed: int = 0,
    dc_metrics: tuple[str, ...] = METRICS,
) -> CorrelationSweep:
    """Generate ``ensemble_size`` graphs, score each with all DC metrics at
    each alpha and with every baseline, and average the pairwise Spearman
    correlations. Deterministic given the seed (per-graph seeds are drawn
    from one PCG64 stream; the ``seed`` field of ``params`` is ignored).

    Pairs whose |rho| reaches 1 within 1e-12 on an individual graph are
    recorded in ``perfect_overlaps`` rather than failing the sweep. Each
    alpha and each DC metric must appear once, and every pair of them is
    checked before any graph is generated.
    """
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be >= 1")
    if params.n < 3:
        raise ValueError(f"the sweep needs graphs of at least 3 nodes for rank correlation, got n={params.n}")
    if not alphas:
        raise ValueError("alphas must be non-empty")
    alphas = tuple(float(a) for a in alphas)
    for kind, values in (("alpha", alphas), ("DC metric", dc_metrics)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"{kind} {repeated[0]!r} is given more than once")
    for a in alphas:  # the checks all_distinctiveness makes, before any graph is generated
        for d in dc_metrics:
            MetricSpec(d, a)
    seeder = np.random.default_rng(np.random.SeedSequence(seed))
    graph_seeds = seeder.integers(0, 2**63 - 1, size=ensemble_size)

    # rho rows are (alpha, dc metric) pairs in loop order, columns baselines
    pairs = [(a, d) for a in alphas for d in dc_metrics]
    keys = [f"weighted-{m}" if w else m for m, w in SWEEP_BASELINES]
    sums = np.zeros((len(pairs), len(keys)))
    overlaps: list[tuple[int, str, str, float, float]] = []

    m, n = params.m_attach, params.n
    size = max(1, _CHUNK_ENTRIES // (2 * m * (n - m)))  # barabasi_albert makes m * (n - m) edges
    for lo in range(0, ensemble_size, size):
        base, dc = _score_chunk(params, graph_seeds[lo : lo + size], alphas, dc_metrics)
        for g0 in range(0, len(dc), _RANK_GRAPHS):
            part = slice(g0, g0 + _RANK_GRAPHS)
            dc_ranks = _ranked(dc[part].reshape(-1, n)).reshape(dc[part].shape)
            base_ranks = _ranked(base[part].reshape(-1, n)).reshape(base[part].shape)
            rho = _rho_matrix(dc_ranks, base_ranks)
            for r in rho:  # in graph order
                sums += r
            for g, i, j in np.argwhere(np.abs(rho) >= 1.0 - 1e-12).tolist():
                a, d = pairs[i]
                overlaps.append((lo + g0 + g, d, keys[j], a, float(rho[g, i, j])))

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
