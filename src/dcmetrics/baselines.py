"""Classic centrality and ego-network baselines for undirected graphs.

These are the comparison metrics the distinctiveness family is evaluated
against: degree/strength, closeness, betweenness (Brandes), eigenvector
(power iteration), Burt's constraint, and effective size.

Weighted conventions: strength-based metrics (degree, eigenvector,
constraint, effective size) use the arc weights as connection strength;
path-based metrics (closeness, betweenness) interpret a weight as a
relationship strength and use arc length 1/weight for shortest paths when
``weighted=True``. Note that the published reference tables this package
reproduces computed their "weighted" closeness/betweenness columns on hop
counts (the weighted and unweighted columns there are numerically
identical), so table-reproduction tests compare those columns against the
unweighted mode.

The path-based metrics copy the CSR once into per-node Python lists of
neighbours and arc lengths, then run one search per source over them:
breadth-first when unweighted, Dijkstra with a binary heap when weighted.
Their visit order, their sigma/delta accumulation order and the weighted
tie rule (float path lengths compared with ``==``) are fixed, so results
are reproducible bit for bit; ``tests/naive.py`` keeps a CSR-indexing
version of each loop that they must match exactly.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from .distinctiveness import CentralityVector
from .errors import ConvergenceError, DisconnectedGraphError
from .graph import Graph, _entry_rows, is_connected, segment_sum

__all__ = [
    "BASELINES",
    "degree_centrality",
    "closeness_centrality",
    "betweenness_centrality",
    "eigenvector_centrality",
    "burt_constraint",
    "effective_size",
    "baseline",
    "all_baselines",
]

BASELINES = ("degree", "closeness", "betweenness", "eigenvector", "constraint", "effective-size")


def _require_undirected(graph: Graph, what: str) -> None:
    if graph.directed:
        raise ValueError(f"{what} is only defined here for undirected graphs")


def _vector(graph: Graph, metric: str, weighted: bool, values: np.ndarray) -> CentralityVector:
    name = f"weighted-{metric}" if weighted else metric
    return CentralityVector(
        metric=name,
        alpha=None,
        direction="undirected",
        labels=graph.nodes,
        values=values,
        isolates=graph.isolates(),
    )


def degree_centrality(graph: Graph, weighted: bool = False) -> CentralityVector:
    """Degree, or strength (sum of incident weights) when weighted."""
    _require_undirected(graph, "degree centrality")
    if weighted:
        values = segment_sum(graph.weights, graph.indptr)
    else:
        values = graph.out_degrees().astype(np.float64)
    return _vector(graph, "degree", weighted, values)


def _row_lists(graph: Graph, values: np.ndarray) -> list[list]:
    """Split a per-entry CSR array into per-node lists of plain Python
    ints or floats, in CSR order: the Python loops below index them many
    times per node, which numpy scalars make slow."""
    bounds = graph.indptr.tolist()
    flat = values.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _adjacency_lists(graph: Graph) -> tuple[list[list[int]], list[list[float]]]:
    """Per-node neighbour lists and, alongside, their arc lengths 1/weight."""
    return _row_lists(graph, graph.indices), _row_lists(graph, 1.0 / graph.weights)


def closeness_centrality(graph: Graph, weighted: bool = False) -> CentralityVector:
    """Normalized closeness (n-1)/sum(distances); weighted mode runs shortest
    paths over arc lengths 1/weight. Rejects disconnected graphs."""
    _require_undirected(graph, "closeness centrality")
    n = graph.n
    nbrs, lengths = _adjacency_lists(graph)
    values = np.empty(n)
    for s in range(n):
        dist = [math.inf] * n
        dist[s] = 0.0
        if weighted:
            heap = [(0.0, s)]
            while heap:
                d, i = heapq.heappop(heap)
                if d > dist[i]:
                    continue
                for j, length in zip(nbrs[i], lengths[i]):
                    nd = d + length
                    if nd < dist[j]:
                        dist[j] = nd
                        heapq.heappush(heap, (nd, j))
        else:
            queue = deque([s])
            while queue:
                i = queue.popleft()
                nd = dist[i] + 1.0
                for j in nbrs[i]:
                    if dist[j] == math.inf:
                        dist[j] = nd
                        queue.append(j)
        dist = np.array(dist)
        unreachable = np.nonzero(np.isinf(dist))[0]
        if unreachable.size:
            raise DisconnectedGraphError(
                f"closeness needs a connected graph: no path from "
                f"{graph.nodes[s]!r} to {graph.nodes[int(unreachable[0])]!r}"
            )
        values[s] = (n - 1) / float(dist.sum())
    return _vector(graph, "closeness", weighted, values)


def betweenness_centrality(graph: Graph, weighted: bool = False) -> CentralityVector:
    """Non-normalized shortest-path betweenness via pair-dependency
    accumulation; weighted mode uses arc lengths 1/weight."""
    _require_undirected(graph, "betweenness centrality")
    n = graph.n
    nbrs, lengths = _adjacency_lists(graph)
    score = [0.0] * n
    for s in range(n):
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = [0.0] * n
        sigma[s] = 1.0
        dist = [math.inf] * n
        dist[s] = 0.0
        order: list[int] = []
        if weighted:
            seen = [False] * n
            heap = [(0.0, s)]
            while heap:
                d, i = heapq.heappop(heap)
                if seen[i]:
                    continue
                seen[i] = True
                order.append(i)
                for j, length in zip(nbrs[i], lengths[i]):
                    nd = d + length
                    if nd < dist[j]:
                        dist[j] = nd
                        heapq.heappush(heap, (nd, j))
                        sigma[j] = sigma[i]
                        preds[j] = [i]
                    elif nd == dist[j] and not seen[j]:
                        sigma[j] += sigma[i]
                        preds[j].append(i)
        else:
            queue = deque([s])
            while queue:
                i = queue.popleft()
                order.append(i)
                nd = dist[i] + 1.0
                for j in nbrs[i]:
                    if dist[j] == math.inf:
                        dist[j] = nd
                        queue.append(j)
                    if dist[j] == nd:
                        sigma[j] += sigma[i]
                        preds[j].append(i)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                score[w] += delta[w]
    # each unordered pair was accumulated from both endpoints
    return _vector(graph, "betweenness", weighted, np.array(score) / 2.0)


def eigenvector_centrality(
    graph: Graph,
    weighted: bool = False,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> CentralityVector:
    """Dominant adjacency eigenvector, Euclidean-normalized, all-positive.

    Power iteration on A + I (same eigenvectors as A, shifted spectrum), which
    also converges on bipartite graphs where plain iteration on A oscillates.

    ``tol`` bounds the Euclidean norm of one power step, not the relative
    error of the result. At the default 1e-10 the smallest components can
    still be off by about 2e-9 relative; callers that compare results at
    1e-9 relative should pass ``tol=1e-13``.
    """
    _require_undirected(graph, "eigenvector centrality")
    n = graph.n
    if not is_connected(graph):
        raise DisconnectedGraphError("eigenvector centrality needs a connected graph")
    weights = graph.weights if weighted else np.ones_like(graph.weights)
    rows = _entry_rows(graph.indptr)  # segment_sum would rebuild these on every step
    x = np.full(n, 1.0 / np.sqrt(n))
    for iteration in range(1, max_iter + 1):
        y = np.bincount(rows, weights=weights * x[graph.indices], minlength=n) + x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            raise ConvergenceError("power iteration collapsed to the zero vector", iteration)
        y /= norm
        if float(np.linalg.norm(y - x)) < tol:
            return _vector(graph, "eigenvector", weighted, y)
        x = y
    raise ConvergenceError(f"power iteration did not reach tolerance {tol:g}", max_iter)


def _neighbor_weight_maps(graph: Graph) -> list[dict[int, float]]:
    rows = zip(_row_lists(graph, graph.indices), _row_lists(graph, graph.weights))
    return [dict(zip(nbrs, weights)) for nbrs, weights in rows]


def _proportions(row: dict[int, float], weighted: bool) -> dict[int, float]:
    if weighted:
        strength = sum(row.values())
        return {j: w / strength for j, w in row.items()}
    deg = len(row)
    return {j: 1.0 / deg for j in row}


def burt_constraint(graph: Graph, weighted: bool = False) -> CentralityVector:
    """Burt's constraint: sum over neighbors j of (p_ij + sum_q p_iq p_qj)^2,
    with p the proportional tie strength. Isolates score 0 and are flagged."""
    _require_undirected(graph, "constraint")
    nbr = _neighbor_weight_maps(graph)
    p = [_proportions(row, weighted) for row in nbr]
    values = np.zeros(graph.n)
    for i in range(graph.n):
        total = 0.0
        for j in p[i]:
            local = p[i][j]
            for q, p_iq in p[i].items():
                if q != j:
                    local += p_iq * p[q].get(j, 0.0)
            total += local * local
        values[i] = total
    return _vector(graph, "constraint", weighted, values)


def effective_size(graph: Graph, weighted: bool = False) -> CentralityVector:
    """Effective size of each ego network (degree minus redundancy).

    Unweighted graphs use the Borgatti simplification n_ego - 2t/n_ego with
    t the number of ties among the ego's alters; weighted graphs use the
    proportional-tie-strength redundancy form, where the alter-side weight
    is normalized by the alter's maximum tie strength.
    """
    _require_undirected(graph, "effective size")
    nbr = _neighbor_weight_maps(graph)
    values = np.zeros(graph.n)
    for i in range(graph.n):
        alters = nbr[i]
        if not alters:
            continue
        if not weighted:
            ties = 0
            for v in alters:
                for w in nbr[v]:
                    if w != i and w in alters:
                        ties += 1
            k = len(alters)
            values[i] = k - (ties / k)  # each tie counted from both ends
        else:
            p_i = _proportions(alters, True)
            total = 0.0
            for v in alters:
                m_max = max(nbr[v].values())
                redundancy = 0.0
                for q, p_iq in p_i.items():
                    w_vq = nbr[v].get(q)
                    if q == v or w_vq is None:
                        continue
                    redundancy += p_iq * (w_vq / m_max)
                total += 1.0 - redundancy
            values[i] = total
    return _vector(graph, "effective-size", weighted, values)


_DISPATCH = {
    "degree": degree_centrality,
    "closeness": closeness_centrality,
    "betweenness": betweenness_centrality,
    "eigenvector": eigenvector_centrality,
    "constraint": burt_constraint,
    "effective-size": effective_size,
}


def baseline(graph: Graph, metric: str, weighted: bool = False) -> CentralityVector:
    """Dispatch a baseline metric by identifier (see ``BASELINES``)."""
    try:
        fn = _DISPATCH[metric]
    except KeyError:
        raise ValueError(f"unknown baseline {metric!r}, expected one of {BASELINES}") from None
    return fn(graph, weighted)


def all_baselines(graph: Graph, weighted: bool = False) -> dict[str, CentralityVector]:
    return {name: baseline(graph, name, weighted) for name in BASELINES}
