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

Unweighted, the path-based metrics run one level-synchronous breadth-first
search over a block of sources at once (Brandes 2001; Kepner & Gilbert
2011): each level is an array of (source, node) cells, expanded by CSR
gathers. The results equal, bit for bit, those of one queue-based search
per source, which ``tests/naive.py`` keeps as the reference:

- a level lists its cells in that loop's queue order: the expansion of the
  level before, in order, times each CSR row, in order, keeping the first
  occurrence of each newly reached cell;
- path counts ``sigma`` are integers, so their sums are exact in any order
  (below 2**53), and so are closeness's hop-distance sums;
- each level's dependencies ``delta`` are summed with ``np.bincount``, which
  adds in array order, over the arcs back to the level above taken last
  tail first: the loop's stack-pop order;
- the per-source dependencies are added into the scores in source order.

Weighted, both run one Dijkstra loop, ``_dijkstra``, with a binary heap per
source over per-node Python lists, with a fixed visit order and tie rule
(float path lengths compared with ``==``), so they too are reproducible bit
for bit.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .distinctiveness import CentralityVector
from .errors import ConvergenceError, DisconnectedGraphError
from .graph import Graph, _entry_rows, _gather, is_connected, segment_sum

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

# A breadth-first block takes as many sources as keep sources x (nodes +
# arcs) within this many cells: that bounds its per-cell arrays and the arc
# lists it keeps for every level.
_BLOCK_CELLS = 1 << 20


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


def _blocks(graph: Graph) -> list[tuple[int, int]]:
    """The breadth-first sources, cut into blocks lo..hi-1."""
    size = max(1, _BLOCK_CELLS // (graph.n + graph.indices.size))
    return [(lo, min(graph.n, lo + size)) for lo in range(0, graph.n, size)]


def _bfs(graph: Graph, lo: int, hi: int):
    """Breadth-first search from the sources lo..hi-1 at once.

    Cell ``b * n + v`` stands for node v as reached from source lo + b.
    Returns the level of every cell (-1 where unreached), the position of
    every reached cell within its level, and per level a tuple: its cells,
    in the queue order of a one-source search; then, for every arc out of
    them in that order times CSR row order, the position of the arc's tail
    in the level, its head cell, and the head's level before this level was
    expanded (-1 where the expansion reaches it first).
    """
    n = graph.n
    level = np.full((hi - lo) * n, -1, dtype=np.int64)
    pos = np.full(level.size, np.iinfo(np.int64).max)  # above any arc index: see np.minimum.at
    nodes = np.arange(lo, hi)
    cells = np.arange(hi - lo) * n + nodes
    level[cells] = 0
    pos[cells] = np.arange(cells.size)
    levels = []
    while cells.size:
        sizes, targets = _gather(graph.indptr, graph.indices, nodes)
        tails = np.repeat(np.arange(nodes.size), sizes)
        heads = np.repeat(cells - nodes, sizes)
        heads += targets
        before = level[heads]
        levels.append((cells, tails, heads, before))
        # the first arc to reach a cell is the one at the lowest index
        new = np.flatnonzero(before < 0)
        first = np.arange(new.size)
        np.minimum.at(pos, heads[new], first)
        new = new[pos[heads[new]] == first]
        cells, nodes = heads[new], targets[new]
        level[cells] = len(levels)
        pos[cells] = np.arange(cells.size)
    return level, pos, levels


def _no_path(graph: Graph, s: int, t: int) -> DisconnectedGraphError:
    return DisconnectedGraphError(
        f"closeness needs a connected graph: no path from {graph.nodes[s]!r} to {graph.nodes[t]!r}"
    )


def _hop_distance_sums(graph: Graph) -> list[int]:
    """Sum of hop distances from each source to every node."""
    n = graph.n
    sums: list[int] = []
    for lo, hi in _blocks(graph):
        level = _bfs(graph, lo, hi)[0]
        unreached = np.flatnonzero(level < 0)
        if unreached.size:
            b, t = divmod(int(unreached[0]), n)
            raise _no_path(graph, lo + b, t)
        sums += level.reshape(hi - lo, n).sum(axis=1).tolist()
    return sums


def _dijkstra(nbrs: list[list[int]], lengths: list[list[float]], s: int):
    """Dijkstra from source s over arc lengths: the nodes in the order they
    are settled, and per node its distance, its shortest-path count and its
    predecessors on shortest paths. Ties are exact ``==`` on path lengths."""
    n = len(nbrs)
    preds: list[list[int]] = [[] for _ in range(n)]
    sigma = [0.0] * n
    sigma[s] = 1.0
    dist = [math.inf] * n
    dist[s] = 0.0
    order: list[int] = []
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
    return order, dist, sigma, preds


def _dijkstra_distance_sums(graph: Graph) -> list[float]:
    """Sum of shortest-path lengths over arc lengths 1/weight from each source."""
    nbrs, lengths = _adjacency_lists(graph)
    sums: list[float] = []
    for s in range(graph.n):
        dist = np.array(_dijkstra(nbrs, lengths, s)[1])
        unreachable = np.nonzero(np.isinf(dist))[0]
        if unreachable.size:
            raise _no_path(graph, s, int(unreachable[0]))
        sums.append(float(dist.sum()))
    return sums


def closeness_centrality(graph: Graph, weighted: bool = False) -> CentralityVector:
    """Normalized closeness (n-1)/sum(distances); weighted mode runs shortest
    paths over arc lengths 1/weight. Rejects disconnected graphs. The one
    node of a one-node graph scores 0.0, as in networkx."""
    _require_undirected(graph, "closeness centrality")
    sums = _dijkstra_distance_sums(graph) if weighted else _hop_distance_sums(graph)
    values = np.array([(graph.n - 1) / float(total) if total else 0.0 for total in sums])
    return _vector(graph, "closeness", weighted, values)


def _hop_betweenness(graph: Graph) -> np.ndarray:
    n = graph.n
    score = np.zeros(n)
    for lo, hi in _blocks(graph):
        level, pos, levels = _bfs(graph, lo, hi)
        sigma = [np.ones(hi - lo)]
        for (_, tails, heads, before), (cells, *_) in zip(levels, levels[1:]):
            new = before < 0
            sigma.append(np.bincount(pos[heads[new]], weights=sigma[-1][tails[new]], minlength=cells.size))
        # deepest level first; a cell's terms come from its successors,
        # summed in order of their queue position, last first
        delta_cells = np.zeros(level.size)
        delta = np.zeros(levels[-1][0].size)
        for depth in range(len(levels) - 1, 0, -1):
            cells, tails, heads, before = levels[depth]
            back = np.flatnonzero(before == depth - 1)[::-1]
            w, v = tails[back], pos[heads[back]]
            terms = sigma[depth - 1][v] / sigma[depth][w] * (1.0 + delta[w])
            delta_cells[cells] = delta
            delta = np.bincount(v, weights=terms, minlength=levels[depth - 1][0].size)
        for row in delta_cells.reshape(hi - lo, n):  # in source order
            score += row
    return score


def _dijkstra_betweenness(graph: Graph) -> np.ndarray:
    n = graph.n
    nbrs, lengths = _adjacency_lists(graph)
    score = [0.0] * n
    for s in range(n):
        order, _, sigma, preds = _dijkstra(nbrs, lengths, s)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                score[w] += delta[w]
    return np.array(score)


def betweenness_centrality(graph: Graph, weighted: bool = False) -> CentralityVector:
    """Non-normalized shortest-path betweenness via pair-dependency
    accumulation; weighted mode uses arc lengths 1/weight."""
    _require_undirected(graph, "betweenness centrality")
    score = _dijkstra_betweenness(graph) if weighted else _hop_betweenness(graph)
    # each unordered pair was accumulated from both endpoints
    return _vector(graph, "betweenness", weighted, score / 2.0)


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
