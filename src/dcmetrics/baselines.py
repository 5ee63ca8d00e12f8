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
- the per-source dependencies are added into the scores in source order,
  one source at a time (``np.add.accumulate``).

``_hop_paths`` gives closeness from betweenness's search. It also scores k
stacked graphs of n nodes each (the sweep's block-diagonal chunk), with the
cells of a source at ``b * n + v % n`` and sources in blocks of whole
graphs, so that each graph keeps the bits it has alone. ``_power_stack``
stacks eigenvector's power loop, and takes the norms of all its rows with one
stacked ``matmul``.

Weighted, both run ``_dijkstra``: a binary heap per source over the CSR
arrays as flat Python lists, with a fixed visit order and tie rule (path
lengths compared with ``==``), so they too are reproducible bit for bit.

Constraint and effective size sum over triangles (one join, which the
sweep shares between them): per stored entry
e = (i, j) and common neighbour q, the entries f = (i, q) and x = (j, q).
``_triangles`` lists them with one join over the CSR, sorted by (e, f): the
order of a loop over the egos i, their alters j, then their alters q, which
``tests/naive.py`` keeps as the reference. The lookup keys and the (e, f)
keys are both distinct, and both are ordered by ``graph._stable_order``,
the packed value sort (``tests/naive.py`` keeps the argsort join). The sums
keep that loop's bits: ``np.bincount`` adds in array order from 0.0, a
constraint sum starts at p_ij as the loop's does, and a q not tied to j
adds 0.0 there or is skipped.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .distinctiveness import BASELINES, CentralityVector
from .errors import ConvergenceError, DisconnectedGraphError
from .graph import Graph, _entry_rows, _gather, _stable_order, is_connected, segment_sum

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

# Bounds the arrays of a block: a breadth-first block takes as many sources
# as keep sources x (nodes + arcs) within this many cells (its per-cell
# arrays and the arc lists it keeps per level), a triangle block as many
# entries as keep their row lookups within this many.
_BLOCK_CELLS = 1 << 20
# The same bounds for k > 1 stacked small graphs: a search block of whole
# graphs, and a triangle block, hold far less. Larger blocks no longer cut
# the per-call overhead, and only raise the peak memory.
_STACK_CELLS = 1 << 15
_STACK_LOOKUPS = 1 << 13


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


def _blocks(graph: Graph, k: int = 1) -> list[tuple[int, int]]:
    """The breadth-first sources of k stacked graphs (see ``_bfs``), cut
    into blocks lo..hi-1: of whole graphs when k > 1."""
    n = graph.n // k
    if k > 1:
        size = n * max(1, _STACK_CELLS // (n * (n + graph.indices.size // k)))
    else:
        size = max(1, _BLOCK_CELLS // (n + graph.indices.size))
    return [(lo, min(graph.n, lo + size)) for lo in range(0, graph.n, size)]


def _bfs(graph: Graph, lo: int, hi: int, n: int, paths: bool = False):
    """Breadth-first search from the sources lo..hi-1 at once, in a graph
    whose nodes fall into disjoint parts of n nodes each (k stacked graphs,
    part g on nodes g*n..(g+1)*n-1, or one graph with n = ``graph.n``).

    Cell ``b * n + v % n`` stands for node v as reached from source lo + b:
    an arc v -> t stays in its part, so it leads to the cell ``cell - v + t``.
    Returns the level of every cell (-1 where unreached) and, with
    ``paths``, per level a tuple: its cells, in the queue order of a
    one-source search; their path counts sigma; and the arcs back to the
    level above, as the positions of their tails in this level and of their
    heads in the level above. Arcs are listed in the queue order of their
    tails times CSR row order, and the arcs back in reverse: the stack-pop
    order of the one-source search.
    """
    level = np.full((hi - lo) * n, -1, dtype=np.int64)
    pos = np.full(level.size, np.iinfo(np.int64).max)  # above any arc index: see np.minimum.at
    nodes = np.arange(lo, hi)
    cells = np.arange(hi - lo) * n + nodes % n
    sigma = np.ones(cells.size)
    level[cells] = 0
    pos[cells] = np.arange(cells.size)
    levels = []
    for depth in range(1, level.size + 1):
        # each arc-long array is dropped once used, so that few are alive at once
        sizes, at = _gather(graph.indptr, nodes)
        targets = graph.indices[at]
        del at
        heads = np.repeat(cells - nodes, sizes)
        heads += targets
        before = level[heads]
        new = np.flatnonzero(before < 0)  # arcs to cells of the next level
        targets = targets[new]
        if paths:  # the sources have no level above
            tails = np.repeat(np.arange(nodes.size), sizes)
            back = np.flatnonzero(before == depth - 2)[::-1] if depth > 1 else new[:0]
            levels.append((cells, sigma, tails[back], pos[heads[back]]))
            tails = tails[new]
        del before
        reach = heads[new]
        del heads
        # the first arc to reach a cell is the one at the lowest index
        first = np.arange(new.size)
        np.minimum.at(pos, reach, first)
        firsts = pos[reach] == first
        cells, nodes = reach[firsts], targets[firsts]
        if not cells.size:
            break
        level[cells] = depth
        pos[cells] = np.arange(cells.size)
        if paths:
            sigma = np.bincount(pos[reach], weights=sigma[tails], minlength=cells.size)
    return level, levels


def _no_path(graph: Graph, s: int, t: int) -> DisconnectedGraphError:
    return DisconnectedGraphError(
        f"closeness needs a connected graph: no path from {graph.nodes[s]!r} to {graph.nodes[t]!r}"
    )


def _unreached(graph: Graph, level: np.ndarray, lo: int, n: int) -> DisconnectedGraphError | None:
    """The error for the first source of a ``_bfs`` block that misses a
    node of its part, and the first such node; None if every cell is reached."""
    unreached = np.flatnonzero(level < 0)
    if not unreached.size:
        return None
    b, t = divmod(int(unreached[0]), n)
    return _no_path(graph, lo + b, (lo + b) // n * n + t)


def _hop_distance_sums(graph: Graph) -> list[int]:
    """Sum of hop distances from each source to every node."""
    n = graph.n
    sums: list[int] = []
    for lo, hi in _blocks(graph):
        level = _bfs(graph, lo, hi, n)[0]
        error = _unreached(graph, level, lo, n)
        if error is not None:
            raise error
        sums += level.reshape(hi - lo, n).sum(axis=1).tolist()
    return sums


def _dijkstra(graph: Graph):
    """Dijkstra from each source in turn over arc lengths 1/weight: per
    source, the nodes in the order they are settled, and per node its
    distance, its shortest-path count and its predecessors on shortest
    paths. Ties are exact ``==`` on path lengths."""
    n = graph.n
    # plain Python ints and floats, which the loop indexes faster than numpy
    indptr, indices, lengths = graph.indptr.tolist(), graph.indices.tolist(), (1.0 / graph.weights).tolist()
    for s in range(n):
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
            for k in range(indptr[i], indptr[i + 1]):
                j = indices[k]
                nd = d + lengths[k]
                if nd < dist[j]:
                    dist[j] = nd
                    heapq.heappush(heap, (nd, j))
                    sigma[j] = sigma[i]
                    preds[j] = [i]
                elif nd == dist[j] and not seen[j]:
                    sigma[j] += sigma[i]
                    preds[j].append(i)
        yield order, dist, sigma, preds


def _dijkstra_distance_sums(graph: Graph) -> list[float]:
    """Sum of shortest-path lengths over arc lengths 1/weight from each source."""
    sums: list[float] = []
    for s, (_, dist, _, _) in enumerate(_dijkstra(graph)):
        if math.inf in dist:
            raise _no_path(graph, s, dist.index(math.inf))
        sums.append(float(np.array(dist).sum()))
    return sums


def closeness_centrality(graph: Graph, weighted: bool = False) -> CentralityVector:
    """Normalized closeness (n-1)/sum(distances); weighted mode runs shortest
    paths over arc lengths 1/weight. Rejects disconnected graphs. The one
    node of a one-node graph scores 0.0, as in networkx."""
    _require_undirected(graph, "closeness centrality")
    sums = _dijkstra_distance_sums(graph) if weighted else _hop_distance_sums(graph)
    return _vector(graph, "closeness", weighted, _closeness(graph.n, sums))


def _closeness(n: int, sums: list) -> np.ndarray:
    return np.array([(n - 1) / float(total) if total else 0.0 for total in sums])


def _dependencies(graph: Graph, lo: int, hi: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The level of every cell of a ``_bfs`` block, and its dependency."""
    level, levels = _bfs(graph, lo, hi, n, paths=True)
    # deepest level first; a cell's terms come from its successors,
    # summed in order of their queue position, last first
    delta_cells = np.zeros(level.size)
    delta = np.zeros(levels[-1][0].size)
    for depth in range(len(levels) - 1, 0, -1):
        cells, sigma, w, v = levels[depth]
        terms = levels[depth - 1][1][v] / sigma[w] * (1.0 + delta[w])
        delta_cells[cells] = delta
        delta = np.bincount(v, weights=terms, minlength=levels[depth - 1][0].size)
    return level, delta_cells


def _hop_betweenness(graph: Graph, k: int = 1):
    """Dependencies summed over all sources of k stacked graphs of n nodes,
    as a (k, n) stack; each source's hop-distance sum; and the error of the
    first source that misses a node of its graph, or None."""
    n = graph.n // k
    score, sums, missed = np.zeros((k, n)), [], None
    for lo, hi in _blocks(graph, k):
        level, delta_cells = _dependencies(graph, lo, hi, n)
        missed = missed or _unreached(graph, level, lo, n)
        sums += level.reshape(hi - lo, n).sum(axis=1).tolist()
        # a block is whole graphs, or sources of the one graph: each graph
        # adds its sources' rows to its score in source order, one at a time
        rows = delta_cells.reshape(-1, min(hi - lo, n), n)
        graphs = slice(lo // n, lo // n + len(rows))
        rows[:, 0] += score[graphs]
        score[graphs] = np.add.accumulate(rows, axis=1)[:, -1]
    return score, sums, missed


def _hop_paths(graph: Graph, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Unweighted betweenness and closeness of k stacked graphs of n nodes
    each (node v of graph g at g*n + v), as two (k, n) stacks, from one
    search; the first graph with a source that misses a node raises
    closeness's error for it."""
    score, sums, missed = _hop_betweenness(graph, k)
    if missed is not None:
        raise missed
    return score / 2.0, _closeness(graph.n // k, sums).reshape(k, -1)


def _dijkstra_betweenness(graph: Graph) -> np.ndarray:
    n = graph.n
    score = [0.0] * n
    for s, (order, _, sigma, preds) in enumerate(_dijkstra(graph)):
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
    score = _dijkstra_betweenness(graph) if weighted else _hop_betweenness(graph)[0][0]
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
    if not is_connected(graph):
        raise DisconnectedGraphError("eigenvector centrality needs a connected graph")
    weights = graph.weights if weighted else np.ones_like(graph.weights)
    return _vector(graph, "eigenvector", weighted, _power_stack(graph, 1, weights, tol, max_iter)[0])


def _power_stack(graph: Graph, k: int, weights: np.ndarray, tol: float = 1e-10, max_iter: int = 10000) -> np.ndarray:
    """The power loop of ``eigenvector_centrality`` on k disjoint graphs of n
    nodes each, graph g on nodes g*n..(g+1)*n-1 of ``graph``, as a (k, n)
    stack. Each row stops at its own step, and keeps its graph's bits: its
    norm is ``sqrt(row.dot(row))``, as ``np.linalg.norm`` of a vector, and
    a ``matmul`` of the (k, 1, n) rows with their (k, n, 1) transposes takes
    those k dots, bit for bit. Of the graphs that fail, the lowest-index one
    raises its own loop's error."""
    n = graph.n // k
    rows = _entry_rows(graph.indptr)  # segment_sum would rebuild these on every step
    x = np.full((k, 1, n), 1.0 / np.sqrt(n))
    result, pending, error = np.empty_like(x), list(range(k)), None  # pending: neither stopped nor failed
    with np.errstate(over="ignore", invalid="ignore"):  # y >= x > 0: an overflow makes a row's norm inf, the row nan
        for iteration in range(1, max_iter + 1):
            y = segment_sum(weights * x.ravel()[graph.indices], graph.indptr, rows).reshape(k, 1, n) + x
            norm = np.sqrt(np.matmul(y, y.transpose(0, 2, 1)))
            norms = norm.ravel().tolist()
            for g in [g for g in pending if norms[g] == math.inf][:1]:  # the graphs from g on no longer count
                largest = float(weights[graph.indptr[g * n] : graph.indptr[(g + 1) * n]].max())
                message = f"power iteration overflows float64 at the largest weight {largest!r}"
                error, pending = ConvergenceError(message, iteration), pending[: pending.index(g)]
            y /= norm
            d = y - x
            step = np.sqrt(np.matmul(d, d.transpose(0, 2, 1))).ravel().tolist()
            for g in [g for g in pending if step[g] < tol]:
                result[g] = y[g]
                pending.remove(g)
            if not pending:
                if error is not None:
                    raise error
                return result.reshape(k, n)
            x = y
    raise ConvergenceError(f"power iteration did not reach tolerance {tol:g}", max_iter)


def _triangles(graph: Graph, k: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stored entry e = (i, j) with every common neighbour q of i and
    j, as the entries e, f = (i, q) and x = (j, q), sorted by (e, f). Each
    entry walks the shorter of its two rows and looks the nodes up in the
    other through the sorted keys ``row * n + col``, in blocks of at most
    ``_BLOCK_CELLS`` lookups, or ``_STACK_LOOKUPS`` for k > 1 stacked
    graphs (or of one entry)."""
    n, indptr, indices = graph.n, graph.indptr, graph.indices
    bound = _STACK_LOOKUPS if k > 1 else _BLOCK_CELLS
    rows = _entry_rows(indptr)
    keys = rows * n + indices
    order, keys = _stable_order(keys, values=True)
    degree = np.diff(indptr)
    swap = degree[indices] < degree[rows]  # walk row j, look up in row i
    walk, other = np.where(swap, indices, rows), np.where(swap, rows, indices)
    starts = np.concatenate(([0], np.cumsum(degree[walk])))  # of each entry's walk, laid end to end
    parts, lo = [(np.zeros(0, dtype=np.int64),) * 3], 0
    while lo < indices.size:
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + bound, "right")) - 1)
        sizes, walked = _gather(indptr, walk[lo:hi])
        e = np.repeat(np.arange(lo, hi), sizes)
        look = other[e] * n + indices[walked]
        found = np.minimum(np.searchsorted(keys, look), keys.size - 1)
        hit = keys[found] == look
        e, walked, found = e[hit], walked[hit], order[found[hit]]
        f, x = np.where(swap[e], found, walked), np.where(swap[e], walked, found)
        by = _stable_order(e * indices.size + f)
        parts.append((e[by], f[by], x[by]))
        lo = hi
    return tuple(np.concatenate(part) for part in zip(*parts))


def _proportions(graph: Graph, weighted: bool, ends: np.ndarray) -> np.ndarray:
    """Each entry's weight over the strength of its node in ``ends``, or 1/degree."""
    if weighted:
        return graph.weights / segment_sum(graph.weights, graph.indptr)[ends]
    return 1.0 / np.diff(graph.indptr)[ends]


def burt_constraint(graph: Graph, weighted: bool = False) -> CentralityVector:
    """Burt's constraint: sum over neighbors j of (p_ij + sum_q p_iq p_qj)^2,
    with p the proportional tie strength. Isolates score 0 and are flagged."""
    _require_undirected(graph, "constraint")
    return _vector(graph, "constraint", weighted, _constraint(graph, weighted, _triangles(graph)))


def _constraint(graph: Graph, weighted: bool, triangles: tuple[np.ndarray, ...]) -> np.ndarray:
    e, f, x = triangles
    rows = _entry_rows(graph.indptr)
    p = _proportions(graph, weighted, rows)
    p_qj = _proportions(graph, weighted, graph.indices)[x]  # x = (j, q) as a share of q's ties
    # each entry's sum starts at p_ij, then adds its terms in (e, f) order
    local = np.bincount(np.concatenate((np.arange(p.size), e)), weights=np.concatenate((p, p[f] * p_qj)))
    return segment_sum(local * local, graph.indptr, rows)


def effective_size(graph: Graph, weighted: bool = False) -> CentralityVector:
    """Effective size of each ego network (degree minus redundancy).

    Unweighted graphs use the Borgatti simplification n_ego - 2t/n_ego with
    t the number of ties among the ego's alters; weighted graphs use the
    proportional-tie-strength redundancy form, where the alter-side weight
    is normalized by the alter's maximum tie strength.
    """
    _require_undirected(graph, "effective size")
    return _vector(graph, "effective-size", weighted, _effective_size(graph, weighted, _triangles(graph)))


def _effective_size(graph: Graph, weighted: bool, triangles: tuple[np.ndarray, ...]) -> np.ndarray:
    e, f, x = triangles
    indptr, weights = graph.indptr, graph.weights
    rows = _entry_rows(indptr)
    if weighted:
        row_max = np.zeros(graph.n)
        np.maximum.at(row_max, rows, weights)
        terms = _proportions(graph, True, rows)[f] * (weights[x] / row_max[rows[x]])
        return segment_sum(1.0 - np.bincount(e, weights=terms, minlength=weights.size), indptr, rows)
    degree = np.diff(indptr)
    ties = np.bincount(rows[e], minlength=graph.n)  # each tie counted from both ends
    return degree - ties / np.maximum(degree, 1)  # an isolate scores 0 - 0 / 1


_DISPATCH = dict(zip(BASELINES, (degree_centrality, closeness_centrality, betweenness_centrality,
                                 eigenvector_centrality, burt_constraint, effective_size), strict=True))


def baseline(graph: Graph, metric: str, weighted: bool = False) -> CentralityVector:
    """Dispatch a baseline metric by identifier (see ``BASELINES``)."""
    try:
        fn = _DISPATCH[metric]
    except KeyError:
        raise ValueError(f"unknown baseline {metric!r}, expected one of {BASELINES}") from None
    return fn(graph, weighted)


def all_baselines(graph: Graph, weighted: bool = False) -> dict[str, CentralityVector]:
    return {name: baseline(graph, name, weighted) for name in BASELINES}
