"""Naive direct-from-definition evaluators used as oracles.

Most of these work on plain dicts, independently of the package's
CSR/numpy kernels: same formulas, different code path. The ``naive_*``
functions marked as bitwise references keep an earlier, plainer
implementation of a package function, whose outputs the package must still
match bit for bit. The exact scores of d1..d5 are in ``exact.py``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

import dcmetrics
from dcmetrics import (
    METRICS,
    ConvergenceError,
    DisconnectedGraphError,
    GraphBuildError,
    all_distinctiveness,
    barabasi_albert,
    baseline,
    spearman,
)
from dcmetrics import io
from dcmetrics.distinctiveness import DIRECTIONS, _adjacency_view, _resolve_direction
from dcmetrics.baselines import _BLOCK_CELLS
from dcmetrics.graph import _entry_rows, _gather, graph_from_arrays, segment_sum


def naive_build_graph(edges, directed=False, nodes=()):
    """Reference graph build: edge by edge into per-node insertion-ordered
    dicts, parallel weights merged with ``+=``, then copied into CSR. The
    array build in dcmetrics.graph must match it bit for bit, errors included."""
    labels: list[str] = []
    index: dict[str, int] = {}

    def node_id(label):
        if not isinstance(label, str) or not label:
            raise GraphBuildError(f"node labels must be non-empty strings, got {label!r}")
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for label in nodes:
        node_id(label)
    out_adj: dict[int, dict[int, float]] = {}
    in_adj: dict[int, dict[int, float]] = {}
    merged = self_loops = 0
    empty = True
    for edge in edges:
        empty = False
        try:
            src, dst, w = edge
        except (TypeError, ValueError):
            raise GraphBuildError(f"edges must be (source, target, weight) triples, got {edge!r}")
        w = float(w)
        if not np.isfinite(w):
            raise GraphBuildError(f"edge {src!r} -> {dst!r} has non-finite weight {w!r}")
        if w <= 0.0:
            raise GraphBuildError(f"edge {src!r} -> {dst!r} has non-positive weight {w!r}")
        i, j = node_id(src), node_id(dst)
        if i == j:
            self_loops += 1
            continue
        arcs = [(out_adj, i, j), (in_adj, j, i)] if directed else [(out_adj, i, j), (out_adj, j, i)]
        if j in out_adj.get(i, {}):
            merged += 1
        for adj, a, b in arcs:
            row = adj.setdefault(a, {})
            row[b] = row.get(b, 0.0) + w
    if empty:
        raise GraphBuildError("empty edge list: a graph needs at least one edge")

    def to_csr(adj):
        rows = [adj.get(i, {}) for i in range(len(labels))]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        indices = np.array([j for row in rows for j in row], dtype=np.int64)
        weights = np.array([w for row in rows for w in row.values()], dtype=np.float64)
        return indptr, indices, weights

    out = to_csr(out_adj)
    # an undirected graph's in-adjacency is its out-adjacency
    return dcmetrics.Graph(tuple(labels), directed, *out, *(to_csr(in_adj) if directed else out),
                           build_report=dcmetrics.BuildReport(merged_edges=merged, self_loops_dropped=self_loops))


def naive_edges(graph):
    """Logical edges by walking the rows and skipping each undirected edge's
    second copy."""
    seen = set()
    for i in range(graph.n):
        for k in range(graph.indptr[i], graph.indptr[i + 1]):
            j = int(graph.indices[k])
            if not graph.directed:
                if (j, i) in seen:
                    continue
                seen.add((i, j))
            yield graph.nodes[i], graph.nodes[j], float(graph.weights[k])


def naive_csr_rows(rows, cols, merged, first, n):
    """Bitwise reference for ``graph._csr_rows``, as it was before the
    packed value sort: one quicksort argsort of the int64 keys
    row * bound + position, then the same gathers."""
    bound = int(first.max(initial=0)) + 1
    keys = np.empty((len(rows), first.size), dtype=np.int64)
    for part, row in zip(keys, rows):
        np.multiply(row, bound, out=part, dtype=np.int64)
        part += first
    order = np.argsort(keys, axis=None)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sum(np.bincount(row, minlength=n) for row in rows), out=indptr[1:])
    indices = np.concatenate(cols)[order].astype(np.int64, copy=False)
    order %= max(first.size, 1)
    return indptr, indices, merged[order]


def naive_is_connected(graph):
    """Weak connectivity by depth-first search over out- and in-arcs."""
    if graph.n <= 1:
        return True
    neighbors = {i: set() for i in range(graph.n)}
    for i in range(graph.n):
        for k in range(graph.indptr[i], graph.indptr[i + 1]):
            j = int(graph.indices[k])
            neighbors[i].add(j)
            neighbors[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for j in neighbors[stack.pop()] - seen:
            seen.add(j)
            stack.append(j)
    return len(seen) == graph.n


def _undirected_weights(nodes, edges):
    """Each node's neighbours and edge weights, from a built undirected graph's edges."""
    out = {u: {} for u in nodes}
    for u, v, w in edges:
        out[u][v] = out[v][u] = w
    return out


def naive_degree_distinctiveness(graph, alpha, direction=None, relaxed_alpha=False, metrics=("d1", "d2", "d5")):
    """Bitwise reference for d1, d2 and d5 in ``all_distinctiveness``, errors
    included: the neighbor degree power taken per stored entry, once for
    d1/d2 and again for d5, with the difference of logs (d1, d2) and the
    negative power (d5) patched into the entries where it overflows."""
    direction = _resolve_direction(graph, direction)
    for m in metrics:
        dcmetrics.MetricSpec(m, alpha, direction, relaxed_alpha)
    alpha = float(alpha)
    indptr, indices, weights, nbr_degree, _, _ = _adjacency_view(graph, direction)
    n = graph.n
    if n < 2:
        raise ValueError("distinctiveness needs at least 2 nodes")
    deg_f = nbr_degree.astype(np.float64)

    def degree_powers():
        per_edge = deg_f[indices]
        with np.errstate(over="ignore"):
            np.power(per_edge, alpha, out=per_edge)
        return per_edge, np.flatnonzero(np.isinf(per_edge))

    def vector(metric, values):
        values = segment_sum(values, indptr)
        if not np.isfinite(values).all():
            node = graph.nodes[np.flatnonzero(~np.isfinite(values))[0]]
            raise ValueError(f"{metric} of node {node!r} overflows float64 at alpha={alpha:g} ({direction})")
        return dcmetrics.CentralityVector(metric, alpha, direction, graph.nodes, values, graph.isolates())

    out = {}
    if "d1" in metrics or "d2" in metrics:
        per_edge, over = degree_powers()
        per_edge[over] = n - 1
        np.divide(n - 1, per_edge, out=per_edge)
        np.log10(per_edge, out=per_edge)
        per_edge[over] = math.log10(n - 1) - alpha * np.log10(deg_f[indices[over]])
        if "d1" in metrics:
            with np.errstate(over="ignore"):  # an overflowing product is the named error below
                product = weights * per_edge
            out["d1"] = vector("d1", product)
        if "d2" in metrics:
            out["d2"] = vector("d2", per_edge)
    if "d5" in metrics:
        per_edge, over = degree_powers()
        np.divide(1.0, per_edge, out=per_edge)
        per_edge[over] = deg_f[indices[over]] ** -alpha
        out["d5"] = vector("d5", per_edge)
    return {m: out[m] for m in metrics}


def naive_betweenness(nodes, edges, weighted=False):
    """Non-normalized betweenness by enumerating every simple path of every
    pair and keeping the shortest ones. Exponential; keep n small."""
    nodes = list(nodes)
    out = _undirected_weights(nodes, edges)
    length = {u: {v: (1.0 / w if weighted else 1.0) for v, w in out[u].items()} for u in nodes}
    score = {u: 0.0 for u in nodes}
    for s, t in itertools.combinations(nodes, 2):
        best = None
        shortest = []

        def walk(node, dist, path):
            nonlocal best, shortest
            if node == t:
                if best is None or dist < best - 1e-12:
                    best, shortest = dist, [list(path)]
                elif abs(dist - best) <= 1e-12:
                    shortest.append(list(path))
                return
            for nxt, d in length[node].items():
                if nxt not in path:
                    path.append(nxt)
                    walk(nxt, dist + d, path)
                    path.pop()

        walk(s, 0.0, [s])
        if not shortest:
            continue
        for path in shortest:
            for interior in path[1:-1]:
                score[interior] += 1.0 / len(shortest)
    return score


def naive_closeness(nodes, edges, weighted=False):
    """Closeness via Floyd-Warshall distances."""
    nodes = list(nodes)
    out = _undirected_weights(nodes, edges)
    dist = {u: {v: math.inf for v in nodes} for u in nodes}
    for u in nodes:
        dist[u][u] = 0.0
        for v, w in out[u].items():
            dist[u][v] = 1.0 / w if weighted else 1.0
    for k in nodes:
        for i in nodes:
            dik = dist[i][k]
            if math.isinf(dik):
                continue
            for j in nodes:
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    n = len(nodes)
    return {u: (n - 1) / sum(dist[u][v] for v in nodes if v != u) for u in nodes}


def naive_spearman(xs, ys):
    """Rank correlation from first principles: average ranks, then the
    Pearson formula written out."""

    def avg_ranks(values):
        order = sorted(range(len(values)), key=lambda i: -values[i])
        ranks = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j < len(order) and values[order[j]] == values[order[i]]:
                j += 1
            r = (i + 1 + j) / 2.0
            for k in range(i, j):
                ranks[order[k]] = r
            i = j
        return ranks

    rx, ry = avg_ranks(list(xs)), avg_ranks(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    vy = math.sqrt(sum((b - my) ** 2 for b in ry))
    return cov / (vx * vy)


def naive_rank_array(values, tie_rule):
    """Bitwise reference for ``stats._rank_array``: walk the descending
    stable order and extend each run while values equal its first value."""
    n = values.size
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    pos = 0
    while pos < n:
        end = pos
        v = values[order[pos]]
        while end < n and values[order[end]] == v:
            end += 1
        if tie_rule == "competition":
            ranks[order[pos:end]] = pos + 1
        else:
            ranks[order[pos:end]] = (pos + end + 1) / 2.0
        pos = end
    return ranks.astype(np.int64) if tie_rule == "competition" else ranks


def naive_pairwise_spearman(x, y):
    """Bitwise reference for the sweep's Spearman: both vectors ranked again
    for every pair, then exact-match steps for equal and reversed ranks (which
    the package leaves to the Pearson formula) and the Pearson steps."""
    rx = naive_rank_array(x, "average")
    ry = naive_rank_array(y, "average")
    if np.ptp(rx) == 0.0 or np.ptp(ry) == 0.0:
        raise ValueError("rank correlation is undefined for constant scores")
    if np.array_equal(rx, ry):
        return 1.0
    if np.array_equal(rx, rx.size + 1.0 - ry):
        return -1.0
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    cov = float(np.sum(dx * dy))
    denom = float(np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))
    return max(-1.0, min(1.0, cov / denom))


def naive_barabasi_albert(params):
    """Bitwise reference for ``generators.barabasi_albert``: the urn kept as
    its own list, two entries per edge, each step's draws checked against a
    set. The package reads the same slots from its edge list."""
    n, m = params.n, params.m_attach
    topo_ss, weight_ss = np.random.SeedSequence(params.seed).spawn(2)
    topo = np.random.default_rng(topo_ss)
    wrng = np.random.default_rng(weight_ss)

    # node m + k attaches to dst[k*m : (k+1)*m]
    dst: list[int] = []
    urn: list[int] = []
    targets = list(range(m))
    source = m
    while True:
        dst.extend(targets)
        urn.extend(targets)
        urn.extend([source] * m)
        source += 1
        if source >= n:
            break
        chosen: list[int] = []
        seen: set[int] = set()
        while len(chosen) < m:
            candidate = urn[int(topo.integers(0, len(urn)))]
            if candidate not in seen:
                seen.add(candidate)
                chosen.append(candidate)
        targets = chosen

    weights = wrng.integers(params.weight_low, params.weight_high + 1, size=len(dst))
    src = np.repeat(np.arange(m, n), m)
    labels = tuple(map(str, range(n)))
    return graph_from_arrays(labels, src, dst, weights, directed=False)


def naive_correlation_sweep(params, ensemble_size, alphas, seed=0, dc_metrics=METRICS):
    """Bitwise reference for ``stats.correlation_sweep``: its per-pair loop,
    with ``naive_pairwise_spearman`` for every (graph, alpha, metric,
    baseline) and the path baselines from the one-source loops below.
    Returns the sweep's ``means`` and ``perfect_overlaps``."""
    suite = (("degree", False), ("degree", True), ("betweenness", False), ("closeness", False),
             ("eigenvector", True), ("constraint", True), ("effective-size", True))
    path_loops = {"betweenness": naive_brandes_betweenness, "closeness": naive_dijkstra_closeness}
    alphas = tuple(float(a) for a in alphas)
    seeder = np.random.default_rng(np.random.SeedSequence(seed))
    graph_seeds = seeder.integers(0, 2**63 - 1, size=ensemble_size)
    keys = [f"weighted-{m}" if w else m for m, w in suite]
    sums = {(d, b, a): 0.0 for d in dc_metrics for b in keys for a in alphas}
    overlaps = []
    for g in range(ensemble_size):
        graph = barabasi_albert(replace(params, seed=int(graph_seeds[g])))
        base = {
            key: path_loops[m](graph, w) if m in path_loops else baseline(graph, m, weighted=w).values
            for key, (m, w) in zip(keys, suite)
        }
        for a in alphas:
            dc_vectors = all_distinctiveness(graph, alpha=a, metrics=dc_metrics)
            for d in dc_metrics:
                for b in keys:
                    rho = naive_pairwise_spearman(dc_vectors[d].values, base[b])
                    sums[(d, b, a)] += rho
                    if abs(rho) >= 1.0 - 1e-12:
                        overlaps.append((g, d, b, a, rho))
    return {k: v / ensemble_size for k, v in sums.items()}, tuple(overlaps)


def _csr_lengths(graph, weighted):
    return 1.0 / graph.weights if weighted else np.ones_like(graph.weights)


def naive_dijkstra_closeness(graph, weighted=False):
    """Bitwise reference for ``closeness_centrality``: one Dijkstra per
    source, indexing the CSR arrays directly, in both modes."""
    n = graph.n
    lengths = _csr_lengths(graph, weighted)
    values = np.empty(n)
    for s in range(n):
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, i = heapq.heappop(heap)
            if d > dist[i]:
                continue
            for k in range(graph.indptr[i], graph.indptr[i + 1]):
                j = int(graph.indices[k])
                nd = d + lengths[k]
                if nd < dist[j]:
                    dist[j] = nd
                    heapq.heappush(heap, (nd, j))
        unreachable = np.nonzero(np.isinf(dist))[0]
        if unreachable.size:
            raise DisconnectedGraphError(
                f"closeness needs a connected graph: no path from "
                f"{graph.nodes[s]!r} to {graph.nodes[int(unreachable[0])]!r}"
            )
        values[s] = (n - 1) / float(dist.sum()) if n > 1 else 0.0
    return values


def naive_brandes_betweenness(graph, weighted=False):
    """Bitwise reference for ``betweenness_centrality``: Brandes
    accumulation indexing the CSR arrays directly (BFS when unweighted,
    Dijkstra with an exact ``==`` tie rule when weighted)."""
    n = graph.n
    indptr, indices = graph.indptr, graph.indices
    lengths = _csr_lengths(graph, weighted)
    score = np.zeros(n)
    for s in range(n):
        preds = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        order = []
        if weighted:
            seen = np.zeros(n, dtype=bool)
            heap = [(0.0, s)]
            while heap:
                d, i = heapq.heappop(heap)
                if seen[i]:
                    continue
                seen[i] = True
                order.append(i)
                for k in range(indptr[i], indptr[i + 1]):
                    j = int(indices[k])
                    nd = d + lengths[k]
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
                for k in range(indptr[i], indptr[i + 1]):
                    j = int(indices[k])
                    if np.isinf(dist[j]):
                        dist[j] = dist[i] + 1
                        queue.append(j)
                    if dist[j] == dist[i] + 1:
                        sigma[j] += sigma[i]
                        preds[j].append(i)
        delta = np.zeros(n)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                score[w] += delta[w]
    return score / 2.0


def naive_power_eigenvector(graph, weighted=False, tol=1e-10, max_iter=10000):
    """Bitwise reference for ``eigenvector_centrality``: the power loop
    calling ``segment_sum`` on every step."""
    n = graph.n
    weights = graph.weights if weighted else np.ones_like(graph.weights)
    x = np.full(n, 1.0 / np.sqrt(n))
    for iteration in range(1, max_iter + 1):
        y = segment_sum(weights * x[graph.indices], graph.indptr) + x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            raise ConvergenceError("power iteration collapsed to the zero vector", iteration)
        y /= norm
        if float(np.linalg.norm(y - x)) < tol:
            return y
        x = y
    raise ConvergenceError(f"power iteration did not reach tolerance {tol:g}", max_iter)


def naive_neighbor_weight_maps(graph):
    """One dict per node, built by indexing the CSR arrays entry by entry:
    neighbour -> weight, in CSR order."""
    maps = []
    for i in range(graph.n):
        lo, hi = graph.indptr[i], graph.indptr[i + 1]
        maps.append({int(graph.indices[k]): float(graph.weights[k]) for k in range(lo, hi)})
    return maps


def _naive_proportions(row, weighted):
    if weighted:
        strength = sum(row.values())
        return {j: w / strength for j, w in row.items()}
    deg = len(row)
    return {j: 1.0 / deg for j in row}


def naive_burt_constraint(graph, weighted=False):
    """Bitwise reference for ``burt_constraint``: per ego, a loop over its
    alters j and, for each, over its alters q, on per-node dicts."""
    nbr = naive_neighbor_weight_maps(graph)
    p = [_naive_proportions(row, weighted) for row in nbr]
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
    return values


def naive_triangles(graph):
    """Bitwise reference for ``baselines._triangles``, as it was before the
    packed value sort: the sorted keys and each block's (e, f) order from
    quicksort argsorts (the keys are distinct, so any sort gives the same)."""
    n, indptr, indices = graph.n, graph.indptr, graph.indices
    rows = _entry_rows(indptr)
    keys = rows * n + indices
    order = np.argsort(keys)
    keys = keys[order]
    degree = np.diff(indptr)
    swap = degree[indices] < degree[rows]
    walk, other = np.where(swap, indices, rows), np.where(swap, rows, indices)
    starts = np.concatenate(([0], np.cumsum(degree[walk])))
    parts, lo = [(np.zeros(0, dtype=np.int64),) * 3], 0
    while lo < indices.size:
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + _BLOCK_CELLS, "right")) - 1)
        sizes, walked = _gather(indptr, walk[lo:hi])
        e = np.repeat(np.arange(lo, hi), sizes)
        look = other[e] * n + indices[walked]
        found = np.minimum(np.searchsorted(keys, look), keys.size - 1)
        hit = keys[found] == look
        e, walked, found = e[hit], walked[hit], order[found[hit]]
        f, x = np.where(swap[e], found, walked), np.where(swap[e], walked, found)
        by = np.argsort(e * indices.size + f)
        parts.append((e[by], f[by], x[by]))
        lo = hi
    return tuple(np.concatenate(part) for part in zip(*parts))


def naive_effective_size(graph, weighted=False):
    """Bitwise reference for ``effective_size``: per ego, a loop over its
    alters v and over v's ties (unweighted) or the ego's alters (weighted),
    on per-node dicts."""
    nbr = naive_neighbor_weight_maps(graph)
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
            p_i = _naive_proportions(alters, True)
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
    return values


def naive_to_csv(table):
    """Byte reference for ``ResultTable.to_csv``: one f-string per cell."""
    header = "node," + ",".join(name for name, _ in table.columns)
    lines = [header]
    for i, lab in enumerate(table.labels):
        cells = ",".join(f"{vals[i]:.6g}" for _, vals in table.columns)
        lines.append(f"{lab},{cells}")
    return "\n".join(lines) + "\n"


def naive_csv_blocks(table):
    """Byte reference for ``ResultTable.csv_blocks``, block for block: its
    earlier loop, which formats each row of a block through one
    %-template from ``tolist()`` slices of the columns."""
    names = [name for name, _ in table.columns]
    values = [np.asarray(vals, dtype=np.float64) for _, vals in table.columns]
    template = "%s," + ",".join(["%.6g"] * len(names))
    yield "node," + ",".join(names) + "\n"
    for lo in range(0, len(table.labels), io._BLOCK_ROWS):
        part = slice(lo, lo + io._BLOCK_ROWS)
        rows = zip(table.labels[part], *(v[part].tolist() for v in values))
        yield "\n".join(map(template.__mod__, rows)) + "\n"


def naive_write_edge_list(graph):
    """Byte reference for ``write_edge_list`` on writable labels: a walk
    over ``edges()`` that records each node's first appearance, and one
    f-string per edge."""
    edges = list(graph.edges())
    appearance = []
    seen = set()
    for u, v, _ in edges:
        for lab in (u, v):
            if lab not in seen:
                seen.add(lab)
                appearance.append(lab)
    lines = ["directed" if graph.directed else "undirected"]
    if tuple(appearance) != graph.nodes:
        lines.extend(graph.nodes)
    for u, v, w in edges:
        lines.append(f"{u}\t{v}\t{w!r}")
    return "\n".join(lines) + "\n"


def naive_rank_csv(ranking, values):
    """Byte reference for the ``rank`` command's output: a Python sort by
    (rank, node index) and one f-string per row over numpy scalars."""
    order = sorted(range(len(ranking.labels)), key=lambda i: (ranking.ranks[i], i))
    lines = ["rank,node,score"]
    for i in order:
        r = ranking.ranks[i]
        r_txt = str(int(r)) if ranking.tie_rule == "competition" else f"{float(r):.17g}"
        lines.append(f"{r_txt},{ranking.labels[i]},{values[i]:.6g}")
    return "\n".join(lines) + "\n"


def naive_compare_csv(graph, dc_names, base_names, alpha, directions, weighted):
    """Byte reference for the one-graph ``compare`` command's output: its
    earlier per-pair loop, scoring each direction and baseline in turn and
    calling ``spearman`` on every ordered pair, which ranks both vectors
    again each time."""
    vectors, names = [], []
    for d in directions:
        computed = all_distinctiveness(graph, alpha=alpha, direction=d, metrics=tuple(dc_names)) if dc_names else {}
        for name in dc_names:
            vectors.append(computed[name])
            names.append(name if d == "undirected" else f"{name}-{d}")
    for name in base_names:
        vectors.append(baseline(graph, name, weighted=weighted))
        names.append(vectors[-1].metric)
    lines = ["metric," + ",".join(names)]
    for i, vx in enumerate(vectors):
        lines.append(names[i] + "," + ",".join(f"{spearman(vx, vy):.6g}" for vy in vectors))
    return "\n".join(lines) + "\n"


# The package's records as frozen dataclasses, the definitions ``graph.Record``
# replaced: fields, defaults, ``__post_init__`` checks and cached properties.
# Their other methods are unchanged in the package. Each has the package
# class's name, so that reprs and error messages compare equal.


@dataclass(frozen=True)
class BuildReport:
    merged_edges: int = 0
    self_loops_dropped: int = 0


@dataclass(frozen=True, eq=False)
class Graph:
    nodes: tuple[str, ...]
    directed: bool
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    in_weights: np.ndarray
    build_report: BuildReport = field(default_factory=BuildReport)

    @cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self.nodes, range(len(self.nodes))))


@dataclass(frozen=True, eq=False)
class DegreeProfile:
    labels: tuple[str, ...]
    directed: bool
    out_degree: np.ndarray
    in_degree: np.ndarray
    out_strength: np.ndarray
    in_strength: np.ndarray
    n: int
    edge_count: int
    min_weight: float
    max_weight: float
    total_weight: float


@dataclass(frozen=True)
class ValidationReport:
    sub_unit_weight_edges: tuple[tuple[str, str, float], ...]
    connected: bool
    isolated_nodes: tuple[str, ...]
    weight_homogeneous: bool


@dataclass(frozen=True)
class MetricSpec:
    metric: str
    alpha: float = 1.0
    direction: str = "undirected"
    relaxed_alpha: bool = False

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}, expected one of {METRICS}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}, expected one of {DIRECTIONS}")
        a = float(self.alpha)
        if not math.isfinite(a):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if self.relaxed_alpha:
            if a <= 0:
                raise ValueError(f"alpha must be > 0 in relaxed mode, got {a}")
        elif a < 1:
            raise ValueError(f"alpha must be >= 1 (pass relaxed_alpha=True to explore 0 < alpha < 1), got {a}")


@dataclass(frozen=True, eq=False)
class CentralityVector:
    metric: str
    alpha: float | None
    direction: str
    labels: tuple[str, ...]
    values: np.ndarray
    isolates: frozenset[str] = frozenset()
    normalized: bool = False

    def __post_init__(self):
        if len(self.labels) != self.values.size:
            raise ValueError("one score per node required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"non-finite score in {self.metric} vector")

    @cached_property
    def _position(self) -> dict[str, int]:
        return dict(zip(self.labels, range(len(self.labels))))


@dataclass(frozen=True)
class BoundsRecord:
    metric: str
    alpha: float
    n: int
    min_weight: float
    max_weight: float
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(
                f"degenerate bounds for {self.metric}: lower {self.lower} > upper {self.upper}"
            )


@dataclass(frozen=True)
class ResultTable:
    labels: tuple[str, ...]
    columns: tuple[tuple[str, np.ndarray], ...]


@dataclass(frozen=True, eq=False)
class RankVector:
    metric: str
    tie_rule: str
    labels: tuple[str, ...]
    ranks: np.ndarray

    @cached_property
    def _position(self) -> dict[str, int]:
        return dict(zip(self.labels, range(len(self.labels))))


@dataclass(frozen=True)
class CorrelationSweep:
    alphas: tuple[float, ...]
    dc_metrics: tuple[str, ...]
    baselines: tuple[str, ...]
    means: dict[tuple[str, str, float], float]
    ensemble_size: int
    params: dcmetrics.GeneratorParams
    seed: int
    perfect_overlaps: tuple[tuple[int, str, str, float, float], ...]
