"""Naive direct-from-definition evaluators used as oracles.

Everything here works on plain dicts and math.log10, independently of the
package's CSR/numpy kernels: same formulas, different code path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dcmetrics import BuildReport, Graph, GraphBuildError


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
        if not np.isfinite(w) or w <= 0.0:
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

    inn = to_csr(in_adj) if directed else (None, None, None)
    return Graph(tuple(labels), directed, *to_csr(out_adj), *inn,
                 build_report=BuildReport(merged_edges=merged, self_loops_dropped=self_loops))


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


def _adjacency(nodes, edges, directed):
    out = {u: {} for u in nodes}
    inn = {u: {} for u in nodes}
    for u, v, w in edges:
        out[u][v] = out[u].get(v, 0.0) + w
        inn[v][u] = inn[v].get(u, 0.0) + w
        if not directed:
            out[v][u] = out[v].get(u, 0.0) + w
            inn[u][v] = inn[u].get(v, 0.0) + w
    return out, inn


def naive_distinctiveness(nodes, edges, directed, metric, alpha, direction="undirected"):
    """Score one of d1..d5 for every node, straight from the definitions."""
    nodes = list(nodes)
    n = len(nodes)
    out, inn = _adjacency(nodes, edges, directed)
    total = sum(w for _, _, w in edges)

    if direction == "in":
        incident = inn  # j -> i arcs, keyed by sender j
        nbr_deg = {u: len(out[u]) for u in nodes}
        nbr_strength = lambda j: sum(w**alpha for w in out[j].values())
    elif direction == "out":
        incident = out
        nbr_deg = {u: len(inn[u]) for u in nodes}
        nbr_strength = lambda j: sum(w**alpha for w in inn[j].values())
    else:
        incident = out
        nbr_deg = {u: len(out[u]) for u in nodes}
        nbr_strength = lambda j: sum(w**alpha for w in out[j].values())

    scores = {}
    for i in nodes:
        acc = 0.0
        for j, w in incident[i].items():
            if metric == "d1":
                acc += w * math.log10((n - 1) / nbr_deg[j] ** alpha)
            elif metric == "d2":
                acc += math.log10((n - 1) / nbr_deg[j] ** alpha)
            elif metric == "d3":
                acc += w * math.log10(total / (nbr_strength(j) - w**alpha + 1.0))
            elif metric == "d4":
                acc += w ** (alpha + 1) / nbr_strength(j)
            elif metric == "d5":
                acc += 1.0 / nbr_deg[j] ** alpha
            else:
                raise ValueError(metric)
        scores[i] = acc
    return scores


def naive_betweenness(nodes, edges, weighted=False):
    """Non-normalized betweenness by enumerating every simple path of every
    pair and keeping the shortest ones. Exponential; keep n small."""
    nodes = list(nodes)
    out, _ = _adjacency(nodes, edges, directed=False)
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
    out, _ = _adjacency(nodes, edges, directed=False)
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
