"""Seeded workload inputs, made with numpy alone.

The benchmark writes its own edge lists instead of calling the library's
generator or writer, so a change to either cannot change what the compute
workloads read. Equal arguments give byte-identical text on every platform
(PCG64 streams spawned from the seed).
"""

from __future__ import annotations

import numpy as np

WEIGHT_HIGH = 20  # integer weights 1..20, as in the published ensembles
DUPLICATE_SHARE = 0.01  # undirected lines that repeat an earlier pair
SELF_LOOPS = 20  # undirected lines that are loops
RECIPROCAL_SHARE = 0.05  # directed arcs that reverse another arc


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _power_law(rng: np.random.Generator, nodes: int) -> np.ndarray:
    """Chung-Lu endpoint probabilities with a degree exponent of 2.5, on a
    random node order so that hubs are not the lowest labels."""
    p = np.arange(1, nodes + 1, dtype=np.float64) ** (-2.0 / 3.0)
    return rng.permutation(p / p.sum())


def _distinct_pairs(rng, count, nodes, p_src, p_dst, directed):
    """The first ``count`` distinct non-loop endpoint pairs of a seeded draw,
    in draw order. Undirected pairs are distinct as unordered pairs."""
    draw = 2 * count + 1000
    u = rng.choice(nodes, size=draw, p=p_src)
    v = rng.choice(nodes, size=draw, p=p_dst)
    keep = u != v
    u, v = u[keep], v[keep]
    key = u * nodes + v if directed else np.minimum(u, v) * nodes + np.maximum(u, v)
    first = np.sort(np.unique(key, return_index=True)[1])[:count]
    if first.size < count:
        raise ValueError(f"could not draw {count} distinct pairs on {nodes} nodes")
    return u[first], v[first]


def _edge_list_text(directed: bool, u, v, w, labels) -> str:
    lines = ["directed" if directed else "undirected"]
    lines.extend(f"{a}\t{b}\t{c}" for a, b, c in zip(labels[u].tolist(), labels[v].tolist(), w.tolist()))
    return "\n".join(lines) + "\n"


def undirected_edge_list(seed: int, edges: int, nodes: int) -> str:
    """Scale-free undirected edge list of exactly ``edges`` lines.

    About DUPLICATE_SHARE of the lines repeat an earlier pair (half of them
    reversed) with a fresh weight, and SELF_LOOPS lines are loops on nodes
    that also have real edges, so the build's merge and drop paths both run.
    """
    rng = _rng(seed, 1)
    p = _power_law(rng, nodes)
    n_dup = int(edges * DUPLICATE_SHARE)
    n_unique = edges - n_dup - SELF_LOOPS
    u, v = _distinct_pairs(rng, n_unique, nodes, p, p, directed=False)
    w = rng.integers(1, WEIGHT_HIGH + 1, size=n_unique)
    dup = rng.choice(n_unique, size=n_dup, replace=False)
    flip = rng.random(n_dup) < 0.5
    loops = rng.choice(u, size=SELF_LOOPS)
    src = np.concatenate([u, np.where(flip, v[dup], u[dup]), loops])
    dst = np.concatenate([v, np.where(flip, u[dup], v[dup]), loops])
    wts = np.concatenate([w, rng.integers(1, WEIGHT_HIGH + 1, size=n_dup + SELF_LOOPS)])
    order = rng.permutation(src.size)
    labels = np.array([f"u{i}" for i in rng.permutation(nodes)])
    return _edge_list_text(False, src[order], dst[order], wts[order], labels)


def directed_edge_list(seed: int, arcs: int, nodes: int) -> str:
    """Scale-free directed edge list of exactly ``arcs`` distinct arcs, with
    separate out- and in-hubs. About RECIPROCAL_SHARE of the arcs are the
    reverse of another arc."""
    rng = _rng(seed, 2)
    p_out = _power_law(rng, nodes)
    p_in = _power_law(rng, nodes)
    n_rec = int(arcs * RECIPROCAL_SHARE)
    u, v = _distinct_pairs(rng, arcs - n_rec, nodes, p_out, p_in, directed=True)
    # reverse arcs whose reverse was not drawn, so every arc stays distinct
    free = ~np.isin(v * nodes + u, u * nodes + v)
    pick = rng.choice(np.flatnonzero(free), size=n_rec, replace=False)
    src = np.concatenate([u, v[pick]])
    dst = np.concatenate([v, u[pick]])
    w = rng.integers(1, WEIGHT_HIGH + 1, size=arcs)
    order = rng.permutation(arcs)
    labels = np.array([f"a{i}" for i in rng.permutation(nodes)])
    return _edge_list_text(True, src[order], dst[order], w, labels)
