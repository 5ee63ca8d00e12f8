"""Seeded Barabasi-Albert generation with random integer weights.

Two independent PCG64 streams are spawned from the seed: one drives the
preferential-attachment topology, the other the weight assignment, so the
same topology can be re-weighted reproducibly and results are portable
across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# build_graph is unused here but stays importable as generators.build_graph,
# the name perfbench/tracer.py wraps
from .graph import Graph, build_graph, graph_from_arrays  # noqa: F401

__all__ = ["GeneratorParams", "barabasi_albert"]


@dataclass(frozen=True)
class GeneratorParams:
    """Barabasi-Albert parameters: n nodes, m_attach arcs per new node,
    integer weights uniform in [weight_low, weight_high], 64-bit seed."""

    n: int
    m_attach: int
    weight_low: int = 1
    weight_high: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.m_attach < self.n:
            raise ValueError(f"need 1 <= m_attach < n, got m_attach={self.m_attach}, n={self.n}")
        if not 1 <= self.weight_low <= self.weight_high:
            raise ValueError(
                f"need 1 <= weight_low <= weight_high, got {self.weight_low}, {self.weight_high}"
            )


def barabasi_albert(params: GeneratorParams) -> Graph:
    """Generate an undirected BA graph: seed star on the first m_attach+1
    nodes, then each new node attaches to m_attach distinct existing nodes
    sampled proportionally to degree (repeated-nodes urn, without
    replacement within a step). Always m_attach * (n - m_attach) edges.

    Node labels are "0".."n-1" in creation order.
    """
    n, m = params.n, params.m_attach
    topo_ss, weight_ss = np.random.SeedSequence(params.seed).spawn(2)
    topo = np.random.default_rng(topo_ss)
    wrng = np.random.default_rng(weight_ss)

    # node m + k attaches to dst[k*m : (k+1)*m]. The urn is read from dst: it
    # holds 2m slots per step k, the m targets of step k then m copies of node
    # m + k, and node `source` draws from its first 2*m*(source - m) slots.
    dst = list(range(m))
    for source in range(m + 1, n):
        chosen: dict[int, None] = {}  # distinct draws in draw order
        while len(chosen) < m:
            k, o = divmod(int(topo.integers(0, 2 * m * (source - m))), 2 * m)
            chosen[dst[k * m + o] if o < m else m + k] = None
        dst.extend(chosen)

    weights = wrng.integers(params.weight_low, params.weight_high + 1, size=len(dst))
    src = np.repeat(np.arange(m, n), m)
    labels = tuple(map(str, range(n)))
    return graph_from_arrays(labels, src, dst, weights, directed=False)
