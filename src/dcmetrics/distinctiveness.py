"""The five distinctiveness centrality metrics, their bounds, and normalization.

All five metrics reward ties to sparsely connected neighbors and penalize
ties to hubs; the exponent ``alpha`` (>= 1) sharpens the penalty. Base-10
logarithms are used throughout, which is what makes the published reference
values reproduce exactly.

Directed graphs get in/out variants: the in-score of a node values arcs
received from senders with low out-degree, the out-score values arcs sent
to receivers with low in-degree.

Every kernel is a pure function of (graph, alpha, direction) and runs in
O(edges) after a single O(edges) precomputation pass; per-node sums are
accumulated in adjacency storage order, so results are bit-reproducible
for a given graph.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .graph import Graph, Record, _entry_rows, _gather, segment_sum

METRICS = ("d1", "d2", "d3", "d4", "d5")
DIRECTIONS = ("undirected", "in", "out")
# the names the CLI parses: declared here, which every command loads, and
# exported by ``baselines``, ``stats`` and ``datasets``, which only some commands load
BASELINES = ("degree", "closeness", "betweenness", "eigenvector", "constraint", "effective-size")
TIE_RULES = ("competition", "average")
DATASET_NAMES = ("toy-undirected", "toy-directed", "florentine", "zachary")

__all__ = [
    "METRICS",
    "MetricSpec",
    "CentralityVector",
    "BoundsRecord",
    "d1",
    "d2",
    "d3",
    "d4",
    "d5",
    "distinctiveness",
    "all_distinctiveness",
    "bounds",
    "normalize",
    "negative_contribution_threshold",
]


class MetricSpec(Record):
    """Identifies one scored quantity: which metric, at which alpha, which direction."""

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


class CentralityVector(Record, eq=False):
    """Per-node scores for one metric, plus which nodes were scored 0 as isolates."""

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

    def __getitem__(self, label: str) -> float:
        return float(self.values[self._position[label]])

    def as_dict(self) -> dict[str, float]:
        return {lab: float(v) for lab, v in zip(self.labels, self.values)}

    def items(self):
        return self.as_dict().items()


class BoundsRecord(Record):
    """Analytic (lower, upper) envelope for one metric at given n, weight range, alpha."""

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


def _resolve_direction(graph: Graph, direction: str | None) -> str:
    if direction is None:
        if graph.directed:
            raise ValueError("directed graph: specify direction='in' or direction='out'")
        return "undirected"
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}, expected one of {DIRECTIONS}")
    if graph.directed and direction == "undirected":
        raise ValueError("direction='undirected' is only valid for undirected graphs")
    if not graph.directed and direction != "undirected":
        raise ValueError(f"direction={direction!r} is only valid for directed graphs")
    return direction


def _adjacency_view(graph: Graph, direction: str):
    """CSR view for the requested direction plus the neighbor-side degree and
    alpha-strength source arrays.

    For 'in', row i lists senders j of arcs j->i; the penalising quantities
    are the sender's out-degree and out-strength. For 'out', row i lists
    receivers j; the quantities are the receiver's in-degree/in-strength.
    'undirected' reads like 'out': an undirected graph's in-arrays are its
    out-arrays.
    """
    if direction == "in":
        return graph.in_indptr, graph.in_indices, graph.in_weights, graph.out_degrees(), graph.indptr, graph.weights
    return graph.indptr, graph.indices, graph.weights, graph.in_degrees(), graph.in_indptr, graph.in_weights


def all_distinctiveness(
    graph: Graph,
    alpha: float = 1.0,
    direction: str | None = None,
    relaxed_alpha: bool = False,
    metrics: tuple[str, ...] = METRICS,
) -> dict[str, CentralityVector]:
    """Compute several distinctiveness metrics in one pass over the edges.

    The per-(graph, alpha) quantities (neighbor degrees, alpha-strengths,
    total weight) are computed once and shared by all requested kernels.
    """
    direction = _resolve_direction(graph, direction)
    for m in metrics:
        MetricSpec(m, alpha, direction, relaxed_alpha)
    alpha = float(alpha)
    if graph.n < 2:
        raise ValueError("distinctiveness needs at least 2 nodes")
    isolates = graph.isolates()
    # the sum of weights overflows near the float limit: take it only where d3 needs it
    total = graph.total_weight() if "d3" in metrics else None
    scores = _scores(graph, alpha, direction, metrics, graph.n, total)
    for m, values in scores.items():  # in the kernels' order
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"{m} of node {graph.nodes[bad[0]]!r} overflows float64 at alpha={alpha:g} ({direction})")
    return {m: CentralityVector(m, alpha, direction, graph.nodes, scores[m], isolates) for m in metrics}


def _scores(graph: Graph, alpha: float, direction: str, metrics: tuple[str, ...], n: int,
            total: float | np.ndarray | None) -> dict[str, np.ndarray]:
    """The kernels of ``all_distinctiveness`` on checked arguments, as arrays.

    ``n`` is the node count d1 and d2 read, and ``total`` the total weight
    d3 reads (undirected edges counted once, arcs all summed): a float, or
    one per entry of the scored adjacency. Every score
    is a sum over its node's own row, so a block-diagonal graph of several
    graphs of n nodes, each entry given its own graph's total, scores each
    graph as it scores on its own, bit for bit.
    """
    indptr, indices, weights, nbr_degree, s_indptr, s_weights = _adjacency_view(graph, direction)
    out: dict[str, np.ndarray] = {}
    rows = _entry_rows(indptr)

    def row_sums(values: np.ndarray) -> np.ndarray:
        return segment_sum(values, indptr, rows)

    # the d1/d2 penalty and the d5 term depend on the neighbor alone: each is
    # made once per node and gathered once per entry. A node of degree 0
    # takes degree 1, since no entry points at it. Per-entry arrays are worked
    # on in place and dropped before the next one is made
    if not {"d1", "d2", "d5"}.isdisjoint(metrics):
        deg_f = np.maximum(nbr_degree, 1).astype(np.float64)
        with np.errstate(over="ignore"):
            power = np.power(deg_f, alpha)
        over = np.isinf(power)

    if "d1" in metrics or "d2" in metrics:
        # penalty log10((n-1)/g^alpha), kept as a single log of the ratio:
        # neighbors of full degree give exactly 0 at alpha=1, and exact
        # score ties (equal degree products) stay bitwise ties; where g^alpha
        # overflows, the difference of logs
        with np.errstate(divide="ignore"):  # log10(0) past an overflow, replaced below
            penalty = np.log10((n - 1) / power)
        penalty[over] = math.log10(n - 1) - alpha * np.log10(deg_f[over])
        per_edge = penalty[indices]
        if "d1" in metrics:
            with np.errstate(over="ignore"):  # an overflowing product fails d1 in all_distinctiveness
                out["d1"] = row_sums(weights * per_edge)
        if "d2" in metrics:
            out["d2"] = row_sums(per_edge)
        del per_edge

    if "d3" in metrics or "d4" in metrics:
        with np.errstate(over="ignore"):  # an inf strength fails d3 below and is rescaled for d4
            s_alpha = segment_sum(np.power(s_weights, alpha), s_indptr, rows if s_indptr is indptr else None)
        if "d3" in metrics:
            per_edge = s_alpha[indices]
            # past an overflowing power the score is not finite, which all_distinctiveness reports
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                per_edge -= np.power(weights, alpha)
                per_edge += 1.0
                np.divide(total, per_edge, out=per_edge)
                np.log10(per_edge, out=per_edge)
                np.multiply(weights, per_edge, out=per_edge)
            out["d3"] = row_sums(per_edge)
            del per_edge
        if "d4" in metrics:
            tiny = np.finfo(np.float64).tiny
            with np.errstate(over="ignore", invalid="ignore"):
                per_edge = np.power(weights, alpha + 1.0)
                low = per_edge < tiny  # a power that lost bits below the normal range, or fell to 0
                per_edge /= s_alpha[indices]
            # the ratio is inf or nan past an overflowing power or a strength that fell to 0, and
            # 0 past an inf strength; a subnormal strength has lost bits (a node whose row is
            # empty has strength 0 and is no entry's neighbor)
            strength_off = np.isinf(s_alpha) | ((s_alpha > 0) & (s_alpha < tiny))
            if low.any() or strength_off.any() or not np.isfinite(per_edge).all():
                past = np.flatnonzero(low | ~np.isfinite(per_edge) | strength_off[indices])
                per_edge[past] = _d4_rescaled(weights[past], indices[past], s_indptr, s_weights, alpha)
            out["d4"] = row_sums(per_edge)
            del per_edge

    if "d5" in metrics:
        reciprocal = 1.0 / power
        reciprocal[over] = deg_f[over] ** -alpha  # 0.0 or a subnormal
        out["d5"] = row_sums(reciprocal[indices])

    return out


def _d4_rescaled(w, nbr, s_indptr, s_weights, alpha: float) -> np.ndarray:
    """d4's terms ``w**(alpha+1) / sum_k w_jk**alpha`` where the float powers
    overflow or fall below the normal range, as
    ``w (w/M_j)**alpha / sum_k (w_jk/M_j)**alpha`` with M_j the largest
    weight in the row of the neighbor j: the sum lies in [1, degree] and
    the term is at most w. Where ``(w/M_j)**alpha`` falls below the
    normal range, the term is taken through base-2 logs instead. Only the
    rows of the distinct neighbors in ``nbr`` are read, each summed in
    storage order as ``segment_sum`` sums the whole adjacency."""
    nbrs, nbr = np.unique(nbr, return_inverse=True)
    sizes, at = _gather(s_indptr, nbrs)
    row_weights = s_weights[at]
    ptr = np.concatenate(([0], np.cumsum(sizes)))
    rows = _entry_rows(ptr)
    top = np.maximum.reduceat(row_weights, ptr[:-1])  # no row is empty: j's row holds its entry back
    with np.errstate(under="ignore", divide="ignore"):  # log2 of a ratio that underflowed to 0
        scaled = segment_sum(np.power(row_weights / top[rows], alpha), ptr, rows)[nbr]
        ratio = w / top[nbr]
        power = np.power(ratio, alpha)
        terms = w * power / scaled
        low = power < np.finfo(np.float64).tiny
        terms[low] = np.exp2(np.log2(w[low]) + alpha * np.log2(ratio[low]) - np.log2(scaled[low]))
    return terms


def _single(metric: str, graph: Graph, alpha, direction, relaxed_alpha) -> CentralityVector:
    return all_distinctiveness(graph, alpha, direction, relaxed_alpha, metrics=(metric,))[metric]


def d1(graph: Graph, alpha: float = 1.0, direction: str | None = None, relaxed_alpha: bool = False) -> CentralityVector:
    """Weighted distinctiveness: arc weights scaled by log10((n-1)/g_j^alpha)."""
    return _single("d1", graph, alpha, direction, relaxed_alpha)


def d2(graph: Graph, alpha: float = 1.0, direction: str | None = None, relaxed_alpha: bool = False) -> CentralityVector:
    """Unweighted distinctiveness: d1 with every arc weight treated as 1."""
    return _single("d2", graph, alpha, direction, relaxed_alpha)


def d3(graph: Graph, alpha: float = 1.0, direction: str | None = None, relaxed_alpha: bool = False) -> CentralityVector:
    """Global-weight distinctiveness: penalty based on the neighbor's remaining
    alpha-strength relative to the total weight in the graph."""
    return _single("d3", graph, alpha, direction, relaxed_alpha)


def d4(graph: Graph, alpha: float = 1.0, direction: str | None = None, relaxed_alpha: bool = False) -> CentralityVector:
    """Weighted proportional distinctiveness: w^(alpha+1) over the neighbor's
    alpha-strength; strictly positive for non-isolated nodes."""
    return _single("d4", graph, alpha, direction, relaxed_alpha)


def d5(graph: Graph, alpha: float = 1.0, direction: str | None = None, relaxed_alpha: bool = False) -> CentralityVector:
    """Proportional distinctiveness: sum of reciprocal neighbor degrees^alpha."""
    return _single("d5", graph, alpha, direction, relaxed_alpha)


def distinctiveness(
    graph: Graph,
    metric: str,
    alpha: float = 1.0,
    direction: str | None = None,
    relaxed_alpha: bool = False,
) -> CentralityVector:
    """Dispatch a single metric by its identifier 'd1'..'d5'."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return _single(metric, graph, alpha, direction, relaxed_alpha)


def _quotient_past_overflow(num: float, scale: int, top: float, bottom: float, alpha: float) -> float:
    """``num / (scale * (top / bottom) ** alpha)`` rounded to float64, for a
    quotient that is finite although its float power, or ``scale`` times it,
    overflows. Decimal arithmetic at 40 digits has the exponent range float
    lacks; a power past even that becomes Infinity (nothing is trapped), and
    the quotient 0. Beside a denominator above 1.8e308, d4's ``1 +`` is below
    the 40th digit, so it is left out."""
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal

    ctx = Context(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])
    power = ctx.power(ctx.divide(Decimal(top), Decimal(bottom)), Decimal(alpha))
    return float(ctx.divide(Decimal(num), ctx.multiply(scale, power)))


def bounds(
    metric: str,
    n: int,
    min_weight: float = 1.0,
    max_weight: float = 1.0,
    alpha: float = 1.0,
    relaxed_alpha: bool = False,
) -> BoundsRecord:
    """Analytic lower/upper bounds for a metric on a connected undirected
    graph with ``n`` nodes and weights in [min_weight, max_weight].

    The d1/d2/d4/d5 bounds are tight (a uniform-weight star hub attains the
    upper ones). The d3 lower bound is attained too: at alpha 1 with unit
    weights every leaf of a star scores 0, as the bound is. Only the d3
    upper bound is loose: above two nodes, the unit-weight star hub scores
    (n-1) log10(n-1) against its (n-1) log10(n(n-1)/2).
    """
    MetricSpec(metric, alpha, "undirected", relaxed_alpha)
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    m = float(min_weight)
    M = float(max_weight)
    if not (math.isfinite(m) and math.isfinite(M)) or m <= 0 or m > M:
        raise ValueError(f"need 0 < min_weight <= max_weight, got {min_weight!r}, {max_weight!r}")
    alpha = float(alpha)
    log_n1 = math.log10(n - 1)

    try:
        if metric == "d1":
            upper = M * (n - 1) * log_n1
            lower = (1.0 - alpha) * M * (n - 1) * log_n1
        elif metric == "d2":
            upper = (n - 1) * log_n1
            lower = (1.0 - alpha) * (n - 1) * log_n1
        elif metric == "d3":
            log_ratio = math.log10(((n - 2) * M + m) / ((n - 2) * M**alpha + 1.0))
            if (n - 2) * (M**alpha - M) < m - 1.0:
                lower = m * log_ratio
            else:
                lower = (n - 1) * M * log_ratio
            upper = (n - 1) * M * math.log10(n * (n - 1) * M / 2.0)
        elif metric == "d4":
            upper = (n - 1) * M
            try:
                denominator = 1.0 + (n - 2) * (M / m) ** alpha
            except OverflowError:  # in (M/m)**alpha; it is multiplied by 0 at n=2
                denominator = 1.0 if n == 2 else math.inf
            if math.isfinite(denominator):
                lower = m / denominator
            else:  # the power or (n-2) times it overflows: the bound is below m / 1.8e308
                lower = _quotient_past_overflow(m, n - 2, M, m, alpha)
        else:  # d5
            upper = float(n - 1)
            try:
                lower = 1.0 / (n - 1) ** alpha
            except OverflowError:  # in (n-1)**alpha; the bound is below 1/1.8e308
                lower = _quotient_past_overflow(1.0, 1, n - 1, 1.0, alpha)
        finite = math.isfinite(lower) and math.isfinite(upper)
    except (OverflowError, ValueError):  # a power overflows, or log10 gets the 0 an overflow left
        finite = False
    if not finite:
        raise ValueError(f"{metric} bounds are not finite in float64 at n={n}, "
                         f"weights in [{m!r}, {M!r}], alpha={alpha!r}")

    return BoundsRecord(
        metric=metric, alpha=alpha, n=int(n), min_weight=m, max_weight=M, lower=lower, upper=upper
    )


def normalize(vector: CentralityVector, record: BoundsRecord) -> CentralityVector:
    """Map scores through (score - lower) / (upper - lower).

    The bounds are derived for undirected graphs, so an in- or out-vector is refused.
    """
    if vector.normalized:
        raise ValueError("vector is already normalized")
    if vector.direction != "undirected":
        raise ValueError(f"bounds are derived for undirected graphs, cannot normalize a {vector.metric} "
                         f"vector of direction {vector.direction!r}")
    if vector.metric != record.metric:
        raise ValueError(f"bounds are for {record.metric!r}, vector is {vector.metric!r}")
    if vector.alpha is None or float(vector.alpha) != record.alpha:
        raise ValueError(f"bounds alpha {record.alpha} does not match vector alpha {vector.alpha}")
    span = record.upper - record.lower
    if span <= 0:
        raise ValueError(f"degenerate bounds (upper == lower == {record.upper:g}), cannot normalize")
    values = (vector.values - record.lower) / span
    return CentralityVector(vector.metric, vector.alpha, vector.direction, vector.labels, values, vector.isolates, True)


def negative_contribution_threshold(n: int, alpha: float = 1.0) -> float:
    """Neighbor degree above which a connection contributes negatively to d1/d2.

    Returns (n-1)^(1/alpha); at alpha=1 this is n-1, which no degree can
    exceed, so every contribution is non-negative.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha!r}")
    return float((n - 1) ** (1.0 / alpha))
