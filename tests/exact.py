"""Exact d1..d5 and bounds from the paper's definitions, independent of the package.

Weights are read as the rationals they hold; degrees, powers, strengths, the
total weight and every ratio are exact, and each log is of an exact rational.
d3 and d4 need an integer alpha; d1, d2 and d5 take p/q with a small
power-of-two q (2.5 = 5/2), d5 then by a float power.
"""

import math
from fractions import Fraction
from functools import cache


def log10(r) -> float:
    """log10 of a positive rational, as log1p(x - 1) + k ln 2 with
    r = x * 2**k and x in [2/3, 4/3]: nothing cancels where r is near 1."""
    p, q = r.numerator, r.denominator
    k = p.bit_length() - q.bit_length()
    p, q = (p, q << k) if k >= 0 else (p << -k, q)
    if 3 * p > 4 * q:
        k, q = k + 1, 2 * q
    elif 3 * p < 2 * q:
        k, p = k - 1, 2 * p
    return (math.log1p((p - q) / q) + k * math.log(2)) / math.log(10)


def _round(terms) -> float:
    """The sum of rational terms over an unreduced common denominator, rounded once (+-inf past float64)."""
    num, den = 0, 1
    for t in terms:
        num, den = num * t.denominator + t.numerator * den, den * t.denominator
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def scores(nodes, edges, directed: bool, alpha, direction: str = "undirected") -> dict:
    """{metric: {node: (score, sum of absolute terms)}} of loop-free (u, v, w)
    edges, parallel ones summed. An in-score sums arcs j->i penalised by j's
    out-row, an out-score arcs i->j by j's in-row."""
    p, q = Fraction(alpha).as_integer_ratio()
    out = {u: {} for u in nodes}
    inn = {u: {} for u in nodes} if directed else out
    total = 0
    for u, v, w in edges:
        w = Fraction(w)
        total += w
        out[u][v] = out[u].get(v, 0) + w
        inn[v][u] = inn[v].get(u, 0) + w
    rows, nbr_rows = (inn, out) if direction == "in" else (out, inn)
    n1 = len(out) - 1

    @cache
    def neighbour(j):
        g = len(nbr_rows[j])
        penalty = Fraction(log10(Fraction(n1**q, g**p)) / q)
        if q > 1:
            return penalty, Fraction(g ** -float(alpha)), None
        return penalty, Fraction(1, g**p), sum(w**p for w in nbr_rows[j].values())

    metrics = ("d1", "d2", "d3", "d4", "d5") if q == 1 else ("d1", "d2", "d5")
    result = {m: {} for m in metrics}
    for i in nodes:
        terms = {m: [] for m in metrics}
        for j, w in rows[i].items():
            penalty, reciprocal, strength = neighbour(j)
            terms["d1"].append(w * penalty)
            terms["d2"].append(penalty)
            terms["d5"].append(reciprocal)
            if q == 1:
                terms["d3"].append(w * Fraction(log10(total / (strength - w**p + 1))))
                terms["d4"].append(w ** (p + 1) / strength)
        for m, t in terms.items():
            result[m][i] = (_round(t), _round(map(abs, t)))
    return result


def bounds(metric: str, n: int, min_weight, max_weight, alpha: int) -> tuple[float, float]:
    """(lower, upper) at an integer alpha, each exact but for one log, rounded once."""
    m, M = Fraction(min_weight), Fraction(max_weight)
    if metric in ("d1", "d2"):
        top = (M if metric == "d1" else 1) * (n - 1) * Fraction(log10(n - 1))
        return _round([(1 - alpha) * top]), _round([top])
    if metric == "d3":
        ratio = Fraction(log10(((n - 2) * M + m) / ((n - 2) * M**alpha + 1)))
        lower = m * ratio if (n - 2) * (M**alpha - M) < m - 1 else (n - 1) * M * ratio
        return _round([lower]), _round([(n - 1) * M * Fraction(log10(n * (n - 1) * M / 2))])
    if metric == "d4":
        return _round([m / (1 + (n - 2) * (M / m) ** alpha)]), _round([(n - 1) * M])
    return _round([Fraction(1, (n - 1) ** alpha)]), float(n - 1)
