"""Pure-Python reference scores for checking `compute` output.

The oracle reads the raw edge-list text itself: it interns labels in first
appearance order, sums parallel edges and drops self-loops without the
library's code, then scores d1..d5 for a sample of nodes from the
definitions. Weights and alphas are integers in the benchmark inputs, so
every power, strength and ratio is exact integer arithmetic and each term
is rounded once; only the summation order differs from the kernels.
"""

from __future__ import annotations

import json
import math
import random

METRICS = ("d1", "d2", "d3", "d4", "d5")


class Network:
    """Merged adjacency of an edge-list text in the benchmark's format: a
    directive line, then ``source<TAB>target<TAB>integer weight`` lines."""

    def __init__(self, text: str):
        lines = text.split("\n")
        if lines[0] not in ("directed", "undirected"):
            raise ValueError(f"unexpected directive {lines[0]!r}")
        self.directed = lines[0] == "directed"
        self.labels: list[str] = []
        index: dict[str, int] = {}
        out: list[dict[int, int]] = []
        inn: list[dict[int, int]] = []
        for line in lines[1:]:
            if not line:
                continue
            a, b, w_text = line.split("\t")
            w = int(w_text)
            ends = []
            for label in (a, b):
                i = index.get(label)
                if i is None:
                    i = index[label] = len(self.labels)
                    self.labels.append(label)
                    out.append({})
                    inn.append({})
                ends.append(i)
            i, j = ends
            if i == j:
                continue
            out[i][j] = out[i].get(j, 0) + w
            if self.directed:
                inn[j][i] = inn[j].get(i, 0) + w
            else:
                out[j][i] = out[j].get(i, 0) + w
        self.out = out
        self.inn = inn if self.directed else out
        self.n = len(self.labels)
        arcs = sum(sum(row.values()) for row in out)
        self.total_weight = arcs if self.directed else arcs // 2

    def sample(self, seed: int, size: int) -> list[int]:
        """A seeded node sample, always holding the node of highest degree."""
        hub = max(range(self.n), key=lambda i: len(self.out[i]) + len(self.inn[i]))
        picks = random.Random(seed).sample(range(self.n), min(size, self.n))
        return sorted(set(picks) | {hub})

    def scores(self, node: int, alpha: int, direction: str) -> dict[str, tuple[float, float]]:
        """(score, sum of absolute terms) per metric; the second value scales
        the rounding error any summation order can make."""
        if direction == "out":
            row, nbr_rows = self.out[node], self.inn
        else:  # "in" or "undirected": senders' (or neighbours') out-rows
            row, nbr_rows = self.inn[node], self.out
        n1, total = self.n - 1, self.total_weight
        terms: dict[str, list[float]] = {m: [] for m in METRICS}
        for j, w in row.items():
            g_pow = len(nbr_rows[j]) ** alpha
            s_alpha = sum(x ** alpha for x in nbr_rows[j].values())
            penalty = math.log10(n1 / g_pow)
            terms["d1"].append(w * penalty)
            terms["d2"].append(penalty)
            terms["d3"].append(w * math.log10(total / (s_alpha - w ** alpha + 1)))
            terms["d4"].append(w ** (alpha + 1) / s_alpha)
            terms["d5"].append(1 / g_pow)
        return {m: (math.fsum(t), math.fsum(abs(x) for x in t)) for m, t in terms.items()}


def column_names(alphas, directions) -> list[str]:
    """Column order of `compute --metrics dc`: direction, then alpha, then metric."""
    names = []
    for d in directions:
        for a in alphas:
            side = "" if d == "undirected" else f"-{d}"
            names.extend(f"{m}{side}@{a:g}" for m in METRICS)
    return names


def expected_scores(net: Network, nodes, alphas, directions) -> dict[int, list[tuple[float, float]]]:
    """Per sampled node, (score, scale) in output column order."""
    return {
        i: [net.scores(i, a, d)[m] for d in directions for a in alphas for m in METRICS]
        for i in nodes
    }


def _mismatch(label, column, got, want, rel) -> str | None:
    value, magnitude = want
    if not math.isfinite(got) or abs(got - value) > rel * abs(value) + 1e-9 * magnitude + 1e-300:
        return f"{label} {column}: got {got!r}, oracle {value!r}"
    return None


def check_table(net: Network, expected, names: list[str], labels, cell) -> list[str]:
    """Problems in a node-by-column table: node order, columns, sampled cells.

    ``cell(i, c)`` returns the parsed value of node row ``i``, column ``c``
    and the relative tolerance of its text form.
    """
    if list(labels) != net.labels:
        return [f"node rows differ from first-appearance order ({len(labels)} rows, {net.n} nodes)"]
    problems = []
    for i, want in expected.items():
        for c, name in enumerate(names):
            got, rel = cell(i, c)
            bad = _mismatch(net.labels[i], name, got, want[c], rel)
            if bad:
                problems.append(bad)
    return problems


def check_csv(text: str, net: Network, expected, names: list[str]) -> list[str]:
    """CSV cells carry 6 significant digits: allow half a unit in the sixth."""
    rows = text.split("\n")
    if rows[-1] != "" or rows[0] != "node," + ",".join(names):
        return [f"unexpected CSV header or ending: {rows[0][:80]!r}"]
    body = [r.split(",") for r in rows[1:-1]]
    if any(len(r) != len(names) + 1 for r in body):
        return ["CSV row with the wrong number of cells"]
    return check_table(net, expected, names, [r[0] for r in body],
                       lambda i, c: (float(body[i][c + 1]), 5.0001e-6))


def check_json(text: str, net: Network, expected, names: list[str]) -> list[str]:
    """JSON carries full doubles: the kernels' summation order is the only
    difference left, so compare at 1e-9 of the terms' magnitude."""
    doc = json.loads(text)
    if [c["name"] for c in doc["columns"]] != names:
        return ["unexpected JSON columns"]
    columns = [c["values"] for c in doc["columns"]]
    if any(len(v) != net.n for v in columns):
        return ["JSON column with the wrong length"]
    return check_table(net, expected, names, doc["nodes"], lambda i, c: (float(columns[c][i]), 1e-9))
