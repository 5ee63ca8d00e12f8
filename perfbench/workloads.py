"""The benchmark's workloads: inputs made from the seed, the CLI arguments,
and the check of each run's output.

Why each workload exists (the layers it loads) is in README.md beside
this file and, in one line each, in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle

DEFAULT_SEED = 0
ALPHAS = (1, 2, 5)
SWEEP_BASELINES = ("degree", "weighted-degree", "betweenness", "closeness",
                   "weighted-eigenvector", "weighted-constraint", "weighted-effective-size")
RECORDED = Path(__file__).with_name("recorded.json")


@dataclass(frozen=True)
class Prepared:
    """One workload made ready: ``argv`` for `python -m dcmetrics.cli`,
    the files it writes, the work it does, and the check of its output."""

    argv: list[str]
    outputs: list[Path]
    items: int
    item_unit: str
    inputs: list[dict]
    check: Callable[[], list[str]] = field(repr=False)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[..., Prepared]
    size: dict
    tiny: dict

    def prepare(self, seed: int, workdir: Path, tiny: bool = False) -> Prepared:
        workdir.mkdir(parents=True, exist_ok=True)
        return self.make(seed, workdir, **(self.tiny if tiny else self.size))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _record_key(name: str, size: dict, seed: int) -> str:
    return " ".join([name, *(f"{k}={v}" for k, v in sorted(size.items())), f"seed={seed}"])


def _check_recorded(key: str, files: dict[str, Path]) -> list[str]:
    """At seeds with recorded output bytes, the output must match them."""
    recorded = json.loads(RECORDED.read_text(encoding="utf-8")).get(key)
    if recorded is None:
        return []
    return [f"{what} bytes differ from the recording for {key!r}"
            for what, path in files.items() if sha256(path) != recorded[what]]


def _compute(seed, workdir, text, alphas, directions, fmt, sample) -> Prepared:
    source = workdir / "input.tsv"
    source.write_text(text, encoding="utf-8")
    net = oracle.Network(text)
    names = oracle.column_names(alphas, directions)
    expected = oracle.expected_scores(net, net.sample(seed, sample), alphas, directions)
    out = workdir / f"scores.{fmt}"
    argv = ["compute", "--input", str(source), "--metrics", "dc",
            "--alpha", ",".join(map(str, alphas))]
    if directions != ["undirected"]:
        argv += ["--direction", "both"]
    argv += ["--format", fmt, "-o", str(out)]
    check_text = oracle.check_json if fmt == "json" else oracle.check_csv
    edges = text.count("\n") - 1
    return Prepared(
        argv=argv, outputs=[out], items=edges, item_unit="input edges",
        inputs=[{"file": source.name, "bytes": source.stat().st_size, "edge_lines": edges,
                 "nodes": net.n, "sha256": sha256(source)}],
        check=lambda: check_text(out.read_text(encoding="utf-8"), net, expected, names),
    )


def _compute_csv(seed, workdir, edges, nodes, sample):
    text = inputs.undirected_edge_list(seed, edges, nodes)
    return _compute(seed, workdir, text, [1], ["undirected"], "csv", sample)


def _compute_directed_json(seed, workdir, arcs, nodes, sample):
    text = inputs.directed_edge_list(seed, arcs, nodes)
    return _compute(seed, workdir, text, list(ALPHAS), ["in", "out"], "json", sample)


def _check_sweep(text: str, seed: int, ensemble: int) -> list[str]:
    lines = text.split("\n")
    head = [f"# sweep seed={seed} ensemble={ensemble}",
            "# generator n=50 m_attach=2 weights=[1,20]",
            "dc_metric,baseline,alpha,mean_spearman"]
    if lines[:3] != head or lines[-1] != "":
        return [f"unexpected sweep header: {lines[:3]!r}"]
    rows = [line.split(",") for line in lines[3:-1]]
    want = [[d, b, f"{a:g}"] for d in oracle.METRICS for b in SWEEP_BASELINES for a in ALPHAS]
    if [r[:3] for r in rows] != want or any(len(r) != 4 for r in rows):
        return [f"sweep rows differ from the {len(want)} (metric, baseline, alpha) rows"]
    return [f"sweep rho out of [-1, 1]: {r}" for r in rows if not -1.0 <= float(r[3]) <= 1.0]


def _check_svg(path: Path, series: int) -> list[str]:
    lines = [el for el in ET.parse(path).getroot().iter() if el.tag.endswith("polyline")]
    return [] if len(lines) == series else [f"SVG has {len(lines)} series, expected {series}"]


def _sweep(seed, workdir, ensemble):
    out, svg = workdir / "sweep.csv", workdir / "sweep.svg"
    argv = ["sweep", "--ensemble", str(ensemble), "--alphas", ",".join(map(str, ALPHAS)),
            "--seed", str(seed), "--svg", str(svg), "-o", str(out)]
    key = _record_key("sweep", {"ensemble": ensemble}, seed)

    def check():
        return (_check_sweep(out.read_text(encoding="utf-8"), seed, ensemble)
                + _check_svg(svg, len(oracle.METRICS) * len(SWEEP_BASELINES))
                + _check_recorded(key, {"output": out, "svg": svg}))

    return Prepared(argv=argv, outputs=[out, svg], items=ensemble, item_unit="ensemble graphs",
                    inputs=[{"generated_by_cli": key}], check=check)


def _check_generated(text: str, n: int, m: int, seed: int) -> list[str]:
    """Structure of a BA edge list: every node s >= m attaches to exactly m
    distinct earlier nodes, so m*(n-m) edges, no loops or duplicates, and
    integer weights in 1..20."""
    lines = text.split("\n")
    head = [f"# barabasi-albert n={n} m_attach={m} weights=[1,{inputs.WEIGHT_HIGH}] seed={seed}",
            "undirected"]
    if lines[:2] != head or lines[-1] != "":
        return [f"unexpected generate header: {lines[:2]!r}"]
    body = lines[2:-1]
    declared = [line for line in body if "\t" not in line]
    if declared and declared != [str(i) for i in range(n)]:
        return ["declared nodes are not 0..n-1 in order"]
    fields = [line.split("\t") for line in body if "\t" in line]
    if len(fields) != m * (n - m) or any(len(f) != 3 for f in fields):
        return [f"{len(fields)} edges, expected m*(n-m) = {m * (n - m)}"]
    u = np.array([int(f[0]) for f in fields])
    v = np.array([int(f[1]) for f in fields])
    w = np.array([float(f[2]) for f in fields])
    problems = []
    if not ((u >= 0) & (u < n) & (v >= 0) & (v < n)).all():
        return ["node label out of range"]
    if (u == v).any():
        problems.append("self-loop in generated graph")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if np.unique(lo * n + hi).size != len(fields):
        problems.append("duplicate edge in generated graph")
    attached = np.bincount(hi, minlength=n)
    if (attached[:m] != 0).any() or (attached[m:] != m).any():
        problems.append("a node does not attach to exactly m earlier nodes")
    if not ((w >= 1) & (w <= inputs.WEIGHT_HIGH) & (w == np.floor(w))).all():
        problems.append("weight outside the integers 1..20")
    return problems


def _generate(seed, workdir, n, m_attach):
    out = workdir / "generated.tsv"
    argv = ["generate", "--n", str(n), "--m-attach", str(m_attach),
            "--weight-high", str(inputs.WEIGHT_HIGH), "--seed", str(seed), "-o", str(out)]
    key = _record_key("generate", {"n": n, "m_attach": m_attach}, seed)
    return Prepared(
        argv=argv, outputs=[out], items=m_attach * (n - m_attach), item_unit="generated edges",
        inputs=[{"generated_by_cli": key}],
        check=lambda: (_check_generated(out.read_text(encoding="utf-8"), n, m_attach, seed)
                       + _check_recorded(key, {"output": out})),
    )


WORKLOADS = {w.name: w for w in (
    Workload("compute-csv", _compute_csv, {"edges": 200_000, "nodes": 60_000, "sample": 300},
             {"edges": 3_000, "nodes": 800, "sample": 10_000}),
    Workload("compute-directed-json", _compute_directed_json,
             {"arcs": 100_000, "nodes": 40_000, "sample": 200},
             {"arcs": 2_000, "nodes": 500, "sample": 10_000}),
    Workload("sweep", _sweep, {"ensemble": 40}, {"ensemble": 2}),
    Workload("generate", _generate, {"n": 100_002, "m_attach": 2}, {"n": 1_002, "m_attach": 2}),
)}
