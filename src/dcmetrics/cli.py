"""Command-line interface.

Subcommands: compute, bounds, rank, compare, generate, sweep, datasets.
Exit codes: 0 success, 1 data error (bad file, disconnected graph, ...),
2 usage error. Every random operation takes --seed (falling back to the
DISTINCT_SEED environment variable) and echoes the seed in its output
header so results can be regenerated exactly.
"""

from __future__ import annotations

import argparse
import codecs
import gc
import io
import os
import re
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import __version__
from .distinctiveness import (
    BASELINES,
    DATASET_NAMES,
    DIRECTIONS,
    METRICS,
    TIE_RULES,
    CentralityVector,
    all_distinctiveness,
    bounds,
    normalize,
)
from .errors import DCMetricsError
from .graph import Graph, profile
from .io import ResultTable, _blocks, _csv_cells, parse_edge_list, parse_gexf_minimal, write_edge_list


def _deferred(name: str):
    """A stand-in for ``dcmetrics.<name>``, looked up in the package at
    every call; the package loads the module holding it on the first."""

    def call(*args, **kwargs):
        return getattr(sys.modules[__package__], name)(*args, **kwargs)

    return call


# the names only some commands call, so that a command loads only the modules
# it uses; perfbench/tracer.py wraps several of them by their name here
baseline = _deferred("baseline")
builtin_dataset = _deferred("builtin_dataset")
GeneratorParams = _deferred("GeneratorParams")
barabasi_albert = _deferred("barabasi_albert")
correlation_sweep = _deferred("correlation_sweep")
rank = _deferred("rank")
spearman = _deferred("spearman")
render_line_chart = _deferred("render_line_chart")


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("DISTINCT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DCMetricsError(f"DISTINCT_SEED must be an integer, got {env!r}") from None
    return 0


# the first line that is not blank, without its leading whitespace (compiled
# by the first read, not at import)
_FIRST_LINE = r"\s*([^\n]*)"


def _read_graph(path: str) -> Graph:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DCMetricsError(f"cannot read input file {path}: {exc.strerror or exc}") from None
    # the two decoders a text-mode read runs, in one call: the BOM dropped, CRLF and lone CR read as LF
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8-sig")(), translate=True)
    text = decoder.decode(data, final=True)
    del data  # frees the bytes before the parse's peak
    first_line = re.match(_FIRST_LINE, text)[1]  # an edge line holds a tab
    if path.suffix.lower() == ".gexf" or (first_line.startswith("<") and "\t" not in first_line):
        return parse_gexf_minimal(text)
    return parse_edge_list(text)


def _load_graph(args) -> Graph:
    return builtin_dataset(args.dataset) if args.dataset else _read_graph(args.input)


def _emit(args, blocks: Iterable[str]) -> None:
    """Write the text blocks to the --output file, or to stdout. Callers
    pass a list or a generator of blocks, never a bare str, which would be
    written a character at a time."""
    out = getattr(args, "output", None)
    if not out:
        sys.stdout.writelines(blocks)
        return
    with open(out, "w", encoding="utf-8") as f:
        f.writelines(blocks)


# every token --metrics accepts, and the metrics it stands for
_GROUPS = {
    **{name: (name,) for name in METRICS + BASELINES},
    "dc": METRICS,
    "baselines": BASELINES,
    "all": METRICS + BASELINES,
}


def _parse_metrics(spec: str) -> tuple[list[str], list[str]]:
    names: list[str] = []
    for token in spec.split(","):
        token = token.strip().lower()
        if token and token not in _GROUPS:
            raise DCMetricsError(
                f"unknown metric {token!r}; choose from {', '.join(METRICS + BASELINES)}, dc, baselines, all"
            )
        names += _GROUPS.get(token, ())
    names = list(dict.fromkeys(names))  # first appearance wins
    if not names:
        raise DCMetricsError("no metrics requested")
    return [m for m in names if m in METRICS], [b for b in names if b in BASELINES]


def _parse_alphas(spec: str) -> list[float]:
    try:
        values = [float(a) for a in spec.split(",") if a.strip()]
    except ValueError:
        raise DCMetricsError(f"bad alpha list {spec!r}") from None
    if not values:
        raise DCMetricsError("alpha list is empty")
    repeated = [a for i, a in enumerate(values) if a in values[:i]]
    if repeated:  # compute would write two columns under one name, sweep average them together
        raise DCMetricsError(f"alpha {repeated[0]!r} is given more than once")
    return values


def _directions(graph: Graph, choice: str) -> list[str]:
    if choice == "auto":
        return ["in", "out"] if graph.directed else ["undirected"]
    if choice == "both":
        if not graph.directed:
            raise DCMetricsError("--direction both only applies to directed graphs")
        return ["in", "out"]
    return [choice]


def _score(graph: Graph, dc_names, base_names, alphas, directions, args):
    """Score vectors in output order: the DC metrics for each direction,
    then each alpha, in the order asked; then the baselines."""
    if dc_names:
        for direction in directions:
            for a in alphas:
                computed = all_distinctiveness(
                    graph, alpha=a, direction=direction,
                    relaxed_alpha=getattr(args, "relaxed_alpha", False), metrics=tuple(dc_names),
                )
                yield from (computed[name] for name in dc_names)
    for name in base_names:
        yield baseline(graph, name, weighted=args.weighted)


def _cmd_compute(args) -> int:
    graph = _load_graph(args)
    dc_names, base_names = _parse_metrics(args.metrics)
    alphas = _parse_alphas(args.alpha)
    directions = _directions(graph, args.direction)
    if args.normalize and base_names:
        raise DCMetricsError("--normalize applies only to d1..d5 (baselines have no analytic bounds)")
    if args.normalize and graph.directed:
        raise DCMetricsError("--normalize applies only to undirected graphs (the bounds are derived for them)")

    vectors = _score(graph, dc_names, base_names, alphas, directions, args)
    if args.normalize:
        prof = profile(graph)  # only the bounds read it
        vectors = (
            normalize(v, bounds(v.metric, prof.n, prof.min_weight, prof.max_weight, v.alpha,
                                relaxed_alpha=args.relaxed_alpha))
            for v in vectors
        )
    table = ResultTable.from_vectors(list(vectors))  # every vector is scored before the output opens
    _emit(args, table.json_blocks() if args.format == "json" else table.csv_blocks())
    return 0


def _cmd_bounds(args) -> int:
    rec = bounds(args.metric, args.n, args.min_weight, args.max_weight, args.alpha)
    sys.stdout.write(f"lower={rec.lower:g} upper={rec.upper:g}\n")
    return 0


def _one_vector(graph: Graph, dc_names, base_names, args, command: str) -> CentralityVector:
    """The one metric of a single-metric command, scored on ``graph``: a
    DC metric needs an explicit side on directed input."""
    if dc_names and graph.directed and args.direction == "auto":
        raise DCMetricsError(f"directed graph: {command} needs --direction in or --direction out")
    (vec,) = _score(graph, dc_names, base_names, [args.alpha], _directions(graph, args.direction), args)
    return vec


def _cmd_rank(args) -> int:
    graph = _load_graph(args)
    dc_names, base_names = _parse_metrics(args.metric)
    if len(dc_names) + len(base_names) != 1:
        raise DCMetricsError("rank takes exactly one metric")
    vec = _one_vector(graph, dc_names, base_names, args, "rank")
    ranking = rank(vec, tie_rule=args.tie_rule)
    order = np.argsort(ranking.ranks, kind="stable")  # ties keep node order
    labels = [ranking.labels[i] for i in order.tolist()]
    ranks, scores = ranking.ranks[order].tolist(), np.asarray(vec.values, dtype=np.float64)[order]
    template = ("%d" if args.tie_rule == "competition" else "%.17g") + ",%s%s"
    blocks = ["rank,node,score\n"]
    for part in _blocks(len(labels)):
        rows = zip(ranks[part], labels[part], _csv_cells(scores[part, None]))
        blocks.append("".join(map(template.__mod__, rows)))
    _emit(args, blocks)
    return 0


def _cmd_compare(args) -> int:
    graph = _load_graph(args)
    dc_names, base_names = _parse_metrics(args.metrics)
    if args.input2:
        if len(dc_names) + len(base_names) != 1:
            raise DCMetricsError("comparing two graphs takes exactly one metric")
        other = _read_graph(args.input2)
        # spearman pairs the two graphs' scores by node label
        vectors = [_one_vector(g, dc_names, base_names, args, "two-graph compare") for g in (graph, other)]
        names = [f"{vec.metric}@{tag}" for vec, tag in zip(vectors, "ab")]
        rho = [[spearman(vx, vy) for vy in vectors] for vx in vectors]
    else:
        from .stats import _ranked, _rho_matrix

        directions = _directions(graph, args.direction)
        vectors = list(_score(graph, dc_names, base_names, [args.alpha], directions, args))
        names = [v.metric + (f"-{v.direction}" if v.direction != "undirected" else "") for v in vectors]
        # every vector scores graph.nodes in order, so each is ranked once
        ranks = _ranked(np.stack([v.values for v in vectors]))
        rho = _rho_matrix(ranks, ranks).tolist()
    lines = ["metric," + ",".join(names)]
    lines += [name + "," + ",".join(f"{r:.6g}" for r in row) for name, row in zip(names, rho)]
    _emit(args, ["\n".join(lines) + "\n"])
    return 0


def _cmd_generate(args) -> int:
    seed = _default_seed(args.seed)
    params = GeneratorParams(
        n=args.n, m_attach=args.m_attach,
        weight_low=args.weight_low, weight_high=args.weight_high, seed=seed,
    )
    graph = barabasi_albert(params)
    header = (
        f"# barabasi-albert n={params.n} m_attach={params.m_attach} "
        f"weights=[{params.weight_low},{params.weight_high}] seed={seed}\n"
    )
    _emit(args, [header, write_edge_list(graph)])
    return 0


def _cmd_sweep(args) -> int:
    seed = _default_seed(args.seed)
    params = GeneratorParams(n=args.n, m_attach=args.m_attach,
                             weight_low=args.weight_low, weight_high=args.weight_high)
    alphas = tuple(_parse_alphas(args.alphas))
    sweep = correlation_sweep(params, args.ensemble, alphas, seed=seed)
    lines = [
        f"# sweep seed={seed} ensemble={args.ensemble}",
        f"# generator n={args.n} m_attach={args.m_attach} weights=[{args.weight_low},{args.weight_high}]",
        "dc_metric,baseline,alpha,mean_spearman",
    ]
    for d, b, a, rho in sweep.rows():
        lines.append(f"{d},{b},{a:g},{rho:.6g}")
    _emit(args, ["\n".join(lines) + "\n"])
    if args.svg:
        series = []
        for d in sweep.dc_metrics:
            for b in sweep.baselines:
                pts = [(a, sweep.mean(d, b, a)) for a in sweep.alphas]
                series.append((f"{d} vs {b}", pts))
        svg = render_line_chart(
            series, title="mean Spearman correlation vs alpha",
            x_label="alpha", y_label="mean Spearman rho",
        )
        Path(args.svg).write_text(svg, encoding="utf-8")
    return 0


def _cmd_datasets(args) -> int:
    if args.export_dir:
        directory = Path(args.export_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for name in DATASET_NAMES:
            (directory / f"{name}.tsv").write_text(
                write_edge_list(builtin_dataset(name)), encoding="utf-8"
            )
        _emit(args, [f"exported {len(DATASET_NAMES)} datasets to {directory}\n"])
        return 0
    lines = []
    for name in DATASET_NAMES:
        g = builtin_dataset(name)
        kind = "directed" if g.directed else "undirected"
        lines.append(f"{name}: {g.n} nodes, {g.edge_count} {'arcs' if g.directed else 'edges'}, {kind}\n")
    _emit(args, lines)
    return 0


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="edge-list or GEXF file")
    src.add_argument("--dataset", choices=DATASET_NAMES, help="built-in dataset")


def _compute_arguments(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p)
    p.add_argument("--metrics", default="dc", help="comma list of d1..d5, baseline names, dc, baselines, all")
    p.add_argument("--alpha", default="1", help="comma list of alpha values")
    p.add_argument("--direction", default="auto", choices=("auto", *DIRECTIONS, "both"))
    p.add_argument("--normalize", action="store_true", help="map DC scores through their analytic bounds")
    p.add_argument("--weighted", action="store_true", help="weighted variants of baseline metrics")
    p.add_argument("--relaxed-alpha", action="store_true", help="allow 0 < alpha < 1")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("-o", "--output")


def _bounds_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", required=True, choices=METRICS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--min-weight", type=float, default=1.0)
    p.add_argument("--max-weight", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)


def _rank_arguments(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p)
    p.add_argument("--metric", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--direction", default="auto", choices=("auto", *DIRECTIONS))
    p.add_argument("--tie-rule", default="competition", choices=TIE_RULES)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("-o", "--output")


def _compare_arguments(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p)
    p.add_argument("--input2", help="second edge-list or GEXF file (single-metric two-graph mode)")
    p.add_argument("--metrics", default="dc")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--direction", default="auto", choices=("auto", *DIRECTIONS))
    p.add_argument("--weighted", action="store_true")
    p.add_argument("-o", "--output")


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m-attach", required=True, type=int)
    p.add_argument("--weight-low", type=int, default=1)
    p.add_argument("--weight-high", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")


def _sweep_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--m-attach", type=int, default=2)
    p.add_argument("--weight-low", type=int, default=1)
    p.add_argument("--weight-high", type=int, default=20)
    p.add_argument("--ensemble", type=int, default=100)
    p.add_argument("--alphas", default="1,2,5")
    p.add_argument("--seed", type=int)
    p.add_argument("--svg", help="also render the sweep as an SVG line chart")
    p.add_argument("-o", "--output")


def _datasets_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--export-dir", help="write each dataset as an edge-list file into this directory")


# name, help, argument adder and handler of each subcommand, in --help order
_COMMANDS = (
    ("compute", "score nodes with DC metrics and/or baselines", _compute_arguments, _cmd_compute),
    ("bounds", "analytic lower/upper bounds for a metric", _bounds_arguments, _cmd_bounds),
    ("rank", "rank nodes under one metric", _rank_arguments, _cmd_rank),
    ("compare", "Spearman correlation matrix of metrics (or of two graphs)", _compare_arguments, _cmd_compare),
    ("generate", "seeded Barabasi-Albert graph as an edge list", _generate_arguments, _cmd_generate),
    ("sweep", "mean DC/baseline correlation across a BA ensemble, per alpha", _sweep_arguments, _cmd_sweep),
    ("datasets", "list or export the built-in datasets", _datasets_arguments, _cmd_datasets),
)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of ``argv``. Every subcommand is registered by name and
    help, but only the one ``argv`` names gets its arguments: the first
    token not starting with "-", since the top level's options take no
    value. Where ``argv`` names none (or is None), every subcommand gets
    them."""
    command = next((token for token in argv or () if not token.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="dcmetrics",
        description="Distinctiveness centrality metrics, bounds, baselines, and ensemble analysis.",
    )
    parser.add_argument("--version", action="version", version=f"dcmetrics {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, add_arguments, handler in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        if command in (None, name):
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DCMetricsError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run_cli()
    # the objects left are freed by reference count at exit; frozen, they are
    # not walked again by the shutdown's collections. The development mode
    # keeps the full shutdown, and with it the warnings about unclosed files
    if not sys.flags.dev_mode:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
