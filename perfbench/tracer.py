"""Run the dcmetrics CLI in this process and write its timing as JSON.

    PYTHONPATH=src python perfbench/tracer.py OUT.json [--no-trace] -- <dcmetrics arguments>

With tracing on, the calls that cross a module boundary are wrapped before
`run_cli` starts: each public function is replaced under the name its
calling module binds (``dcmetrics.cli.parse_edge_list``,
``dcmetrics.io.build_graph``, ``dcmetrics.stats.spearman`` ...), and the
methods ``ResultTable.from_vectors/to_csv/to_json`` and ``Graph.edges`` on
their classes. No source file is edited. Spans (name, start, end, parent
index) are kept in memory and written at exit, with a few counters taken
from the wrapped calls' arguments and results. With ``--no-trace`` only
the in-process total is timed, so the two runs together give the tracing
overhead.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    def _start(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.remove(index)

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def wrap(self, fn, name, after=None):
        """Wrap ``fn`` in a span. ``name`` is a string or a function of the
        call's arguments; ``after(args, kwargs, result)`` updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._start(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """Span from the first item to exhaustion of a generator function."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._start(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self._end(index)

        return traced


def _csr_bytes(graph) -> int:
    arrays = (graph.indptr, graph.indices, graph.weights,
              graph.in_indptr, graph.in_indices, graph.in_weights)
    return sum(a.nbytes for a in arrays if a is not None)


def install(tracer: Tracer) -> None:
    """Wrap the calls between the package's modules."""
    from dcmetrics import baselines, cli, generators, graph, io, stats

    def built(args, kwargs, g):
        tracer.count("graph.merged_edges", g.build_report.merged_edges)
        tracer.count("graph.self_loops_dropped", g.build_report.self_loops_dropped)
        tracer.count("graph.csr_bytes", _csr_bytes(g))

    def scored(args, kwargs, result):
        g = args[0] if args else kwargs["graph"]
        tracer.count("distinctiveness.arc_entries", g.indices.size)

    def baseline_name(args, kwargs):
        return "baselines." + (args[1] if len(args) > 1 else kwargs["metric"])

    targets = [
        (cli, "parse_edge_list", "io.parse_edge_list", None),
        (cli, "write_edge_list", "io.write_edge_list", None),
        (cli, "profile", "graph.profile", None),
        (cli, "all_distinctiveness", "distinctiveness.all_distinctiveness", scored),
        (cli, "baseline", baseline_name, None),
        (cli, "barabasi_albert", "generators.barabasi_albert", None),
        (cli, "correlation_sweep", "stats.correlation_sweep", None),
        (cli, "spearman", "stats.spearman", None),
        (cli, "render_line_chart", "svgchart.render_line_chart", None),
        (io, "build_graph", "graph.build_graph", built),
        (generators, "build_graph", "graph.build_graph", built),
        (stats, "barabasi_albert", "generators.barabasi_albert", None),
        (stats, "baseline", baseline_name, None),
        (stats, "all_distinctiveness", "distinctiveness.all_distinctiveness", scored),
        (stats, "spearman", "stats.spearman", None),
        (baselines, "is_connected", "graph.is_connected", None),
    ]
    for module, attr, name, after in targets:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, after))
    table = io.ResultTable
    table.from_vectors = classmethod(tracer.wrap(table.from_vectors.__func__, "io.from_vectors"))
    table.to_csv = tracer.wrap(table.to_csv, "io.to_csv")
    table.to_json = tracer.wrap(table.to_json, "io.to_json")
    graph.Graph.edges = tracer.wrap_generator(graph.Graph.edges, "graph.edges")


def main(argv: list[str]) -> int:
    out_path, flags, cli_args = argv[0], argv[1:argv.index("--")], argv[argv.index("--") + 1:]
    from dcmetrics.cli import run_cli

    tracer = Tracer()
    if "--no-trace" not in flags:
        install(tracer)
        run_cli = tracer.wrap(run_cli, "cli.run_cli")
    start = time.perf_counter()
    code = run_cli(cli_args)
    total = time.perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"exit_code": code, "total_s": total, "spans": tracer.spans,
                   "counters": tracer.counters}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
