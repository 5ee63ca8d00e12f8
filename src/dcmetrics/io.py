r"""File formats: tab-separated edge lists, a minimal GEXF subset, and
CSV/JSON result tables.

Edge-list format (UTF-8, LF, '.' decimal point regardless of locale):

    # comment
    undirected            <- optional directive on the first data line
    A<TAB>B<TAB>2.5       <- edge; weight optional, defaults to 1
    Z                     <- single field: declares an isolated node

Lines end at "\n" only. The "\r" of a CRLF line is stripped with the
other surrounding whitespace; any other "\r" is a ParseError (text read
in text mode, as the CLI reads files, holds none). The other characters
``str.splitlines`` breaks at ("\x0c", "\x1c", "\x85", "\u2028", ...)
are label characters: a label with one between other characters
survives a write/parse round trip (``strip`` removes one at either end).

Two readers build the same Graph. ``parse_edge_list`` runs the array reader
of ``dcmetrics.bytereader`` (imported by the first parse, so commands that
read no file do not load it) over the text's UTF-8 bytes: numpy finds the line and tab boundaries and
strips ASCII whitespace (bytes 9-13 and 28-32, what ``str.strip`` removes
from ASCII text) on offset arrays; labels are interned by a hash of their
bytes, checked byte for byte, so that only the distinct labels become
Python strings. Weights written as 1 to 15 ASCII digits, with or without a
decimal point, are read in arrays, every other weight text by ``float()``.
It hands the document to the line-by-line reader when that reader would
raise (any ParseError, a bare CR, no edges), when the text holds a
whitespace character above U+007F (``str.strip`` removes those, byte
stripping would not), and on a hash collision, so errors, messages and
line numbers are the loop's.
"""

from __future__ import annotations

import json
import math
import re
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from .distinctiveness import CentralityVector
from .errors import ParseError
from .graph import Graph, _intern, build_graph, graph_from_arrays

__all__ = [
    "parse_edge_list",
    "write_edge_list",
    "parse_gexf_minimal",
    "GexfFeatureWarning",
    "ResultTable",
]


_BARE_CR = re.compile(r"\r(?!\n)")
# a label the reader cannot give back (re's \s is str.isspace)
_UNWRITABLE = re.compile(r"[\t\n\r]|\A[#\s]|\s\Z")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format above into a Graph."""
    from .bytereader import read_edge_list  # here, so that commands parsing no file never load it

    graph = read_edge_list(text)
    return _parse_lines(text) if graph is None else graph


def _parse_lines(text: str) -> Graph:
    """The line-by-line reader: the reference for the array reader, and the
    reader of every document that one leaves to it."""
    directed = False
    first_data_line = True
    sources: list[str] = []
    targets: list[str] = []
    weights: list[float] = []
    declared: list[str] = []
    bare_cr = _BARE_CR.search(text)
    if bare_cr:
        lineno = text.count("\n", 0, bare_cr.start()) + 1
        raise ParseError("carriage return without a line feed: lines end at LF or CRLF", lineno)
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        fields = line.split("\t")
        count = len(fields)
        if first_data_line:
            first_data_line = False
            if count == 1:
                if stripped in ("directed", "undirected"):
                    directed = stripped == "directed"
                    continue
                raise ParseError(
                    f"unknown directive {stripped!r}: the first line must be "
                    f"'directed', 'undirected', or an edge",
                    lineno,
                )
        if count == 1:
            # single field after the first line: an isolated-node declaration
            declared.append(stripped)
            continue
        if count not in (2, 3):
            raise ParseError(f"expected 1-3 tab-separated fields, got {count}", lineno)
        src, dst = fields[0].strip(), fields[1].strip()
        if not src or not dst:
            raise ParseError("empty node label", lineno)
        if count == 3:
            try:
                w = float(fields[2])
            except ValueError:
                raise ParseError(f"bad weight {fields[2]!r}", lineno) from None
            if not 0.0 < w < math.inf:
                rule = "positive" if math.isfinite(w) else "finite"
                raise ParseError(f"weight must be {rule}, got {fields[2]}", lineno)
        else:
            w = 1.0
        sources.append(src)
        targets.append(dst)
        weights.append(w)
    if not sources and not declared:
        raise ParseError("document contains no edges")
    w = np.array(weights, dtype=np.float64)
    del weights  # frees the float objects before the build's peak
    labels, src, dst = _intern(tuple(declared), sources, targets)
    return graph_from_arrays(labels, src, dst, w, directed)


def write_edge_list(graph: Graph) -> str:
    """Serialize a Graph to the edge-list format.

    Emits the directedness directive, then the edges; when the edge order
    alone would not reproduce the graph's node order on re-parse (isolates,
    or nodes first touched out of sequence), every node is declared up
    front. parse(write(g)) then has g's nodes in order, its direction and
    its ``edges()``; the order of neighbours within a CSR row can differ,
    and with it the last bits of per-row sums such as strengths.

    Raises ValueError naming the first node label the reader could not give
    back: one holding a tab, LF or CR, starting with "#", or starting or
    ending with whitespace (which ``str.strip`` removes).
    """
    bad = next(filter(_UNWRITABLE.search, graph.nodes), None)
    if bad is not None:
        raise ValueError(
            f"node label {bad!r} cannot be written to an edge list: labels must not hold "
            f"a tab, LF or CR, start with '#', or start or end with whitespace"
        )
    edges = list(graph.edges())
    appearance: list[str] = []
    seen: set[str] = set()
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


class GexfFeatureWarning(UserWarning):
    """A GEXF feature outside the supported subset was ignored."""


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_gexf_minimal(text: str) -> Graph:
    """Parse a minimal GEXF 1.x document: nodes, edges, edge weights, and
    defaultedgetype. Dynamics, hierarchy, attributes, and visual styling are
    ignored with a GexfFeatureWarning each. Node identity is the node id.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"not well-formed XML: {exc}") from None
    graph_el = None
    for el in root.iter():
        if _localname(el.tag) == "graph":
            graph_el = el
            break
    if graph_el is None:
        raise ParseError("no <graph> element found")

    mode = graph_el.get("defaultedgetype", "undirected")
    if mode not in ("directed", "undirected"):
        warnings.warn(GexfFeatureWarning(f"defaultedgetype={mode!r} not supported, treating as undirected"))
        mode = "undirected"
    directed = mode == "directed"
    if graph_el.get("mode") == "dynamic" or graph_el.get("timeformat"):
        warnings.warn(GexfFeatureWarning("dynamic graph attributes ignored"))

    node_ids: list[str] = []
    known: set[str] = set()
    edges: list[tuple[str, str, float]] = []
    ignored: set[str] = set()

    for el in graph_el.iter():
        name = _localname(el.tag)
        if name == "node":
            nid = el.get("id")
            if nid is None:
                raise ParseError("<node> without id attribute")
            if nid not in known:
                known.add(nid)
                node_ids.append(nid)
            for child in el:
                cname = _localname(child.tag)
                if cname == "nodes":
                    ignored.add("nested node hierarchies")
                elif cname == "attvalues":
                    ignored.add("node attvalues")
                elif cname not in ("node",):
                    ignored.add(f"node child <{cname}>")
        elif name == "edge":
            src, dst = el.get("source"), el.get("target")
            if src is None or dst is None:
                raise ParseError("<edge> without source/target")
            if el.get("start") or el.get("end"):
                ignored.add("dynamic edge spells")
            if el.get("type") not in (None, mode):
                ignored.add("per-edge type overrides")
            w = el.get("weight")
            try:
                weight = float(w) if w is not None else 1.0
            except ValueError:
                raise ParseError(f"bad edge weight {w!r}") from None
            edges.append((src, dst, weight))
        elif name in ("attributes", "attvalues"):
            ignored.add("attribute definitions")

    for src, dst, _ in edges:
        for ref in (src, dst):
            if ref not in known:
                raise ParseError(f"edge references missing node {ref!r}")
    for feature in sorted(ignored):
        warnings.warn(GexfFeatureWarning(f"{feature} ignored"))
    return build_graph(edges, directed=directed, nodes=node_ids)


def _column_name(vector: CentralityVector) -> str:
    name = vector.metric
    if vector.direction in ("in", "out"):
        name += f"-{vector.direction}"
    if vector.alpha is not None:
        name += f"@{vector.alpha:g}"
    if vector.normalized:
        name += ":norm"
    return name


@dataclass(frozen=True)
class ResultTable:
    """Scores laid out nodes-by-metrics; column order is insertion order,
    node order is graph order."""

    labels: tuple[str, ...]
    columns: tuple[tuple[str, tuple[float, ...]], ...]

    @classmethod
    def from_vectors(cls, vectors: list[CentralityVector]) -> "ResultTable":
        if not vectors:
            raise ValueError("need at least one vector")
        labels = vectors[0].labels
        for v in vectors[1:]:
            if v.labels != labels:
                raise ValueError("all vectors in a table must share the node set and order")
        return cls(
            labels=labels,
            columns=tuple(
                (_column_name(v), tuple(np.asarray(v.values, dtype=np.float64).tolist())) for v in vectors
            ),
        )

    def to_csv(self) -> str:
        """CSV with 6-significant-digit cells, ',' separators, LF endings.

        Every row goes through one %-template; ``"%.6g" % x`` gives the same
        text as ``format(x, ".6g")`` for every float, nan and inf included.
        """
        names = [name for name, _ in self.columns]
        template = "%s," + ",".join(["%.6g"] * len(names))
        rows = map(template.__mod__, zip(self.labels, *(vals for _, vals in self.columns)))
        return "\n".join(["node," + ",".join(names), *rows]) + "\n"

    def to_json(self) -> str:
        """JSON with full double precision."""
        payload = {
            "nodes": list(self.labels),
            "columns": [{"name": name, "values": list(vals)} for name, vals in self.columns],
        }
        return json.dumps(payload, indent=2) + "\n"
