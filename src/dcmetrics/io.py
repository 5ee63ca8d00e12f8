r"""File formats: tab-separated edge lists, a minimal GEXF subset, and
CSV/JSON result tables. A ResultTable holds the score arrays and writes
its CSV and JSON as a stream of text blocks (``csv_blocks``,
``json_blocks``), so the text of the whole table never has to exist.

Edge-list format (UTF-8, LF, '.' decimal point regardless of locale):

    # comment
    undirected            <- optional directive on the first data line
    A<TAB>B<TAB>2.5       <- edge; weight optional, defaults to 1
    Z                     <- single field: declares an isolated node

Lines end at "\n" only. The "\r" of a CRLF line is stripped with the
other surrounding whitespace; any other "\r" is a ParseError (text decoded
as text mode decodes it, as the CLI reads files, holds none). The other
characters ``str.splitlines`` breaks at ("\x0c", "\x1c", "\x85", "\u2028", ...)
are label characters: a label with one between other characters
survives a write/parse round trip (``strip`` removes one at either end).

Two readers build the same Graph. ``parse_edge_list`` runs the array reader
of ``dcmetrics.bytereader`` (imported by the first parse, so commands that
read no file do not load it) over the text's UTF-8 bytes, in blocks of
whole lines: one numpy scan finds a block's tabs and LFs together, and
ASCII whitespace (bytes 9-13 and 28-32, what ``str.strip`` removes from
ASCII text) is stripped on offset arrays, from the fields only in a block
that holds a byte up to 0x20 besides tab and LF. Labels are interned by a hash of
their bytes taken a word (8 bytes) at a time, and every field is checked
against the first field of its hash group on the bytes themselves (length
and last 8 bytes, then the earlier bytes a word at a time), so that only the
distinct labels become Python strings. Weights written as 1 to 15 ASCII
digits, with or without a decimal point, are read in arrays, every other
weight text by ``float()``.
It hands the document to the line-by-line reader when that reader would
raise (any ParseError, a bare CR, no edges), when the text holds a
whitespace character above U+007F (``str.strip`` removes those, byte
stripping would not), and on a hash collision, so errors, messages and
line numbers are the loop's.
"""

from __future__ import annotations

import math
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .distinctiveness import CentralityVector
from .errors import GraphBuildError, ParseError
from .graph import Graph, _intern, _require_edges, build_graph, first_inverse, graph_from_arrays

__all__ = [
    "parse_edge_list",
    "write_edge_list",
    "parse_gexf_minimal",
    "GexfFeatureWarning",
    "ResultTable",
]


_BARE_CR = re.compile(r"\r(?!\n)")
_BLOCK_ROWS = 8192  # table rows (JSON: list items) per block of text; 0.4 MB of CSV at five columns
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
    if not sources:
        raise GraphBuildError(_bare_labels_only(text, declared))
    w = np.array(weights, dtype=np.float64)
    del weights  # frees the float objects before the build's peak
    labels, src, dst = _intern(tuple(declared), sources, targets)
    return graph_from_arrays(labels, src, dst, w, directed)


def _bare_labels_only(text: str, declared: list[str]) -> str:
    """The error for a document whose data lines, after any directive, are
    all bare labels: how many, and the first that holds a space, as a line
    of space-separated fields would."""
    k = len(declared)
    message = (f"empty edge list: a graph needs at least one edge; found {k} bare-label "
               f"line{'s' if k > 1 else ''} with no tab (fields are tab-separated)")
    spaced = next((label for label in declared if " " in label), None)
    if spaced is not None:  # its declaration is the first line that strips to it
        lineno = next(i for i, line in enumerate(text.split("\n"), start=1) if line.strip() == spaced)
        message += f"; line {lineno} holds a space: {spaced!r}"
    return message


def write_edge_list(graph: Graph) -> str:
    """Serialize a Graph to the edge-list format.

    Emits the directedness directive, then the edges; when the edge order
    alone would not reproduce the graph's node order on re-parse (isolates,
    or nodes first touched out of sequence), every node is declared up
    front. parse(write(g)) then has g's nodes in order, its direction and
    its ``edges()``; the order of neighbours within a CSR row can differ,
    and with it the last bits of per-row sums such as strengths.

    Raises ValueError on a graph without edges, whose document the reader
    would refuse, and on a node label the reader could not give back, naming
    the first: one holding a tab, LF or CR, starting with "#", or starting
    or ending with whitespace (which ``str.strip`` removes).
    """
    _require_edges(graph)
    bad = next(filter(_UNWRITABLE.search, graph.nodes), None)
    if bad is not None:
        raise ValueError(
            f"node label {bad!r} cannot be written to an edge list: labels must not hold "
            f"a tab, LF or CR, start with '#', or start or end with whitespace"
        )
    src, dst, w = graph._edge_arrays()
    ends = np.empty(2 * src.size, dtype=src.dtype)
    ends[0::2], ends[1::2] = src, dst
    first, _ = first_inverse(ends)  # each node's first position as an endpoint
    lines = ["directed" if graph.directed else "undirected"]
    if first.size != graph.n or np.any(first[1:] < first[:-1]):
        lines.extend(graph.nodes)
    label = graph.nodes.__getitem__
    edges = zip(map(label, src.tolist()), map(label, dst.tolist()), w.tolist())
    lines.extend(map("%s\t%s\t%r".__mod__, edges))
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
    import xml.etree.ElementTree as ET  # here, so that commands reading no GEXF never load it

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
    node order is graph order. Each column is a name and a float64 array
    of scores (``from_vectors`` keeps the vectors' arrays, not copies)."""

    labels: tuple[str, ...]
    columns: tuple[tuple[str, np.ndarray], ...]

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
            columns=tuple((_column_name(v), np.asarray(v.values, dtype=np.float64)) for v in vectors),
        )

    def csv_blocks(self) -> Iterator[str]:
        """The text of ``to_csv``: the header line, then blocks of
        _BLOCK_ROWS rows, each ending in LF. A block formats its rows from
        ``tolist()`` slices of the columns through one %-template;
        ``"%.6g" % x`` gives the same text as ``format(x, ".6g")`` for every
        float, nan and inf included."""
        names = [name for name, _ in self.columns]
        values = [np.asarray(vals, dtype=np.float64) for _, vals in self.columns]
        template = "%s," + ",".join(["%.6g"] * len(names))
        yield "node," + ",".join(names) + "\n"
        for part in _blocks(len(self.labels)):
            rows = zip(self.labels[part], *(v[part].tolist() for v in values))
            yield "\n".join(map(template.__mod__, rows)) + "\n"

    def to_csv(self) -> str:
        """CSV with 6-significant-digit cells, ',' separators, LF endings."""
        return "".join(self.csv_blocks())

    def to_json(self) -> str:
        """JSON with full double precision."""
        return "".join(self.json_blocks())

    def json_blocks(self) -> Iterator[str]:
        """The text of ``to_json``, in blocks of up to _BLOCK_ROWS labels or
        values: the bytes ``json.dumps`` gives the nodes and ``tolist()``
        columns with ``indent=2``. Labels and names are quoted by the
        encoder json uses, values written by ``float.__repr__``, non-finite
        ones as NaN, Infinity and -Infinity."""
        # the string encoder of json.dumps, imported here so that CSV output never loads json
        from json.encoder import encode_basestring_ascii as quote

        labels = self.labels
        yield '{\n  "nodes": '
        yield from _json_array((list(map(quote, labels[part])) for part in _blocks(len(labels))), 4)
        yield ',\n  "columns": ' + ("[" if self.columns else "[]")
        for k, (name, vals) in enumerate(self.columns):
            yield (",\n" if k else "\n") + '    {\n      "name": ' + quote(name) + ',\n      "values": '
            vals = np.asarray(vals, dtype=np.float64)
            yield from _json_array((_json_floats(vals[part]) for part in _blocks(vals.size)), 8)
            yield "\n    }"
        yield "\n  ]\n}\n" if self.columns else "\n}\n"


def _blocks(size: int) -> Iterator[slice]:
    """Slices of _BLOCK_ROWS items that cover ``size`` items."""
    return (slice(lo, lo + _BLOCK_ROWS) for lo in range(0, size, _BLOCK_ROWS))


def _json_array(parts: Iterator[list[str]], indent: int) -> Iterator[str]:
    """An array as ``json.dumps(..., indent=2)`` lays it out at ``indent``
    spaces, from its items' texts in parts: "[]" when empty."""
    sep = ",\n" + " " * indent
    opened = False
    for items in parts:
        yield ("[\n" + " " * indent if not opened else sep) + sep.join(items)
        opened = True
    yield "\n" + " " * (indent - 2) + "]" if opened else "[]"


def _json_floats(values: np.ndarray) -> list[str]:
    """The JSON text of each value, as ``json.dumps`` writes it."""
    texts = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = "NaN" if texts[i] == "nan" else "Infinity" if texts[i] == "inf" else "-Infinity"
    return texts
