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

CSV cells are the bytes of ``"%.6g" % x``, made in arrays a block of rows
at a time (``_csv_cells``), by the fixed-precision argument of Adams,
"Ryu Revisited: printf Floating Point Conversion" (OOPSLA 2019): scale
once by an exact power of ten, and leave near-ties to the exact routine.
Each cell's exponent e is ``floor(log10|x|)``, and ``s = |x| * 10**(5 - e)``
comes from one multiply or divide by an exact power of ten
(``|5 - e| <= 22``), so ``s`` is the exact product rounded once: within
2**-33 of it while ``s < 2**20``. Where ``|s - r| < 0.5 - 1e-9`` for
``r = rint(s)``, r is the exact product's rounding, and where also
``s >= 1e5`` and ``r <= 1e6`` it is the six digits the correctly rounded
``%`` gives at exponent e (1e6: 100000 at e + 1), whatever the last bits
of ``log10`` (an e one off leaves s outside that range, or at 1e5 or 1e6
where both exponents give the same text). The cells this cannot prove go
to ``%`` one at a time: NaN, +-inf, ``|x|`` outside [1e-16, 1e21)
(subnormals included), and near-ties. Zeros are written in arrays.
"""

from __future__ import annotations

import functools
import math
import re
import warnings
from collections.abc import Iterator

import numpy as np

from .distinctiveness import CentralityVector
from .errors import GraphBuildError, ParseError
from .graph import Graph, Record, _intern, _require_edges, build_graph, first_inverse, graph_from_arrays

__all__ = [
    "parse_edge_list",
    "write_edge_list",
    "parse_gexf_minimal",
    "GexfFeatureWarning",
    "ResultTable",
]


# patterns of rare inputs, compiled by their first search, not at import
_BARE_CR = r"\r(?!\n)"
_BLOCK_ROWS = 8192  # table rows (JSON: list items) per block of text; 0.4 MB of CSV at five columns
# a label the reader cannot give back (re's \s is str.isspace)
_UNWRITABLE = r"[\t\n\r]|\A[#\s]|\s\Z"


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
    bare_cr = re.search(_BARE_CR, text)
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
    bad = next(filter(re.compile(_UNWRITABLE).search, graph.nodes), None)
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


class ResultTable(Record):
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
        _BLOCK_ROWS rows, each ending in LF. Each cell is ``"%.6g" % x``
        (the text of ``format(x, ".6g")``, nan and inf included), made in
        arrays for a block's whole (rows, columns) matrix by ``_csv_cells``;
        only the cells it cannot prove (NaN, +-inf, ``|x|`` outside
        [1e-16, 1e21), near-ties) are formatted by ``%`` one at a time. The
        labels are joined to the cells in Python, so they never pass
        through bytes. A table with no columns has ``label,`` rows."""
        names = [name for name, _ in self.columns]
        values = [np.asarray(vals, dtype=np.float64) for _, vals in self.columns]
        yield "node," + ",".join(names) + "\n"
        for part in _blocks(len(self.labels)):
            labels = self.labels[part]
            cells = _csv_cells(np.column_stack([v[part] for v in values])) if values else [",\n"] * len(labels)
            rows = [""] * (2 * len(labels))  # one join of labels and cells, no string per row
            rows[0::2], rows[1::2] = labels, cells
            yield "".join(rows)

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


# the decimal exponents of a cell that _csv_cells formats, after rounding:
# |x| in [1e-16, 1e21), with one to spare at each end for floor(log10)
_EXP_LO = -17
_EXP_COUNT = 40


@functools.cache
def _cell_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of ``_csv_cells``, made by numpy at first use.

    ``digits[k]`` is the three ASCII digits of k < 1000 as a little-endian
    word; ``nd_lo[lo]`` and ``nd_hi[hi]`` give the significant digits of
    ``hi * 1000 + lo`` once trailing zeros go (the larger of the two; a
    zero has none). ``mul[e]`` and ``div[e]``, for the exponent e at
    index ``e - _EXP_LO``, are the exact powers of ten whose product and
    quotient scale ``|x|`` to six integer digits. A cell's kind is its
    sign, exponent and significant digits, ``(sign * _EXP_COUNT + e -
    _EXP_LO) * 7 + nd``; for each kind, ``word_lo`` and ``word_hi`` hold the
    16 bytes of its text other than the digits (",", "-", "0.00", the
    point, "e+05"), NUL where the digits go, ``head`` and ``tail`` mask
    the digits before and after the point (``tail`` already moved up a
    byte, past the point), and ``shift`` is the bit offset of the first
    digit. A kind whose nd is 0 is a zero, written "0"."""
    k = np.arange(1000)
    digits = ((48 + k // 100) | (48 + k // 10 % 10) << 8 | (48 + k % 10) << 16).astype(np.uint64)
    zeros = (k % 10 == 0).astype(np.intp) + (k % 100 == 0) + (k == 0)
    nd_lo, nd_hi = np.where(k == 0, 0, 6 - zeros), 3 - zeros
    scale = 5 - np.arange(_EXP_LO, _EXP_LO + _EXP_COUNT)
    powers = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 1e0..1e22, each exact
    mul, div = powers[np.maximum(scale, 0)], powers[np.maximum(-scale, 0)]

    neg, e, nd = np.indices((2, _EXP_COUNT, 7)).reshape(3, -1, 1)
    e = np.where(nd == 0, 0, e + _EXP_LO)
    expo = (e < -4) | (e > 5)  # %g's exponent form
    small = ~expo & (e < 0)  # "0.", -e - 1 zeros, then the digits
    head = np.where(expo, 1, np.where(small, nd, e + 1))  # digits before the point
    shown = np.where(small, nd, np.maximum(nd, head))  # the integer digits are never stripped
    point = shown > head
    first = 1 + neg + np.where(small, 1 - e, 0)  # byte offset of the first digit
    at = first + shown + point  # where the exponent goes
    col = np.arange(16)
    text = np.select(  # the first condition that holds gives the byte
        [col == 0, col == neg, small & (col == neg + 2), (col > neg) & (col < first), point & (col == first + head),
         expo & (col == at), expo & (col == at + 1), expo & (col == at + 2), expo & (col == at + 3)],
        [ord(","), ord("-"), ord("."), ord("0"), ord("."),
         ord("e"), np.where(e < 0, ord("-"), ord("+")), 48 + abs(e) // 10, 48 + abs(e) % 10],
    ).astype(np.uint8)
    words = text.view("<u8").astype(np.uint64)
    head_mask = (np.uint64(1) << (8 * head.ravel()).astype(np.uint64)) - np.uint64(1)
    tail_mask = ((np.uint64(1) << (8 * shown.ravel()).astype(np.uint64)) - np.uint64(1) - head_mask) << np.uint64(8)
    return (digits, nd_lo, nd_hi, mul, div, words[:, 0].copy(), words[:, 1].copy(), head_mask, tail_mask,
            (8 * first.ravel()).astype(np.uint64))


def _csv_cells(values: np.ndarray) -> list[str]:
    """The cells of each row of a (rows, columns) float64 matrix with at
    least one column, one string per row, ending in LF: ``"".join("," +
    "%.6g" % x for x in row) + "\\n"``.

    Each cell is two little-endian words, its text, NUL-padded: the kind's
    constant bytes from ``_cell_tables`` with the six digits of
    ``rint(|x| * 10**(5 - e))`` (see the module docstring) laid in from
    the three-digit table, the stripped trailing zeros masked out. One
    ``translate`` drops the NULs of the whole matrix, and the last byte of
    each row's last cell, never used by a cell's text (14 bytes at most),
    is the LF that splits the rows. Zeros are written in arrays; the cells
    the arrays cannot prove go through ``_percent_cells``."""
    digits, nd_lo, nd_hi, mul, div, word_lo, word_hi, head, tail, shift = _cell_tables()
    a = np.abs(values)
    fast = (a >= 1e-16) & (a < 1e21)
    a = np.where(fast, a, 1.0)  # log10 never sees 0, nan or inf
    e = np.clip(np.floor(np.log10(a)), _EXP_LO, _EXP_LO + _EXP_COUNT - 2).astype(np.intp) - _EXP_LO
    s = a * mul[e] / div[e]  # one of the two is 1.0: one rounding
    r = np.rint(s)
    fast &= np.abs(s - r) < 0.5 - 1e-9  # then r is the exact product's rounding
    fast &= (s >= 1e5) & (r <= 1e6)  # six digits, or 10**6 at a carry, whatever e log10 gave
    r *= fast  # zeros, and the cells left to %, read as 0
    carry = r == 1e6  # 10**6 is 100000 at the next exponent
    e += carry
    r -= 9e5 * carry
    hi = (r * 0.001).astype(np.intp)  # 0.001 rounds up, so the truncation is exact
    lo = r.astype(np.intp) - 1000 * hi
    kind = np.maximum(nd_lo[lo], nd_hi[hi])
    kind += 7 * e + 7 * _EXP_COUNT * np.signbit(values)
    six = digits[hi] | digits[lo] << 24
    six = six & head[kind] | (six << 8) & tail[kind]
    at = shift[kind]
    cells = np.empty(values.shape + (2,), "<u8")
    np.bitwise_or(word_lo[kind], six << at, out=cells[..., 0])
    np.bitwise_or(word_hi[kind], six >> (64 - at), out=cells[..., 1])
    slow = np.nonzero(~fast & (values != 0))
    if slow[0].size:
        cells[slow] = np.frombuffer(_percent_cells(values[slow].tolist()), "<u8").reshape(-1, 2)
    cells[:, -1, 1] |= ord("\n") << 56
    return cells.tobytes().translate(None, b"\0").decode("ascii").splitlines(keepends=True)


def _percent_cells(values: list[float]) -> bytes:
    """The cells of ``values`` by ``%``, 16 NUL-padded bytes each."""
    return b"".join(("," + "%.6g" % x).encode().ljust(16, b"\0") for x in values)


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
