"""Immutable weighted graphs and degree/strength profiling.

A graph is a set of labelled nodes plus positive-weight edges (or arcs).
Internally the adjacency is stored in CSR form (index pointers, neighbor
indices, weights) so that metric kernels can run vectorised over numpy
arrays; node labels are the only identity exposed to callers. Every graph
has an out- and an in-adjacency; on an undirected graph they are the same
arrays, so code reads either side without asking for the direction.

Every graph is built by one array pass, ``graph_from_arrays``: integer
endpoint and weight arrays in, CSR out, with no per-edge Python, and the
checks for an empty edge list and on merged weights. Every builder ends
there: ``build_graph`` after one pass that checks each edge in input order
and collects its endpoints and weight, then interns the labels; the
edge-list readers after interning the labels they have checked; and the
generator with its integer arrays. The build guarantees:

- node order is first appearance (pre-declared nodes, then endpoints,
  source before target), and each CSR row lists its neighbors in the order
  their edge first appears in the input;
- parallel edges are merged by adding their weights in input order, so a
  merged weight is bitwise the left-to-right float sum of its copies;
- self-loops are dropped; both cleanups are counted in the BuildReport.

Grouping and ordering go through one helper: ``_stable_order`` gives the
stable order of integer keys from one in-place value sort of the keys with
each element's position packed into their low bits (a few keys, where that
sort's fixed cost shows, take ``np.argsort``). ``first_inverse`` groups
the readers' label hashes, the parallel edges and the writer's endpoints
with it; ``_csr_rows`` orders the entries with it, and ``baselines`` its
triangle join.

The package's records (``BuildReport``, ``Graph``, ``DegreeProfile``,
``ValidationReport`` here, and those of ``distinctiveness``, ``io`` and
``stats``) are subclasses of ``Record``: a class lists its fields as
annotations, with defaults as class attributes, and gets what a frozen
dataclass would give it (construction by position or keyword,
``__post_init__``, refused assignment and deletion, a repr, ``==`` and
``hash`` over the fields, or identity with ``eq=False``), from methods that
read the field names the class stored once. Unlike ``dataclasses``, it
writes and compiles no code when the package is imported.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain, count

import numpy as np

from .errors import GraphBuildError

__all__ = ["Graph", "BuildReport", "DegreeProfile", "ValidationReport",
           "build_graph", "profile", "validate", "is_connected"]

Edge = tuple[str, str, float]


class Record:
    """Base of an immutable record whose fields are its class's annotations,
    in order; a class attribute of a field's name is its default. What a
    wrong call, an assignment or a deletion raises, and the repr, are those
    of a frozen dataclass."""

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._required = len(cls._fields) - len(cls._defaults)  # fields with defaults come last, as in a dataclass
        cls._tail = tuple(cls._defaults.values())
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or not self._required <= len(args) <= len(names):
            args = self._bind(args, kwargs)
        elif len(args) < len(names):
            args += self._tail[len(args) - len(names):]
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in field order, from the arguments and the defaults."""
        names, defaults = cls._fields, cls._defaults
        call = f"{cls.__qualname__}.__init__()"
        if len(args) > len(names):
            most = len(names) + 1  # self counts, as in the interpreter's message
            takes = f"from {most - len(defaults)} to {most}" if defaults else most
            raise TypeError(f"{call} takes {takes} positional arguments but {len(args) + 1} were given")
        values = dict(zip(names, args))
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{call} got multiple values for argument {name!r}")
        values = {**defaults, **values, **kwargs}
        missing = [repr(name) for name in names if name not in values]
        if missing:
            *head, last = missing
            listed = f"{', '.join(head)}{',' if len(head) > 1 else ''} and {last}" if head else last
            plural = "s" if head else ""
            raise TypeError(f"{call} missing {len(missing)} required positional argument{plural}: {listed}")
        return [values[name] for name in names]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


class BuildReport(Record):
    """What construction had to clean up: merged parallels and dropped self-loops."""

    merged_edges: int = 0
    self_loops_dropped: int = 0


class Graph(Record, eq=False):
    """Weighted graph, directed or undirected, immutable after construction.

    ``indptr``/``indices``/``weights`` hold the out-adjacency in CSR form,
    ``in_indptr``/``in_indices``/``in_weights`` the in-adjacency, where row
    i lists the senders j of arcs j -> i with weight w_ji. An undirected
    graph stores every edge in both endpoint rows, and its in-adjacency is
    its out-adjacency: the same three arrays, not a copy.
    """

    nodes: tuple[str, ...]
    directed: bool
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    in_weights: np.ndarray
    build_report: BuildReport = BuildReport()

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Logical edges: undirected edges are counted once, arcs individually."""
        nnz = int(self.indices.size)
        return nnz if self.directed else nnz // 2

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown node label: {label!r}") from None

    @cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self.nodes, range(self.n)))

    def weight(self, source: str, target: str) -> float:
        """Weight of the edge/arc source->target, 0.0 when absent."""
        i = self.index_of(source)
        j = self.index_of(target)
        lo = self.indptr[i]
        hit = np.flatnonzero(self.indices[lo : self.indptr[i + 1]] == j)  # merged: at most one
        return float(self.weights[lo + hit[0]]) if hit.size else 0.0

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_indptr)

    def isolate_mask(self) -> np.ndarray:
        """True for nodes with no incident edge at all (no in- and no out-arcs)."""
        mask = self.out_degrees() == 0
        if self.directed:
            mask &= self.in_degrees() == 0
        return mask

    def isolates(self) -> frozenset[str]:
        return frozenset(map(self.nodes.__getitem__, np.flatnonzero(self.isolate_mask()).tolist()))

    def edges(self) -> Iterator[Edge]:
        """Logical edge list in storage order: every arc for directed graphs,
        each undirected edge once, from the row of its lower-indexed endpoint
        (where it is first stored)."""
        return self._edges_where(None)

    def _edge_arrays(self, mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Source indices, target indices and weights of the logical edges,
        in ``edges()`` order, whose stored entries ``mask`` selects (all of
        them when it is None)."""
        rows = _entry_rows(self.indptr)
        keep = slice(None) if self.directed else self.indices > rows
        if mask is not None:
            keep = mask if self.directed else mask & keep
        return rows[keep], self.indices[keep], self.weights[keep]

    def _edges_where(self, mask: np.ndarray | None) -> Iterator[Edge]:
        src, dst, w = self._edge_arrays(mask)
        label = self.nodes.__getitem__
        return zip(map(label, src.tolist()), map(label, dst.tolist()), w.tolist())

    def total_weight(self) -> float:
        """Sum of arc weights; undirected edges are counted once. Where the
        stored entries, two per undirected edge, sum past the float limit,
        their halves are summed, so a total below it stays finite."""
        with np.errstate(over="ignore"):  # positive weights: an overflow gives inf, never nan
            s = float(self.weights.sum())
            if self.directed:
                return s
            return s / 2.0 if np.isfinite(s) else float((self.weights / 2.0).sum())


class DegreeProfile(Record, eq=False):
    """Per-node degrees and strengths plus the global quantities every
    metric needs: node count, extremal weights, total weight. On an
    undirected graph each ``in_*`` array is its ``out_*`` array, the
    degree and strength of every node."""

    labels: tuple[str, ...]
    directed: bool
    out_degree: np.ndarray
    in_degree: np.ndarray
    out_strength: np.ndarray
    in_strength: np.ndarray
    n: int
    edge_count: int
    min_weight: float
    max_weight: float
    total_weight: float

    def degree_map(self) -> dict[str, int]:
        deg = self.out_degree + self.in_degree if self.directed else self.out_degree
        return {lab: int(d) for lab, d in zip(self.labels, deg)}

    def strength_map(self) -> dict[str, float]:
        s = self.out_strength + self.in_strength if self.directed else self.out_strength
        return {lab: float(v) for lab, v in zip(self.labels, s)}


def build_graph(
    edges: Iterable[Edge],
    directed: bool = False,
    nodes: Iterable[str] = (),
) -> Graph:
    """Build a graph from (source, target, weight) triples.

    One pass over ``edges``, in input order, checks each edge and collects
    its endpoints and weight into lists; the labels are then interned and
    the adjacency built with ``graph_from_arrays``. Node order is first
    appearance: pre-declared ``nodes``, then endpoints, source before
    target; each row lists its neighbors in the order their edge first
    appears. Parallel edges merge by summing their weights in input order,
    bit for bit; self-loops are dropped. A node no edge (other than a
    self-loop) touches stays as an explicit isolate. Each input is iterated
    once, so both may be one-shot iterators.

    Raises GraphBuildError, for the first offending declared node or edge,
    on an empty label, an edge that is not a triple or a weight that is not
    strictly positive and finite; also on an empty edge list and on
    parallel edges whose sum is not finite.
    """
    nodes = tuple(nodes)
    for label in nodes:
        _check_label(label)
    sources: list[str] = []
    targets: list[str] = []
    weights: list[float] = []
    for edge in edges:
        try:
            src, dst, w = edge
        except (TypeError, ValueError):
            raise GraphBuildError(f"edges must be (source, target, weight) triples, got {edge!r}")
        w = float(w)
        if not 0.0 < w < np.inf:
            kind = "non-positive" if np.isfinite(w) else "non-finite"
            raise GraphBuildError(f"edge {src!r} -> {dst!r} has {kind} weight {w!r}")
        _check_label(src)
        _check_label(dst)
        sources.append(src)
        targets.append(dst)
        weights.append(w)
    w = np.array(weights, dtype=np.float64)
    del weights  # frees the float objects before the build's peak
    labels, src, dst = _intern(nodes, sources, targets)
    return graph_from_arrays(labels, src, dst, w, directed)


def graph_from_arrays(
    labels: tuple[str, ...], src: np.ndarray, dst: np.ndarray, w: np.ndarray, directed: bool
) -> Graph:
    """Graph on ``labels`` from arrays of endpoint indices into ``labels``
    and valid weights, with the guarantees in the module docstring. Raises
    GraphBuildError on an empty edge list, and where parallel edges merged
    to a weight that is not finite."""
    if not w.size:
        raise GraphBuildError("empty edge list: a graph needs at least one edge")
    n = len(labels)
    u, v, merged, first, report = _merge_parallel(src, dst, w, n, directed)
    if directed:
        out, into = _csr_rows((u,), (v,), merged, first, n), _csr_rows((v,), (u,), merged, first, n)
    else:  # every undirected edge is stored in both endpoint rows
        out = into = _csr_rows((u, v), (v, u), merged, first, n)
    del u, v, merged, first
    graph = Graph(labels, directed, *out, *into, report)
    bad = np.flatnonzero(~np.isfinite(graph.weights))
    if bad.size:
        k = bad[0]
        i, j = _entry_rows(graph.indptr)[k], graph.indices[k]
        raise GraphBuildError(
            f"parallel edges {graph.nodes[i]!r} -> {graph.nodes[j]!r} "
            f"merge to a non-finite weight {float(graph.weights[k])!r}"
        )
    return graph


def _intern(
    nodes: tuple[str, ...], sources: Sequence[str], targets: Sequence[str]
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Labels in first-appearance order, and the source and target index of
    every edge. One dict pass: ``setdefault`` stores the position of a
    label's first appearance and returns it for every later one."""
    first_seen: dict[str, int] = {}
    size = len(nodes) + 2 * len(sources)
    endpoints = chain(nodes, chain.from_iterable(zip(sources, targets)))
    pos = np.fromiter(map(first_seen.setdefault, endpoints, count()), dtype=np.int64, count=size)
    dense = np.empty(size, dtype=np.int64)
    n = len(first_seen)
    dense[np.fromiter(first_seen.values(), dtype=np.int64, count=n)] = np.arange(n)
    ids = dense[pos[len(nodes):]]
    return tuple(first_seen), ids[0::2], ids[1::2]


def _check_label(label: object) -> None:
    if not isinstance(label, str) or not label:
        raise GraphBuildError(f"node labels must be non-empty strings, got {label!r}")


def _merge_parallel(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, n: int, directed: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, BuildReport]:
    """Endpoints (as first seen), merged weight and first position of each
    distinct pair. ``bincount`` adds in input order, like a sequential
    ``+=``; a function of its own so its temporaries are freed early, and
    each of them is dropped once used."""
    src, dst = np.asarray(src), np.asarray(dst)
    w = np.asarray(w, dtype=np.float64)
    keep = src != dst
    src, dst, w = src[keep], dst[keep], w[keep]
    # the pair key in int64: n * n overflows int32 from n = 46,341
    key = (src if directed else np.minimum(src, dst)).astype(np.int64)
    key *= n
    key += dst if directed else np.maximum(src, dst)
    first, inverse = first_inverse(key)
    report = BuildReport(merged_edges=int(key.size - first.size), self_loops_dropped=int(keep.size - key.size))
    del key, keep
    merged = np.bincount(inverse, weights=w, minlength=first.size)
    return src[first], dst[first], merged, first, report


def first_inverse(key: np.ndarray, dtype=np.intp) -> tuple[np.ndarray, np.ndarray]:
    """What ``np.unique(key, return_index=True, return_inverse=True)`` gives
    after the values, for non-negative 64-bit integer keys: the first
    position of each distinct value, in value order, and the group of every
    element, as ``dtype``. The stable order lists each run of equal values
    in input order, so a run's first position is its start."""
    order, sorted_key = _stable_order(key, dtype, values=True)
    starts_run = np.empty(key.size, dtype=bool)
    starts_run[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=starts_run[1:])
    del sorted_key
    first = order[np.flatnonzero(starts_run)].astype(np.intp, copy=False)
    groups = np.cumsum(starts_run, dtype=dtype)
    groups -= 1
    inverse = np.empty(key.size, dtype=dtype)
    inverse[order] = groups
    return first, inverse


# Below this many keys, np.argsort's stable sort beats the packed sort's
# fixed cost of some ten numpy calls (96 keys: 4 against 7 us; 1,024: 31 against 19).
_PACKED_FROM = 1024
_SLICE = 1 << 16  # positions packed at a time: no key-sized temporary


def _stable_order(key: np.ndarray, dtype=np.intp, values: bool = False):
    """``np.argsort(key, kind="stable")`` of non-negative 64-bit integer
    keys, as ``dtype``, and with ``values`` also ``key`` in that order.

    From _PACKED_FROM keys on, one in-place value sort (from 2,048 keys
    three to eight times as fast as an argsort): each key is shifted up and
    its position packed into the low bits, so the sorted words break ties
    by position and hold the order in those bits. Where key and position
    bits pass 64, the key's low bits give way to the position; each run of
    tied truncated keys whose full keys differ is then sorted again by the
    bits it lost (rare for hashes)."""
    if key.size < _PACKED_FROM:
        order = np.argsort(key, kind="stable").astype(dtype, copy=False)
        return (order, key[order]) if values else order
    pos_bits = max(key.size - 1, 0).bit_length()
    shift = max(int(key.max(initial=0)).bit_length() + pos_bits - 64, 0)
    packed = key.astype(np.uint64)
    packed >>= shift
    packed <<= pos_bits
    for at in range(0, key.size, _SLICE):
        packed[at : at + _SLICE] |= np.arange(at, min(at + _SLICE, key.size), dtype=np.uint64)
    packed.sort()
    sorted_key = (packed >> pos_bits).view(key.dtype) if values and not shift else None
    packed &= (1 << pos_bits) - 1
    order = packed.view(np.int64).astype(dtype, copy=False)
    del packed
    if shift:
        sorted_key = key[order]
        down = np.flatnonzero(sorted_key[1:] < sorted_key[:-1])
        if down.size:  # runs of one truncated key out of full-key order: sort them again
            top = sorted_key >> shift
            runs = np.unique(top[down])
            at = np.flatnonzero(np.isin(top, runs))
            fix = order[at]
            # by (run, lost bits): under 2 * pos_bits bits, and each run keeps input order
            lost = key[fix].astype(np.uint64)
            lost &= (1 << shift) - 1
            lost |= np.searchsorted(runs, top[at]).astype(np.uint64) << shift
            order[at] = fix = fix[_stable_order(lost)]
            sorted_key[at] = key[fix]
    return (order, sorted_key) if values else order


def _csr_rows(
    rows: tuple[np.ndarray, ...], cols: tuple[np.ndarray, ...], merged: np.ndarray, first: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only CSR with an entry (rows[k][e], cols[k][e], merged[e]) for
    each part k and pair e, rows ordered by first position. Positions are
    unique, so the order of the keys row * bound + position, in int64, is
    that order; it is taken by ``_stable_order``, as int32 where the packed
    sort takes it and the entry count allows (the argsort it takes on fewer
    entries gives intp, which a conversion would only copy)."""
    bound = int(first.max(initial=0)) + 1
    keys = np.empty((len(rows), first.size), dtype=np.int64)
    for part, row in zip(keys, rows):
        np.multiply(row, bound, out=part, dtype=np.int64)
        part += first
    order = _stable_order(keys.ravel(), np.int32 if _PACKED_FROM <= keys.size < 2**31 else np.intp)
    del keys, part  # the loop's last row view would keep keys alive
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sum(np.bincount(row, minlength=n) for row in rows), out=indptr[1:])
    indices = np.concatenate(cols)[order].astype(np.int64, copy=False)
    order %= max(first.size, 1)  # entry -> pair
    csr = (indptr, indices, merged[order])
    for a in csr:
        a.setflags(write=False)
    return csr


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """Row index of every stored CSR entry."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def segment_sum(values: np.ndarray, indptr: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Per-row sums of a CSR value array. Rows are contiguous, so the
    accumulation order within each row is the storage order (deterministic).
    ``rows`` is ``_entry_rows(indptr)``, for a caller that already has it."""
    return np.bincount(_entry_rows(indptr) if rows is None else rows, weights=values, minlength=indptr.size - 1)


def _require_edges(graph: Graph) -> None:
    if not graph.weights.size:
        raise ValueError("graph has no edges left after self-loops were dropped")


def profile(graph: Graph) -> DegreeProfile:
    """Compute the degree/strength profile of a graph in one pass.

    Raises ValueError on a graph without edges, which only self-loops can
    leave: its extremal weights do not exist."""
    _require_edges(graph)
    out_degree, out_strength = graph.out_degrees(), segment_sum(graph.weights, graph.indptr)
    in_degree, in_strength = out_degree, out_strength  # the same arrays when undirected
    if graph.directed:
        in_degree, in_strength = graph.in_degrees(), segment_sum(graph.in_weights, graph.in_indptr)
    return DegreeProfile(
        labels=graph.nodes,
        directed=graph.directed,
        out_degree=out_degree,
        in_degree=in_degree,
        out_strength=out_strength,
        in_strength=in_strength,
        n=graph.n,
        edge_count=graph.edge_count,
        min_weight=float(graph.weights.min()),
        max_weight=float(graph.weights.max()),
        total_weight=graph.total_weight(),
    )


class ValidationReport(Record):
    """Advisory flags; none of these are errors.

    ``sub_unit_weight_edges`` lists edges with weight < 1 (the analytic
    bounds assume weights >= 1), ``connected`` reports whether the graph is
    (weakly) connected, ``isolated_nodes`` lists explicitly added isolates,
    and ``weight_homogeneous`` is set when min == max weight, i.e. the graph
    is effectively unweighted.
    """

    sub_unit_weight_edges: tuple[Edge, ...]
    connected: bool
    isolated_nodes: tuple[str, ...]
    weight_homogeneous: bool

    @property
    def flags(self) -> tuple[str, ...]:
        notes = []
        if self.sub_unit_weight_edges:
            notes.append(
                "weights below 1: " + ", ".join(f"{u}-{v}={w:g}" for u, v, w in self.sub_unit_weight_edges)
            )
        if not self.connected:
            notes.append("graph is not connected")
        if self.isolated_nodes:
            notes.append("isolated nodes: " + ", ".join(self.isolated_nodes))
        if self.weight_homogeneous:
            notes.append("all weights equal: graph is effectively unweighted")
        return tuple(notes)

    @property
    def ok(self) -> bool:
        return not self.flags


def is_connected(graph: Graph) -> bool:
    """Weak connectivity: directed arcs are walked in both directions."""
    if graph.n <= 1:
        return True
    adjacency = [(graph.indptr, graph.indices)]
    if graph.directed:  # undirected: the in-adjacency is this one
        adjacency.append((graph.in_indptr, graph.in_indices))
    seen = np.zeros(graph.n, dtype=bool)
    seen[0] = True
    slot = np.empty(graph.n, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        reached = np.concatenate([indices[_gather(indptr, frontier)[1]] for indptr, indices in adjacency])
        new = reached[~seen[reached]]
        seen[new] = True
        # keep one copy of each node: of its copies, only the one whose
        # index won the scattered write reads its own index back
        slot[new] = np.arange(new.size)
        frontier = new[slot[new] == np.arange(new.size)]
    return bool(seen.all())


def _gather(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The length of each of the CSR rows ``rows``, and the positions of
    their entries, row after row in storage order. A row may be empty or
    listed more than once."""
    start = indptr[rows]
    sizes = indptr[rows + 1] - start
    at = np.repeat(start - np.cumsum(sizes) + sizes, sizes)
    at += np.arange(at.size)
    return sizes, at


def validate(graph: Graph) -> ValidationReport:
    """Advisory validation: sub-unit weights, connectivity, weight homogeneity.

    Raises ValueError on a graph without edges, as ``profile`` does."""
    _require_edges(graph)
    return ValidationReport(
        sub_unit_weight_edges=tuple(graph._edges_where(graph.weights < 1.0)),
        connected=is_connected(graph),
        isolated_nodes=tuple(sorted(graph.isolates())),
        weight_homogeneous=float(graph.weights.min()) == float(graph.weights.max()),
    )
