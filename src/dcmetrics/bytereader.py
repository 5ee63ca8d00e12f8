"""The array reader of the edge-list format described in ``dcmetrics.io``.

``read_edge_list`` works on the text's UTF-8 bytes: numpy finds the line
and tab boundaries and strips ASCII whitespace on offset arrays, labels
are interned by a hash of their bytes checked byte for byte, and only the
distinct labels are decoded to strings. It returns None, leaving the
document to the line-by-line reader in ``dcmetrics.io``, whenever that
reader would raise, when the text holds a whitespace character above
U+007F, and on a hash collision.
"""

from __future__ import annotations

import re

import numpy as np

from .graph import Graph, first_inverse, graph_from_arrays
from .io import _BARE_CR

__all__ = ["read_edge_list"]

# the bytes str.strip removes from ASCII text
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
# the characters above U+007F that str.strip removes
_UNICODE_SPACE = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")
_FNV_PRIME = np.uint64(0x100000001B3)
_POW10 = np.array([float(10**k) for k in range(16)])  # exact
_LONG = 64  # labels up to this many bytes are hashed and compared in numpy, a byte a step


def read_edge_list(text: str) -> Graph | None:
    """The Graph ``io._parse_lines`` builds from ``text``, or None for a
    document this reader leaves to that loop."""
    if (not text.isascii() and _UNICODE_SPACE.search(text)) or _BARE_CR.search(text):
        return None
    try:
        raw = text.encode()
    except UnicodeEncodeError:  # a lone surrogate
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    layout = _layout(buf, raw)
    if layout is None:
        return None
    directed, lo, hi, declared, weights = layout
    interned = _intern_fields(buf, raw, lo, hi)
    if interned is None:
        return None
    labels, ids = interned
    return graph_from_arrays(labels, ids[declared::2], ids[declared + 1::2], weights, directed)


def _layout(buf: np.ndarray, raw: bytes) -> tuple | None:
    """Sort the lines of ``buf`` as the loop does and locate their labels.

    Returns the direction; the stripped byte ranges [lo, hi) of the label
    fields, declarations first, then source and target of each edge in
    turn; the number of declarations; and the edge weights. None when the
    loop would raise.
    """
    index = np.int32 if buf.size < 2**31 else np.int64
    newlines = np.flatnonzero(buf == 10).astype(index)
    starts = np.concatenate([np.zeros(1, index), newlines + 1])
    ends = np.concatenate([newlines, np.full(1, buf.size, index)])
    lo, hi = _strip(buf, starts, ends)
    data = lo < hi
    data[data] = buf[lo[data]] != 35  # "#" starts a comment
    rows = np.flatnonzero(data)
    if not rows.size:
        return None
    starts, ends, lo, hi = starts[rows], ends[rows], lo[rows], hi[rows]
    tabs = np.flatnonzero(buf == 9).astype(index)
    first_tab = np.searchsorted(tabs, starts)
    count = np.searchsorted(tabs, ends) - first_tab + 1
    directed = False
    if count[0] == 1:
        directive = raw[lo[0]:hi[0]]
        if directive not in (b"directed", b"undirected"):
            return None
        directed = directive == b"directed"
        starts, ends, lo, hi, first_tab, count = (a[1:] for a in (starts, ends, lo, hi, first_tab, count))
    edge = count > 1
    if not edge.any() or count.max() > 3:
        return None
    tab1 = tabs[first_tab[edge]]
    tab2 = tabs[np.minimum(first_tab[edge] + 1, tabs.size - 1)]
    three = count[edge] == 3
    ends = ends[edge]
    src_lo, src_hi = _strip(buf, starts[edge], tab1)
    dst_lo, dst_hi = _strip(buf, tab1 + 1, np.where(three, tab2, ends))
    if not (np.all(src_lo < src_hi) and np.all(dst_lo < dst_hi)):
        return None
    weights = np.ones(three.size)
    parsed = _parse_weights(buf, raw, tab2[three] + 1, ends[three])
    if parsed is None:
        return None
    weights[three] = parsed
    declared = ~edge
    fields_lo = np.empty(declared.sum() + 2 * three.size, dtype=index)
    fields_hi = np.empty_like(fields_lo)
    k = fields_lo.size - 2 * three.size
    fields_lo[:k], fields_lo[k::2], fields_lo[k + 1::2] = lo[declared], src_lo, dst_lo
    fields_hi[:k], fields_hi[k::2], fields_hi[k + 1::2] = hi[declared], src_hi, dst_hi
    return directed, fields_lo, fields_hi, k, weights


def _strip(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The byte ranges [lo, hi) narrowed past the ASCII whitespace at either
    end; an all-space range comes back empty. Each step moves only the ends
    that still sit on a space, so the work grows with the spaces removed."""
    lo, hi = lo.copy(), hi.copy()
    for end, step, peek in ((lo, 1, 0), (hi, -1, -1)):
        i = np.flatnonzero(lo < hi)
        while i.size:
            i = i[_SPACE[buf[end[i] + peek]]]
            end[i] += step
            i = i[lo[i] < hi[i]]
    return lo, hi


def _parse_weights(buf: np.ndarray, raw: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """The weights ``float()`` reads from the raw fields [lo, hi), or None if
    one is not a positive finite number.

    A field of 1 to 15 ASCII digits with at most one "." among them (before
    the CR of a CRLF line) is read in arrays: its digits d, k of them after
    the point, give d / 10**k. Both are exact doubles (d < 2**53, k <= 15),
    so that one correctly rounded division is the double ``float()`` reads.
    Any other text goes through ``float()`` itself.
    """
    length = hi - lo - (buf[hi - 1] == 13)  # hi - 1 is at least the tab
    digits = np.zeros(lo.size, dtype=np.int64)
    point_at = np.full(lo.size, -1, dtype=np.int64)
    fast = (length >= 1) & (length <= 16)
    i = np.flatnonzero(fast)
    k = 0
    while i.size:
        byte = buf[lo[i] + k]
        digit = byte - np.uint8(48)
        before = digits[i]
        digits[i] = before * 10 + digit
        other = digit > 9
        if other.any():  # a first point, or a byte that sends the field to float()
            point = other & (byte == 46) & (point_at[i] < 0)
            fast[i[other & ~point]] = False
            point_at[i[point]] = k
            digits[i[point]] = before[point]
        k += 1
        i = i[length[i] > k]
    has_point = point_at >= 0
    fast &= (length - has_point >= 1) & (length - has_point <= 15)
    weights = digits / _POW10[np.where(has_point, length - 1 - point_at, 0)]
    slow = np.flatnonzero(~fast)
    try:
        weights[slow] = [float(raw[a:b].decode()) for a, b in zip(lo[slow].tolist(), hi[slow].tolist())]
    except ValueError:
        return None
    return weights if np.all((weights > 0.0) & (weights < np.inf)) else None


def _intern_fields(buf: np.ndarray, raw: bytes, lo: np.ndarray, hi: np.ndarray) -> tuple | None:
    """The distinct labels among the fields [lo, hi), in order of first
    appearance, and the label index of every field; None on a hash
    collision. Only the distinct labels are decoded to strings."""
    first, group = first_inverse(_hash_fields(buf, raw, lo, hi))
    if not _equal_fields(buf, raw, lo, hi, first[group]):
        return None
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.arange(order.size)
    starts, ends = lo[first[order]].tolist(), hi[first[order]].tolist()
    return tuple([raw[a:b].decode() for a, b in zip(starts, ends)]), rank[group]


def _hash_fields(buf: np.ndarray, raw: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each field's bytes. Fields of up to _LONG bytes get
    FNV-1a seeded with their length: step k hashes byte k of the fields
    longer than k, so the work is linear in their total bytes. Longer
    fields get Python's hash of their bytes, so a long label costs no more
    than _LONG numpy steps."""
    length = hi - lo
    h = length.astype(np.uint64)
    long = np.flatnonzero(length > _LONG)
    h[long] = [hash(raw[a:b]) & 0xFFFF_FFFF_FFFF_FFFF for a, b in zip(lo[long].tolist(), hi[long].tolist())]
    i = np.flatnonzero((length > 0) & (length <= _LONG))
    pos, end, running = lo[i], hi[i], h[i]
    while i.size:
        running = (running ^ buf[pos]) * _FNV_PRIME
        pos += 1
        done = pos == end
        if done.any():
            h[i[done]] = running[done]
            i, pos, end, running = (a[~done] for a in (i, pos, end, running))
    return h


def _equal_fields(buf: np.ndarray, raw: bytes, lo: np.ndarray, hi: np.ndarray, other: np.ndarray) -> bool:
    """Whether field i has the same bytes as field other[i], for every i;
    fields longer than _LONG bytes are compared as bytes objects."""
    i = np.flatnonzero(other != np.arange(other.size))
    pos, end, other_pos = lo[i], hi[i], lo[other[i]]
    if np.any(end - pos != hi[other[i]] - other_pos):
        return False
    long = end - pos > _LONG
    pairs = zip(pos[long].tolist(), end[long].tolist(), other_pos[long].tolist())
    if not all(raw[a:b] == raw[c:c + b - a] for a, b, c in pairs):
        return False
    pos, end, other_pos = pos[~long], end[~long], other_pos[~long]
    while pos.size:
        if np.any(buf[pos] != buf[other_pos]):
            return False
        pos += 1
        other_pos += 1
        more = pos < end
        if not more.all():
            pos, end, other_pos = pos[more], end[more], other_pos[more]
    return True
