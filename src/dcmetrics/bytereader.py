"""The array reader of the edge-list format described in ``dcmetrics.io``.

``read_edge_list`` works on the text's UTF-8 bytes, with memory in
proportion to the graph rather than to the text:

- ``_layout`` reads blocks of whole lines, about _BLOCK bytes each. One
  numpy scan finds a block's tabs and LFs together; each line's end, first
  tab and field count follow from the ranks of the LFs among them. ASCII
  whitespace is stripped on offset arrays: from whole lines, and from
  fields only in a block that holds a byte up to 0x20 besides tab and LF,
  since elsewhere a field is exactly the gap between its delimiters. Each
  field's byte range and each weight go into arrays sized from the line
  count, so no temporary outgrows a block.
- Labels are interned by a hash of their bytes taken 8 bytes per numpy
  step, through a view of the text as overlapping little-endian words
  (the last 1 to 7 bytes of a field come from the word that ends with
  them, shifted). The hashes are grouped by ``graph.first_inverse``, from
  one value sort of the hashes with each field's position packed into
  their low bits (a tie that truncation makes is sorted again by the full
  hash). Each field is then checked against the first field of its hash
  group on the real bytes, a slice of _FIELDS fields at a time: its length
  and last 1 to 8 bytes (the group's taken once), then, for a field
  longer than 8 bytes, the earlier bytes a word at a time. The
  groups are ranked by first appearance from a mark at each group's first
  field position, with no sort.
- Only the distinct labels become strings: one gather joins their bytes
  with tabs, then one decode and one split.

It returns None, leaving the document to the line-by-line reader in
``dcmetrics.io``, whenever that reader would raise, when the text holds a
whitespace character above U+007F, and on a hash collision.
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
_LENGTH_SEED = np.uint64(0x9E3779B97F4A7C15)  # times 1..8: eight different top bytes
_POW10 = np.array([float(10**k) for k in range(16)])  # exact
_LONG = 64  # labels up to this many bytes are hashed and compared in numpy, a word a step
_BLOCK = 1 << 18  # bytes of whole lines that _layout reads at a time
_FIELDS = 1 << 16  # fields hashed or compared at a time


def read_edge_list(text: str) -> Graph | None:
    """The Graph ``io._parse_lines`` builds from ``text``, or None for a
    document this reader leaves to that loop."""
    if (not text.isascii() and _UNICODE_SPACE.search(text)) or ("\r" in text and _BARE_CR.search(text)):
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
    del layout, interned, lo, hi, buf, raw  # the build needs none of them
    return graph_from_arrays(labels, ids[declared::2], ids[declared + 1::2], weights, directed)


def _layout(buf: np.ndarray, raw: bytes) -> tuple | None:
    """Sort the lines of ``buf`` as the loop does and locate their labels.

    Returns the direction; the stripped byte ranges [lo, hi) of the label
    fields, declarations first, then source and target of each edge in
    turn; the number of declarations; and the edge weights. None when the
    loop would raise.

    The lines are read in blocks of whole lines, _BLOCK bytes or a little
    more, so the temporaries stay the size of a block; the ranges and
    weights go into arrays sized from the line count.
    """
    index = np.int32 if buf.size < 2**31 - 1 else np.int64  # so that buf.size + 1 fits
    step = max(_BLOCK, 1)  # numpy counts LFs a slice at a time, ten times faster than bytes.count
    lines = 1 + sum(np.count_nonzero(buf[a:a + step] == 10) for a in range(0, buf.size, step))
    lo, hi, weights = np.empty(2 * lines, index), np.empty(2 * lines, index), np.empty(lines)
    declared: list[tuple[np.ndarray, np.ndarray]] = []
    edges = 0
    directed = None  # until the first data line
    start = 0
    while start < buf.size:
        stop = raw.find(b"\n", start + _BLOCK) + 1 or buf.size
        block = _block_lines(buf, start, stop, index)
        start = stop
        if block is None:
            continue
        starts, ends, label_lo, label_hi, first_tab, count, delims, spaced = block
        if directed is None:
            directed = False
            if count[0] == 1:
                directive = raw[label_lo[0]:label_hi[0]]
                if directive not in (b"directed", b"undirected"):
                    return None
                directed = directive == b"directed"
                starts, ends, label_lo, label_hi, first_tab, count = (
                    a[1:] for a in (starts, ends, label_lo, label_hi, first_tab, count))
        if count.size and count.max() > 3:
            return None
        edge = count > 1
        declared.append((label_lo[~edge], label_hi[~edge]))
        k = int(np.count_nonzero(edge))
        fields = slice(2 * edges, 2 * (edges + k))
        if not _edge_fields(buf, raw, starts[edge], ends[edge], delims, first_tab[edge], count[edge] == 3,
                            spaced, lo[fields], hi[fields], weights[edges:edges + k]):
            return None
        edges += k
    if not edges:
        return None
    k = sum(part.size for part, _ in declared)
    if k:  # the edge fields move up behind the declarations
        for a, parts in zip((lo, hi), zip(*declared)):
            a[k:k + 2 * edges] = a[:2 * edges].copy()
            a[:k] = np.concatenate(parts)
    return directed, lo[:k + 2 * edges], hi[:k + 2 * edges], k, weights[:edges]


def _block_lines(buf: np.ndarray, start: int, stop: int, index) -> tuple | None:
    """The data lines among the whole lines of buf[start:stop]: their
    ranges [starts, ends) before and after stripping, the index into
    ``delims`` of each one's first tab and its field count; the positions
    of the block's tabs and LFs, with the end of a last line without a LF
    appended; and whether the block holds a byte up to 0x20 other than tab
    and LF (without one, no field has a byte for ``str.strip`` to remove).
    None for a block without data lines.

    One scan finds the tabs and LFs together: the delimiters of a line are
    those after the previous line's LF, up to its own, so its first tab and
    field count follow from the ranks of the LFs among them."""
    chunk = buf[start:stop]
    delims = np.flatnonzero((chunk == 9) | (chunk == 10)).astype(index)
    spaced = np.count_nonzero(chunk <= 32) > delims.size
    line_end = np.flatnonzero(chunk[delims] == 10)  # the rank of each LF among the delimiters
    delims += start
    if chunk[-1] != 10:  # the last line of a text without a final LF
        line_end = np.append(line_end, delims.size)
        delims = np.append(delims, index(stop))
    ends = delims[line_end]
    starts = np.empty_like(ends)
    starts[:1] = start
    np.add(ends[:-1], 1, out=starts[1:])
    first_tab = np.empty_like(line_end)
    first_tab[:1] = 0
    np.add(line_end[:-1], 1, out=first_tab[1:])
    lo, hi = _strip(buf, starts, ends)
    data = lo < hi
    data[data] = buf[lo[data]] != 35  # "#" starts a comment
    if not data.any():
        return None
    first_tab = first_tab[data]
    return starts[data], ends[data], lo[data], hi[data], first_tab, line_end[data] - first_tab + 1, delims, spaced


def _edge_fields(buf, raw, starts, ends, delims, first_tab, three, spaced, lo, hi, weights) -> bool:
    """Write the stripped source and target ranges of the edge lines
    [starts, ends) into ``lo`` and ``hi``, interleaved, and their weights
    into ``weights``; False when a label is empty or a weight bad. Outside a
    ``spaced`` block a field is exactly the gap between its delimiters."""
    tab1 = delims[first_tab]
    end2 = delims[first_tab + 1]  # the second tab, or the end of a line without one
    if spaced:
        lo[0::2], hi[0::2] = _strip(buf, starts, tab1)
        lo[1::2], hi[1::2] = _strip(buf, tab1 + 1, end2)
    else:
        lo[0::2], hi[0::2], lo[1::2], hi[1::2] = starts, tab1, tab1 + 1, end2
    if not np.all(lo < hi):
        return False
    parsed = _parse_weights(buf, raw, end2[three] + 1, ends[three])
    if parsed is None:
        return False
    weights[:] = 1.0
    weights[three] = parsed
    return True


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
    first, group = first_inverse(_hash_fields(buf, raw, lo, hi), lo.dtype)
    if not _equal_fields(buf, raw, lo, hi, first, group):
        return None
    # the groups' first fields in order of position, and each group's rank among them
    seen = np.zeros(lo.size, dtype=bool)
    seen[first] = True
    first = np.flatnonzero(seen)
    rank = np.empty(first.size, dtype=group.dtype)
    rank[group[first]] = np.arange(first.size, dtype=group.dtype)
    return _decode(buf, lo[first], hi[first]), rank[group]


def _decode(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[str, ...]:
    """The strings of the byte ranges [lo, hi): one gather joins them with
    a tab after each, which no label holds, then one decode and one split."""
    size = hi - lo + 1
    end = np.cumsum(size, dtype=lo.dtype)  # at most buf.size + 1
    joined = buf.take(np.repeat(lo - end + size, size) + np.arange(end[-1], dtype=lo.dtype), mode="clip")
    joined[end - 1] = 9
    return tuple(joined[:-1].tobytes().decode().split("\t"))


def _words(buf: np.ndarray, raw: bytes) -> np.ndarray:
    """The text as overlapping words: element i is the 8 bytes from byte i,
    read little-endian; a view with a stride of 1 byte, not a copy (of a
    text under 8 bytes, which is padded)."""
    if buf.size < 8:
        buf = np.frombuffer(raw.ljust(8, b"\0"), dtype=np.uint8)
    return np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))


def _last_words(words: np.ndarray, pos: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The 1 to 8 bytes [pos, end) of each field as an integer, first byte
    lowest: the word that ends at ``end`` (the first word, for a field in
    the text's first 8 bytes) shifted up past the bytes after ``end``,
    then down past those before ``pos``. No byte past the text is read."""
    at = np.maximum(end - 8, 0)
    w = words[at]
    w <<= ((8 - (end - at)) * 8).astype(np.uint8)
    w >>= ((8 - (end - pos)) * 8).astype(np.uint8)
    return w


def _hash_fields(buf: np.ndarray, raw: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each field's bytes. Fields of up to _LONG bytes get
    FNV-1a over 8-byte words, seeded with their length times an odd
    constant whose top bytes differ for the lengths 1 to 8, so fields under
    8 bytes hash to distinct values. Longer fields get Python's hash of
    their bytes, so a long label costs no more numpy steps than one of
    _LONG bytes."""
    words = _words(buf, raw)
    h = np.empty(lo.size, dtype=np.uint64)
    for a in range(0, lo.size, _FIELDS):  # a slice at a time keeps the temporaries small
        part = slice(a, a + _FIELDS)
        h[part] = _hash_words(words, lo[part], hi[part])
    long = np.flatnonzero(hi - lo > _LONG)
    h[long] = [hash(raw[a:b]) & 0xFFFF_FFFF_FFFF_FFFF for a, b in zip(lo[long].tolist(), hi[long].tolist())]
    return h


def _hash_words(words: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The word hash of the first _LONG bytes of each field: a step for each
    word of the fields with more than one word left, then one for the last
    1 to 8 bytes of every field."""
    pos, end = lo.copy(), np.minimum(hi, lo + _LONG)
    h = (end - pos).astype(np.uint64)
    h *= _LENGTH_SEED
    k = np.flatnonzero(end - pos > 8)
    while k.size:
        h[k] = (h[k] ^ words[pos[k]]) * _FNV_PRIME
        pos[k] += 8
        k = k[end[k] - pos[k] > 8]
    h ^= _last_words(words, pos, end)
    h *= _FNV_PRIME
    return h


def _equal_fields(buf: np.ndarray, raw: bytes, lo: np.ndarray, hi: np.ndarray, first: np.ndarray,
                  group: np.ndarray) -> bool:
    """Whether every field i has the bytes of field first[group[i]], the
    first of its group: the same length and the same last 1 to 8 bytes,
    taken once per group; then, for fields longer than 8 bytes, the same
    earlier bytes a word at a time, up to the first _LONG; fields longer
    than _LONG bytes are compared whole as bytes objects."""
    words = _words(buf, raw)
    first_lo, first_hi = lo[first], hi[first]
    first_size = first_hi - first_lo
    first_tail = _last_words(words, np.maximum(first_hi - 8, first_lo), first_hi)
    for a in range(0, lo.size, _FIELDS):  # a slice at a time keeps the temporaries small
        part = slice(a, a + _FIELDS)
        pos, end, g = lo[part], hi[part], group[part]
        if not np.array_equal(end - pos, first_size[g]):
            return False
        if not np.array_equal(_last_words(words, np.maximum(end - 8, pos), end), first_tail[g]):
            return False
        k = np.flatnonzero(end - pos > 8)
        pos, end, other_pos = pos[k], np.minimum(end[k] - 8, pos[k] + _LONG), first_lo[g[k]]
        while pos.size:
            if np.any(words[pos] != words[other_pos]):
                return False
            pos += 8
            other_pos += 8
            k = np.flatnonzero(pos < end)
            pos, end, other_pos = pos[k], end[k], other_pos[k]
    long = np.flatnonzero(hi - lo > _LONG)
    pairs = zip(lo[long].tolist(), hi[long].tolist(), first_lo[group[long]].tolist())
    return all(raw[a:b] == raw[c:c + b - a] for a, b, c in pairs)
