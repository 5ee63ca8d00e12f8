import json
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dcmetrics import (
    DATASET_NAMES,
    CentralityVector,
    DCMetricsError,
    GraphBuildError,
    ParseError,
    all_distinctiveness,
    build_graph,
    builtin_dataset,
    d5,
    parse_edge_list,
    parse_gexf_minimal,
    write_edge_list,
)
from dcmetrics import bytereader, io
from dcmetrics.io import GexfFeatureWarning, ResultTable
from conftest import assert_same_graph
from naive import naive_build_graph, naive_to_csv, naive_write_edge_list


class TestEdgeList:
    def test_round_trip_builtin(self):
        for name in ("toy-undirected", "toy-directed", "florentine", "zachary"):
            g = builtin_dataset(name)
            g2 = parse_edge_list(write_edge_list(g))
            assert g2.nodes == g.nodes
            assert g2.directed == g.directed
            assert list(g2.edges()) == list(g.edges())

    def test_full_toy_matches_builtin(self):
        text = "undirected\nA\tB\t2\nA\tE\t5\nB\tC\t2\nB\tD\t2\nB\tF\t5\nC\tD\t5\n"
        g = parse_edge_list(text)
        ref = builtin_dataset("toy-undirected")
        assert g.nodes == ref.nodes
        assert list(g.edges()) == list(ref.edges())

    def test_weight_defaults_to_one(self):
        g = parse_edge_list("A\tB")
        assert g.weight("A", "B") == 1.0

    def test_negative_weight_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("A\tB\t-1")

    def test_bad_weight_text(self):
        with pytest.raises(ParseError, match="line 2.*weight"):
            parse_edge_list("A\tB\t1\nB\tC\theavy")

    def test_directive_and_comments(self):
        g = parse_edge_list("# a file\ndirected\n# arcs\nA\tB\t2\n\nB\tC\t1\n")
        assert g.directed
        assert g.edge_count == 2

    def test_unknown_directive_is_an_error(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_edge_list("mixed graph\nA\tB\t1")

    def test_isolate_declaration(self):
        g = parse_edge_list("undirected\nZ\nA\tB\t1")
        assert g.isolates() == {"Z"}
        assert g.nodes == ("Z", "A", "B")

    def test_isolates_round_trip(self):
        g = build_graph([("A", "B", 1.5)], nodes=["Z"])
        g2 = parse_edge_list(write_edge_list(g))
        assert g2.nodes == g.nodes
        assert g2.isolates() == {"Z"}

    def test_empty_document_rejected(self):
        with pytest.raises(ParseError, match="no edges"):
            parse_edge_list("# nothing\n")

    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_splitlines_breaks_are_label_characters(self, char):
        g = build_graph([(f"A{char}B", "C", 2.0)], nodes=[f"Z{char}Y"])
        g2 = parse_edge_list(write_edge_list(g))
        assert g2.nodes == g.nodes == (f"Z{char}Y", f"A{char}B", "C")
        assert list(g2.edges()) == list(g.edges())

    def test_crlf_line_endings(self):
        lf = "# a file\nundirected\nZ\nA\tB\t2.5\nB\tC\n"
        g = parse_edge_list(lf.replace("\n", "\r\n"))
        ref = parse_edge_list(lf)
        assert g.nodes == ref.nodes == ("Z", "A", "B", "C")
        assert list(g.edges()) == list(ref.edges())

    @pytest.mark.parametrize("text", ["undirected\rA\tB\n", "A\tB\r\n# c\rB\tC\n", "A\tB\r\nB\tC\r\r\n"])
    def test_bare_carriage_return_rejected(self, text):
        with pytest.raises(ParseError, match="line [12]: carriage return without a line feed"):
            parse_edge_list(text)

    def test_fractional_weights_round_trip_exactly(self):
        g = build_graph([("A", "B", 0.1), ("B", "C", 2.5)])
        g2 = parse_edge_list(write_edge_list(g))
        assert list(g2.edges()) == list(g.edges())

    @pytest.mark.parametrize("label", ["A\tB", "A\nB", "A\rB"])
    def test_writer_rejects_separator_in_label(self, label):
        g = build_graph([("ok", label, 1.0)])
        with pytest.raises(ValueError, match=re.escape(f"node label {label!r} cannot be written")):
            write_edge_list(g)

    @pytest.mark.parametrize("label", [" A", "A ", "\x1cA", "A\u00a0", "\u3000"])
    def test_writer_rejects_label_strip_would_change(self, label):
        g = build_graph([("ok", "B", 1.0)], nodes=[label])
        with pytest.raises(ValueError, match="cannot be written to an edge list"):
            write_edge_list(g)

    def test_writer_rejects_comment_mark_and_names_first_label(self):
        g = build_graph([("#A", "C", 1.0), ("C", "#B", 1.0)])
        with pytest.raises(ValueError, match="node label '#A' cannot be written"):
            write_edge_list(g)
        # a "#" after the first character is a label character
        g = build_graph([("A#", "C#D", 1.0)])
        assert parse_edge_list(write_edge_list(g)).nodes == ("A#", "C#D")

    def test_writer_rejects_a_graph_without_edges(self):
        # only self-loops were read: the reader refuses a document without edges
        g = parse_edge_list("A\tA\t2\n")
        assert (g.nodes, g.edge_count) == (("A",), 0)
        with pytest.raises(ValueError, match="graph has no edges left after self-loops were dropped"):
            write_edge_list(g)


class TestWriterMatchesLoop:
    """``write_edge_list`` against the per-edge loop it replaced, byte for
    byte, with and without the node declarations."""

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_datasets(self, name):
        g = builtin_dataset(name)
        assert write_edge_list(g) == naive_write_edge_list(g)

    def test_seeded_graphs_with_isolates_and_out_of_order_nodes(self):
        rng = np.random.default_rng(31)
        declared = set()
        for trial in range(80):
            n = int(rng.integers(2, 25))
            m = int(rng.integers(1, 2 * n))
            labels = np.array([f"v{i}" for i in rng.permutation(n)], dtype=object)
            src = rng.integers(0, n, size=m)
            dst = (src + rng.integers(1, n, size=m)) % n
            weights = (rng.integers(1, 9, size=m) / rng.integers(1, 4, size=m)).tolist()
            # a random subset of the nodes, in random order; those without an edge are isolates
            nodes = labels[rng.permutation(n)[: int(rng.integers(0, n + 1))]].tolist()
            g = build_graph(zip(labels[src], labels[dst], weights), directed=bool(trial % 2), nodes=nodes)
            text = write_edge_list(g)
            assert text == naive_write_edge_list(g)
            declared.add(text.count("\n") > 1 + g.edge_count)
        assert declared == {False, True}


def _document(rng, directed, exotic):
    """A seeded edge-list document the array reader and the loop must read
    alike: comments, blank lines, optional CRLF ends, the directive,
    repeated declarations, 2- and 3-field lines, weights in several
    spellings, and labels with spaces and non-ASCII letters (with ``exotic``,
    also U+0085 and U+2028, which send the document to the loop)."""
    pool = ["v1", "v2", "a b", "Zürich", "東京", "ß", "x", "long label with spaces", "7", "#in"]
    if exotic:
        pool += ["p\x85q", "r\u2028s"]
    weights = ["7", "2.5", "1e1", "1_0", "+5", " 5 ", "0.1", "007", "123456789012345",
               "1234567890123456", "9007199254740993", "9999999999999999999", "\x0b4\x0c", "\u0661",
               "7.0", ".5", "5.", "123456789.012345", "1234567890.123456", "0.30000000000000004"]

    def label():
        text = str(rng.choice(pool))
        pad = rng.integers(0, 4)
        return [text, f" {text}", f"{text}  ", f"\x1f{text}\x0b"][pad]

    lines = ["# generated", ""]
    if rng.random() < 0.7:
        lines.append(" directed " if directed else "undirected")
    else:  # without the directive the first data line must be an edge
        lines.append("v1\tv2\t3")
    for _ in range(int(rng.integers(1, 40))):
        kind = rng.integers(0, 6)
        if kind == 0:
            lines.append(str(rng.choice(["", "  ", "# a\tcomment", "   # indented", " \t "])))
        elif kind == 1:
            lines.append(label())
        elif kind == 2:
            lines.append(f"{label()}\t{label()}")
        else:
            lines.append(f"{label()}\t{label()}\t{rng.choice(weights)}")
    lines.append("v1\tv2\t3")
    end = "\r\n" if rng.random() < 0.3 else "\n"
    return end.join(lines) + str(rng.choice(["", end]))


# the alphabet of the token documents: the delimiters, CRLF and four more of the
# bytes str.strip removes, weight spellings, both directives, NUL and a 2-byte letter
_TOKENS = ["\t", "\n", "\r\n", " ", "\x0b", "\x0c", "\x1c", "#", ".", "-", "_", "+", *"0123456789",
           "inf", "nan", "e5", "directed", "undirected", "\x00", "\u00e9"]
_TOKEN_P = np.array([5, 5, 2] + [1] * 9 + [5] * 10 + [1] * 7, dtype=float)
_TOKEN_P /= _TOKEN_P.sum()


class TestArrayReaderMatchesLoop:
    """The array reader in ``dcmetrics.bytereader`` against the line-by-line reader."""

    @pytest.mark.parametrize("block", [None, 1])
    def test_same_outcome_on_token_documents(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(bytereader, "_BLOCK", block)
        rng = np.random.default_rng(23)
        outcomes = {"read": 0, "loop": 0}
        for _ in range(2000):
            head = [str(rng.choice(["directed", "undirected"])), "\n"] if rng.random() < 0.7 else []
            text = "".join(head + rng.choice(_TOKENS, size=int(rng.integers(1, 40)), p=_TOKEN_P).tolist())
            try:
                expected = io._parse_lines(text)
            except DCMetricsError as exc:
                expected = exc
            try:
                graph = bytereader.read_edge_list(text)
            except DCMetricsError as exc:
                assert (type(exc), str(exc)) == (type(expected), str(expected)), repr(text)
                continue
            if graph is None:
                outcomes["loop"] += 1
                continue
            assert not isinstance(expected, DCMetricsError), repr(text)
            assert_same_graph(graph, expected)
            outcomes["read"] += 1
        # a share of the documents is read in arrays, and some go to the loop
        assert outcomes["read"] > 200 and outcomes["loop"] > 200, outcomes

    @pytest.mark.parametrize("directed", [False, True])
    def test_same_graph_on_seeded_documents(self, directed):
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(80):
            text = _document(rng, directed, exotic=False)
            graph = bytereader.read_edge_list(text)
            assert graph is not None, text
            assert_same_graph(graph, io._parse_lines(text))
            seen.add(graph.directed)
        assert directed in seen

    @pytest.mark.parametrize("directed", [False, True])
    def test_unicode_whitespace_documents_go_to_the_loop(self, directed):
        rng = np.random.default_rng(12)
        for _ in range(40):
            text = _document(rng, directed, exotic=True)
            if "\x85" in text or "\u2028" in text:
                assert bytereader.read_edge_list(text) is None
            assert_same_graph(parse_edge_list(text), io._parse_lines(text))

    def test_no_break_space_around_label(self):
        text = "undirected\n\u00a0A\u00a0\tB\t2\nB\t\u00a0C\n"
        assert bytereader.read_edge_list(text) is None
        graph = parse_edge_list(text)
        assert graph.nodes == ("A", "B", "C")
        assert_same_graph(graph, naive_build_graph([("A", "B", 2.0), ("B", "C", 1.0)]))

    def test_lone_surrogate_goes_to_the_loop(self):
        text = "A\tB\ud800\t2\nB\ud800\tC\n"
        assert bytereader.read_edge_list(text) is None
        assert parse_edge_list(text).nodes == ("A", "B\ud800", "C")

    @pytest.mark.parametrize("fake_hash", [
        lambda buf, raw, lo, hi: np.zeros(lo.size, dtype=np.uint64),
        lambda buf, raw, lo, hi: (hi - lo).astype(np.uint64),
    ])
    @pytest.mark.parametrize("size", [2, 100])
    def test_hash_collision_goes_to_the_loop(self, monkeypatch, fake_hash, size):
        ab, cd, ef = "a" * size, "a" * (size - 1) + "b", "e" * size
        text = f"undirected\nZ\n{ab}\t{cd}\t2\n{cd}\t{ef}\n{ab}\t{ef}\t3\n"
        reference = naive_build_graph([(ab, cd, 2.0), (cd, ef, 1.0), (ab, ef, 3.0)], nodes=["Z"])
        assert_same_graph(bytereader.read_edge_list(text), reference)
        # 16-byte labels that differ only in their first byte: their last 8 bytes agree,
        # so only the word walk over the earlier bytes tells them apart
        gh, ih = "g" + "h" * 15, "i" + "h" * 15
        head = f"{gh}\t{ih}\t2\n"
        head_reference = naive_build_graph([(gh, ih, 2.0)])
        assert_same_graph(bytereader.read_edge_list(head), head_reference)
        monkeypatch.setattr(bytereader, "_hash_fields", fake_hash)
        assert bytereader.read_edge_list(text) is None
        assert_same_graph(parse_edge_list(text), reference)
        assert bytereader.read_edge_list(head) is None
        assert_same_graph(parse_edge_list(head), head_reference)

    def test_truncated_hash_ties_stay_in_arrays(self, monkeypatch):
        # distinct labels whose hashes differ only in the low bits that the
        # packed sort gives to positions: every hash ties once truncated
        def fake_hash(buf, raw, lo, hi):
            rank = {}
            fields = [raw[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
            return np.array([0xFFFF_0000_0000_0000 | rank.setdefault(f, len(rank)) for f in fields], dtype=np.uint64)

        rng = np.random.default_rng(41)
        ends = rng.integers(0, 150, size=(600, 2)).tolist()
        text = "undirected\nlone\n" + "".join(f"n{u}\tn{v}\t{w}\n" for (u, v), w in zip(ends, rng.integers(1, 9, 600)))
        monkeypatch.setattr(bytereader, "_hash_fields", fake_hash)
        graph = bytereader.read_edge_list(text)
        assert graph is not None
        assert_same_graph(graph, io._parse_lines(text))

    def test_long_label(self):
        long = "".join(map(chr, np.random.default_rng(3).integers(0x21, 0x7F, size=5000).tolist()))
        long = long.replace("#", "x")
        text = f"A\t{long}\t2.5\n{long}\tB\n{long[:-1]}\t{long}\n"
        graph = bytereader.read_edge_list(text)
        assert graph is not None
        assert_same_graph(graph, io._parse_lines(text))
        assert graph.nodes == ("A", long, "B", long[:-1])

    def test_long_label_costs_no_step_per_byte(self):
        # a numpy step per byte would take seconds on a label this long
        long = "x" * 300_000
        start = time.perf_counter()
        graph = bytereader.read_edge_list(f"A\t{long}\t2\n{long}\tB\n")
        assert time.perf_counter() - start < 1.0
        assert graph.nodes == ("A", long, "B")

    def test_decimal_weights_read_as_float_reads_them(self):
        rng = np.random.default_rng(8)
        texts = []
        for _ in range(3000):
            digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(1, 17)))))
            point = int(rng.integers(0, len(digits) + 1))
            texts.append(digits[:point] + "." + digits[point:] if rng.random() < 0.8 else digits)
        for _ in range(1000):  # 16 digits, above 2**53: float() must read these
            digits = "9" + "".join(map(str, rng.integers(0, 10, size=15)))
            point = int(rng.integers(1, 17))
            texts.append(digits[:point] + "." + digits[point:])
        raw = "\t".join(texts).encode()
        buf = np.frombuffer(raw, dtype=np.uint8)
        ends = np.append(np.flatnonzero(buf == 9), buf.size)
        starts = np.append(0, ends[:-1] + 1)
        good = [i for i, t in enumerate(texts) if float(t) > 0]
        weights = bytereader._parse_weights(buf, raw, starts[good], ends[good])
        expected = np.array([float(texts[i]) for i in good])
        assert np.array_equal(weights.view(np.int64), expected.view(np.int64))

    def test_merged_weight_overflow(self):
        for parse in (parse_edge_list, bytereader.read_edge_list, io._parse_lines):
            with pytest.raises(GraphBuildError, match="'A' -> 'B'.*non-finite weight inf"):
                parse("A\tB\t1e308\nB\tA\t1e308")

    @pytest.mark.parametrize("text", [
        "undirected\rA\tB\n",
        "A\tB\r\n# c\rB\tC\n",
        "mixed graph\nA\tB\t1",
        "A\tB\t1\nC\tD\t2\t3\n",
        "A\tB\t1\n\tG\t1\n",
        "A\tB\t1\nG \t \t1\n",
        "A\tB\t1\nB\tC\theavy",
        "A\tB\t1\nB\tC\t",
        "A\tB\t1\nB\tC\t5\x1c",
        "A\tB\t1\nB\tC\t1.2.3",
        "A\tB\t1\nB\tC\t.",
        "A\tB\t1\nC\tD\t0\n",
        "A\tB\t1\nC\tD\t-1\n",
        "A\tB\t1\nC\tD\tinf\n",
        "A\tB\t1\nC\tD\tnan\n",
        "# nothing\n\n",
        "",
    ])
    def test_same_parse_error(self, text):
        assert bytereader.read_edge_list(text) is None
        with pytest.raises(ParseError) as loop:
            io._parse_lines(text)
        with pytest.raises(ParseError) as array:
            parse_edge_list(text)
        assert (array.value.line, str(array.value)) == (loop.value.line, str(loop.value))

    def test_declarations_without_edges(self):
        text = "undirected\nZ\nY\n"
        assert bytereader.read_edge_list(text) is None
        with pytest.raises(GraphBuildError, match="empty edge list"):
            parse_edge_list(text)

    @pytest.mark.parametrize("text, message", [
        ("undirected\nZ\nY\n", "found 2 bare-label lines with no tab (fields are tab-separated)"),
        ("directed\n\n# a comment\n  A B 1  \nC\nD E\n",
         "found 3 bare-label lines with no tab (fields are tab-separated); line 4 holds a space: 'A B 1'"),
        ("undirected\nlone\n", "found 1 bare-label line with no tab (fields are tab-separated)"),
    ])
    def test_bare_labels_only_name_the_cause(self, text, message):
        assert bytereader.read_edge_list(text) is None
        with pytest.raises(GraphBuildError) as error:
            parse_edge_list(text)
        assert str(error.value) == "empty edge list: a graph needs at least one edge; " + message

    def test_whitespace_tables_match_str_strip(self):
        ascii_space = [c for c in range(128) if chr(c).isspace()]
        assert np.flatnonzero(bytereader._SPACE).tolist() == ascii_space
        others = "".join(c for c in map(chr, range(128, 0x110000)) if c.isspace())
        assert bytereader._UNICODE_SPACE.sub("", others) == ""
        assert len(bytereader._UNICODE_SPACE.findall("".join(map(chr, range(128, 0x3001))))) == len(others)


DATA = Path(__file__).resolve().parent.parent / "data"


class TestBlockReader:
    """``_layout`` reads whole lines a block at a time and the interning
    hashes and compares fields a slice at a time; with both sizes tiny,
    every line and field sits at a block edge."""

    @pytest.fixture(autouse=True, params=[0, 1, 9])
    def tiny_blocks(self, request, monkeypatch):
        monkeypatch.setattr(bytereader, "_BLOCK", request.param)
        monkeypatch.setattr(bytereader, "_FIELDS", request.param + 2)

    def check(self, text):
        graph = bytereader.read_edge_list(text)
        assert graph is not None, text
        assert_same_graph(graph, io._parse_lines(text))
        return graph

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_datasets(self, name):
        self.check((DATA / f"{name}.tsv").read_text(encoding="utf-8"))
        self.check(write_edge_list(builtin_dataset(name)))

    def test_round_trip_documents(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        labels = st.text(min_size=1, max_size=10).filter(
            lambda s: not any(c in s for c in "\t\n\r") and s == s.strip() and not s.startswith("#")
        )

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(
            edges=st.lists(st.tuples(labels, labels, st.sampled_from([1.0, 2.5, 7.0])), min_size=1, max_size=12),
            nodes=st.lists(labels, max_size=3),
            directed=st.booleans(),
        )
        def same_graph(edges, nodes, directed):
            g = build_graph(edges, directed=directed, nodes=nodes)
            hypothesis.assume(g.edge_count > 0)
            text = write_edge_list(g)
            if not _has_unicode_space(text):
                self.check(text)

        same_graph()

    def test_directive_after_comments_across_blocks(self):
        comments = "".join(f"# comment {i}\n\n   \n" for i in range(5))
        assert self.check(comments + " directed \nA\tB\t2\nB\tA\n").directed
        assert bytereader.read_edge_list(comments + "sideways\nA\tB\n") is None
        assert not self.check(comments + "A\tB\t2\nB\tC\n").directed

    def test_crlf_lines_at_block_edges(self):
        self.check("undirected\r\n# c\r\nA\tB\t2\r\nB\tC\r\nZ\r\nC\tA\t1.5\r\n\r\n")

    def test_plain_and_spaced_lines_alternate(self):
        # every other line holds a CR, a space or a 0x1C at a field edge, so that
        # adjacent blocks take both branches of _edge_fields
        spaced = ["{}\t{}\r", "{}\t {}\t2\r", " {} \t{}", "{}\t{} \t3", "\x1c{}\t{}", "{}\x1c\t\x1c{}\t4"]
        lines = ["undirected"]
        for i, template in enumerate(spaced):
            lines += [f"v{i}\tv{i + 1}\t{i + 1}", template.format(f"v{i}", f"v{i + 2}")]
        graph = self.check("\n".join(lines) + "\n")
        assert graph.n == 8

    @pytest.mark.parametrize("text", [
        "A\tB", "A\tB\t2\nB\tC", "A\tB\t2\nB\tCDEFGHI", "A\tB\t2\nB\tCDEFGHIJ", "A\tBCDEFG\t3",
        "x\tyz", "directed\nA\tB\t2\nZ",
    ])
    def test_no_final_lf_and_labels_in_the_last_bytes(self, text):
        self.check(text)

    def test_labels_at_word_and_long_edges(self):
        lines = ["undirected"]
        for size in (7, 8, 9, 64, 65):
            base = "".join(chr(97 + (i * 7) % 26) for i in range(size))
            first, last = "Z" + base[1:], base[:-1] + "Z"  # differ from base in one byte
            lines += [f"{base}\t{first}\t1", f"{last}\t{base}\t2", f"{first}\t{last}"]
        graph = self.check("\n".join(lines) + "\n")
        assert graph.n == 15

    def test_nul_byte_is_part_of_a_label(self):
        graph = self.check("a\ta\x00\t1\na\x00\tb\na\tb\t3\n\x00\ta\n")
        assert graph.nodes == ("a", "a\x00", "b", "\x00")

    def test_short_labels_hash_apart(self):
        # every byte value but the separator, lengths 1 to 7
        rng = np.random.default_rng(4)
        labels = {bytes(rng.integers(0, 256, size=int(rng.integers(1, 8)), dtype=np.uint8)) for _ in range(20000)}
        labels = sorted(label for label in labels if 9 not in label)
        raw = b"\t".join(labels)
        buf = np.frombuffer(raw, dtype=np.uint8)
        hi = np.append(np.flatnonzero(buf == 9), buf.size).astype(np.int32)
        lo = np.append(0, hi[:-1] + 1).astype(np.int32)
        assert [raw[a:b] for a, b in zip(lo.tolist(), hi.tolist())] == labels
        assert np.unique(bytereader._hash_fields(buf, raw, lo, hi)).size == len(labels)


def _has_unicode_space(text):
    return bytereader._UNICODE_SPACE.search(text) is not None


class TestRoundTripProperty:
    def test_writable_graphs_round_trip_exactly(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        labels = st.text(min_size=1, max_size=8).filter(
            lambda s: not any(c in s for c in "\t\n\r") and s == s.strip() and not s.startswith("#")
        )
        weights = st.floats(min_value=0.0, max_value=1e300, exclude_min=True, allow_nan=False)

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            edges=st.lists(st.tuples(labels, labels, weights), min_size=1, max_size=12),
            nodes=st.lists(labels, max_size=3),
            directed=st.booleans(),
        )
        def round_trip(edges, nodes, directed):
            g = build_graph(edges, directed=directed, nodes=nodes)
            hypothesis.assume(g.edge_count > 0)
            g2 = parse_edge_list(write_edge_list(g))
            assert g2.nodes == g.nodes
            assert g2.directed == g.directed
            assert [(u, v, w.hex()) for u, v, w in g2.edges()] == [(u, v, w.hex()) for u, v, w in g.edges()]

        round_trip()


GEXF_MINIMAL = """<?xml version="1.0" encoding="UTF-8"?>
<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
  <graph defaultedgetype="undirected">
    <nodes>
      <node id="a" label="Alpha"/>
      <node id="b" label="Beta"/>
    </nodes>
    <edges>
      <edge id="0" source="a" target="b" weight="3"/>
    </edges>
  </graph>
</gexf>
"""


class TestGexf:
    def test_minimal_two_node(self):
        g = parse_gexf_minimal(GEXF_MINIMAL)
        assert g.n == 2
        assert not g.directed
        assert g.weight("a", "b") == 3.0

    def test_directed_default_edge_type(self):
        text = GEXF_MINIMAL.replace('defaultedgetype="undirected"', 'defaultedgetype="directed"')
        g = parse_gexf_minimal(text)
        assert g.directed
        assert g.weight("a", "b") == 3.0
        assert g.weight("b", "a") == 0.0

    def test_missing_weight_defaults_to_one(self):
        text = GEXF_MINIMAL.replace(' weight="3"', "")
        g = parse_gexf_minimal(text)
        assert g.weight("a", "b") == 1.0

    def test_edge_to_missing_node_rejected(self):
        text = GEXF_MINIMAL.replace('target="b"', 'target="zz"')
        with pytest.raises(ParseError, match="missing node 'zz'"):
            parse_gexf_minimal(text)

    def test_unsupported_features_warn(self):
        text = GEXF_MINIMAL.replace(
            "<nodes>",
            """<attributes class="node"><attribute id="0" title="x" type="string"/></attributes><nodes>""",
        )
        with pytest.warns(GexfFeatureWarning, match="attribute"):
            g = parse_gexf_minimal(text)
        assert g.n == 2

    @pytest.mark.parametrize("old, new, messages", [
        ('defaultedgetype="undirected"', 'defaultedgetype="mutual"',
         ["defaultedgetype='mutual' not supported, treating as undirected"]),
        ("<graph ", '<graph mode="dynamic" ', ["dynamic graph attributes ignored"]),
        ('label="Alpha"/>', 'label="Alpha"><nodes/></node>', ["nested node hierarchies ignored"]),
        # the <attvalues> element is also met as an element of the graph
        ('label="Alpha"/>', 'label="Alpha"><attvalues/></node>',
         ["attribute definitions ignored", "node attvalues ignored"]),
        ('label="Alpha"/>', 'label="Alpha"><size/></node>', ["node child <size> ignored"]),
        ('weight="3"', 'weight="3" start="2000"', ["dynamic edge spells ignored"]),
        ('weight="3"', 'weight="3" type="directed"', ["per-edge type overrides ignored"]),
    ])
    def test_each_ignored_feature_warns(self, old, new, messages):
        assert old in GEXF_MINIMAL
        with pytest.warns(GexfFeatureWarning) as record:
            g = parse_gexf_minimal(GEXF_MINIMAL.replace(old, new))
        assert [str(w.message) for w in record] == messages
        assert (g.nodes, g.directed, g.weight("a", "b")) == (("a", "b"), False, 3.0)

    @pytest.mark.parametrize("old, new, message", [
        ('<node id="a"', "<node", "<node> without id attribute"),
        (' target="b"', "", "<edge> without source/target"),
        ('weight="3"', 'weight="heavy"', "bad edge weight 'heavy'"),
    ])
    def test_malformed_element_rejected(self, old, new, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_gexf_minimal(GEXF_MINIMAL.replace(old, new))

    def test_isolated_gexf_node_kept(self):
        text = GEXF_MINIMAL.replace('<node id="b"', '<node id="c"/><node id="b"')
        g = parse_gexf_minimal(text)
        assert g.isolates() == {"c"}

    def test_not_xml(self):
        with pytest.raises(ParseError, match="XML"):
            parse_gexf_minimal("A\tB\t1")

    def test_xml_without_graph_element(self):
        with pytest.raises(ParseError, match="<graph>"):
            parse_gexf_minimal("<gexf><meta/></gexf>")

    def test_duplicate_isolate_declarations_collapse(self):
        g = parse_edge_list("undirected\nZ\nZ\nA\tB\t1")
        assert g.nodes == ("Z", "A", "B")


class TestResultTable:
    def test_csv_and_json_agree(self, toy):
        vectors = list(all_distinctiveness(toy, alpha=2).values())
        table = ResultTable.from_vectors(vectors)
        csv_text = table.to_csv()
        payload = json.loads(table.to_json())
        lines = csv_text.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "node"
        assert header[1:] == [c["name"] for c in payload["columns"]]
        for row_i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == payload["nodes"][row_i]
            for col_i, cell in enumerate(cells[1:]):
                exact = payload["columns"][col_i]["values"][row_i]
                assert float(cell) == pytest.approx(exact, rel=1e-5)

    def test_json_is_full_precision(self, toy):
        vec = d5(toy, alpha=2)
        payload = json.loads(ResultTable.from_vectors([vec]).to_json())
        assert payload["columns"][0]["values"] == [float(v) for v in vec.values]

    def test_column_names_encode_metric_alpha_direction(self, toy_directed):
        vec = all_distinctiveness(toy_directed, alpha=2, direction="in", metrics=("d3",))["d3"]
        table = ResultTable.from_vectors([vec])
        assert table.columns[0][0] == "d3-in@2"

    def test_csv_is_lf_only(self, toy):
        table = ResultTable.from_vectors([d5(toy)])
        assert "\r" not in table.to_csv()

    def test_mixed_node_sets_rejected(self, toy, florentine):
        with pytest.raises(ValueError, match="share the node set"):
            ResultTable.from_vectors([d5(toy), d5(florentine)])

    def test_no_vectors_rejected(self):
        with pytest.raises(ValueError, match="^need at least one vector$"):
            ResultTable.from_vectors([])

    def test_six_significant_digits(self):
        g = build_graph([("A", "B", 1234567.0)])
        from dcmetrics import degree_centrality

        table = ResultTable.from_vectors([degree_centrality(g, weighted=True)])
        assert "1.23457e+06" in table.to_csv()

    def test_csv_matches_per_cell_reference(self):
        values = np.array([-0.0, 0.0, 5e-324, 1e-05, 1e16, 123456.5, 3.0, -42.0, 1e6, 0.1, 2.0**53])
        labels = ("Zürich", "東京", "naïve", "Ωmega", "50%", "a b", "😀", "Łódź", "ß", "x,y", "end")
        vectors = [
            CentralityVector("d1", 1.0, "undirected", labels, values),
            CentralityVector("d2", 2.5, "undirected", labels, values[::-1].copy()),
        ]
        table = ResultTable.from_vectors(vectors)
        for (_, vals), vec in zip(table.columns, vectors):
            assert vals.dtype == np.float64
            assert np.array_equal(np.array(vals).view(np.int64), vec.values.view(np.int64))
        nonfinite = ResultTable(labels=("α", "β", "γ"), columns=(("x", (math.nan, math.inf, -math.inf)),))
        no_columns = ResultTable(labels=labels, columns=())
        for t in (table, nonfinite, no_columns):
            assert t.to_csv() == naive_to_csv(t)
        assert table.to_csv().splitlines()[1] == "Zürich,-0,9.0072e+15"


def _json_reference(table):
    payload = {"nodes": list(table.labels),
               "columns": [{"name": name, "values": np.asarray(v).tolist()} for name, v in table.columns]}
    return json.dumps(payload, indent=2) + "\n"


def _awkward_values(rng, size):
    """Random doubles of every magnitude, with nan, +-inf, -0.0 and the
    smallest subnormal among them."""
    values = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64).copy()
    values[rng.integers(0, size, size=8)] = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16]
    return values


class TestResultTableBlocks:
    """``csv_blocks`` against the per-cell reference at block edges, and
    ``to_json`` against ``json.dumps`` of the columns."""

    @pytest.mark.parametrize("rows", [io._BLOCK_ROWS - 1, io._BLOCK_ROWS, io._BLOCK_ROWS + 1])
    def test_csv_at_block_edges(self, rows):
        rng = np.random.default_rng(rows)
        labels = tuple(f"n{i}" for i in range(rows))
        table = ResultTable(labels, (("a", _awkward_values(rng, rows)), ("b@2", _awkward_values(rng, rows))))
        blocks = list(table.csv_blocks())
        assert len(blocks) == 1 + -(-rows // io._BLOCK_ROWS)
        assert all(block.endswith("\n") for block in blocks)
        assert "".join(blocks) == table.to_csv() == naive_to_csv(table)

    def test_zero_columns_and_zero_rows(self):
        for table in (ResultTable(("a", "b"), ()), ResultTable((), (("x", np.zeros(0)),)), ResultTable((), ())):
            assert table.to_csv() == naive_to_csv(table)
            assert table.to_json() == _json_reference(table)

    @pytest.mark.parametrize("rows", [3, 4, 5, 9])
    def test_json_matches_json_dumps(self, monkeypatch, rows):
        monkeypatch.setattr(io, "_BLOCK_ROWS", 4)
        rng = np.random.default_rng(rows)
        labels = ("Zürich", "東京", "a\"b", "c\\d", "😀", "x,y", "tab\there", "\x00", "\u2028") [:rows]
        labels += tuple(f"n{i}" for i in range(rows - len(labels)))
        columns = (("d1@1", _awkward_values(rng, rows)), ("d5-in@2.5:norm", _awkward_values(rng, rows)),
                   ("Ω", np.arange(rows) * 0.1))
        for k in range(1, 4):
            table = ResultTable(labels, columns[:k])
            assert "".join(table.json_blocks()) == table.to_json() == _json_reference(table)

    def test_table_keeps_the_score_arrays(self, toy):
        vectors = list(all_distinctiveness(toy, alpha=2).values())
        table = ResultTable.from_vectors(vectors)
        assert all(vals is vec.values for (_, vals), vec in zip(table.columns, vectors))


class TestParseMemory:
    """The parse holds memory in proportion to the graph: a temporary the
    size of the whole text per byte, or several int64 arrays per line,
    would push the traced peak past the bound. The array reader peaks near
    8 times the input bytes on this list (the whole-text reader it replaced
    peaked over 10 times)."""

    def test_parse_peak(self):
        rng = np.random.default_rng(5)
        u, v, w = rng.integers(0, 30_000, 100_000), rng.integers(0, 30_000, 100_000), rng.integers(1, 21, 100_000)
        text = "undirected\n" + "".join(map("u%d\tu%d\t%d\n".__mod__, zip(u.tolist(), v.tolist(), w.tolist())))
        tracemalloc.start()
        try:
            graph = parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.edge_count > 99_000
        assert peak < 9 * len(text.encode())
