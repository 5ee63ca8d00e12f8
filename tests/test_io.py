import json
import math
import re
import time

import numpy as np
import pytest

from dcmetrics import (
    CentralityVector,
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
from naive import naive_build_graph, naive_to_csv


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


class TestArrayReaderMatchesLoop:
    """The array reader in ``dcmetrics.bytereader`` against the line-by-line reader."""

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
        monkeypatch.setattr(bytereader, "_hash_fields", fake_hash)
        assert bytereader.read_edge_list(text) is None
        assert_same_graph(parse_edge_list(text), reference)

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

    def test_whitespace_tables_match_str_strip(self):
        ascii_space = [c for c in range(128) if chr(c).isspace()]
        assert np.flatnonzero(bytereader._SPACE).tolist() == ascii_space
        others = "".join(c for c in map(chr, range(128, 0x110000)) if c.isspace())
        assert bytereader._UNICODE_SPACE.sub("", others) == ""
        assert len(bytereader._UNICODE_SPACE.findall("".join(map(chr, range(128, 0x3001))))) == len(others)


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
            assert all(type(x) is float for x in vals)
            assert np.array_equal(np.array(vals).view(np.int64), vec.values.view(np.int64))
        nonfinite = ResultTable(labels=("α", "β", "γ"), columns=(("x", (math.nan, math.inf, -math.inf)),))
        no_columns = ResultTable(labels=labels, columns=())
        for t in (table, nonfinite, no_columns):
            assert t.to_csv() == naive_to_csv(t)
        assert table.to_csv().splitlines()[1] == "Zürich,-0,9.0072e+15"
