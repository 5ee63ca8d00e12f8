import json
import math

import numpy as np
import pytest

from dcmetrics import (
    CentralityVector,
    ParseError,
    all_distinctiveness,
    build_graph,
    builtin_dataset,
    d5,
    parse_edge_list,
    parse_gexf_minimal,
    write_edge_list,
)
from dcmetrics.io import GexfFeatureWarning, ResultTable
from naive import naive_to_csv


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
