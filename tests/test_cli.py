import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dcmetrics import (
    BASELINES,
    METRICS,
    GeneratorParams,
    all_distinctiveness,
    barabasi_albert,
    baseline,
    build_graph,
    builtin_dataset,
    rank,
    write_edge_list,
)
from dcmetrics import cli, io
from dcmetrics.cli import run_cli
from naive import naive_compare_csv, naive_rank_csv


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_toy_csv_b_row(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--dataset", "toy-undirected",
            "--metrics", "d1,d2,d3,d4,d5", "--alpha", "1",
        )
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("B,"))
        cells = [f"{float(x):.3f}" for x in row.split(",")[1:]]
        assert cells == ["5.882", "1.893", "9.876", "6.714", "2.500"]

    def test_json_and_csv_agree(self, capsys, tmp_path):
        args = ["compute", "--dataset", "toy-undirected", "--metrics", "d1", "--alpha", "2"]
        code, csv_out, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        code, json_out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        payload = json.loads(json_out)
        b_index = payload["nodes"].index("B")
        csv_b = float(next(l for l in csv_out.splitlines() if l.startswith("B,")).split(",")[1])
        assert csv_b == pytest.approx(payload["columns"][0]["values"][b_index], rel=1e-5)

    @pytest.mark.filterwarnings("error")
    def test_degree_power_overflow(self, capsys):
        # Medici's degree 6 to the power 400 overflows: Acciaiuoli's one
        # entry takes the log form (d1, d2) and 6**-400 (d5)
        code, out, err = run(capsys, "compute", "--dataset", "florentine", "--metrics", "d1,d2,d5", "--alpha", "400")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "Acciaiuoli,-310.114,-310.114,5.48908e-312"

    @pytest.mark.filterwarnings("error")
    def test_weight_power_overflow(self, capsys, tmp_path):
        # 1e200**(alpha+1) overflows: A's and B's terms to each other are rescaled
        heavy = tmp_path / "heavy.tsv"
        heavy.write_text("A\tB\t1e200\nB\tC\t1\nC\tD\t2\n")
        code, out, err = run(capsys, "compute", "--input", str(heavy), "--metrics", "d4", "--alpha", "1,2,3")
        assert (code, err) == (0, "")
        assert out == ("node,d4@1,d4@2,d4@3\nA,1e+200,1e+200,1e+200\nB,1e+200,1e+200,1e+200\n"
                       "C,2,2,2\nD,1.33333,1.6,1.77778\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("edges, argv, message", [
        ("A\tB\t1.7e308\nB\tC\t1\nC\tD\t1\n", ["--metrics", "d3"],
         "error: d3 of node 'A' overflows float64 at alpha=1 (undirected)\n"),
        ("".join(f"H\tL{i}\t1e308\n" for i in range(19)), ["--metrics", "d1", "--alpha", "400"],
         "error: d1 of node 'H' overflows float64 at alpha=400 (undirected)\n"),
    ], ids=["d3-total", "d1-product"])
    def test_overflow_is_one_named_error(self, capsys, tmp_path, edges, argv, message):
        path = tmp_path / "heavy.tsv"
        path.write_text(edges)
        assert run(capsys, "compute", "--input", str(path), *argv) == (1, "", message)

    @pytest.mark.parametrize("alphas", ["1,1", "2,2.0", "1,2,1"])
    def test_refuses_repeated_alpha(self, capsys, alphas):
        code, out, err = run(capsys, "compute", "--dataset", "toy-undirected", "--metrics", "d1", "--alpha", alphas)
        assert (code, out) == (1, "")
        assert err == f"error: alpha {float(alphas.split(',')[0])!r} is given more than once\n"

    @pytest.mark.parametrize("argv, message", [
        (["--metrics", "d1,bogus"], "unknown metric 'bogus'; choose from d1, d2, d3, d4, d5, degree, closeness, "
                                    "betweenness, eigenvector, constraint, effective-size, dc, baselines, all"),
        (["--metrics", " , "], "no metrics requested"),
        (["--alpha", "1,two"], "bad alpha list '1,two'"),
        (["--alpha", ","], "alpha list is empty"),
        (["--direction", "both"], "--direction both only applies to directed graphs"),
    ])
    def test_bad_arguments_are_exit_1(self, capsys, argv, message):
        code, out, err = run(capsys, "compute", "--dataset", "toy-undirected", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_direction_both_is_in_then_out(self, capsys):
        def columns(direction):
            code, out, err = run(capsys, "compute", "--dataset", "toy-directed", "--metrics", "dc",
                                 "--direction", direction)
            assert (code, err) == (0, "")
            return [line.split(",") for line in out.splitlines()]

        both, inward, outward = columns("both"), columns("in"), columns("out")
        assert [row[:6] for row in both] == inward
        assert [row[:1] + row[6:] for row in both] == outward

    def test_directed_defaults_to_both_directions(self, capsys):
        code, out, _ = run(capsys, "compute", "--dataset", "toy-directed", "--metrics", "d1")
        assert code == 0
        header = out.splitlines()[0]
        assert "d1-in@1" in header and "d1-out@1" in header

    def test_normalize(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--dataset", "toy-undirected",
            "--metrics", "d5", "--alpha", "1", "--normalize",
        )
        assert code == 0
        assert "d5@1:norm" in out.splitlines()[0]
        b = float(next(l for l in out.splitlines() if l.startswith("B,")).split(",")[1])
        assert b == pytest.approx(0.479, abs=5e-4)

    def test_normalize_baselines_is_data_error(self, capsys):
        code, _, err = run(
            capsys, "compute", "--dataset", "toy-undirected",
            "--metrics", "degree", "--normalize",
        )
        assert code == 1
        assert "normalize" in err

    def test_normalize_self_loops_only_is_data_error(self, capsys, tmp_path):
        loops = tmp_path / "loops.tsv"
        loops.write_text("A\tA\t1\n")
        code, _, err = run(capsys, "compute", "--input", str(loops), "--metrics", "d1", "--normalize")
        assert code == 1
        assert "graph has no edges left after self-loops were dropped" in err

    def test_space_separated_edges_name_the_cause(self, capsys, tmp_path):
        path = tmp_path / "spaces.tsv"
        path.write_text("undirected\nA B 1\nB C 2\n")
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == ("error: empty edge list: a graph needs at least one edge; found 2 bare-label lines "
                       "with no tab (fields are tab-separated); line 2 holds a space: 'A B 1'\n")

    def test_baselines_group(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--dataset", "toy-undirected", "--metrics", "baselines",
        )
        assert code == 0
        header = out.splitlines()[0]
        for name in ("degree", "closeness", "betweenness", "eigenvector", "constraint", "effective-size"):
            assert name in header

    def test_missing_file_is_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "compute", "--input", str(tmp_path / "nope.tsv"), "--metrics", "d1")
        assert code == 1
        assert "nope.tsv" in err

    def test_usage_error_is_exit_2(self, capsys):
        assert run(capsys, "compute", "--metrics", "d1")[0] == 2  # no input source
        assert run(capsys, "nonsense")[0] == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "scores.csv"
        code, out, _ = run(
            capsys, "compute", "--dataset", "toy-undirected", "--metrics", "d1",
            "-o", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("node,d1@1")

    def test_output_in_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "scores.csv"
        code, out, err = run(capsys, "compute", "--dataset", "toy-undirected", "-o", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 2] No such file or directory: ")

    def test_gexf_input(self, capsys, tmp_path):
        gexf = tmp_path / "g.gexf"
        gexf.write_text(
            '<gexf><graph defaultedgetype="undirected">'
            '<nodes><node id="a"/><node id="b"/><node id="c"/></nodes>'
            '<edges><edge source="a" target="b" weight="2"/>'
            '<edge source="b" target="c"/></edges></graph></gexf>'
        )
        code, out, _ = run(capsys, "compute", "--input", str(gexf), "--metrics", "d1")
        assert code == 0
        assert out.startswith("node,d1@1")


class TestDirectedExplicitness:
    def test_rank_requires_direction_on_directed(self, capsys):
        code, _, err = run(capsys, "rank", "--dataset", "toy-directed", "--metric", "d1")
        assert code == 1
        assert "--direction" in err

    def test_rank_with_explicit_direction(self, capsys):
        code, out, _ = run(
            capsys, "rank", "--dataset", "toy-directed", "--metric", "d1",
            "--direction", "out",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("1,A,")  # A tops the out ranking

    def test_relaxed_alpha_flag(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--dataset", "toy-undirected", "--metrics", "d1",
            "--alpha", "0.5", "--relaxed-alpha",
        )
        assert code == 0
        assert out.splitlines()[0] == "node,d1@0.5"


class TestBounds:
    def test_d5_example(self, capsys):
        code, out, _ = run(capsys, "bounds", "--metric", "d5", "--n", "6", "--alpha", "1")
        assert code == 0
        assert out.strip() == "lower=0.2 upper=5"

    def test_invalid_params_exit_1(self, capsys):
        code, _, err = run(capsys, "bounds", "--metric", "d1", "--n", "1")
        assert code == 1
        assert "n must be" in err

    @pytest.mark.parametrize("args", [
        ("--metric", "d3", "--n", "10", "--max-weight", "1e200", "--alpha", "2"),
        ("--metric", "d4", "--n", "10", "--max-weight", "1e308", "--alpha", "2"),
        ("--metric", "d1", "--n", "100", "--max-weight", "1e307", "--alpha", "3"),
    ])
    def test_overflow_exit_1(self, capsys, args):
        code, out, err = run(capsys, "bounds", *args)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {args[1]} bounds are not finite in float64 at n=")

    def test_lower_bound_past_an_overflowing_power(self, capsys):
        # (n-1)**alpha overflows, the bound 1/(n-1)**alpha rounds to 0.0
        code, out, err = run(capsys, "bounds", "--metric", "d5", "--n", "100", "--alpha", "1000")
        assert (code, out, err) == (0, "lower=0 upper=99\n", "")

    def test_lower_bound_past_an_overflowing_denominator(self, capsys):
        # 10**307 is finite, 98 times it is not: the bound is a subnormal
        code, out, err = run(capsys, "bounds", "--metric", "d4", "--n", "100", "--max-weight", "10", "--alpha", "307")
        assert (code, out, err) == (0, "lower=1.02041e-309 upper=990\n", "")


class TestRank:
    def test_competition(self, capsys):
        code, out, _ = run(
            capsys, "rank", "--dataset", "toy-undirected", "--metric", "degree",
            "--tie-rule", "competition",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rank,node,score"
        assert lines[1].startswith("1,B,")
        # A, C, D tie at rank 2; E and F at 5
        assert {l.split(",")[0] for l in lines[2:5]} == {"2"}
        assert {l.split(",")[0] for l in lines[5:]} == {"5"}

    @pytest.mark.parametrize("dataset", ["florentine", "zachary"])
    @pytest.mark.parametrize("tie_rule", ["competition", "average"])
    @pytest.mark.parametrize("metric", ["d2", "degree"])
    def test_bytes_match_reference(self, capsys, dataset, tie_rule, metric):
        code, out, _ = run(capsys, "rank", "--dataset", dataset, "--metric", metric, "--tie-rule", tie_rule)
        g = builtin_dataset(dataset)
        vec = baseline(g, metric) if metric == "degree" else all_distinctiveness(g, metrics=(metric,))[metric]
        assert code == 0
        assert out == naive_rank_csv(rank(vec, tie_rule=tie_rule), vec.values)

    def test_average_ranks_print_exactly_past_100000(self, capsys, tmp_path):
        """A star on 100,002 nodes whose two lightest leaves tie at the
        bottom: both rank 100001.5, which "%g" would round to 100002."""
        path = tmp_path / "star.tsv"
        weights = [2] * 99_999 + [1, 1]
        path.write_text("".join(f"hub\tleaf{i}\t{w}\n" for i, w in enumerate(weights)))
        code, out, err = run(capsys, "rank", "--input", str(path), "--metric", "degree",
                             "--weighted", "--tie-rule", "average")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[1] == "1,hub,200000"
        assert lines[2] == "50001,leaf0,2"
        assert lines[-2:] == ["100001.5,leaf99999,1", "100001.5,leaf100000,1"]


    def test_one_metric_only(self, capsys):
        code, out, err = run(capsys, "rank", "--dataset", "toy-undirected", "--metric", "d1,degree")
        assert (code, out, err) == (1, "", "error: rank takes exactly one metric\n")


class TestCompare:
    def test_matrix_symmetric_unit_diagonal(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--dataset", "zachary",
            "--metrics", "d1,degree", "--alpha", "1", "--weighted",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "metric,d1,weighted-degree"
        first = lines[1].split(",")
        assert first[0] == "d1"
        assert float(first[1]) == 1.0
        assert float(first[2]) == pytest.approx(0.974, abs=0.02)

    @pytest.mark.parametrize("dataset, flags, dc_names, base_names, directions, weighted", [
        ("zachary", ["--metrics", "all", "--weighted"], METRICS, BASELINES, ["undirected"], True),
        ("toy-directed", [], METRICS, (), ["in", "out"], False),
        ("florentine", ["--metrics", "dc,baselines"], METRICS, BASELINES, ["undirected"], False),
    ])
    def test_bytes_match_per_pair_reference(self, capsys, dataset, flags, dc_names, base_names,
                                            directions, weighted):
        code, out, err = run(capsys, "compare", "--dataset", dataset, *flags)
        assert (code, err) == (0, "")
        expected = naive_compare_csv(builtin_dataset(dataset), dc_names, base_names, 1.0, directions, weighted)
        assert out == expected

    @pytest.mark.parametrize("edges, metrics, dc_names, base_names", [
        ([("A", "B", 1.0), ("B", "C", 1.0), ("C", "A", 1.0)], "dc", METRICS, ()),  # every score ties
        ([("A", "B", 1.0)], "d1,degree", ("d1",), ("degree",)),  # two nodes
    ])
    def test_errors_match_per_pair_reference(self, capsys, tmp_path, edges, metrics, dc_names, base_names):
        path = tmp_path / "g.tsv"
        path.write_text("".join(f"{u}\t{v}\t{w}\n" for u, v, w in edges))
        with pytest.raises(ValueError) as ref:
            naive_compare_csv(build_graph(edges), dc_names, base_names, 1.0, ["undirected"], False)
        code, out, err = run(capsys, "compare", "--input", str(path), "--metrics", metrics)
        assert (code, out) == (1, "")
        assert err == f"error: {ref.value}\n"
        assert str(ref.value) in ("rank correlation is undefined for constant scores",
                                  "spearman needs at least 3 nodes")


class TestCompareTwoGraphs:
    def test_same_graph_correlates_perfectly(self, capsys, tmp_path):
        from dcmetrics import builtin_dataset, write_edge_list

        path = tmp_path / "toy.tsv"
        path.write_text(write_edge_list(builtin_dataset("toy-undirected")))
        code, out, _ = run(
            capsys, "compare", "--input", str(path), "--input2", str(path),
            "--metrics", "d1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "metric,d1@a,d1@b"
        assert float(lines[1].split(",")[2]) == 1.0

    def test_two_graph_mode_needs_single_metric(self, capsys, tmp_path):
        from dcmetrics import builtin_dataset, write_edge_list

        path = tmp_path / "toy.tsv"
        path.write_text(write_edge_list(builtin_dataset("toy-undirected")))
        code, _, err = run(
            capsys, "compare", "--input", str(path), "--input2", str(path),
            "--metrics", "d1,d2",
        )
        assert code == 1
        assert "exactly one metric" in err

    GEXF = (
        '<gexf><graph defaultedgetype="undirected">'
        '<nodes><node id="a"/><node id="b"/><node id="c"/><node id="d"/></nodes>'
        '<edges><edge source="a" target="b" weight="2"/><edge source="b" target="c"/>'
        '<edge source="c" target="d" weight="3"/><edge source="a" target="c"/></edges></graph></gexf>'
    )

    def test_second_graph_as_gexf(self, capsys, tmp_path):
        plain, gexf = tmp_path / "g.tsv", tmp_path / "g.gexf"
        plain.write_text("a\tb\t2\nb\tc\t1\nc\td\t3\na\tc\t1\n")
        gexf.write_text(self.GEXF)
        code, out, err = run(capsys, "compare", "--input", str(plain), "--input2", str(gexf), "--metrics", "d1")
        assert (code, err) == (0, "")
        assert out == "metric,d1@a,d1@b\nd1@a,1,1\nd1@b,1,1\n"

    def test_unreadable_second_graph(self, capsys, tmp_path):
        missing = tmp_path / "nope.tsv"
        code, out, err = run(capsys, "compare", "--dataset", "zachary", "--input2", str(missing), "--metrics", "d1")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read input file {missing}: ")

    def test_metric_count_checked_before_second_graph_is_read(self, capsys, tmp_path):
        missing = tmp_path / "nope.tsv"
        code, out, err = run(capsys, "compare", "--dataset", "zachary", "--input2", str(missing),
                             "--metrics", "d1,d2")
        assert (code, out) == (1, "")
        assert err == "error: comparing two graphs takes exactly one metric\n"


class TestGenerateAndSweep:
    def test_generate_echoes_seed_and_is_reproducible(self, capsys, tmp_path):
        code, out1, _ = run(capsys, "generate", "--n", "20", "--m-attach", "2",
                            "--weight-low", "1", "--weight-high", "9", "--seed", "42")
        assert code == 0
        assert "seed=42" in out1.splitlines()[0]
        code, out2, _ = run(capsys, "generate", "--n", "20", "--m-attach", "2",
                            "--weight-low", "1", "--weight-high", "9", "--seed", "42")
        assert out1 == out2

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("DISTINCT_SEED", "7")
        code, out, _ = run(capsys, "generate", "--n", "10", "--m-attach", "1")
        assert code == 0
        assert "seed=7" in out.splitlines()[0]

    def test_seed_env_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("DISTINCT_SEED", "seven")
        code, out, err = run(capsys, "generate", "--n", "10", "--m-attach", "1")
        assert (code, out, err) == (1, "", "error: DISTINCT_SEED must be an integer, got 'seven'\n")

    def test_generate_then_compute_round_trip(self, capsys, tmp_path):
        path = tmp_path / "ba.tsv"
        code, _, _ = run(capsys, "generate", "--n", "15", "--m-attach", "2",
                         "--seed", "3", "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "compute", "--input", str(path), "--metrics", "d1")
        assert code == 0
        assert len(out.strip().splitlines()) == 16

    def test_sweep_csv_and_svg(self, capsys, tmp_path):
        svg1 = tmp_path / "a.svg"
        svg2 = tmp_path / "b.svg"
        args = ["sweep", "--n", "20", "--m-attach", "2", "--weight-low", "1",
                "--weight-high", "9", "--ensemble", "2", "--alphas", "1,2",
                "--seed", "5", "--svg"]
        code, out1, _ = run(capsys, *args, str(svg1))
        assert code == 0
        assert out1.splitlines()[0] == "# sweep seed=5 ensemble=2"
        assert "dc_metric,baseline,alpha,mean_spearman" in out1
        code, out2, _ = run(capsys, *args, str(svg2))
        assert out1 == out2
        assert svg1.read_bytes() == svg2.read_bytes()  # byte-identical SVG
        assert svg1.read_text().startswith("<svg")

    def test_sweep_refuses_graphs_below_three_nodes(self, capsys):
        code, out, err = run(capsys, "sweep", "--n", "2", "--m-attach", "1")
        assert (code, out) == (1, "")
        assert err == "error: the sweep needs graphs of at least 3 nodes for rank correlation, got n=2\n"

    def test_sweep_refuses_repeated_alpha(self, capsys):
        code, out, err = run(capsys, "sweep", "--n", "10", "--ensemble", "3", "--alphas", "1,1")
        assert (code, out) == (1, "")
        assert err == "error: alpha 1.0 is given more than once\n"


class TestDatasets:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "datasets")
        assert code == 0
        assert "zachary: 34 nodes, 78 edges" in out

    def test_export(self, capsys, tmp_path):
        code, out, _ = run(capsys, "datasets", "--export-dir", str(tmp_path / "data"))
        assert code == 0
        files = sorted(p.name for p in (tmp_path / "data").iterdir())
        assert files == ["florentine.tsv", "toy-directed.tsv", "toy-undirected.tsv", "zachary.tsv"]


class TestByteOrderMark:
    """Files saved with a UTF-8 byte-order mark read as if it were absent."""

    TOY = "A\tB\t2\nA\tE\t5\nB\tC\t2\nB\tD\t2\nB\tF\t5\nC\tD\t5\n"

    def _compute(self, capsys, path):
        return run(capsys, "compute", "--input", str(path), "--metrics", "d1,d5", "--alpha", "2")

    def test_directive_after_bom(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text("undirected\n" + self.TOY, encoding="utf-8")
        marked.write_text("undirected\n" + self.TOY, encoding="utf-8-sig")
        code, out, err = self._compute(capsys, marked)
        assert (code, err) == (0, "")
        assert out == self._compute(capsys, plain)[1]

    def test_gexf_without_suffix_after_bom(self, capsys, tmp_path):
        path = tmp_path / "graph.xml"
        path.write_text(
            '<gexf><graph defaultedgetype="undirected">'
            '<nodes><node id="a"/><node id="b"/><node id="c"/></nodes>'
            '<edges><edge source="a" target="b" weight="2"/>'
            '<edge source="b" target="c"/></edges></graph></gexf>',
            encoding="utf-8-sig",
        )
        code, out, _ = run(capsys, "compute", "--input", str(path), "--metrics", "d1")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()] == ["node", "a", "b", "c"]

    def test_edge_list_starting_with_angle_bracket(self, capsys, tmp_path):
        """A first line that starts with "<" but holds a tab is an edge."""
        path = tmp_path / "graph.txt"
        path.write_text("<a>\tb\t1\nb\tc\t2\n", encoding="utf-8-sig")
        code, out, err = run(capsys, "compute", "--input", str(path), "--metrics", "d1")
        assert (code, err) == (0, "")
        assert [line.split(",")[0] for line in out.splitlines()] == ["node", "<a>", "b", "c"]

    def test_first_edge_label_after_bom(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(self.TOY, encoding="utf-8")
        marked.write_text(self.TOY, encoding="utf-8-sig")
        code, out, _ = self._compute(capsys, marked)
        assert code == 0
        assert out.splitlines()[1].startswith("A,")
        for first, second in ((plain, marked), (marked, plain)):
            code, out, err = run(
                capsys, "compare", "--input", str(first), "--input2", str(second), "--metrics", "d1",
            )
            assert (code, err) == (0, "")
            assert out.splitlines()[1] == "d1@a,1,1"


class TestFileDecoding:
    """An input file reads as text mode reads it: UTF-8, a byte-order mark
    dropped, CRLF and a lone CR read as LF."""

    TEXT = "# toy\nundirected\n" + TestByteOrderMark.TOY + "Z\n"

    def _compute(self, capsys, path):
        return run(capsys, "compute", "--input", str(path), "--metrics", "dc", "--alpha", "2")

    @pytest.mark.parametrize("encode", [
        lambda text: "\ufeff" + text,
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\r"),
        lambda text: "\ufeff" + "".join(line + ("\r\n", "\r", "\n")[i % 3] for i, line in enumerate(text.split("\n"))),
    ], ids=["bom", "crlf", "cr", "mixed"])
    def test_same_scores_as_the_lf_file(self, capsys, tmp_path, encode):
        plain, other = tmp_path / "plain.tsv", tmp_path / "other.tsv"
        plain.write_bytes(self.TEXT.encode())
        other.write_bytes(encode(self.TEXT).encode())
        expected = self._compute(capsys, plain)
        assert expected[0] == 0
        assert self._compute(capsys, other) == expected

    def test_invalid_utf8_is_the_text_mode_error(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"\xef\xbb\xbfA\tB\t2\nB\tC\xff\n")
        with pytest.raises(UnicodeDecodeError) as exc:
            path.read_text(encoding="utf-8-sig")
        assert self._compute(capsys, path) == (1, "", f"error: {exc.value}\n")

    def test_cut_byte_order_mark_reads_as_text_mode_reads_it(self, capsys, tmp_path):
        path = tmp_path / "cut.tsv"
        path.write_bytes(b"\xef\xbb")
        assert path.read_text(encoding="utf-8-sig") == ""
        assert self._compute(capsys, path) == (1, "", "error: document contains no edges\n")


class TestStreamedOutput:
    """``compute`` scores every vector before it opens its output, then
    writes the table in blocks; every command hands ``_emit`` blocks, not
    a bare string."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scoring_error_writes_nothing(self, capsys, tmp_path, fmt):
        target = tmp_path / "scores.out"
        for output in ([], ["-o", str(target)]):
            # alpha 1 is scored, then alpha 0.5 fails without --relaxed-alpha
            code, out, err = run(capsys, "compute", "--dataset", "zachary", "--alpha", "1,0.5",
                                 "--format", fmt, *output)
            assert (code, out) == (1, "")
            assert "alpha must be >= 1" in err
        assert not target.exists()

    def test_blocks_to_stdout_and_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_BLOCK_ROWS", 5)  # zachary's 34 rows in 7 blocks
        expected = io.ResultTable.from_vectors(list(all_distinctiveness(builtin_dataset("zachary")).values()))
        code, out, _ = run(capsys, "compute", "--dataset", "zachary")
        assert (code, out) == (0, expected.to_csv())
        target = tmp_path / "scores.csv"
        assert run(capsys, "compute", "--dataset", "zachary", "-o", str(target))[:2] == (0, "")
        assert target.read_bytes() == expected.to_csv().encode()

    @pytest.mark.parametrize("argv", [
        ["compute", "--dataset", "toy-undirected"],
        ["compute", "--dataset", "toy-undirected", "--format", "json"],
        ["rank", "--dataset", "florentine", "--metric", "d2"],
        ["compare", "--dataset", "florentine"],
        ["generate", "--n", "30", "--m-attach", "2"],
        ["sweep", "--n", "12", "--ensemble", "2", "--alphas", "1"],
        ["datasets"],
    ])
    def test_every_command_emits_blocks(self, capsys, monkeypatch, argv):
        seen = []
        emit = cli._emit

        def record(args, blocks):
            seen.append(type(blocks))
            emit(args, blocks)

        monkeypatch.setattr(cli, "_emit", record)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        assert len(seen) == 1 and not issubclass(seen[0], str)

    @pytest.mark.parametrize("text", [
        "", "\n", "  \n\t\n<gexf>\n", "A\tB\n", "\n\n <a>\tb\t1\n", "\u2028<x>", "<only", " \x1c\n#c\nA\tB",
    ])
    def test_first_line_sniff_matches_lstrip(self, text):
        assert re.match(cli._FIRST_LINE, text)[1] == text.lstrip().partition("\n")[0]


def parsed(capsys, parser, argv):
    """Exit code (None when the parse went through), stdout and stderr of
    one parse."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMANDS = [name for name, *_ in cli._COMMANDS]


class TestOneCommandParser:
    """``build_parser(argv)`` adds arguments to the command ``argv`` names
    only, and parses, helps and fails byte for byte as the parser of every
    command does."""

    @pytest.mark.parametrize("argv", [
        ["--help"], ["--version"], [],
        *([name, "--help"] for name in COMMANDS),
        ["nonsense"], ["nonsense", "--input", "x"], ["compute", "--bogus"], ["compute", "--dataset", "karate"],
        ["--bogus", "sweep"], ["--", "bounds", "--metric", "d1", "--n", "5"],
    ])
    def test_same_bytes_as_the_full_parser(self, capsys, argv):
        assert parsed(capsys, cli.build_parser(argv), argv) == parsed(capsys, cli.build_parser(), argv)

    @pytest.mark.parametrize("argv", [["compute", "--input", "x.tsv"], ["-h"], ["sweep", "-h"]])
    def test_arguments_only_for_the_named_command(self, argv):
        (subparsers,) = [a for a in cli.build_parser(argv)._actions if a.dest == "command"]
        built = [name for name, p in subparsers.choices.items() if len(p._actions) > 1]  # beyond -h
        assert built == ([argv[0]] if argv[0] in COMMANDS else COMMANDS)
        assert list(subparsers.choices) == COMMANDS

    def test_dataset_choices(self, capsys):
        code, _, err = parsed(capsys, cli.build_parser(), ["rank", "--dataset", "karate", "--metric", "d1"])
        assert code == 2
        assert "(choose from 'toy-undirected', 'toy-directed', 'florentine', 'zachary')" in err


def spawned(*argv, dev=False):
    """Exit code, stdout and stderr of ``python -m dcmetrics.cli`` in a fresh
    interpreter that finds this package where the tests found it, through
    pipes; ``dev`` runs it under ``-X dev``."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, *(["-X", "dev"] if dev else []), "-m", "dcmetrics.cli", *argv],
                          capture_output=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


class TestMain:
    """``cli.main``, the process entry point: every exit code prints what
    the full shutdown of the development mode prints."""

    def test_compute_through_a_pipe(self, capsys, tmp_path):
        path = tmp_path / "ba.tsv"
        path.write_text(write_edge_list(barabasi_albert(GeneratorParams(n=3000, m_attach=2, weight_high=9))))
        assert run_cli(["compute", "--input", str(path)]) == 0
        expected = capsys.readouterr().out.encode()
        assert len(expected) > 1 << 16  # more than a pipe holds
        assert spawned("compute", "--input", str(path)) == (0, expected, b"")
        assert spawned("compute", "--input", str(path), dev=True) == (0, expected, b"")

    def test_data_error_is_exit_1(self, tmp_path):
        path = tmp_path / "heavy.tsv"
        path.write_text("A\tB\t1e200\nB\tC\t1\nC\tD\t2\n")
        argv = ["compute", "--input", str(path), "--metrics", "d3", "--alpha", "2"]
        error = b"error: d3 of node 'A' overflows float64 at alpha=2 (undirected)\n"
        assert spawned(*argv) == spawned(*argv, dev=True) == (1, b"", error)

    def test_unknown_option_is_exit_2(self):
        argv = ["compute", "--dataset", "zachary", "--bogus"]
        code, out, err = spawned(*argv)
        assert (code, out) == (2, b"")
        assert err.endswith(b"dcmetrics: error: unrecognized arguments: --bogus\n")
        assert spawned(*argv, dev=True) == (code, out, err)

    def test_freezes_only_outside_the_development_mode(self):
        script = ("import atexit, gc, sys\n"
                  "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
                  "sys.argv = ['dcmetrics', 'bounds', '--metric', 'd5', '--n', '10']\n"
                  "from dcmetrics.cli import main\n"
                  "main()\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for flags, frozen in (([], b"True"), (["-X", "dev"], b"False")):
            done = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, env=env, timeout=120)
            assert (done.returncode, done.stdout, done.stderr.strip()) == (0, b"lower=0.111111 upper=9\n", frozen)

    def test_run_cli_leaves_the_collector_alone(self, capsys):
        frozen = gc.get_freeze_count()
        assert run_cli(["bounds", "--metric", "d5", "--n", "10"]) == 0
        assert gc.get_freeze_count() == frozen and gc.isenabled()
