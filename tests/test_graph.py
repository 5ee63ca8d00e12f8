import numpy as np
import pytest

from dcmetrics import GraphBuildError, ParseError, build_graph, is_connected, parse_edge_list, profile, validate
from dcmetrics.datasets import DATASET_NAMES, builtin_dataset
from dcmetrics.graph import _gather, first_inverse
from conftest import assert_same_graph, random_graph
from naive import naive_build_graph, naive_edges, naive_is_connected


class TestBuild:
    def test_toy_construction(self, toy):
        assert toy.n == 6
        assert toy.edge_count == 6
        assert not toy.directed
        # weighted degree of the hub
        prof = profile(toy)
        assert prof.strength_map()["B"] == 11

    def test_unknown_label_lookup(self, toy):
        with pytest.raises(KeyError, match="unknown node label: 'Z'"):
            toy.index_of("Z")

    def test_symmetric_lookup(self, toy):
        assert toy.weight("A", "B") == toy.weight("B", "A") == 2.0
        assert toy.weight("A", "C") == 0.0

    def test_parallel_edges_merge(self):
        g = build_graph([("A", "B", 1), ("A", "B", 1)])
        assert g.edge_count == 1
        assert g.weight("A", "B") == 2.0
        assert g.build_report.merged_edges == 1

    def test_reversed_parallel_edge_merges_undirected(self):
        g = build_graph([("A", "B", 1), ("B", "A", 2)])
        assert g.edge_count == 1
        assert g.weight("A", "B") == 3.0

    def test_reciprocal_arcs_stay_distinct_directed(self):
        g = build_graph([("A", "B", 1), ("B", "A", 2)], directed=True)
        assert g.edge_count == 2
        assert g.weight("A", "B") == 1.0
        assert g.weight("B", "A") == 2.0

    def test_self_loop_dropped(self):
        g = build_graph([("A", "A", 3), ("A", "B", 1)], directed=True)
        assert g.edge_count == 1
        assert g.build_report.self_loops_dropped == 1

    def test_rejects_non_positive_weight(self):
        with pytest.raises(GraphBuildError, match="non-positive"):
            build_graph([("A", "B", 0.0)])
        with pytest.raises(GraphBuildError, match="'A' -> 'B'"):
            build_graph([("A", "B", -2)])

    def test_rejects_empty_edge_list(self):
        with pytest.raises(GraphBuildError, match="empty edge list"):
            build_graph([])
        with pytest.raises(GraphBuildError):
            build_graph([], nodes=["A", "B"])

    def test_rejects_bad_labels(self):
        with pytest.raises(GraphBuildError):
            build_graph([("", "B", 1)])

    def test_node_order_is_first_appearance(self):
        g = build_graph([("X", "C", 1), ("A", "X", 2)])
        assert g.nodes == ("X", "C", "A")

    def test_explicit_isolates(self):
        g = build_graph([("A", "B", 1)], nodes=["Z", "A"])
        assert g.nodes == ("Z", "A", "B")
        assert g.isolates() == {"Z"}


class TestProfile:
    def test_toy_degrees(self, toy):
        prof = profile(toy)
        assert prof.degree_map() == {"A": 2, "B": 4, "C": 2, "D": 2, "E": 1, "F": 1}

    def test_toy_globals(self, toy):
        prof = profile(toy)
        assert prof.min_weight == 2.0
        assert prof.max_weight == 5.0
        assert prof.total_weight == 21.0

    @pytest.mark.filterwarnings("error")
    def test_total_weight_past_the_stored_sum_limit(self):
        # the heavy edge's two stored entries sum past the float limit, the edges do not
        assert build_graph([("A", "B", 1.7e308), ("B", "C", 1.0), ("C", "D", 1.0)]).total_weight() == 1.7e308 + 2.0
        assert build_graph([("A", "B", 1.7e308), ("B", "C", 1.7e308)]).total_weight() == np.inf
        assert build_graph([("A", "B", 1.7e308), ("B", "A", 1.7e308)], directed=True).total_weight() == np.inf

    def test_directed_toy(self, toy_directed):
        prof = profile(toy_directed)
        i = toy_directed.index_of("B")
        assert prof.out_degree[i] == 4
        assert prof.in_degree[i] == 1
        assert prof.total_weight == 30.0

    def test_degree_sum_is_twice_edge_count(self, toy):
        prof = profile(toy)
        assert prof.out_degree.sum() == 2 * toy.edge_count

    def test_directed_degree_sums_match_arcs(self, toy_directed):
        prof = profile(toy_directed)
        assert prof.out_degree.sum() == prof.in_degree.sum() == toy_directed.edge_count

    @pytest.mark.parametrize("directed", [False, True])
    def test_degree_sum_invariant_random(self, directed):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 15)), directed=directed)
            prof = profile(g)
            if directed:
                assert prof.out_degree.sum() == prof.in_degree.sum() == g.edge_count
            else:
                assert prof.out_degree.sum() == 2 * g.edge_count
            assert prof.min_weight <= prof.max_weight
            assert prof.total_weight >= g.edge_count * prof.min_weight

    def test_build_is_edge_order_insensitive(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 12)
        edges = list(g.edges())
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(edges))
            g2 = build_graph([edges[i] for i in perm])
            p1, p2 = profile(g), profile(g2)
            assert p1.degree_map() == p2.degree_map()
            assert p1.strength_map() == p2.strength_map()
            assert p1.total_weight == p2.total_weight

    @pytest.mark.parametrize("name", ["toy-undirected", "florentine", "zachary"])
    def test_undirected_in_arrays_are_out_arrays(self, name):
        prof = profile(builtin_dataset(name))
        assert prof.in_degree is prof.out_degree
        assert prof.in_strength is prof.out_strength

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_degree_and_strength_maps_on_datasets(self, name):
        g = builtin_dataset(name)
        degree, strength = DATASET_DEGREES[name]
        prof = profile(g)
        got_degree, got_strength = prof.degree_map(), prof.strength_map()
        assert list(got_degree.items()) == list(zip(g.nodes, degree))
        assert list(got_strength.items()) == list(zip(g.nodes, map(float, strength)))
        assert all(type(d) is int for d in got_degree.values())
        assert all(type(s) is float for s in got_strength.values())


# degree and strength of every node of each built-in dataset, in node order
DATASET_DEGREES = {
    "toy-undirected": ([2, 4, 1, 2, 2, 1], [7, 11, 5, 7, 7, 5]),
    "toy-directed": ([3, 5, 1, 3, 3, 1], [13, 17, 5, 10, 10, 5]),
    "florentine": ([1, 6, 3, 3, 4, 2, 3, 3, 3, 2, 1, 3, 4, 1, 1], [1, 6, 3, 3, 4, 2, 3, 3, 3, 2, 1, 3, 4, 1, 1]),
    "zachary": (
        [16, 9, 10, 6, 3, 4, 4, 4, 5, 2, 3, 1, 2, 5, 2, 2, 2, 2, 2, 3, 2, 2, 2, 5, 3, 3, 2, 4, 3, 4, 4, 6, 12, 17],
        [42, 29, 33, 18, 8, 14, 13, 13, 17, 3, 8, 3, 4, 17, 5, 7, 6, 3, 3, 5, 4, 4, 5, 21, 7, 14, 6, 13, 6, 13, 11, 21,
         38, 48],
    ),
}


class TestValidate:
    def test_toy_is_clean(self, toy):
        report = validate(toy)
        assert report.ok
        assert report.flags == ()

    def test_sub_unit_weight_flagged(self):
        g = build_graph([("A", "B", 0.5), ("B", "C", 2)])
        report = validate(g)
        assert not report.ok
        assert report.sub_unit_weight_edges == (("A", "B", 0.5),)
        assert any("0.5" in f for f in report.flags)

    def test_disconnected_flagged(self):
        g = build_graph([("A", "B", 1), ("C", "D", 1)])
        report = validate(g)
        assert not report.connected
        assert any("not connected" in f for f in report.flags)

    def test_homogeneous_weights_flagged(self):
        g = build_graph([("A", "B", 3), ("B", "C", 3)])
        assert validate(g).weight_homogeneous

    def test_isolates_flagged(self):
        g = build_graph([("A", "B", 1)], nodes=["Z"])
        report = validate(g)
        assert report.isolated_nodes == ("Z",)

    def test_isolates_flag_names_them(self):
        g = build_graph([("A", "B", 1), ("B", "C", 2)], nodes=["Z", "Y"])
        assert validate(g).flags == ("graph is not connected", "isolated nodes: Y, Z")

    def test_no_edges_is_profile_error(self):
        g = build_graph([("A", "A", 1.0)])
        with pytest.raises(ValueError, match="^graph has no edges left after self-loops were dropped$"):
            validate(g)

    @pytest.mark.parametrize("directed", [False, True])
    def test_sub_unit_edges_in_edge_list_order(self, directed):
        rng = np.random.default_rng(7)
        for _ in range(40):
            edges, declared = _random_edge_list(rng, directed)
            g = build_graph(edges, directed=directed, nodes=declared)
            expected = tuple(e for e in naive_edges(g) if e[2] < 1.0)
            assert validate(g).sub_unit_weight_edges == expected


def _outcome(build, *args, **kwargs):
    """(exception type, message) of a build that must fail."""
    try:
        build(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is part of the comparison
        return type(exc), str(exc)
    raise AssertionError("build did not fail")


class _Once:
    """An iterable without a length that refuses a second pass."""

    def __init__(self, items):
        self.items = items

    def __iter__(self):
        items, self.items = self.items, None
        assert items is not None, "iterated twice"
        return iter(items)


# weights of one pair repeated in every random edge list: non-dyadic, so
# their float sum depends on the order they are added in
REPEATED = [0.1, 0.7, 0.2, 0.3, 0.1, 0.7, 0.6, 0.1, 0.9, 0.7, 0.3, 0.1]


def _random_edge_list(rng, directed):
    """Edges over a small label pool: random orientation, duplicates,
    self-loops, non-dyadic weights, pre-declared isolates, and one pair
    repeated at least 10 times whose merged weight depends on summation order."""
    pool = [f"v{i}" for i in range(int(rng.integers(2, 25)))]
    weights = np.array([0.1, 0.7, 0.3, 1.1, 2.9, 0.2, 5.0, 1e-3, 3.3])
    edges = []
    for _ in range(int(rng.integers(1, 80))):
        u, v = rng.choice(pool, size=2)
        edges.append((str(u), str(v), float(rng.choice(weights) * rng.integers(1, 4))))
    a, b = pool[0], pool[-1]
    for w in REPEATED:
        pair = (a, b) if directed or rng.random() < 0.5 else (b, a)
        edges.insert(int(rng.integers(0, len(edges) + 1)), (*pair, w))
    declared = ["isolated"] + [str(x) for x in rng.choice(pool, size=int(rng.integers(0, 4)))]
    rng.shuffle(declared)
    return edges, declared


class TestArrayBuildMatchesReference:
    """The array build against the edge-by-edge dict build in tests/naive.py."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_bitwise_equal_on_random_edge_lists(self, directed):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            edges, declared = _random_edge_list(rng, directed)
            g = build_graph(edges, directed=directed, nodes=declared)
            assert_same_graph(g, naive_build_graph(edges, directed=directed, nodes=declared))
            assert g.isolates() >= {"isolated"}

    def test_repeated_pair_is_order_sensitive(self):
        # guards the fixture above: a different summation order of the
        # repeated pair's weights gives different bits, so the bitwise
        # comparison would catch a build that merged in another order
        in_order = 0.0
        for w in REPEATED:
            in_order += w
        assert in_order != sum(sorted(REPEATED))
        assert in_order != float(np.sum(REPEATED))
        g = build_graph([("A", "B", w) for w in REPEATED])
        assert g.weight("A", "B") == in_order

    def test_parsed_edge_list_matches_reference(self):
        rng = np.random.default_rng(5)
        edges, declared = _random_edge_list(rng, directed=False)
        text = "\n".join(["undirected", *declared, *(f"{u}\t{v}\t{w!r}" for u, v, w in edges)])
        assert_same_graph(parse_edge_list(text), naive_build_graph(edges, nodes=declared))

    def test_first_inverse_matches_unique(self):
        rng = np.random.default_rng(7)
        keys = [
            np.array([], dtype=np.int64),
            np.array([5]),
            rng.integers(0, 50, size=1000),
            rng.integers(0, 2**62, size=500),
            rng.integers(0, 2**64, size=300, dtype=np.uint64).repeat(3)[rng.permutation(900)],
        ]
        for key in keys:
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            got_first, got_inverse = first_inverse(key)
            assert got_first.dtype == first.dtype and np.array_equal(got_first, first)
            assert got_inverse.dtype == inverse.dtype and np.array_equal(got_inverse, inverse)

    def test_gather_matches_a_loop_over_the_rows(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            indptr = np.concatenate(([0], np.cumsum(rng.integers(0, 4, size=n))))  # empty rows among them
            rows = rng.integers(0, n, size=int(rng.integers(0, 3 * n)))  # repeats among them
            sizes, at = _gather(indptr, rows)
            assert sizes.tolist() == [indptr[r + 1] - indptr[r] for r in rows]
            assert at.tolist() == [k for r in rows for k in range(indptr[r], indptr[r + 1])]

    @pytest.mark.parametrize("directed", [False, True])
    def test_edges_and_connectivity_match_loops(self, directed):
        rng = np.random.default_rng(99)
        seen = set()
        for _ in range(40):
            edges, declared = _random_edge_list(rng, directed)
            g = build_graph(edges, directed=directed, nodes=declared)
            assert list(g.edges()) == list(naive_edges(g))
            assert not is_connected(g)  # the declared isolate
            # connected or not, depending on which labels the edges reached
            h = build_graph(edges, directed=directed)
            assert list(h.edges()) == list(naive_edges(h))
            assert is_connected(h) == naive_is_connected(h)
            seen.add(is_connected(h))
        assert seen == {False, True}

    def test_connectivity_follows_arcs_both_ways(self):
        # every arc points into the hub: only the in-adjacency reaches the leaves
        g = build_graph([(f"leaf{i}", "hub", 1) for i in range(5)], directed=True)
        assert is_connected(g)
        g = build_graph([("A", "B", 1), ("C", "B", 1), ("D", "E", 1)], directed=True)
        assert not is_connected(g)
        long_path = [(str(i), str(i + 1), 1) for i in range(300)]
        assert is_connected(build_graph(long_path))
        assert not is_connected(build_graph(long_path + [("x", "y", 1)]))


class TestBuildErrors:
    def test_merged_weight_overflow_names_the_pair(self):
        with pytest.raises(GraphBuildError, match="'A' -> 'B'.*non-finite weight inf"):
            build_graph([("A", "B", 1e308), ("C", "A", 1.0), ("A", "B", 1e308)])
        with pytest.raises(GraphBuildError, match="'B' -> 'C'"):
            build_graph([("A", "B", 1.0), ("B", "C", 1e308), ("C", "B", 1e308)], directed=False)
        with pytest.raises(GraphBuildError, match="'A' -> 'B'.*non-finite"):
            parse_edge_list("A\tB\t1e308\nA\tB\t1e308\n")
        # reciprocal arcs are distinct arcs, so nothing merges
        g = build_graph([("A", "B", 1e308), ("B", "A", 1e308)], directed=True)
        assert g.weight("A", "B") == 1e308

    @pytest.mark.parametrize(
        "edges, nodes",
        [
            ([("A", "B", 1), ("C", "D", -1), ("", "E", 1)], ()),
            ([("A", "B", 1), ("", "E", 1), ("C", "D", -1)], ()),
            ([("A", "", 0.0)], ()),
            ([("A", "B", float("nan")), ("A", 7, 1)], ()),
            ([("A", 7, 1), ("A", "B", float("inf"))], ()),
            ([("A", "B", 1), (["unhashable"], "B", 1), ("C", "D", 0)], ()),
            ([("A", "B", 1), ("C", "D", 1, "extra"), ("", "B", 1)], ()),
            ([("A", "B", 1), ("C", "D"), ("E", "F", 1)], ()),
            ([("A", "B", 1), 5], ()),
            ([("A", "B", "heavy"), ("", "B", 1)], ()),
            ([("", "B", 1), ("A", "B", "heavy")], ()),
            ([("A", "B", 10**400)], ()),
            ([("A", "B", 1), ("C", "D", -2)], ["X", ""]),
            ([], [""]),
            ([], ["A"]),
            ((e for e in [("A", "B", 1), ("B", "C", 0)]), ()),
        ],
    )
    def test_same_error_as_reference(self, edges, nodes):
        # as lists, then as one-shot generators: each builder gets fresh
        # iterables, so neither sees what the other consumed
        edges = list(edges)
        for fresh in (list, lambda items: (item for item in items)):
            got = _outcome(build_graph, fresh(edges), nodes=fresh(nodes))
            assert got == _outcome(naive_build_graph, fresh(edges), nodes=fresh(nodes))

    @pytest.mark.parametrize("directed", [False, True])
    def test_one_shot_iterables_build_the_list_graph(self, directed):
        edges, declared = _random_edge_list(np.random.default_rng(11), directed)
        g = build_graph(_Once(edges), directed=directed, nodes=_Once(declared))
        assert_same_graph(g, build_graph(edges, directed=directed, nodes=declared))
        assert_same_graph(g, naive_build_graph(edges, directed=directed, nodes=declared))

    def test_earliest_offending_edge_is_reported(self):
        with pytest.raises(GraphBuildError, match=r"^edge 'C' -> 'D' has non-positive weight -1.0$"):
            build_graph([("A", "B", 1), ("C", "D", -1), ("", "E", 1)])
        with pytest.raises(GraphBuildError, match=r"^node labels must be non-empty strings, got ''$"):
            build_graph([("A", "B", 1), ("", "E", 1), ("C", "D", -1)])

    def test_parser_reports_earliest_line(self):
        bad_weight_first = "undirected\nA\tB\t1\nC\tD\t-1\nE\tF\t2\n\tG\t1\n"
        with pytest.raises(ParseError, match=r"^line 3: weight must be positive, got -1$"):
            parse_edge_list(bad_weight_first)
        empty_label_first = "undirected\nA\tB\t1\n\tG\t1\nE\tF\t2\nC\tD\t-1\n"
        with pytest.raises(ParseError, match=r"^line 3: empty node label$"):
            parse_edge_list(empty_label_first)
        # a non-finite weight fails on its own line, before a later empty label
        for weight in ("inf", "nan", "-inf"):
            with pytest.raises(ParseError, match=rf"^line 2: weight must be finite, got {weight}$"):
                parse_edge_list(f"A\tB\t1\nC\tD\t{weight}\n\tG\t1\n")
        with pytest.raises(ParseError, match=r"^line 2: weight must be positive, got 0$"):
            parse_edge_list("A\tB\t1\nC\tD\t0\n\tG\t1\n")
        for weight in (float("inf"), float("nan")):
            with pytest.raises(GraphBuildError, match=rf"^edge 'C' -> 'D' has non-finite weight {weight!r}$"):
                build_graph([("A", "B", 1), ("C", "D", weight)])
