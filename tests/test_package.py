"""The package namespace: what ``import dcmetrics`` offers, and which
modules a fresh interpreter loads with it."""

import dataclasses
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest.mock import ANY

import numpy as np
import pytest

import dcmetrics
import naive
from dcmetrics import baselines, datasets, stats

MODULES = ("baselines", "datasets", "distinctiveness", "errors", "generators", "graph", "io", "stats", "svgchart")

PUBLIC = {
    "__version__",
    # graph
    "Graph", "BuildReport", "DegreeProfile", "ValidationReport",
    "build_graph", "profile", "validate", "is_connected",
    # distinctiveness
    "METRICS", "MetricSpec", "CentralityVector", "BoundsRecord", "d1", "d2", "d3", "d4", "d5",
    "distinctiveness", "all_distinctiveness", "bounds", "normalize", "negative_contribution_threshold",
    # baselines
    "BASELINES", "baseline", "all_baselines", "degree_centrality", "closeness_centrality",
    "betweenness_centrality", "eigenvector_centrality", "burt_constraint", "effective_size",
    # stats
    "TIE_RULES", "SWEEP_BASELINES", "RankVector", "CorrelationSweep", "rank", "spearman",
    "correlation_sweep",
    # generators and datasets
    "GeneratorParams", "barabasi_albert", "DATASET_NAMES", "builtin_dataset", "dataset_edges",
    # i/o
    "ResultTable", "parse_edge_list", "parse_gexf_minimal", "write_edge_list", "GexfFeatureWarning",
    "render_line_chart",
    # errors
    "DCMetricsError", "GraphBuildError", "ParseError", "DisconnectedGraphError", "ConvergenceError",
}


def test_public_names_are_pinned():
    assert len(dcmetrics.__all__) == len(PUBLIC)
    assert set(dcmetrics.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(dcmetrics, name)
    assert PUBLIC <= set(dir(dcmetrics))


def test_package_reexports_every_module_all():
    modules = [importlib.import_module(f"dcmetrics.{name}") for name in MODULES]
    # sorted lists, so a name listed by two modules shows as a difference
    assert sorted(dcmetrics.__all__) == sorted(["__version__", *(name for m in modules for name in m.__all__)])
    for module in modules:
        for name in module.__all__:
            assert getattr(dcmetrics, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_distinctiveness_is_the_dispatcher():
    module = importlib.import_module("dcmetrics.distinctiveness")
    assert dcmetrics.distinctiveness is module.distinctiveness
    assert dcmetrics.distinctiveness(dcmetrics.builtin_dataset("toy-undirected"), "d2")["B"] > 0


# what every file ``compute`` runs, loaded by ``import dcmetrics.cli``
CORE = {"numpy", "dcmetrics.errors", "dcmetrics.graph", "dcmetrics.distinctiveness", "dcmetrics.io"}
# what such a command never runs, loaded by the first command that does
# (dataclasses and copy by the generator's parameters)
DEFERRED = {"dcmetrics.baselines", "dcmetrics.stats", "dcmetrics.generators", "dcmetrics.svgchart",
            "dcmetrics.datasets", "xml.etree", "json", "dataclasses", "copy"}
FLORENTINE = Path(__file__).resolve().parents[1] / "data" / "florentine.tsv"


def fresh(script: str) -> str:
    """What ``script`` prints to stderr, run by a fresh interpreter that
    finds this package where the tests found it."""
    env = {**os.environ, "PYTHONPATH": str(Path(dcmetrics.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return done.stderr


def modules_after(script: str) -> set[str]:
    return set(fresh(script + "\nimport sys\nprint(*sys.modules, file=sys.stderr)").split())


class TestStartup:
    def test_cli_import_loads_the_core_only(self):
        loaded = modules_after("import dcmetrics.cli")
        assert CORE <= loaded
        assert not loaded & (DEFERRED | {"dcmetrics.bytereader"})

    def test_file_compute_loads_no_other_command_module(self):
        script = f"from dcmetrics.cli import run_cli\nrun_cli(['compute', '--input', {str(FLORENTINE)!r}])"
        loaded = modules_after(script)
        assert CORE | {"dcmetrics.bytereader"} <= loaded
        assert not loaded & DEFERRED

    def test_sweep_loads_no_dataset_table(self):
        script = "from dcmetrics.cli import run_cli\nrun_cli(['sweep', '--n', '12', '--ensemble', '2', '--alphas', '1'])"
        loaded = modules_after(script)
        assert {"dcmetrics.generators", "dcmetrics.stats"} <= loaded
        assert "dcmetrics.datasets" not in loaded

    def test_distinctiveness_is_the_dispatcher_after_cli_import(self):
        script = "import sys, dcmetrics.cli\nprint(type(dcmetrics.distinctiveness).__name__, file=sys.stderr)"
        assert fresh(script).split() == ["function"]

    def test_star_import_binds_the_pinned_names(self):
        script = "import sys\nns = {}\nexec('from dcmetrics import *', ns)\nprint(*ns, file=sys.stderr)"
        assert set(fresh(script).split()) == PUBLIC | {"__builtins__"}

    def test_from_import_of_cli_loads_what_its_import_loads(self):
        assert modules_after("from dcmetrics import cli") == modules_after("import dcmetrics.cli")

    def test_from_import_of_the_reader_loads_the_core_and_it(self):
        loaded = modules_after("from dcmetrics import bytereader")
        assert {m for m in loaded if m.startswith("dcmetrics")} == {
            "dcmetrics", *(m for m in CORE if m.startswith("dcmetrics.")), "dcmetrics.bytereader"}
        assert not loaded & DEFERRED

    @pytest.mark.parametrize("query, check", [
        ("[hasattr(dcmetrics, 'no_such_name')]", lambda answer: answer == ["False"]),
        ("dir(dcmetrics)", lambda answer: PUBLIC <= set(answer)),
        ("dcmetrics.__all__", lambda answer: sorted(answer) == sorted(PUBLIC)),
    ], ids=["hasattr", "dir", "__all__"])
    def test_namespace_queries_load_no_lazy_module(self, query, check):
        """The answer on the first line, the modules then loaded on the second."""
        answer, loaded = fresh(f"import sys, dcmetrics\nprint(*{query}, file=sys.stderr)\n"
                               "print(*sys.modules, file=sys.stderr)").splitlines()
        assert check(answer.split())
        assert not set(loaded.split()) & DEFERRED


@pytest.mark.parametrize("name", sorted(dcmetrics._LAZY))
def test_lazy_table_lists_each_module_all(name):
    module = importlib.import_module(f"dcmetrics.{name}")
    assert tuple(module.__all__) == dcmetrics._LAZY[name], f"dcmetrics._LAZY[{name!r}] differs from {name}.__all__"


def test_tracer_installs_on_every_name_it_wraps():
    """``perfbench/tracer.py`` wraps attributes of ``cli``, ``stats``,
    ``io``, ``generators`` and ``baselines`` by name: a renamed one fails here."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    fresh(f"import sys\nsys.path.insert(0, {str(perfbench)!r})\nfrom tracer import Tracer, install\ninstall(Tracer())")


def test_name_lists_are_declared_once():
    """The CLI parses baseline names, tie rules and dataset names without
    loading ``baselines``, ``stats`` or ``datasets``: the lists live in
    ``distinctiveness``, and the modules that export them export those
    objects."""
    distinctiveness = importlib.import_module("dcmetrics.distinctiveness")
    assert {"BASELINES", "TIE_RULES", "DATASET_NAMES"}.isdisjoint(distinctiveness.__all__)
    assert baselines.BASELINES is distinctiveness.BASELINES is dcmetrics.BASELINES
    assert stats.TIE_RULES is distinctiveness.TIE_RULES is dcmetrics.TIE_RULES
    assert datasets.DATASET_NAMES is distinctiveness.DATASET_NAMES is dcmetrics.DATASET_NAMES
    assert tuple(baselines._DISPATCH) == baselines.BASELINES
    assert tuple(datasets._DATASETS) == datasets.DATASET_NAMES == ("toy-undirected", "toy-directed", "florentine",
                                                                   "zachary")
    assert datasets.__all__ == ["DATASET_NAMES", "builtin_dataset", "dataset_edges"]
    vector = dcmetrics.d2(dcmetrics.builtin_dataset("toy-undirected"))
    for rule in stats.TIE_RULES:
        assert stats.rank(vector, tie_rule=rule).tie_rule == rule
    with pytest.raises(ValueError, match="unknown tie rule"):
        stats.rank(vector, tie_rule="dense")


TOY = dcmetrics.builtin_dataset("toy-undirected")
SCORES = np.array([3.0, 1.0, 2.0])
# each record with positional and keyword arguments
RECORDS = [
    ("BuildReport", (2,), {"self_loops_dropped": 1}),
    ("Graph", (TOY.nodes, TOY.directed, TOY.indptr, TOY.indices, TOY.weights),
     {"in_indptr": TOY.in_indptr, "in_indices": TOY.in_indices, "in_weights": TOY.in_weights}),
    ("DegreeProfile", tuple(vars(dcmetrics.profile(TOY)).values()), {}),
    ("ValidationReport", ((("a", "b", 0.5),), False), {"isolated_nodes": ("c",), "weight_homogeneous": True}),
    ("MetricSpec", ("d2",), {"alpha": 2.5, "direction": "in"}),
    ("CentralityVector", ("d1", 1.0, "out", ("a", "b", "c"), SCORES), {"isolates": frozenset("c")}),
    ("BoundsRecord", ("d3", 2.0, 10, 1.0, 5.0), {"lower": 0.5, "upper": 4.0}),
    ("ResultTable", (("a", "b", "c"),), {"columns": (("d1", SCORES), ("d2@2", SCORES * 2))}),
    ("RankVector", ("d5", "fractional", ("a", "b", "c")), {"ranks": np.array([1.0, 2.5, 2.5])}),
    ("CorrelationSweep", ((1.0, 2.0), ("d1",), ("degree",), {("d1", "degree", 1.0): 0.5}),
     {"ensemble_size": 3, "params": dcmetrics.GeneratorParams(10, 2), "seed": 7, "perfect_overlaps": ()}),
]
# the records whose __post_init__ refuses an argument, with such arguments
REFUSED = {
    "MetricSpec": (("d1",), {"alpha": 0.9}),
    "BoundsRecord": (("d1", 1.0, 10, 1.0, 5.0), {"lower": 3.0, "upper": 2.0}),
    "CentralityVector": (("d1", 1.0, "out", ("a", "b"), np.array([1.0, np.nan])), {}),
}
CACHED = {"Graph": "_index", "CentralityVector": "_position", "RankVector": "_position"}


def outcome(call):
    """The repr of what ``call()`` returns, or the type and message of what
    it raises; the dataclasses' FrozenInstanceError counts as the
    AttributeError it subclasses."""
    try:
        return repr(call())
    except Exception as exc:
        return (AttributeError if isinstance(exc, AttributeError) else type(exc)), str(exc)


@pytest.mark.parametrize("name, args, kwargs", RECORDS, ids=[case[0] for case in RECORDS])
def test_records_behave_as_the_dataclasses_they_replaced(name, args, kwargs):
    """``tests/naive.py`` keeps each record as the frozen dataclass it was:
    built from the same arguments, both behave the same."""
    new_cls, old_cls = getattr(dcmetrics, name), getattr(naive, name)
    new, old = new_cls(*args, **kwargs), old_cls(*args, **kwargs)

    def same(call):
        got = outcome(lambda: call(new_cls, new))
        assert got == outcome(lambda: call(old_cls, old))
        return got

    same(lambda cls, record: record)
    by_value = old_cls.__eq__ is not object.__eq__
    for cls, record in ((new_cls, new), (old_cls, old)):
        twin = cls(*args, *kwargs.values())
        assert record == record and record != object() and record == ANY  # ANY's reflected == runs
        assert (record == twin) is by_value
        assert outcome(lambda: hash(record)) == outcome(lambda: hash(twin) if by_value else object.__hash__(record))
    if by_value:
        same(lambda cls, record: hash(record))
    fields = [field.name for field in dataclasses.fields(old_cls)]
    first = fields[0]
    for target in (first, "other"):
        assert same(lambda cls, record: setattr(record, target, None))[0] is AttributeError
        assert same(lambda cls, record: delattr(record, target))[0] is AttributeError
    same(lambda cls, record: cls())  # missing arguments, or all the defaults
    same(lambda cls, record: cls(*args))
    for wrong in (
        lambda cls, record: cls(*args, bogus=None, **kwargs),
        lambda cls, record: cls(*[None] * (len(fields) + 1)),
        lambda cls, record: cls(*args, *kwargs.values(), **{first: None}),
    ):
        assert same(wrong)[0] is TypeError
    if name in REFUSED:
        bad_args, bad_kwargs = REFUSED[name]
        assert same(lambda cls, record: cls(*bad_args, **bad_kwargs))[0] is ValueError
    same(lambda cls, record: pickle.loads(pickle.dumps(record)))
    assert same(lambda cls, record: type(pickle.loads(pickle.dumps(record))) is cls) == "True"
    same(lambda cls, record: pickle.loads(pickle.dumps(record)) == record)
    if name in CACHED:
        same(lambda cls, record: getattr(record, CACHED[name]))
        assert getattr(new, CACHED[name]) is getattr(new, CACHED[name])
