"""The package namespace: what ``import dcmetrics`` offers, and which
modules a fresh interpreter loads with it."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcmetrics
from dcmetrics import baselines, stats

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
DEFERRED = {"dcmetrics.baselines", "dcmetrics.stats", "dcmetrics.generators", "dcmetrics.svgchart",
            "xml.etree", "json"}
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
        assert not loaded & (DEFERRED | {"dcmetrics.bytereader", "dcmetrics.datasets"})

    def test_file_compute_loads_no_other_command_module(self):
        script = f"from dcmetrics.cli import run_cli\nrun_cli(['compute', '--input', {str(FLORENTINE)!r}])"
        loaded = modules_after(script)
        assert CORE | {"dcmetrics.bytereader"} <= loaded
        assert not loaded & DEFERRED

    def test_distinctiveness_is_the_dispatcher_after_cli_import(self):
        script = "import sys, dcmetrics.cli\nprint(type(dcmetrics.distinctiveness).__name__, file=sys.stderr)"
        assert fresh(script).split() == ["function"]

    def test_star_import_binds_the_pinned_names(self):
        script = "import sys\nns = {}\nexec('from dcmetrics import *', ns)\nprint(*ns, file=sys.stderr)"
        assert set(fresh(script).split()) == PUBLIC | {"__builtins__"}


def test_name_lists_are_declared_once():
    """The CLI parses baseline names and tie rules without loading
    ``baselines`` or ``stats``: both lists live in ``distinctiveness``, and
    the modules that export them export those objects."""
    distinctiveness = importlib.import_module("dcmetrics.distinctiveness")
    assert "BASELINES" not in distinctiveness.__all__ and "TIE_RULES" not in distinctiveness.__all__
    assert baselines.BASELINES is distinctiveness.BASELINES is dcmetrics.BASELINES
    assert stats.TIE_RULES is distinctiveness.TIE_RULES is dcmetrics.TIE_RULES
    assert tuple(baselines._DISPATCH) == baselines.BASELINES
    vector = dcmetrics.d2(dcmetrics.builtin_dataset("toy-undirected"))
    for rule in stats.TIE_RULES:
        assert stats.rank(vector, tie_rule=rule).tie_rule == rule
    with pytest.raises(ValueError, match="unknown tie rule"):
        stats.rank(vector, tie_rule="dense")
