"""The package namespace: what ``import dcmetrics`` offers."""

import importlib

import dcmetrics

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
