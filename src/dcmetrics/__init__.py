"""Distinctiveness centrality for weighted graphs.

Five node metrics that reward ties to sparsely connected peers (with an
alpha exponent sharpening the hub penalty), their analytic bounds and
normalization, in/out variants for directed graphs, the classic baseline
centralities they are compared against, rank/correlation statistics, a
seeded Barabasi-Albert generator, embedded evaluation datasets, and
edge-list/GEXF/CSV/JSON/SVG i-o behind a CLI.

Every name a module lists in its ``__all__`` is importable from here. The
modules every CLI command runs (graph, distinctiveness, errors) load with
the package. ``_LAZY`` lists the public names of the modules that load on
first use (PEP 562), the file readers and writers of ``io`` among them:
taking one imports its owner, and no other module. ``__all__`` and
``dir()`` load nothing; any other name (``cli``, ``bytereader``, a typo)
is left to the import system. A new public name of a lazy module goes in
the table, which a test holds equal to each module's ``__all__``.
"""

from importlib import import_module

from . import distinctiveness, errors, graph

__version__ = "0.1.0"

# each lazy module's public names, in its ``__all__`` order
_LAZY = {
    "baselines": ("BASELINES", "degree_centrality", "closeness_centrality", "betweenness_centrality",
                  "eigenvector_centrality", "burt_constraint", "effective_size", "baseline", "all_baselines"),
    "stats": ("TIE_RULES", "SWEEP_BASELINES", "RankVector", "CorrelationSweep", "rank", "spearman",
              "correlation_sweep"),
    "generators": ("GeneratorParams", "barabasi_albert"),
    "datasets": ("DATASET_NAMES", "builtin_dataset", "dataset_edges"),
    "svgchart": ("render_line_chart",),
    "io": ("parse_edge_list", "write_edge_list", "parse_gexf_minimal", "GexfFeatureWarning", "ResultTable"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

# the tuple is made before the loop rebinds ``distinctiveness`` to the function
_CORE = (graph, distinctiveness, errors)
__all__ = ["__version__", *(name for module in _CORE for name in module.__all__), *_OWNER]
for _module in _CORE:
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module


def __getattr__(name: str):
    """A lazy module, or one of its public names, kept after the first lookup."""
    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
