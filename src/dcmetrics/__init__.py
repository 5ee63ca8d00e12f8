"""Distinctiveness centrality for weighted graphs.

Five node metrics that reward ties to sparsely connected peers (with an
alpha exponent sharpening the hub penalty), their analytic bounds and
normalization, in/out variants for directed graphs, the classic baseline
centralities they are compared against, rank/correlation statistics, a
seeded Barabasi-Albert generator, embedded evaluation datasets, and
edge-list/GEXF/CSV/JSON/SVG i-o behind a CLI.

Every name a module lists in its ``__all__`` is importable from here.
"""

from . import baselines, datasets, distinctiveness, errors, generators, graph, io, stats, svgchart

__version__ = "0.1.0"

__all__ = ["__version__"]
# the tuple is made before the loop rebinds ``distinctiveness`` to the function
for _module in (graph, distinctiveness, baselines, stats, generators, datasets, io, svgchart, errors):
    __all__ += _module.__all__
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module
