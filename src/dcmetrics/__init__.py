"""Distinctiveness centrality for weighted graphs.

Five node metrics that reward ties to sparsely connected peers (with an
alpha exponent sharpening the hub penalty), their analytic bounds and
normalization, in/out variants for directed graphs, the classic baseline
centralities they are compared against, rank/correlation statistics, a
seeded Barabasi-Albert generator, embedded evaluation datasets, and
edge-list/GEXF/CSV/JSON/SVG i-o behind a CLI.

Every name a module lists in its ``__all__`` is importable from here. The
modules every CLI ``compute`` runs (graph, distinctiveness, io, errors)
load with the package; each other module loads when a name is first taken
from it (PEP 562), so a command loads only the modules it uses.
"""

from importlib import import_module

from . import distinctiveness, errors, graph, io

__version__ = "0.1.0"

# the modules whose ``__all__`` the package re-exports, in the order of ``__all__``
_MODULES = ("graph", "distinctiveness", "baselines", "stats", "generators", "datasets", "io", "svgchart", "errors")

# the tuple is made before the loop rebinds ``distinctiveness`` to the function
for _module in (graph, distinctiveness, io, errors):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module


def __getattr__(name: str):
    """A module not loaded yet, ``__all__``, or a public name of a module not
    loaded yet: the first module in ``_MODULES`` order that lists it. The
    value is kept, so each name is looked up once."""
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    modules = (import_module(f".{m}", __name__) for m in _MODULES)  # each loaded when reached
    if name == "__all__":
        value = ["__version__", *(public for m in modules for public in m.__all__)]
    else:
        owner = next((m for m in modules if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
