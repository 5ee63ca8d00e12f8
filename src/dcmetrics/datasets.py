"""The four evaluation networks shipped with the package.

``toy-undirected`` and ``toy-directed`` are the small six-node networks all
reference score tables are printed for; ``florentine`` is the classic
15-family Renaissance marriage network (unweighted, the isolated Pucci
family excluded as usual); ``zachary`` is the weighted 34-member karate
club friendship network, weights counting the contexts in which two members
interacted.

All four are verified constants: tests pin their checksums and reproduce
the published per-node scores, so any accidental edit trips immediately.
"""

from __future__ import annotations

from .distinctiveness import DATASET_NAMES
from .graph import Graph, build_graph

__all__ = ["DATASET_NAMES", "builtin_dataset", "dataset_edges"]

_TOY_UNDIRECTED = [
    ("A", "B", 2.0),
    ("A", "E", 5.0),
    ("B", "C", 2.0),
    ("B", "D", 2.0),
    ("B", "F", 5.0),
    ("C", "D", 5.0),
]

_TOY_DIRECTED = [
    ("A", "B", 6.0),
    ("A", "E", 5.0),
    ("B", "A", 2.0),
    ("B", "C", 2.0),
    ("B", "D", 2.0),
    ("B", "F", 5.0),
    ("C", "D", 3.0),
    ("D", "C", 5.0),
]

_FLORENTINE = [
    ("Acciaiuoli", "Medici", 1.0),
    ("Castellani", "Peruzzi", 1.0),
    ("Castellani", "Strozzi", 1.0),
    ("Castellani", "Barbadori", 1.0),
    ("Medici", "Barbadori", 1.0),
    ("Medici", "Ridolfi", 1.0),
    ("Medici", "Tornabuoni", 1.0),
    ("Medici", "Albizzi", 1.0),
    ("Medici", "Salviati", 1.0),
    ("Salviati", "Pazzi", 1.0),
    ("Peruzzi", "Strozzi", 1.0),
    ("Peruzzi", "Bischeri", 1.0),
    ("Strozzi", "Ridolfi", 1.0),
    ("Strozzi", "Bischeri", 1.0),
    ("Ridolfi", "Tornabuoni", 1.0),
    ("Tornabuoni", "Guadagni", 1.0),
    ("Albizzi", "Ginori", 1.0),
    ("Albizzi", "Guadagni", 1.0),
    ("Bischeri", "Guadagni", 1.0),
    ("Guadagni", "Lamberteschi", 1.0),
]

# 34 members labelled "0".."33"; weight = number of shared interaction contexts
_ZACHARY = [
    (0, 1, 4), (0, 2, 5), (0, 3, 3), (0, 4, 3), (0, 5, 3), (0, 6, 3),
    (0, 7, 2), (0, 8, 2), (0, 10, 2), (0, 11, 3), (0, 12, 1), (0, 13, 3),
    (0, 17, 2), (0, 19, 2), (0, 21, 2), (0, 31, 2), (1, 2, 6), (1, 3, 3),
    (1, 7, 4), (1, 13, 5), (1, 17, 1), (1, 19, 2), (1, 21, 2), (1, 30, 2),
    (2, 3, 3), (2, 7, 4), (2, 8, 5), (2, 9, 1), (2, 13, 3), (2, 27, 2),
    (2, 28, 2), (2, 32, 2), (3, 7, 3), (3, 12, 3), (3, 13, 3), (4, 6, 2),
    (4, 10, 3), (5, 6, 5), (5, 10, 3), (5, 16, 3), (6, 16, 3), (8, 30, 3),
    (8, 32, 3), (8, 33, 4), (9, 33, 2), (13, 33, 3), (14, 32, 3), (14, 33, 2),
    (15, 32, 3), (15, 33, 4), (18, 32, 1), (18, 33, 2), (19, 33, 1), (20, 32, 3),
    (20, 33, 1), (22, 32, 2), (22, 33, 3), (23, 25, 5), (23, 27, 4), (23, 29, 3),
    (23, 32, 5), (23, 33, 4), (24, 25, 2), (24, 27, 3), (24, 31, 2), (25, 31, 7),
    (26, 29, 4), (26, 33, 2), (27, 33, 4), (28, 31, 2), (28, 33, 2), (29, 32, 4),
    (29, 33, 2), (30, 32, 3), (30, 33, 3), (31, 32, 4), (31, 33, 4), (32, 33, 5),
]

# name -> (edges, directed, node order: [] for first appearance)
_DATASETS = dict(zip(DATASET_NAMES, (
    (_TOY_UNDIRECTED, False, []),
    (_TOY_DIRECTED, True, []),
    (_FLORENTINE, False, []),
    ([(str(u), str(v), float(w)) for u, v, w in _ZACHARY], False, [str(i) for i in range(34)]),
), strict=True))


def dataset_edges(name: str) -> tuple[list[tuple[str, str, float]], bool, list[str]]:
    """Edge list, directedness flag, and node order for a built-in dataset."""
    try:
        edges, directed, nodes = _DATASETS[name]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}, available: {', '.join(DATASET_NAMES)}") from None
    return list(edges), directed, list(nodes)


def builtin_dataset(name: str) -> Graph:
    """Return one of the built-in evaluation networks by name."""
    edges, directed, nodes = dataset_edges(name)
    return build_graph(edges, directed=directed, nodes=nodes)
