"""Strong nodal-domain decompositions of vertex functions.

A decomposition labels the components of a sign-restricted subgraph with
graph._component_labels, the package's one component labelling.

A decomposition depends on f only through its rounded sign vector s, so
the strong labelling of each s is built once and held with the graph,
keyed by s (graph._derived): the `nodal` check (rounding at 0) and the
nodal sweep (rounding at 1e-10 max|f|) read one labelling wherever their
signs agree.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, _component_labels, _derived, _groups


@dataclass(frozen=True)
class NodalDecomposition:
    """Vertex labeling into strong nodal domains; `count` is the domain
    number.

    (Rounded-to-)zero vertices are left unlabeled (label -1).  Domain ids
    are assigned in order of each domain's smallest vertex.
    """

    labels: tuple[int, ...]
    count: int

    def domains(self) -> list[list[int]]:
        return _groups(self.labels, self.count)


def _rounded_signs(f, zero_tol: float | None) -> tuple[int, ...]:
    """Signs of f as Python ints, with |f| <= zero_tol rounded to 0.

    Raises ValueError on a non-finite entry or a non-finite or negative
    zero_tol.
    """
    values = np.asarray(f, dtype=float).tolist()
    if not all(map(math.isfinite, values)):
        i = next(i for i, x in enumerate(values) if not math.isfinite(x))
        raise ValueError(f"function entry {i} is not finite: {values[i]!r}")
    if zero_tol is None:
        zero_tol = 1e-10 * max(map(abs, values), default=0.0)
    elif not math.isfinite(zero_tol):
        raise ValueError(f"zero_tol must be finite, got {zero_tol!r}")
    if zero_tol < 0:
        raise ValueError("zero_tol must be >= 0")
    return tuple([0 if abs(x) <= zero_tol else 1 if x > 0 else -1 for x in values])


def _label_strong(g: WeightedGraph, s: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    # The kept vertices are those of nonzero sign; a zero endpoint makes the
    # product 0, so every joining edge has both ends kept.
    edges = [(e.u, e.v) for e in g.edges if e.sigma * s[e.u] * s[e.v] > 0]
    return _component_labels(g.n, s, edges)


def strong_nodal(g: WeightedGraph, f, zero_tol: float | None = None) -> NodalDecomposition:
    """Strong nodal domains of f: components of the nonzero vertices under
    edges whose (sign-weighted) endpoint product is positive.

    Entries with |f| <= zero_tol count as zero (default tol: 1e-10 max|f|).
    On signed graphs an edge joins iff sigma_xy f(x) f(y) > 0, which reduces
    to the unsigned rule when sigma is identically +1.
    """
    if len(f) != g.n:
        raise ValueError("function length must equal vertex count")
    s = _rounded_signs(f, zero_tol)
    labels, count = _derived(g, ("strong", s), _label_strong, s)
    return NodalDecomposition(labels=labels, count=count)


def product_function(f, h) -> np.ndarray:
    """Pointwise product on the product vertex set: out[x*n2+y] = f[x]*h[y]."""
    f = np.asarray(f, dtype=float)
    h = np.asarray(h, dtype=float)
    return np.outer(f, h).reshape(-1)
