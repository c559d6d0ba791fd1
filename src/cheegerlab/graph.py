"""Weighted/signed graph data model, structural queries, products, generators.

Vertices are the contiguous integers 0..n-1.  A graph carries a positive
edge weight and a +/-1 sign per edge, a positive vertex measure `mu`, and a
real vertex potential `kappa`.  All types are immutable; every operation is
a pure function of its arguments.  A `WeightedGraph` checks its invariants
once, when it is made, so no function re-checks a graph it is given.  One
union-find component labelling, `_component_labels`, serves `classify` (one
labelling of the bipartite double cover gives the components, the tree flag
and the 2-colouring), the generators and the nodal decompositions, and one
`_groups` turns a labelling into its vertex lists.  The two
graph readers, JSON and the edge list, keep only their own syntax and hand
the fields to one checked core, `_checked_graph`, which bounds the size,
builds the graph and maps its problems to `GraphFormatError`: a fault that
either format can hold reads the same from both.

A graph also holds what is derived from it alone, each input built on
first use and read by every later caller (:func:`_derived`): whether it is
signed, its weighted degrees (read-only), its classification, its degree
profile, its normalized Laplacian (read-only) and its strong nodal
labellings, one per rounded sign vector asked for.  The engine and the
checks hold theirs too: its Phi table while it fits the engine's held-table
bound (`cheeger`), and the spectrum the checks and `analyze` read
(`bounds._checked_spectrum`, the one place that pairs Jacobi values with
LAPACK functions), its full exact profile (or the work policy's refusal,
held as ()), whose certificates each hold their JSON dict, and its
perturbed instance for each (eps, seed) asked for, which holds its own
(`bounds`).
Holding them is safe because the graph cannot change after it is built and
each of them is a function of the graph (and, for a labelling, the signs;
for a perturbed instance, eps and the seed) alone; an equal but distinct
graph holds its own.  The store lives and dies with the graph, so there is
no cache to evict.  The cost is that a caller that sweeps seeds over one
graph holds one perturbed instance per seed until that graph dies.
"""

import heapq
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .rng import DEFAULT_SEED, SplitMix64


class Edge(NamedTuple):
    u: int
    v: int
    w: float
    sigma: int = 1


@dataclass(frozen=True)
class WeightedGraph:
    """Finite weighted graph with vertex measure and potential.

    Immutable and hashable; build instances through :meth:`build`, which
    canonicalizes the edge list (u < v, sorted lexicographically) and
    resolves the measure token.  Every instance is valid: construction
    (through :meth:`build`, the constructor or `dataclasses.replace`)
    checks the invariants once and raises :class:`InvalidGraphError`, whose
    `problems` lists every problem.  An edge entry that is not an `Edge` is
    one.  A vertex id or sign that is not a Python int (a bool is not one) is one,
    as is a weight, measure or kappa that is not exactly a Python int or
    float (a numpy float or a bool is not): the graph formats would fail to
    write it, or write it in a form their loaders refuse.  An edge stored
    with u > v is one too: with every edge stored as u < v, a vertex pair
    stored twice is a duplicate (u, v).  A list (or any other iterable)
    given for `edges`, `mu` or `kappa` is stored as a tuple, so the graph
    stays hashable, a generator is read once, and the fields cannot change
    under what the graph holds; a field that is not iterable (a number, or
    a 0-d numpy array) is the one problem listed.
    """

    n: int
    edges: tuple[Edge, ...]
    mu: tuple[float, ...]
    kappa: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "vertex count"))
        for key in ("edges", "mu", "kappa"):
            value = getattr(self, key)
            if not isinstance(value, tuple):
                try:
                    value = tuple(value)
                except TypeError:
                    raise InvalidGraphError((f"{key} {value!r} is not a sequence",)) from None
                object.__setattr__(self, key, value)
        problems = _problems(self)
        if problems:
            raise InvalidGraphError(problems)
        # The derived inputs held with the graph (see _derived); not a field,
        # so equality, hashing and dataclasses.replace ignore it.
        object.__setattr__(self, "_held", {})

    def __getstate__(self):
        # A copy or an unpickled graph starts with a store of its own.
        return {**self.__dict__, "_held": {}}

    @staticmethod
    def build(n: int, edges: Iterable, mu="degree", kappa=0.0) -> "WeightedGraph":
        """Construct a graph from loose edge tuples.

        `edges` holds (u, v, w) or (u, v, w, sigma) tuples; `mu` is a
        per-vertex sequence, the token "degree" (mu_i = weighted degree) or
        "unit" (mu == 1); `kappa` is a sequence or a scalar to broadcast (a
        0-d numpy array is a scalar).  The vertex count, vertex ids and
        signs must be integers (a float with a fraction raises ValueError
        rather than being truncated), and weights, measures and kappa
        numbers; a string or a bool (numpy's too) is neither, and raises
        ValueError naming the field.  So does an `edges`, `mu` or `kappa`
        that is not a sequence (a number, say), and an edge that is not a
        (u, v, w) or (u, v, w, sigma) tuple of numbers (too short or too
        long) raises ValueError naming the edge.  Semantic problems
        (self-loops, bad weights, ...) raise InvalidGraphError from the
        constructor.
        """
        n = _integer(n, "vertex count")
        norm = []
        shape = "(u, v, w) or (u, v, w, sigma) tuple of numbers"
        for e in _sequence(edges, "edges"):
            try:
                u, v, w, sigma = e if len(e) == 4 else (*e, 1)
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a {shape}") from None
            u, v = _integer(u, "vertex id"), _integer(v, "vertex id")
            w = _real(w, "weight")
            sigma = _integer(sigma, "sigma")
            if v < u:
                u, v = v, u
            norm.append(Edge(u, v, w, sigma))
        norm.sort(key=lambda e: (e.u, e.v))
        if isinstance(mu, str):
            if mu not in _MEASURES:
                raise ValueError(f"unknown measure token {mu!r}")
            mu_t = _MEASURES[mu](n, norm)
        else:
            mu_t = tuple(_real(x, "measure") for x in _sequence(mu, "mu"))
        if isinstance(kappa, np.ndarray) and kappa.ndim == 0:
            kappa = kappa[()]  # a 0-d array is a scalar, like np.float64
        if isinstance(kappa, (int, float, str, np.generic)):
            kappa_t = (_real(kappa, "kappa"),) * n
        else:
            kappa_t = tuple(_real(x, "kappa") for x in _sequence(kappa, "kappa"))
        return WeightedGraph(n=n, edges=tuple(norm), mu=mu_t, kappa=kappa_t)

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_signed(self) -> bool:
        """Some edge has sigma = -1; decided once per graph and held with it."""
        return _derived(self, "signed", _has_negative_edge)

    def degrees(self) -> np.ndarray:
        """Weighted degrees d(i) = sum of incident edge weights (signs
        ignored); built once per graph and held with it, read-only."""
        return _derived(self, "degrees", _degree_array)

    def mu_is_degree(self) -> bool:
        """mu equals the weighted degree to a relative 1e-12."""
        d = degree_profile(self).d
        return all(abs(m - x) <= 1e-12 * max(1.0, abs(x)) for m, x in zip(self.mu, d))

    def kappa_is_zero(self) -> bool:
        return all(k == 0.0 for k in self.kappa)


def _derived(g: WeightedGraph, key, build, *args):
    """The input `key` derived from g: build(g, *args) on first use, then
    held with g and returned to every later caller.  `key` must name
    everything the value depends on besides g, and `build` must not read
    anything else.  A held array is made read-only."""
    held = g._held
    value = held.get(key)
    if value is None:
        value = held[key] = build(g, *args)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return value


class InvalidGraphError(ValueError):
    """A graph that breaks an invariant; `problems` lists every one, and the
    message the first five (:func:`_joined`)."""

    def __init__(self, problems: tuple[str, ...]):
        self.problems = problems
        super().__init__("invalid graph: " + _joined(problems))


def _joined(problems) -> str:
    """The problems joined by "; ": of more than five, the first five and
    "and N more", so that a graph with a fault on every edge is still one
    short line."""
    shown = "; ".join(problems[:5])
    return f"{shown}; and {len(problems) - 5} more" if len(problems) > 5 else shown


def _weighted_degrees(n: int, edges) -> list[float]:
    """Weighted degrees of n vertices as Python floats: each edge's weight
    added to both ends in stored-edge order, skipping an edge with an
    endpoint outside 0..n-1."""
    d = [0.0] * max(n, 0)
    for e in edges:
        if 0 <= e.u < n and 0 <= e.v < n:
            d[e.u] += e.w
            d[e.v] += e.w
    return d


def _has_negative_edge(g: WeightedGraph) -> bool:
    return any(e.sigma < 0 for e in g.edges)


def _degree_array(g: WeightedGraph) -> np.ndarray:
    return np.array(_weighted_degrees(g.n, g.edges))


def _is_int(x) -> bool:
    """x is a Python int and not a bool: what the graph formats write back."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """x is exactly a Python int or float: the graph formats would fail to
    write a numpy float, or write it (np.float64 is a float subclass whose
    repr is np.float64(...)) or a bool in a form their loaders refuse."""
    return type(x) in (int, float)


_NOT_NUMBERS = (str, bool, np.bool_)


def _integer(x, field: str) -> int:
    """x as an int; ValueError naming `field` for a string, a bool or a
    float with a fraction (never truncated)."""
    if type(x) is int:
        return x
    fraction = isinstance(x, (float, np.floating)) and not float(x).is_integer()
    if fraction or isinstance(x, _NOT_NUMBERS):
        raise ValueError(f"{field} {x!r} is not an integer")
    return int(x)


def _sequence(x, field: str):
    """An iterator over x; ValueError naming `field` if x is not iterable
    (a number, or a 0-d numpy array)."""
    try:
        return iter(x)
    except TypeError:
        raise ValueError(f"{field} {x!r} is not a sequence") from None


def _real(x, field: str) -> float:
    """x as a float; ValueError naming `field` for a string or a bool.  An
    int beyond the float range is +/-inf, which the graph refuses as a
    float inf."""
    if type(x) is float:
        return x
    if isinstance(x, _NOT_NUMBERS):
        raise ValueError(f"{field} {x!r} is not a number")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


_FIELD_ORDER: dict[type, tuple[str, ...]] = {}  # result class -> its field names, sorted


def _json_form(result) -> dict:
    """The JSON form of a result dataclass: its fields as {name: value} in
    sorted name order, each value as stored.  A tuple stays a tuple, which
    json writes as the same array as a list, so the writer's bytes are
    those of json.dumps(..., sort_keys=True)."""
    names = _FIELD_ORDER.get(type(result))
    if names is None:
        names = _FIELD_ORDER[type(result)] = tuple(sorted(f.name for f in fields(result)))
    values = result.__dict__
    return {name: values[name] for name in names}


@dataclass(frozen=True)
class GraphClassification:
    component_labels: tuple[int, ...]
    component_count: int
    is_connected: bool
    is_tree: bool
    is_bipartite: bool
    bipartition_labels: tuple[int, ...] | None

    to_json_dict = _json_form


@dataclass(frozen=True)
class DegreeProfile:
    d: tuple[float, ...]
    tau: float
    tau_min: float


UNLABELED = -1  # the label of a vertex a labelling leaves out


def _component_labels(n: int, keep, edges) -> tuple[tuple[int, ...], int]:
    """Union-find components of the vertices v with keep[v] under the (u, v)
    pairs of `edges`: a label per vertex (UNLABELED where not kept), numbered
    in order of each component's smallest vertex, and their count."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    # The larger root joins the smaller, so every root is the smallest
    # vertex of its component.
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru < rv:
            parent[rv] = ru
        elif rv < ru:
            parent[ru] = rv
    first: dict[int, int] = {}
    labels = [UNLABELED] * n
    for v in range(n):
        if keep[v]:
            labels[v] = first.setdefault(find(v), len(first))
    return tuple(labels), len(first)


def _groups(labels, count: int) -> list[list[int]]:
    """The ascending vertex lists of labels 0..count-1 (UNLABELED in none)."""
    out: list[list[int]] = [[] for _ in range(count)]
    for v, lab in enumerate(labels):
        if lab != UNLABELED:
            out[lab].append(v)
    return out


def _problems(g: WeightedGraph) -> tuple[str, ...]:
    problems = []
    if g.n < 1:
        problems.append("vertex count must be positive")
        return tuple(problems)
    if len(g.mu) != g.n:
        problems.append(f"mu has length {len(g.mu)}, expected {g.n}")
    if len(g.kappa) != g.n:
        problems.append(f"kappa has length {len(g.kappa)}, expected {g.n}")
    seen = set()
    touched = [False] * g.n
    for e in g.edges:
        if not isinstance(e, Edge):
            problems.append(f"edge entry {e!r} is not an Edge")
            continue
        if not (_is_int(e.u) and _is_int(e.v)):
            problems.append(f"edge ({e.u!r},{e.v!r}) has a vertex id that is not an int")
            continue
        if not (0 <= e.u < g.n and 0 <= e.v < g.n):
            problems.append(f"edge ({e.u},{e.v}) endpoint out of range")
            continue
        if e.u == e.v:
            problems.append(f"self-loop at vertex {e.u}")
            continue
        if e.u > e.v:
            problems.append(f"edge ({e.u},{e.v}) stored with u > v")
        key = (e.u, e.v)
        if key in seen:
            problems.append(f"duplicate edge ({e.u},{e.v})")
        seen.add(key)
        if not _is_number(e.w):
            problems.append(f"weight {e.w!r} on edge ({e.u},{e.v}) must be a Python int or float")
        elif not (_is_finite_number(e.w) and e.w > 0):
            kind = "nonpositive" if e.w <= 0 else "non-finite"
            problems.append(f"{kind} weight on edge ({e.u},{e.v})")
        if not (_is_int(e.sigma) and e.sigma in (-1, 1)):
            problems.append(f"sigma {e.sigma!r} on edge ({e.u},{e.v}) must be the int +1 or -1")
        touched[e.u] = touched[e.v] = True
    for i, ok in enumerate(touched):
        if not ok:
            problems.append(f"isolated vertex {i}")
    for i, (m, kap) in enumerate(zip(g.mu[: g.n], g.kappa)):
        if not _is_number(m):
            problems.append(f"measure {m!r} at vertex {i} must be a Python int or float")
        elif not (_is_finite_number(m) and m > 0):
            kind = "nonpositive" if m <= 0 else "non-finite"
            problems.append(f"{kind} measure at vertex {i}")
        if not _is_number(kap):
            problems.append(f"kappa {kap!r} at vertex {i} must be a Python int or float")
        elif not _is_finite_number(kap):
            problems.append(f"non-finite kappa at vertex {i}")
    if problems:
        return tuple(problems)
    # Finite inputs can still overflow in the sums the solvers form.  Python
    # floats overflow to inf here, where numpy would warn.  (d + |kappa|)/mu
    # bounds the Laplacian diagonal, tau's d/mu and every off-diagonal entry.
    inf, mu = math.inf, g.mu
    deg = _weighted_degrees(g.n, g.edges)
    total_w = 0.0
    for u, v, w, _ in g.edges:
        total_w += w
        if not 0.0 < mu[u] * mu[v] < inf:
            problems.append(f"mu_u * mu_v on edge ({u},{v}) is not a positive finite number")
    for i, (d, kap, m) in enumerate(zip(deg, g.kappa, mu)):
        if not (d + abs(kap)) / m < inf:
            problems.append(f"Laplacian diagonal bound (d + |kappa|)/mu at vertex {i} is not finite")
    if not sum(mu) < inf:
        problems.append("total measure mu(V) is not finite")
    if not 3.0 * total_w < inf:
        problems.append("3 x total edge weight (the bound on beta's numerator) is not finite")
    return tuple(problems)


def degree_profile(g: WeightedGraph) -> DegreeProfile:
    """Weighted degrees with tau = max d/mu and tau_min = min d/mu; built
    once per graph and held with it."""
    return _derived(g, "degree_profile", _degree_profile)


def _degree_profile(g: WeightedGraph) -> DegreeProfile:
    d = g.degrees()
    ratios = d / np.asarray(g.mu)
    return DegreeProfile(d=tuple(d), tau=float(ratios.max()), tau_min=float(ratios.min()))


def classify(g: WeightedGraph) -> GraphClassification:
    """Connected components plus tree and bipartite flags, from one
    union-find labelling of the bipartite double cover; built once per
    graph and held with it."""
    return _derived(g, "classification", _classify)


def _classify(g: WeightedGraph) -> GraphClassification:
    # One labelling of the bipartite double cover: x has copies x and x + n,
    # and each edge uv joins u to v + n and u + n to v.  A component of g is
    # bipartite iff its copies form two cover components.  The cover
    # component holding the smallest vertex r of x's component has the least
    # label of those copies, so min(cover[x], cover[x + n]) = cover[r] names
    # x's component, and x's colour is 0 iff cover[x] is such a name.
    n = g.n
    pairs = [p for u, v, _, _ in g.edges for p in ((u, v + n), (u + n, v))]
    cover, cover_count = _component_labels(2 * n, [True] * (2 * n), pairs)
    first: dict[int, int] = {}
    labels = tuple(first.setdefault(min(a, b), len(first)) for a, b in zip(cover[:n], cover[n:]))
    c = len(first)
    bipartite = cover_count == 2 * c
    connected = c == 1
    return GraphClassification(
        component_labels=labels,
        component_count=c,
        is_connected=connected,
        is_tree=connected and g.m == g.n - 1,
        is_bipartite=bipartite,
        bipartition_labels=tuple(int(x not in first) for x in cover[:n]) if bipartite else None,
    )


def cyclomatic(g: WeightedGraph) -> int:
    """|E| - |V| + c; the number of independent cycles (0 for forests)."""
    return g.m - g.n + classify(g).component_count


def is_complete(g: WeightedGraph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def product(g1: WeightedGraph, g2: WeightedGraph) -> WeightedGraph:
    """Graph product on V1 x V2 with unit vertex measure.

    (x,y) ~ (x,y') with weight w2(y,y') and (x,y) ~ (x',y) with weight
    w1(x,x'); potentials add.  Vertex (x,y) maps to index x*n2 + y.
    Both factors must be unsigned with mu identically 1.
    """
    for g in (g1, g2):
        if g.is_signed():
            raise ValueError("product factors must be unsigned")
        if any(m != 1.0 for m in g.mu):
            raise ValueError("product factors must have unit vertex measure")
    n2 = g2.n
    edges = []
    for x in range(g1.n):
        for e in g2.edges:
            edges.append((x * n2 + e.u, x * n2 + e.v, e.w))
    for e in g1.edges:
        for y in range(n2):
            edges.append((e.u * n2 + y, e.v * n2 + y, e.w))
    kappa = [g1.kappa[x] + g2.kappa[y] for x in range(g1.n) for y in range(n2)]
    return WeightedGraph.build(g1.n * n2, edges, mu="unit", kappa=kappa)


def with_random_signature(g: WeightedGraph, seed: int) -> WeightedGraph:
    """Replace edge signs with i.i.d. uniform +/-1 drawn from `seed`."""
    rng = SplitMix64(seed)
    edges = [Edge(e.u, e.v, e.w, 1 - 2 * rng.randint(2)) for e in g.edges]
    return WeightedGraph(n=g.n, edges=tuple(edges), mu=g.mu, kappa=g.kappa)


# ---------------------------------------------------------------------------
# generators

def _random_tree(rng: SplitMix64, n: int) -> list[tuple[int, int]]:
    """The edges of the tree on n >= 2 vertices whose Pruefer sequence is
    n - 2 draws of rng.randint(n)."""
    seq = [rng.randint(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _tree_skeleton(n: int, rng: SplitMix64, p: float) -> list[tuple[int, int]]:
    return sorted((min(u, v), max(u, v)) for u, v in _random_tree(rng, n))


def _connected_skeleton(n: int, rng: SplitMix64, p: float) -> list[tuple[int, int]]:
    skel = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < p}
    comps = _groups(*_component_labels(n, [True] * n, skel))
    if len(comps) > 1:
        # One edge per edge of a random tree over the components connects them.
        for ci, cj in _random_tree(rng, len(comps)):
            u = comps[ci][rng.randint(len(comps[ci]))]
            v = comps[cj][rng.randint(len(comps[cj]))]
            skel.add((min(u, v), max(u, v)))
    return sorted(skel)


def _bipartite_skeleton(n: int, rng: SplitMix64, p: float) -> list[tuple[int, int]]:
    left = (n + 1) // 2
    skel = {(i, j) for i in range(left) for j in range(left, n) if rng.uniform() < p}
    touched = [False] * n
    for u, v in skel:
        touched[u] = touched[v] = True
    for v in range(n):
        if not touched[v]:
            u = left + rng.randint(n - left) if v < left else rng.randint(left)
            skel.add((min(u, v), max(u, v)))
            touched[u] = touched[v] = True
    return sorted(skel)


class _Family(NamedTuple):
    min_n: int
    random: bool  # draws its skeleton from the seed; weights default to [0.5, 2.0]
    # (n, rng, p) -> the vertex pairs, in weight-draw order; gn has none.
    skeleton: Callable[[int, SplitMix64, float], list[tuple[int, int]]] | None

    def vertex_count(self, n: int) -> int:
        """The vertex count of the family's graph at n: 2n + 2 for gn, whose
        n is the family parameter, else n."""
        return n if self.skeleton is not None else 2 * n + 2


_FAMILIES = {
    "gn": _Family(3, False, None),
    "path": _Family(2, False, lambda n, rng, p: [(i, i + 1) for i in range(n - 1)]),
    "cycle": _Family(3, False, lambda n, rng, p: [(i, (i + 1) % n) for i in range(n)]),
    "star": _Family(2, False, lambda n, rng, p: [(0, i) for i in range(1, n)]),
    "complete": _Family(
        2, False, lambda n, rng, p: [(i, j) for i in range(n) for j in range(i + 1, n)]
    ),
    "random_tree": _Family(2, True, _tree_skeleton),
    "random_connected": _Family(2, True, _connected_skeleton),
    "random_bipartite": _Family(2, True, _bipartite_skeleton),
}
FAMILIES = tuple(_FAMILIES)


def _is_finite_number(x) -> bool:
    """x is an int or float (np.float64, a float, too), not a bool, and a
    finite float once converted (an int beyond the float range is not)."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


# The generator's rules, which `generate` and a corpus config both read,
# each in its own message: argument -> (accepts the value, what it must be).
# A corpus config names the None a weight bound accepts as JSON's null.
_GENERATOR_RULES = {
    "p": (lambda v: _is_finite_number(v) and 0 <= v <= 1, "a finite number in [0, 1]"),
    "w_low": (lambda v: v is None or _is_finite_number(v) and v > 0, "a finite number > 0"),
    "w_high": (lambda v: v is None or _is_finite_number(v) and v > 0, "a finite number > 0"),
    "a": (lambda v: _is_finite_number(v) and v > 0, "a finite number > 0"),
}

# Measure token -> the measure of n vertices under the normalized edges.
_MEASURES = {
    "degree": lambda n, edges: tuple(_weighted_degrees(n, edges)),
    "unit": lambda n, edges: (1.0,) * n,
}


def _weight_range(w_low, w_high, random: bool) -> tuple[float, float]:
    """The range [lo, hi] that `generate` draws weights from, for bounds
    its rules accept: [0.5, 2.0] for a random family and unit weights for
    the others when neither is given, else w_low (1.0 if None) up to
    w_high (w_low if None).  ValueError if w_high < w_low."""
    if w_low is None and w_high is None:
        return (0.5, 2.0) if random else (1.0, 1.0)
    lo = 1.0 if w_low is None else float(w_low)
    hi = lo if w_high is None else float(w_high)
    if hi < lo:
        raise ValueError("w_high must be >= w_low")
    return lo, hi


def generate(
    family: str,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
    a: float = 1.1,
    p: float = 0.3,
    w_low: float | None = None,
    w_high: float | None = None,
    mu="degree",
) -> WeightedGraph:
    """Deterministic graph generator; a pure function of its arguments.

    For the "gn" family, `n >= 3` is the family parameter and the graph has
    2n+2 vertices: path edges {i,i+1} for i = 0..2n-1 with weight a^i for
    i <= n-1 and a^(2n-1-i) for n <= i <= 2n-1, closed into a cycle by the
    unit edge {0,2n}, plus a pendant vertex 2n+1 attached to n by a unit
    edge.  Measure defaults to the weighted degree and kappa to 0.

    Every other family is one row of a table: its least n, whether it is
    random, and its skeleton, the vertex pairs it joins.  Each pair gets a
    weight drawn uniformly from [w_low, w_high], in skeleton order after
    the skeleton's own draws; random families default to [0.5, 2.0], the
    deterministic ones to unit weights.  `random_tree` and
    `random_connected` always return connected graphs; `random_bipartite`
    is 2-colorable with no isolated vertices.

    `w_low`, `w_high` and `a` must be finite numbers > 0 and `p` one in
    [0, 1] (`_GENERATOR_RULES`; a bool, a string or a numpy number other
    than np.float64 is not one), and `w_high` >= `w_low` (`_weight_range`);
    a bad one, an n below the family's least, or a `gn` weight a^(n-1)
    that overflows, raises ValueError naming it.  Building the
    graph checks it too: an explicit `mu` of the wrong length, say, raises
    ValueError "invalid graph: ...".
    """
    row = _FAMILIES.get(family)
    if row is None:
        raise ValueError(f"unknown family {family!r}")
    for name, value in (("w_low", w_low), ("w_high", w_high), ("a", a), ("p", p)):
        accepts, want = _GENERATOR_RULES[name]
        if not accepts(value):
            raise ValueError(f"{name} must be {want}, got {value!r}")
    rng = SplitMix64(seed)
    lo, hi = _weight_range(w_low, w_high, row.random)
    if n < row.min_n:
        # gn's n is the family parameter, not the vertex count.
        raise ValueError(f"{'gn family' if family == 'gn' else family} requires n >= {row.min_n}")
    if row.skeleton is None:
        # A float a^(n-1) overflows in **, an int one in build's float().
        try:
            edges = [(i, i + 1, a ** min(i, 2 * n - 1 - i)) for i in range(2 * n)]
            edges += [(0, 2 * n, 1.0), (n, 2 * n + 1, 1.0)]
            return WeightedGraph.build(row.vertex_count(n), edges, mu=mu)
        except OverflowError:
            raise ValueError(f"a = {a!r} makes the gn weight a^{n - 1} overflow") from None
    edges = [
        (u, v, lo if hi == lo else lo + (hi - lo) * rng.uniform())
        for u, v in row.skeleton(n, rng, p)
    ]
    return WeightedGraph.build(n, edges, mu=mu)


# ---------------------------------------------------------------------------
# serialization

class GraphFormatError(ValueError):
    pass


def to_json_dict(g: WeightedGraph) -> dict:
    """Canonical JSON form; sigma and kappa are emitted explicitly."""
    return {
        "edges": [{"sigma": e.sigma, "u": e.u, "v": e.v, "w": e.w} for e in g.edges],
        "kappa": list(g.kappa),
        "mu": list(g.mu),
        "n": g.n,
    }


def _check_json(values: list, field: str, integer: bool) -> None:
    """Raise ValueError naming the first of `values` that is not a JSON
    integer (an integral float such as 4.0 is one) or, with `integer`
    False, a JSON number; a bool or a string is neither.  `field` is
    formatted with the value's index."""
    if set(map(type, values)) <= ({int} if integer else {int, float}):
        return
    for i, x in enumerate(values):
        if type(x) is not int and (type(x) is not float or integer and not x.is_integer()):
            kind = "an integer" if integer else "a number"
            raise ValueError(f"{field.format(i)} {json.dumps(x)} is not {kind}")


def _edge_column(raw: list, key: str) -> list:
    """Field `key` of every edge object; ValueError naming the first edge
    without it."""
    try:
        return [e[key] for e in raw]
    except KeyError:
        i = next(i for i, e in enumerate(raw) if key not in e)
        raise ValueError(f'edge {i} has no "{key}"') from None


def _checked_graph(n, us: list, vs: list, ws: list, sigmas: list, mu, kappa) -> WeightedGraph:
    """The graph both readers load: n, the edge columns, mu (a token or a
    list) and kappa (a number or a list), as a format gives them.

    Raises ValueError naming the first value that is not a JSON integer
    or number, which only JSON can give, and GraphFormatError for every
    other fault, in either format: n beyond twice the edge count, an
    unknown measure token, or an invalid graph (its problems joined by
    "; ", the first five of more than five, as :class:`InvalidGraphError`
    words them).
    """
    _check_json([n], "n", True)
    _check_json(us, "edge {} vertex id", True)
    _check_json(vs, "edge {} vertex id", True)
    _check_json(ws, "edge {} weight w", False)
    _check_json(sigmas, "edge {} sigma", True)
    if type(mu) is list:
        _check_json(mu, "mu entry {}", False)
    if type(kappa) is list:
        _check_json(kappa, "kappa entry {}", False)
    else:
        _check_json([kappa], "kappa", False)
    n = int(n)
    # Building allocates O(n); a graph without isolated vertices has n <= 2|E|.
    if n > 2 * len(us):
        raise GraphFormatError(
            f"n = {n} exceeds twice the edge count ({len(us)}), so some vertex would be isolated"
        )
    try:
        return WeightedGraph.build(n, zip(us, vs, ws, sigmas), mu=mu, kappa=kappa)
    except InvalidGraphError as exc:
        raise GraphFormatError(_joined(exc.problems)) from exc
    except ValueError as exc:  # the checked fields leave only an unknown measure token
        raise GraphFormatError(str(exc)) from exc


_GRAPH_KEYS = frozenset(("n", "edges", "mu", "kappa"))
_EDGE_KEYS = frozenset(("u", "v", "w", "sigma"))


def from_json_dict(data: dict) -> WeightedGraph:
    """Graph from its JSON form; raises GraphFormatError if the data is
    malformed ("malformed graph JSON: ..." for a top level that is not an
    object, a wrong shape or value type, or a key other than n, edges, mu
    and kappa, or u, v, w and sigma in an edge) or the graph is invalid
    (see :func:`_checked_graph`)."""
    try:
        if type(data) is not dict:
            raise ValueError(f"the top level must be a JSON object, not {type(data).__name__}")
        if not data.keys() <= _GRAPH_KEYS:
            key = next(key for key in data if key not in _GRAPH_KEYS)
            raise ValueError(f'unknown key "{key}"')
        n = data["n"]
        raw = data["edges"]
        if type(raw) is not list:
            raise ValueError("edges must be a list of edge objects")
        if not set(map(type, raw)) <= {dict}:
            i = next(i for i, e in enumerate(raw) if type(e) is not dict)
            raise ValueError(f"edge {i} must be an object with u, v and w")
        if not set().union(*raw) <= _EDGE_KEYS:
            i, key = next((i, key) for i, e in enumerate(raw) for key in e if key not in _EDGE_KEYS)
            raise ValueError(f'edge {i} has unknown key "{key}"')
        us, vs, ws = (_edge_column(raw, key) for key in ("u", "v", "w"))
        sigmas = [e.get("sigma", 1) for e in raw]
        mu = data.get("mu", "degree")
        if type(mu) not in (list, str):
            raise ValueError("mu must be a string or a list")
        return _checked_graph(n, us, vs, ws, sigmas, mu, data.get("kappa", 0.0))
    except GraphFormatError:
        raise
    except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
        raise GraphFormatError(f"malformed graph JSON: {exc}") from exc


def parse_graph_text(text: str) -> WeightedGraph:
    """Edge-list form: header `n <int> mu <token|v0 v1 ...> [kappa v0 v1 ...]`,
    then `u v w [sigma]` lines, where a single mu entry that is not a
    number is a measure token ("degree" or "unit", as in JSON).  kappa
    defaults to 0.  Raises GraphFormatError if the text is malformed or
    the graph is invalid (see :func:`_checked_graph`)."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph file")
    header = lines[0].split()
    if len(header) < 4 or header[0] != "n" or header[2] != "mu":
        raise GraphFormatError("header must read: n <int> mu <degree|unit|list> [kappa <list>]")
    at = header.index("kappa") if "kappa" in header else len(header)
    mu_tokens = header[3:at]
    try:
        n = int(header[1])
        try:
            mu = [float(x) for x in mu_tokens]
        except ValueError:
            if len(mu_tokens) != 1:
                raise
            mu = mu_tokens[0]  # a measure token, which the checked core resolves
        kappa = 0.0 if at == len(header) else [float(x) for x in header[at + 1 :]]
    except ValueError as exc:
        raise GraphFormatError(f"bad header: {exc}") from exc
    columns = ([], [], [], [])
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (3, 4):
            raise GraphFormatError(f"bad edge line: {ln!r}")
        try:
            # u v w [sigma]: a missing sigma reads "1"; zip drops it after a given one.
            for column, parse, token in zip(columns, (int, int, float, int), parts + ["1"]):
                column.append(parse(token))
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {ln!r}: {exc}") from exc
    return _checked_graph(n, *columns, mu, kappa)


def format_graph_text(g: WeightedGraph) -> str:
    head = "n {} mu {} kappa {}".format(
        g.n, " ".join(repr(m) for m in g.mu), " ".join(repr(k) for k in g.kappa)
    )
    body = "\n".join(f"{e.u} {e.v} {e.w!r} {e.sigma}" for e in g.edges)
    return head + "\n" + body + "\n"


def loads_graph(text: str) -> WeightedGraph:
    """Parse a graph from JSON or edge-list text.  Text that parses as JSON,
    or whose first non-blank character is `{`, `[` or `"`, is JSON; any
    other is an edge list, whose header of four or more tokens starting
    with `n` is never JSON."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        if text.lstrip()[:1] in ("{", "[", '"'):
            raise GraphFormatError(f"malformed JSON: {exc}") from exc
        return parse_graph_text(text)
    return from_json_dict(data)


def load_graph(path: str) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_graph(fh.read())


def dumps_graph(g: WeightedGraph) -> str:
    return json.dumps(to_json_dict(g), sort_keys=True)
