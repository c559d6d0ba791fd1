"""Weighted/signed graph data model, structural queries, products, generators.

Vertices are the contiguous integers 0..n-1.  A graph carries a positive
edge weight and a +/-1 sign per edge, a positive vertex measure `mu`, and a
real vertex potential `kappa`.  All types are immutable; every operation is
a pure function of its arguments.
"""

import heapq
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

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
    resolves the measure token.
    """

    n: int
    edges: tuple[Edge, ...]
    mu: tuple[float, ...]
    kappa: tuple[float, ...]

    @staticmethod
    def build(n: int, edges: Iterable, mu="degree", kappa=0.0) -> "WeightedGraph":
        """Construct a graph from loose edge tuples.

        `edges` holds (u, v, w) or (u, v, w, sigma) tuples; `mu` is a
        per-vertex sequence, the token "degree" (mu_i = weighted degree) or
        "unit" (mu == 1); `kappa` is a sequence or a scalar to broadcast.
        Vertex ids and signs must be integers (a float with a fraction
        raises ValueError rather than being truncated); semantic problems
        (self-loops, bad weights, ...) are left for :func:`validate` to
        report.
        """
        norm = []
        for e in edges:
            u, v, w = _integer(e[0], "vertex id"), _integer(e[1], "vertex id"), float(e[2])
            sigma = _integer(e[3], "sigma") if len(e) > 3 else 1
            if v < u:
                u, v = v, u
            norm.append(Edge(u, v, w, sigma))
        norm.sort(key=lambda e: (e.u, e.v))
        if isinstance(mu, str):
            if mu == "degree":
                d = [0.0] * max(n, 0)
                for e in norm:
                    if 0 <= e.u < n and 0 <= e.v < n:
                        d[e.u] += e.w
                        d[e.v] += e.w
                mu_t = tuple(d)
            elif mu == "unit":
                mu_t = tuple(1.0 for _ in range(n))
            else:
                raise ValueError(f"unknown measure token {mu!r}")
        else:
            mu_t = tuple(float(x) for x in mu)
        if isinstance(kappa, (int, float)):
            kappa_t = tuple(float(kappa) for _ in range(n))
        else:
            kappa_t = tuple(float(x) for x in kappa)
        return WeightedGraph(n=int(n), edges=tuple(norm), mu=mu_t, kappa=kappa_t)

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_signed(self) -> bool:
        return any(e.sigma < 0 for e in self.edges)

    def degrees(self) -> np.ndarray:
        """Weighted degrees d(i) = sum of incident edge weights (signs ignored)."""
        d = np.zeros(self.n)
        for e in self.edges:
            d[e.u] += e.w
            d[e.v] += e.w
        return d

    def adjacency(self, signed: bool = True) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for e in self.edges:
            val = e.w * e.sigma if signed else e.w
            a[e.u, e.v] = val
            a[e.v, e.u] = val
        return a

    def neighbors(self) -> list[list[tuple[int, float, int]]]:
        """Per-vertex list of (neighbor, weight, sigma)."""
        adj: list[list[tuple[int, float, int]]] = [[] for _ in range(self.n)]
        for e in self.edges:
            adj[e.u].append((e.v, e.w, e.sigma))
            adj[e.v].append((e.u, e.w, e.sigma))
        return adj

    def mu_is_degree(self, rtol: float = 1e-12) -> bool:
        d = self.degrees()
        mu = np.asarray(self.mu)
        return bool(np.all(np.abs(mu - d) <= rtol * np.maximum(1.0, np.abs(d))))

    def kappa_is_zero(self) -> bool:
        return all(k == 0.0 for k in self.kappa)


def _integer(x, field: str) -> int:
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{field} {x!r} is not an integer")
    return int(x)


@dataclass(frozen=True)
class GraphClassification:
    component_labels: tuple[int, ...]
    component_count: int
    is_connected: bool
    is_tree: bool
    is_bipartite: bool
    bipartition_labels: tuple[int, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "component_labels": list(self.component_labels),
            "component_count": self.component_count,
            "is_connected": self.is_connected,
            "is_tree": self.is_tree,
            "is_bipartite": self.is_bipartite,
            "bipartition_labels": None
            if self.bipartition_labels is None
            else list(self.bipartition_labels),
        }


@dataclass(frozen=True)
class DegreeProfile:
    d: tuple[float, ...]
    tau: float
    tau_min: float


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def validate(g: WeightedGraph) -> list[str]:
    """Return every invariant violation of `g`; empty list iff well-formed.

    The list is a fresh copy of the memoised verdict, so callers may
    mutate it.
    """
    return list(_problems(g))


def require_valid(g: WeightedGraph) -> None:
    problems = _problems(g)
    if problems:
        raise ValueError("invalid graph: " + "; ".join(problems))


# A graph cannot change after it is built, and one check run validates the
# same few graphs dozens of times in a row, so the verdict is memoised per
# graph.  The memo holds its graphs alive; a small one catches the repeats.
@lru_cache(maxsize=64)
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
        if not (0 <= e.u < g.n and 0 <= e.v < g.n):
            problems.append(f"edge ({e.u},{e.v}) endpoint out of range")
            continue
        if e.u == e.v:
            problems.append(f"self-loop at vertex {e.u}")
            continue
        key = (e.u, e.v)
        if key in seen:
            problems.append(f"duplicate edge ({e.u},{e.v})")
        seen.add(key)
        if not 0 < e.w < math.inf:
            kind = "nonpositive" if e.w <= 0 else "non-finite"
            problems.append(f"{kind} weight on edge ({e.u},{e.v})")
        if e.sigma not in (-1, 1):
            problems.append(f"sigma on edge ({e.u},{e.v}) must be +1 or -1")
        touched[e.u] = touched[e.v] = True
    for i, ok in enumerate(touched):
        if not ok:
            problems.append(f"isolated vertex {i}")
    for i, (m, kap) in enumerate(zip(g.mu[: g.n], g.kappa)):
        if not 0 < m < math.inf:
            kind = "nonpositive" if m <= 0 else "non-finite"
            problems.append(f"{kind} measure at vertex {i}")
        if not -math.inf < kap < math.inf:
            problems.append(f"non-finite kappa at vertex {i}")
    return tuple(problems)


def degree_profile(g: WeightedGraph) -> DegreeProfile:
    """Weighted degrees with tau = max d/mu and tau_min = min d/mu."""
    d = g.degrees()
    ratios = d / np.asarray(g.mu)
    return DegreeProfile(d=tuple(d), tau=float(ratios.max()), tau_min=float(ratios.min()))


def classify(g: WeightedGraph) -> GraphClassification:
    """Connected components (union-find) plus tree and bipartite flags."""
    uf = _UnionFind(g.n)
    for e in g.edges:
        uf.union(e.u, e.v)
    roots = [uf.find(i) for i in range(g.n)]
    order: dict[int, int] = {}
    labels = []
    for r in roots:
        if r not in order:
            order[r] = len(order)
        labels.append(order[r])
    c = len(order)
    connected = c == 1
    is_tree = connected and g.m == g.n - 1

    # 2-coloring by BFS, component-wise; first vertex of a component gets 0.
    color = [-1] * g.n
    adj = g.neighbors()
    bipartite = True
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue and bipartite:
            x = queue.pop()
            for y, _, _ in adj[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    bipartite = False
                    break
    return GraphClassification(
        component_labels=tuple(labels),
        component_count=c,
        is_connected=connected,
        is_tree=is_tree,
        is_bipartite=bipartite,
        bipartition_labels=tuple(color) if bipartite else None,
    )


def cyclomatic(g: WeightedGraph) -> int:
    """|E| - |V| + c; the number of independent cycles (0 for forests)."""
    return g.m - g.n + classify(g).component_count


def is_complete(g: WeightedGraph) -> bool:
    return g.m == g.n * (g.n - 1) // 2 and not validate(g)


def product(g1: WeightedGraph, g2: WeightedGraph) -> WeightedGraph:
    """Graph product on V1 x V2 with unit vertex measure.

    (x,y) ~ (x,y') with weight w2(y,y') and (x,y) ~ (x',y) with weight
    w1(x,x'); potentials add.  Vertex (x,y) maps to index x*n2 + y.
    Both factors must be unsigned with mu identically 1.
    """
    for g in (g1, g2):
        require_valid(g)
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

FAMILIES = (
    "gn",
    "path",
    "cycle",
    "star",
    "complete",
    "random_tree",
    "random_connected",
    "random_bipartite",
)


def _tree_from_pruefer(seq: list[int], n: int) -> list[tuple[int, int]]:
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


def _components_of(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    uf = _UnionFind(n)
    for u, v in edges:
        uf.union(u, v)
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(uf.find(i), []).append(i)
    return [comps[r] for r in sorted(comps)]


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

    Random families draw edge weights uniformly from [w_low, w_high]
    (default [0.5, 2.0]); deterministic families use unit weights unless a
    range is given.  `random_tree` and `random_connected` always return
    connected graphs; `random_bipartite` is 2-colorable with no isolated
    vertices.

    `w_low`, `w_high` and `a` must be finite and > 0, `p` finite in
    [0, 1]; a bad one, or a `gn` weight a^(n-1) that overflows, raises
    ValueError naming it.  The built graph is validated too: an explicit
    `mu` of the wrong length, say, raises ValueError "invalid graph: ...".
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    for name, value in (("w_low", w_low), ("w_high", w_high), ("a", a)):
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must be a finite number in [0, 1], got {p!r}")
    g = _generate(family, n, seed, a, p, w_low, w_high, mu)
    require_valid(g)
    return g


def _generate(family, n, seed, a, p, w_low, w_high, mu) -> WeightedGraph:
    rng = SplitMix64(seed)
    random_family = family.startswith("random_")
    if w_low is None and w_high is None:
        lo, hi = (0.5, 2.0) if random_family else (1.0, 1.0)
    else:
        lo = 1.0 if w_low is None else float(w_low)
        hi = lo if w_high is None else float(w_high)
    if hi < lo:
        raise ValueError("w_high must be >= w_low")

    def draw_w() -> float:
        return lo if hi == lo else lo + (hi - lo) * rng.uniform()

    if family == "gn":
        if n < 3:
            raise ValueError("gn family requires n >= 3")
        nv = 2 * n + 2
        # A float a^(n-1) overflows in **, an int one in build's float().
        try:
            edges = [(i, i + 1, a ** min(i, 2 * n - 1 - i)) for i in range(2 * n)]
            edges.append((0, 2 * n, 1.0))
            edges.append((n, 2 * n + 1, 1.0))
            return WeightedGraph.build(nv, edges, mu=mu)
        except OverflowError:
            raise ValueError(f"a = {a!r} makes the gn weight a^{n - 1} overflow") from None

    if family == "path":
        if n < 2:
            raise ValueError("path requires n >= 2")
        vb = [(i, i + 1, draw_w()) for i in range(n - 1)]
        return WeightedGraph.build(n, vb, mu=mu)

    if family == "cycle":
        if n < 3:
            raise ValueError("cycle requires n >= 3")
        vb = [(i, (i + 1) % n, draw_w()) for i in range(n)]
        return WeightedGraph.build(n, vb, mu=mu)

    if family == "star":
        if n < 2:
            raise ValueError("star requires n >= 2")
        vb = [(0, i, draw_w()) for i in range(1, n)]
        return WeightedGraph.build(n, vb, mu=mu)

    if family == "complete":
        if n < 2:
            raise ValueError("complete requires n >= 2")
        vb = [(i, j, draw_w()) for i in range(n) for j in range(i + 1, n)]
        return WeightedGraph.build(n, vb, mu=mu)

    if family == "random_tree":
        if n < 2:
            raise ValueError("random_tree requires n >= 2")
        if n == 2:
            skeleton = [(0, 1)]
        else:
            seq = [rng.randint(n) for _ in range(n - 2)]
            skeleton = _tree_from_pruefer(seq, n)
        skeleton = sorted((min(u, v), max(u, v)) for u, v in skeleton)
        return WeightedGraph.build(n, [(u, v, draw_w()) for u, v in skeleton], mu=mu)

    if family == "random_connected":
        if n < 2:
            raise ValueError("random_connected requires n >= 2")
        skel = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < p}
        comps = _components_of(n, sorted(skel))
        while len(comps) > 1:
            c = len(comps)
            if c == 2:
                super_edges = [(0, 1)]
            else:
                seq = [rng.randint(c) for _ in range(c - 2)]
                super_edges = _tree_from_pruefer(seq, c)
            for ci, cj in super_edges:
                u = comps[ci][rng.randint(len(comps[ci]))]
                v = comps[cj][rng.randint(len(comps[cj]))]
                skel.add((min(u, v), max(u, v)))
            comps = _components_of(n, sorted(skel))
        return WeightedGraph.build(n, [(u, v, draw_w()) for u, v in sorted(skel)], mu=mu)

    if family == "random_bipartite":
        if n < 2:
            raise ValueError("random_bipartite requires n >= 2")
        left = (n + 1) // 2
        skel = {
            (i, j) for i in range(left) for j in range(left, n) if rng.uniform() < p
        }
        touched = [False] * n
        for u, v in skel:
            touched[u] = touched[v] = True
        for v in range(n):
            if not touched[v]:
                if v < left:
                    u = left + rng.randint(n - left)
                    skel.add((v, u))
                    touched[u] = True
                else:
                    u = rng.randint(left)
                    skel.add((u, v))
                    touched[u] = True
                touched[v] = True
        return WeightedGraph.build(n, [(u, v, draw_w()) for u, v in sorted(skel)], mu=mu)

    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# serialization

class GraphFormatError(ValueError):
    pass


def _check_size(n: int, edges: list) -> None:
    # Building allocates O(n); a graph without isolated vertices has n <= 2|E|.
    if n > 2 * len(edges):
        raise GraphFormatError(
            f"n = {n} exceeds twice the edge count ({len(edges)}), so some vertex would be isolated"
        )


def to_json_dict(g: WeightedGraph) -> dict:
    """Canonical JSON form; sigma and kappa are emitted explicitly."""
    return {
        "n": g.n,
        "edges": [{"u": e.u, "v": e.v, "w": e.w, "sigma": e.sigma} for e in g.edges],
        "mu": list(g.mu),
        "kappa": list(g.kappa),
    }


def _checked(g: WeightedGraph) -> WeightedGraph:
    problems = _problems(g)
    if problems:
        raise GraphFormatError("; ".join(problems))
    return g


def from_json_dict(data: dict) -> WeightedGraph:
    """Graph from its JSON form; raises GraphFormatError if the data is
    malformed or the graph fails :func:`validate`."""
    try:
        n = int(data["n"])
        raw = data["edges"]
        edges = []
        for item in raw:
            edges.append(
                (item["u"], item["v"], item["w"], item.get("sigma", 1))
            )
        mu = data.get("mu", "degree")
        kappa = data.get("kappa", 0.0)
        _check_size(n, edges)
        g = WeightedGraph.build(n, edges, mu=mu, kappa=kappa)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise GraphFormatError(f"malformed graph JSON: {exc}") from exc
    return _checked(g)


def parse_graph_text(text: str) -> WeightedGraph:
    """Edge-list form: header `n <int> mu <degree|v0 v1 ...> [kappa v0 v1 ...]`,
    then `u v w [sigma]` lines.  kappa defaults to 0.  Raises
    GraphFormatError if the text is malformed or the graph fails
    :func:`validate`."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph file")
    header = lines[0].split()
    if len(header) < 4 or header[0] != "n" or header[2] != "mu":
        raise GraphFormatError("header must read: n <int> mu <degree|list> [kappa <list>]")
    mu_tokens = header[3:]
    kappa_tokens = None
    if "kappa" in mu_tokens:
        at = mu_tokens.index("kappa")
        mu_tokens, kappa_tokens = mu_tokens[:at], mu_tokens[at + 1 :]
    try:
        n = int(header[1])
        mu = "degree" if mu_tokens == ["degree"] else [float(x) for x in mu_tokens]
        kappa = 0.0 if kappa_tokens is None else [float(x) for x in kappa_tokens]
    except ValueError as exc:
        raise GraphFormatError(f"bad header: {exc}") from exc
    if mu != "degree" and len(mu) != n:
        raise GraphFormatError(f"mu list has {len(mu)} entries, expected {n}")
    if kappa_tokens is not None and len(kappa) != n:
        raise GraphFormatError(f"kappa list has {len(kappa)} entries, expected {n}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (3, 4):
            raise GraphFormatError(f"bad edge line: {ln!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
            sigma = int(parts[3]) if len(parts) == 4 else 1
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {ln!r}: {exc}") from exc
        edges.append((u, v, w, sigma))
    _check_size(n, edges)
    return _checked(WeightedGraph.build(n, edges, mu=mu, kappa=kappa))


def format_graph_text(g: WeightedGraph) -> str:
    head = "n {} mu {} kappa {}".format(
        g.n, " ".join(repr(m) for m in g.mu), " ".join(repr(k) for k in g.kappa)
    )
    body = "\n".join(f"{e.u} {e.v} {e.w!r} {e.sigma}" for e in g.edges)
    return head + "\n" + body + "\n"


def loads_graph(text: str) -> WeightedGraph:
    """Parse a graph from JSON or edge-list text (sniffed from the first char)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"malformed JSON: {exc}") from exc
        return from_json_dict(data)
    return parse_graph_text(text)


def load_graph(path: str) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_graph(fh.read())


def dumps_graph(g: WeightedGraph) -> str:
    return json.dumps(to_json_dict(g), sort_keys=True)
