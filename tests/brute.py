"""Independent oracles for the test suite.

Naive enumeration of k-way (signed) Cheeger constants over all (k+1)^n
resp. (2k+1)^n label assignments, the signed one regrouped over unions
(each split chosen on its own), the int64-shift Phi table, the signed
split table scored split by split through beta_signed, the per-edge cut,
measure and split passes over membership rows, and the textbook
pure-Python loops of the subset DP behind the profile engines, the
packing DP restricted to minimal parts (a second exact algorithm with its
own pair layout, for sizes the loops cannot reach), the numpy
column-then-row Jacobi rotation loop behind the eigensolver, the numpy
nodal decompositions and the conductance-per-level-set nodal sweep, the
closed-form magnetic Hessian whose Morse index is the nodal surplus, the
per-edge weighted degrees, adjacency, normalized Laplacian and normalized
adjacency, the search-based 2-colouring behind `classify`, the signed
double cover and relabelled disjoint unions, and closed-form spectra of
the standard families.  The enumeration is
independent of the package's DP; per-set scores go through the same
canonical accumulation order as the library so that agreement can be
asserted exactly.
"""

import math

import numpy as np

from cheegerlab import JacobiConvergenceError, WeightedGraph
from cheegerlab.cheeger import PartitionCertificate, _parts_from_masks, beta_signed, conductance
from cheegerlab.graph import GraphClassification
from cheegerlab.nodal import NodalDecomposition


def naive_rho(g: WeightedGraph, k: int, chunk: int = 1 << 18) -> float:
    """min over all label assignments V -> {0..k} of max_i Phi(A_i).

    Assignments with an empty part score +inf (their part mask is 0 and
    shift_phi_array(g)[0] = inf), so they drop out of the minimum
    automatically.  The Phi table is this module's own, so a fault in the
    library's table does not reach the enumeration.
    """
    n = g.n
    phi = shift_phi_array(g)
    base = k + 1
    total = base**n
    powers = base ** np.arange(n, dtype=np.int64)
    bits = 1 << np.arange(n, dtype=np.int64)
    best = math.inf
    for start in range(0, total, chunk):
        idx = np.arange(start, min(total, start + chunk), dtype=np.int64)
        labels = (idx[:, None] // powers) % base
        worst = np.full(len(idx), -math.inf)
        for part in range(1, k + 1):
            masks = ((labels == part) * bits).sum(axis=1)
            worst = np.maximum(worst, phi[masks])
        m = float(worst.min())
        if m < best:
            best = m
    return best


def naive_rho_signed(g: WeightedGraph, k: int, chunk: int = 1 << 18) -> float:
    """min over all assignments V -> {0} u {(pair, side)} of max_i beta_i.

    Label 2i-1 is side 1 of pair i, label 2i side 2.  Pairs with empty
    union score +inf.  Per-pair beta accumulates edge terms in canonical
    edge order and the measure in ascending vertex order, mirroring the
    library's scalar evaluation bit for bit.
    """
    n = g.n
    base = 2 * k + 1
    total = base**n
    powers = base ** np.arange(n, dtype=np.int64)
    mu = [float(x) for x in g.mu]
    best = math.inf
    for start in range(0, total, chunk):
        idx = np.arange(start, min(total, start + chunk), dtype=np.int64)
        labels = (idx[:, None] // powers) % base
        rows = len(idx)
        worst = np.full(rows, -math.inf)
        for pair in range(1, k + 1):
            in1 = labels == 2 * pair - 1
            in2 = labels == 2 * pair
            ep = np.zeros(rows)
            em = np.zeros(rows)
            bnd = np.zeros(rows)
            for e in g.edges:
                a1, b1 = in1[:, e.u], in1[:, e.v]
                a2, b2 = in2[:, e.u], in2[:, e.v]
                if e.sigma > 0:
                    ep = ep + e.w * ((a1 & b2) | (a2 & b1))
                else:
                    em = em + (2.0 * e.w) * ((a1 & b1) | (a2 & b2))
                bnd = bnd + e.w * ((a1 | a2) ^ (b1 | b2))
            mu_u = np.zeros(rows)
            for v in range(n):
                mu_u = mu_u + mu[v] * (in1[:, v] | in2[:, v])
            num = 2.0 * ep + em + bnd
            with np.errstate(divide="ignore", invalid="ignore"):
                val = np.where(mu_u == 0.0, math.inf, num / mu_u)
            worst = np.maximum(worst, val)
        m = float(worst.min())
        if m < best:
            best = m
    return best


def regrouped_rho_signed(g: WeightedGraph, kmax: int) -> list[float]:
    """rho^sigma_k for k = 1..kmax: naive_rho_signed's minimum, regrouped.

    Each pair's split (V1, V2) is chosen independently of the other pairs,
    so the minimum over labelings equals the least max bmin over unordered
    k-tuples of disjoint nonempty unions, where bmin[U] is the least
    beta_signed over the splits of U.  bmin is built once per graph
    (beta_split_tables: beta is symmetric in V1, V2 bit for bit, so V1
    holding U's lowest vertex loses no split).  The tuples are enumerated
    one by one, with no table: the lowest vertex still free is left out,
    or starts the next union.  min and max round nothing, so the result
    does not depend on the order of enumeration.
    """
    bmin = beta_split_tables(g)[0]

    def least(free: int, j: int) -> float:
        if j == 0:
            return -math.inf
        if free.bit_count() < j:
            return math.inf
        v = free & -free
        rest = free ^ v
        out = least(rest, j)
        sub = rest
        while True:
            out = min(out, max(bmin[sub | v], least(rest ^ sub, j - 1)))
            if sub == 0:
                return out
            sub = (sub - 1) & rest

    return [least((1 << g.n) - 1, k) for k in range(1, kmax + 1)]


def complete_spectrum(n: int) -> list[float]:
    return [0.0] + [n / (n - 1)] * (n - 1)


def cycle_spectrum(n: int) -> list[float]:
    return sorted(1.0 - math.cos(2.0 * math.pi * j / n) for j in range(n))


def path_spectrum(n: int) -> list[float]:
    return sorted(1.0 - math.cos(math.pi * j / (n - 1)) for j in range(n))


def star_spectrum(n: int) -> list[float]:
    return [0.0] + [1.0] * (n - 2) + [2.0]


# ---------------------------------------------------------------------------
# Phi by int64 shifts (the reference for the membership-table kernel)

def shift_phi_array(g: WeightedGraph) -> np.ndarray:
    """Phi of every vertex subset by bitmask, each indicator a shift of the
    mask index; entry 0 is +inf."""
    n = g.n
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    cut = np.zeros(size)
    for e in g.edges:
        cut += e.w * (((idx >> e.u) ^ (idx >> e.v)) & 1)
    mu_sum = np.zeros(size)
    for v in range(n):
        mu_sum += g.mu[v] * ((idx >> v) & 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = cut / mu_sum
    phi[0] = math.inf
    return phi


# ---------------------------------------------------------------------------
# per-edge subset tables (the references for the edge-vectorised passes)

def _membership(n: int) -> np.ndarray:
    bits = np.zeros((n, 1 << n), dtype=bool)
    for v in range(n):
        bits[v].reshape(-1, 2, 1 << v)[:, 1] = True
    return bits


def loop_cut_and_measure(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(cut, measure) of every vertex subset by bitmask, one full-length
    pass per edge in stored-edge order and per vertex in ascending order,
    each adding its weight times a membership row into a running sum."""
    n = g.n
    bits = _membership(n)
    size = 1 << n
    cross = np.empty(size, dtype=bool)
    term = np.empty(size)
    cut = np.zeros(size)
    for e in g.edges:
        np.not_equal(bits[e.u], bits[e.v], out=cross)
        np.multiply(cross, e.w, out=term)
        cut += term
    mu_sum = np.zeros(size)
    for v in range(n):
        np.multiply(bits[v], g.mu[v], out=term)
        mu_sum += term
    return cut, mu_sum


def _row_segments(masks: np.ndarray, p: int) -> np.ndarray:
    """The segments of masks of popcount p as rows: row i holds masks[i]'s
    parts (its lowest vertex joined with every submask of the rest), in
    descending order."""
    width = 1 << (p - 1)
    parts = np.empty((len(masks), width), dtype=np.int64)
    low = masks & -masks
    parts[:, -1] = low
    left = masks ^ low
    w = 1
    while w < width:
        bit = left & -left
        np.bitwise_or(parts[:, width - w :], bit[:, None], out=parts[:, width - 2 * w : width - w])
        left = left ^ bit
        w *= 2
    return parts


def loop_split_tables(g: WeightedGraph, chunk: int = 1 << 13) -> tuple[np.ndarray, np.ndarray]:
    """(betamin, split) per union mask, by the per-edge split pass: for each
    popcount group, in ranges of masks of about `chunk` pairs, every edge
    adds its term over every pair (V1, V2) in stored-edge order, with
    membership gathered from the membership rows; among equal splits the
    first in descending scan order is kept."""
    n = g.n
    size = 1 << n
    bits = _membership(n)
    bnd, mu_u = loop_cut_and_measure(g)
    popcount = bits.sum(axis=0)
    betamin = np.full(size, math.inf)
    split = np.zeros(size, dtype=np.int64)
    for p in range(1, n + 1):
        group = np.flatnonzero(popcount == p)
        step = max(1, chunk >> (p - 1))
        for lo in range(0, len(group), step):
            masks = group[lo : lo + step]
            m1 = _row_segments(masks, p)
            m2 = masks[:, None] ^ m1
            in1 = bits[:, m1]
            in2 = bits[:, m2]
            ep = np.zeros(m1.shape)
            em = np.zeros(m1.shape)
            for e in g.edges:
                if e.sigma > 0:
                    hit = (in1[e.u] & in2[e.v]) | (in2[e.u] & in1[e.v])
                    ep += hit * e.w
                else:
                    hit = (in1[e.u] & in1[e.v]) | (in2[e.u] & in2[e.v])
                    em += hit * (2.0 * e.w)
            beta = (2.0 * ep + em + bnd[masks][:, None]) / mu_u[masks][:, None]
            first = beta.argmin(axis=1)
            rows = np.arange(len(masks))
            betamin[masks] = beta[rows, first]
            split[masks] = m1[rows, first]
    return betamin, split


def order_visible_graph(n: int) -> WeightedGraph:
    """K_n with weights 1e16, 1.0, 1.0, 1.0, ... repeating in stored-edge
    order: a sum of its edge terms loses the 1.0s that follow a 1e16 one by
    one, but keeps them when they are added to each other first, so any
    summation order other than the sequential one changes the bits."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return WeightedGraph.build(n, [(u, v, 1e16 if i % 4 == 0 else 1.0) for i, (u, v) in enumerate(edges)])


# ---------------------------------------------------------------------------
# weighted degrees, the normalized Laplacian and the normalized adjacency
# (references for graph.py, normalized_laplacian_sym and adjacency_eta)

def loop_degrees(g: WeightedGraph) -> list[float]:
    """d(i) as Python floats: each edge's weight added to both ends, one
    edge at a time in stored-edge order."""
    d = [0.0] * g.n
    for e in g.edges:
        d[e.u] += e.w
        d[e.v] += e.w
    return d


def loop_adjacency(g: WeightedGraph) -> np.ndarray:
    """The signed adjacency matrix, one edge at a time: sigma_uv w_uv on
    each edge, 0.0 elsewhere."""
    mat = np.zeros((g.n, g.n))
    for e in g.edges:
        mat[e.u, e.v] = mat[e.v, e.u] = e.w * e.sigma
    return mat


def loop_normalized_laplacian_sym(g: WeightedGraph) -> np.ndarray:
    """M^{-1/2} (D + K - A^sigma) M^{-1/2}, one edge at a time: the
    per-edge builder that normalized_laplacian_sym vectorizes."""
    d = g.degrees()
    mu = np.asarray(g.mu)
    mat = np.zeros((g.n, g.n))
    np.fill_diagonal(mat, (d + np.asarray(g.kappa)) / mu)
    for e in g.edges:
        val = -e.sigma * e.w / math.sqrt(g.mu[e.u] * g.mu[e.v])
        mat[e.u, e.v] = val
        mat[e.v, e.u] = val
    return mat


def loop_normalized_adjacency(g: WeightedGraph) -> np.ndarray:
    """M^{-1/2} A M^{-1/2} of an unsigned graph, entry by entry:
    w_uv / sqrt(mu_u mu_v) on each edge, 0.0 elsewhere."""
    mat = np.zeros((g.n, g.n))
    for e in g.edges:
        mat[e.u, e.v] = mat[e.v, e.u] = e.w / math.sqrt(g.mu[e.u] * g.mu[e.v])
    return mat


# ---------------------------------------------------------------------------
# the magnetic Hessian (the spectral reference for the nodal counts)

def cotree_edges(g: WeightedGraph) -> list[int]:
    """Indices of the edges that close a cycle, in stored order: each joins
    two vertices that the edges before it already connect (by union-find).
    There are cyclomatic(g) of them."""
    parent = list(range(g.n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for j, e in enumerate(g.edges):
        a, b = root(e.u), root(e.v)
        if a == b:
            out.append(j)
        else:
            parent[a] = b
    return out


def magnetic_hessians(g: WeightedGraph) -> list[tuple[np.ndarray, np.ndarray]]:
    """(f, H) for k = 1..n: f = g_k, the k-th orthonormal eigenvector of the
    symmetric normalized Laplacian L, and H the Hessian at alpha = 0 of
    lambda_k under a magnetic flux alpha_j on each cotree edge j.

    In closed form (second-order perturbation theory; Berkolaiko 2013,
    Colin de Verdiere 2013), for cotree edges j = uv with c = L_uv and
    b_jm = c (f_u g_m(v) - f_v g_m(u)):
    H_jl = delta_jl (-2 c f_u f_v) + 2 sum_{m != k} b_jm b_lm / (lambda_k - lambda_m).
    For a simple lambda_k with a zero-free f, the number of negative
    eigenvalues of H is the nodal surplus phi_k - (k - 1), where phi_k
    counts the edges with sigma f_u f_v < 0.
    """
    lap = loop_normalized_laplacian_sym(g)
    lam, vec = np.linalg.eigh(lap)
    cotree = [g.edges[j] for j in cotree_edges(g)]
    u = np.array([e.u for e in cotree], dtype=np.intp)
    v = np.array([e.v for e in cotree], dtype=np.intp)
    c = lap[u, v]
    out = []
    for k in range(g.n):
        f = vec[:, k]
        b = c[:, None] * (f[u, None] * vec[v] - f[v, None] * vec[u])
        others = np.arange(g.n) != k
        hess = 2.0 * (b[:, others] / (lam[k] - lam[others])) @ b[:, others].T
        hess[np.diag_indices(len(cotree))] -= 2.0 * c * f[u] * f[v]
        out.append((f, hess))
    return out


# ---------------------------------------------------------------------------
# the 2-colouring search, disjoint unions and the signed double cover
# (references for graph.classify and for the signed paths)

def search_classify(g: WeightedGraph) -> GraphClassification:
    """Components and a 2-colouring by one depth-first search from each
    vertex not yet reached, in ascending order: a component's label is its
    order of discovery (so components are numbered by smallest vertex), its
    smallest vertex gets colour 0 and every neighbour the other colour; an
    edge between two vertices of one colour makes g non-bipartite."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for e in g.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    label = [-1] * g.n
    color = [-1] * g.n
    bipartite = True
    count = 0
    for start in range(g.n):
        if label[start] != -1:
            continue
        label[start], color[start] = count, 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if label[y] == -1:
                    label[y], color[y] = count, 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    bipartite = False
        count += 1
    connected = count == 1
    return GraphClassification(
        component_labels=tuple(label),
        component_count=count,
        is_connected=connected,
        is_tree=connected and g.m == g.n - 1,
        is_bipartite=bipartite,
        bipartition_labels=tuple(color) if bipartite else None,
    )


def disjoint_union(pieces, perm) -> WeightedGraph:
    """The disjoint union of the graphs `pieces`, vertex j of their
    concatenation relabelled perm[j]; every edge keeps its weight and sign
    and every vertex its measure and kappa."""
    n = sum(h.n for h in pieces)
    edges, mu, kappa, base = [], [0.0] * n, [0.0] * n, 0
    for h in pieces:
        edges += [(perm[base + u], perm[base + v], w, sigma) for u, v, w, sigma in h.edges]
        for x in range(h.n):
            mu[perm[base + x]], kappa[perm[base + x]] = h.mu[x], h.kappa[x]
        base += h.n
    return WeightedGraph.build(n, edges, mu=mu, kappa=kappa)


def double_cover(g: WeightedGraph) -> WeightedGraph:
    """The signed double cover of g, an unsigned graph on 2n vertices:
    vertex x has copies x+ = x and x- = x + n; a positive edge xy gives
    x+y+ and x-y-, a negative one x+y- and x-y+, each with xy's weight; mu
    and kappa are copied to both copies.  The cover of the all-negative
    signing of g is its bipartite double cover."""
    n = g.n
    edges = []
    for u, v, w, sigma in g.edges:
        if sigma > 0:
            edges += [(u, v, w), (u + n, v + n, w)]
        else:
            edges += [(u, v + n, w), (u + n, v, w)]
    return WeightedGraph.build(2 * n, edges, mu=list(g.mu) * 2, kappa=list(g.kappa) * 2)


# ---------------------------------------------------------------------------
# textbook loops of the profile DPs (the reference for the numpy engine)

def _popcounts(size: int) -> list[int]:
    pc = [0] * size
    for m in range(1, size):
        pc[m] = pc[m >> 1] + (m & 1)
    return pc


def loop_packing_dp(score, n: int, kmax: int):
    """min over j disjoint nonempty subsets of max score, for every j <= kmax.

    Returns (dp tables, choice tables, inner-iteration count); dp[j][mask]
    restricts all parts to live inside `mask`.  choice[j][mask] is 0 when
    the mask's lowest vertex stays out, else the part holding it.
    """
    score = list(score)
    size = 1 << n
    pc = _popcounts(size)
    neg = -math.inf
    pos = math.inf
    dp_all: list[list[float]] = [[neg] * size]
    choice_all: list[list[int]] = [[0] * size]
    states = 0
    for j in range(1, kmax + 1):
        dp_prev = dp_all[j - 1]
        dp = [pos] * size
        choice = [0] * size
        for mask in range(1, size):
            if pc[mask] < j:
                continue
            v = mask & -mask
            rest = mask ^ v
            best = dp[rest]
            ch = 0
            sub = rest
            while True:
                a = sub | v
                prev = dp_prev[mask ^ a]
                sa = score[a]
                cand = sa if sa > prev else prev
                if cand < best:
                    best = cand
                    ch = a
                states += 1
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            dp[mask] = best
            choice[mask] = ch
        dp_all.append(dp)
        choice_all.append(choice)
    return dp_all, choice_all, states


def loop_reconstruct(choice_all, k: int, full: int) -> list[int]:
    parts = []
    mask = full
    j = k
    while j > 0:
        if mask == 0:
            raise AssertionError("packing reconstruction ran out of vertices")
        ch = choice_all[j][mask]
        if ch == 0:
            mask ^= mask & -mask
        else:
            parts.append(ch)
            mask ^= ch
            j -= 1
    return parts


def beta_split_tables(g: WeightedGraph) -> tuple[list[float], list[int]]:
    """(betamin, split) per union mask U: the least beta_signed(g, V1, V2)
    over the splits of U with V1 holding U's lowest vertex, V1 running over
    U's submasks in descending order, and the first V1 attaining it."""
    n = g.n
    size = 1 << n
    members = [[v for v in range(n) if (mask >> v) & 1] for mask in range(size)]
    betamin = [math.inf] * size
    split = [0] * size
    for umask in range(1, size):
        v0 = umask & -umask
        rest = umask ^ v0
        sub = rest
        while True:
            m1 = sub | v0
            beta = beta_signed(g, members[m1], members[umask ^ m1])
            if beta < betamin[umask]:
                betamin[umask] = beta
                split[umask] = m1
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return betamin, split


# ---------------------------------------------------------------------------
# numpy Jacobi rotation loop: the bit-for-bit reference for the values of
# spectral.eig_sym, and an independent reference for the LAPACK eigenfunctions

def _loop_norm(entries: np.ndarray) -> float:
    """Euclidean norm of `entries`: the square root of the exactly rounded
    sum of their squares; where that overflows and the entries are finite,
    s * sqrt(fsum((x/s)^2)) for the largest |x| = s."""
    xs = entries.ravel().tolist()
    try:
        norm = math.sqrt(math.fsum(x * x for x in xs))
    except OverflowError:
        norm = math.inf
    if norm == math.inf and math.isfinite(s := max(map(abs, xs))):
        return s * math.sqrt(math.fsum((x / s) * (x / s) for x in xs))
    return norm


def _loop_off_norm(a: np.ndarray) -> float:
    return _loop_norm(a[~np.eye(len(a), dtype=bool)])


def loop_eig_sym(m: np.ndarray, max_sweeps: int = 64, off_diag_tol: float = 1e-12):
    """Cyclic Jacobi with each rotation applied to numpy column slices p, q
    and then to row slices p, q.  Before each sweep it stops once the
    off-diagonal norm is at most `off_diag_tol` times the input's
    Frobenius norm, and after `max_sweeps` sweeps it raises
    JacobiConvergenceError.  Raises AssertionError if a rotation ever
    leaves the iterate not exactly symmetric, the invariant the row-list
    solver in the library relies on."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    n = a.shape[0]
    v = np.eye(n)
    threshold = off_diag_tol * _loop_norm(a)
    converged = n < 2
    sweeps = 0
    while not converged and sweeps < max_sweeps:
        if _loop_off_norm(a) <= threshold:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if 100.0 * abs(apq) + abs(diff) == abs(diff):
                    t = apq / diff  # asymptotic tangent; avoids overflow in theta
                else:
                    theta = diff / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                if not np.array_equal(a, a.T):
                    raise AssertionError(f"rotation ({p},{q}) broke exact symmetry")
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        sweeps += 1
    if not converged and _loop_off_norm(a) > threshold:
        raise JacobiConvergenceError(_loop_off_norm(a), threshold, sweeps)

    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = v[:, order]
    for j in range(n):
        col = vectors[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0:
            vectors[:, j] = -col
    return values, vectors


# ---------------------------------------------------------------------------
# numpy nodal decompositions and the conductance-per-level-set sweep (the
# bit-for-bit references for cheegerlab.nodal and rho_upper_nodal_sweep)

def loop_rounded_signs(f, zero_tol: float | None) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if zero_tol is None:
        zero_tol = 1e-10 * float(np.max(np.abs(f))) if f.size else 0.0
    if zero_tol < 0:
        raise ValueError("zero_tol must be >= 0")
    signs = np.sign(f).astype(int)
    signs[np.abs(f) <= zero_tol] = 0
    return signs


def loop_strong_nodal(g: WeightedGraph, f, zero_tol: float | None = None) -> NodalDecomposition:
    """Strong domains by one depth-first search from each vertex of nonzero
    sign not yet reached, in ascending order (so domains are numbered by
    smallest vertex), over the edges with sigma s_u s_v > 0; a vertex of
    sign 0 keeps label -1."""
    if len(f) != g.n:
        raise ValueError("function length must equal vertex count")
    s = loop_rounded_signs(f, zero_tol)
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for e in g.edges:
        if e.sigma * s[e.u] * s[e.v] > 0:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
    label = [-1] * g.n
    count = 0
    for start in range(g.n):
        if s[start] == 0 or label[start] != -1:
            continue
        label[start] = count
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if label[y] == -1:
                    label[y] = count
                    stack.append(y)
        count += 1
    return NodalDecomposition(labels=tuple(label), count=count)


def loop_nodal_sweep(g: WeightedGraph, f, zero_tol: float | None = None) -> PartitionCertificate:
    """The sweep scoring every level set through conductance()."""
    if g.is_signed():
        raise ValueError("nodal sweep is defined for unsigned graphs")
    decomposition = loop_strong_nodal(g, f, zero_tol)
    m = decomposition.count
    if m == 0:
        raise ValueError("function is identically zero (after zero rounding)")
    absf = np.abs(np.asarray(f, dtype=float))
    parts = []
    part_values = []
    for domain in decomposition.domains():
        thresholds = sorted({float(absf[x]) for x in domain})
        best_phi = math.inf
        best_set: tuple[int, ...] = ()
        for t in thresholds:
            level = tuple(x for x in domain if absf[x] >= t)
            val = conductance(g, level)
            if val < best_phi:
                best_phi = val
                best_set = level
        parts.append(best_set)
        part_values.append(best_phi)
    return PartitionCertificate(
        k=m,
        value=max(part_values),
        parts=tuple(sorted(parts)),
        signed=False,
        exact=False,
        states=0,
    )


# ---------------------------------------------------------------------------
# the packing DP over minimal parts (a second exact algorithm)

def minimal_parts(phi: np.ndarray, n: int) -> np.ndarray:
    """The masks A whose entry phi[A] is strictly below that of every proper
    nonempty subset: phi[A] < min over v in A of L1(A - v), where L1 is the
    least entry over the nonempty submasks (inf at the empty mask)."""
    l1 = phi.copy()
    for v in range(n):
        halves = l1.reshape(-1, 2, 1 << v)
        np.minimum(halves[:, 1], halves[:, 0], out=halves[:, 1])
    below = np.full(1 << n, math.inf)
    for v in range(n):
        with_v = below.reshape(-1, 2, 1 << v)[:, 1]
        np.minimum(with_v, l1.reshape(-1, 2, 1 << v)[:, 0], out=with_v)
    return np.flatnonzero(phi < below)


def minimal_packing_profile(g: WeightedGraph) -> list[PartitionCertificate]:
    """rho_1..rho_n of an unsigned g by the packing DP restricted to
    minimal parts, each with the parts its walk back from V takes.

    Swapping a part for a subset whose Phi is not larger keeps a packing
    disjoint and its max Phi from rising, so every packing inside a mask M
    has a packing of minimal parts that is no worse: the DP over minimal
    parts gives the same value at every mask, bit for bit.  Its pairs are
    (M, a) for each minimal a and each M = a + R, R a submask of free(a),
    the vertices above a's lowest that a leaves out, sorted by popcount of
    M and then M: each M's pairs are one segment, and level j reads the
    suffix of pairs with |M| >= j.  Level j is the segment min of
    max(Phi(a), dp[j-1][M - a]), closed by dp[j][M] = min(that,
    dp[j][M - low(M)]) from the highest lowest vertex down; dp[0] = -inf,
    so level 1 is the least Phi over the minimal submasks.  Phi is the
    int64-shift table.
    """
    n = g.n
    full = (1 << n) - 1
    phi = shift_phi_array(g)
    popcount = np.array([x.bit_count() for x in range(1 << n)])
    minimal = minimal_parts(phi, n)
    free = (full ^ minimal) & ~((minimal & -minimal) * 2 - 1)
    width = popcount[free]
    pair_masks, pair_parts = [], []
    for f in range(n):
        a, left = minimal[width == f], free[width == f]
        subs = np.zeros((len(a), 1 << f), dtype=np.int64)
        w = 1
        while w < 1 << f:
            bit = left & -left
            np.bitwise_or(subs[:, :w], bit[:, None], out=subs[:, w : 2 * w])
            left = left ^ bit
            w *= 2
        pair_masks.append((subs | a[:, None]).ravel())
        pair_parts.append(np.repeat(a, 1 << f))
    m, a = np.concatenate(pair_masks), np.concatenate(pair_parts)
    key = (popcount[m] << n) | m
    order = np.argsort(key, kind="stable")
    key, m, a = key[order], m[order], a[order]
    rest, score = m ^ a, phi[a]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    dp = [np.full(1 << n, -math.inf)]
    for j in range(1, n + 1):
        s = int(np.searchsorted(key, j << n))
        t = int(np.searchsorted(starts, s))
        cand = np.maximum(score[s:], dp[j - 1][rest[s:]])
        level = np.full(1 << n, math.inf)
        level[m[starts[t:]]] = np.minimum.reduceat(cand, starts[t:] - s)
        # Row r of width 2^(v+1) holds the mask with lowest vertex v at
        # column 2^v and, at column 0, that mask less v, already closed.
        for v in range(n - 1, -1, -1):
            rows = level.reshape(-1, 2 << v)
            np.minimum(rows[:, 1 << v], rows[:, 0], out=rows[:, 1 << v])
        dp.append(level)
    certs = []
    for k in range(1, n + 1):
        mask, j, taken = full, k, []
        while j > 0:
            low = mask & -mask
            if dp[j][mask ^ low] == dp[j][mask]:
                mask ^= low
                continue
            at = (mask.bit_count() << n) | mask
            lo, hi = np.searchsorted(key, [at, at + 1])
            cand = np.maximum(score[lo:hi], dp[j - 1][rest[lo:hi]])
            pick = lo + int(np.flatnonzero(cand == dp[j][mask])[0])
            taken.append(int(a[pick]))
            mask, j = int(rest[pick]), j - 1
        parts = _parts_from_masks(sorted(taken, key=lambda x: x & -x))
        certs.append(PartitionCertificate(k=k, value=float(dp[k][full]), parts=parts))
    return certs
