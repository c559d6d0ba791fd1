"""Independent oracles for the test suite.

Naive unpruned enumeration of k-way (signed) Cheeger constants over all
(k+1)^n resp. (2k+1)^n label assignments, the textbook pure-Python loops
of the subset DP behind the profile engines, the numpy column-then-row
Jacobi rotation loop behind the eigensolver, the numpy nodal
decompositions and the conductance-per-level-set nodal sweep, and
closed-form spectra of the standard families.  The enumeration is
independent of the package's search logic; per-set scores go through the
same canonical accumulation order as the library so that agreement can be
asserted exactly.
"""

import math

import numpy as np

from cheegerlab import EigenOptions, JacobiConvergenceError, WeightedGraph
from cheegerlab.cheeger import PartitionCertificate, SweepResult, conductance, phi_table
from cheegerlab.graph import require_valid
from cheegerlab.nodal import NodalDecomposition, _component_labels


def naive_rho(g: WeightedGraph, k: int, chunk: int = 1 << 18) -> float:
    """min over all label assignments V -> {0..k} of max_i Phi(A_i).

    Assignments with an empty part score +inf (their part mask is 0 and
    phi_table[0] = inf), so they drop out of the minimum automatically.
    """
    n = g.n
    phi = np.asarray(phi_table(g))
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


def complete_spectrum(n: int) -> list[float]:
    return [0.0] + [n / (n - 1)] * (n - 1)


def cycle_spectrum(n: int) -> list[float]:
    return sorted(1.0 - math.cos(2.0 * math.pi * j / n) for j in range(n))


def path_spectrum(n: int) -> list[float]:
    return sorted(1.0 - math.cos(math.pi * j / (n - 1)) for j in range(n))


def star_spectrum(n: int) -> list[float]:
    return [0.0] + [1.0] * (n - 2) + [2.0]


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


def loop_signed_tables(g: WeightedGraph) -> tuple[list[float], list[int]]:
    """(betamin, split) per union mask: the least beta over splits (V1, V2)
    with V1 holding the union's lowest vertex, and the first V1 attaining it."""
    n = g.n
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    wplus = []
    wminus = []
    wall = []
    for v in range(n):
        ap = np.zeros(size)
        am = np.zeros(size)
        aa = np.zeros(size)
        for e in g.edges:
            if e.u == v or e.v == v:
                u = e.v if e.u == v else e.u
                ind = (idx >> u) & 1
                aa += e.w * ind
                if e.sigma > 0:
                    ap += e.w * ind
                else:
                    am += e.w * ind
        wplus.append(ap.tolist())
        wminus.append(am.tolist())
        wall.append(aa.tolist())
    mu = list(g.mu)
    deg = g.degrees().tolist()

    betamin = [math.inf] * size
    split = [0] * size
    for umask in range(1, size):
        members = [v for v in range(n) if (umask >> v) & 1]
        mu_u = 0.0
        bnd = 0.0
        for v in members:
            mu_u += mu[v]
            bnd += deg[v] - wall[v][umask]
        v0 = umask & -umask
        rest = umask ^ v0
        best = math.inf
        best_split = 0
        sub = rest
        while True:
            m1 = sub | v0
            m2 = umask ^ m1
            ep = 0.0
            em = 0.0
            for v in members:
                if (m1 >> v) & 1:
                    ep += wplus[v][m2]
                    em += wminus[v][m1]
                else:
                    em += wminus[v][m2]
            beta = (2.0 * ep + em + bnd) / mu_u
            if beta < best:
                best = beta
                best_split = m1
            if sub == 0:
                break
            sub = (sub - 1) & rest
        betamin[umask] = best
        split[umask] = best_split
    return betamin, split


# ---------------------------------------------------------------------------
# numpy Jacobi rotation loop: the bit-for-bit reference for the values of
# spectral.eig_sym, and an independent reference for the LAPACK eigenfunctions

def _loop_off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def loop_eig_sym(m: np.ndarray, opts: EigenOptions = EigenOptions()):
    """Cyclic Jacobi with each rotation applied to numpy column slices p, q
    and then to row slices p, q.  Raises AssertionError if a rotation ever
    leaves the iterate not exactly symmetric, the invariant the row-list
    solver in the library relies on."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    n = a.shape[0]
    v = np.eye(n)
    threshold = opts.off_diag_tol * float(np.linalg.norm(a))
    converged = n < 2
    sweeps = 0
    while not converged and sweeps < opts.max_sweeps:
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
    if len(f) != g.n:
        raise ValueError("function length must equal vertex count")
    s = loop_rounded_signs(f, zero_tol)
    keep = s != 0
    edges = [
        (e.u, e.v)
        for e in g.edges
        if keep[e.u] and keep[e.v] and e.sigma * s[e.u] * s[e.v] > 0
    ]
    labels, count = _component_labels(g.n, keep, edges)
    return NodalDecomposition(kind="strong", labels=labels, count=count)


def loop_weak_nodal(g: WeightedGraph, f, zero_tol: float | None = None) -> NodalDecomposition:
    if len(f) != g.n:
        raise ValueError("function length must equal vertex count")
    if g.is_signed():
        raise ValueError("weak nodal domains are defined for unsigned graphs only")
    s = loop_rounded_signs(f, zero_tol)
    keep = np.ones(g.n, dtype=bool)
    edges = [(e.u, e.v) for e in g.edges if s[e.u] * s[e.v] >= 0]
    labels, count = _component_labels(g.n, keep, edges)
    return NodalDecomposition(kind="weak", labels=labels, count=count)


def loop_nodal_sweep(g: WeightedGraph, f, zero_tol: float | None = None) -> SweepResult:
    """The sweep scoring every level set through conductance()."""
    require_valid(g)
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
    bound = max(part_values)
    cert = PartitionCertificate(
        k=m,
        value=bound,
        parts=tuple(sorted(parts)),
        signed=False,
        exact=False,
        states=0,
    )
    return SweepResult(m=m, bound=bound, certificate=cert)
