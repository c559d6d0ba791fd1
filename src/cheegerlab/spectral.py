"""Dense symmetric eigendecomposition of normalized (signed) Laplacians.

The solver is a cyclic Jacobi iteration: simple, deterministic, and
orthogonal to working precision, which is all the desk-scale graphs here
need.  Eigenvalues are reported ascending; the normalized adjacency helper
follows the opposite (descending) convention of spectral-radius bounds.

A rotation in the plane (p, q) is the column update followed by the row
update of the textbook method.  The input is checked to be exactly
symmetric, and that update keeps it so: for j outside {p, q}, the new
entries (p, j) and (j, p) are both `c*a[j,p] - s*a[j,q]` of equal
operands.  So the solver holds the iterate as rows of Python floats and
computes each rotated row once, mirroring it into its column; only the
two diagonal entries need the second (row) step.  Python floats round
each `*` and `-` exactly as numpy's elementwise ufuncs do, so the values
and vectors are bit-identical to the column-then-row update on numpy
slices (kept in the tests as the reference).  For n <= 20 that costs
about a third to a half as much; beyond n ~ 50 the numpy slices would
be faster.

The eigenvectors are accumulated beside the iterate and never feed back
into it, so a solve that asks for eigenvalues only (`vectors=False`, the
shape of scipy's `eigh(eigvals_only=True)`) skips them and returns the
same values bit for bit, at about two thirds of the cost for n <= 10.
`laplacian_spectrum(g, functions=False)` and `adjacency_eta` solve that
way; the eigenfunctions are built only where a caller reads them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, require_valid


@dataclass(frozen=True)
class EigenOptions:
    off_diag_tol: float = 1e-12      # relative to the Frobenius norm of the input
    max_sweeps: int = 64
    gap_tol: float | None = None     # None -> 1e-8 * max(1, |lambda_n|)
    residual_tol: float = 1e-8

    def __post_init__(self):
        if self.off_diag_tol <= 0 or self.max_sweeps <= 0 or self.residual_tol <= 0:
            raise ValueError("tolerances and sweep budget must be positive")
        if self.gap_tol is not None and self.gap_tol <= 0:
            raise ValueError("gap_tol must be positive")


class JacobiConvergenceError(RuntimeError):
    """Raised when the sweep budget runs out; carries the residual off-norm."""

    def __init__(self, off_norm: float, threshold: float, sweeps: int):
        self.off_norm = off_norm
        self.threshold = threshold
        self.sweeps = sweeps
        super().__init__(
            f"Jacobi did not converge in {sweeps} sweeps: "
            f"off-diagonal norm {off_norm:.3e} > {threshold:.3e}"
        )


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def eig_sym(m: np.ndarray, opts: EigenOptions = EigenOptions(), *, vectors: bool = True):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (values, vectors) with values ascending and vectors as
    orthonormal columns, permuted consistently.  Ties keep their pre-sort
    order (stable sort); each eigenvector is sign-normalized so its entry
    of largest magnitude is positive.  With `vectors=False` no eigenvector
    is built and (values, None) is returned; the values are the same bits.

    The iterate stays exactly symmetric (see the module docstring), so
    it is kept as rows of Python floats: a rotation in the plane (p, q)
    computes the new rows p and q once each, `c*x - s*y` and `s*x + c*y`
    over the old rows, and mirrors them into columns p and q.  The two
    diagonal entries take the row step as well, `c*new_p[p] - s*new_p[q]`
    and `s*new_q[p] + c*new_q[q]`.  Python float arithmetic rounds like
    numpy's elementwise ufuncs and fuses no multiply-add, so the result
    equals the column-then-row update on numpy slices bit for bit.  The
    eigenvector matrix is kept transposed, one list per column.  The
    convergence test runs on an array built from the rows once per
    sweep, so the off-diagonal norm, and with it the sweep count, is the
    numpy norm of the same matrix.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    n = a.shape[0]
    threshold = opts.off_diag_tol * float(np.linalg.norm(a))
    rows = a.tolist()
    vt = np.eye(n).tolist() if vectors else None
    converged = n < 2
    sweeps = 0
    while not converged and sweeps < opts.max_sweeps:
        if _off_norm(np.array(rows)) <= threshold:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                row_p = rows[p]
                row_q = rows[q]
                apq = row_p[q]
                if apq == 0.0:
                    continue
                diff = row_q[q] - row_p[p]
                if 100.0 * abs(apq) + abs(diff) == abs(diff):
                    t = apq / diff  # asymptotic tangent; avoids overflow in theta
                else:
                    theta = diff / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                new_p = [c * x - s * y for x, y in zip(row_p, row_q)]
                new_q = [s * x + c * y for x, y in zip(row_p, row_q)]
                new_p[p], new_q[q] = c * new_p[p] - s * new_p[q], s * new_q[p] + c * new_q[q]
                new_p[q] = new_q[p] = 0.0
                rows[p] = new_p
                rows[q] = new_q
                # Rows p and q are new_p and new_q, whose (p, q) entries are 0.0.
                for row, x, y in zip(rows, new_p, new_q):
                    row[p] = x
                    row[q] = y
                if vt is not None:
                    vp = vt[p]
                    vq = vt[q]
                    vt[p] = [c * x - s * y for x, y in zip(vp, vq)]
                    vt[q] = [s * x + c * y for x, y in zip(vp, vq)]
        sweeps += 1
    a = np.array(rows)
    if not converged and _off_norm(a) > threshold:
        raise JacobiConvergenceError(_off_norm(a), threshold, sweeps)

    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    if vt is None:
        return values, None
    vecs = np.array(vt)[order].T.copy()
    for j in range(n):
        col = vecs[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0:
            vecs[:, j] = -col
    return values, vecs


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of the normalized Laplacian with eigenfunctions.

    `functions[k]` is the k-th eigenfunction of L = M^{-1}(D + K - A^sigma),
    mu-orthonormal: sum_i mu_i f(i) g(i) = delta; it is None when the
    spectrum was solved without them.  `clusters` groups numerically
    coincident eigenvalues as (start index, multiplicity) pairs, 0-based.
    """

    values: tuple[float, ...]
    functions: tuple[tuple[float, ...], ...] | None
    clusters: tuple[tuple[int, int], ...]

    def multiplicity_block(self, k: int) -> tuple[int, int]:
        """Cluster (start, mult) containing the 1-based eigenvalue index k."""
        for start, mult in self.clusters:
            if start <= k - 1 < start + mult:
                return start, mult
        raise IndexError(f"eigenvalue index {k} out of range")

    def function(self, k: int) -> np.ndarray:
        """The k-th (1-based) eigenfunction as an array."""
        if self.functions is None:
            raise ValueError("spectrum was solved without eigenfunctions")
        if not 1 <= k <= len(self.functions):
            raise ValueError(f"eigenfunction index must be in [1, {len(self.functions)}], got {k}")
        return np.asarray(self.functions[k - 1])

    def to_json_dict(self) -> dict:
        return {
            "values": list(self.values),
            "clusters": [[s, m] for s, m in self.clusters],
            "functions": None if self.functions is None else [list(f) for f in self.functions],
        }


def normalized_laplacian_sym(g: WeightedGraph) -> np.ndarray:
    """Symmetric normalized Laplacian M^{-1/2} (D + K - A^sigma) M^{-1/2}.

    Entry (i,i) is (d(i) + kappa_i)/mu_i; entry (i,j) for i ~ j is
    -sigma_ij w_ij / sqrt(mu_i mu_j).  Same spectrum as M^{-1}(D + K - A^sigma).
    """
    require_valid(g)
    d = g.degrees()
    mu = np.asarray(g.mu)
    mat = np.zeros((g.n, g.n))
    np.fill_diagonal(mat, (d + np.asarray(g.kappa)) / mu)
    for e in g.edges:
        val = -e.sigma * e.w / math.sqrt(g.mu[e.u] * g.mu[e.v])
        mat[e.u, e.v] = val
        mat[e.v, e.u] = val
    return mat


def _cluster(values: np.ndarray, gap_tol: float) -> tuple[tuple[int, int], ...]:
    clusters = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > gap_tol:
            clusters.append((start, i - start))
            start = i
    clusters.append((start, len(values) - start))
    return tuple(clusters)


def laplacian_spectrum(
    g: WeightedGraph, opts: EigenOptions = EigenOptions(), *, functions: bool = True
) -> Spectrum:
    """Spectrum of the normalized Laplacian with mu-orthonormal eigenfunctions
    (`functions=True`) or without any (`functions=False`, same values)."""
    mat = normalized_laplacian_sym(g)
    values, vectors = eig_sym(mat, opts, vectors=functions)
    funcs = None
    if functions:
        funcs = tuple(map(tuple, (vectors / np.sqrt(np.asarray(g.mu))[:, None]).T.tolist()))
    gap_tol = opts.gap_tol
    if gap_tol is None:
        gap_tol = 1e-8 * max(1.0, abs(float(values[-1])))
    return Spectrum(
        values=tuple(values.tolist()),
        functions=funcs,
        clusters=_cluster(values, gap_tol),
    )


@dataclass(frozen=True)
class EtaResult:
    """Normalized-adjacency eigenvalues, descending, with eta = max(|eta_2|, |eta_n|)."""

    values: tuple[float, ...]
    eta: float

    def to_json_dict(self) -> dict:
        return {"values": list(self.values), "eta": self.eta}


def adjacency_eta(g: WeightedGraph, opts: EigenOptions = EigenOptions()) -> EtaResult:
    """Spectrum of M^{-1/2} A M^{-1/2} (same as M^{-1}A), sorted descending.

    Requires an unsigned graph with kappa identically 0 and at least three
    vertices; those are the standing hypotheses of the spectral-radius
    lower bound this quantity feeds.
    """
    require_valid(g)
    if g.is_signed():
        raise ValueError("eta is defined for unsigned graphs")
    if not g.kappa_is_zero():
        raise ValueError("eta requires kappa == 0")
    if g.n < 3:
        raise ValueError("eta requires at least 3 vertices")
    mat = np.zeros((g.n, g.n))
    for e in g.edges:
        val = e.w / math.sqrt(g.mu[e.u] * g.mu[e.v])
        mat[e.u, e.v] = val
        mat[e.v, e.u] = val
    values, _ = eig_sym(mat, opts, vectors=False)
    desc = values[::-1]
    eta = max(abs(float(desc[1])), abs(float(desc[-1])))
    return EtaResult(values=tuple(desc.tolist()), eta=eta)
