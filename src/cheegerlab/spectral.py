"""Dense symmetric eigenvalues and eigenfunctions of normalized (signed) Laplacians.

Two routes solve the spectrum of a graph's Laplacian:

- values only: a cyclic Jacobi iteration.  Its rotations run in Python
  floats, so the values do not depend on the BLAS build (only the
  stopping test reads a numpy norm).  The exact checks compare the
  instance's own eigenvalues against exact optima, and the benchmark's
  expected outputs pin their round-off at lambda = 0, so they take this
  route.
- values with eigenfunctions: one LAPACK `np.linalg.eigh` call, which
  returns both.  Its values are reproducible per machine and BLAS build.
  The paper's nodal lemmas read eigenfunctions only through their sign
  patterns and |f| level sets, and the perturbed instances they run on
  read eigenvalues only through simplicity, clusters and sqrt(2 tau
  lambda_k) away from 0.

`with_functions` joins the two: Jacobi values with LAPACK functions.
Within a cluster of coincident eigenvalues the functions are any
orthonormal basis of the eigenspace.  The normalized-adjacency eta comes
from LAPACK `np.linalg.eigvalsh`; the spectral-radius bound reads it only
through a comparison.  Eigenvalues are reported ascending; the normalized
adjacency helper follows the opposite (descending) convention of
spectral-radius bounds.

A rotation in the plane (p, q) is the column update followed by the row
update of the textbook method.  The input is checked to be exactly
symmetric, and that update keeps it so: for j outside {p, q}, the new
entries (p, j) and (j, p) are both `c*a[j,p] - s*a[j,q]` of equal
operands.  So the solver holds the iterate as rows of Python floats and
computes each rotated row once, mirroring it into its column; only the
two diagonal entries need the second (row) step.  Python floats round
each `*` and `-` exactly as numpy's elementwise ufuncs do, so the values
are bit-identical to the column-then-row update on numpy slices (kept in
the tests as the reference).  For n <= 20 that costs about a third to a
half as much; beyond n ~ 50 the numpy slices would be faster.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .graph import WeightedGraph, require_valid


def _check_tolerance(name: str, value) -> None:
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


@dataclass(frozen=True)
class EigenOptions:
    off_diag_tol: float = 1e-12      # relative to the Frobenius norm of the input
    max_sweeps: int = 64
    gap_tol: float | None = None     # None -> 1e-8 * max(1, |lambda_n|)
    residual_tol: float = 1e-8

    def __post_init__(self):
        _check_tolerance("off_diag_tol", self.off_diag_tol)
        _check_tolerance("residual_tol", self.residual_tol)
        if self.gap_tol is not None:
            _check_tolerance("gap_tol", self.gap_tol)
        sweeps = self.max_sweeps
        if isinstance(sweeps, bool) or not isinstance(sweeps, numbers.Integral) or sweeps < 1:
            raise ValueError(f"max_sweeps must be an integer >= 1, got {sweeps!r}")


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


def eig_sym(m: np.ndarray, opts: EigenOptions = EigenOptions()) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending.

    The iterate stays exactly symmetric (see the module docstring), so
    it is kept as rows of Python floats: a rotation in the plane (p, q)
    computes the new rows p and q once each, `c*x - s*y` and `s*x + c*y`
    over the old rows, and mirrors them into columns p and q.  The two
    diagonal entries take the row step as well, `c*new_p[p] - s*new_p[q]`
    and `s*new_q[p] + c*new_q[q]`.  Python float arithmetic rounds like
    numpy's elementwise ufuncs and fuses no multiply-add, so the result
    equals the column-then-row update on numpy slices bit for bit.  The
    convergence test runs on an array built from the rows once per
    sweep, so the off-diagonal norm, and with it the sweep count, is the
    numpy norm of the same matrix.  Raises JacobiConvergenceError when
    `opts.max_sweeps` sweeps leave the off-diagonal norm above threshold.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    n = a.shape[0]
    threshold = opts.off_diag_tol * float(np.linalg.norm(a))
    rows = a.tolist()
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
        sweeps += 1
    a = np.array(rows)
    if not converged and _off_norm(a) > threshold:
        raise JacobiConvergenceError(_off_norm(a), threshold, sweeps)
    return np.sort(np.diag(a), kind="stable")


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of the normalized Laplacian with eigenfunctions.

    `values` come from the Jacobi solver (the same bits on every BLAS
    build) when the spectrum was solved without functions or had them
    added by `with_functions`, and from LAPACK `eigh` together with the
    functions otherwise.  `functions[k]` is the k-th eigenfunction of
    L = M^{-1}(D + K - A^sigma) from LAPACK, paired with `values[k]`,
    mu-orthonormal: sum_i mu_i f(i) g(i) = delta, and sign-normalized so
    that its entry of largest magnitude is positive; it is None when the
    spectrum was solved without them.  Within a cluster the functions are
    any orthonormal basis of the eigenspace.  `clusters` groups
    numerically coincident eigenvalues as (start index, multiplicity)
    pairs, 0-based.
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


def _eigenfunctions(mat: np.ndarray, mu) -> tuple[np.ndarray, tuple[tuple[float, ...], ...]]:
    """The ascending eigenvalues of the symmetric form `mat` of L and its
    mu-orthonormal eigenfunctions, from one LAPACK `eigh` call: each
    column is sign-normalized so that its entry of largest magnitude is
    positive, then scaled by 1/sqrt(mu)."""
    values, vecs = np.linalg.eigh(mat)
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs = np.where(lead < 0, -vecs, vecs)
    return values, tuple(map(tuple, (vecs / np.sqrt(np.asarray(mu))[:, None]).T.tolist()))


def laplacian_spectrum(
    g: WeightedGraph, opts: EigenOptions = EigenOptions(), *, functions: bool = True
) -> Spectrum:
    """Spectrum of the normalized Laplacian.

    `functions=True`: values and mu-orthonormal eigenfunctions from one
    LAPACK `eigh` call (of `opts`, only `gap_tol` applies).
    `functions=False`: Jacobi values only, the same bits on every BLAS
    build.  `with_functions(g, laplacian_spectrum(g, functions=False))`
    pairs the Jacobi values with the LAPACK functions.
    """
    mat = normalized_laplacian_sym(g)
    if functions:
        values, funcs = _eigenfunctions(mat, g.mu)
    else:
        values, funcs = eig_sym(mat, opts), None
    gap_tol = opts.gap_tol
    if gap_tol is None:
        gap_tol = 1e-8 * max(1.0, abs(float(values[-1])))
    return Spectrum(
        values=tuple(values.tolist()),
        functions=funcs,
        clusters=_cluster(values, gap_tol),
    )


def with_functions(g: WeightedGraph, spectrum: Spectrum) -> Spectrum:
    """`spectrum`, a spectrum of L(g), with the eigenfunctions of L(g) set
    by one LAPACK call; the values and clusters are kept as they are (the
    LAPACK values are dropped)."""
    _, funcs = _eigenfunctions(normalized_laplacian_sym(g), g.mu)
    return replace(spectrum, functions=funcs)


@dataclass(frozen=True)
class EtaResult:
    """Normalized-adjacency eigenvalues, descending, with eta = max(|eta_2|, |eta_n|)."""

    values: tuple[float, ...]
    eta: float

    def to_json_dict(self) -> dict:
        return {"values": list(self.values), "eta": self.eta}


def adjacency_eta(g: WeightedGraph) -> EtaResult:
    """Spectrum of M^{-1/2} A M^{-1/2} (same as M^{-1}A) from LAPACK
    `eigvalsh`, sorted descending.

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
    desc = np.linalg.eigvalsh(mat)[::-1]
    eta = max(abs(float(desc[1])), abs(float(desc[-1])))
    return EtaResult(values=tuple(desc.tolist()), eta=eta)
