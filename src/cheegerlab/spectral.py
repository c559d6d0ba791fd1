"""Dense symmetric eigenvalues and eigenfunctions of normalized (signed) Laplacians.

Two routes solve the spectrum of a graph's Laplacian:

- values only: a cyclic Jacobi iteration.  Its rotations and its
  stopping test run in Python floats, so the values do not depend on the
  BLAS build.  The exact checks compare the instance's own eigenvalues
  against exact optima, and the benchmark's expected outputs pin their
  round-off at lambda = 0, so they take this route.
- values with eigenfunctions: one LAPACK `np.linalg.eigh` call, which
  returns both.  Its values are reproducible per machine and BLAS build.
  The paper's nodal lemmas read eigenfunctions only through their sign
  patterns and |f| level sets, and the perturbed instances they run on
  read eigenvalues only through simplicity, clusters and sqrt(2 tau
  lambda_k) away from 0.

`laplacian_spectrum` is the one composer of both routes.  The one place
that pairs them, Jacobi values with the LAPACK functions, is the
spectrum the checks read, held with the graph (`bounds._checked_spectrum`).
The functions are held as the one array that `eigh` gives, transposed: a
read-only, C-contiguous (n, n) float64 array whose row k - 1 is f_k, so
every reader (the nodal counts, the sweep, genericity, the JSON form)
reads the same float64 bits without a copy.  Within a cluster of
coincident eigenvalues the functions are any orthonormal basis of the
eigenspace.

The normalized-adjacency eta comes from the values of one
`np.linalg.eigh` call on diag(L) - L, L the symmetric normalized
Laplacian; the spectral-radius bound reads it only through a
comparison.  So every LAPACK solve goes through the one driver, `eigh`
(`eigvalsh` is wrong on matrices with tiny entries: it gave eta = 3.2404
for the path with weights 1e-161, 3, 1 and unit measure, whose eta is
sqrt(10)).  Every route reads the same L(g): built once per graph by
:func:`normalized_laplacian_sym` and held with the graph,
read-only (graph._derived), which is safe because the graph cannot change
and L is a function of it alone.  Eigenvalues are reported ascending; the
normalized adjacency helper follows the opposite (descending) convention
of spectral-radius bounds.

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
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, _derived, _json_form


_MAX_SWEEPS = 64
_OFF_DIAG_TOL = 1e-12  # relative to the Frobenius norm of the input


@dataclass(frozen=True)
class EigenOptions:
    """The residual tolerance of an eigenpair, read by the benchmark
    harness (perfbench/workloads.py); nothing in the package reads it."""

    residual_tol: float = 1e-8


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


def _norm(rows: list, off_diagonal: bool) -> float:
    """Frobenius norm of the rows, or of their off-diagonal part: the
    square root of the exactly rounded sum of the squares (math.fsum).
    Where the squares or their sum overflow and the entries are finite,
    it is s * sqrt(fsum((x/s)^2)) for the largest |x| = s instead, so that
    a matrix of huge finite entries gets a finite stopping threshold."""
    if off_diagonal:
        rows = [row[:i] + row[i + 1 :] for i, row in enumerate(rows)]
    try:
        norm = math.sqrt(math.fsum(x * x for row in rows for x in row))
    except OverflowError:  # finite squares whose sum is not
        norm = math.inf
    if norm == math.inf and math.isfinite(s := max(abs(x) for row in rows for x in row)):
        return s * math.sqrt(math.fsum((x / s) * (x / s) for row in rows for x in row))
    return norm


def eig_sym(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending.

    The iterate stays exactly symmetric (see the module docstring), so
    it is kept as rows of Python floats: a rotation in the plane (p, q)
    computes the new rows p and q once each, `c*x - s*y` and `s*x + c*y`
    over the old rows, and mirrors them into columns p and q.  The two
    diagonal entries take the row step as well, `c*new_p[p] - s*new_p[q]`
    and `s*new_q[p] + c*new_q[q]`.  Python float arithmetic rounds like
    numpy's elementwise ufuncs and fuses no multiply-add, so the result
    equals the column-then-row update on numpy slices bit for bit.  The
    sweeps stop once the off-diagonal norm, taken from the rows before
    each sweep, is at most 1e-12 of the input's Frobenius norm; both
    norms are exactly rounded sums of the rows' squares, so the sweep
    count reads no BLAS.  Raises JacobiConvergenceError when 64 sweeps
    leave the off-diagonal norm above that threshold.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    n = a.shape[0]
    rows = a.tolist()
    threshold = _OFF_DIAG_TOL * _norm(rows, False)
    sweeps = 0
    while not (off := _norm(rows, True)) <= threshold:
        if sweeps == _MAX_SWEEPS:
            raise JacobiConvergenceError(off, threshold, sweeps)
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
    return np.sort([row[i] for i, row in enumerate(rows)], kind="stable")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues of the normalized Laplacian with eigenfunctions.

    `values` come from the Jacobi solver (the same bits on every BLAS
    build) when the spectrum was solved without functions or had them
    added by `bounds._checked_spectrum`, and from LAPACK `eigh` together
    with the functions otherwise.  `functions` is a read-only, C-contiguous (n, n)
    float64 array, or None when the spectrum was solved without them.  Its
    row k is the eigenfunction of L = M^{-1}(D + K - A^sigma) from LAPACK
    paired with `values[k]`, mu-orthonormal: sum_i mu_i f(i) g(i) = delta,
    and sign-normalized so that its entry of largest magnitude is positive.
    Within a cluster the functions are any orthonormal basis of the
    eigenspace.  `clusters` groups numerically coincident eigenvalues as
    (start index, multiplicity) pairs, 0-based.  An array has no truth
    value, so two spectra are equal only when they are the same object.
    """

    values: tuple[float, ...]
    functions: np.ndarray | None
    clusters: tuple[tuple[int, int], ...]

    def function(self, k: int) -> np.ndarray:
        """The k-th (1-based) eigenfunction: row k - 1 of `functions`,
        read-only, without a copy."""
        if self.functions is None:
            raise ValueError("spectrum was solved without eigenfunctions")
        if not 1 <= k <= len(self.functions):
            raise ValueError(f"eigenfunction index must be in [1, {len(self.functions)}], got {k}")
        return self.functions[k - 1]

    def to_json_dict(self) -> dict:
        """The fields in sorted name order, the functions as nested lists."""
        form = _json_form(self)
        if self.functions is not None:
            form["functions"] = self.functions.tolist()
        return form


def normalized_laplacian_sym(g: WeightedGraph) -> np.ndarray:
    """Symmetric normalized Laplacian M^{-1/2} (D + K - A^sigma) M^{-1/2}.

    Entry (i,i) is (d(i) + kappa_i)/mu_i; entry (i,j) for i ~ j is
    -sigma_ij w_ij / sqrt(mu_i mu_j).  Same spectrum as M^{-1}(D + K - A^sigma).
    The edges' entries are computed at once, each by the IEEE operations
    of the per-edge formula (negate, multiply, square root, divide), so
    every entry has the same bits.  A new array on every call; the solvers
    read the one held with the graph (:func:`_laplacian`).
    """
    mu = np.asarray(g.mu)
    mat = np.zeros((g.n, g.n))
    np.fill_diagonal(mat, (g.degrees() + np.asarray(g.kappa)) / mu)
    u, v, w, sigma = map(np.array, zip(*g.edges))
    vals = -sigma * w / np.sqrt(mu[u] * mu[v])
    mat[u, v] = vals
    mat[v, u] = vals
    return mat


def _laplacian(g: WeightedGraph) -> np.ndarray:
    """normalized_laplacian_sym(g), built once and held with g (read-only)."""
    return _derived(g, "laplacian", normalized_laplacian_sym)


def _cluster(values: np.ndarray, gap_tol: float) -> tuple[tuple[int, int], ...]:
    clusters = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > gap_tol:
            clusters.append((start, i - start))
            start = i
    clusters.append((start, len(values) - start))
    return tuple(clusters)


def _eigenfunctions(mat: np.ndarray, mu) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenvalues of the symmetric form `mat` of L and its
    mu-orthonormal eigenfunctions as the rows of a read-only, C-contiguous
    array, from one LAPACK `eigh` call: each column is sign-normalized so
    that its entry of largest magnitude is positive, then scaled by
    1/sqrt(mu)."""
    values, vecs = np.linalg.eigh(mat)
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    np.negative(vecs, out=vecs, where=lead < 0)
    funcs = np.divide(vecs.T, np.sqrt(np.asarray(mu)), order="C")
    funcs.flags.writeable = False
    return values, funcs


def laplacian_spectrum(g: WeightedGraph, *, functions: bool = True) -> Spectrum:
    """Spectrum of the normalized Laplacian; eigenvalues closer than
    1e-8 * max(1, |lambda_n|) share a multiplicity cluster.

    `functions=True`: values and mu-orthonormal eigenfunctions from one
    LAPACK `eigh` call.
    `functions=False`: Jacobi values only, the same bits on every BLAS
    build.  `bounds._checked_spectrum` pairs the Jacobi values with the
    LAPACK functions, held with g.
    """
    mat = _laplacian(g)
    if functions:
        values, funcs = _eigenfunctions(mat, g.mu)
    else:
        values, funcs = eig_sym(mat), None
    return Spectrum(
        values=tuple(values.tolist()),
        functions=funcs,
        clusters=_cluster(values, 1e-8 * max(1.0, abs(float(values[-1])))),
    )


@dataclass(frozen=True)
class EtaResult:
    """Normalized-adjacency eigenvalues, descending, with eta = max(|eta_2|, |eta_n|)."""

    values: tuple[float, ...]
    eta: float

    to_json_dict = _json_form


def adjacency_eta(g: WeightedGraph) -> EtaResult:
    """Spectrum of M^{-1/2} A M^{-1/2} (same as M^{-1}A) from LAPACK
    `eigh`, sorted descending.  On an unsigned graph that matrix is
    diag(L) - L for L = :func:`normalized_laplacian_sym`, whatever kappa
    (the diagonal cancels to 0.0, the off-diagonal entries change sign
    exactly), read from the L held with g.

    Defined for every unsigned graph (n >= 2); the spectral-radius lower
    bound's own hypotheses, kappa = 0 and n >= 3, are checked by
    `bounds.check_lower_bound`.
    """
    if g.is_signed():
        raise ValueError("eta is defined for unsigned graphs")
    lap = _laplacian(g)
    desc = np.linalg.eigh(np.diag(np.diag(lap)) - lap)[0][::-1]
    eta = max(abs(float(desc[1])), abs(float(desc[-1])))
    return EtaResult(values=tuple(desc.tolist()), eta=eta)
