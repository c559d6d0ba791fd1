"""Seeded random perturbations and genericity experiments.

A small multiplicative kick on edge weights plus a nonnegative additive
kick on potentials makes the spectrum simple and the eigenfunctions
zero-free with probability one; these helpers realize that perturbation
deterministically and measure how often the generic properties hold at
one tolerance, GENERICITY_TOL.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graph import Edge, WeightedGraph, _is_finite_number, _json_form
from .rng import SplitMix64, derive_seed
from .spectral import Spectrum, laplacian_spectrum

# Tolerance of every genericity verdict: a consecutive eigenvalue gap, or an
# eigenfunction entry, at most this large counts as a multiplicity, or a zero.
GENERICITY_TOL = 1e-10


def perturb(g: WeightedGraph, eps: float, seed: int) -> WeightedGraph:
    """Seeded perturbation: w' = w (1 + eps u), kappa' = kappa + eps u.

    The u are i.i.d. uniform(0,1), drawn edge-by-edge in canonical edge
    order and then vertex-by-vertex, so the result is a pure function of
    (g, eps, seed).  Weights stay positive, potentials never decrease, the
    measure and signature are untouched.  eps = 0 reproduces g exactly
    (used as the control arm of frequency experiments).  An eps that is
    not an int or float >= 0 converting to a finite float (a bool is not
    one), or so large that (1 + eps) times the largest weighted degree, or
    kappa + eps, is not a finite float, raises ValueError before anything
    is drawn.
    """
    if not (_is_finite_number(eps) and eps >= 0):
        raise ValueError("eps must be a finite number >= 0")
    # Python floats: a numpy scalar would warn where this product overflows.
    deg = float(g.degrees().max())
    if not (math.isfinite((1.0 + eps) * deg) and math.isfinite(max(g.kappa) + eps)):
        raise ValueError(
            f"eps = {eps!r} is too large: the perturbed degrees or potentials would overflow"
        )
    rng = SplitMix64(seed)
    edges = tuple(
        Edge(e.u, e.v, e.w * (1.0 + eps * rng.uniform()), e.sigma) for e in g.edges
    )
    kappa = tuple(k + eps * rng.uniform() for k in g.kappa)
    return WeightedGraph(n=g.n, edges=edges, mu=g.mu, kappa=kappa)


@dataclass(frozen=True)
class GenericityReport:
    """Simplicity and zero-freeness of one spectrum at GENERICITY_TOL."""

    simple: bool
    min_gap: float
    zero_free: bool
    min_abs_entry: float

    @staticmethod
    def of(spectrum: Spectrum) -> "GenericityReport":
        """Smallest eigenvalue gap and smallest eigenfunction entry of a spectrum.

        Reads a spectrum the caller holds (a perturbed trial's, or the one
        the checks hold with their instance), so the verdict costs no
        eigensolve of its own.  Eigenfunctions are the mu-normalized ones of
        :class:`Spectrum`.  `simple` holds when every consecutive gap
        exceeds GENERICITY_TOL; `zero_free` when every entry of every
        eigenfunction exceeds it in magnitude.  A spectrum solved without
        eigenfunctions raises ValueError.
        """
        if spectrum.functions is None:
            raise ValueError("genericity needs a spectrum solved with its eigenfunctions")
        values = np.asarray(spectrum.values)
        min_gap = float(np.min(np.diff(values))) if len(values) >= 2 else float("inf")
        min_abs = float(np.min(np.abs(spectrum.functions)))
        return GenericityReport(
            simple=min_gap > GENERICITY_TOL,
            min_gap=min_gap,
            zero_free=min_abs > GENERICITY_TOL,
            min_abs_entry=min_abs,
        )


@dataclass(frozen=True)
class FrequencyReport:
    fraction_simple: float
    fraction_zero_free: float
    worst_gap: float
    worst_entry: float
    trials: int
    eps: float
    seed: int
    gap_tol: float
    zero_tol: float

    to_json_dict = _json_form


def genericity_frequency(g: WeightedGraph, eps: float, trials: int, seed: int) -> FrequencyReport:
    """Fraction of seeded perturbations that are simple / zero-free.

    Trial t uses the derived seed (seed, t), so serial and parallel runs of
    the same trial set agree bit for bit.  The zero-free fraction is only
    meaningful on connected graphs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_simple = 0
    n_zero_free = 0
    worst_gap = float("inf")
    worst_entry = float("inf")
    for t in range(trials):
        rep = GenericityReport.of(laplacian_spectrum(perturb(g, eps, derive_seed(seed, t))))
        n_simple += rep.simple
        n_zero_free += rep.zero_free
        worst_gap = min(worst_gap, rep.min_gap)
        worst_entry = min(worst_entry, rep.min_abs_entry)
    return FrequencyReport(
        fraction_simple=n_simple / trials,
        fraction_zero_free=n_zero_free / trials,
        worst_gap=worst_gap,
        worst_entry=worst_entry,
        trials=trials,
        eps=eps,
        seed=seed,
        gap_tol=GENERICITY_TOL,
        zero_tol=GENERICITY_TOL,
    )
