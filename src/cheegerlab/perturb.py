"""Seeded random perturbations and genericity experiments.

A small multiplicative kick on edge weights plus a nonnegative additive
kick on potentials makes the spectrum simple and the eigenfunctions
zero-free with probability one; these helpers realize that perturbation
deterministically and measure how often the generic properties hold at
fixed tolerances.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graph import Edge, WeightedGraph, require_valid
from .rng import SplitMix64, derive_seed
from .spectral import Spectrum, laplacian_spectrum


def perturb(g: WeightedGraph, eps: float, seed: int) -> WeightedGraph:
    """Seeded perturbation: w' = w (1 + eps u), kappa' = kappa + eps u.

    The u are i.i.d. uniform(0,1), drawn edge-by-edge in canonical edge
    order and then vertex-by-vertex, so the result is a pure function of
    (g, eps, seed).  Weights stay positive, potentials never decrease, the
    measure and signature are untouched.  eps = 0 reproduces g exactly
    (used as the control arm of frequency experiments).
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError("eps must be a finite number >= 0")
    require_valid(g)
    rng = SplitMix64(seed)
    edges = tuple(
        Edge(e.u, e.v, e.w * (1.0 + eps * rng.uniform()), e.sigma) for e in g.edges
    )
    kappa = tuple(k + eps * rng.uniform() for k in g.kappa)
    return WeightedGraph(n=g.n, edges=edges, mu=g.mu, kappa=kappa)


@dataclass(frozen=True)
class GenericityReport:
    """Simplicity and zero-freeness of one spectrum at fixed tolerances."""

    simple: bool
    min_gap: float
    zero_free: bool
    min_abs_entry: float
    gap_tol: float
    zero_tol: float

    @staticmethod
    def of(spectrum: Spectrum, gap_tol: float = 1e-10, zero_tol: float = 1e-10) -> "GenericityReport":
        """Smallest eigenvalue gap and smallest eigenfunction entry of a spectrum.

        Takes a spectrum already computed (for example a cached one), so
        the genericity verdict costs no second eigensolve.  Eigenfunctions
        are the mu-normalized ones of :class:`Spectrum`.  `simple` holds
        when every consecutive gap exceeds gap_tol; `zero_free` when every
        entry of every eigenfunction exceeds zero_tol in magnitude.  A
        spectrum solved without eigenfunctions raises ValueError.
        """
        if spectrum.functions is None:
            raise ValueError("genericity needs a spectrum solved with its eigenfunctions")
        values = np.asarray(spectrum.values)
        min_gap = float(np.min(np.diff(values))) if len(values) >= 2 else float("inf")
        min_abs = float(np.min(np.abs(np.asarray(spectrum.functions))))
        return GenericityReport(
            simple=min_gap > gap_tol,
            min_gap=min_gap,
            zero_free=min_abs > zero_tol,
            min_abs_entry=min_abs,
            gap_tol=gap_tol,
            zero_tol=zero_tol,
        )

    def to_json_dict(self) -> dict:
        return {
            "simple": self.simple,
            "min_gap": self.min_gap,
            "zero_free": self.zero_free,
            "min_abs_entry": self.min_abs_entry,
            "gap_tol": self.gap_tol,
            "zero_tol": self.zero_tol,
        }


def genericity_report(
    g: WeightedGraph, gap_tol: float = 1e-10, zero_tol: float = 1e-10
) -> GenericityReport:
    """Solve the spectrum of g (one LAPACK `eigh` call for values and
    functions) and report on it with :meth:`GenericityReport.of`.

    Callers that already hold the spectrum of g call
    ``GenericityReport.of`` directly instead of solving it again.
    """
    return GenericityReport.of(laplacian_spectrum(g), gap_tol, zero_tol)


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

    def to_json_dict(self) -> dict:
        return {
            "fraction_simple": self.fraction_simple,
            "fraction_zero_free": self.fraction_zero_free,
            "worst_gap": self.worst_gap,
            "worst_entry": self.worst_entry,
            "trials": self.trials,
            "eps": self.eps,
            "seed": self.seed,
            "gap_tol": self.gap_tol,
            "zero_tol": self.zero_tol,
        }


def genericity_frequency(
    g: WeightedGraph,
    eps: float,
    trials: int,
    seed: int,
    gap_tol: float = 1e-10,
    zero_tol: float = 1e-10,
) -> FrequencyReport:
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
        rep = genericity_report(perturb(g, eps, derive_seed(seed, t)), gap_tol, zero_tol)
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
        gap_tol=gap_tol,
        zero_tol=zero_tol,
    )
