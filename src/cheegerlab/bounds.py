"""Verification harness: each proved inequality becomes an executable check.

Every check takes a graph (or pair), recomputes both sides of the
inequality from scratch, and emits CheckRecords with enough metadata to
reproduce the comparison.  The underlying statements are theorems, so a
failed record always means an implementation bug; hypothesis mismatches
raise :class:`HypothesisViolation` instead and are reported as skips.
"""

import io
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterator

from .cheeger import (
    PartitionCertificate,
    _dp_admits,
    rho_profile,
    rho_signed_profile,
    rho_upper_nodal_sweep,
)
from .graph import (
    WeightedGraph,
    _FAMILIES,
    _GENERATOR_RULES,
    _MEASURES,
    _derived,
    _is_finite_number,
    _is_int,
    _weight_range,
    classify,
    cyclomatic,
    degree_profile,
    generate,
    is_complete,
    product,
    with_random_signature,
)
from .nodal import strong_nodal
from .perturb import _EPS_RULE, GenericityReport, perturb
from .rng import DEFAULT_SEED, SplitMix64, derive_seed
from .spectral import Spectrum, adjacency_eta, laplacian_spectrum

TOL_SCALE = 1e-9       # inequality slack: 1e-9 * max(1, rhs)
EIG_CLAMP = 1e-10      # eigenvalues in [-1e-10, 0) are solver dust; clamp to 0


class HypothesisViolation(ValueError):
    """The check's hypotheses do not hold for this input (skip, not fail)."""


class NonGenericError(RuntimeError):
    """The instance a check ran on failed the genericity assertion: at eps > 0
    a perturbation of the graph (try another seed), at eps = 0 the graph
    itself (try eps > 0)."""


def inequality_tol(rhs: float) -> float:
    return TOL_SCALE * max(1.0, rhs)


def _clamp_eigenvalue(lam: float) -> float:
    if -EIG_CLAMP <= lam < 0.0:
        return 0.0
    if lam < 0.0:
        raise RuntimeError(f"eigenvalue {lam} below the numerical clamp; solver failure")
    return lam


@dataclass
class CheckRecord:
    """One verified inequality instance: holds iff lhs <= rhs + tol.

    `holds` is None for records skipped on hypothesis grounds; the reason
    then sits in meta["skipped"].
    """

    name: str
    k: int
    lhs: float
    rhs: float
    margin: float
    holds: bool | None
    meta: dict = field(default_factory=dict)

    @staticmethod
    def compare(name: str, k: int, lhs: float, rhs: float, meta: dict | None = None) -> "CheckRecord":
        return CheckRecord(name, k, lhs, rhs, rhs - lhs, lhs <= rhs + inequality_tol(rhs), meta or {})

    @staticmethod
    def skipped(name: str, reason: str) -> "CheckRecord":
        return CheckRecord(name, 0, math.nan, math.nan, math.nan, None, {"skipped": reason})


# Everything the checks of one instance share is held with the graph it is
# derived from (see the `graph` module docstring): its spectrum, its full
# exact profile, and its perturbed instance perturb(g, eps, seed) for each
# (eps, seed) asked for, which holds its own.  A certificate builds its
# JSON dict once (`PartitionCertificate.to_json_dict`), so the records that
# read one certificate of the held profile share one dict.  The `nodal`,
# `nodal_cheeger` and `product` checks all read that perturbed instance, so
# each is built once per instance; the product check's second factor and
# the product it makes hold their own spectra too.  A corpus walks its
# instances one at a time, so what each holds is freed with it.  Only the
# two nodal checks (and `analyze`) read eigenfunctions; every other check
# reads values.  `_checked_spectrum` is the one place that solves Jacobi
# values, and the one place that pairs them with LAPACK functions.
#
# The checks call `classify`, `cyclomatic`, `degree_profile`,
# `adjacency_eta` and `strong_nodal` as often as they need, and each graph
# builds its classification (one labelling of its bipartite double cover),
# degree profile and Laplacian once, and labels each sign vector's strong
# domains once.  That is safe because a graph cannot change and each input
# is a function of the graph (a labelling, of the graph and the rounded
# signs).  So `nodal` and `nodal_cheeger` share each eigenfunction's
# labelling of the perturbed instance, and `lower`'s eta reads the
# Laplacian that the eigenvalue solve of g built.


def _checked_spectrum(g: WeightedGraph, functions: bool) -> Spectrum:
    """The spectrum of g that the checks and `analyze` read, held with g.

    Its eigenvalues come from the Jacobi solver, whichever reader asks
    first; a request for functions adds the LAPACK functions of the same
    held L(g) to the held values.  A perturbed instance, whose eigenvalues
    no exact check pins, holds values and functions from one LAPACK call
    (:func:`_generic_instance`).  `laplacian_spectrum` is looked up when a
    spectrum is solved, so a wrapper set on it (a tracer's) sees each solve.
    """
    s = _derived(g, "spectrum", lambda h: laplacian_spectrum(h, functions=False))
    if functions and s.functions is None:
        s = _derived(g, "spectrum_functions", lambda h: replace(s, functions=laplacian_spectrum(h).functions))
    return s


def _generic_instance(g: WeightedGraph, eps: float, seed: int) -> WeightedGraph:
    """perturb(g, eps, seed), held with g, with its spectrum held with it;
    at eps = 0, g itself."""
    if eps == 0:
        return g
    return _derived(g, ("perturbed", eps, seed), _perturbed_instance, eps, seed)


def _perturbed_instance(g: WeightedGraph, eps: float, seed: int) -> WeightedGraph:
    gp = perturb(g, eps, seed)
    _derived(gp, "spectrum", laplacian_spectrum)
    return gp


def _rho_all(g: WeightedGraph, kmax: int) -> tuple[PartitionCertificate, ...]:
    """Exact certificates for k = 1..kmax, signed if the graph is.

    Sliced from g's full exact profile, held with g, which serves every
    check of the instance.  Where the work policy refuses the full profile
    (the refusal is held too, as ()), the engine is asked for kmax alone
    (not held); a request beyond the policy raises ValueError before any
    table is built, which the caller reports as a per-instance error.
    """
    signed = g.is_signed()
    # rho_profile answers a signed graph too; rho_signed_profile is called
    # by name so that a tracer's cheeger.signed_profile layer sees the call.
    engine = rho_signed_profile if signed else rho_profile
    profile = _derived(g, "profile", lambda h: engine(h) if _dp_admits(h.n, h.m, h.n, signed) else ())
    return profile[:kmax] if profile else engine(g, kmax)


def _upper_record(
    name: str, k: int, g: WeightedGraph, cert: PartitionCertificate, lam: float, meta: dict
) -> CheckRecord:
    """The record rho_j <= sqrt(2 tau lambda_k) of the three upper bounds
    (the shifted theorem, the nodal-Cheeger lemma, the product theorem):
    cert is rho_j's certificate on g, lam the clamped lambda_k of g, and
    tau is g's.  Its meta is the certificate's JSON, the record's own keys,
    then tau, which is in key order since every own key sorts between the
    two.  Where 2 tau lambda_k overflows, the bound is sqrt(2 tau)
    sqrt(lambda_k) instead."""
    tau = degree_profile(g).tau
    meta = {"certificate": cert.to_json_dict(), **meta, "tau": tau}
    rhs = math.sqrt(2.0 * tau * lam)
    if rhs == math.inf:
        rhs = math.sqrt(2.0 * tau) * math.sqrt(lam)
    return CheckRecord.compare(name, k, cert.value, rhs, meta)


def check_theorem_main(g: WeightedGraph) -> list[CheckRecord]:
    """rho_{k-l} <= sqrt(2 tau lambda_k) for every k with k - l >= 1.

    Works on signed and unsigned graphs (signed constants and spectrum in
    the signed case).  Requires a connected graph with kappa >= 0.
    """
    if not classify(g).is_connected:
        raise HypothesisViolation("requires a connected graph")
    if any(kap < 0 for kap in g.kappa):
        raise HypothesisViolation("requires kappa >= 0")
    signed = g.is_signed()
    ell = cyclomatic(g)
    kmax = g.n - ell
    if kmax < 1:
        return []
    spectrum = _checked_spectrum(g, functions=False)
    profile = _rho_all(g, kmax)
    name = "main_signed" if signed else "main"
    records = []
    for k in range(ell + 1, g.n + 1):
        lam = _clamp_eigenvalue(spectrum.values[k - 1])
        meta = {"ell": ell, "j": k - ell, "lambda_k": lam}
        records.append(_upper_record(name, k, g, profile[k - ell - 1], lam, meta))
    return records


def check_nodal_count_bounds(g: WeightedGraph, eps: float, seed: int) -> list[CheckRecord]:
    """Nodal-count sandwich on one generic perturbation of g (on g itself
    at eps = 0).

    Perturbs once and asserts, at GENERICITY_TOL, that the spectrum is
    simple and its eigenfunctions zero-free; that one verdict stands for
    every k, which then records k - l <= S(f_k) <= k and W(f_k) <= k.
    """
    if g.is_signed():
        raise HypothesisViolation("nodal count bounds are checked on unsigned graphs")
    if not classify(g).is_connected:
        raise HypothesisViolation("requires a connected graph")
    gp = _generic_instance(g, eps, seed)
    spectrum = _checked_spectrum(gp, functions=True)
    report = GenericityReport.of(spectrum)
    if not (report.simple and report.zero_free):
        measured = f"min_gap={report.min_gap:.3e}, min_abs_entry={report.min_abs_entry:.3e}"
        if eps == 0:
            raise NonGenericError(
                f"graph is not generic ({measured}); at eps = 0 the check runs on "
                f"the graph itself, so try eps > 0"
            )
        raise NonGenericError(f"perturbed instance is not generic ({measured}); try another seed")
    ell = cyclomatic(gp)
    records = []
    for k in range(1, g.n + 1):
        f = spectrum.function(k)
        strong = strong_nodal(gp, f, zero_tol=0.0).count
        meta = {"ell": ell, "eps": eps, "seed": seed, "strong": strong}
        records.append(CheckRecord.compare("nodal_lower", k, k - ell, strong, meta))
        records.append(CheckRecord.compare("nodal_strong_upper", k, strong, k, meta))
        # The spectrum was just found zero-free.  With no zero sign, the weak
        # rule s_u s_v >= 0 joins the same edges as the strong s_u s_v > 0,
        # so W(f_k) = S(f_k).
        records.append(CheckRecord.compare("nodal_weak_upper", k, strong, k, meta))
    return records


def check_lemma_nodal_cheeger(g: WeightedGraph, eps: float, seed: int) -> list[CheckRecord]:
    """rho_m <= sqrt(2 tau lambda_k) with m = S(f_k), for every eigenpair.

    Runs on g itself when eps = 0, else on a seeded perturbation.  The
    nodal-sweep upper bound for each eigenfunction rides along in meta.
    """
    if g.is_signed():
        raise HypothesisViolation("requires an unsigned graph")
    if any(kap < 0 for kap in g.kappa):
        raise HypothesisViolation("requires kappa >= 0")
    h = _generic_instance(g, eps, seed)
    spectrum = _checked_spectrum(h, functions=True)
    profile = _rho_all(h, h.n)
    records = []
    for k in range(1, h.n + 1):
        sweep = rho_upper_nodal_sweep(h, spectrum.function(k))
        lam = _clamp_eigenvalue(spectrum.values[k - 1])
        meta = {"eps": eps, "lambda_k": lam, "m": sweep.k, "sweep_bound": sweep.value}
        records.append(_upper_record("nodal_cheeger", k, h, profile[sweep.k - 1], lam, meta))
    return records


def check_lower_bound(g: WeightedGraph) -> list[CheckRecord]:
    """(tau_min - eta)(1 - 1/k) <= rho_k for k >= 2; plus the spectral-gap
    corollary form min(lambda_2, 2 - lambda_n)(1 - 1/k) when mu = d and the
    graph is not complete."""
    if g.is_signed():
        raise HypothesisViolation("requires an unsigned graph")
    if not g.kappa_is_zero():
        raise HypothesisViolation("requires kappa == 0")
    if g.n < 3:
        raise HypothesisViolation("requires at least 3 vertices")
    eta = adjacency_eta(g).eta
    tau_min = degree_profile(g).tau_min
    profile = _rho_all(g, g.n)
    gap_meta = None
    if g.mu_is_degree() and not is_complete(g):
        values = _checked_spectrum(g, functions=False).values
        gap = min(values[1], 2.0 - values[-1])
        gap_meta = {"lambda_2": values[1], "lambda_n": values[-1]}
    eta_records, gap_records = [], []
    for k in range(2, g.n + 1):
        cert = profile[k - 1]
        share = 1.0 - 1.0 / k
        meta = {"certificate": cert.to_json_dict(), "eta": eta, "tau_min": tau_min}
        eta_records.append(CheckRecord.compare("lower_eta", k, (tau_min - eta) * share, cert.value, meta))
        if gap_meta is not None:
            gap_records.append(CheckRecord.compare("lower_gap", k, gap * share, cert.value, gap_meta))
    return eta_records + gap_records


def check_product_theorem(
    g1: WeightedGraph,
    g2: WeightedGraph,
    k: int,
    eps: float = 0.0,
    seed: int = DEFAULT_SEED,
) -> CheckRecord:
    """rho_{k n2}(G1 x G2) <= sqrt(2 tau lambda_{k n2}) for a tree G1 and
    bipartite G2 under the spectral-gap hypothesis lambda^(2)_max <
    lambda^(1)_{k+1} - lambda^(1)_k.

    Both factors need unit measure and kappa >= 0.  With eps > 0 the tree
    factor is the held perturbed instance of G1 (making the gap hypothesis
    generic), and the gap is measured on its spectrum.  Meta records how
    far the product eigenvalue sits from lambda^(1)_k + lambda^(2)_max.
    """
    for h, role in ((g1, "factor 1"), (g2, "factor 2")):
        if h.is_signed():
            raise HypothesisViolation(f"{role} must be unsigned")
        if any(m != 1.0 for m in h.mu):
            raise HypothesisViolation(f"{role} must have unit vertex measure")
        if any(kap < 0 for kap in h.kappa):
            raise HypothesisViolation(f"{role} needs kappa >= 0")
    if not classify(g1).is_tree:
        raise HypothesisViolation("factor 1 must be a tree")
    if not classify(g2).is_bipartite:
        raise HypothesisViolation("factor 2 must be bipartite")
    if not 1 <= k < g1.n:
        raise HypothesisViolation(f"k must be in [1, {g1.n - 1}]")
    h1 = _generic_instance(g1, eps, seed)
    s1 = _checked_spectrum(h1, functions=False)
    s2 = _checked_spectrum(g2, functions=False)
    gap = s1.values[k] - s1.values[k - 1]
    lam2_max = s2.values[-1]
    if not lam2_max < gap:
        raise HypothesisViolation(
            f"gap hypothesis fails: lambda2_max={lam2_max:.6g} >= "
            f"lambda1_{k + 1}-lambda1_{k}={gap:.6g}"
        )
    gp = product(h1, g2)
    sp = _checked_spectrum(gp, functions=False)
    index = k * g2.n
    lam = _clamp_eigenvalue(sp.values[index - 1])
    meta = {
        "eigensum_error": abs(sp.values[index - 1] - (s1.values[k - 1] + lam2_max)),
        "eps": eps,
        "gap": gap,
        "k_factor": k,
        "lambda2_max": lam2_max,
        "lambda_index": lam,
        "n2": g2.n,
    }
    cert = _rho_all(gp, index)[index - 1]
    return _upper_record("product", index, gp, cert, lam, meta)


def check_basics(g: WeightedGraph) -> list[CheckRecord]:
    """Monotonicity rho_k <= rho_{k+1} everywhere, plus (when mu = d and
    kappa = 0) lambda_k/2 <= rho_k for all k and rho_2 <= sqrt(2 lambda_2).

    The lambda-side records are emitted as skips when mu != d."""
    signed = g.is_signed()
    profile = _rho_all(g, g.n)
    mono_name = "monotonic_signed" if signed else "monotonic"
    records = []
    for k in range(1, g.n):
        records.append(
            CheckRecord.compare(mono_name, k, profile[k - 1].value, profile[k].value)
        )
    if signed or not g.mu_is_degree() or not g.kappa_is_zero():
        records.append(
            CheckRecord.skipped("eq1_left", "requires unsigned graph with mu = degree, kappa = 0")
        )
        return records
    spectrum = _checked_spectrum(g, functions=False)
    for k in range(1, g.n + 1):
        lam = _clamp_eigenvalue(spectrum.values[k - 1])
        records.append(
            CheckRecord.compare("eq1_left", k, lam / 2.0, profile[k - 1].value, meta={"lambda_k": lam})
        )
    # A valid graph has no isolated vertex, so n >= 2.
    lam2 = _clamp_eigenvalue(spectrum.values[1])
    records.append(
        CheckRecord.compare(
            "cheeger_upper", 2, profile[1].value, math.sqrt(2.0 * lam2), meta={"lambda_2": lam2}
        )
    )
    return records


# ---------------------------------------------------------------------------
# corpus runs

# Check name -> check(g, eps, seed); "product", the one pair check, is not
# here.  Each entry looks its check up by name when it runs, so a wrapper
# set on the module's attribute (a tracer's, or a test's) is the one called.
_CHECKS = {
    "main": lambda g, eps, seed: check_theorem_main(g),
    "nodal": lambda g, eps, seed: check_nodal_count_bounds(g, eps, seed),
    "nodal_cheeger": lambda g, eps, seed: check_lemma_nodal_cheeger(g, eps, seed),
    "lower": lambda g, eps, seed: check_lower_bound(g),
    "basics": lambda g, eps, seed: check_basics(g),
}
CHECK_NAMES = tuple(_CHECKS)


def _is_tuple_of(x, item) -> bool:
    return isinstance(x, tuple) and all(item(v) for v in x)


def _distinct(values) -> bool:
    """Whether no value repeats: a corpus config's families, sizes and
    checks, and verify's --checks, name each one once, so no instance name
    or record is made twice."""
    return len(set(values)) == len(values)


# Field of a corpus config -> (accepts the value, what it must be); p, the
# weight bounds and a are the generator's own rules, and a family, a
# measure name, the sizes and the weight range are checked against its
# table, so a config generate would refuse is refused before its first
# instance; a check is one of _CHECKS.  Sequences are checked as tuples;
# lists are turned into tuples first.
_CONFIG_RULES = {
    "families": (lambda v: bool(v) and _is_tuple_of(v, lambda x: isinstance(x, str) and x in _FAMILIES)
                 and _distinct(v), "a nonempty list of distinct family names"),
    "sizes": (lambda v: bool(v) and _is_tuple_of(v, lambda x: _is_int(x) and x >= 1) and _distinct(v),
              "a nonempty list of distinct integers >= 1"),
    "count": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "seed": (_is_int, "an integer"),
    "eps": _EPS_RULE,
    "p": _GENERATOR_RULES["p"],
    "w_low": _GENERATOR_RULES["w_low"],
    "w_high": _GENERATOR_RULES["w_high"],
    "mu": (lambda v: v in _MEASURES if isinstance(v, str) else _is_tuple_of(v, _is_finite_number),
           "a measure name or a list of finite numbers"),
    "a": _GENERATOR_RULES["a"],
    "signed": (lambda v: isinstance(v, bool), "true or false"),
    "checks": (lambda v: bool(v) and _is_tuple_of(v, lambda x: isinstance(x, str) and x in _CHECKS)
               and _distinct(v), "a nonempty list of distinct check names"),
}


@dataclass(frozen=True)
class CorpusConfig:
    """What to generate and which checks to run over it.

    Every field is checked on construction, before any instance is made:
    its type and range, a family and a measure name that the generator
    knows, a check of CHECK_NAMES, every size at or above each family's
    least n, a `mu` list as long as every instance's vertex count, and
    w_high >= w_low as `generate` resolves them.  A bad one raises
    ValueError naming it.  A list given for a sequence field is stored as
    a tuple.
    """

    families: tuple[str, ...] = ("random_connected",)
    sizes: tuple[int, ...] = (4, 5, 6, 7, 8, 9, 10)
    count: int = 20
    seed: int = DEFAULT_SEED
    eps: float = 0.05
    p: float = 0.3
    w_low: float | None = None
    w_high: float | None = None
    mu: str | tuple[float, ...] = "degree"
    a: float = 1.1
    signed: bool = False
    checks: tuple[str, ...] = ("main", "basics")

    def __post_init__(self):
        for key, (accepts, want) in _CONFIG_RULES.items():
            value = getattr(self, key)
            if isinstance(value, list):
                value = tuple(value)
                object.__setattr__(self, key, value)
            if not accepts(value):
                # Tuples are shown as the JSON lists they are written as; a
                # rule that accepts None names it as JSON's null.
                shown = list(value) if isinstance(value, tuple) else value
                null = " or null" if accepts(None) else ""
                raise ValueError(f"bad corpus config: {key!r} must be {want}{null}, got {shown!r}")
        for family in self.families:
            least = _FAMILIES[family].min_n
            if min(self.sizes) < least:
                raise ValueError(f"bad corpus config: 'sizes' must be >= {least} for {family}, "
                                 f"got {list(self.sizes)!r}")
            if not isinstance(self.mu, str):
                for n in self.sizes:
                    count = _FAMILIES[family].vertex_count(n)
                    if count != len(self.mu):
                        raise ValueError(f"bad corpus config: 'mu' has length {len(self.mu)}, "
                                         f"but {family} at size {n} has {count} vertices")
        try:
            _weight_range(self.w_low, self.w_high, False)
        except ValueError as exc:
            raise ValueError(f"bad corpus config: {exc}") from None

    @staticmethod
    def from_json_dict(data: dict) -> "CorpusConfig":
        """Config from a parsed JSON object: anything but an object, and
        unknown keys, are refused.  The fields are checked on construction."""
        if not isinstance(data, dict):
            raise ValueError(f"bad corpus config: must be a JSON object, not {type(data).__name__}")
        for key in data:
            if key not in _CONFIG_RULES:
                raise ValueError(f"bad corpus config: unknown key {key!r}")
        return CorpusConfig(**data)


def corpus_instances(cfg: CorpusConfig) -> Iterator[tuple[str, partial]]:
    """The deterministic instances of a corpus configuration, each a name
    and a zero-argument builder that makes the graph when called (and
    raises ValueError where the generator refuses it): one per size for a
    deterministic family, and `count` for a random one, each at a size
    drawn from `sizes`.  Every draw is taken when the name is, so an
    instance's graph does not depend on whether another one was built."""
    counter = 0
    for family in cfg.families:
        if not _FAMILIES[family].random:
            for n in cfg.sizes:
                yield f"{family}-n{n}", partial(_instance, cfg, family, n, cfg.seed, derive_seed(cfg.seed, counter))
                counter += 1
        else:
            for i in range(cfg.count):
                rng = SplitMix64(derive_seed(cfg.seed, counter))
                n = cfg.sizes[rng.randint(len(cfg.sizes))]
                yield f"{family}-{i:03d}-n{n}", partial(_instance, cfg, family, n, rng.next_u64(), rng.next_u64())
                counter += 1


def _instance(cfg: CorpusConfig, family: str, n: int, seed: int, sign_seed: int) -> WeightedGraph:
    """The graph of one corpus instance: generate's, signed by
    with_random_signature(g, sign_seed) in a signed corpus."""
    if _FAMILIES[family].random:
        g = generate(family, n, seed, p=cfg.p, w_low=cfg.w_low, w_high=cfg.w_high, mu=cfg.mu)
    else:
        g = generate(family, n, seed, a=cfg.a, mu=cfg.mu)
    return with_random_signature(g, sign_seed) if cfg.signed else g


def run_checks_on_graph(
    instance: str,
    g: WeightedGraph,
    checks,
    eps: float,
    seed: int,
    with_graph: WeightedGraph | None = None,
    product_k: int = 1,
):
    """Run named checks on one graph; returns (rows, errors) in the order
    of `checks`.

    "product" checks g x with_graph at factor index product_k.  A check
    whose hypotheses fail gives one skipped record; one that raises
    NonGenericError, ValueError or RuntimeError gives the error
    "<check>: <message>" and no records.
    """
    rows = []
    errors = []
    for name in checks:
        try:
            if name == "product":
                if with_graph is None:
                    raise ValueError("the product check needs a second factor (with_graph)")
                records = [check_product_theorem(g, with_graph, product_k, eps, seed)]
            elif name in _CHECKS:
                records = _CHECKS[name](g, eps, seed)
            else:
                raise ValueError(f"unknown check {name!r}")
        except HypothesisViolation as exc:
            records = [CheckRecord.skipped(name, str(exc))]
        except (NonGenericError, ValueError, RuntimeError) as exc:
            errors.append((instance, f"{name}: {exc}"))
            continue
        rows.extend((instance, rec) for rec in records)
    return rows, errors


@dataclass
class Report:
    """Sorted CheckRecord table with a holds/violations/skips summary.

    The rows (by instance, check name, k) and the errors are sorted in
    place, and the summary counted, when the report is made.
    """

    rows: list[tuple[str, CheckRecord]]
    errors: list[tuple[str, str]]
    _summary: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rows.sort(key=lambda row: (row[0], row[1].name, row[1].k))
        self.errors.sort()
        holds = violations = 0
        for _, r in self.rows:
            if r.holds is True:
                holds += 1
            elif r.holds is False:
                violations += 1
        self._summary = {
            "errors": len(self.errors),
            "holds": holds,
            "records": len(self.rows),
            "skipped": len(self.rows) - holds - violations,
            "violations": violations,
        }

    def summary(self) -> dict:
        return self._summary

    def all_hold(self) -> bool:
        s = self.summary()
        return s["violations"] == 0 and s["errors"] == 0

    def to_json_dict(self) -> dict:
        # Each row is the record's fields and "instance", in key order; a
        # skipped record's NaN sides are written as null, as strict JSON.
        return {
            "errors": [list(e) for e in self.errors],
            "records": [
                {
                    "holds": rec.holds,
                    "instance": instance,
                    "k": rec.k,
                    "lhs": None if rec.holds is None else rec.lhs,
                    "margin": None if rec.holds is None else rec.margin,
                    "meta": rec.meta,
                    "name": rec.name,
                    "rhs": None if rec.holds is None else rec.rhs,
                }
                for instance, rec in self.rows
            ],
            "summary": self.summary(),
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("instance,check,k,lhs,rhs,margin,holds\n")
        for instance, rec in self.rows:
            if rec.holds is None:
                holds = "skipped"
                lhs = rhs = margin = ""
            else:
                holds = "true" if rec.holds else "false"
                lhs, rhs, margin = repr(rec.lhs), repr(rec.rhs), repr(rec.margin)
            buf.write(f"{instance},{rec.name},{rec.k},{lhs},{rhs},{margin},{holds}\n")
        return buf.getvalue()


def run_corpus(cfg: CorpusConfig) -> Report:
    """Generate the corpus and run the selected checks on every instance.

    Each instance is made as its checks start and freed, with everything
    held with it, before the next is made.  Per-instance errors (a graph the
    generator refuses, such as one whose measure products overflow,
    non-generic seeds, graphs beyond the exact engine's work policy) are
    collected rather than aborting: a refused graph is its instance's one
    error, and the later instances keep their names, graphs and seeds.  The
    report is sorted so the result is independent of evaluation order.
    """
    rows: list[tuple[str, CheckRecord]] = []
    errors: list[tuple[str, str]] = []
    for idx, (instance, build) in enumerate(corpus_instances(cfg)):
        try:
            g = build()
        except ValueError as exc:
            errors.append((instance, str(exc)))
            continue
        seed = derive_seed(cfg.seed, 1_000_003 + idx)
        new_rows, new_errors = run_checks_on_graph(instance, g, cfg.checks, cfg.eps, seed)
        rows.extend(new_rows)
        errors.extend(new_errors)
    return Report(rows=rows, errors=errors)
