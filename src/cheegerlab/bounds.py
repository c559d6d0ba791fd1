"""Verification harness: each proved inequality becomes an executable check.

Every check takes a graph (or pair), recomputes both sides of the
inequality from scratch, and emits CheckRecords with enough metadata to
reproduce the comparison.  The underlying statements are theorems, so a
failed record always means an implementation bug; hypothesis mismatches
raise :class:`HypothesisViolation` instead and are reported as skips.
"""

import io
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .cheeger import (
    BudgetExceededError,
    PartitionCertificate,
    SearchBudget,
    _dp_answers,
    rho_exact,
    rho_profile,
    rho_signed_exact,
    rho_signed_profile,
    rho_upper_nodal_sweep,
)
from .graph import (
    WeightedGraph,
    classify,
    cyclomatic,
    degree_profile,
    generate,
    is_complete,
    product,
    require_valid,
    with_random_signature,
)
from .nodal import strong_nodal, weak_nodal
from .perturb import GenericityReport, perturb
from .rng import DEFAULT_SEED, SplitMix64, derive_seed
from .spectral import Spectrum, adjacency_eta, laplacian_spectrum, with_functions

TOL_SCALE = 1e-9       # inequality slack: 1e-9 * max(1, rhs)
EIG_CLAMP = 1e-10      # eigenvalues in [-1e-10, 0) are solver dust; clamp to 0


class HypothesisViolation(ValueError):
    """The check's hypotheses do not hold for this input (skip, not fail)."""


class NonGenericError(RuntimeError):
    """A perturbed instance failed the genericity assertion; try another seed."""


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
        return CheckRecord(
            name=name,
            k=k,
            lhs=lhs,
            rhs=rhs,
            margin=rhs - lhs,
            holds=lhs <= rhs + inequality_tol(rhs),
            meta=meta or {},
        )

    @staticmethod
    def skipped(name: str, reason: str) -> "CheckRecord":
        return CheckRecord(
            name=name,
            k=0,
            lhs=math.nan,
            rhs=math.nan,
            margin=math.nan,
            holds=None,
            meta={"skipped": reason},
        )

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "holds": self.holds,
            "meta": self.meta,
        }


# Profiles and spectra are pure functions of the (hashable) graph, and the
# corpus checks revisit the same instances; cache them.  The `_spectrum`
# entry of g also holds the perturbed instance perturb(g, eps, seed) that
# the `nodal` and `nodal_cheeger` checks both read, so it is built and
# solved once per instance.  Only those two checks read eigenfunctions;
# every other check reads values.


class _Solved:
    """The spectrum of L(g) and of its perturbed instances.

    The instance's own eigenvalues always come from the Jacobi solver,
    whichever check asks first; a request for functions adds them to the
    held values-only spectrum (one LAPACK call, no second eigenvalue
    solve).  A perturbed instance, whose eigenvalues no exact check pins,
    takes its values and functions from one LAPACK call.
    """

    __slots__ = ("g", "spectrum", "_perturbed")

    def __init__(self, g: WeightedGraph):
        self.g = g
        self.spectrum = None
        self._perturbed = None  # (eps, seed, perturbed graph, its spectrum)

    def get(self, functions: bool) -> Spectrum:
        s = self.spectrum
        if s is None:
            s = self.spectrum = laplacian_spectrum(self.g, functions=False)
        if functions and s.functions is None:
            s = self.spectrum = with_functions(self.g, s)
        return s

    def perturbed(self, eps: float, seed: int) -> tuple[WeightedGraph, Spectrum]:
        """(perturb(g, eps, seed), its spectrum with eigenfunctions); at
        eps = 0, g itself with `get(functions=True)`.

        Only the latest (eps, seed) is held: the two nodal checks of an
        instance ask for the same one in turn, and a caller sweeping seeds
        over one cached graph would otherwise keep every instance alive.
        """
        if eps == 0:
            return self.g, self.get(functions=True)
        held = self._perturbed
        if held is None or held[0] != eps or held[1] != seed:
            gp = perturb(self.g, eps, seed)
            held = self._perturbed = (eps, seed, gp, laplacian_spectrum(gp))
        return held[2], held[3]


@lru_cache(maxsize=2048)
def _spectrum(g: WeightedGraph) -> _Solved:
    return _Solved(g)


@lru_cache(maxsize=2048)
def _profile_dp(g: WeightedGraph):
    return rho_profile(g)


@lru_cache(maxsize=2048)
def _signed_profile_dp(g: WeightedGraph):
    return rho_signed_profile(g)


def _rho_all(g: WeightedGraph, kmax: int, budget: SearchBudget | None, signed: bool) -> tuple[PartitionCertificate, ...]:
    """Exact certificates for k = 1..kmax from the engine cheeger's size
    policy picks.

    Where the DP answers, one cached all-k profile serves every check of
    the instance (rho_exact per k would run a profile per k).  Beyond it
    each k runs the budgeted branch-and-bound search through rho_exact;
    the first budget overflow aborts the instance (the caller reports it
    as a per-instance error).  Graphs that large are outside the
    harness's brute-force scale.
    """
    if _dp_answers(g.n, signed):
        profile = _signed_profile_dp(g) if signed else _profile_dp(g)
        return profile[:kmax]
    search = rho_signed_exact if signed else rho_exact
    return tuple(search(g, k, budget) for k in range(1, kmax + 1))


def check_theorem_main(g: WeightedGraph, budget: SearchBudget | None = None) -> list[CheckRecord]:
    """rho_{k-l} <= sqrt(2 tau lambda_k) for every k with k - l >= 1.

    Works on signed and unsigned graphs (signed constants and spectrum in
    the signed case).  Requires a connected graph with kappa >= 0.
    """
    require_valid(g)
    if not classify(g).is_connected:
        raise HypothesisViolation("requires a connected graph")
    if any(kap < 0 for kap in g.kappa):
        raise HypothesisViolation("requires kappa >= 0")
    signed = g.is_signed()
    spectrum = _spectrum(g).get(functions=False)
    ell = cyclomatic(g)
    tau = degree_profile(g).tau
    kmax = g.n - ell
    if kmax < 1:
        return []
    profile = _rho_all(g, kmax, budget, signed)
    name = "main_signed" if signed else "main"
    records = []
    for k in range(ell + 1, g.n + 1):
        j = k - ell
        lam = _clamp_eigenvalue(spectrum.values[k - 1])
        rhs = math.sqrt(2.0 * tau * lam)
        cert = profile[j - 1]
        records.append(
            CheckRecord.compare(
                name,
                k,
                cert.value,
                rhs,
                meta={
                    "j": j,
                    "ell": ell,
                    "tau": tau,
                    "lambda_k": lam,
                    "certificate": cert.to_json_dict(),
                },
            )
        )
    return records


def check_nodal_count_bounds(g: WeightedGraph, eps: float, seed: int) -> list[CheckRecord]:
    """Nodal-count sandwich on one generic perturbation of g.

    Perturbs once, asserts simplicity and zero-freeness, then records for
    every eigenvalue block (start k, multiplicity r):
    k + r - 1 - l <= S(f) <= k + r - 1 and W(f) <= k + c - 1 (c = 1).
    """
    require_valid(g)
    if g.is_signed():
        raise HypothesisViolation("nodal count bounds are checked on unsigned graphs")
    if not classify(g).is_connected:
        raise HypothesisViolation("requires a connected graph")
    gp, spectrum = _spectrum(g).perturbed(eps, seed)
    report = GenericityReport.of(spectrum)
    if not (report.simple and report.zero_free):
        raise NonGenericError(
            f"perturbed instance is not generic (min_gap={report.min_gap:.3e}, "
            f"min_abs_entry={report.min_abs_entry:.3e}); try another seed"
        )
    ell = cyclomatic(gp)
    records = []
    for k in range(1, g.n + 1):
        start, mult = spectrum.multiplicity_block(k)
        kb = start + 1
        f = spectrum.function(k)
        strong = strong_nodal(gp, f, zero_tol=0.0).count
        weak = weak_nodal(gp, f, zero_tol=0.0).count
        meta = {"ell": ell, "r": mult, "strong": strong, "weak": weak, "eps": eps, "seed": seed}
        records.append(CheckRecord.compare("nodal_lower", k, kb + mult - 1 - ell, strong, meta))
        records.append(CheckRecord.compare("nodal_strong_upper", k, strong, kb + mult - 1, meta))
        records.append(CheckRecord.compare("nodal_weak_upper", k, weak, kb, meta))
    return records


def check_lemma_nodal_cheeger(
    g: WeightedGraph, eps: float, seed: int, budget: SearchBudget | None = None
) -> list[CheckRecord]:
    """rho_m <= sqrt(2 tau lambda_k) with m = S(f_k), for every eigenpair.

    Runs on g itself when eps = 0, else on a seeded perturbation.  The
    nodal-sweep upper bound for each eigenfunction rides along in meta.
    """
    require_valid(g)
    if g.is_signed():
        raise HypothesisViolation("requires an unsigned graph")
    if any(kap < 0 for kap in g.kappa):
        raise HypothesisViolation("requires kappa >= 0")
    h, spectrum = _spectrum(g).perturbed(eps, seed)
    tau = degree_profile(h).tau
    profile = _rho_all(h, h.n, budget, signed=False)
    records = []
    for k in range(1, h.n + 1):
        f = spectrum.function(k)
        sweep = rho_upper_nodal_sweep(h, f)
        m = sweep.m
        lam = _clamp_eigenvalue(spectrum.values[k - 1])
        rhs = math.sqrt(2.0 * tau * lam)
        cert = profile[m - 1]
        records.append(
            CheckRecord.compare(
                "nodal_cheeger",
                k,
                cert.value,
                rhs,
                meta={
                    "m": m,
                    "tau": tau,
                    "lambda_k": lam,
                    "sweep_bound": sweep.bound,
                    "eps": eps,
                    "certificate": cert.to_json_dict(),
                },
            )
        )
    return records


def check_lower_bound(g: WeightedGraph, budget: SearchBudget | None = None) -> list[CheckRecord]:
    """(tau_min - eta)(1 - 1/k) <= rho_k for k >= 2; plus the spectral-gap
    corollary form min(lambda_2, 2 - lambda_n)(1 - 1/k) when mu = d and the
    graph is not complete."""
    require_valid(g)
    if g.is_signed():
        raise HypothesisViolation("requires an unsigned graph")
    if not g.kappa_is_zero():
        raise HypothesisViolation("requires kappa == 0")
    if g.n < 3:
        raise HypothesisViolation("requires at least 3 vertices")
    eta = adjacency_eta(g)
    prof = degree_profile(g)
    profile = _rho_all(g, g.n, budget, signed=False)
    records = []
    for k in range(2, g.n + 1):
        lhs = (prof.tau_min - eta.eta) * (1.0 - 1.0 / k)
        cert = profile[k - 1]
        records.append(
            CheckRecord.compare(
                "lower_eta",
                k,
                lhs,
                cert.value,
                meta={
                    "eta": eta.eta,
                    "tau_min": prof.tau_min,
                    "certificate": cert.to_json_dict(),
                },
            )
        )
    if g.mu_is_degree() and not is_complete(g):
        spectrum = _spectrum(g).get(functions=False)
        gap = min(spectrum.values[1], 2.0 - spectrum.values[-1])
        for k in range(2, g.n + 1):
            lhs = gap * (1.0 - 1.0 / k)
            cert = profile[k - 1]
            records.append(
                CheckRecord.compare(
                    "lower_gap",
                    k,
                    lhs,
                    cert.value,
                    meta={"lambda_2": spectrum.values[1], "lambda_n": spectrum.values[-1]},
                )
            )
    return records


def check_product_theorem(
    g1: WeightedGraph,
    g2: WeightedGraph,
    k: int,
    eps: float = 0.0,
    seed: int = DEFAULT_SEED,
    budget: SearchBudget | None = None,
) -> CheckRecord:
    """rho_{k n2}(G1 x G2) <= sqrt(2 tau lambda_{k n2}) for a tree G1 and
    bipartite G2 under the spectral-gap hypothesis lambda^(2)_max <
    lambda^(1)_{k+1} - lambda^(1)_k.

    Both factors need unit measure and kappa >= 0.  With eps > 0 the tree
    factor is perturbed first (making the gap hypothesis generic); the gap
    is then measured on the perturbed factor.  Meta records how far the
    product eigenvalue sits from lambda^(1)_k + lambda^(2)_max.
    """
    for h, role in ((g1, "factor 1"), (g2, "factor 2")):
        require_valid(h)
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
    h1 = perturb(g1, eps, seed) if eps > 0 else g1
    s1 = laplacian_spectrum(h1, functions=False)
    s2 = laplacian_spectrum(g2, functions=False)
    gap = s1.values[k] - s1.values[k - 1]
    lam2_max = s2.values[-1]
    if not lam2_max < gap:
        raise HypothesisViolation(
            f"gap hypothesis fails: lambda2_max={lam2_max:.6g} >= "
            f"lambda1_{k + 1}-lambda1_{k}={gap:.6g}"
        )
    gp = product(h1, g2)
    sp = _spectrum(gp).get(functions=False)
    index = k * g2.n
    lam = _clamp_eigenvalue(sp.values[index - 1])
    tau = degree_profile(gp).tau
    sum_err = abs(sp.values[index - 1] - (s1.values[k - 1] + lam2_max))
    cert = _rho_all(gp, index, budget, signed=False)[index - 1]
    rhs = math.sqrt(2.0 * tau * lam)
    return CheckRecord.compare(
        "product",
        index,
        cert.value,
        rhs,
        meta={
            "k_factor": k,
            "n2": g2.n,
            "gap": gap,
            "lambda2_max": lam2_max,
            "lambda_index": lam,
            "eigensum_error": sum_err,
            "tau": tau,
            "eps": eps,
            "certificate": cert.to_json_dict(),
        },
    )


def check_basics(g: WeightedGraph, budget: SearchBudget | None = None) -> list[CheckRecord]:
    """Monotonicity rho_k <= rho_{k+1} everywhere, plus (when mu = d and
    kappa = 0) lambda_k/2 <= rho_k for all k and rho_2 <= sqrt(2 lambda_2).

    The lambda-side records are emitted as skips when mu != d."""
    require_valid(g)
    signed = g.is_signed()
    profile = _rho_all(g, g.n, budget, signed)
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
    spectrum = _spectrum(g).get(functions=False)
    for k in range(1, g.n + 1):
        lam = _clamp_eigenvalue(spectrum.values[k - 1])
        records.append(
            CheckRecord.compare("eq1_left", k, lam / 2.0, profile[k - 1].value, meta={"lambda_k": lam})
        )
    if g.n >= 2:
        lam2 = _clamp_eigenvalue(spectrum.values[1])
        records.append(
            CheckRecord.compare(
                "cheeger_upper", 2, profile[1].value, math.sqrt(2.0 * lam2), meta={"lambda_2": lam2}
            )
        )
    return records


# ---------------------------------------------------------------------------
# corpus runs

CHECK_NAMES = ("main", "nodal", "nodal_cheeger", "lower", "basics")
_DETERMINISTIC_FAMILIES = ("path", "cycle", "star", "complete", "gn")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_tuple_of(x, item) -> bool:
    return isinstance(x, tuple) and all(item(v) for v in x)


# Field of a corpus config -> (accepts the value, what it must be).
# Sequences are checked as tuples; lists are turned into tuples first.
_CONFIG_RULES = {
    "families": (lambda v: bool(v) and _is_tuple_of(v, lambda x: isinstance(x, str)),
                 "a nonempty list of family names"),
    "sizes": (lambda v: bool(v) and _is_tuple_of(v, lambda x: _is_int(x) and x >= 1),
              "a nonempty list of integers >= 1"),
    "count": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "seed": (_is_int, "an integer"),
    "eps": (lambda v: _is_number(v) and v >= 0, "a finite number >= 0"),
    "p": (lambda v: _is_number(v) and 0 <= v <= 1, "a finite number in [0, 1]"),
    "w_low": (lambda v: v is None or (_is_number(v) and v > 0), "a finite number > 0 or null"),
    "w_high": (lambda v: v is None or (_is_number(v) and v > 0), "a finite number > 0 or null"),
    "mu": (lambda v: isinstance(v, str) or _is_tuple_of(v, _is_number),
           "a measure name or a list of finite numbers"),
    "a": (lambda v: _is_number(v) and v > 0, "a finite number > 0"),
    "signed": (lambda v: isinstance(v, bool), "true or false"),
    "checks": (lambda v: _is_tuple_of(v, lambda x: isinstance(x, str)), "a list of check names"),
    "budget": (lambda v: isinstance(v, SearchBudget), "an object"),
}


@dataclass(frozen=True)
class CorpusConfig:
    """What to generate and which checks to run over it.

    Every field is checked for type and range on construction; a bad one
    raises ValueError naming it.  A list given for a sequence field is
    stored as a tuple.
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
    budget: SearchBudget = SearchBudget()

    def __post_init__(self):
        for key, (accepts, want) in _CONFIG_RULES.items():
            value = getattr(self, key)
            if isinstance(value, list):
                value = tuple(value)
                object.__setattr__(self, key, value)
            if not accepts(value):
                # Tuples are shown as the JSON lists they are written as.
                shown = list(value) if isinstance(value, tuple) else value
                raise ValueError(f"bad corpus config: {key!r} must be {want}, got {shown!r}")
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise ValueError(f"unknown check {name!r}; known: {CHECK_NAMES}")

    @staticmethod
    def from_json_dict(data: dict) -> "CorpusConfig":
        """Config from a parsed JSON object: anything but an object, and
        unknown keys, are refused; `budget` is an object of SearchBudget's
        fields.  The fields are checked on construction."""
        if not isinstance(data, dict):
            raise ValueError(f"bad corpus config: must be a JSON object, not {type(data).__name__}")
        for key in data:
            if key not in _CONFIG_RULES:
                raise ValueError(f"bad corpus config: unknown key {key!r}")
        kwargs = dict(data)
        if isinstance(kwargs.get("budget"), dict):
            try:
                kwargs["budget"] = SearchBudget(**kwargs["budget"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad corpus config: 'budget': {exc}") from exc
        return CorpusConfig(**kwargs)


def corpus_instances(cfg: CorpusConfig) -> list[tuple[str, WeightedGraph]]:
    """Deterministic instance list for a corpus configuration."""
    out = []
    counter = 0
    for family in cfg.families:
        if family in _DETERMINISTIC_FAMILIES:
            for n in cfg.sizes:
                g = generate(family, n, cfg.seed, a=cfg.a, mu=cfg.mu)
                if cfg.signed:
                    g = with_random_signature(g, derive_seed(cfg.seed, counter))
                out.append((f"{family}-n{n}", g))
                counter += 1
        else:
            for i in range(cfg.count):
                rng = SplitMix64(derive_seed(cfg.seed, counter))
                n = cfg.sizes[rng.randint(len(cfg.sizes))]
                g = generate(
                    family,
                    n,
                    rng.next_u64(),
                    p=cfg.p,
                    w_low=cfg.w_low,
                    w_high=cfg.w_high,
                    mu=cfg.mu,
                )
                if cfg.signed:
                    g = with_random_signature(g, rng.next_u64())
                out.append((f"{family}-{i:03d}-n{n}", g))
                counter += 1
    return out


def _run_check(name: str, g: WeightedGraph, eps: float, seed: int, budget: SearchBudget | None):
    if name == "main":
        return check_theorem_main(g, budget)
    if name == "nodal":
        return check_nodal_count_bounds(g, eps, seed)
    if name == "nodal_cheeger":
        return check_lemma_nodal_cheeger(g, eps, seed, budget)
    if name == "lower":
        return check_lower_bound(g, budget)
    if name == "basics":
        return check_basics(g, budget)
    raise ValueError(f"unknown check {name!r}")


def run_checks_on_graph(
    instance: str,
    g: WeightedGraph,
    checks,
    eps: float,
    seed: int,
    budget: SearchBudget | None = None,
):
    """Run named checks on one graph; returns (rows, errors) in the order
    of `checks`."""
    rows = []
    errors = []
    for name in checks:
        try:
            records = _run_check(name, g, eps, seed, budget)
        except HypothesisViolation as exc:
            records = [CheckRecord.skipped(name, str(exc))]
        except (NonGenericError, BudgetExceededError, ValueError, RuntimeError) as exc:
            errors.append((instance, f"{name}: {exc}"))
            continue
        rows.extend((instance, rec) for rec in records)
    return rows, errors


@dataclass
class Report:
    """Sorted CheckRecord table with a holds/violations/skips summary."""

    rows: list[tuple[str, CheckRecord]]
    errors: list[tuple[str, str]]

    def sort(self) -> None:
        self.rows.sort(key=lambda row: (row[0], row[1].name, row[1].k))
        self.errors.sort()

    def summary(self) -> dict:
        holds = sum(1 for _, r in self.rows if r.holds is True)
        violations = sum(1 for _, r in self.rows if r.holds is False)
        skipped = sum(1 for _, r in self.rows if r.holds is None)
        return {
            "records": len(self.rows),
            "holds": holds,
            "violations": violations,
            "skipped": skipped,
            "errors": len(self.errors),
        }

    def all_hold(self) -> bool:
        s = self.summary()
        return s["violations"] == 0 and s["errors"] == 0

    def violations(self) -> list[tuple[str, CheckRecord]]:
        return [(i, r) for i, r in self.rows if r.holds is False]

    def to_json_dict(self) -> dict:
        return {
            "summary": self.summary(),
            "records": [
                dict(instance=instance, **rec.to_json_dict()) for instance, rec in self.rows
            ],
            "errors": [list(e) for e in self.errors],
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

    Per-instance errors (non-generic seeds, budget overflows) are collected
    rather than aborting; the report is sorted so the result is independent
    of evaluation order.
    """
    rows: list[tuple[str, CheckRecord]] = []
    errors: list[tuple[str, str]] = []
    for idx, (instance, g) in enumerate(corpus_instances(cfg)):
        seed = derive_seed(cfg.seed, 1_000_003 + idx)
        new_rows, new_errors = run_checks_on_graph(instance, g, cfg.checks, cfg.eps, seed, cfg.budget)
        rows.extend(new_rows)
        errors.extend(new_errors)
    report = Report(rows=rows, errors=errors)
    report.sort()
    return report
