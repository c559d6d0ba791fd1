"""The checks as a test oracle: the seeded-fault census, pinned on its
corpora (n = 4..10, 40 instances each).

- Nineteen faults of the unsigned inputs, each a monkeypatch of one name
  that `bounds` reads, on four unsigned corpora, each run with the checks
  that read that name (every check, for a name most checks read): the
  names of the records each fault breaks, and the instances where the
  `nodal` check refuses.  A fault that breaks nothing survives; it still
  changes the records, so a change that makes it catchable shows here.
- `nodal_weak_upper` equals `nodal_strong_upper` record for record: the
  `nodal` check runs only on zero-free eigenfunctions, where every weak
  nodal domain is a strong one.
- Two faults of the signed engine survive a signed corpus: no signed record
  bounds rho^sigma from below, so a signed engine that scores Phi instead of
  beta, or a signed spectrum replaced by the unsigned one, breaks no record.
  A lower-side signed record would catch both; then these verdicts change.

Each fault is a monkeypatch of the one name of `bounds` that the checks
read, and is shown to change the records it touches.
"""

import functools
from dataclasses import replace

import pytest

from cheegerlab import CorpusConfig, WeightedGraph, bounds, run_corpus
from cheegerlab.bounds import _checked_spectrum
from cheegerlab.cheeger import rho_profile, rho_upper_nodal_sweep
from cheegerlab.graph import cyclomatic, degree_profile
from cheegerlab.nodal import strong_nodal
from cheegerlab.spectral import adjacency_eta, laplacian_spectrum

CORPUS = {"families": ["random_connected"], "sizes": list(range(4, 11)), "count": 40}

UNSIGNED_CORPORA = {
    "p0.3": {**CORPUS, "p": 0.3},
    "p0.6": {**CORPUS, "p": 0.6},
    "tree": {**CORPUS, "families": ["random_tree"]},
    "p0.3-unit": {**CORPUS, "p": 0.3, "mu": "unit"},
}

SIGNED_CORPUS = {**CORPUS, "p": 0.3, "signed": True, "checks": ["main", "basics"]}


def report(config: dict):
    return run_corpus(CorpusConfig(**config))


def unsigned(g: WeightedGraph) -> WeightedGraph:
    """g with every sign +1."""
    return WeightedGraph.build(g.n, [e[:3] for e in g.edges], mu=g.mu, kappa=g.kappa)


def unit_measure(g: WeightedGraph) -> WeightedGraph:
    """g with every vertex measure 1."""
    return WeightedGraph.build(g.n, g.edges, mu=(1.0,) * g.n, kappa=g.kappa)


ALL = bounds.CHECK_NAMES


def checked(corpus: str, checks: tuple):
    return report({**UNSIGNED_CORPORA[corpus], "checks": list(checks)})


# The fault-free reports, each run once and read by every test of its
# corpus and checks.
clean_report = functools.cache(checked)


@pytest.mark.parametrize("corpus", UNSIGNED_CORPORA)
def test_weak_nodal_bound_repeats_the_strong_one(corpus):
    rows = clean_report(corpus, ALL).rows

    def records(name):
        return [(instance, r.k, r.lhs, r.holds) for instance, r in rows if r.name == name]

    strong = records("nodal_strong_upper")
    assert strong
    assert records("nodal_weak_upper") == strong


def shifted(values: tuple, step: int) -> tuple:
    """values[k] read as values[k + step], step = +-1; the end that has no
    neighbour repeats its own value."""
    return values[1:] + values[-1:] if step > 0 else values[:1] + values[:-1]


def shifted_rho(step: int):
    def profile(g, kmax=None):
        return shifted(rho_profile(g), step)[:kmax]
    return profile


def scaled_rho(factor: float):
    def profile(g, kmax=None):
        return tuple(replace(cert, value=cert.value * factor) for cert in rho_profile(g, kmax))
    return profile


def shifted_lambda(step: int):
    def spectrum(g, functions=True):
        s = laplacian_spectrum(g, functions=functions)
        return replace(s, values=shifted(s.values, step))
    return spectrum


def shifted_functions(step: int):
    """f_k read as f_{k + step} in every spectrum the checks read."""
    def spectrum(g, functions):
        s = _checked_spectrum(g, functions)
        if s.functions is None:
            return s
        return replace(s, functions=s.functions[list(shifted(tuple(range(g.n)), step))])
    return spectrum


def tau_read_as_tau_min(g):
    profile = degree_profile(g)
    return replace(profile, tau=profile.tau_min)


def scaled_eta(factor: float):
    def eta(g):
        result = adjacency_eta(g)
        return replace(result, eta=result.eta * factor)
    return eta


def nodal_count(step: int):
    def decompose(g, f, zero_tol=None):
        d = strong_nodal(g, f, zero_tol)
        return replace(d, count=d.count + step)
    return decompose


def sweep_m(step: int):
    """The sweep's m off by step, kept in [1, n]: m + 1 = n + 1 would index
    past the profile (an IndexError that aborts `run_corpus`), and m - 1 = 0
    would read rho_n as profile[-1]."""
    def sweep(g, f):
        cert = rho_upper_nodal_sweep(g, f)
        return replace(cert, k=min(max(cert.k + step, 1), g.n))
    return sweep


UPPER = {"main", "nodal_cheeger", "cheeger_upper"}
LOWER = {"eq1_left", "lower_eta", "lower_gap"}
NODAL_UPPER = {"nodal_strong_upper", "nodal_weak_upper"}


def verdict(broken: set, tree: set | None = None, unit: set = frozenset()) -> dict:
    """The names of the records a fault breaks on each corpus: `broken` on
    the two random graphs at mu = degree, `tree` (default `broken`) on
    trees, `unit` at unit mu, where `cheeger_upper`, `eq1_left` and
    `lower_gap` are skipped."""
    return {"p0.3": broken, "p0.6": broken, "tree": broken if tree is None else tree, "p0.3-unit": unit}


def everywhere(broken: set) -> dict:
    """A fault that breaks the same records on all four corpora."""
    return verdict(broken, unit=broken)


# The checks that read a name of `bounds` that only some checks read; only
# they run under its faults.  `lower` reads tau_min, not tau, of the degree
# profile; the checks other than `nodal` and `nodal_cheeger` read the
# spectrum without its functions.
READ_BY = {
    "degree_profile": ("main", "nodal_cheeger"),
    "adjacency_eta": ("lower",),
    "strong_nodal": ("nodal",),
    "_checked_spectrum": ("nodal", "nodal_cheeger"),
    "rho_upper_nodal_sweep": ("nodal_cheeger",),
}

# fault: (the name of `bounds` it replaces, the replacement, its verdict)
CENSUS = {
    "rho_k<-rho_k+1": ("rho_profile", shifted_rho(1), verdict(UPPER, unit={"main", "nodal_cheeger"})),
    "rho_k<-rho_k-1": ("rho_profile", shifted_rho(-1), verdict(LOWER, tree={"eq1_left"})),
    "lambda_k<-lambda_k+1": ("laplacian_spectrum", shifted_lambda(1), verdict({"eq1_left"})),
    "lambda_k<-lambda_k-1": (
        "laplacian_spectrum", shifted_lambda(-1), verdict(UPPER, unit={"main", "nodal_cheeger"})
    ),
    # On a tree ell = 0 already: these two change nothing there.
    "ell<-0": ("cyclomatic", lambda g: 0, verdict({"nodal_lower"}, tree=set(), unit={"nodal_lower"})),
    "ell<-ell-1": (
        "cyclomatic", lambda g: max(cyclomatic(g) - 1, 0),
        verdict({"nodal_lower"}, tree=set(), unit={"nodal_lower"}),
    ),
    # Survives: every record it touches gets weaker.
    "ell<-ell+1": ("cyclomatic", lambda g: cyclomatic(g) + 1, verdict(set())),
    # Survives: no upper record is tight (lhs/rhs <= 0.71).
    "rho*1.05": ("rho_profile", scaled_rho(1.05), verdict(set())),
    "rho*0.95": ("rho_profile", scaled_rho(0.95), verdict({"eq1_left"})),
    # Caught at unit mu only.  At mu = degree tau = tau_min = 1 on G, so only
    # `nodal_cheeger`, on the perturbed G' (whose degrees move and mu does
    # not), changes, and none of its records is tight enough to break.
    "tau<-tau_min": (
        "degree_profile", tau_read_as_tau_min, verdict(set(), unit={"main", "nodal_cheeger"})
    ),
    # Survives: every record it touches gets weaker.
    "eta*1.05": ("adjacency_eta", scaled_eta(1.05), verdict(set())),
    # Survives: no `lower_eta` record is tight (lhs/rhs <= 0.593).
    "eta*0.95": ("adjacency_eta", scaled_eta(0.95), verdict(set())),
    "S+1": ("strong_nodal", nodal_count(1), everywhere(NODAL_UPPER)),
    "S-1": ("strong_nodal", nodal_count(-1), everywhere({"nodal_lower"})),
    "f_k<-f_k+1": ("_checked_spectrum", shifted_functions(1), everywhere(NODAL_UPPER | {"nodal_cheeger"})),
    "f_k<-f_k-1": ("_checked_spectrum", shifted_functions(-1), everywhere({"nodal_lower"})),
    "m+1": ("rho_upper_nodal_sweep", sweep_m(1), everywhere({"nodal_cheeger"})),
    # Survives: every record it touches gets weaker.
    "m-1": ("rho_upper_nodal_sweep", sweep_m(-1), verdict(set())),
    # Phi scored under unit mu: nothing changes on the unit-mu corpus.
    "Phi<-Phi_unit": (
        "rho_profile", lambda g, kmax=None: rho_profile(unit_measure(g), kmax),
        verdict(UPPER, tree={"main", "nodal_cheeger"}),
    ),
}

# A shifted spectrum repeats an end eigenvalue, so the `nodal` check finds
# it not simple and refuses every instance.
NODAL_REFUSED = {"lambda_k<-lambda_k+1", "lambda_k<-lambda_k-1"}
UNCHANGED = {("ell<-0", "tree"), ("ell<-ell-1", "tree"), ("Phi<-Phi_unit", "p0.3-unit")}


@pytest.mark.parametrize("corpus", UNSIGNED_CORPORA)
@pytest.mark.parametrize("fault", CENSUS)
def test_census(fault, corpus, monkeypatch):
    name, replacement, broken = CENSUS[fault]
    checks = READ_BY.get(name, ALL)
    clean = clean_report(corpus, checks).to_json_dict()
    monkeypatch.setattr(bounds, name, replacement)
    faulted = checked(corpus, checks)
    assert (faulted.to_json_dict() != clean) == ((fault, corpus) not in UNCHANGED)
    assert {r.name for _, r in faulted.rows if r.holds is False} == broken[corpus]
    refusals = [message.split(",")[0] for _, message in faulted.errors]
    refused = "nodal: perturbed instance is not generic (min_gap=0.000e+00"
    assert refusals == ([refused] * 40 if fault in NODAL_REFUSED else [])


SIGNED_FAULTS = {
    # The signed engine scores every set by Phi, as on the unsigned graph.
    "phi-for-beta": ("rho_signed_profile", lambda g, kmax=None: rho_profile(unsigned(g), kmax)),
    # A signed graph's spectrum is its unsigned graph's.
    "unsigned-spectrum": (
        "laplacian_spectrum",
        lambda g, functions=True: laplacian_spectrum(unsigned(g), functions=functions),
    ),
}


@pytest.mark.parametrize("fault", SIGNED_FAULTS)
def test_signed_engine_faults_survive(fault, monkeypatch):
    def sides(rep):
        return [(instance, r.name, r.k, r.lhs, r.rhs) for instance, r in rep.rows]

    clean = report(SIGNED_CORPUS)
    monkeypatch.setattr(bounds, *SIGNED_FAULTS[fault])
    faulted = report(SIGNED_CORPUS)
    assert sides(faulted) != sides(clean)
    # Survives: no signed record bounds rho^sigma from below.
    assert faulted.summary()["violations"] == faulted.summary()["errors"] == 0
