"""The checks as a test oracle: the seeded-fault census, pinned on its
corpora (n = 4..10, 40 instances each).

- Nine faults of the unsigned inputs, each a monkeypatch of one name that
  `bounds` reads, on four unsigned corpora with every check: the names of
  the records each fault breaks, and the instances where the `nodal` check
  refuses.  A fault that breaks nothing survives; it still changes the
  records, so a change that makes it catchable shows here.
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
from cheegerlab.cheeger import rho_profile
from cheegerlab.graph import cyclomatic
from cheegerlab.spectral import laplacian_spectrum

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


def all_checks(corpus: str):
    return report({**UNSIGNED_CORPORA[corpus], "checks": list(bounds.CHECK_NAMES)})


# The fault-free reports, each run once and read by every test of its corpus.
clean_report = functools.cache(all_checks)


@pytest.mark.parametrize("corpus", UNSIGNED_CORPORA)
def test_weak_nodal_bound_repeats_the_strong_one(corpus):
    rows = clean_report(corpus).rows

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


UPPER = {"main", "nodal_cheeger", "cheeger_upper"}
LOWER = {"eq1_left", "lower_eta", "lower_gap"}


def verdict(broken: set, tree: set | None = None, unit: set = frozenset()) -> dict:
    """The names of the records a fault breaks on each corpus: `broken` on
    the two random graphs at mu = degree, `tree` (default `broken`) on
    trees, `unit` at unit mu, where `cheeger_upper`, `eq1_left` and
    `lower_gap` are skipped."""
    return {"p0.3": broken, "p0.6": broken, "tree": broken if tree is None else tree, "p0.3-unit": unit}


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
}

# A shifted spectrum repeats an end eigenvalue, so the `nodal` check finds
# it not simple and refuses every instance.
NODAL_REFUSED = {"lambda_k<-lambda_k+1", "lambda_k<-lambda_k-1"}
UNCHANGED = {("ell<-0", "tree"), ("ell<-ell-1", "tree")}


@pytest.mark.parametrize("corpus", UNSIGNED_CORPORA)
@pytest.mark.parametrize("fault", CENSUS)
def test_census(fault, corpus, monkeypatch):
    name, replacement, broken = CENSUS[fault]
    clean = clean_report(corpus).to_json_dict()
    monkeypatch.setattr(bounds, name, replacement)
    faulted = all_checks(corpus)
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
