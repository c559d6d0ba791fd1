"""The checks as a test oracle: two findings of the seeded-fault census that
later changes rely on, pinned on the census's corpora (n = 4..10, 40
instances each).

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

import pytest

from cheegerlab import CorpusConfig, WeightedGraph, bounds, run_corpus
from cheegerlab.cheeger import rho_profile
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


@pytest.mark.parametrize("corpus", UNSIGNED_CORPORA)
def test_weak_nodal_bound_repeats_the_strong_one(corpus):
    rows = report({**UNSIGNED_CORPORA[corpus], "checks": list(bounds.CHECK_NAMES)}).rows

    def records(name):
        return [(instance, r.k, r.lhs, r.holds) for instance, r in rows if r.name == name]

    strong = records("nodal_strong_upper")
    assert strong
    assert records("nodal_weak_upper") == strong


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
