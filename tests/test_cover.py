"""The signed double cover as an independent oracle for the signed paths.

The cover of a signed graph G (`brute.double_cover`) is an unsigned graph
on two copies x+ and x- of each vertex x, so the unsigned code checks the
signed engine, the signed spectrum and the signed nodal counts through it
(after Atay-Liu).  The cover of the all-negative signing is the bipartite
double cover, which `classify` labels.
"""

import numpy as np
import pytest

from cheegerlab import (
    WeightedGraph,
    beta_signed,
    classify,
    conductance,
    generate,
    laplacian_spectrum,
    perturb,
    rho_profile,
    strong_nodal,
    with_random_signature,
)
from brute import disjoint_union, double_cover

# beta(V1, V2) and Phi of the lift sum the same edge terms in another order
# (the cover stores its edges sorted), so they agree to a few ulps per term:
# 3.5e-16 relative at most over the signed graphs measured, n = 3..8.
LIFT_REL = 1e-14


def signed_graphs(sizes, seeds):
    """The signed draws: a draw that left every edge positive is unsigned,
    and its profile is scored by Phi, so it is left out."""
    draws = (
        with_random_signature(generate("random_connected", n, seed=seed, p=0.5), seed + 100)
        for n in sizes
        for seed in seeds
    )
    return [g for g in draws if g.is_signed()]


def lift(n: int, v1, v2) -> list[int]:
    """V1+ u V2-: the cover set of the pair (V1, V2)."""
    return sorted([*v1, *(x + n for x in v2)])


def antipode(n: int, cover_set) -> list[int]:
    return sorted((x + n) % (2 * n) for x in cover_set)


def pairs(cert):
    return [(cert.parts[2 * i], cert.parts[2 * i + 1]) for i in range(cert.k)]


def unsigned(g: WeightedGraph) -> WeightedGraph:
    return WeightedGraph.build(g.n, [(u, v, w) for u, v, w, _ in g.edges], mu=g.mu, kappa=g.kappa)


def all_negative(g: WeightedGraph) -> WeightedGraph:
    return WeightedGraph.build(g.n, [(u, v, w, -1) for u, v, w, _ in g.edges], mu=g.mu, kappa=g.kappa)


@pytest.mark.parametrize("n", range(3, 9))
def test_lift_identity(n):
    # beta(V1, V2) = Phi_cover(V1+ u V2-) for every pair of every exact
    # signed certificate, and so the certificate's value is the max Phi of
    # its lifted pairs.
    for g in signed_graphs([n], range(5)):
        cover = double_cover(g)
        for cert in rho_profile(g):
            phis = []
            for v1, v2 in pairs(cert):
                phi = conductance(cover, lift(n, v1, v2))
                assert abs(phi - beta_signed(g, v1, v2)) <= LIFT_REL * phi
                phis.append(phi)
            assert abs(cert.value - max(phis)) <= LIFT_REL * cert.value, (g, cert)


@pytest.mark.parametrize("n", range(3, 8))
def test_cover_rho_at_most_the_lifted_packing(n):
    # A signed k-packing lifts to 2k disjoint sets of the cover (each pair's
    # lift and its antipode), a feasible packing, so rho_2k(cover) is at
    # most their max Phi, with no tolerance: the engine's Phi is
    # conductance's, bit for bit.
    for g in signed_graphs([n], range(6)):
        cover = double_cover(g)
        cover_rho = rho_profile(cover)
        for cert in rho_profile(g):
            lifted = [lift(n, v1, v2) for v1, v2 in pairs(cert)]
            lifted += [antipode(n, s) for s in lifted]
            assert cover_rho[2 * cert.k - 1].value <= max(conductance(cover, s) for s in lifted)


@pytest.mark.parametrize("n", range(3, 11))
def test_cover_spectrum_is_the_union(n):
    # spec L(cover) = spec L(|G|) u spec L^sigma(G), at the spectrum's
    # multiplicity tolerance 1e-8 * max(1, |lambda_n|).
    for g in signed_graphs([n], range(4)):
        cover = laplacian_spectrum(double_cover(g), functions=False).values
        union = sorted(
            laplacian_spectrum(unsigned(g), functions=False).values
            + laplacian_spectrum(g, functions=False).values
        )
        tol = 1e-8 * max(1.0, abs(cover[-1]))
        assert np.max(np.abs(np.subtract(cover, union))) <= tol


@pytest.mark.parametrize("n", range(3, 11))
def test_nodal_lift_doubles_the_strong_count(n):
    # An eigenfunction f of L^sigma lifts to F = (f, -f), and every strong
    # domain of f lifts to two of F: S_cover(F) = 2 S^sigma_G(f) exactly.
    for g in signed_graphs([n], range(4)):
        gp = perturb(g, 0.05, 7)
        cover = double_cover(gp)
        s = laplacian_spectrum(gp)
        for k in range(1, n + 1):
            f = s.function(k)
            assert strong_nodal(cover, np.concatenate([f, -f])).count == 2 * strong_nodal(gp, f).count


def components(g: WeightedGraph) -> list[WeightedGraph]:
    """The components of g as graphs of their own, by classify's labels."""
    labels = classify(g).component_labels
    out = []
    for c in range(classify(g).component_count):
        members = [x for x in range(g.n) if labels[x] == c]
        index = {x: i for i, x in enumerate(members)}
        edges = [(index[u], index[v], w) for u, v, w, _ in g.edges if labels[u] == c]
        out.append(WeightedGraph.build(len(members), edges, mu=[g.mu[x] for x in members]))
    return out


def test_zero_multiplicity_of_the_all_negative_signing():
    # With kappa = 0, L^sigma of the all-negative signing has eigenvalue 0
    # once per bipartite component (its signing is balanced exactly there),
    # so the spectrum counts the components classify calls bipartite.
    families = [("cycle", 4), ("cycle", 5), ("path", 3), ("complete", 4), ("star", 5),
                ("random_tree", 6), ("random_bipartite", 6), ("random_connected", 6)]
    rng = np.random.default_rng(11)
    seen = set()
    for trial in range(40):
        pieces = [generate(f, n, seed=trial) for f, n in
                  (families[i] for i in rng.integers(len(families), size=rng.integers(1, 4)))]
        g = disjoint_union(pieces, rng.permutation(sum(h.n for h in pieces)).tolist())
        cls = classify(g)
        bipartite = sum(classify(h).is_bipartite for h in components(g))
        values = laplacian_spectrum(all_negative(g), functions=False).values
        zeros = sum(abs(x) <= 1e-8 * max(1.0, abs(values[-1])) for x in values)
        assert zeros == bipartite, (g, cls)
        assert cls.is_bipartite == (bipartite == cls.component_count)
        assert cls.component_count >= len(pieces)  # random_bipartite may be disconnected
        seen.add((bipartite > 0, bipartite < cls.component_count))
    assert seen == {(True, True), (True, False), (False, True)}
