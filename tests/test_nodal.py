import math
import re
import warnings

import numpy as np
import pytest
from brute import loop_nodal_sweep, loop_strong_nodal, magnetic_hessians
from hypothesis import given, settings
from hypothesis import strategies as st

from cheegerlab import (
    PartitionCertificate,
    WeightedGraph,
    cyclomatic,
    generate,
    laplacian_spectrum,
    perturb,
    product,
    product_function,
    rho_upper_nodal_sweep,
    strong_nodal,
    with_random_signature,
)
from cheegerlab import nodal


class TestStrong:
    def test_alternating_path(self):
        g = generate("path", 5)
        assert strong_nodal(g, [1, -1, 1, -1, 1], 0.0).count == 5

    def test_zero_vertex_excluded(self):
        g = generate("path", 3)
        dec = strong_nodal(g, [1, 0, -1], 0.0)
        assert dec.count == 2
        assert dec.labels == (0, -1, 1)
        assert dec.domains() == [[0], [2]]

    def test_product_sign_pattern(self):
        p2 = WeightedGraph.build(2, [(0, 1, 1)], mu="unit")
        c4 = product(p2, p2)
        h = product_function([1, -1], [1, -1])
        assert list(h) == [1, -1, -1, 1]
        assert strong_nodal(c4, h, 0.0).count == 4

    def test_signed_rule_reduces_to_unsigned(self):
        g = generate("cycle", 4)
        gs = WeightedGraph.build(4, [(e.u, e.v, e.w, 1) for e in g.edges])
        f = [1.0, 2.0, -1.0, -3.0]
        assert strong_nodal(g, f).count == strong_nodal(gs, f).count == 2

    def test_signed_edge_severs_same_sign(self):
        # one negative edge between same-sign endpoints cuts the domain in two
        g = WeightedGraph.build(2, [(0, 1, 1, -1)])
        assert strong_nodal(g, [1, 1], 0.0).count == 2
        # and joins opposite signs
        assert strong_nodal(g, [1, -1], 0.0).count == 1

    def test_default_zero_tol_scales(self):
        g = generate("path", 3)
        # middle entry is 1e-12 of the max: rounded to zero by default
        assert strong_nodal(g, [1.0, 1e-12, -1.0]).count == 2
        assert strong_nodal(g, [1.0, 1e-12, -1.0], zero_tol=0.0).count == 2  # sign severs anyway
        assert strong_nodal(g, [1.0, 1e-12, 1.0], zero_tol=0.0).count == 1

    def test_count_bounded_by_support(self):
        g = generate("random_connected", 8, seed=5, p=0.4)
        f = [1, -1, 0, 2, 0, -3, 1, 0]
        assert strong_nodal(g, f, 0.0).count <= 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            strong_nodal(generate("path", 3), [1, 2])


class TestNonFinite:
    NODAL = (strong_nodal, rho_upper_nodal_sweep)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", NODAL)
    def test_entry_rejected(self, fn, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="entry 1 is not finite"):
                fn(generate("path", 4), [1.0, bad, -1.0, 2.0])

    # The sweep takes no zero_tol: it rounds at strong_nodal's default.
    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    @pytest.mark.parametrize("fn", NODAL[:1])
    def test_zero_tol_rejected(self, fn, tol):
        with pytest.raises(ValueError, match="zero_tol must be finite"):
            fn(generate("path", 4), [1.0, -1.0, 1.0, 2.0], zero_tol=tol)

    @pytest.mark.parametrize("fn", NODAL[:1])
    def test_negative_zero_tol_rejected(self, fn):
        with pytest.raises(ValueError, match="zero_tol must be >= 0"):
            fn(generate("path", 4), [1.0, -1.0, 1.0, 2.0], zero_tol=-1.0)


_WEIGHTS = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 100.0))


@st.composite
def _instances(draw, signed: bool):
    """(graph, f, zero_tol): a connected weighted graph, and an f with ties
    in |f|, exact and negative zeros and entries at the zero tolerance."""
    n = draw(st.integers(2, 8))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for v in range(n) for u in range(v)]
    pairs |= set(draw(st.lists(st.sampled_from(others), max_size=2 * n)))
    sigma = st.sampled_from([1, -1]) if signed else st.just(1)
    edges = [(u, v, draw(_WEIGHTS), draw(sigma)) for u, v in sorted(pairs)]
    mu = draw(
        st.one_of(
            st.sampled_from(["unit", "degree"]),
            st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
        )
    )
    g = WeightedGraph.build(n, edges, mu=mu)
    zero_tol = draw(st.one_of(st.none(), st.just(0.0), st.floats(1e-12, 1.0)))
    tol = zero_tol or 0.0
    pool = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, tol, -tol]
    entry = st.one_of(st.sampled_from(pool), st.floats(-10.0, 10.0))
    f = draw(st.lists(entry, min_size=n, max_size=n))
    if zero_tol is None and draw(st.booleans()):
        # An entry exactly at the default tolerance 1e-10 max|f|.
        f[draw(st.integers(0, n - 1))] = -1e-10 * max(abs(x) for x in f)
    if draw(st.booleans()):
        f = np.asarray(f)
    return g, f, zero_tol


class TestNodalOracle:
    """The list-based nodal layer against the numpy loops in tests/brute.py."""

    def test_sweep_returns_a_certificate(self):
        g = generate("cycle", 4)
        want = loop_nodal_sweep(g, [1, 1, -1, -1])
        assert isinstance(want, PartitionCertificate)
        assert (want.k, want.value, want.exact) == (2, 0.5, False)
        assert rho_upper_nodal_sweep(g, [1, 1, -1, -1]) == want

    @given(_instances(signed=True))
    @settings(max_examples=300, deadline=None)
    def test_strong(self, inst):
        g, f, zero_tol = inst
        assert strong_nodal(g, f, zero_tol) == loop_strong_nodal(g, f, zero_tol)

    @given(_instances(signed=False))
    @settings(max_examples=300, deadline=None)
    def test_sweep(self, inst):
        # The sweep rounds at the default tolerance, 1e-10 max|f|.
        g, f, _ = inst
        try:
            want = loop_nodal_sweep(g, f)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                rho_upper_nodal_sweep(g, f)
            return
        got = rho_upper_nodal_sweep(g, f)
        assert got == want
        assert got.value.hex() == want.value.hex()


class TestProductFunction:
    def test_pointwise(self):
        assert list(product_function([2, 0], [3, -1])) == [6, -2, 0, 0]

    def test_constant_second_factor(self):
        f = [3.0, -1.0, 2.0]
        h = product_function(f, [1.0, 1.0])
        assert list(h) == [3, 3, -1, -1, 2, 2]


def _random_sign_vector(rng, n):
    return [1 if rng.randint(2) else -1 for _ in range(n)]


class TestProductCountLemma:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_strong_count_multiplies(self, seed, n1, n2):
        from cheegerlab import SplitMix64

        g1 = generate("random_connected", n1, seed, mu="unit")
        g2 = generate("random_connected", n2, seed ^ 0xABCDEF, mu="unit")
        rng = SplitMix64(seed)
        f = _random_sign_vector(rng, n1)
        h = _random_sign_vector(rng, n2)
        fg = product_function(f, h)
        left = strong_nodal(product(g1, g2), fg, 0.0).count
        right = strong_nodal(g1, f, 0.0).count * strong_nodal(g2, h, 0.0).count
        assert left == right


class TestCourantBounds:
    @pytest.mark.parametrize("seed", range(6))
    def test_sandwich_on_generic_instances(self, seed):
        g = generate("random_connected", 7, seed=seed, p=0.35, w_low=0.5, w_high=2.0)
        gp = perturb(g, 0.05, seed + 100)
        spectrum = laplacian_spectrum(gp)
        ell = cyclomatic(gp)
        for start, mult in spectrum.clusters:
            for k in range(start + 1, start + mult + 1):
                f = spectrum.function(k)
                s = strong_nodal(gp, f).count
                kb = start + 1
                assert kb + mult - 1 - ell <= s <= kb + mult - 1

    def test_star_multiplicity_upper_bound(self):
        # lambda = 1 with multiplicity 2 on K_{1,3}: S <= k + r - 1 = 3
        g = generate("star", 4)
        spectrum = laplacian_spectrum(g)
        for k in (2, 3):
            f = spectrum.function(k)
            assert strong_nodal(g, f).count <= 3


class TestMorseIndex:
    """The nodal counts against the spectrum alone: on a simple eigenpair
    with a zero-free f, phi_k - (k - 1) is the number of negative
    eigenvalues of lambda_k's magnetic Hessian (brute.magnetic_hessians),
    and S(f_k) = phi_k - l + 1 + l_dom >= phi_k - l + 1, where l_dom counts
    the independent cycles inside the strong domains.  phi_k counts the
    edges with sigma f(u) f(v) < 0 directly: on a signed graph a strong
    domain can hold vertices of both signs and such an edge between them,
    so the edges between different strong labels are not phi_k."""

    @staticmethod
    def instances():
        """40 unsigned and 40 signed random_connected graphs, n = 4..9,
        each perturbed at eps = 0.05."""
        for i in range(80):
            g = generate("random_connected", 4 + i % 6, seed=i, p=0.4, w_low=0.5, w_high=2.0)
            if i >= 40:
                g = with_random_signature(g, i)
            yield perturb(g, 0.05, i)

    def test_nodal_surplus_is_the_morse_index(self):
        decided = undecided = 0
        for g in self.instances():
            for k, (f, hess) in enumerate(magnetic_hessians(g), start=1):
                ell = len(hess)  # one flux per cotree edge
                phi = sum(e.sigma * f[e.u] * f[e.v] < 0 for e in g.edges)
                assert np.abs(f).min() > 0
                assert strong_nodal(g, f, zero_tol=0.0).count >= phi - ell + 1
                eig = np.linalg.eigvalsh(hess)  # empty on a tree: index 0
                # A Hessian eigenvalue too near 0 leaves its sign, and so the
                # index, undecided: the oracle says so instead of guessing.
                if ell and np.abs(eig).min() <= 1e-6 * np.abs(eig).max():
                    undecided += 1
                    continue
                assert phi - (k - 1) == int((eig < 0).sum())
                decided += 1
        assert (decided, undecided) == (516, 0)


class TestHeldLabellings:
    """A strong labelling depends only on the graph and the rounded signs,
    so it is built once per (graph, signs) and held with the graph."""

    @staticmethod
    def count_passes(monkeypatch) -> dict:
        """The graphs of the strong labellings built, and the number of
        component labellings the nodal layer ran."""
        passes = {"strong": [], "labellings": 0}
        label_strong, component_labels = nodal._label_strong, nodal._component_labels

        def strong(g, s):
            passes["strong"].append(g)
            return label_strong(g, s)

        def labels(*args):
            passes["labellings"] += 1
            return component_labels(*args)

        monkeypatch.setattr(nodal, "_label_strong", strong)
        monkeypatch.setattr(nodal, "_component_labels", labels)
        return passes

    def test_equal_signs_read_the_held_labelling(self, monkeypatch):
        passes = self.count_passes(monkeypatch)
        g = generate("random_connected", 8, seed=3, p=0.4, w_low=0.5, w_high=2.0)
        f = laplacian_spectrum(g).function(4)
        first = strong_nodal(g, f, 0.0)
        # Other values, the same signs at the default tolerance: held.
        again = strong_nodal(g, 3.0 * f)
        assert again == first and again.labels is first.labels
        assert passes == {"strong": [g], "labellings": 1}
        # Other signs, or an equal but distinct graph: built anew.
        flipped = strong_nodal(g, -f, 0.0)
        assert flipped.labels == first.labels and flipped.labels is not first.labels
        twin = WeightedGraph.build(g.n, g.edges, mu=g.mu, kappa=g.kappa)
        assert twin == g
        assert strong_nodal(twin, f, 0.0) == first
        assert passes == {"strong": [g, g, twin], "labellings": 3}
