import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cheegerlab import (
    EigenOptions,
    GenericityReport,
    JacobiConvergenceError,
    WeightedGraph,
    adjacency_eta,
    eig_sym,
    generate,
    laplacian_spectrum,
    normalized_laplacian_sym,
    perturb,
    product,
    spectral,
    with_random_signature,
)
from brute import (
    cycle_spectrum,
    loop_adjacency,
    loop_eig_sym,
    loop_normalized_adjacency,
    loop_normalized_laplacian_sym,
    path_spectrum,
    star_spectrum,
)

# raw + raw.T has eigenvalues -3, 0 (four times), 3; LAPACK eigvalsh returns
# -sqrt(10) and sqrt(10) for them (numpy 2.4 with OpenBLAS), eigh does not.
_TINY_ENTRY = np.zeros((6, 6))
_TINY_ENTRY[0, 1] = 1.41329818e-161
_TINY_ENTRY[5, 1] = 3.0


def unbalanced_triangle():
    return WeightedGraph.build(3, [(0, 1, 1, -1), (1, 2, 1), (0, 2, 1)])


class TestLaplacianMatrix:
    def test_single_edge(self):
        g = WeightedGraph.build(2, [(0, 1, 1)])
        assert np.array_equal(normalized_laplacian_sym(g), [[1, -1], [-1, 1]])

    def test_sign_flip(self):
        g = WeightedGraph.build(2, [(0, 1, 1, -1)])
        assert np.array_equal(normalized_laplacian_sym(g), [[1, 1], [1, 1]])

    def test_k3(self):
        m = normalized_laplacian_sym(generate("complete", 3))
        assert np.allclose(np.diag(m), 1.0)
        assert m[0, 1] == m[0, 2] == m[1, 2] == -0.5

    def test_potential_on_diagonal(self):
        g = WeightedGraph.build(2, [(0, 1, 1)], mu=[2, 2], kappa=[1, 0])
        m = normalized_laplacian_sym(g)
        assert m[0, 0] == 1.0 and m[1, 1] == 0.5

    @pytest.mark.parametrize("n", range(2, 16))
    def test_matches_per_edge_loop(self, n):
        # The edges' entries are computed at once by the per-edge formula's
        # IEEE operations, so every entry has the loop's bits: signed and
        # unsigned, unit and degree measure, kappa zero and not.
        rng = np.random.default_rng(n)
        for seed in range(3):
            base = generate("random_connected", n, seed, p=0.4)
            for mu in ("degree", "unit"):
                for kappa in (0.0, rng.uniform(-1.0, 2.0, size=n).tolist()):
                    g = WeightedGraph.build(n, base.edges, mu=mu, kappa=kappa)
                    for h in (g, with_random_signature(g, seed)):
                        got = normalized_laplacian_sym(h).view(np.int64)
                        assert np.array_equal(got, loop_normalized_laplacian_sym(h).view(np.int64))

    def test_one_held_matrix_per_graph(self, monkeypatch):
        # Both spectrum routes, with_functions and eta read one L(g), built
        # on first use and held read-only with g; an equal graph builds its
        # own, and the public builder returns a new array every call.
        built = []
        real = spectral.normalized_laplacian_sym

        def counting(g):
            built.append(g)
            return real(g)

        monkeypatch.setattr(spectral, "normalized_laplacian_sym", counting)
        g = generate("random_connected", 8, seed=2, p=0.4)
        values = laplacian_spectrum(g, functions=False)
        spectral.with_functions(g, values)
        laplacian_spectrum(g)
        adjacency_eta(g)
        assert len(built) == 1 and built[0] is g
        held = spectral._laplacian(g)
        assert held is spectral._laplacian(g) and not held.flags.writeable
        twin = WeightedGraph.build(g.n, g.edges, mu=g.mu, kappa=g.kappa)
        assert twin == g and spectral._laplacian(twin) is not held
        assert len(built) == 2
        fresh = real(g)
        assert fresh.flags.writeable and np.array_equal(fresh, held)


class TestJacobi:
    def test_two_by_two(self):
        values = eig_sym(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(values, [0.0, 2.0], atol=1e-12)

    def test_diagonal_permutation(self):
        values = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert values.tolist() == [1.0, 2.0, 3.0]

    def test_c4_normalized(self):
        m = normalized_laplacian_sym(generate("cycle", 4))
        values = eig_sym(m)
        assert np.allclose(values, [0.0, 1.0, 1.0, 2.0], atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_overflowing_squares_still_rotate(self):
        # The squares of the entries 1e160 overflow to inf; the norms are
        # then taken on the entries scaled by the largest, so the stopping
        # threshold is finite and the solver rotates instead of returning
        # the diagonal.
        g = WeightedGraph.build(2, [(0, 1, 1e160)], mu="unit")
        m = normalized_laplacian_sym(g)
        frobenius = 2e160
        assert spectral._norm(m.tolist(), False) == frobenius
        assert spectral._norm(m.tolist(), True) == math.sqrt(2.0) * 1e160
        for values in (eig_sym(m), laplacian_spectrum(g, functions=False).values):
            assert abs(values[0] - 0.0) <= 1e-12 * frobenius
            assert abs(values[1] - 2e160) <= 1e-12 * frobenius
        assert assert_same_as_loop(m)
        # A matrix with an infinite entry keeps an infinite norm.
        assert spectral._norm([[math.inf, 1.0], [1.0, 0.0]], False) == math.inf

    def test_overflowing_sum_of_finite_squares(self):
        # Each square of 1.3e154 is finite (1.69e308) but their sum is not,
        # so fsum raises OverflowError rather than returning inf; the norms
        # are then taken on the scaled entries, as for infinite squares.
        off = 1.3e154
        m = np.array([[1e153, off, 0.0], [off, -2e153, off], [0.0, off, 5e153]])
        with pytest.raises(OverflowError):
            math.fsum(x * x for x in m.ravel().tolist())
        assert spectral._norm(m.tolist(), True) == 2.0 * off
        assert math.isfinite(spectral._norm(m.tolist(), False))
        values = eig_sym(m)
        expected = np.linalg.eigh(m)[0]
        assert np.isfinite(values).all()
        assert np.abs(values - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_nonconvergence_error_carries_norm(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_SWEEPS", 1)
        monkeypatch.setattr(spectral, "_OFF_DIAG_TOL", 1e-15)
        rng = np.random.default_rng(0)
        a = rng.normal(size=(12, 12))
        a = a + a.T
        with pytest.raises(JacobiConvergenceError) as err:
            eig_sym(a)
        assert err.value.off_norm > 0 and err.value.sweeps == 1

    def test_options_hold_only_the_residual_tolerance(self):
        assert [f.name for f in dataclasses.fields(EigenOptions)] == ["residual_tol"]
        assert EigenOptions().residual_tol == 1e-8

    def test_stopping_test_reads_no_blas(self, monkeypatch):
        # The threshold and the off-diagonal norm are fsums of the rows'
        # own squares, so no numpy norm or dot product decides a sweep.
        mats = [dense_symmetric(n, seed) for n in (2, 7, 12) for seed in range(3)]
        mats.extend(normalized_laplacian_sym(g) for g in oracle_graphs(10))
        want = [[v.hex() for v in eig_sym(m).tolist()] for m in mats]

        def refuse(*args, **kwargs):
            raise AssertionError("eig_sym called a BLAS routine")

        for name in ("dot", "vdot", "inner"):
            monkeypatch.setattr(np, name, refuse)
        monkeypatch.setattr(np.linalg, "norm", refuse)
        assert [[v.hex() for v in eig_sym(m).tolist()] for m in mats] == want

    @given(
        arrays(
            np.float64,
            (6, 6),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        )
    )
    @example(_TINY_ENTRY)
    @settings(max_examples=40, deadline=None)
    def test_matches_lapack_oracle(self, raw):
        # The oracle is eigh's values: eigvalsh is wrong on _TINY_ENTRY.
        a = raw + raw.T
        values = eig_sym(a)
        expected = np.linalg.eigh(a)[0]
        assert np.allclose(values, expected, atol=1e-8 * max(1.0, np.abs(expected).max()))


def assert_same_as_loop(m, max_sweeps: int = spectral._MAX_SWEEPS) -> bool:
    """eig_sym, given a budget of `max_sweeps` sweeps, gives the values of
    the numpy loop in float.hex (signed zeros included), or the same
    convergence error with the same fields.  Returns whether the solve
    converged."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_MAX_SWEEPS", max_sweeps)
        try:
            want, _ = loop_eig_sym(m, max_sweeps, spectral._OFF_DIAG_TOL)
        except JacobiConvergenceError as err:
            with pytest.raises(JacobiConvergenceError) as got:
                eig_sym(m)
            fields = (got.value.off_norm, got.value.threshold, got.value.sweeps)
            assert fields == (err.off_norm, err.threshold, err.sweeps)
            return False
        values = eig_sym(m)
    assert [v.hex() for v in values.tolist()] == [v.hex() for v in want.tolist()]
    return True


def dense_symmetric(n: int, seed: int, negative_zeros: bool = False) -> np.ndarray:
    """Random symmetric matrix with about 40% exact zeros; with
    `negative_zeros` the upper triangle's zeros are -0.0 and the lower's +0.0."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n))
    x[rng.random((n, n)) < 0.4] = 0.0
    m = np.triu(x) + np.triu(x, 1).T
    if negative_zeros:
        m[np.triu(m == 0.0, 1)] = -0.0
    return m


def oracle_graphs(n: int) -> list:
    """Unsigned and signed graphs, nonzero kappa, unit measure, and the
    families with tied spectra (K_n, star, C4 among the cycles)."""
    if n < 2:
        return []
    g = generate("random_connected", n, seed=n, p=0.4)
    graphs = [
        g,
        with_random_signature(g, seed=n),
        WeightedGraph.build(n, g.edges, kappa=[0.25 * (i % 3) for i in range(n)]),
        generate("random_connected", n, seed=n + 50, p=0.6, mu="unit"),
        generate("complete", n),
        generate("star", n),
        generate("path", n),
    ]
    if n >= 3:
        graphs.append(generate("cycle", n))
    return graphs


class TestJacobiOracle:
    """eig_sym against the values of the numpy column-then-row loop in
    tests/brute.py."""

    @pytest.mark.parametrize("n", range(1, 16))
    def test_fixed_cases(self, n):
        mats = [dense_symmetric(n, seed) for seed in range(3)]
        mats.append(dense_symmetric(n, 99, negative_zeros=True))
        mats.extend(normalized_laplacian_sym(g) for g in oracle_graphs(n))
        for m in mats:
            assert assert_same_as_loop(m)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_one_sweep_error_fields(self, n):
        mats = [dense_symmetric(n, seed) for seed in range(3)]
        mats.extend(normalized_laplacian_sym(g) for g in oracle_graphs(n))
        converged = [assert_same_as_loop(m, max_sweeps=1) for m in mats]
        if n >= 4:
            assert not all(converged)

    @given(
        st.integers(1, 15).flatmap(
            lambda n: arrays(
                np.float64,
                (n, n),
                elements=st.one_of(st.just(0.0), st.floats(min_value=-10, max_value=10)),
            )
        ),
        st.sampled_from([1, 2, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_symmetric(self, raw, max_sweeps):
        m = np.triu(raw) + np.triu(raw, 1).T
        assert_same_as_loop(m, max_sweeps)


REFERENCE_OFF_DIAG_TOL = 1e-15


def assert_eigenfunctions(m, mu, values, funcs):
    """Check the eigenfunctions `funcs` (rows) of L = M^{-1/2} m M^{1/2},
    paired with `values` (LAPACK's or Jacobi's), against properties that do not
    depend on how they were computed, and against the eigenvectors of
    the numpy Jacobi loop in tests/brute.py:

    - residual |L f - lambda f| <= residual_tol * max(1, |lambda|max);
    - mu-orthonormal, F M F^T = I, to 1e-12;
    - sign-normalized: the entry of largest magnitude of sqrt(mu) f
      (the eigenvector of m) is positive, up to ties within 1e-12;
    - equal up to sign, to 1e-9 as unit vectors of m, to the loop's
      eigenvector wherever the eigenvalue is more than 1e-6 (relative to
      the same scale) from its neighbours, where it is well defined.  A
      Jacobi eigenvector is off by up to (final off-diagonal norm) / gap,
      so the loop runs to REFERENCE_OFF_DIAG_TOL instead of the default
      1e-12, which would allow an error of 1e-6 at that gap.
    """
    n = len(values)
    funcs = np.asarray(funcs, dtype=float).reshape(n, n)
    values = np.asarray(values)
    root = np.sqrt(np.asarray(mu, dtype=float))
    lap = m * (root[None, :] / root[:, None])
    scale = max(1.0, float(np.abs(values).max()))
    tol = EigenOptions().residual_tol * scale
    for lam, f in zip(values, funcs):
        assert np.max(np.abs(lap @ f - lam * f)) <= tol
    gram = funcs @ np.diag(np.asarray(mu, dtype=float)) @ funcs.T
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
    vecs = funcs * root[None, :]
    for v in vecs:
        assert v.max() >= -v.min() - 1e-12
    _, loop_vecs = loop_eig_sym(m, off_diag_tol=REFERENCE_OFF_DIAG_TOL)
    gaps = np.diff(values)
    for j in range(n):
        left = gaps[j - 1] if j > 0 else math.inf
        right = gaps[j] if j < n - 1 else math.inf
        if min(left, right) <= 1e-6 * scale:
            continue
        want = loop_vecs[:, j]
        got = vecs[j] if vecs[j] @ want >= 0 else -vecs[j]
        assert np.max(np.abs(got - want)) <= 1e-9


class TestEigenfunctionOracle:
    """LAPACK eigenfunctions checked against residuals, orthonormality,
    sign normalization and the Jacobi loop's eigenvectors."""

    @pytest.mark.parametrize("n", range(1, 16))
    def test_oracle_graphs(self, n):
        for g in oracle_graphs(n):
            s = laplacian_spectrum(g)
            assert_eigenfunctions(normalized_laplacian_sym(g), g.mu, s.values, s.functions)

    @given(
        st.integers(1, 15).flatmap(
            lambda n: arrays(
                np.float64,
                (n, n),
                elements=st.one_of(st.just(0.0), st.floats(min_value=-10, max_value=10)),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_symmetric(self, raw):
        m = np.triu(raw) + np.triu(raw, 1).T
        mu = np.ones(len(m))
        _, funcs = spectral._eigenfunctions(m, mu)
        assert_eigenfunctions(m, mu, eig_sym(m), funcs)

    def test_functions_added_to_values_only_spectrum(self):
        g = generate("random_connected", 9, seed=4, p=0.4)
        bare = laplacian_spectrum(g, functions=False)
        full = spectral.with_functions(g, bare)
        assert full.values == bare.values and full.clusters == bare.clusters
        assert np.array_equal(full.functions, laplacian_spectrum(g).functions)


class TestEigenfunctionArray:
    """The eigenfunctions are held as the one array `eigh` gives: read-only,
    C-contiguous, row k - 1 is f_k, and read without a copy."""

    @pytest.mark.parametrize("n", [2, 5, 9, 14])
    def test_rows_are_one_eigh(self, n):
        for g in oracle_graphs(n):
            funcs = laplacian_spectrum(g).functions
            assert funcs.dtype == np.float64 and funcs.shape == (n, n)
            assert funcs.flags.c_contiguous and not funcs.flags.writeable
            _, vecs = np.linalg.eigh(normalized_laplacian_sym(g))
            root = np.sqrt(np.asarray(g.mu))
            for k in range(n):
                v = vecs[:, k]
                if v[np.argmax(np.abs(v))] < 0:
                    v = -v
                assert (v / root).tobytes() == funcs[k].tobytes()

    def test_function_is_a_row_without_copy(self):
        g = generate("random_connected", 8, seed=3, p=0.4)
        s = spectral.with_functions(g, laplacian_spectrum(g, functions=False))
        for k in range(1, g.n + 1):
            f = s.function(k)
            assert np.shares_memory(f, s.functions)
            assert not f.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                f[0] = 0.0

    def test_held_bytes_near_8n2(self):
        # n^2 Python floats in tuples would hold about 32 n^2 bytes.
        n = 200
        g = generate("random_connected", n, seed=7, p=4 / n)
        spectral._laplacian(g)  # held with g before the count starts
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            s = laplacian_spectrum(g)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert s.functions.nbytes == 8 * n * n
        assert held <= 1.25 * 8 * n * n


class TestSpectrum:
    def test_k3_multiplicity_cluster(self):
        s = laplacian_spectrum(generate("complete", 3))
        assert np.allclose(s.values, [0.0, 1.5, 1.5], atol=1e-10)
        assert s.clusters == ((0, 1), (1, 2))

    def test_star(self):
        s = laplacian_spectrum(generate("star", 4))
        assert np.allclose(s.values, star_spectrum(4), atol=1e-10)

    def test_signed_frustrated_triangle(self):
        s = laplacian_spectrum(unbalanced_triangle())
        assert np.allclose(s.values, [0.5, 0.5, 2.0], atol=1e-10)

    def test_mu_orthonormal_eigenfunctions(self):
        g = generate("random_connected", 7, seed=31, p=0.4)
        s = laplacian_spectrum(g)
        funcs = np.asarray(s.functions)
        gram = funcs @ np.diag(g.mu) @ funcs.T
        assert np.allclose(gram, np.eye(g.n), atol=1e-10)

    def test_residuals_of_unnormalized_laplacian(self):
        # L f = lambda f with L = M^{-1}(D + K - A)
        g = generate("random_connected", 8, seed=7, p=0.35, w_low=0.5, w_high=2.0)
        s = laplacian_spectrum(g)
        d = g.degrees()
        lap = np.diag(d + np.asarray(g.kappa)) - loop_adjacency(g)
        lap = lap / np.asarray(g.mu)[:, None]
        scale = max(1.0, abs(s.values[-1]))
        for k in range(1, g.n + 1):
            f = s.function(k)
            assert np.max(np.abs(lap @ f - s.values[k - 1] * f)) <= 1e-8 * scale

    def test_trace_identity(self):
        g = generate("random_connected", 9, seed=13, p=0.3)
        s = laplacian_spectrum(g)
        trace = sum((d + k) / m for d, k, m in zip(g.degrees(), g.kappa, g.mu))
        assert math.isclose(sum(s.values), trace, rel_tol=1e-8)

    def test_connected_lambda1_zero_lambdan_below_two(self):
        for seed in range(5):
            g = generate("random_connected", 6, seed=seed, p=0.4)
            s = laplacian_spectrum(g)
            assert abs(s.values[0]) <= 1e-8
            assert s.values[-1] <= 2.0 + 1e-8
            f1 = s.function(1)
            assert np.all(f1 > 0) or np.all(f1 < 0)

    @pytest.mark.parametrize("n", range(2, 16))
    def test_values_only(self, n):
        # Jacobi values (functions=False, kept bit for bit by with_functions)
        # against the LAPACK values of functions=True: equal to 1e-12
        # relative, with equal clusters, on g and on a perturbation of g.
        # (No valid graph has one vertex: it would be isolated.)
        graphs = oracle_graphs(n)
        for g in graphs + [perturb(g, 0.05, n) for g in graphs]:
            bare = laplacian_spectrum(g, functions=False)
            assert bare.functions is None
            joined = spectral.with_functions(g, bare)
            assert [v.hex() for v in joined.values] == [v.hex() for v in bare.values]
            assert joined.clusters == bare.clusters
            assert bare.to_json_dict() == dict(joined.to_json_dict(), functions=None)
            full = laplacian_spectrum(g)
            scale = max(1.0, max(abs(v) for v in bare.values))
            assert np.max(np.abs(np.subtract(full.values, bare.values))) <= 1e-12 * scale
            assert full.clusters == bare.clusters
            with pytest.raises(ValueError, match="without eigenfunctions"):
                bare.function(1)
            with pytest.raises(ValueError, match="eigenfunctions"):
                GenericityReport.of(bare)

    def test_json_shape(self):
        s = laplacian_spectrum(generate("path", 3))
        d = s.to_json_dict()
        assert set(d) == {"values", "clusters", "functions"}
        assert len(d["functions"]) == 3


class TestEta:
    def test_k3(self):
        res = adjacency_eta(generate("complete", 3))
        assert np.allclose(res.values, [1.0, -0.5, -0.5], atol=1e-10)
        assert math.isclose(res.eta, 0.5, abs_tol=1e-10)

    def test_c4_bipartite(self):
        res = adjacency_eta(generate("cycle", 4))
        assert np.allclose(res.values, [1.0, 0.0, 0.0, -1.0], atol=1e-10)
        assert math.isclose(res.eta, 1.0, abs_tol=1e-10)

    def test_p3(self):
        res = adjacency_eta(generate("path", 3))
        assert np.allclose(res.values, [1.0, 0.0, -1.0], atol=1e-10)
        assert math.isclose(res.eta, 1.0, abs_tol=1e-10)

    def test_relation_to_laplacian_when_mu_is_degree(self):
        g = generate("random_connected", 7, seed=21, p=0.4, w_low=0.5, w_high=2.0)
        lam = laplacian_spectrum(g).values
        eta_vals = adjacency_eta(g).values
        assert np.allclose(sorted(1.0 - e for e in eta_vals), lam, atol=1e-8)

    def test_tiny_weight_path(self):
        # A path with weights 1e-161, 3, 1 and unit measure has eta =
        # sqrt(10); LAPACK eigvalsh gave 3.2404 on this matrix.
        g = WeightedGraph.build(4, [(0, 1, 1e-161), (1, 2, 3.0), (2, 3, 1.0)], mu="unit")
        assert math.isclose(adjacency_eta(g).eta, math.sqrt(10), rel_tol=1e-12)

    def test_matrix_matches_loop_reference(self, monkeypatch):
        # The matrix eta solves, diag(L) - L, is the per-edge normalized
        # adjacency to the last bit.
        solved = []
        real = np.linalg.eigh

        def recording(m):
            solved.append(np.array(m))
            return real(m)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        for n in range(3, 13):
            for seed in range(4):
                g = generate("random_connected", n, seed, p=0.4)
                adjacency_eta(g)
                assert solved.pop().tobytes() == loop_normalized_adjacency(g).tobytes()
        assert not solved

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_held_laplacian_eta_matches_a_distinct_graph(self, n):
        # eta read from the L a spectrum solve left with g equals, to the
        # last bit, eta of an equal graph that holds nothing yet.
        for seed in range(3):
            g = generate("random_connected", n, seed, p=0.4, w_low=0.5, w_high=2.0)
            laplacian_spectrum(g, functions=False)
            held = adjacency_eta(g)
            twin = WeightedGraph.build(g.n, g.edges, mu=g.mu, kappa=g.kappa)
            assert twin == g and twin is not g
            fresh = adjacency_eta(twin)
            assert held.eta.hex() == fresh.eta.hex()
            assert [x.hex() for x in held.values] == [x.hex() for x in fresh.values]

    def test_rejects_signed_only(self):
        with pytest.raises(ValueError, match="^eta is defined for unsigned graphs$"):
            adjacency_eta(WeightedGraph.build(3, [(0, 1, 1, -1), (1, 2, 1), (0, 2, 1)]))
        # kappa enters only the diagonal of L, which diag(L) - L cancels to
        # 0.0, so eta and its values have the same bits as at kappa = 0.
        edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
        flat = adjacency_eta(WeightedGraph.build(3, edges))
        tilted = adjacency_eta(WeightedGraph.build(3, edges, kappa=1.0))
        assert tilted.eta.hex() == flat.eta.hex()
        assert [x.hex() for x in tilted.values] == [x.hex() for x in flat.values]
        # eta is defined at n = 2: K2's normalized adjacency has values 1, -1.
        assert adjacency_eta(generate("path", 2)).eta == 1.0


class TestClosedForms:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycles(self, n):
        s = laplacian_spectrum(generate("cycle", n))
        assert np.allclose(s.values, cycle_spectrum(n), atol=1e-8)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_paths(self, n):
        s = laplacian_spectrum(generate("path", n))
        assert np.allclose(s.values, path_spectrum(n), atol=1e-8)


class TestProductSpectrum:
    def test_p2_squared(self):
        p2 = WeightedGraph.build(2, [(0, 1, 1)], mu="unit")
        s = laplacian_spectrum(product(p2, p2))
        assert np.allclose(s.values, [0.0, 2.0, 2.0, 4.0], atol=1e-10)

    def test_pairwise_sum_property(self):
        for seed in range(5):
            g1 = generate("random_connected", 3 + seed % 2, seed=seed, mu="unit")
            g2 = generate("random_tree", 4, seed=seed + 50, mu="unit")
            s1 = laplacian_spectrum(g1).values
            s2 = laplacian_spectrum(g2).values
            sp = laplacian_spectrum(product(g1, g2)).values
            sums = sorted(a + b for a in s1 for b in s2)
            assert np.allclose(sp, sums, atol=1e-8)
