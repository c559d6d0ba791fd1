import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheegerlab import (
    BudgetExceededError,
    SearchBudget,
    WeightedGraph,
    beta_signed,
    conductance,
    generate,
    laplacian_spectrum,
    product,
    rho_exact,
    rho_profile,
    rho_signed_exact,
    rho_signed_profile,
    rho_upper_nodal_sweep,
    with_random_signature,
)
from cheegerlab import cheeger
from cheegerlab.cheeger import (
    SIGNED_PROFILE_TOL,
    _PAIR_BUDGET,
    _build_pairs,
    _mask_order,
    _packing_dp,
    _parts_from_masks,
    _phi_array,
    _profile_tables,
    _reconstruct,
    _segment,
    _search,
    _signed_search,
    _signed_tables,
)
from brute import (
    loop_packing_dp,
    loop_reconstruct,
    loop_signed_tables,
    naive_rho,
    naive_rho_signed,
)


def triangle():
    return generate("complete", 3)


def unbalanced_triangle():
    return WeightedGraph.build(3, [(0, 1, 1, -1), (1, 2, 1), (0, 2, 1)])


class TestConductance:
    def test_k3_singleton(self):
        assert conductance(triangle(), [0]) == 1.0

    def test_k3_pair(self):
        assert conductance(triangle(), [0, 1]) == 0.5

    def test_whole_vertex_set(self):
        g = generate("random_connected", 6, seed=3)
        assert conductance(g, range(6)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            conductance(triangle(), [])

    def test_signed_rejected(self):
        with pytest.raises(ValueError):
            conductance(unbalanced_triangle(), [0])


class TestRhoExact:
    # rho_exact answers these sizes from the profile DP; _search is the DFS
    # that answers beyond them.  Both must return exact, valid certificates.
    ENGINES = (rho_exact, _search)

    def test_k1_is_zero_with_full_set(self):
        for engine in self.ENGINES:
            cert = engine(triangle(), 1)
            assert cert.value == 0.0
            assert cert.parts == ((0, 1, 2),)

    def test_disconnected_k2_zero(self):
        g = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)])
        assert rho_exact(g, 2).value == 0.0

    def test_c4(self):
        assert rho_exact(generate("cycle", 4), 2).value == 0.5

    def test_k3(self):
        assert rho_exact(triangle(), 2).value == 1.0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            rho_exact(triangle(), 4)
        with pytest.raises(ValueError):
            rho_exact(triangle(), 0)

    def test_rejects_signed(self):
        with pytest.raises(ValueError):
            rho_exact(unbalanced_triangle(), 1)

    def test_certificate_is_valid(self):
        g = generate("random_connected", 8, seed=17, p=0.35, w_low=0.5, w_high=2.0)
        for engine in self.ENGINES:
            for k in (1, 2, 3, 5, 8):
                cert = engine(g, k)
                assert cert.exact
                assert len(cert.parts) == k
                assert all(cert.parts)
                seen = set()
                for part in cert.parts:
                    assert seen.isdisjoint(part)
                    seen.update(part)
                assert cert.recompute(g) == cert.value

    def test_budget_overflow(self):
        g = generate("random_connected", 9, seed=2, p=0.35)
        with pytest.raises(BudgetExceededError) as err:
            _search(g, 3, SearchBudget(max_states=50))
        assert err.value.states > 50
        cert = err.value.best
        assert not cert.exact
        assert cert.value >= _search(g, 3).value

    @pytest.mark.parametrize("bad", [0, -5, 2.5, 50.0, True, False, "x", None])
    def test_budget_rejects_non_integer_or_small(self, bad):
        with pytest.raises(ValueError, match="max_states must be an integer >= 1"):
            SearchBudget(max_states=bad)


class TestEngineChoice:
    """rho_exact / rho_signed_exact answer from the profile DP within its
    size limits and run the budgeted search only beyond them."""

    @pytest.mark.parametrize("n", [2, 9, 15])
    def test_dp_answers_in_range(self, n):
        g = generate("random_connected", n, seed=n, p=0.4, w_low=0.5, w_high=2.0)
        for k in sorted({1, 2, n // 2 + 1, n}):
            cert = rho_exact(g, k, SearchBudget(max_states=1))
            assert cert == rho_profile(g, k)[k - 1]
            assert cert.exact

    @pytest.mark.parametrize("n", [2, 7, 14])
    def test_signed_dp_answers_in_range(self, n):
        g = with_random_signature(
            generate("random_connected", n, seed=n, p=0.4, w_low=0.5, w_high=2.0), n
        )
        for k in sorted({1, 2, n}):
            cert = rho_signed_exact(g, k, SearchBudget(max_states=1))
            assert cert == rho_signed_profile(g, k)[k - 1]
            assert cert.exact
            if n <= 7:
                assert abs(cert.value - _signed_search(g, k).value) <= SIGNED_PROFILE_TOL

    def test_search_beyond_range(self):
        g = generate("random_connected", 16, seed=5)
        sg = with_random_signature(generate("random_connected", 15, seed=5), 5)
        for engine, graph in ((rho_exact, g), (rho_signed_exact, g), (rho_signed_exact, sg)):
            with pytest.raises(BudgetExceededError) as err:
                engine(graph, 2, SearchBudget(max_states=40))
            assert err.value.states == 41
            assert not err.value.best.exact
            assert err.value.best.recompute(graph) == err.value.best.value


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_dfs_equals_naive_and_dp(self, seed):
        n = 4 + seed % 4
        g = generate("random_connected", n, seed=seed, p=0.4, w_low=0.5, w_high=2.0)
        profile = rho_profile(g)
        for k in (1, 2, 3):
            dfs = _search(g, k).value
            assert dfs == naive_rho(g, k)
            assert dfs == profile[k - 1].value

    def test_dp_matches_dfs_for_all_k(self):
        g = generate("random_connected", 7, seed=40, p=0.35, w_low=0.5, w_high=2.0)
        profile = rho_profile(g)
        for k in range(1, 8):
            assert profile[k - 1].value == _search(g, k).value

    def test_profile_certificates_valid(self):
        g = generate("random_connected", 9, seed=8, p=0.3, w_low=0.5, w_high=2.0)
        for cert in rho_profile(g):
            assert cert.recompute(g) == cert.value
            assert len(cert.parts) == cert.k


class TestMonotonicity:
    @given(st.integers(0, 2**32 - 1), st.integers(4, 9))
    @settings(max_examples=30, deadline=None)
    def test_rho_profile_nondecreasing(self, seed, n):
        g = generate("random_connected", n, seed, p=0.4, w_low=0.5, w_high=2.0)
        values = [c.value for c in rho_profile(g)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_signed_profile_nondecreasing(self, seed):
        g = with_random_signature(
            generate("random_connected", 6, seed, p=0.5, w_low=0.5, w_high=2.0), seed
        )
        values = [c.value for c in rho_signed_profile(g)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rho_zero_iff_enough_components(self):
        g = WeightedGraph.build(6, [(0, 1, 1), (2, 3, 1), (4, 5, 1)])
        values = [c.value for c in rho_profile(g)]
        assert values[0] == values[1] == values[2] == 0.0
        assert values[3] > 0


class TestBetaSigned:
    def test_negative_edge_across(self):
        g = WeightedGraph.build(2, [(0, 1, 1, -1)])
        assert beta_signed(g, [0], [1]) == 0.0

    def test_negative_edge_inside_double_counts(self):
        g = WeightedGraph.build(2, [(0, 1, 1, -1)])
        assert beta_signed(g, [0, 1], []) == 1.0

    def test_positive_edge_across(self):
        g = WeightedGraph.build(2, [(0, 1, 1)])
        assert beta_signed(g, [0], [1]) == 1.0

    def test_boundary_term(self):
        assert beta_signed(triangle(), [0], []) == 1.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            beta_signed(triangle(), [0, 1], [1])

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            beta_signed(triangle(), [], [])


class TestRhoSigned:
    def test_unbalanced_triangle(self):
        cert = rho_signed_exact(unbalanced_triangle(), 1)
        assert math.isclose(cert.value, 1.0 / 3.0, rel_tol=0, abs_tol=1e-15)

    def test_balanced_signed_graph_is_zero(self):
        # switch C_4 by flipping vertex 0: edges at vertex 0 turn negative
        g = WeightedGraph.build(
            4, [(0, 1, 1, -1), (1, 2, 1), (2, 3, 1), (0, 3, 1, -1)]
        )
        assert rho_signed_exact(g, 1).value == 0.0

    # rho_signed_exact answers these sizes from the signed profile DP;
    # _signed_search is the DFS that answers beyond them.
    ENGINES = (rho_signed_exact, _signed_search)

    def test_single_positive_edge(self):
        g = WeightedGraph.build(2, [(0, 1, 1)])
        for engine in self.ENGINES:
            cert = engine(g, 1)
            assert cert.value == 0.0
            assert cert.parts == ((0, 1), ())

    def test_all_positive_rho1_zero(self):
        g = generate("random_connected", 6, seed=10)
        assert rho_signed_exact(g, 1).value == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_dfs_equals_naive_and_dp(self, seed):
        n = 4 + seed % 3
        g = with_random_signature(
            generate("random_connected", n, seed=seed, p=0.5, w_low=0.5, w_high=2.0),
            seed + 1,
        )
        profile = rho_signed_profile(g)
        for k in (1, 2):
            dfs = _signed_search(g, k).value
            assert dfs == naive_rho_signed(g, k)
            assert abs(dfs - profile[k - 1].value) <= 1e-12

    def test_certificates_valid(self):
        g = with_random_signature(generate("random_connected", 7, seed=3, p=0.4), 9)
        for engine in self.ENGINES:
            for k in (1, 2, 3):
                cert = engine(g, k)
                assert cert.exact
                assert len(cert.parts) == 2 * k
                union = set()
                for i in range(k):
                    v1, v2 = set(cert.parts[2 * i]), set(cert.parts[2 * i + 1])
                    assert v1 or v2
                    assert not v1 & v2
                    assert union.isdisjoint(v1 | v2)
                    union |= v1 | v2
                assert cert.recompute(g) == cert.value
        for cert in rho_signed_profile(g):
            assert abs(cert.recompute(g) - cert.value) <= 1e-12


class TestProfileEngine:
    """The numpy profile DP against the textbook loops in brute.py."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 10),
        st.booleans(),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_reference(self, seed, n, signed, unit_weights, data):
        # Unit weights make many subsets tie, which exercises the tie rules;
        # dense graphs give long sums, which exercises accumulation order.
        lo, hi = (1.0, 1.0) if unit_weights else (0.5, 2.0)
        p = data.draw(st.sampled_from([0.4, 0.9]))
        g = generate("random_connected", n, seed, p=p, w_low=lo, w_high=hi)
        kmax = data.draw(st.integers(1, n))
        full = (1 << n) - 1
        if signed:
            g = with_random_signature(g, seed)
            betamin, split = loop_signed_tables(g)
            tables = _signed_tables(g)
            assert tables.betamin.tolist() == betamin
            assert tables.split.tolist() == split
            score = tables.betamin
            profile = rho_signed_profile(g, kmax)
        else:
            score = _phi_array(g)
            profile = rho_profile(g, kmax)
        ref, choice, states = loop_packing_dp(score, n, kmax)
        dp = _packing_dp(score, n, kmax)
        assert [level.tolist() for level in dp] == ref
        for cert in profile:
            assert cert.states == states
            assert cert.value == ref[cert.k][full]
            assert _reconstruct(dp, score, n, cert.k) == loop_reconstruct(choice, cert.k, full)
            if signed:
                assert abs(cert.recompute(g) - cert.value) <= SIGNED_PROFILE_TOL
            else:
                assert cert.recompute(g) == cert.value

    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_tied_score_tables(self, n, seed):
        # Scores drawn from four values: nearly every packing ties.
        rng = np.random.default_rng(seed)
        score = rng.choice([0.0, 0.5, 1.0, 2.0], size=1 << n)
        score[0] = math.inf
        ref, choice, _ = loop_packing_dp(score, n, n)
        dp = _packing_dp(score, n, n)
        assert [level.tolist() for level in dp] == ref
        for k in range(1, n + 1):
            assert _reconstruct(dp, score, n, k) == loop_reconstruct(choice, k, (1 << n) - 1)

    def test_streamed_chunks_match_loop_reference(self, monkeypatch):
        # A 16 KiB budget leaves no cached table at n = 9 and cuts every
        # level into chunks of a few masks, some spanning two popcounts and
        # some a single mask larger than the cap.  The dense graph gives
        # long sums, so a change of accumulation order shows.
        monkeypatch.setattr(cheeger, "_PAIR_BUDGET", 1 << 14)
        cheeger._pair_table.cache_clear()
        try:
            n = 9
            assert cheeger._pair_table(n) is None
            g = generate("random_connected", n, seed=5, p=0.9, w_low=0.5, w_high=2.0)
            sg = with_random_signature(g, 5)
            betamin, split = loop_signed_tables(sg)
            tables = _signed_tables(sg)
            assert tables.betamin.tolist() == betamin
            assert tables.split.tolist() == split
            for score in (_phi_array(g), tables.betamin):
                ref, choice, _ = loop_packing_dp(score, n, n)
                dp = _packing_dp(score, n, n)
                assert [level.tolist() for level in dp] == ref
                for k in range(1, n + 1):
                    assert _reconstruct(dp, score, n, k) == loop_reconstruct(choice, k, (1 << n) - 1)
        finally:
            cheeger._pair_table.cache_clear()

    def test_n15_memory_within_budget(self):
        n = 15
        g = generate("random_connected", n, seed=7, p=0.3)
        tracemalloc.start()
        try:
            profile = rho_profile(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beyond the budget: the DP tables, Phi and the per-mask layout,
        # all O(n 2^n).
        assert peak <= _PAIR_BUDGET + (n + 8) * 8 * (1 << n)
        for cert in profile[:3]:
            assert cert.recompute(g) == cert.value

    def test_size_limits(self):
        g = generate("random_connected", 16, seed=1)
        with pytest.raises(ValueError, match="n <= 15"):
            rho_profile(g)
        with pytest.raises(ValueError, match="n <= 14"):
            rho_signed_profile(with_random_signature(generate("random_connected", 15, seed=1), 2))


def _suffix_masks(n: int) -> list[int]:
    full = (1 << n) - 1
    return [full >> i << i for i in range(n + 1)]


def _assert_profile_tables_match(score, n: int, ref, choice, kmax: int) -> None:
    """Levels below kmax in full, level kmax at every suffix mask, and every
    reconstruction up to kmax, against the loop's tables (computed for any
    level count >= kmax)."""
    tables = _profile_tables(score, n, kmax)
    assert len(tables) == kmax + 1
    assert [level.tolist() for level in tables[:kmax]] == ref[:kmax]
    for mask in _suffix_masks(n):
        assert tables[kmax][mask] == ref[kmax][mask]
    full = (1 << n) - 1
    for k in range(1, kmax + 1):
        assert _reconstruct(tables, score, n, k) == loop_reconstruct(choice, k, full)


class TestProfileTables:
    """The tables the profiles read: level 1 by a subset-min transform, the
    top level only at the suffix masks {i..n-1}."""

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("kind", ["random", "tied"])
    def test_top_level_matches_loop(self, n, kind):
        rng = np.random.default_rng(100 + n)
        if kind == "random":
            score = rng.uniform(0.0, 3.0, size=1 << n)
        else:
            score = rng.choice([0.0, 0.5, 1.0, 2.0], size=1 << n)
        score[0] = math.inf
        ref, choice, _ = loop_packing_dp(score, n, n)
        for kmax in range(1, n + 1):
            _assert_profile_tables_match(score, n, ref, choice, kmax)

    def test_streamed_path_matches_loop(self, monkeypatch):
        # The 16 KiB budget of the streamed-chunks test: no cached table at
        # n = 9, so every segment is built directly.
        monkeypatch.setattr(cheeger, "_PAIR_BUDGET", 1 << 14)
        cheeger._pair_table.cache_clear()
        try:
            n = 9
            assert cheeger._pair_table(n) is None
            g = generate("random_connected", n, seed=5, p=0.9, w_low=0.5, w_high=2.0)
            for score in (_phi_array(g), _signed_tables(with_random_signature(g, 5)).betamin):
                ref, choice, _ = loop_packing_dp(score, n, n)
                for kmax in range(1, n + 1):
                    _assert_profile_tables_match(score, n, ref, choice, kmax)
        finally:
            cheeger._pair_table.cache_clear()

    def test_uncached_n12_matches_loop(self):
        n = 12
        assert cheeger._pair_table(n) is None
        score = _phi_array(generate("random_connected", n, seed=3, p=0.4))
        ref, choice, _ = loop_packing_dp(score, n, n)
        for kmax in range(1, n + 1):
            _assert_profile_tables_match(score, n, ref, choice, kmax)

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("n", [5, 8, 11])
    def test_certificate_parts_follow_loop(self, n, signed):
        g = generate("random_connected", n, seed=n, p=0.5, w_low=0.5, w_high=2.0)
        full = (1 << n) - 1
        if signed:
            g = with_random_signature(g, n)
            tables = _signed_tables(g)
            score = tables.betamin
            profile = rho_signed_profile(g, 3)
        else:
            score = _phi_array(g)
            profile = rho_profile(g, 3)
        _, choice, _ = loop_packing_dp(score, n, 3)
        for cert in profile:
            masks = loop_reconstruct(choice, cert.k, full)
            if signed:
                masks.sort(key=lambda m: m & -m)
                unions = [
                    sum(1 << v for v in cert.parts[2 * i] + cert.parts[2 * i + 1])
                    for i in range(cert.k)
                ]
                assert unions == masks
                assert [sum(1 << v for v in cert.parts[2 * i]) for i in range(cert.k)] == [
                    int(tables.split[m]) for m in masks
                ]
            else:
                assert cert.parts == tuple(sorted(_parts_from_masks(masks, n)))

    def test_segments_match_pair_builder(self, monkeypatch):
        # A zero budget caches no table, so every segment is built directly.
        monkeypatch.setattr(cheeger, "_PAIR_BUDGET", 0)
        cheeger._pair_table.cache_clear()
        try:
            for n in range(1, 9):
                order = _mask_order(n)
                parts, rests = _build_pairs(order, 0, len(order.masks))
                for i, mask in enumerate(order.masks.tolist()):
                    p0, p1 = order.start[i], order.start[i + 1]
                    seg, seg_rests = _segment(n, mask)
                    assert seg.tolist() == parts[p0:p1].tolist()
                    assert seg_rests.tolist() == rests[p0:p1].tolist()
                # A suffix mask {i..n-1}'s segment in closed form.
                for i, mask in enumerate(_suffix_masks(n)[:n]):
                    closed = (np.arange((1 << (n - i - 1)) - 1, -1, -1) << (i + 1)) | (1 << i)
                    assert _segment(n, mask)[0].tolist() == closed.tolist()
        finally:
            cheeger._pair_table.cache_clear()

    @pytest.mark.parametrize("k", [1, 2])
    def test_low_k_builds_no_pair_table(self, monkeypatch, k):
        # n = 12 has no cached pair table: for k <= 2 level 1 is the
        # transform, the top level reads n directly built segments, and no
        # 3^n pair pass runs.
        g = product(generate("path", 4, mu="unit"), generate("path", 3, mu="unit"))
        expected = rho_profile(g, k)

        def refuse(*args):
            raise AssertionError("pair table built")

        monkeypatch.setattr(cheeger, "_build_pairs", refuse)
        assert rho_profile(g, k) == expected
        assert rho_exact(g, k) == expected[-1]


class TestNodalSweep:
    def test_single_edge_eigenfunction(self):
        g = generate("path", 2)
        f = laplacian_spectrum(g).function(2)
        res = rho_upper_nodal_sweep(g, f)
        assert res.m == 2
        assert res.bound == 1.0
        assert rho_exact(g, 2).value == 1.0

    def test_constant_function(self):
        g = generate("random_connected", 6, seed=6)
        res = rho_upper_nodal_sweep(g, [2.0] * 6)
        assert res.m == 1 and res.bound == 0.0

    def test_c4_half_split(self):
        g = generate("cycle", 4)
        res = rho_upper_nodal_sweep(g, [1, 1, -1, -1])
        assert res.m == 2 and res.bound == 0.5

    def test_bound_dominates_rho(self):
        for seed in range(6):
            g = generate("random_connected", 7, seed=seed, p=0.4, w_low=0.5, w_high=2.0)
            spectrum = laplacian_spectrum(g)
            profile = rho_profile(g)
            for k in range(2, 8):
                res = rho_upper_nodal_sweep(g, spectrum.function(k))
                assert res.bound >= profile[res.m - 1].value - 1e-12
                assert res.certificate.recompute(g) == res.bound
                assert not res.certificate.exact

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            rho_upper_nodal_sweep(generate("path", 3), [0.0, 0.0, 0.0])
