import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheegerlab import (
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
    _DP_PAIR_BYTES,
    _HELD_BYTES,
    _PAIR_BUDGET,
    _blocks,
    _build_pairs,
    _cut_and_measure,
    _dp_admits,
    _mask_order,
    _packing_dp,
    _parts_from_masks,
    _phi_array,
    _reconstruct,
    _segment,
    _signed_tables,
    _suffix_pass,
)
from cheegerlab.graph import FAMILIES
from brute import (
    beta_split_tables,
    loop_cut_and_measure,
    loop_nodal_sweep,
    loop_packing_dp,
    loop_reconstruct,
    loop_split_tables,
    minimal_packing_profile,
    naive_rho,
    naive_rho_signed,
    order_visible_graph,
    regrouped_rho_signed,
    shift_phi_array,
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


class TestSubsetTables:
    """Phi and the signed split table, against per-set evaluation
    (conductance, beta_signed) and the int64-shift kernel of
    tests/brute.py, bit for bit."""

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("unit_weights", [False, True])
    def test_phi_table_matches_conductance(self, n, unit_weights):
        lo, hi = (1.0, 1.0) if unit_weights else (0.5, 2.0)
        for seed, p in ((n, 0.3), (n + 100, 0.9)):
            g = generate("random_connected", n, seed, p=p, w_low=lo, w_high=hi)
            phi = _phi_array(g).tolist()
            assert phi[0] == math.inf
            for mask in range(1, 1 << n):
                members = [v for v in range(n) if (mask >> v) & 1]
                assert float.hex(phi[mask]) == float.hex(conductance(g, members))

    @pytest.mark.parametrize("n", range(2, 16))
    def test_tables_match_shift_kernels(self, n):
        for lo, hi, mu in ((0.5, 2.0, "degree"), (1.0, 1.0, "unit")):
            g = generate("random_connected", n, seed=n, p=0.5, w_low=lo, w_high=hi, mu=mu)
            assert _phi_array(g).tobytes() == shift_phi_array(g).tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("unit_weights", [False, True])
    def test_split_table_matches_beta_signed(self, n, unit_weights):
        # Dense graphs give long sums, so a change of accumulation order
        # shows; unit weights make many splits tie, which exercises the
        # first-in-scan-order rule.
        lo, hi = (1.0, 1.0) if unit_weights else (0.5, 2.0)
        for seed, p in ((n, 0.3), (n + 100, 0.9)):
            g = with_random_signature(
                generate("random_connected", n, seed, p=p, w_low=lo, w_high=hi), seed
            )
            betamin, split = beta_split_tables(g)
            tables = _signed_tables(g)
            assert tables.betamin.tobytes() == np.array(betamin).tobytes()
            assert tables.split.tolist() == split

    @pytest.mark.parametrize("n", range(2, 15))
    def test_edge_vectorised_passes_match_per_edge_loops(self, n):
        # The cut, measure and split passes against the per-edge loops they
        # replace, bit for bit.  Dense graphs give long sums; unit weights
        # make many splits tie; the order-visible K_n (n >= 10) has weights
        # 1e16 and 1.0, so a sum in any order but the sequential one (numpy
        # summing pairwise down the edges, say) changes the bits.
        graphs = [generate("random_connected", n, n, p=0.3, w_low=0.5, w_high=2.0)]
        if n <= 11:
            graphs.append(generate("random_connected", n, n + 100, p=0.9, w_low=1.0, w_high=1.0))
        if 10 <= n <= 12:
            graphs.append(order_visible_graph(n))
        for seed, g in enumerate(graphs):
            for got, want in zip(_cut_and_measure(g), loop_cut_and_measure(g)):
                assert got.tobytes() == want.tobytes()
            sg = with_random_signature(g, seed)
            betamin, split = loop_split_tables(sg)
            tables = _signed_tables(sg)
            assert tables.betamin.tobytes() == betamin.tobytes()
            assert tables.split.tobytes() == split.tobytes()


class TestRhoExact:
    def test_k1_is_zero_with_full_set(self):
        cert = rho_exact(triangle(), 1)
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

    def test_signed_graph_gives_signed_constant(self):
        # On a signed graph rho_exact and rho_profile are rho^sigma_k, the
        # same certificates as the signed entries.  gn has 2n + 2 vertices,
        # so it is taken at n = 3 (8 vertices) only.
        cases = [(f, n) for f in FAMILIES for n in ([3] if f == "gn" else range(4, 9))]
        for family, n in cases:
            for seed in (n, n + 50):
                g = with_random_signature(generate(family, n, seed), seed + 1)
                for k in range(1, g.n + 1):
                    cert, want = rho_exact(g, k), rho_signed_exact(g, k)
                    assert cert.value == want.value
                    assert (cert.parts, cert.states, cert.signed) == (want.parts, want.states, True)
                assert rho_profile(g) == rho_signed_profile(g)

    def test_certificate_is_valid(self):
        g = generate("random_connected", 8, seed=17, p=0.35, w_low=0.5, w_high=2.0)
        for k in (1, 2, 3, 5, 8):
            cert = rho_exact(g, k)
            assert cert.exact
            assert len(cert.parts) == k
            assert all(cert.parts)
            seen = set()
            for part in cert.parts:
                assert seen.isdisjoint(part)
                seen.update(part)
            assert cert.recompute(g) == cert.value


class TestEngineChoice:
    """rho_exact / rho_signed_exact answer from the profile DP whenever the
    one work policy admits the request, and raise before any table is
    built when it does not."""

    @pytest.mark.parametrize("n", [2, 9, 15])
    def test_dp_answers_in_range(self, n):
        g = generate("random_connected", n, seed=n, p=0.4, w_low=0.5, w_high=2.0)
        for k in sorted({1, 2, n // 2 + 1, n}):
            cert = rho_exact(g, k)
            assert cert == rho_profile(g, k)[k - 1]
            assert cert.exact

    @pytest.mark.parametrize("n", [2, 7, 14])
    def test_signed_dp_answers_in_range(self, n):
        g = with_random_signature(
            generate("random_connected", n, seed=n, p=0.4, w_low=0.5, w_high=2.0), n
        )
        if n <= 7:
            ref, _, _ = loop_packing_dp(beta_split_tables(g)[0], n, n)
        for k in sorted({1, 2, n}):
            cert = rho_signed_exact(g, k)
            assert cert == rho_signed_profile(g, k)[k - 1]
            assert cert.exact
            assert cert.recompute(g) == cert.value
            if n <= 7:
                assert cert.value == ref[k][(1 << n) - 1]
                if k <= 2:
                    assert cert.value == naive_rho_signed(g, k)

    @pytest.mark.parametrize("signed", [False, True])
    def test_exact_reconstructs_certificate_k_only(self, monkeypatch, signed):
        g = generate("random_connected", 9, seed=4, p=0.5, w_low=0.5, w_high=2.0)
        if signed:
            g = with_random_signature(g, 4)
        exact, profile = (rho_signed_exact, rho_signed_profile) if signed else (rho_exact, rho_profile)
        expected = profile(g, 3)[-1]
        calls = []
        reconstruct = cheeger._reconstruct

        def counting(tables, score, n, k):
            calls.append(k)
            return reconstruct(tables, score, n, k)

        monkeypatch.setattr(cheeger, "_reconstruct", counting)
        assert exact(g, 3) == expected
        assert calls == [3]

    @pytest.mark.parametrize("kind", ["random", "tied", "signed"])
    @pytest.mark.parametrize("n", [3, 6, 8, 10])
    def test_single_certificate_keeps_no_rows(self, monkeypatch, n, kind):
        # rho_exact and rho_signed_exact give the full profile's certificate
        # k, value and parts.  "tied" reads a score table drawn from four
        # values, where nearly every packing ties.
        g = generate("random_connected", n, seed=n, p=0.4, w_low=0.5, w_high=2.0)
        exact, profile = rho_exact, rho_profile
        if kind == "signed":
            g = with_random_signature(g, n)
            exact, profile = rho_signed_exact, rho_signed_profile
        elif kind == "tied":
            score = np.random.default_rng(n).choice([0.0, 0.5, 1.0, 2.0], size=1 << n)
            score[0] = math.inf
            monkeypatch.setattr(cheeger, "_phi_array", lambda h: score)
        full = profile(g)
        for k in (2, 3):
            cert = exact(g, k)
            assert (cert.value, cert.parts) == (full[k - 1].value, full[k - 1].parts)

    @pytest.mark.parametrize(
        "g",
        [
            product(generate("path", 4, mu="unit"), generate("path", 4, mu="unit")),
            generate("random_tree", 18, seed=3, w_low=0.5, w_high=2.0),
        ],
        ids=["P4xP4", "tree18"],
    )
    def test_k2_beyond_the_old_limits(self, g):
        # n = 16 and 18: at k = 2 no pair pass runs, so the policy admits them.
        assert _dp_admits(g.n, g.m, 2, signed=False)
        cert = rho_exact(g, 2)
        assert cert.exact and len(cert.parts) == 2 and all(cert.parts)
        assert set(cert.parts[0]).isdisjoint(cert.parts[1])
        assert cert.recompute(g) == cert.value

    def test_policy_admits_the_old_dp_range(self):
        # Every unsigned n <= 15 and signed n <= 14 request, at every kmax
        # and up to the complete graph's edge count.
        for n in range(1, 16):
            for kmax in range(1, n + 1):
                assert _dp_admits(n, n * (n - 1) // 2, kmax, signed=False)
                if n <= 14:
                    assert _dp_admits(n, n * (n - 1) // 2, kmax, signed=True)

    def test_policy_counts_the_sub_cube(self):
        # The DP levels visit the pairs of the n - 1 vertices above vertex
        # 0, so every full unsigned profile up to n = 18 is admitted, K18's
        # included; the full cube's pair count would refuse n = 18.  The
        # split pass still visits every pair of n, so signed verdicts move
        # only at the margin (n = 16 up to 43 edges).
        assert all(_dp_admits(n, n * (n - 1) // 2, n, signed=False) for n in (16, 17, 18))
        assert _dp_admits(15, 105, 15, signed=True)
        g18, g19 = (generate("random_connected", n, 7, p=0.3) for n in (18, 19))
        assert _dp_admits(18, g18.m, 18, signed=False)
        assert not _dp_admits(19, g19.m, 19, signed=False)
        assert _dp_admits(16, 43, 16, signed=True)
        assert not _dp_admits(16, 44, 16, signed=True)

    def test_policy_refuses_by_work_and_by_memory(self):
        assert not _dp_admits(19, 18, 19, signed=False)      # pair passes
        assert not _dp_admits(16, 120, 3, signed=True)       # split pass
        assert not _dp_admits(24, 23, 1, signed=False)       # table bytes
        assert _dp_admits(20, 19, 2, signed=False)


class TestOracleEquivalence:
    # The profile DP against naive enumeration, exactly.
    @pytest.mark.parametrize("seed", range(12))
    def test_profile_equals_naive(self, seed):
        n = 4 + seed % 4
        g = generate("random_connected", n, seed=seed, p=0.4, w_low=0.5, w_high=2.0)
        profile = rho_profile(g)
        for k in (1, 2, 3):
            assert profile[k - 1].value == naive_rho(g, k)
            assert rho_exact(g, k).value == profile[k - 1].value

    def test_profile_equals_naive_for_all_k(self):
        g = generate("random_connected", 7, seed=40, p=0.35, w_low=0.5, w_high=2.0)
        profile = rho_profile(g)
        for k in range(1, 8):
            assert profile[k - 1].value == naive_rho(g, k)

    def test_profile_certificates_valid(self):
        g = generate("random_connected", 9, seed=8, p=0.3, w_low=0.5, w_high=2.0)
        for cert in rho_profile(g):
            assert cert.recompute(g) == cert.value
            assert len(cert.parts) == cert.k


def _relabelled(g: WeightedGraph, perm: list[int]) -> WeightedGraph:
    """g with vertex v renamed perm[v]: its edges are stored in the new
    ids' order, so every subset score is the same terms summed in another
    order."""
    mu = [0.0] * g.n
    kappa = [0.0] * g.n
    for v in range(g.n):
        mu[perm[v]] = g.mu[v]
        kappa[perm[v]] = g.kappa[v]
    edges = [(perm[e.u], perm[e.v], e.w, e.sigma) for e in g.edges]
    return WeightedGraph.build(g.n, edges, mu=mu, kappa=kappa)


def _scaled(g: WeightedGraph, j: int) -> WeightedGraph:
    """g with every weight, measure and potential multiplied by 2^j."""
    c = 2.0**j
    edges = [(e.u, e.v, e.w * c, e.sigma) for e in g.edges]
    return WeightedGraph.build(g.n, edges, mu=[x * c for x in g.mu], kappa=[x * c for x in g.kappa])


class TestInvariances:
    """Exact oracles at the sizes the exact frontier is about, where naive
    enumeration cannot reach: relabelling the vertices, scaling every
    weight by a power of two, and the disjoint union of two graphs."""

    @staticmethod
    def _mapped_value(cert, perm, h) -> float:
        """The canonical max score, in h, of cert's parts renamed by perm:
        a feasible tuple of h, so rho_k(h) is at most this value."""
        parts = tuple(tuple(sorted(perm[v] for v in part)) for part in cert.parts)
        return dataclasses.replace(cert, parts=parts).recompute(h)

    @pytest.mark.parametrize(
        "n, seed, signed", [(15, 1, False), (15, 2, False), (16, 3, False), (16, 4, False), (13, 5, True)]
    )
    def test_relabelled_optima_bound_each_other(self, n, seed, signed):
        # Relabelling reorders the canonical sums, so the two optima may
        # differ in the last bits; but each optimum, mapped to the other
        # graph and scored there, is feasible, so it bounds the other's
        # optimum from above with no tolerance.
        g = generate("random_connected", n, seed, p=0.3, w_low=0.5, w_high=2.0)
        profile = rho_profile
        if signed:
            g = with_random_signature(g, seed)
            profile = rho_signed_profile
        perm = np.random.default_rng(seed).permutation(n).tolist()
        inverse = [0] * n
        for v, pv in enumerate(perm):
            inverse[pv] = v
        h = _relabelled(g, perm)
        assert h != g
        for a, b in zip(profile(g), profile(h)):
            assert a.recompute(g) == a.value and b.recompute(h) == b.value
            assert b.value <= self._mapped_value(a, perm, h)
            assert a.value <= self._mapped_value(b, inverse, g)

    @pytest.mark.parametrize("n, seed", [(n, seed) for n in (12, 13) for seed in range(1, 11)])
    def test_switched_optima_bound_each_other(self, n, seed):
        # Switching at a vertex set S flips the sign of every edge with one
        # end in S.  Moving S's vertices across the sides of a split keeps
        # which edges beta counts, but moves a positive edge's term w
        # across the sides to a negative edge's 2w inside one side, so the
        # canonical sums may differ in the last bits; each optimum, mapped
        # and scored in the other graph, is feasible there, so it bounds the
        # other's optimum with no tolerance.  At n = 12 and 13 the split
        # pass scores each built block in several ranges of pairs.
        g = generate("random_connected", n, seed, p=0.3, w_low=0.5, w_high=2.0)
        g = with_random_signature(g, seed)
        s = set(np.random.default_rng(seed).choice(n, size=n // 2, replace=False).tolist())
        edges = [(e.u, e.v, e.w, -e.sigma if (e.u in s) != (e.v in s) else e.sigma) for e in g.edges]
        h = WeightedGraph.build(n, edges, mu=g.mu, kappa=g.kappa)
        assert h != g

        def switched(cert, graph) -> float:
            parts = []
            for v1, v2 in zip(cert.parts[0::2], cert.parts[1::2]):
                parts.append(tuple(sorted({*v1} - s | {*v2} & s)))
                parts.append(tuple(sorted({*v2} - s | {*v1} & s)))
            return dataclasses.replace(cert, parts=tuple(parts)).recompute(graph)

        for a, b in zip(rho_signed_profile(g), rho_signed_profile(h)):
            assert b.value <= switched(a, h)
            assert a.value <= switched(b, g)

    @pytest.mark.parametrize("j", [-20, 3, 61])
    @pytest.mark.parametrize("n", [8, 12])
    def test_power_of_two_scaling_keeps_every_bit(self, n, j):
        # Scaling by 2^j is exact away from overflow and underflow, and
        # every score, beta and Laplacian entry is a ratio of sums that all
        # scale alike (the off-diagonal's sqrt(mu_u mu_v) by exactly 2^j).
        base = generate("random_connected", n, n, p=0.4, w_low=0.5, w_high=2.0)
        kappa = np.random.default_rng(n).uniform(-1.0, 1.0, n).tolist()
        g = WeightedGraph.build(n, [tuple(e) for e in base.edges], mu=base.mu, kappa=kappa)
        sg = with_random_signature(g, n)
        g2, sg2 = _scaled(g, j), _scaled(sg, j)
        assert _phi_array(g2).tobytes() == _phi_array(g).tobytes()
        t, t2 = _signed_tables(sg), _signed_tables(sg2)
        assert t2.betamin.tobytes() == t.betamin.tobytes()
        assert t2.split.tobytes() == t.split.tobytes()
        for a, b in (*zip(rho_profile(g), rho_profile(g2)), *zip(rho_signed_profile(sg), rho_signed_profile(sg2))):
            assert a == b and a.value.hex() == b.value.hex()
        for h, h2 in ((g, g2), (sg, sg2)):
            values = laplacian_spectrum(h, functions=False).values
            assert [x.hex() for x in laplacian_spectrum(h2, functions=False).values] == [x.hex() for x in values]

    @pytest.mark.parametrize("seed", [1, 5, 11])
    def test_disjoint_union_meets_the_combination(self, seed):
        # rho_k(G + H) = min over i of max(rho_i(G), rho_{k-i}(H)), with
        # rho_0 = -inf.  A part inside one component scores in the union
        # the same sum as in its own graph (the other's edges add 0.0), so
        # every combination is attained and bounds the union's optimum
        # with no tolerance.  A part that meets both components scores the
        # mediant of its two sides' cuts over their measures, which may
        # round an ulp below both; only such a certificate may be lower
        # (seed 11's k = 8 optimum is one).
        g, h = (
            generate("random_connected", 8, s, p=0.4, w_low=0.5, w_high=2.0)
            for s in (seed, seed + 1)
        )
        edges = [tuple(e) for e in g.edges] + [(e.u + 8, e.v + 8, e.w, e.sigma) for e in h.edges]
        union = WeightedGraph.build(16, edges, mu=g.mu + h.mu)
        rho_g, rho_h = ([-math.inf] + [c.value for c in rho_profile(x)] for x in (g, h))
        for cert in rho_profile(union):
            k = cert.k
            combined = min(max(rho_g[i], rho_h[k - i]) for i in range(max(0, k - 8), min(k, 8) + 1))
            assert cert.value <= combined
            if cert.value < combined:
                assert any(min(part) < 8 <= max(part) for part in cert.parts)


def _grid(rows: int, cols: int) -> WeightedGraph:
    return product(generate("path", rows, mu="unit"), generate("path", cols, mu="unit"))


class TestMinimalPacking:
    """A second exact algorithm where naive enumeration cannot reach: the
    packing DP restricted to minimal parts (`brute.minimal_packing_profile`),
    with its own pair layout and its own walk."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_equals_naive(self, n):
        g = generate("random_connected", n, seed=n, p=0.4, w_low=0.5, w_high=2.0)
        for cert in minimal_packing_profile(g)[:3]:
            assert cert.value == naive_rho(g, cert.k)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate("random_connected", 15, seed=1, p=0.3),
            lambda: generate("random_connected", 15, seed=2, p=0.3),
            lambda: generate("random_tree", 15, seed=3),
            lambda: _grid(5, 3),
            lambda: generate("random_connected", 16, seed=1, p=0.3),
            lambda: generate("random_connected", 16, seed=2, p=0.3),
            lambda: generate("random_tree", 16, seed=3),
            lambda: _grid(4, 4),
        ],
        ids=["rc15-1", "rc15-2", "tree15", "P5xP3", "rc16-1", "rc16-2", "tree16", "P4xP4"],
    )
    def test_profile_equals_minimal_packing(self, make):
        g = make()
        reference = minimal_packing_profile(g)
        assert [c.value for c in rho_profile(g)] == [c.value for c in reference]
        for cert in reference:
            assert len(cert.parts) == cert.k and cert.recompute(g) == cert.value


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
        assert cert.value == 1.0 / 3.0

    def test_balanced_signed_graph_is_zero(self):
        # switch C_4 by flipping vertex 0: edges at vertex 0 turn negative
        g = WeightedGraph.build(
            4, [(0, 1, 1, -1), (1, 2, 1), (2, 3, 1), (0, 3, 1, -1)]
        )
        assert rho_signed_exact(g, 1).value == 0.0

    def test_single_positive_edge(self):
        g = WeightedGraph.build(2, [(0, 1, 1)])
        cert = rho_signed_exact(g, 1)
        assert cert.value == 0.0
        assert cert.parts == ((0, 1), ())

    def test_all_positive_rho1_zero(self):
        g = generate("random_connected", 6, seed=10)
        assert rho_signed_exact(g, 1).value == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_signed_profile_equals_naive(self, seed):
        n = 4 + seed % 3
        g = with_random_signature(
            generate("random_connected", n, seed=seed, p=0.5, w_low=0.5, w_high=2.0),
            seed + 1,
        )
        profile = rho_signed_profile(g)
        for k in (1, 2):
            assert profile[k - 1].value == naive_rho_signed(g, k)
            assert rho_signed_exact(g, k).value == profile[k - 1].value

    @pytest.mark.parametrize("unit_weights", [False, True])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_regrouped_oracle_equals_naive(self, n, unit_weights):
        lo, hi = (1.0, 1.0) if unit_weights else (0.5, 2.0)
        for seed, p in ((n, 0.3), (n + 100, 0.9)):
            g = with_random_signature(
                generate("random_connected", n, seed, p=p, w_low=lo, w_high=hi), seed
            )
            assert regrouped_rho_signed(g, 3) == [naive_rho_signed(g, k) for k in (1, 2, 3)]

    def test_certificates_valid(self):
        g = with_random_signature(generate("random_connected", 7, seed=3, p=0.4), 9)
        for k in (1, 2, 3):
            cert = rho_signed_exact(g, k)
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
            assert cert.recompute(g) == cert.value


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
            betamin, split = beta_split_tables(g)
            tables = _signed_tables(g)
            assert tables.betamin.tobytes() == np.array(betamin).tobytes()
            assert tables.split.tolist() == split
            score = tables.betamin
            profile = rho_signed_profile(g, kmax)
        else:
            score = _phi_array(g)
            profile = rho_profile(g, kmax)
        ref, choice, states = loop_packing_dp(score, n, kmax)
        tables = _packing_dp(score, n, kmax)
        _assert_levels_match(tables, ref, range(kmax + 1))
        _assert_rows_match(tables, n, choice)
        for cert in profile:
            assert cert.states == states
            assert cert.value == ref[cert.k][full]
            walk = _reconstruct(tables, score, n, cert.k)
            assert walk == (cert.value, loop_reconstruct(choice, cert.k, full))
            assert cert.recompute(g) == cert.value

    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_tied_score_tables(self, n, seed):
        # Scores drawn from four values: nearly every packing ties.
        rng = np.random.default_rng(seed)
        score = rng.choice([0.0, 0.5, 1.0, 2.0], size=1 << n)
        score[0] = math.inf
        ref, choice, _ = loop_packing_dp(score, n, n)
        tables = _packing_dp(score, n, n)
        _assert_levels_match(tables, ref, range(n + 1))
        _assert_rows_match(tables, n, choice)
        full = (1 << n) - 1
        for k in range(1, n + 1):
            assert _reconstruct(tables, score, n, k) == (ref[k][full], loop_reconstruct(choice, k, full))

    def test_streamed_chunks_match_loop_reference(self, monkeypatch):
        # A 16 KiB hold and budget leave no held plan at n = 9 or at its
        # sub-cube of 8, so every block is built per call, cut into column
        # ranges of a few masks (single columns in the tallest groups), and
        # the split pass scores each in ranges of a few pairs; the signed
        # profile runs the split pass over every block of n = 9, then the
        # packing levels over the sub-cube's.  The dense graph gives long
        # sums, so a change of accumulation order shows.
        monkeypatch.setattr(cheeger, "_PAIR_BUDGET", 1 << 14)
        monkeypatch.setattr(cheeger, "_HELD_BYTES", 1 << 14)
        cheeger._plan.cache_clear()
        try:
            n = 9
            full = (1 << n) - 1
            assert cheeger._plan(n) is None and cheeger._plan(n - 1) is None
            g = generate("random_connected", n, seed=5, p=0.9, w_low=0.5, w_high=2.0)
            sg = with_random_signature(g, 5)
            betamin, split = beta_split_tables(sg)
            signed = _signed_tables(sg)
            assert signed.betamin.tobytes() == np.array(betamin).tobytes()
            assert signed.split.tolist() == split
            for score in (_phi_array(g), signed.betamin):
                ref, choice, _ = loop_packing_dp(score, n, n)
                tables = _packing_dp(score, n, n)
                _assert_levels_match(tables, ref, range(n + 1))
                # No held plan, so no kept rows: every part is rescanned.
                assert tables.rows == [None] * (n + 1)
                for k in range(1, n + 1):
                    assert _reconstruct(tables, score, n, k) == (ref[k][full], loop_reconstruct(choice, k, full))
        finally:
            cheeger._plan.cache_clear()

    def test_held_groups_fit_one_range(self):
        # Every popcount group of a held plan fits in one column range, so
        # the packing levels and the split pass read each held group whole.
        cap = _PAIR_BUDGET // 2 // _DP_PAIR_BYTES
        for n in range(1, 11):
            plan = cheeger._plan(n)
            assert plan is not None
            for p, group in enumerate(plan.groups, 1):
                assert group.parts.size == math.comb(n, p) << (p - 1)
                assert p == 1 or group.parts.size <= cap
            for first in (1, 2):
                yielded = list(_blocks(n, first))
                assert [p for p, _ in yielded] == list(range(first, n + 1))
                assert all(group is plan.groups[p - 1] for p, group in yielded)
        assert cheeger._plan(11) is None

    def test_ranges_fold_a_one_item_tail(self):
        # Five items fit in half the budget: a one-item tail joins the range
        # before it; an item over half the budget gets a range of its own.
        item = _PAIR_BUDGET // 2 // 5
        assert list(cheeger._ranges(12, item)) == [(0, 5), (5, 10), (10, 12)]
        assert list(cheeger._ranges(11, item)) == [(0, 5), (5, 11)]
        assert list(cheeger._ranges(6, item)) == [(0, 6)]
        assert list(cheeger._ranges(1, item)) == [(0, 1)]
        assert list(cheeger._ranges(3, _PAIR_BUDGET)) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("case, budget", [("random", 2304), ("order_visible", 3072)])
    def test_results_do_not_depend_on_the_ranges(self, monkeypatch, case, budget):
        # The cut pass, the split pass and the packing columns, each run in
        # several ranges with a folded one-item tail (the budgets are picked
        # for that, and the test checks it), against one range each.  Each
        # sign class holds 9 edges or more, so a lone mask or pair, whose
        # terms numpy would sum pairwise, changes the bits; the K9 whose
        # weights 1e16, 1, 1, 1 repeat makes every other order show too.
        n = 9
        g = generate("random_connected", n, seed=5, p=0.9, w_low=0.5, w_high=2.0)
        if case == "order_visible":
            g = order_visible_graph(n)
        sg = with_random_signature(g, 5)
        assert min(sum(e.sigma == s for e in sg.edges) for s in (1, -1)) >= 9
        monkeypatch.setattr(cheeger, "_HELD_BYTES", 1 << 12)
        ranges = []
        real = cheeger._ranges

        def recording(total, item_bytes):
            cuts = list(real(total, item_bytes))
            ranges.append((item_bytes, cuts))
            return iter(cuts)

        monkeypatch.setattr(cheeger, "_ranges", recording)
        cheeger._plan.cache_clear()
        try:
            assert cheeger._plan(n) is None and cheeger._plan(n - 1) is None
            runs = []
            for b in (budget, 1 << 26):
                monkeypatch.setattr(cheeger, "_PAIR_BUDGET", b)
                ranges.clear()
                h, sh = copy.copy(g), copy.copy(sg)
                signed = _signed_tables(sh)
                runs.append([
                    *(a.tobytes() for a in (*_cut_and_measure(h), _phi_array(h), signed.betamin, signed.split)),
                    *((c.k, c.value.hex(), c.parts, c.states) for c in (*rho_profile(h), *rho_signed_profile(sh))),
                ])
                items = {"cut": {11 * g.m}, "split": {signed.pair_bytes}}
                items["packing"] = {_DP_PAIR_BYTES << (p - 1) for p in range(2, n + 1)}
                assert len(set().union(*items.values())) == sum(map(len, items.values()))
                for kind, sizes in items.items():
                    cuts = [c for item_bytes, c in ranges if item_bytes in sizes]
                    if b == budget:
                        assert any(len(c) > 2 and c[-1][1] - c[-1][0] == c[0][1] - c[0][0] + 1 for c in cuts), kind
                    else:
                        assert cuts and all(len(c) == 1 for c in cuts), kind
            assert runs[0] == runs[1]
        finally:
            cheeger._plan.cache_clear()

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

    def test_per_n_tables_held_by_bytes(self):
        # A per-n table is held while it holds at most _HELD_BYTES, so
        # large n leave nothing allocated behind them.
        trees = [generate("random_tree", n, seed=n) for n in (18, 20)]
        tracemalloc.start()
        try:
            certs = [rho_exact(g, 2) for g in trees]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < _HELD_BYTES
        for g, cert in zip(trees, certs):
            assert cert.recompute(g) == cert.value
        assert cheeger._plan(10) is cheeger._plan(10)
        assert cheeger._plan(11) is None
        assert cheeger._bits(16) is cheeger._bits(16)
        assert cheeger._bits(17) is not cheeger._bits(17)

    def test_size_limits(self, monkeypatch):
        # Beyond the work policy, refused before any subset table is built:
        # the full unsigned profile at n = 19, the signed one on K16 (its
        # split pass alone is 120 passes over (3^16 - 1) / 2 pairs).
        def refuse(*args):
            raise AssertionError("a subset table was built")

        for name in ("_phi_array", "_signed_tables", "_cut_and_measure"):
            monkeypatch.setattr(cheeger, name, refuse)
        g = generate("random_connected", 19, seed=1)
        sg = with_random_signature(generate("complete", 16), 2)
        for call, message in (
            (lambda: rho_profile(g), "exact rho_k on n = 19 vertices up to kmax = 19 is beyond"),
            (lambda: rho_exact(g, 19), "exact rho_k on n = 19 vertices up to kmax = 19 is beyond"),
            (lambda: rho_signed_profile(sg), "exact signed rho_k on n = 16 vertices up to kmax = 16 is beyond"),
            (lambda: rho_signed_exact(sg, 16), "exact signed rho_k on n = 16 vertices up to kmax = 16 is beyond"),
        ):
            with pytest.raises(ValueError, match=message):
                call()


def _suffix_masks(n: int) -> list[int]:
    full = (1 << n) - 1
    return [full >> i << i for i in range(n + 1)]


def _assert_levels_match(tables, ref, levels) -> None:
    """The DP's levels against the loop's at every mask without vertex 0
    (the sub-cube's tables, indexed by mask >> 1)."""
    for j in levels:
        assert tables.dp[j].tolist() == ref[j][0::2]


def _assert_rows_match(tables, n: int, choice) -> None:
    """The choices the DP kept: rows present at every level 1..kmax of the
    sub-cube's held plan when the group pass runs (kmax >= 2 of the DP's
    own levels), and nowhere else; at every (level, mask without vertex 0)
    where the loop's choice is a part, the kept row's part is that
    choice."""
    plan = cheeger._plan(n - 1)
    first = _mask_order(n - 1).first
    kmax = len(tables.dp) - 1
    kept = plan is not None and kmax >= 2
    assert tables.rows[0] is None
    compared = 0
    for j, level in enumerate(tables.rows[1:], 1):
        assert (level is not None) == kept
        if not kept:
            continue
        for p, group in enumerate(plan.groups[j - 1 :], j):
            rows = level[first[p] : first[p + 1]]
            parts = group.parts[rows, np.arange(len(group.masks))]
            for mask, part in zip(group.masks.tolist(), parts.tolist()):
                if choice[j][mask << 1]:
                    assert part << 1 == choice[j][mask << 1]
                    compared += 1
    # At n = 1 the sub-cube has no nonempty mask.
    assert compared > 0 or not kept or n == 1


def _assert_walk_matches(score, n: int, ref, choice, kmax: int) -> None:
    """The tables of a profile up to kmax and the walks over them, against
    the loop: the levels below kmax at every mask without vertex 0, with
    their choices; the pass at every suffix mask V_i = {i..n-1} over each
    level j - 1 = 0..kmax-1, which with the loop's level j at V_{i+1} gives
    the loop's level j at V_i, and whose (value, pick) is the loop's where
    the loop's choice there is a part; and the walk for every k = 1..kmax,
    which starts from level k's table below kmax and from inf at kmax, its
    value and parts.  The loop's tables may hold any level count >= kmax."""
    tables = _packing_dp(score, n, kmax - 1)
    assert len(tables.dp) == len(tables.rows) == kmax
    _assert_levels_match(tables, ref, range(kmax))
    _assert_rows_match(tables, n, choice)
    suffixes = _suffix_masks(n)
    for j in range(1, kmax + 1):
        for i, mask in enumerate(suffixes[:n]):
            value, pick = _suffix_pass(score, tables.dp[j - 1], i)
            rest = ref[j][suffixes[i + 1]]
            assert min(value, rest) == ref[j][mask]
            if choice[j][mask]:
                assert (value, pick) == (ref[j][mask], choice[j][mask])
            else:
                assert value >= rest
    full = (1 << n) - 1
    for k in range(1, kmax + 1):
        assert _reconstruct(tables, score, n, k) == (ref[k][full], loop_reconstruct(choice, k, full))


class TestProfileTables:
    """The tables the profiles read, level 1 by a subset-min transform, and
    the one walk over them, which reads each level at the suffix masks
    {i..n-1} by their passes."""

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
            _assert_walk_matches(score, n, ref, choice, kmax)

    def test_streamed_path_matches_loop(self, monkeypatch):
        # The 16 KiB hold and budget of the streamed-chunks test: no held
        # plan at n = 9, so every block and segment is built directly.
        monkeypatch.setattr(cheeger, "_PAIR_BUDGET", 1 << 14)
        monkeypatch.setattr(cheeger, "_HELD_BYTES", 1 << 14)
        cheeger._plan.cache_clear()
        try:
            n = 9
            assert cheeger._plan(n) is None
            g = generate("random_connected", n, seed=5, p=0.9, w_low=0.5, w_high=2.0)
            for score in (_phi_array(g), _signed_tables(with_random_signature(g, 5)).betamin):
                ref, choice, _ = loop_packing_dp(score, n, n)
                for kmax in range(1, n + 1):
                    _assert_walk_matches(score, n, ref, choice, kmax)
        finally:
            cheeger._plan.cache_clear()

    def test_uncached_n12_matches_loop(self):
        n = 12
        assert cheeger._plan(n - 1) is None
        score = _phi_array(generate("random_connected", n, seed=3, p=0.4))
        ref, choice, _ = loop_packing_dp(score, n, n)
        for kmax in range(1, n + 1):
            _assert_walk_matches(score, n, ref, choice, kmax)

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
                assert cert.parts == tuple(sorted(_parts_from_masks(masks)))

    def test_segments_match_pair_builder(self):
        # Each mask's segment, built by Python-int doubling, is its column
        # of the block _build_pairs writes for its popcount group: the
        # same parts in the same descending order.
        for n in range(1, 9):
            order = _mask_order(n)
            for p in range(1, n + 1):
                masks = order.masks[order.first[p] : order.first[p + 1]]
                parts, rests = _build_pairs(masks, p)
                for c, mask in enumerate(masks.tolist()):
                    seg, seg_rests = _segment(mask)
                    assert seg.tolist() == parts[:, c].tolist()
                    assert seg_rests.tolist() == rests[:, c].tolist()
            # A suffix mask {i..n-1}'s segment in closed form.
            for i, mask in enumerate(_suffix_masks(n)[:n]):
                closed = (np.arange((1 << (n - i - 1)) - 1, -1, -1) << (i + 1)) | (1 << i)
                assert _segment(mask)[0].tolist() == closed.tolist()

    @pytest.mark.parametrize("k", [1, 2])
    def test_low_k_builds_no_pair_table(self, monkeypatch, k):
        # n = 12 and its sub-cube of 11 have no held plan: for k <= 2 level
        # 1 is the transform, the walk runs its strided passes at the suffix
        # masks and reads their picks, level 1 below it builds its segments
        # directly, and no pair pass runs.
        g = product(generate("path", 4, mu="unit"), generate("path", 3, mu="unit"))
        expected = rho_profile(g, k)

        def refuse(*args):
            raise AssertionError("pair table built")

        monkeypatch.setattr(cheeger, "_build_pairs", refuse)
        assert rho_profile(g, k) == expected
        assert rho_exact(g, k) == expected[-1]

    def test_low_k_asks_for_no_sub_cube_plan(self, monkeypatch):
        # A request at k <= 2 packs at most level 1 and keeps no rows, so
        # neither its DP nor its walk asks for the plan of the sub-cube of
        # n - 1 (a signed one still asks for n's, for its split pass).  A
        # profile keeps rows, and its walks read them through that plan.
        asked = []
        plan = cheeger._plan

        def recording(n):
            asked.append(n)
            return plan(n)

        monkeypatch.setattr(cheeger, "_plan", recording)
        g = generate("random_connected", 11, seed=5, p=0.4, w_low=0.5, w_high=2.0)
        sg = with_random_signature(generate("random_connected", 8, seed=3, p=0.8), 3)
        for h in (g, sg):
            full = rho_profile(h)
            for k in (1, 2):
                asked.clear()
                cert = rho_exact(h, k)
                assert h.n - 1 not in asked
                assert cert == rho_profile(h, k)[-1]
                assert (cert.value, cert.parts) == (full[k - 1].value, full[k - 1].parts)
        for n in (3, 7, 8, 11):
            unsigned = generate("random_connected", n, seed=n, p=0.4)
            for h in (unsigned, with_random_signature(unsigned, n)):
                asked.clear()
                full = rho_profile(h)
                assert n - 1 in asked
                for k in range(1, n + 1):
                    cert = rho_exact(h, k)
                    assert (cert.value, cert.parts) == (full[k - 1].value, full[k - 1].parts)

    @pytest.mark.parametrize("signed", [False, True])
    def test_full_profile_rescans_no_segment(self, monkeypatch, signed):
        # At n = 10 and 11 (whose sub-cube reads the held plan of 10) every
        # level below the top keeps its argmin rows, and every walk's first
        # part is its suffix pass's pick, so a full profile rescans no
        # segment, where one per part taken would be n(n + 1) / 2.
        calls = []
        segment = cheeger._segment

        def counting(mask):
            calls.append(mask)
            return segment(mask)

        monkeypatch.setattr(cheeger, "_segment", counting)
        profile = rho_signed_profile if signed else rho_profile
        for n in (10, 11):
            g = generate("random_connected", n, seed=3, p=0.3, w_low=0.5, w_high=2.0)
            if signed:
                g = with_random_signature(g, 3)
            certs = profile(g)
            assert calls == []
            for cert in certs:
                assert cert.recompute(g) == cert.value

    def test_top_level_keeps_its_choices(self, monkeypatch):
        # The walk reads each suffix mask's pick from its pass, so a walk
        # that drops vertices before its first part rescans no segment: the
        # star's k = 3 parts are its leaves 3, 4 and 5, and the disconnected
        # graphs' k = 1 part is the component without vertex 0.
        calls = []
        segment = cheeger._segment

        def counting(mask):
            calls.append(mask)
            return segment(mask)

        monkeypatch.setattr(cheeger, "_segment", counting)
        star = generate("star", 6)
        cert = rho_exact(star, 3)
        assert cert.parts == ((3,), (4,), (5,))
        cert = rho_signed_exact(with_random_signature(star, 1), 3)
        assert cert.parts == ((3,), (), (4,), (), (5,), ())
        assert calls == []
        g = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)])
        sg = WeightedGraph.build(5, [(0, 1, 1, -1), (1, 2, 1, -1), (0, 2, 1, -1), (3, 4, 1)])
        unsigned = [star, g, generate("random_connected", 9, seed=4, p=0.5)]
        for h in unsigned:
            assert rho_exact(h, 1) == rho_profile(h, 1)[0]
        for h in (sg, *(with_random_signature(h, 2) for h in unsigned)):
            assert rho_signed_exact(h, 1) == rho_signed_profile(h, 1)[0]
        assert rho_exact(g, 1).parts == ((2, 3),)
        assert rho_signed_exact(sg, 1).parts == ((3, 4), ())
        assert calls == []

    @pytest.mark.parametrize("signed", [False, True])
    def test_walks_count_their_passes(self, monkeypatch, signed):
        # A single-k request walks only the top level, from its last suffix
        # with k vertices down to V: n - k + 1 passes.  A profile's walks
        # run V's pass alone below kmax and n - kmax + 1 at the top: n
        # passes, whatever kmax.
        calls = []
        real = cheeger._suffix_pass

        def counting(score, prev, i):
            calls.append(i)
            return real(score, prev, i)

        monkeypatch.setattr(cheeger, "_suffix_pass", counting)
        exact, profile = (rho_signed_exact, rho_signed_profile) if signed else (rho_exact, rho_profile)
        for n in (2, 6, 11):
            g = generate("random_connected", n, seed=n, p=0.4, w_low=0.5, w_high=2.0)
            if signed:
                g = with_random_signature(g, n)
            for k in range(1, n + 1):
                calls.clear()
                exact(g, k)
                assert calls == list(range(n - k, -1, -1))
                calls.clear()
                profile(g, k)
                assert len(calls) == n


def _assert_sweeps_match_loop(monkeypatch, g, functions) -> list:
    """Each sweep of g, with Phi read from the table a profile of g built
    and with each level set evaluated per set (on an equal graph, which
    holds no table), equals the loop reference bit for bit; returns the
    reference parts."""

    def refuse(*args):
        raise AssertionError("a level set was evaluated per set")

    refs = [loop_nodal_sweep(g, f) for f in functions]
    for h in (g, copy.copy(g)):
        with monkeypatch.context() as m:
            if h is g:
                rho_profile(g)
                m.setattr(cheeger, "_phi_eval", refuse)
            for f, ref in zip(functions, refs):
                res = rho_upper_nodal_sweep(h, f)
                assert (res.k, res.parts) == (ref.k, ref.parts)
                assert res.value.hex() == ref.value.hex()
    return [ref.parts for ref in refs]


class TestNodalSweep:
    def test_single_edge_eigenfunction(self):
        g = generate("path", 2)
        f = laplacian_spectrum(g).function(2)
        res = rho_upper_nodal_sweep(g, f)
        assert res.k == 2
        assert res.value == 1.0
        assert rho_exact(g, 2).value == 1.0

    def test_constant_function(self):
        g = generate("random_connected", 6, seed=6)
        res = rho_upper_nodal_sweep(g, [2.0] * 6)
        assert res.k == 1 and res.value == 0.0

    def test_c4_half_split(self):
        g = generate("cycle", 4)
        res = rho_upper_nodal_sweep(g, [1, 1, -1, -1])
        assert res.k == 2 and res.value == 0.5

    def test_bound_dominates_rho(self):
        for seed in range(6):
            g = generate("random_connected", 7, seed=seed, p=0.4, w_low=0.5, w_high=2.0)
            spectrum = laplacian_spectrum(g)
            profile = rho_profile(g)
            for k in range(2, 8):
                res = rho_upper_nodal_sweep(g, spectrum.function(k))
                assert res.value >= profile[res.k - 1].value - 1e-12
                assert res.recompute(g) == res.value
                assert not res.exact

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_table_read_sweep_matches_loop(self, monkeypatch, n):
        # After a profile of g, each level set's Phi is read from the table
        # that profile built; with no table of g held, each is evaluated
        # per set.  Both equal the loop reference bit for bit, on
        # eigenfunctions and on functions with tied |f| (and zeros).
        rng = np.random.default_rng(n)
        for seed in range(4):
            g = generate("random_connected", n, seed=seed, p=0.4, w_low=0.5, w_high=2.0)
            spectrum = laplacian_spectrum(g)
            functions = [spectrum.function(k) for k in range(1, n + 1)]
            for _ in range(6):
                f = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=n)
                f[0] = 2.0
                functions.append(f)
            _assert_sweeps_match_loop(monkeypatch, g, functions)

    def test_sweep_reads_its_own_graphs_table(self, monkeypatch):
        # Each graph holds its own Phi table: a profile of another graph
        # after g's leaves g's sweep reading g's table, and an equal but
        # distinct graph holds none, so its sweep evaluates each level set
        # per set, builds no table, and gives the same bits.
        def refuse(*args):
            raise AssertionError("refused")

        g1 = generate("random_connected", 8, seed=3, p=0.4, w_low=0.5, w_high=2.0)
        g2 = generate("random_connected", 9, seed=4, p=0.4, w_low=0.5, w_high=2.0)
        functions = [laplacian_spectrum(g1).function(k) for k in range(2, 9)]
        rho_profile(g1)
        rho_profile(g2)
        with monkeypatch.context() as m:
            m.setattr(cheeger, "_phi_eval", refuse)
            held = [rho_upper_nodal_sweep(g1, f) for f in functions]
        evaluated = []
        phi_eval = cheeger._phi_eval

        def counting(g, member):
            evaluated.append(g)
            return phi_eval(g, member)

        monkeypatch.setattr(cheeger, "_phi_eval", counting)
        monkeypatch.setattr(cheeger, "_phi_table", refuse)
        twin = copy.copy(g1)
        assert twin == g1 and twin is not g1
        for f, ref in zip(functions, held):
            res = rho_upper_nodal_sweep(twin, f)
            assert (res.k, res.parts, res.value.hex()) == (ref.k, ref.parts, ref.value.hex())
        assert evaluated and all(g is twin for g in evaluated)

    def test_sweep_keeps_the_largest_tied_level_set(self, monkeypatch):
        # On the path 0-1-2-3 with weights 1, 2, 3 and unit measure, the
        # level sets {0}, {0, 1}, {0, 1, 2} of f's positive domain all have
        # Phi = 1.0; the sweep keeps the largest, from either source.
        g = WeightedGraph.build(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)], mu="unit")
        res = _assert_sweeps_match_loop(monkeypatch, g, [[3.0, 2.0, 1.0, -1.0]])
        assert res == [((0, 1, 2), (3,))]

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            rho_upper_nodal_sweep(generate("path", 3), [0.0, 0.0, 0.0])
