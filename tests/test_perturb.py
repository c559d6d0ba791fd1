import math

import numpy as np
import pytest

from cheegerlab import (
    GenericityReport,
    SplitMix64,
    WeightedGraph,
    derive_seed,
    generate,
    genericity_frequency,
    laplacian_spectrum,
    perturb,
)


class TestSplitMix:
    def test_known_mixing_is_bijective_enough(self):
        rng = SplitMix64(0)
        vals = [rng.next_u64() for _ in range(1000)]
        assert len(set(vals)) == 1000

    def test_uniform_range(self):
        rng = SplitMix64(99)
        us = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in us)

    def test_derive_seed_decorrelates(self):
        assert derive_seed(1, 0) != derive_seed(1, 1) != derive_seed(2, 0)

    def test_randint_bounds(self):
        rng = SplitMix64(5)
        assert all(0 <= rng.randint(7) < 7 for _ in range(200))
        with pytest.raises(ValueError):
            rng.randint(0)


class TestPerturb:
    def test_deterministic(self):
        g = generate("star", 4)
        assert perturb(g, 0.1, 42) == perturb(g, 0.1, 42)

    def test_weight_range(self):
        g = generate("star", 4)
        gp = perturb(g, 0.1, 7)
        assert all(1.0 <= e.w < 1.1 for e in gp.edges)

    def test_preserves_structure(self):
        g = generate("random_connected", 6, seed=8)
        gp = perturb(g, 0.05, 3)
        assert [(e.u, e.v, e.sigma) for e in gp.edges] == [
            (e.u, e.v, e.sigma) for e in g.edges
        ]
        assert gp.mu == g.mu
        assert all(pw.w >= w.w for pw, w in zip(gp.edges, g.edges))
        assert all(pk >= k for pk, k in zip(gp.kappa, g.kappa))

    def test_eps_zero_is_identity(self):
        g = generate("cycle", 5)
        assert perturb(g, 0.0, 1) == g

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            perturb(generate("path", 2), -0.1, 0)

    @pytest.mark.parametrize(
        "eps", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-beyond-float")]
    )
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be a finite number >= 0"):
            perturb(generate("path", 2), eps, 0)

    def test_overflowing_eps_rejected(self):
        # gn(3)'s weights stay finite at eps = 1e308, but its perturbed
        # degrees would not.  On path(3) the degrees stay finite at
        # eps = 1e307, but a potential near the float limit would not.
        with pytest.raises(ValueError, match=r"^eps = 1e\+308 is too large"):
            perturb(generate("gn", 3), 1e308, 0)
        g = generate("path", 3)
        g = WeightedGraph(n=g.n, edges=g.edges, mu=g.mu, kappa=(0.0, 1.7e308, 0.0))
        with pytest.raises(ValueError, match=r"^eps = 1e\+307 is too large"):
            perturb(g, 1e307, 0)
        assert perturb(generate("gn", 3), 1e300, 0).edges[0].w < math.inf

    def test_spectral_continuity(self):
        g = generate("random_connected", 7, seed=12, p=0.4, w_low=0.5, w_high=2.0)
        base = np.asarray(laplacian_spectrum(g).values)
        diffs = []
        for eps in (1e-3, 1e-6):
            pert = np.asarray(laplacian_spectrum(perturb(g, eps, 5)).values)
            diffs.append(np.max(np.abs(pert - base)))
        assert diffs[0] < 0.01
        assert diffs[1] < diffs[0]


def report(g: WeightedGraph) -> GenericityReport:
    return GenericityReport.of(laplacian_spectrum(g))


class TestGenericityReport:
    def test_single_edge(self):
        rep = report(generate("path", 2))
        assert rep.simple and rep.zero_free
        assert abs(rep.min_gap - 2.0) < 1e-10

    def test_star_multiplicity(self):
        rep = report(generate("star", 4))
        assert not rep.simple

    def test_k3_multiplicity(self):
        assert not report(generate("complete", 3)).simple

    def test_of_spectrum_matches_report(self):
        # genericity_frequency reports on each trial's perturbed instance
        # through GenericityReport.of on its LAPACK spectrum, trial t at the
        # derived seed (seed, t).
        for g, eps in ((generate("star", 4), 0.05), (generate("random_connected", 7, 2), 0.01)):
            trials, seed = 6, 9
            reps = [report(perturb(g, eps, derive_seed(seed, t))) for t in range(trials)]
            freq = genericity_frequency(g, eps, trials, seed)
            assert freq.fraction_simple == sum(r.simple for r in reps) / trials
            assert freq.fraction_zero_free == sum(r.zero_free for r in reps) / trials
            assert freq.worst_gap == min(r.min_gap for r in reps)
            assert freq.worst_entry == min(r.min_abs_entry for r in reps)


class TestFrequency:
    def test_k3_perturbed_always_simple(self):
        rep = genericity_frequency(generate("complete", 3), 0.05, 200, 11)
        assert rep.fraction_simple == 1.0
        assert rep.worst_gap > 1e-10

    def test_star_zero_free(self):
        rep = genericity_frequency(generate("star", 4), 0.05, 200, 12)
        assert rep.fraction_zero_free == 1.0

    def test_eps_zero_control(self):
        rep = genericity_frequency(generate("complete", 3), 0.0, 1, 0)
        assert rep.fraction_simple == 0.0

    def test_deterministic(self):
        g = generate("cycle", 6)
        a = genericity_frequency(g, 0.05, 30, 4)
        b = genericity_frequency(g, 0.05, 30, 4)
        assert a == b

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            genericity_frequency(generate("path", 2), 0.05, 0, 1)

    def test_gap_shrinks_with_eps(self):
        # fraction_simple must stay 1.0 as eps decreases; the gap scaling is
        # reported for inspection, not asserted as an exact law
        g = generate("complete", 3)
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3):
            rep = genericity_frequency(g, eps, 100, 21)
            assert rep.fraction_simple == 1.0
            gaps.append(rep.worst_gap)
        print(f"worst min_gap by eps (1e-1, 1e-2, 1e-3): {gaps}")
        assert gaps[0] > gaps[1] > gaps[2] > 1e-10
