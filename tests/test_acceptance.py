"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The corpus is frozen by
seed derivation from ACC_SEED, so every run checks the identical instance
set.  Exact Cheeger values come from the subset-DP profiles (cross-checked
against enumeration in criterion 10: naive over labelings unsigned, regrouped
over unions signed).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from cheegerlab import (
    GenericityReport,
    SplitMix64,
    WeightedGraph,
    check_basics,
    check_lower_bound,
    check_nodal_count_bounds,
    check_product_theorem,
    check_theorem_main,
    derive_seed,
    generate,
    genericity_frequency,
    laplacian_spectrum,
    product,
    product_function,
    rho_exact,
    rho_profile,
    strong_nodal,
    with_random_signature,
)
from cheegerlab.bounds import CorpusConfig, run_corpus
from brute import (
    complete_spectrum,
    cycle_spectrum,
    loop_adjacency,
    naive_rho,
    path_spectrum,
    regrouped_rho_signed,
    star_spectrum,
)

ACC_SEED = 20250810
EPS = 0.05


def _report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {num:02d} {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def corpus200():
    graphs = []
    for i in range(200):
        rng = SplitMix64(derive_seed(ACC_SEED, i))
        n = 4 + rng.randint(7)  # 4..10
        graphs.append(
            generate("random_connected", n, rng.next_u64(), p=0.3, w_low=0.5, w_high=2.0)
        )
    return graphs


@pytest.fixture(scope="module")
def trees100():
    graphs = []
    for i in range(100):
        rng = SplitMix64(derive_seed(ACC_SEED, 1000 + i))
        n = 4 + rng.randint(9)  # 4..12
        graphs.append(generate("random_tree", n, rng.next_u64()))
    return graphs


@pytest.fixture(scope="module")
def signed100(corpus200):
    return [
        with_random_signature(corpus200[i], derive_seed(ACC_SEED, 2000 + i))
        for i in range(100)
    ]


@pytest.fixture(scope="module")
def gn_family():
    return {n: generate("gn", n, a=1.1) for n in range(3, 7)}


def test_c01_eigensolver_closed_forms():
    started = time.perf_counter()
    cases = []
    for n in range(3, 9):
        cases.append((generate("complete", n), complete_spectrum(n)))
    for n in range(3, 13):
        cases.append((generate("cycle", n), cycle_spectrum(n)))
    for n in range(2, 13):
        cases.append((generate("path", n), path_spectrum(n)))
    for n in range(3, 10):  # K_{1,m} for m = 2..8
        cases.append((generate("star", n), star_spectrum(n)))
    checked = 0
    for g, closed in cases:
        s = laplacian_spectrum(g)
        assert np.allclose(s.values, closed, atol=1e-8), (g.n, s.values, closed)
        funcs = np.asarray(s.functions)
        gram = funcs @ np.diag(g.mu) @ funcs.T
        assert np.max(np.abs(gram - np.eye(g.n))) <= 1e-10
        lap = (np.diag(g.degrees() + np.asarray(g.kappa)) - loop_adjacency(g)) / np.asarray(
            g.mu
        )[:, None]
        scale = max(1.0, abs(s.values[-1]))
        for k in range(g.n):
            resid = np.max(np.abs(lap @ funcs[k] - s.values[k] * funcs[k]))
            assert resid <= 1e-8 * scale
        checked += 1
    elapsed = time.perf_counter() - started
    _report(1, elapsed < 5.0, f"{checked} closed-form spectra verified in {elapsed:.2f}s (< 5s)")


def test_c02_theorem_main_suite(corpus200, gn_family):
    started = time.perf_counter()
    violations = 0
    records = 0
    for g in corpus200 + list(gn_family.values()):
        for rec in check_theorem_main(g):
            records += 1
            violations += not rec.holds
    elapsed = time.perf_counter() - started
    _report(
        2,
        violations == 0 and elapsed < 600.0,
        f"{records} records over 200 random graphs + gn(3..6), "
        f"{violations} violations in {elapsed:.1f}s (< 600s)",
    )


def test_c03_tree_corollary_suite(trees100):
    violations = 0
    records = 0
    for g in trees100:
        recs = check_theorem_main(g)
        assert len(recs) == g.n  # ell = 0: every k is checked
        records += len(recs)
        violations += sum(not r.holds for r in recs)
    _report(3, violations == 0, f"{records} records over 100 random trees, {violations} violations")


def test_c04_nodal_count_sandwich(corpus200, gn_family):
    violations = 0
    records = 0
    for idx, g in enumerate(corpus200 + list(gn_family.values())):
        recs = check_nodal_count_bounds(g, EPS, derive_seed(ACC_SEED, 3000 + idx))
        records += len(recs)
        violations += sum(not r.holds for r in recs)
    _report(4, violations == 0, f"{records} sandwich records on perturbed corpus, {violations} violations")


def test_c05_genericity_frequencies():
    graphs = {
        "K3": generate("complete", 3),
        "K13": generate("star", 4),
        "C6": generate("cycle", 6),
        "gn3": generate("gn", 3),
        "rand8": generate("random_connected", 8, derive_seed(ACC_SEED, 4000), p=0.3),
    }
    failures = []
    for name, g in graphs.items():
        rep = genericity_frequency(g, EPS, 1000, derive_seed(ACC_SEED, 4100))
        if rep.fraction_simple != 1.0 or rep.fraction_zero_free != 1.0:
            failures.append((name, rep.fraction_simple, rep.fraction_zero_free))
    unperturbed_ok = (
        not GenericityReport.of(laplacian_spectrum(graphs["K3"])).simple
        and not GenericityReport.of(laplacian_spectrum(graphs["K13"])).simple
    )
    _report(
        5,
        not failures and unperturbed_ok,
        f"5 graphs x 1000 trials all simple & zero-free at 1e-10; "
        f"unperturbed K3/K13 multiplicities detected; failures={failures}",
    )


def test_c06_product_nodal_and_spectrum():
    mismatches = 0
    for i in range(500):
        rng = SplitMix64(derive_seed(ACC_SEED, 5000 + i))
        n1 = 2 + rng.randint(4)
        n2 = 2 + rng.randint(4)
        g1 = generate("random_connected", n1, rng.next_u64(), p=0.5, mu="unit")
        g2 = generate("random_connected", n2, rng.next_u64(), p=0.5, mu="unit")
        f = [1 if rng.randint(2) else -1 for _ in range(n1)]
        h = [1 if rng.randint(2) else -1 for _ in range(n2)]
        count = strong_nodal(product(g1, g2), product_function(f, h), 0.0).count
        expected = strong_nodal(g1, f, 0.0).count * strong_nodal(g2, h, 0.0).count
        mismatches += count != expected
    spectrum_bad = 0
    for i in range(100):
        rng = SplitMix64(derive_seed(ACC_SEED, 6000 + i))
        n1 = 2 + rng.randint(4)
        n2 = 2 + rng.randint(4)
        g1 = generate("random_connected", n1, rng.next_u64(), p=0.5, mu="unit")
        g2 = generate("random_connected", n2, rng.next_u64(), p=0.5, mu="unit")
        s1 = laplacian_spectrum(g1).values
        s2 = laplacian_spectrum(g2).values
        sums = sorted(a + b for a in s1 for b in s2)
        sp = laplacian_spectrum(product(g1, g2)).values
        if not np.allclose(sp, sums, atol=1e-8):
            spectrum_bad += 1
    _report(
        6,
        mismatches == 0 and spectrum_bad == 0,
        f"500 strong-count products exact, 100 product spectra match pairwise sums "
        f"(mismatches={mismatches}, spectrum_bad={spectrum_bad})",
    )


def test_c07_product_theorem_instance():
    g1 = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1)], mu="unit")
    g2 = WeightedGraph.build(2, [(0, 1, 0.1)], mu="unit")
    rec = check_product_theorem(g1, g2, 2)
    gap_ok = math.isclose(rec.meta["gap"], 2.0, abs_tol=1e-8) and rec.meta["lambda2_max"] < rec.meta["gap"]
    lam_ok = abs(rec.meta["lambda_index"] - 1.2) <= 1e-8
    ineq_ok = rec.holds and rec.lhs <= rec.rhs + 1e-9
    _report(
        7,
        gap_ok and lam_ok and ineq_ok,
        f"gap {rec.meta['gap']:.6g} > {rec.meta['lambda2_max']:.6g}, "
        f"lambda_4 = {rec.meta['lambda_index']:.9f}, rho_4 = {rec.lhs:.6f} <= {rec.rhs:.6f}",
    )


def test_c08_lower_bound_suite(corpus200):
    violations = 0
    records = 0
    for g in corpus200:
        for rec in check_lower_bound(g):
            records += 1
            violations += not rec.holds
    k3 = [r for r in check_lower_bound(generate("complete", 3)) if r.name == "lower_eta" and r.k == 2]
    spot_ok = (
        len(k3) == 1
        and math.isclose(k3[0].lhs, 0.25, abs_tol=1e-9)
        and k3[0].rhs == 1.0
    )
    _report(
        8,
        violations == 0 and spot_ok,
        f"{records} lower-bound records, {violations} violations; "
        f"K3 k=2 reads lhs={k3[0].lhs:.6f}, rhs={k3[0].rhs}",
    )


def test_c09_signed_suite(signed100):
    violations = 0
    records = 0
    for g in signed100:
        for rec in check_theorem_main(g):
            records += 1
            violations += not rec.holds
    tri = WeightedGraph.build(3, [(0, 1, 1, -1), (1, 2, 1), (0, 2, 1)])
    rho1 = rho_exact(tri, 1).value
    lam2 = laplacian_spectrum(tri).values[1]
    spot_ok = rho1 == 1.0 / 3.0 and abs(lam2 - 0.5) <= 1e-8
    _report(
        9,
        violations == 0 and spot_ok,
        f"{records} signed records over 100 signed graphs, {violations} violations; "
        f"unbalanced triangle: rho^s_1={rho1:.6f}, lambda^s_2={lam2:.9f}",
    )


def test_c10_oracle_equivalence(corpus200, signed100):
    started = time.perf_counter()
    mismatches = []
    small_unsigned = [g for g in corpus200 if g.n <= 8]
    for g in small_unsigned:
        profile = rho_profile(g, 3)
        for k in (1, 2, 3):
            a = profile[k - 1].value
            b = naive_rho(g, k)
            if a != b:
                mismatches.append(("unsigned", g.n, k, a, b))
    small_signed = [g for g in signed100 if g.n <= 8]
    for g in small_signed:
        profile = rho_profile(g, 3)
        oracle = regrouped_rho_signed(g, 3)
        for k in (1, 2, 3):
            a = profile[k - 1].value
            b = oracle[k - 1]
            if a != b:
                mismatches.append(("signed", g.n, k, a, b))
    elapsed = time.perf_counter() - started
    _report(
        10,
        not mismatches,
        f"profile DP == enumeration exactly on {len(small_unsigned)} unsigned "
        f"and {len(small_signed)} signed graphs (n<=8, k<=3; signed regrouped over "
        f"unions) in {elapsed:.1f}s; "
        f"mismatches={mismatches[:3]}",
    )


def test_c11_basics_suite(corpus200, gn_family):
    violations = 0
    records = 0
    for g in corpus200 + list(gn_family.values()):
        for rec in check_basics(g):
            if rec.holds is None:
                continue
            records += 1
            violations += not rec.holds
    c4 = generate("cycle", 4)
    rho2 = rho_profile(c4)[1].value
    lam2 = laplacian_spectrum(c4).values[1]
    tight_ok = rho2 == 0.5 and abs(lam2 / 2.0 - rho2) <= 1e-8
    _report(
        11,
        violations == 0 and tight_ok,
        f"{records} basics records, {violations} violations; "
        f"C4 attains rho_2 = lambda_2/2 = {rho2}",
    )


def test_c12_gn_example_family(gn_family):
    trajectory = {}
    floor_ok = True
    for n, g in gn_family.items():
        rho2 = rho_profile(g)[1].value
        lam2 = laplacian_spectrum(g).values[1]
        trajectory[n] = (round(rho2, 6), round(lam2, 6))
        floor_ok &= rho2 > 0.01
    cfg = CorpusConfig(
        families=("gn",),
        sizes=(3, 4, 5, 6),
        seed=ACC_SEED,
        eps=EPS,
        checks=("main", "nodal", "nodal_cheeger", "lower", "basics"),
    )
    report = run_corpus(cfg)
    suite_ok = report.all_hold()
    cli = subprocess.run(
        [
            sys.executable,
            "-m",
            "cheegerlab",
            "verify",
            "--corpus",
            json.dumps({"families": ["gn"], "sizes": [3, 4]}),
            "--checks",
            "main,basics,lower,nodal,nodal_cheeger",
            "--seed",
            str(ACC_SEED),
        ],
        capture_output=True,
        text=True,
    )
    _report(
        12,
        floor_ok and suite_ok and cli.returncode == 0,
        f"(rho_2, lambda_2) by n: {trajectory}; full suite violations="
        f"{report.summary()['violations']}, errors={report.summary()['errors']}, "
        f"cli exit={cli.returncode}",
    )
