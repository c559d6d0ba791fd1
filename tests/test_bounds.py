import copy
import json
import math
import weakref

import numpy as np
import pytest

from cheegerlab import (
    CorpusConfig,
    HypothesisViolation,
    NonGenericError,
    WeightedGraph,
    adjacency_eta,
    check_basics,
    check_lemma_nodal_cheeger,
    check_lower_bound,
    check_nodal_count_bounds,
    check_product_theorem,
    check_theorem_main,
    degree_profile,
    generate,
    laplacian_spectrum,
    rho_profile,
    run_corpus,
)
from cheegerlab import bounds, cheeger, graph, nodal, spectral
from cheegerlab.bounds import CheckRecord, Report, inequality_tol, run_checks_on_graph
from cheegerlab.cheeger import _dp_admits, conductance
from cheegerlab.cli import main
from cheegerlab.graph import classify, cyclomatic, dumps_graph, is_complete, product
from cheegerlab.perturb import perturb


def triangle():
    return generate("complete", 3)


def unbalanced_triangle():
    return WeightedGraph.build(3, [(0, 1, 1, -1), (1, 2, 1), (0, 2, 1)])


def by_k(records, name, k):
    found = [r for r in records if r.name == name and r.k == k]
    assert len(found) == 1, (name, k, records)
    return found[0]


class TestTheoremMain:
    def test_k3_values(self):
        rec = by_k(check_theorem_main(triangle()), "main", 3)
        assert rec.lhs == 1.0
        assert math.isclose(rec.rhs, math.sqrt(3.0), abs_tol=1e-9)
        assert rec.holds
        assert rec.meta["ell"] == 1 and rec.meta["j"] == 2

    def test_star_k4(self):
        rec = by_k(check_theorem_main(generate("star", 4)), "main", 4)
        assert rec.lhs == 1.0
        assert math.isclose(rec.rhs, 2.0, abs_tol=1e-8)
        assert rec.holds

    def test_tree_indices_unshifted(self):
        g = generate("random_tree", 7, seed=77)
        records = check_theorem_main(g)
        assert [r.k for r in records] == list(range(1, 8))
        assert all(r.meta["ell"] == 0 for r in records)
        assert all(r.holds for r in records)

    def test_signed_triangle(self):
        rec = by_k(check_theorem_main(unbalanced_triangle()), "main_signed", 2)
        assert rec.lhs == 1.0 / 3.0
        assert math.isclose(rec.rhs, 1.0, abs_tol=1e-8)
        assert rec.holds

    def test_disconnected_rejected(self):
        g = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(HypothesisViolation, match="connected"):
            check_theorem_main(g)

    def test_negative_kappa_rejected(self):
        g = WeightedGraph.build(2, [(0, 1, 1)], kappa=[-1.0, 0.0])
        with pytest.raises(HypothesisViolation, match="kappa"):
            check_theorem_main(g)

    def test_dense_graph_may_have_no_records(self):
        # complete graph on 5 vertices: ell = 6 > n, nothing to check
        assert check_theorem_main(generate("complete", 5)) == []

    def test_no_records_solve_no_spectrum(self, monkeypatch):
        # K6: ell = 10 >= n = 6, so no k has k - ell >= 1 and nothing reads
        # an eigenvalue.
        solves = []

        def counting(g, *args, **kwargs):
            solves.append(g)
            return laplacian_spectrum(g, *args, **kwargs)

        monkeypatch.setattr(bounds, "laplacian_spectrum", counting)
        assert check_theorem_main(generate("complete", 6)) == []
        assert solves == []
        g = generate("star", 4)
        check_theorem_main(g)
        assert solves == [g]


class TestNodalCounts:
    def test_path4_exact_counts(self):
        records = check_nodal_count_bounds(generate("path", 4), 0.05, 11)
        lower = [r for r in records if r.name == "nodal_lower"]
        assert [r.lhs for r in lower] == [1, 2, 3, 4]
        assert [r.rhs for r in lower] == [1, 2, 3, 4]
        assert all(r.holds for r in records)

    def test_c5_window(self):
        records = check_nodal_count_bounds(generate("cycle", 5), 0.05, 11)
        for r in records:
            assert r.holds
            if r.name == "nodal_lower":
                assert r.rhs in (r.lhs, r.lhs + 1)  # S in {k-1, k}

    def test_gn3(self):
        records = check_nodal_count_bounds(generate("gn", 3), 0.05, 11)
        assert len(records) == 24
        assert all(r.holds for r in records)

    def test_signed_rejected(self):
        with pytest.raises(HypothesisViolation):
            check_nodal_count_bounds(unbalanced_triangle(), 0.05, 1)

    def test_star4_near_tie_is_simple(self):
        # lambda_2 and lambda_3 of this perturbed star(4) are about 5e-10
        # apart: simple at GENERICITY_TOL, so k = 2 and k = 3 each get the
        # simple-eigenvalue sandwich, not the multiplicity-2 block form.
        records = check_nodal_count_bounds(generate("star", 4), 1e-9, 1)
        assert len(records) == 12 and all(r.holds for r in records)
        assert {tuple(r.meta) for r in records} == {("ell", "eps", "seed", "strong")}

    @pytest.mark.parametrize("eps", [1e-9, 3e-9, 1e-6])
    @pytest.mark.parametrize("family", ["star", "cycle", "complete", "gn"])
    def test_small_eps_holds_or_is_non_generic(self, family, eps):
        for n in range(4, 9):
            for seed in (1, 2, 3):
                try:
                    records = check_nodal_count_bounds(generate(family, n), eps, seed)
                except NonGenericError:
                    continue
                assert all(r.holds for r in records), (n, seed)

    def test_non_generic_names_what_it_ran_on(self):
        # At eps = 0 the check runs on G itself, so another seed cannot
        # help; at eps > 0 the text is the perturbed instance's.
        with pytest.raises(NonGenericError) as exc:
            check_nodal_count_bounds(generate("complete", 3), 0.0, 1)
        assert str(exc.value) == (
            "graph is not generic (min_gap=4.441e-16, min_abs_entry=8.479e-02); "
            "at eps = 0 the check runs on the graph itself, so try eps > 0"
        )
        with pytest.raises(NonGenericError) as exc:
            check_nodal_count_bounds(generate("star", 4), 1e-9, 2)
        assert str(exc.value) == (
            "perturbed instance is not generic (min_gap=2.423e-10, "
            "min_abs_entry=6.498e-11); try another seed"
        )


class TestLemmaNodalCheeger:
    def test_single_edge(self):
        records = check_lemma_nodal_cheeger(generate("path", 2), 0.0, 0)
        rec = by_k(records, "nodal_cheeger", 2)
        assert rec.lhs == 1.0 and math.isclose(rec.rhs, 2.0, abs_tol=1e-8)
        assert rec.meta["m"] == 2

    def test_constant_eigenfunction_equality(self):
        records = check_lemma_nodal_cheeger(generate("cycle", 4), 0.0, 0)
        rec = by_k(records, "nodal_cheeger", 1)
        assert rec.meta["m"] == 1
        # lambda_1 is zero up to solver dust, so rhs = sqrt(2 tau lambda_1) ~ 1e-8
        assert rec.lhs == 0.0 and rec.rhs <= 2e-8 and rec.holds

    def test_sweep_bound_recorded(self):
        records = check_lemma_nodal_cheeger(generate("cycle", 4), 0.0, 0)
        rec = by_k(records, "nodal_cheeger", 2)
        assert rec.meta["sweep_bound"] >= rec.lhs - 1e-12

    def test_m_is_the_nodal_checks_strong_count(self):
        # Both checks count S(f_k) on one perturbed instance: `nodal` with
        # zero_tol 0 through strong_nodal, `nodal_cheeger` as the sweep's
        # domain count.  Every instance of at most 10 vertices (the corpus
        # sizes) of five families at 40 seeds; non-generic instances give
        # no `nodal` records.
        pairs = 0
        for family in ("random_connected", "random_tree", "gn", "cycle", "star"):
            for n in range(4, 9):
                for seed in range(40):
                    g = generate(family, n, seed)
                    if g.n > 10:
                        continue
                    rows, _ = run_checks_on_graph("g", g, ("nodal", "nodal_cheeger"), 0.05, seed)
                    strong = {r.k: r.meta["strong"] for _, r in rows if r.name == "nodal_lower"}
                    m = {r.k: r.meta["m"] for _, r in rows if r.name == "nodal_cheeger"}
                    assert len(m) == g.n
                    for k in strong:
                        assert m[k] == strong[k], (family, n, seed, k)
                    pairs += len(strong)
        assert pairs >= 5000


class TestUpperRecords:
    """The record rho_j <= sqrt(2 tau lambda_k) that `main`, `nodal_cheeger`
    and `product` share, on graphs whose tau (the largest d/mu) is not
    tau_min: star(4) with unit measure (d/mu = 3, 1, 1, 1), and its product
    with K2 (w = 0.05)."""

    @staticmethod
    def records(name):
        star = generate("star", 4, mu="unit")
        if name == "product":
            k2 = WeightedGraph.build(2, [(0, 1, 0.05)], mu="unit")
            return [check_product_theorem(star, k2, 1, 0.0)], product(star, k2)
        if name == "main":
            return check_theorem_main(star), star
        return check_lemma_nodal_cheeger(star, 0.0, 0), star

    @pytest.mark.parametrize("name", ["main", "nodal_cheeger", "product"])
    def test_tau_lambda_k_and_certificate(self, name):
        records, h = self.records(name)
        prof = degree_profile(h)
        assert prof.tau > prof.tau_min
        values = laplacian_spectrum(h, functions=False).values
        for rec in records:
            lam = bounds._clamp_eigenvalue(values[rec.k - 1])
            assert rec.meta["tau"] == prof.tau
            assert rec.rhs == math.sqrt(2.0 * prof.tau * lam)
            assert list(rec.meta)[0] == "certificate" and list(rec.meta) == sorted(rec.meta)
            assert rec.lhs == rec.meta["certificate"]["value"]
        assert [rec.k for rec in records] == ([2] if name == "product" else [1, 2, 3, 4])

    def test_clamp_takes_only_solver_dust(self):
        # Eigenvalues in [-1e-10, 0) are rounding and read as 0; a lower
        # one is a solver failure, not a value to clamp.
        assert bounds._clamp_eigenvalue(-1e-11) == 0.0
        assert bounds._clamp_eigenvalue(0.5) == 0.5
        with pytest.raises(RuntimeError, match="solver failure"):
            bounds._clamp_eigenvalue(-1e-9)


class TestLowerBound:
    def test_k3_record(self):
        records = check_lower_bound(triangle())
        rec = by_k(records, "lower_eta", 2)
        assert math.isclose(rec.lhs, 0.25, abs_tol=1e-9)
        assert rec.rhs == 1.0 and rec.holds
        rec3 = by_k(records, "lower_eta", 3)
        assert math.isclose(rec3.lhs, 1.0 / 3.0, abs_tol=1e-9)
        # K_3 is complete: no corollary records
        assert not [r for r in records if r.name == "lower_gap"]

    def test_c4_vacuous(self):
        records = check_lower_bound(generate("cycle", 4))
        for r in records:
            if r.name == "lower_eta":
                assert r.lhs == 0.0  # eta = 1 makes the bound vacuous
            assert r.holds

    def test_incomplete_graph_gets_gap_records(self):
        records = check_lower_bound(generate("cycle", 5))
        assert [r for r in records if r.name == "lower_gap"]
        assert all(r.holds for r in records)

    @pytest.mark.parametrize(
        "family, n",
        [(f, n) for f in ("path", "cycle", "star") for n in range(3, 9)]
        + [("gn", 3), ("gn", 4)]
        + [("random_connected", n) for n in range(4, 10)],
    )
    def test_records_read_the_profile_and_the_spectrum(self, family, n):
        # Each record k reads certificate k of the exact profile: lower_eta
        # with (tau_min - eta)(1 - 1/k), lower_gap with min(lambda_2,
        # 2 - lambda_n)(1 - 1/k) from the Jacobi values, for every k = 2..n.
        for seed in (n, n + 30):
            g = generate(family, n, seed)
            records = check_lower_bound(g)
            profile = rho_profile(g)
            eta = adjacency_eta(g).eta
            tau_min = degree_profile(g).tau_min
            values = laplacian_spectrum(g, functions=False).values
            gap = min(values[1], 2.0 - values[-1])
            ks = list(range(2, g.n + 1))
            eta_records = [r for r in records if r.name == "lower_eta"]
            gap_records = [r for r in records if r.name == "lower_gap"]
            assert [r.k for r in eta_records] == ks
            assert [r.k for r in gap_records] == (ks if not is_complete(g) else [])
            for r in eta_records:
                cert = profile[r.k - 1]
                assert r.lhs == (tau_min - eta) * (1.0 - 1.0 / r.k)
                assert r.rhs == cert.value
                assert r.meta == {"certificate": cert.to_json_dict(), "eta": eta, "tau_min": tau_min}
            for r in gap_records:
                assert r.lhs == gap * (1.0 - 1.0 / r.k)
                assert r.rhs == profile[r.k - 1].value
                assert r.meta == {"lambda_2": values[1], "lambda_n": values[-1]}

    def test_hypotheses(self):
        with pytest.raises(HypothesisViolation):
            check_lower_bound(generate("path", 2))
        with pytest.raises(HypothesisViolation):
            check_lower_bound(WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)], kappa=1.0))


class TestProductTheorem:
    def test_reference_instance(self):
        g1 = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1)], mu="unit")
        g2 = WeightedGraph.build(2, [(0, 1, 0.1)], mu="unit")
        rec = check_product_theorem(g1, g2, 2)
        assert rec.k == 4
        assert math.isclose(rec.meta["lambda_index"], 1.2, abs_tol=1e-8)
        assert math.isclose(rec.rhs, math.sqrt(2 * 2.1 * 1.2), abs_tol=1e-8)
        assert rec.meta["eigensum_error"] <= 1e-8
        assert rec.holds

    def test_gap_violation_rejected(self):
        g1 = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1)], mu="unit")
        g2 = WeightedGraph.build(2, [(0, 1, 10.0)], mu="unit")
        with pytest.raises(HypothesisViolation, match="gap hypothesis"):
            check_product_theorem(g1, g2, 2)

    def test_k2_pair(self):
        g1 = WeightedGraph.build(2, [(0, 1, 1)], mu="unit")
        g2 = WeightedGraph.build(2, [(0, 1, 0.1)], mu="unit")
        rec = check_product_theorem(g1, g2, 1)
        assert rec.k == 2 and rec.holds

    def test_non_tree_rejected(self):
        c3 = generate("cycle", 3, mu="unit")
        g2 = WeightedGraph.build(2, [(0, 1, 0.1)], mu="unit")
        with pytest.raises(HypothesisViolation, match="tree"):
            check_product_theorem(c3, g2, 1)

    def test_non_bipartite_rejected(self):
        g1 = WeightedGraph.build(2, [(0, 1, 1)], mu="unit")
        with pytest.raises(HypothesisViolation, match="bipartite"):
            check_product_theorem(g1, generate("cycle", 3, mu="unit"), 1)

    def test_non_unit_measure_rejected(self):
        g1 = generate("path", 3)
        g2 = WeightedGraph.build(2, [(0, 1, 0.1)], mu="unit")
        with pytest.raises(HypothesisViolation, match="unit"):
            check_product_theorem(g1, g2, 1)

    @staticmethod
    def n20_pair():
        # The product has 20 vertices: its full profile is beyond the work
        # policy, rho_2 (the index k n2 = 2 at k = 1) is not.
        return generate("random_tree", 10, 3, mu="unit"), WeightedGraph.build(2, [(0, 1, 0.01)], mu="unit")

    def test_index_within_policy_beyond_the_full_profile(self):
        g1, g2 = self.n20_pair()
        gp = product(g1, g2)
        assert not _dp_admits(gp.n, gp.m, gp.n, signed=False)
        rec = check_product_theorem(g1, g2, 1)
        assert rec.k == 2 and rec.holds
        parts = rec.meta["certificate"]["parts"]
        assert len(parts) == 2 and max(conductance(gp, p) for p in parts) == rec.lhs

    def test_engine_asked_for_the_index_only(self, monkeypatch):
        asked = []
        real = bounds.rho_profile

        def spy(g, kmax=None):
            asked.append(kmax)
            return real(g, kmax)

        monkeypatch.setattr(bounds, "rho_profile", spy)
        check_product_theorem(*self.n20_pair(), 1)
        assert asked == [2]


class TestBasics:
    def test_c4_tight(self):
        records = check_basics(generate("cycle", 4))
        rec = by_k(records, "eq1_left", 2)
        assert rec.rhs == 0.5  # rho_2
        assert math.isclose(rec.lhs, 0.5, abs_tol=1e-8)  # lambda_2 / 2
        upper = by_k(records, "cheeger_upper", 2)
        assert upper.lhs == 0.5
        assert math.isclose(upper.rhs, math.sqrt(2.0), abs_tol=1e-8)

    def test_k3_monotone(self):
        records = check_basics(triangle())
        mono = [r for r in records if r.name == "monotonic"]
        assert [(r.lhs, r.rhs) for r in mono] == [(0.0, 1.0), (1.0, 1.0)]

    def test_disconnected_degenerate(self):
        g = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)])
        records = check_basics(g)
        rec = by_k(records, "eq1_left", 2)
        assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.holds

    def test_lambda_checks_skipped_without_mu_degree(self):
        g = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)], mu="unit")
        records = check_basics(g)
        skipped = [r for r in records if r.holds is None]
        assert len(skipped) == 1 and skipped[0].name == "eq1_left"
        assert all(r.holds for r in records if r.holds is not None)

    def test_signed_monotonicity(self):
        records = check_basics(unbalanced_triangle())
        mono = [r for r in records if r.name == "monotonic_signed"]
        assert len(mono) == 2 and all(r.holds for r in mono)


class TestRecordsAndReport:
    def test_tolerance_is_scale_aware(self):
        assert inequality_tol(0.5) == 1e-9
        assert math.isclose(inequality_tol(100.0), 1e-7)

    def test_record_holds_with_slack(self):
        rec = CheckRecord.compare("x", 1, 1.0 + 1e-10, 1.0)
        assert rec.holds
        rec = CheckRecord.compare("x", 1, 1.1, 1.0)
        assert not rec.holds

    def test_corpus_run_trees(self):
        cfg = CorpusConfig(
            families=("random_tree",),
            sizes=(4, 5, 6),
            count=6,
            seed=7,
            checks=("main", "basics", "nodal", "nodal_cheeger"),
        )
        report = run_corpus(cfg)
        assert report.all_hold()
        summary = report.summary()
        assert summary["violations"] == 0 and summary["errors"] == 0
        assert summary["holds"] > 0

    def test_summary_counted_once(self):
        # verify reads the summary three times (the JSON, the skip warning,
        # the exit code); the report counts it once and holds it.
        rows = [
            ("a", CheckRecord.compare("x", 1, 0.0, 1.0)),
            ("a", CheckRecord.compare("x", 2, 2.0, 1.0)),
            ("b", CheckRecord.skipped("y", "why")),
        ]
        report = Report(rows=rows, errors=[("b", "z: boom")])
        summary = report.summary()
        assert summary == {"errors": 1, "holds": 1, "records": 3, "skipped": 1, "violations": 1}
        assert report.to_json_dict()["summary"] is summary and report.summary() is summary
        assert not report.all_hold()

    def test_report_sorted_and_counted_when_made(self):
        # A report is complete when it is made: its rows (by instance,
        # check name, k) and errors are sorted, and its summary counted,
        # with no further call.
        rows = [
            ("b", CheckRecord.compare("x", 1, 0.0, 1.0)),
            ("a", CheckRecord.skipped("y", "why")),
            ("a", CheckRecord.compare("x", 3, 2.0, 1.0)),
            ("a", CheckRecord.compare("x", 2, 0.0, 1.0)),
            ("a", CheckRecord.skipped("w", "why")),
        ]
        errors = [("b", "z: boom"), ("a", "z: late"), ("a", "y: early")]
        report = Report(rows=list(rows), errors=list(errors))
        keys = [(i, r.name, r.k) for i, r in report.rows]
        assert keys == [("a", "w", 0), ("a", "x", 2), ("a", "x", 3), ("a", "y", 0), ("b", "x", 1)]
        assert report.errors == [("a", "y: early"), ("a", "z: late"), ("b", "z: boom")]
        assert report.summary() == {"errors": 3, "holds": 2, "records": 5, "skipped": 2, "violations": 1}
        data = report.to_json_dict()
        assert [[r["instance"], r["name"], r["k"]] for r in data["records"]] == [list(k) for k in keys]
        assert data["errors"] == [list(e) for e in report.errors]
        assert report.to_csv().splitlines()[1:] == [
            "a,w,0,,,,skipped",
            "a,x,2,0.0,1.0,1.0,true",
            "a,x,3,2.0,1.0,-1.0,false",
            "a,y,0,,,,skipped",
            "b,x,1,0.0,1.0,1.0,true",
        ]

    @pytest.mark.parametrize("seed", [3, 7])
    def test_one_dict_per_certificate(self, monkeypatch, seed):
        # A five-check n = 10 corpus op: `main`, `lower` and `nodal_cheeger`
        # read certificates of two held profiles (the instance's and its
        # perturbed instance's), many of them from more than one record.
        # Each certificate builds its dict once, and its records share it.
        built = []
        form = cheeger._json_form

        def counting(cert):
            built.append(cert)
            return form(cert)

        monkeypatch.setattr(cheeger, "_json_form", counting)
        cfg = CorpusConfig(families=("random_connected",), sizes=(10,), count=1, seed=seed,
                           w_low=0.5, w_high=2.0,
                           checks=("main", "nodal", "nodal_cheeger", "lower", "basics"))
        report = run_corpus(cfg)
        assert report.all_hold()
        read = [rec.meta["certificate"] for _, rec in report.rows if "certificate" in rec.meta]
        assert len({id(cert) for cert in built}) == len(built)
        assert len({id(d) for d in read}) == len(built) < len(read)

    def test_corpus_gn_family_uses_sizes_as_parameter(self):
        cfg = CorpusConfig(families=("gn",), sizes=(3, 4), checks=("main",), seed=1)
        report = run_corpus(cfg)
        instances = {i for i, _ in report.rows}
        assert instances == {"gn-n3", "gn-n4"}
        assert report.all_hold()

    def test_report_sorted_and_csv(self):
        cfg = CorpusConfig(
            families=("random_tree",), sizes=(4,), count=2, seed=3, checks=("basics",)
        )
        report = run_corpus(cfg)
        keys = [(i, r.name, r.k) for i, r in report.rows]
        assert keys == sorted(keys)
        csv_text = report.to_csv()
        header, *lines = csv_text.strip().splitlines()
        assert header == "instance,check,k,lhs,rhs,margin,holds"
        assert len(lines) == len(report.rows)
        json.dumps(report.to_json_dict())  # serializable

    def test_skipped_hypothesis_reported_not_failed(self):
        g = WeightedGraph.build(2, [(0, 1, 1)], kappa=[-1.0, 0.0])
        from cheegerlab.bounds import run_checks_on_graph

        rows, errors = run_checks_on_graph("g", g, ("main",), 0.05, 1)
        assert not errors
        assert len(rows) == 1
        assert rows[0][1].holds is None
        assert "kappa" in rows[0][1].meta["skipped"]

    def test_product_check_under_the_same_error_policy(self):
        p3 = generate("path", 3, mu="unit")
        k2 = WeightedGraph.build(2, [(0, 1, 0.1)], mu="unit")
        rows, errors = run_checks_on_graph("g", p3, ("product",), 0.0, 1, generate("cycle", 3, mu="unit"))
        assert not errors and rows[0][1].holds is None and "bipartite" in rows[0][1].meta["skipped"]
        rows, errors = run_checks_on_graph("g", p3, ("product",), 0.0, 1)
        assert rows == [] and errors == [("g", "product: the product check needs a second factor (with_graph)")]
        rows, errors = run_checks_on_graph("g", p3, ("product",), 0.0, 1, k2, product_k=2)
        assert not errors and [(rec.name, rec.k, rec.holds) for _, rec in rows] == [("product", 4, True)]

    def test_signed_corpus(self):
        cfg = CorpusConfig(
            families=("random_connected",),
            sizes=(4, 5, 6),
            count=5,
            seed=13,
            signed=True,
            checks=("main", "basics"),
        )
        report = run_corpus(cfg)
        assert report.all_hold()
        names = {r.name for _, r in report.rows if r.holds is not None}
        assert "main_signed" in names

    def test_unknown_check_rejected(self, monkeypatch):
        # An unknown check, or "product" (the one pair check), is a bad
        # corpus config like an empty list, from either entry point, and
        # refused before any instance is generated.
        def fail(*args, **kw):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(bounds, "generate", fail)
        monkeypatch.setattr(graph, "generate", fail)
        for checks in (["bogus"], ["main", "product"], ["main", "Main"]):
            message = f"bad corpus config: 'checks' must be a nonempty list of distinct check names, got {checks!r}"
            for make in (lambda: CorpusConfig(checks=tuple(checks)), lambda: CorpusConfig(checks=checks),
                         lambda: CorpusConfig.from_json_dict({"checks": checks})):
                with pytest.raises(ValueError) as exc:
                    make()
                assert str(exc.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"sizes": ()}, "'sizes' must be a nonempty list of distinct integers >= 1, got []"),
            ({"count": "2"}, "'count' must be an integer >= 0, got '2'"),
            ({"eps": math.nan}, "'eps' must be a finite number >= 0, got nan"),
            ({"mu": (1.0, math.inf)}, "'mu' must be a measure name or a list of finite numbers, got [1.0, inf]"),
            ({"checks": ()}, "'checks' must be a nonempty list of distinct check names, got []"),
            # A repeated name would give two instances one name, or every
            # record of a check twice.
            ({"families": ("random_tree", "random_tree")},
             "'families' must be a nonempty list of distinct family names, got ['random_tree', 'random_tree']"),
            ({"families": ("cycle",), "sizes": (4, 4), "signed": True},
             "'sizes' must be a nonempty list of distinct integers >= 1, got [4, 4]"),
            ({"checks": ("main", "main")},
             "'checks' must be a nonempty list of distinct check names, got ['main', 'main']"),
        ],
    )
    def test_bad_config_rejected_in_python(self, kwargs, message):
        # The same ValueError as the JSON entry point, raised on construction.
        with pytest.raises(ValueError) as exc:
            run_corpus(CorpusConfig(**{"sizes": (5,), "count": 1, **kwargs}))
        assert str(exc.value) == f"bad corpus config: {message}"
        data = {k: list(v) if isinstance(v, tuple) else v for k, v in kwargs.items()}
        with pytest.raises(ValueError) as exc_json:
            CorpusConfig.from_json_dict(data)
        assert str(exc_json.value) == str(exc.value)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"families": ["petersen"], "count": 0},
             "'families' must be a nonempty list of distinct family names, got ['petersen']"),
            ({"families": ["petersen"], "count": 2},
             "'families' must be a nonempty list of distinct family names, got ['petersen']"),
            ({"families": ["path"], "sizes": [1, 4]}, "'sizes' must be >= 2 for path, got [1, 4]"),
            ({"families": ["random_connected"], "sizes": [1]},
             "'sizes' must be >= 2 for random_connected, got [1]"),
            ({"families": ["gn"], "sizes": [2]}, "'sizes' must be >= 3 for gn, got [2]"),
            ({"w_low": 2, "w_high": 1}, "w_high must be >= w_low"),
            ({"w_high": 0.5}, "w_high must be >= w_low"),
            ({"mu": "degre"}, "'mu' must be a measure name or a list of finite numbers, got 'degre'"),
            ({"eps": 10**400}, f"'eps' must be a finite number >= 0, got {10**400!r}"),
            # path(4) fits a 4-entry mu and path(5) does not: refused before
            # path(4)'s checks run.
            ({"families": ["path", "star"], "sizes": [4, 5], "mu": [1.0] * 4},
             "'mu' has length 4, but path at size 5 has 5 vertices"),
            ({"families": ["gn"], "sizes": [3], "mu": [1.0] * 3},
             "'mu' has length 3, but gn at size 3 has 8 vertices"),
            ({"families": ["random_tree"], "sizes": [4], "count": 0, "mu": [1.0] * 5},
             "'mu' has length 5, but random_tree at size 4 has 4 vertices"),
        ],
    )
    def test_generator_rules_refused_before_any_instance(self, monkeypatch, kwargs, message):
        # The config reads the generator's table and rules, so what
        # `generate` would refuse at some instance is refused on
        # construction, from either entry point, and nothing is generated.
        def fail(*args, **kw):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(bounds, "generate", fail)
        monkeypatch.setattr(graph, "generate", fail)
        with pytest.raises(ValueError) as exc:
            CorpusConfig(**kwargs)
        assert str(exc.value) == f"bad corpus config: {message}"
        with pytest.raises(ValueError) as exc_json:
            CorpusConfig.from_json_dict(kwargs)
        assert str(exc_json.value) == str(exc.value)

    def test_weight_order_is_generates_rule(self):
        # One rule, each entry point in its own message.
        with pytest.raises(ValueError) as gen:
            generate("star", 4, w_low=2, w_high=1)
        with pytest.raises(ValueError) as corpus:
            CorpusConfig(families=["star"], w_low=2, w_high=1)
        assert str(corpus.value) == f"bad corpus config: {gen.value}"

    def test_float64_fields_accepted(self):
        # np.float64 is a float; the report's meta writes it as one.
        cfg = CorpusConfig(families=["random_tree"], sizes=[4], count=1, eps=np.float64(0.05),
                           p=np.float64(0.3), a=np.float64(1.1), checks=["main"])
        assert run_corpus(cfg).all_hold()

    def test_lists_stored_as_tuples(self):
        cfg = CorpusConfig(families=["random_tree", "path"], sizes=[4], mu=[1.0] * 4)
        assert cfg.families == ("random_tree", "path") and cfg.sizes == (4,) and cfg.mu == (1.0,) * 4
        assert cfg == CorpusConfig.from_json_dict({"families": ["random_tree", "path"], "sizes": [4], "mu": [1.0] * 4})

    def test_instance_the_generator_refuses_is_its_error(self):
        # At p = 1 instance 001 is K12 with degrees 3.3e154, whose measure
        # products overflow, so the generator refuses its graph: that is the
        # instance's one error, and the others keep their names, graphs and
        # perturbation seeds (nodal's errors read the perturbed spectra).
        cfg = CorpusConfig(families=["random_connected"], sizes=[3, 12], count=4, seed=2, p=1.0,
                           w_low=3e153, w_high=3e153, checks=["basics", "nodal"])
        rows, errors = [], []
        for idx, (instance, build) in enumerate(bounds.corpus_instances(cfg)):
            if idx == 1:
                with pytest.raises(ValueError) as refused:
                    build()
                errors.append((instance, str(refused.value)))
                continue
            seed = bounds.derive_seed(cfg.seed, 1_000_003 + idx)
            new_rows, new_errors = run_checks_on_graph(instance, build(), cfg.checks, cfg.eps, seed)
            rows += new_rows
            errors += new_errors
        report = run_corpus(cfg)
        assert json.dumps(report.to_json_dict()) == json.dumps(Report(rows=rows, errors=errors).to_json_dict())
        assert ("random_connected-001-n12", str(refused.value)) in report.errors
        assert str(refused.value).startswith("invalid graph: mu_u * mu_v on edge (0,1) is not a positive finite")
        instances = {instance for instance, _ in report.rows}
        assert instances == {"random_connected-000-n3", "random_connected-002-n3", "random_connected-003-n3"}
        assert not report.all_hold()

    def test_mu_list_of_gn_vertex_count_runs(self):
        # gn's n is the family parameter: gn(3) has 2n + 2 = 8 vertices.
        report = run_corpus(CorpusConfig(families=["gn"], sizes=[3], mu=[1.0] * 8, checks=["main"]))
        assert report.all_hold() and report.summary()["records"] > 0


class TestSolveCount:
    """Each distinct matrix of one corpus instance is solved once: the
    Laplacian eigenvalues of g by Jacobi, the eigenfunctions by one LAPACK
    `eigh` where a check reads them (with the values, for a perturbed
    instance), the adjacency values by one more `eigh`.  `eigvalsh` is
    never called.  What a check derives is held with the graph it reads,
    so each test starts from graphs of its own."""

    CHECKS = ("main", "basics", "lower", "nodal", "nodal_cheeger")
    EPS = 0.05
    SEED = 11

    @staticmethod
    def run_uncached(g, checks, eps, seed) -> list:
        """The rows of each check run on a fresh copy of g, so that no
        check reads what another derived."""
        rows = []
        for name in checks:
            new_rows, errors = run_checks_on_graph("g", copy.copy(g), (name,), eps, seed)
            assert not errors
            rows.extend(new_rows)
        return rows

    @staticmethod
    def count_solves(monkeypatch) -> dict:
        """The matrices handed to the Jacobi solver, to `eigh` and to
        `eigvalsh`, in call order."""
        solved = {"jacobi": [], "eigh": [], "eigvalsh": []}

        def counting(key, real):
            def call(m, *args, **kwargs):
                solved[key].append(np.array(m))
                return real(m, *args, **kwargs)
            return call

        monkeypatch.setattr(spectral, "eig_sym", counting("jacobi", spectral.eig_sym))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        return solved

    @staticmethod
    def adjacency(g) -> np.ndarray:
        """A(g) = diag(diag(L)) - L, the matrix whose values give eta."""
        lap = spectral.normalized_laplacian_sym(g)
        return np.diag(np.diag(lap)) - lap

    @staticmethod
    def nodal_records(rows) -> list:
        return [rec for _, rec in rows if rec.name.startswith("nodal")]

    def test_one_derivation_per_graph(self, monkeypatch, capsys):
        # One unsigned five-check corpus op at n = 10 touches two graphs, the
        # instance g and its perturbed instance g'.  Each decides whether it
        # is signed and builds its weighted degrees, Laplacian and degree
        # profile once (asked per call, the sign test ran 30 times and the
        # degrees 6).  Only g is classified: g' has g's edge set, so the
        # `nodal` check reads g's cyclomatic number.  Each eigenfunction's
        # domains are labelled once: 12 component labellings (1 in the
        # generator, 1 classification, 10 strong labellings that the `nodal`
        # check and the sweeps share), where deriving them per check took 36.
        labellings = []
        built = {"laplacian": [], "classification": [], "degree_profile": [], "signed": [], "degrees": []}

        def counting(key, real):
            def call(*args):
                (labellings if key is None else built[key]).append(args[0])
                return real(*args)
            return call

        labels = counting(None, graph._component_labels)
        monkeypatch.setattr(graph, "_component_labels", labels)
        monkeypatch.setattr(nodal, "_component_labels", labels)
        monkeypatch.setattr(
            spectral, "normalized_laplacian_sym", counting("laplacian", spectral.normalized_laplacian_sym)
        )
        monkeypatch.setattr(graph, "_classify", counting("classification", graph._classify))
        monkeypatch.setattr(graph, "_degree_profile", counting("degree_profile", graph._degree_profile))
        monkeypatch.setattr(graph, "_has_negative_edge", counting("signed", graph._has_negative_edge))
        monkeypatch.setattr(graph, "_degree_array", counting("degrees", graph._degree_array))
        cfg = {"families": ["random_connected"], "sizes": [10], "count": 1, "seed": 6,
               "p": 0.3, "w_low": 0.5, "w_high": 2.0}
        code = main(["verify", "--corpus", json.dumps(cfg), "--checks", ",".join(self.CHECKS)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["summary"]["holds"] == report["summary"]["records"]
        assert len(labellings) == 12
        (_, build), = bounds.corpus_instances(CorpusConfig(**cfg))
        g = build()
        assert built.pop("classification") == [g]
        for graphs in built.values():
            assert len(graphs) == 2 and graphs[0] is not graphs[1]
            assert graphs[0] == g and graphs[1] != g

    def test_three_solves_for_all_five_checks(self, monkeypatch):
        g = generate("random_connected", 8, 3)
        assert classify(g).is_connected and not is_complete(g)
        assert not g.is_signed() and g.mu_is_degree() and g.kappa_is_zero()
        solved = self.count_solves(monkeypatch)
        rows, errors = run_checks_on_graph("g", g, self.CHECKS, self.EPS, self.SEED)
        assert not errors
        assert all(rec.holds for _, rec in rows)
        assert {rec.name for _, rec in rows} >= {
            "main", "eq1_left", "lower_eta", "lower_gap",
            "nodal_lower", "nodal_cheeger",
        }
        # Jacobi: L(g) for main / basics / lower_gap; eigh: A(g) for eta
        # (the lower check runs first), then the values and functions of
        # L(g'), g' = perturb(g, eps, seed), which only the two nodal checks
        # read.
        gp = perturb(g, self.EPS, self.SEED)
        lap_g = spectral.normalized_laplacian_sym(g)
        lap_gp = spectral.normalized_laplacian_sym(gp)
        assert len(solved["jacobi"]) == 1
        assert np.array_equal(solved["jacobi"][0], lap_g)
        assert len(solved["eigh"]) == 2
        adj = solved["eigh"][0]
        assert np.array_equal(adj, self.adjacency(g))
        assert np.all(np.diag(adj) == 0.0) and np.any(adj != 0.0)
        assert np.array_equal(solved["eigh"][1], lap_gp)
        assert solved["eigvalsh"] == []

    def test_one_solve_of_g_at_eps_zero(self, monkeypatch):
        # At eps = 0 the nodal checks read the eigenfunctions of g itself:
        # `main` asks first, for values only, and the nodal checks add the
        # functions to that spectrum, so L(g) has one Jacobi solve.
        # (Seed 6 gives a generic g: a simple, zero-free spectrum.)
        g = generate("random_connected", 8, 6)
        assert g.mu_is_degree() and cyclomatic(g) > 0
        solved = self.count_solves(monkeypatch)
        rows, errors = run_checks_on_graph("g", g, self.CHECKS, 0.0, self.SEED)
        assert not errors
        assert all(rec.holds for _, rec in rows)
        lap_g = spectral.normalized_laplacian_sym(g)
        assert len(solved["jacobi"]) == 1
        assert np.array_equal(solved["jacobi"][0], lap_g)
        # eigh: A(g) for eta, then the functions of L(g).
        assert len(solved["eigh"]) == 2
        adj = solved["eigh"][0]
        assert np.array_equal(adj, self.adjacency(g))
        assert np.all(np.diag(adj) == 0.0) and np.any(adj != 0.0)
        assert np.array_equal(solved["eigh"][1], lap_g)
        assert solved["eigvalsh"] == []
        # Rows keep the order of the requested checks.
        names = [rec.name for _, rec in rows]
        assert names.index("main") < names.index("nodal_lower") < names.index("nodal_cheeger")
        assert rows == self.run_uncached(g, self.CHECKS, 0.0, self.SEED)

    def test_nodal_first_at_eps_zero(self, monkeypatch):
        # With the nodal checks asking first, the eigenvalues of g still
        # come from Jacobi (functions added by one eigh), so `main` reads
        # the same values as in the default order.
        g = generate("random_connected", 8, 6)
        default, _ = run_checks_on_graph("g", copy.copy(g), self.CHECKS, 0.0, self.SEED)
        solved = self.count_solves(monkeypatch)
        order = ("nodal", "nodal_cheeger", "main", "basics", "lower")
        rows, errors = run_checks_on_graph("g", g, order, 0.0, self.SEED)
        assert not errors
        lap_g = spectral.normalized_laplacian_sym(g)
        assert len(solved["jacobi"]) == 1 and len(solved["eigh"]) == 2
        assert np.array_equal(solved["jacobi"][0], lap_g)
        # eigh: the functions of L(g), then A(g) for eta.
        assert np.array_equal(solved["eigh"][0], lap_g)
        assert np.array_equal(solved["eigh"][1], self.adjacency(g))
        assert solved["eigvalsh"] == []

        def main_records(rs):
            return [rec for _, rec in rs if rec.name == "main"]

        assert main_records(rows) and main_records(rows) == main_records(default)
        assert sorted(map(repr, rows)) == sorted(map(repr, default))

    def test_one_perturbation_per_instance(self, monkeypatch):
        g = generate("random_connected", 8, 3)
        calls = []

        def counting(*args):
            calls.append(args)
            return perturb(*args)

        monkeypatch.setattr(bounds, "perturb", counting)
        rows, errors = run_checks_on_graph("g", g, self.CHECKS, self.EPS, self.SEED)
        assert not errors and all(rec.holds for _, rec in rows)
        assert calls == [(g, self.EPS, self.SEED)]
        # A second seed is a second perturbed instance held with g.
        run_checks_on_graph("g", g, ("nodal", "nodal_cheeger"), self.EPS, self.SEED + 1)
        assert calls == [(g, self.EPS, self.SEED), (g, self.EPS, self.SEED + 1)]

    def test_one_perturbation_shared_with_the_product(self, monkeypatch):
        # The product check's tree factor is the perturbed instance the
        # nodal checks hold, values and all: no perturb and no Jacobi solve
        # of its own.
        g = generate("path", 6, mu="unit")
        g2 = WeightedGraph.build(2, [(0, 1, 0.05)], mu="unit")
        calls = []

        def counting(*args):
            calls.append(args)
            return perturb(*args)

        monkeypatch.setattr(bounds, "perturb", counting)
        solved = self.count_solves(monkeypatch)
        checks = ("nodal", "nodal_cheeger", "product")
        rows, errors = run_checks_on_graph("g", g, checks, self.EPS, self.SEED, g2, 1)
        assert not errors and all(rec.holds for _, rec in rows)
        assert "product" in {rec.name for _, rec in rows}
        assert calls == [(g, self.EPS, self.SEED)]
        lap_gp = spectral.normalized_laplacian_sym(perturb(g, self.EPS, self.SEED))
        assert len(solved["eigh"]) == 1 and np.array_equal(solved["eigh"][0], lap_gp)
        assert not any(np.array_equal(m, lap_gp) for m in solved["jacobi"])

    def test_functions_after_values_solve_again(self, monkeypatch):
        # Functions asked for after a values-only solve come from one eigh
        # call on the same matrix; the eigenvalues are not solved again.
        g = generate("random_connected", 6, 5)
        solved = self.count_solves(monkeypatch)
        values = bounds._checked_spectrum(g, functions=False)
        assert values.functions is None
        with pytest.raises(ValueError, match="without eigenfunctions"):
            values.function(1)
        assert len(solved["eigh"]) == 0
        full = bounds._checked_spectrum(g, functions=True)
        assert bounds._checked_spectrum(g, functions=True) is full
        assert bounds._checked_spectrum(g, functions=False) is values
        assert full.values == values.values and full.clusters == values.clusters
        assert len(solved["jacobi"]) == 1 and len(solved["eigh"]) == 1
        assert np.array_equal(solved["eigh"][0], spectral.normalized_laplacian_sym(g))

    def test_product_factors_hold_their_spectra(self, monkeypatch):
        # Factor 2 holds the Jacobi spectrum the product check reads, as
        # factor 1 does: a second check of the pair, at another k, solves
        # only the new product.
        g1 = generate("path", 4, mu="unit")
        g2 = WeightedGraph.build(2, [(0, 1, 0.05)], mu="unit")
        solved = self.count_solves(monkeypatch)
        check_product_theorem(g1, g2, 1)
        check_product_theorem(g1, g2, 2)
        jacobi = solved["jacobi"]
        assert [m.shape for m in jacobi] == [(4, 4), (2, 2), (8, 8), (8, 8)]
        lap = [spectral.normalized_laplacian_sym(h) for h in (g1, g2)]
        assert np.array_equal(jacobi[0], lap[0]) and np.array_equal(jacobi[1], lap[1])
        held = g2._held.get("spectrum")
        assert held is bounds._checked_spectrum(g2, functions=False)
        assert held.values == tuple(spectral.eig_sym(lap[1]).tolist())

    def test_each_instance_freed_before_the_next(self, monkeypatch):
        # What the checks of an instance derive is held with its graph, the
        # perturbed instance with its profile included: a corpus frees each
        # instance before the next one's checks start, and holds none once
        # it returns.
        graphs, perturbed = [], []
        run_checks = bounds.run_checks_on_graph

        def checking(instance, g, *args):
            assert all(ref() is None for ref in graphs + perturbed)
            graphs.append(weakref.ref(g))
            return run_checks(instance, g, *args)

        def perturbing(*args):
            gp = perturb(*args)
            perturbed.append(weakref.ref(gp))
            return gp

        monkeypatch.setattr(bounds, "run_checks_on_graph", checking)
        monkeypatch.setattr(bounds, "perturb", perturbing)
        cfg = CorpusConfig(families=("random_connected",), sizes=(5, 6, 7), count=4,
                           seed=5, checks=self.CHECKS)
        report = run_corpus(cfg)
        assert report.all_hold()
        assert len({instance for instance, _ in report.rows}) == 4
        assert len(graphs) == len(perturbed) == 4
        assert all(ref() is None for ref in graphs + perturbed)
        # perfbench's tracer treats a bounds attribute of these names as an
        # lru cache and clears it before each op.
        assert not any(hasattr(bounds, name) for name in ("_spectrum", "_profile_dp", "_signed_profile_dp"))

    @pytest.mark.parametrize("eps", ["0.05", "0"])
    def test_product_keeps_the_instance_held(self, eps, tmp_path, monkeypatch, capsys):
        # g = K2 is a tree with unit measure equal to its degree, so
        # `product` runs and `basics` reads lambda: L(g) is solved once,
        # although the product check makes and solves graphs of its own
        # (at eps = 0 it reads g's eigenvalues from the held instance).
        g = WeightedGraph.build(2, [(0, 1, 1.0)])
        g2 = WeightedGraph.build(2, [(0, 1, 0.01)], mu="unit")
        files = []
        for name, h in (("g", g), ("g2", g2)):
            path = tmp_path / f"{name}.json"
            path.write_text(dumps_graph(h))
            files.append(str(path))
        solved = self.count_solves(monkeypatch)
        code = main(["verify", files[0], "--checks", "main,product,basics",
                     "--with-graph", files[1], "--eps", eps])
        assert code == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert {r["name"] for r in records if r["holds"]} >= {"main", "product", "eq1_left"}
        lap_g = spectral.normalized_laplacian_sym(g)
        assert sum(np.array_equal(m, lap_g) for m in solved["jacobi"]) == 1
        # L(g) (or, at eps > 0, g's held perturbed instance with one eigh),
        # factor 2 and the product.
        assert len(solved["jacobi"]) == 3
        assert len(solved["eigh"]) == (eps != "0")

    def test_cached_nodal_records_match_uncached(self, monkeypatch):
        g = generate("random_connected", 8, 3)
        cached, _ = run_checks_on_graph("g", g, self.CHECKS, self.EPS, self.SEED)
        solved = self.count_solves(monkeypatch)
        fresh = self.run_uncached(g, self.CHECKS, self.EPS, self.SEED)
        # Uncached: the values of L(g) three times, L(g') twice with its
        # functions, and A(g) by eigh.
        assert {key: len(mats) for key, mats in solved.items()} == {
            "jacobi": 3, "eigh": 3, "eigvalsh": 0,
        }
        gp = perturb(g, self.EPS, self.SEED)
        lap_gp = spectral.normalized_laplacian_sym(gp)
        assert sum(np.array_equal(m, self.adjacency(g)) for m in solved["eigh"]) == 1
        assert sum(np.array_equal(m, lap_gp) for m in solved["eigh"]) == 2
        assert self.nodal_records(cached) == self.nodal_records(fresh)
        assert {rec.name for rec in self.nodal_records(cached)} == {
            "nodal_lower", "nodal_strong_upper", "nodal_weak_upper", "nodal_cheeger",
        }
        assert cached == fresh
