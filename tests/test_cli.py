import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cheegerlab
from cheegerlab.cli import _dumps, build_parser, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def gn3_file(tmp_path):
    path = tmp_path / "gn3.json"
    assert main(["gen", "--family", "gn", "--n", "3", "-o", str(path)]) == 0
    return str(path)


class TestGen:
    def test_gn3_weights(self, tmp_path, capsys):
        code, out, _ = run_cli(["gen", "--family", "gn", "--n", "3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 8 and len(data["edges"]) == 8
        weights = {(e["u"], e["v"]): e["w"] for e in data["edges"]}
        assert weights[(0, 1)] == 1.0 and weights[(1, 2)] == 1.1
        assert weights[(0, 6)] == 1.0 and weights[(3, 7)] == 1.0

    def test_cycle(self, capsys):
        code, out, _ = run_cli(["gen", "--family", "cycle", "--n", "5"], capsys)
        data = json.loads(out)
        assert code == 0 and data["n"] == 5 and len(data["edges"]) == 5
        assert all(e["w"] == 1.0 for e in data["edges"])
        assert data["mu"] == [2.0] * 5

    def test_random_tree_deterministic(self, capsys):
        args = ["gen", "--family", "random_tree", "--n", "9", "--seed", "7"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(["gen", "--family", "gn", "--n", "2"], capsys)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--family", "complete", "--n", "3", "--w-low", "-1", "--w-high", "1"],
             "w_low must be a finite number > 0, got -1.0"),
            (["--family", "complete", "--n", "3", "--w-low", "inf"],
             "w_low must be a finite number > 0, got inf"),
            (["--family", "random_tree", "--n", "5", "--w-low", "0.5", "--w-high", "nan"],
             "w_high must be a finite number > 0, got nan"),
            (["--family", "gn", "--n", "4", "--a", "-1"], "a must be a finite number > 0, got -1.0"),
            (["--family", "gn", "--n", "4", "--a", "nan"], "a must be a finite number > 0, got nan"),
            (["--family", "random_connected", "--n", "5", "--p", "7"],
             "p must be a finite number in [0, 1], got 7.0"),
            (["--family", "random_connected", "--n", "5", "--p", "nan"],
             "p must be a finite number in [0, 1], got nan"),
            (["--family", "gn", "--n", "3", "--a", "1e200"],
             "a = 1e+200 makes the gn weight a^2 overflow"),
            (["--family", "gn", "--n", "3", "--a", "1e-200"],
             "invalid graph: nonpositive weight on edge (2,3); nonpositive weight on edge (3,4)"),
        ],
    )
    def test_invalid_graph_parameters_exit_2(self, capsys, args, message):
        # Each would build a graph that load_graph refuses.
        code, out, err = run_cli(["gen", *args], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestAnalyze:
    def test_k3(self, tmp_path, capsys):
        path = tmp_path / "k3.json"
        main(["gen", "--family", "complete", "--n", "3", "-o", str(path)])
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["cyclomatic"] == 1
        assert data["tau"] == 1.0
        vals = data["spectrum"]["values"]
        assert abs(vals[0]) < 1e-8 and abs(vals[1] - 1.5) < 1e-8
        assert abs(data["eta"]["eta"] - 0.5) < 1e-8

    def test_values_are_the_jacobi_bits(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        main(["gen", "--family", "random_connected", "--n", "9", "--seed", "4", "-o", str(path)])
        g = cheegerlab.load_graph(str(path))
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == 0
        spectrum = json.loads(out)["spectrum"]
        bare = cheegerlab.laplacian_spectrum(g, functions=False)
        assert [v.hex() for v in spectrum["values"]] == [v.hex() for v in bare.values]
        assert spectrum["functions"] == [list(f) for f in cheegerlab.laplacian_spectrum(g).functions]

    def test_disconnected(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps({"n": 4, "edges": [{"u": 0, "v": 1, "w": 1}, {"u": 2, "v": 3, "w": 1}]})
        )
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        data = json.loads(out)
        assert code == 0
        assert not data["classification"]["is_connected"]
        assert abs(data["spectrum"]["values"][1]) < 1e-8

    def test_malformed_json_exit_2_no_output(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        out_path = tmp_path / "out.json"
        code, out, err = run_cli(["analyze", str(path), "-o", str(out_path)], capsys)
        assert code == 2
        assert out == ""
        assert not out_path.exists()
        assert "error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(["analyze", "/nonexistent/graph.json"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": 1}], "kappa": [NaN, 0]}', "kappa"),
            ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": Infinity}], "mu": [1, 1]}', "weight"),
            ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": 1}], "mu": [1, Infinity]}', "measure"),
            ('{"n": 2, "edges": [{"u": 0.7, "v": 1, "w": 1}]}', "vertex id"),
            ("n 2 mu degree kappa nan 0\n0 1 1\n", "kappa"),
        ],
    )
    def test_bad_field_exit_2(self, tmp_path, capsys, text, field):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert field in err


    @pytest.mark.parametrize(
        "text, message",
        [
            (
                '{"n": 3, "edges": [{"u": 0, "v": 1, "w": NaN}, {"u": 1, "v": 2, "w": 1}]}',
                "non-finite weight on edge (0,1); non-finite measure at vertex 0; "
                "non-finite measure at vertex 1",
            ),
            ("n 3 mu 1 1 1\n0 1 nan\n1 1 1\n",
             "non-finite weight on edge (0,1); self-loop at vertex 1; isolated vertex 2"),
        ],
    )
    def test_invalid_graph_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestCheeger:
    def test_c4_k2(self, tmp_path, capsys):
        path = tmp_path / "c4.json"
        main(["gen", "--family", "cycle", "--n", "4", "-o", str(path)])
        code, out, _ = run_cli(["cheeger", str(path), "--k", "2"], capsys)
        data = json.loads(out)
        assert code == 0
        assert data["certificate"]["value"] == 0.5
        assert data["certificate"]["exact"] is True

    def test_signed_triangle(self, tmp_path, capsys):
        path = tmp_path / "tri.json"
        path.write_text(
            json.dumps(
                {
                    "n": 3,
                    "edges": [
                        {"u": 0, "v": 1, "w": 1, "sigma": -1},
                        {"u": 1, "v": 2, "w": 1},
                        {"u": 0, "v": 2, "w": 1},
                    ],
                }
            )
        )
        code, out, _ = run_cli(["cheeger", str(path), "--k", "1", "--signed"], capsys)
        data = json.loads(out)
        assert code == 0
        assert abs(data["certificate"]["value"] - 1 / 3) < 1e-12

    def test_sweep_option(self, gn3_file, capsys):
        code, out, _ = run_cli(
            ["cheeger", gn3_file, "--k", "2", "--sweep-from-eig", "2"], capsys
        )
        data = json.loads(out)
        assert code == 0
        assert data["sweep"]["bound"] >= data["certificate"]["value"] - 1e-12

    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_sweep_reads_lapack_functions_without_jacobi(self, tmp_path, capsys, monkeypatch, j):
        path = tmp_path / "g.json"
        main(["gen", "--family", "random_connected", "--n", "9", "--seed", "3", "-o", str(path)])
        g = cheegerlab.load_graph(str(path))
        bare = cheegerlab.laplacian_spectrum(g, functions=False)
        f = cheegerlab.spectral.with_functions(g, bare).function(j)
        expected = _dumps(
            {
                "certificate": cheegerlab.rho_exact(g, 2).to_json_dict(),
                "budget_exceeded": False,
                "sweep": cheegerlab.rho_upper_nodal_sweep(g, f).to_json_dict(),
            }
        ) + "\n"

        def no_jacobi(*args, **kwargs):
            raise AssertionError("Jacobi solve for an eigenfunction")

        monkeypatch.setattr(cheegerlab.spectral, "eig_sym", no_jacobi)
        code, out, _ = run_cli(["cheeger", str(path), "--k", "2", "--sweep-from-eig", str(j)], capsys)
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("j", [0, -1, 5])
    def test_sweep_index_out_of_range_exit_2(self, tmp_path, capsys, j):
        path = tmp_path / "c4.json"
        main(["gen", "--family", "cycle", "--n", "4", "-o", str(path)])
        code, out, err = run_cli(
            ["cheeger", str(path), "--k", "2", "--sweep-from-eig", str(j)], capsys
        )
        assert code == 2
        assert out == ""
        assert "eigenfunction index must be in [1, 4]" in err

    def test_sweep_index_checked_before_search(self, tmp_path, capsys, monkeypatch):
        # n = 16 lies beyond the DP limits, where the search may run long
        # (default budget 2e8 states): a bad J must not wait for it.
        def no_search(*args):
            raise AssertionError("the search ran before the index check")

        monkeypatch.setattr(cheegerlab.cli, "rho_exact", no_search)
        monkeypatch.setattr(cheegerlab.cli, "rho_signed_exact", no_search)
        path = tmp_path / "g.json"
        main(["gen", "--family", "random_connected", "--n", "16", "--seed", "5", "-o", str(path)])
        for extra in ([], ["--signed"]):
            code, out, err = run_cli(
                ["cheeger", str(path), "--k", "3", "--sweep-from-eig", "17"] + extra, capsys
            )
            assert code == 2
            assert out == ""
            assert "eigenfunction index must be in [1, 16]" in err

    def test_sweep_refused_on_signed_graph_before_solving(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the sign check")

        for name in ("laplacian_spectrum", "rho_exact", "rho_signed_exact"):
            monkeypatch.setattr(cheegerlab.cli, name, no_solve)
        path = tmp_path / "s.json"
        main(["gen", "--family", "random_connected", "--n", "16", "--seed", "5", "-o", str(path)])
        g = cheegerlab.with_random_signature(cheegerlab.load_graph(str(path)), 3)
        assert g.is_signed()
        path.write_text(json.dumps(cheegerlab.graph.to_json_dict(g)))
        for extra in ([], ["--signed"]):
            code, out, err = run_cli(
                ["cheeger", str(path), "--k", "2", "--sweep-from-eig", "2"] + extra, capsys
            )
            assert code == 2
            assert out == ""
            assert err == "error: nodal sweep is defined for unsigned graphs\n"

    def test_budget_overflow_exit_3(self, tmp_path, capsys):
        # n = 16 lies beyond both DP limits, so the budgeted search runs.
        path = tmp_path / "g.json"
        main(["gen", "--family", "random_connected", "--n", "16", "--seed", "5", "-o", str(path)])
        for extra in ([], ["--signed"]):
            code, out, _ = run_cli(["cheeger", str(path), "--k", "3", "--budget", "40"] + extra, capsys)
            assert code == 3
            data = json.loads(out)
            assert data["budget_exceeded"] is True
            assert data["certificate"]["exact"] is False

    @pytest.mark.parametrize("n, signed", [(15, False), (14, True)])
    def test_dp_range_ignores_budget(self, tmp_path, capsys, n, signed):
        path = tmp_path / "g.json"
        main(["gen", "--family", "random_connected", "--n", str(n), "--seed", "5", "-o", str(path)])
        extra = ["--signed"] if signed else []
        code, out, _ = run_cli(["cheeger", str(path), "--k", "2", "--budget", "1"] + extra, capsys)
        assert code == 0
        data = json.loads(out)
        assert data["budget_exceeded"] is False
        g = cheegerlab.load_graph(str(path))
        profile = (cheegerlab.rho_signed_profile if signed else cheegerlab.rho_profile)(g, 2)
        assert data["certificate"] == profile[1].to_json_dict()

    def test_allow_overflow_flag_is_gone(self, gn3_file):
        with pytest.raises(SystemExit) as exc:
            main(["cheeger", gn3_file, "--k", "2", "--allow-overflow"])
        assert exc.value.code == 2


class TestVerify:
    def test_gn_all_checks_exit_0(self, gn3_file, capsys):
        code, out, err = run_cli(
            ["verify", gn3_file, "--checks", "main,basics,lower,nodal,nodal_cheeger"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["violations"] == 0
        assert data["summary"]["holds"] > 0

    def test_tree_corpus_exit_0(self, capsys):
        corpus = json.dumps({"families": ["random_tree"], "sizes": [4, 5], "count": 4})
        code, out, _ = run_cli(
            ["verify", "--corpus", corpus, "--checks", "main", "--seed", "3"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["violations"] == 0
        assert all(rec["meta"].get("ell") == 0 for rec in data["records"])

    def test_corpus_budget_rejects_allow_overflow(self, capsys):
        corpus = json.dumps(
            {
                "families": ["random_connected"],
                "sizes": [16],
                "count": 1,
                "budget": {"max_states": 20000, "allow_overflow": True},
            }
        )
        code, out, err = run_cli(["verify", "--corpus", corpus, "--checks", "lower,basics"], capsys)
        assert code == 2
        assert out == ""
        assert "bad corpus config" in err and "allow_overflow" in err

    @pytest.mark.parametrize(
        "corpus, message",
        [
            ("[1]", "must be a JSON object, not list"),
            ('"x"', "must be a JSON object, not str"),
            ('{"count": "3"}', "'count' must be an integer >= 0, got '3'"),
            ('{"count": true}', "'count' must be an integer >= 0, got True"),
            ('{"eps": "x"}', "'eps' must be a finite number >= 0, got 'x'"),
            ('{"eps": NaN}', "'eps' must be a finite number >= 0, got nan"),
            ('{"sizes": []}', "'sizes' must be a nonempty list of integers >= 1, got []"),
            ('{"sizes": [4, 0]}', "'sizes' must be a nonempty list of integers >= 1, got [4, 0]"),
            ('{"p": "0.3"}', "'p' must be a finite number in [0, 1], got '0.3'"),
            ('{"w_high": Infinity}', "'w_high' must be a finite number > 0 or null, got inf"),
            ('{"w_low": -1}', "'w_low' must be a finite number > 0 or null, got -1"),
            ('{"a": -1}', "'a' must be a finite number > 0, got -1"),
            ('{"p": 7}', "'p' must be a finite number in [0, 1], got 7"),
            ('{"signed": 1}', "'signed' must be true or false, got 1"),
            ('{"families": "random_tree"}', "'families' must be a nonempty list of family names, got 'random_tree'"),
            ('{"sizez": [4]}', "unknown key 'sizez'"),
            ('{"budget": {"max_states": 2.5}}', "'budget': max_states must be an integer >= 1, got 2.5"),
            ('{"budget": {"max_states": true}}', "'budget': max_states must be an integer >= 1, got True"),
            ('{"budget": {"max_states": "x"}}', "'budget': max_states must be an integer >= 1, got 'x'"),
        ],
    )
    @pytest.mark.parametrize("checks", ["main", "nodal"])
    def test_bad_corpus_config_exit_2(self, capsys, corpus, message, checks):
        code, out, err = run_cli(["verify", "--corpus", corpus, "--checks", checks], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: bad corpus config: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("family", ["gn", "random_tree"])
    def test_corpus_mu_of_wrong_length_exit_2(self, capsys, family):
        # gn(3) has 8 vertices, the random tree 5: neither matches mu.
        corpus = json.dumps({"families": [family], "sizes": [3 if family == "gn" else 5],
                             "count": 2, "mu": [1.0] * 4})
        code, out, err = run_cli(["verify", "--corpus", corpus, "--checks", "main"], capsys)
        n = 8 if family == "gn" else 5
        assert code == 2
        assert out == ""
        assert err == f"error: invalid graph: mu has length 4, expected {n}\n"

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("corpus", [False, True])
    def test_bad_eps_exit_2(self, gn3_file, capsys, eps, corpus):
        where = ["--corpus", '{"families": ["gn"], "sizes": [3]}'] if corpus else [gn3_file]
        code, out, err = run_cli(
            ["verify", *where, "--checks", "nodal,nodal_cheeger", f"--eps={eps}"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: --eps must be a finite number >= 0\n"

    def test_negative_kappa_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        path.write_text(
            json.dumps({"n": 2, "edges": [{"u": 0, "v": 1, "w": 1}], "kappa": [-1, 0]})
        )
        code, out, err = run_cli(["verify", str(path), "--checks", "main"], capsys)
        assert code == 0
        assert "skipped" in err
        data = json.loads(out)
        assert data["summary"]["skipped"] == 1

    def test_csv_format(self, gn3_file, capsys):
        code, out, _ = run_cli(
            ["verify", gn3_file, "--checks", "basics", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "instance,check,k,lhs,rhs,margin,holds"

    def test_product_check_via_flags(self, tmp_path, capsys):
        p3 = tmp_path / "p3.json"
        k2 = tmp_path / "k2.json"
        main(["gen", "--family", "path", "--n", "3", "--mu", "unit", "-o", str(p3)])
        k2.write_text(json.dumps({"n": 2, "edges": [{"u": 0, "v": 1, "w": 0.1}], "mu": [1, 1]}))
        code, out, _ = run_cli(
            ["verify", str(p3), "--checks", "product", "--with-graph", str(k2), "--product-k", "2"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        recs = [r for r in data["records"] if r["name"] == "product"]
        assert len(recs) == 1 and recs[0]["holds"]

    def test_unknown_check_exit_2(self, gn3_file, capsys):
        code, _, err = run_cli(["verify", gn3_file, "--checks", "bogus"], capsys)
        assert code == 2

    def test_deterministic_bytes(self, gn3_file, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["verify", gn3_file, "--checks", "nodal", "--seed", "5"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestPerturbCmd:
    def test_frequency(self, tmp_path, capsys):
        path = tmp_path / "k3.json"
        main(["gen", "--family", "complete", "--n", "3", "-o", str(path)])
        code, out, _ = run_cli(
            ["perturb", str(path), "--eps", "0.05", "--trials", "50", "--seed", "2"], capsys
        )
        data = json.loads(out)
        assert code == 0
        assert data["fraction_simple"] == 1.0
        assert data["trials"] == 50

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_bad_eps_exit_2(self, gn3_file, capsys, eps):
        code, out, err = run_cli(["perturb", gn3_file, "--eps", eps, "--trials", "5"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --eps must be a finite number >= 0\n"

    def test_zero_trials_exit_2(self, tmp_path, capsys):
        path = tmp_path / "k3.json"
        main(["gen", "--family", "complete", "--n", "3", "-o", str(path)])
        code, _, err = run_cli(["perturb", str(path), "--trials", "0"], capsys)
        assert code == 2

    def test_byte_identical_reports(self, tmp_path):
        path = tmp_path / "c6.json"
        main(["gen", "--family", "cycle", "--n", "6", "-o", str(path)])
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        args = ["perturb", str(path), "--eps", "0.05", "--trials", "20", "--seed", "9"]
        assert main(args + ["-o", str(r1)]) == 0
        assert main(args + ["-o", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "p.json"
        result = subprocess.run(
            [sys.executable, "-m", "cheegerlab", "gen", "--family", "path", "--n", "3", "-o", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(path.read_text())["n"] == 3


class TestWarmProcess:
    """The parser and the bounds/validation caches persist across main()
    calls in one process; none of them may change an output byte."""

    CORPUS = json.dumps(
        {"families": ["random_connected"], "sizes": [5, 6, 7], "count": 3,
         "w_low": 0.5, "w_high": 2.0, "seed": 21}
    )
    ARGS = ["verify", "--corpus", CORPUS, "--checks", "main,basics,lower,nodal,nodal_cheeger"]

    def test_cold_subprocess_and_warm_runs_byte_identical(self, capsys):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cheegerlab.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        cold = subprocess.run(
            [sys.executable, "-m", "cheegerlab", *self.ARGS], capture_output=True, env=env
        )
        assert cold.returncode == 0, cold.stderr
        code1, warm1, _ = run_cli(self.ARGS, capsys)
        code2, warm2, _ = run_cli(self.ARGS, capsys)
        assert code1 == code2 == 0
        assert json.loads(warm1)["summary"]["holds"] > 0
        assert warm1.encode() == warm2.encode() == cold.stdout

    def test_parser_keeps_no_state_between_calls(self, capsys):
        assert build_parser() is build_parser()
        code, expected, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--corpus", self.CORPUS, "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, csv_text, _ = run_cli(self.ARGS + ["--format", "csv", "--eps", "0.1"], capsys)
        assert code == 0 and csv_text.startswith("instance,check,k")
        code, out, _ = run_cli(self.ARGS, capsys)
        assert code == 0 and out == expected


class TestOutput:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "GRAPH", "--checks", "nodal", "--seed", "5"],
            ["verify", "GRAPH", "--checks", "main", "--format", "csv"],
            ["analyze", "GRAPH", "--format", "text"],
            ["analyze", "GRAPH"],
            ["gen", "--family", "cycle", "--n", "4"],
        ],
    )
    def test_file_and_stdout_get_the_same_bytes(self, args, gn3_file, tmp_path, capsys):
        args = [gn3_file if a == "GRAPH" else a for a in args]
        code, out, _ = run_cli(args, capsys)
        path = tmp_path / "out"
        assert main(args + ["-o", str(path)]) == code == 0
        assert out.endswith("\n")
        assert path.read_bytes() == out.encode()


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(["\x00\x1f\x7f", "\u00e9\u2028\U0001f600", '"\\/', ""]),
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.dictionaries(st.text(), kids),
    ),
    max_leaves=40,
)


class TestDumps:
    """The report writer against json.dumps(x, sort_keys=True, indent=2)."""

    @given(_JSON)
    @example({"a": [], "b": {}, "c": [[], {}, ()], "": {"x": [{}]}})
    @example([np.float64(-0.0), np.float64(math.nan), True, False, None, 0])
    @settings(max_examples=200, deadline=None)
    def test_matches_json(self, x):
        assert _dumps(x) == json.dumps(x, sort_keys=True, indent=2)

    @pytest.mark.parametrize("bad", [object(), np.int64(3), {1: "int key"}])
    def test_rejects_what_reports_never_hold(self, bad):
        with pytest.raises(TypeError):
            _dumps(bad)
