import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cheegerlab
from cheegerlab.bounds import CHECK_NAMES
from cheegerlab.cli import build_parser, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def src_env() -> dict:
    """This environment with the package's source first on PYTHONPATH, so
    that a fresh interpreter imports the code under test."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cheegerlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _refuse(constant):
    raise ValueError(f"{constant} is not RFC 8259 JSON")


def strict_json(text):
    """json.loads that refuses the NaN, Infinity and -Infinity that RFC 8259
    does not allow (json.loads accepts them by default)."""
    return json.loads(text, parse_constant=_refuse)


@pytest.fixture()
def gn3_file(tmp_path):
    path = tmp_path / "gn3.json"
    assert main(["gen", "--family", "gn", "--n", "3", "-o", str(path)]) == 0
    return str(path)


# A signed graph with mu, kappa and both signs, as JSON and as an edge list.
SIGNED_GRAPH = {
    "n": 4,
    "mu": [1.0, 2.0, 0.5, 1.5],
    "kappa": [0.25, 0.0, -0.5, 0.125],
    "edges": [
        {"u": 0, "v": 1, "w": 1.5, "sigma": -1},
        {"u": 1, "v": 2, "w": 0.75},
        {"u": 0, "v": 2, "w": 2.0, "sigma": 1},
        {"u": 2, "v": 3, "w": 1.25, "sigma": -1},
    ],
}
SIGNED_GRAPH_TEXT = "n 4 mu 1.0 2.0 0.5 1.5 kappa 0.25 0.0 -0.5 0.125\n0 1 1.5 -1\n1 2 0.75\n0 2 2.0 1\n2 3 1.25 -1\n"


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

    @pytest.mark.parametrize(
        "graph",
        [
            {"n": 3, "mu": "unit", "kappa": [1, 0, 0.5],
             "edges": [{"u": 0, "v": 1, "w": 1}, {"u": 1, "v": 2, "w": 2}, {"u": 0, "v": 2, "w": 1}]},
            {"n": 2, "edges": [{"u": 0, "v": 1, "w": 1}]},
        ],
    )
    def test_eta_for_every_unsigned_graph(self, tmp_path, capsys, graph):
        # eta needs only an unsigned graph: kappa != 0 and n = 2 print it too,
        # while the lower bound still skips on its own hypotheses.
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph))
        g = cheegerlab.load_graph(str(path))
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == 0
        eta = json.loads(out)["eta"]
        assert isinstance(eta["eta"], float)
        assert eta == json.loads(json.dumps(cheegerlab.adjacency_eta(g).to_json_dict()))
        code, out, _ = run_cli(["analyze", str(path), "--format", "text"], capsys)
        assert code == 0 and out.splitlines()[-1] == f"eta: {eta['eta']:.10g}"
        code, out, err = run_cli(["verify", str(path), "--checks", "lower"], capsys)
        assert code == 0
        assert err == "warning: 1 record(s) skipped on hypothesis grounds\n"
        [record] = json.loads(out)["records"]
        reason = "requires kappa == 0" if graph["n"] == 3 else "requires at least 3 vertices"
        assert (record["name"], record["holds"], record["meta"]) == ("lower", None, {"skipped": reason})

    def test_lower_records_the_eta_analyze_prints(self, tmp_path, capsys):
        # A path with weights 1e-161, 3, 1 and unit measure has eta =
        # sqrt(10); each `lower_eta` record carries the float `analyze` prints.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"n": 4, "mu": "unit", "edges": [
            {"u": 0, "v": 1, "w": 1e-161}, {"u": 1, "v": 2, "w": 3.0}, {"u": 2, "v": 3, "w": 1.0}]}))
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert (code, err) == (0, "")
        eta = json.loads(out)["eta"]["eta"]
        assert math.isclose(eta, math.sqrt(10), rel_tol=1e-12)
        code, out, err = run_cli(["verify", str(path), "--checks", "lower"], capsys)
        assert (code, err) == (0, "")
        records = json.loads(out)["records"]
        assert [repr(r["meta"]["eta"]) for r in records if r["name"] == "lower_eta"] == [repr(eta)] * 3

    def test_no_eta_for_a_signed_graph(self, tmp_path, capsys):
        path = tmp_path / "signed.json"
        path.write_text(json.dumps(SIGNED_GRAPH))
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == 0 and json.loads(out)["eta"] is None
        code, out, _ = run_cli(["analyze", str(path), "--format", "text"], capsys)
        assert code == 0 and "eta:" not in out

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
        "text, kind",
        [
            ("[1, 2]", "list"),
            ('"x"', "str"),
            ('  \n [{"n": 2, "edges": []}]', "list"),
            ("5", "int"),
            ("null", "NoneType"),
            ("true", "bool"),
            ("-1.5", "float"),
        ],
    )
    def test_non_object_json_exit_2(self, tmp_path, capsys, text, kind):
        # A file that parses as JSON, or opens with [ or ", is JSON, not an
        # edge list without its header, and its top level must be an
        # object.
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: malformed graph JSON: the top level must be a JSON object, not {kind}\n"

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": 1}], "kappa": [NaN, 0]}', "kappa"),
            ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": Infinity}], "mu": [1, 1]}', "weight"),
            ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": 1}], "mu": [1, Infinity]}', "measure"),
            ('{"n": 2, "edges": [{"u": 0.7, "v": 1, "w": 1}]}', "vertex id"),
            ('{"n": 2.5, "edges": [{"u": 0, "v": 1, "w": 1}]}', "n 2.5 is not an integer"),
            ('{"n": true, "edges": [{"u": 0, "v": 1, "w": 1}]}', "n true is not an integer"),
            ('{"n": "2", "edges": [{"u": 0, "v": 1, "w": 1}]}', 'n "2" is not an integer'),
            ('{"n": 2, "edges": [{"u": "0", "v": 1, "w": 1}]}', "edge 0 vertex id"),
            ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": 1, "sigma": true}]}', "edge 0 sigma true"),
            ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": "2.5"}]}', 'edge 0 weight w "2.5"'),
            ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": 1}], "mu": [1, true]}', "mu entry 1 true"),
            ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": 1}], "kappa": ["0", 0]}', 'kappa entry 0 "0"'),
            ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": 1}], "kappa": true}', "kappa true is not a number"),
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
            # A short mu reads the same from both formats.
            ('{"n": 3, "mu": [1, 1], "edges": [{"u": 0, "v": 1, "w": 1}, {"u": 1, "v": 2, "w": 1}]}',
             "mu has length 2, expected 3"),
            ("n 3 mu 1 1\n0 1 1\n1 2 1\n", "mu has length 2, expected 3"),
            # A misspelled key is named, not loaded as the field's default.
            ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": 1, "sgima": -1}]}',
             'malformed graph JSON: edge 0 has unknown key "sgima"'),
            ('{"n": 2, "kapa": [5, 5], "edges": [{"u": 0, "v": 1, "w": 1}]}',
             'malformed graph JSON: unknown key "kapa"'),
        ],
    )
    def test_invalid_graph_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "field, message",
        [
            ('"mu": "unit", "edges": [{"u": 0, "v": 1, "w": BIG}]', "non-finite weight on edge (0,1)"),
            ('"mu": [BIG, 1], "edges": [{"u": 0, "v": 1, "w": 1}]', "non-finite measure at vertex 0"),
            ('"mu": "unit", "kappa": [BIG, 0], "edges": [{"u": 0, "v": 1, "w": 1}]',
             "non-finite kappa at vertex 0"),
        ],
        ids=["w", "mu", "kappa"],
    )
    def test_int_beyond_the_float_range_exit_2(self, tmp_path, capsys, field, message):
        # A 401-digit integer is refused as a float inf is.
        path = tmp_path / "big.json"
        path.write_text('{"n": 2, %s}' % field.replace("BIG", "1" + "0" * 400))
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 3 mu 1 1 1\n0 1 1e308\n1 2 1e308\n",
             "Laplacian diagonal bound (d + |kappa|)/mu at vertex 1 is not finite; "
             "3 x total edge weight (the bound on beta's numerator) is not finite"),
            ("n 2 mu 1e-320 1\n0 1 1\n", "Laplacian diagonal bound (d + |kappa|)/mu at vertex 0 is not finite"),
            ("n 3 mu 1e308 1e308 1e308\n0 1 1\n1 2 1\n",
             "mu_u * mu_v on edge (0,1) is not a positive finite number; "
             "mu_u * mu_v on edge (1,2) is not a positive finite number; total measure mu(V) is not finite"),
            ("n 2 mu 1e-200 1e-200\n0 1 1e-190\n",
             "mu_u * mu_v on edge (0,1) is not a positive finite number"),
            ("n 2 mu 1e-300 1e-20 kappa -1e200 -1e200\n0 1 1e200\n",
             "Laplacian diagonal bound (d + |kappa|)/mu at vertex 0 is not finite"),
        ],
    )
    @pytest.mark.parametrize("command", [["analyze"], ["verify", "--checks", "main,basics,lower"]])
    def test_overflowing_sums_exit_2(self, tmp_path, capsys, text, message, command):
        path = tmp_path / "big.txt"
        path.write_text(text)
        code, out, err = run_cli(command[:1] + [str(path)] + command[1:], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestOSErrors:
    """A path the OS refuses is an input error, as a missing file is: exit 2
    and one `error:` line."""

    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "--family", "path", "--n", "3", "-o", "{file}/x.json"],
            ["analyze", "{file}/g.json"],
            ["verify", "--corpus", "@{file}/c.json"],
        ],
    )
    def test_file_as_parent_directory_exit_2(self, tmp_path, capsys, args):
        file = tmp_path / "file"
        file.write_text("")
        code, out, err = run_cli([a.format(file=file) for a in args], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Not a directory" in err


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
        code, out, _ = run_cli(["cheeger", str(path), "--k", "1"], capsys)
        data = json.loads(out)
        assert code == 0
        assert data["certificate"]["value"] == 1 / 3

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_signed_graph_without_the_flag_gives_the_signed_bytes(self, tmp_path, capsys, k):
        # On a signed graph rho_exact is rho^sigma_k, so --signed changes
        # nothing.
        path = tmp_path / "signed.json"
        path.write_text(json.dumps(SIGNED_GRAPH))
        flagged = run_cli(["cheeger", str(path), "--k", str(k), "--signed"], capsys)
        assert flagged[0] == 0 and flagged[2] == ""
        assert run_cli(["cheeger", str(path), "--k", str(k)], capsys) == flagged
        assert json.loads(flagged[1])["certificate"]["signed"] is True

    @pytest.mark.parametrize(
        "family, n, k",
        [("gn", 3, 1), ("gn", 3, 2), ("gn", 3, 4), ("cycle", 3, 1)],
        ids=["1", "2", "4", "triangle-1"],
    )
    def test_flag_changes_nothing_on_an_unsigned_graph(self, tmp_path, capsys, family, n, k):
        # The graph's sign alone picks the score, so an unsigned graph
        # prints its rho_k bytes, scored by Phi, with the flag or without.
        path = str(tmp_path / "g.json")
        assert main(["gen", "--family", family, "--n", str(n), "-o", path]) == 0
        plain = run_cli(["cheeger", path, "--k", str(k)], capsys)
        assert plain[0] == 0 and plain[2] == ""
        assert run_cli(["cheeger", path, "--k", str(k), "--signed"], capsys) == plain
        assert json.loads(plain[1])["certificate"]["signed"] is False

    def test_star6_k3_parts_are_its_leaves(self, tmp_path, capsys):
        # The same optimum in `cheeger` and in the `lower` check's record.
        path = str(tmp_path / "star6.json")
        assert main(["gen", "--family", "star", "--n", "6", "-o", path]) == 0
        code, out, err = run_cli(["cheeger", path, "--k", "3"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["certificate"]["parts"] == [[3], [4], [5]]
        code, out, err = run_cli(["verify", path, "--checks", "lower"], capsys)
        assert (code, err) == (0, "")
        assert [r["meta"]["certificate"]["parts"] for r in json.loads(out)["records"]
                if r["name"] == "lower_eta" and r["k"] == 3] == [[[3], [4], [5]]]

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
        f = cheegerlab.bounds._checked_spectrum(g, functions=True).function(j)
        sweep = cheegerlab.rho_upper_nodal_sweep(g, f)
        expected = json.dumps(
            {
                "certificate": cheegerlab.rho_exact(g, 2).to_json_dict(),
                "budget_exceeded": False,
                "sweep": {"m": sweep.k, "bound": sweep.value, "certificate": sweep.to_json_dict()},
            },
            sort_keys=True,
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
        # k = 3 on n = 16 runs a pass over (3^16 - 1) / 2 pairs, and the
        # signed split pass one per edge: a bad J must not wait for them.
        def no_search(*args):
            raise AssertionError("the search ran before the index check")

        monkeypatch.setattr(cheegerlab.cli, "rho_exact", no_search)
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

        for name in ("laplacian_spectrum", "rho_exact"):
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

    def test_answers_beyond_the_old_dp_range(self, tmp_path, capsys):
        # n = 16: at k = 2 the profile DP runs no pair pass.
        g = cheegerlab.product(cheegerlab.generate("path", 4, mu="unit"), cheegerlab.generate("path", 4, mu="unit"))
        path = tmp_path / "p4xp4.json"
        path.write_text(json.dumps(cheegerlab.graph.to_json_dict(g)))
        code, out, _ = run_cli(["cheeger", str(path), "--k", "2"], capsys)
        assert code == 0
        data = json.loads(out)
        want = {"certificate": cheegerlab.rho_exact(g, 2).to_json_dict(), "budget_exceeded": False}
        assert data == json.loads(json.dumps(want))
        assert data["certificate"]["exact"] is True

    @pytest.mark.parametrize("signed", [False, True])
    def test_refused_request_exits_2_before_any_table(self, tmp_path, capsys, monkeypatch, signed):
        def refuse(*args):
            raise AssertionError("a subset table was built")

        for name in ("_phi_array", "_signed_tables", "_cut_and_measure"):
            monkeypatch.setattr(cheegerlab.cheeger, name, refuse)
        # n = 19 unsigned, the least full profile the policy refuses; n = 18
        # signed.
        n = 18 if signed else 19
        g = cheegerlab.generate("random_connected", n, seed=5)
        if signed:
            g = cheegerlab.with_random_signature(g, 5)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(cheegerlab.graph.to_json_dict(g)))
        code, out, err = run_cli(["cheeger", str(path), "--k", str(n)], capsys)
        assert code == 2
        assert out == ""
        kind = "signed rho_k" if signed else "rho_k"
        assert err.startswith(f"error: exact {kind} on n = {n} vertices up to kmax = {n} is beyond")

    def test_allow_overflow_flag_is_gone(self, gn3_file):
        with pytest.raises(SystemExit) as exc:
            main(["cheeger", gn3_file, "--k", "2", "--allow-overflow"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["cheeger", "--k", "2"], ["verify", "--checks", "main"]])
    def test_budget_flag_is_gone(self, gn3_file, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command[0], gn3_file, *command[1:], "--budget", "40"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 40" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "corpus, name, kmax",
        [
            # A full profile at n = 18, which the work policy admits: on a
            # tree `main` has a record at every k.
            ({"families": ["random_tree"], "sizes": [18], "count": 1}, "main", 18),
            # `monotonic_signed` compares each k = 1..n-1 with k + 1.
            ({"families": ["random_connected"], "sizes": [13], "count": 1, "signed": True}, "monotonic_signed", 12),
        ],
        ids=["tree-18", "signed-13"],
    )
    def test_full_profile_corpus_holds(self, capsys, corpus, name, kmax):
        code, out, _ = run_cli(["verify", "--corpus", json.dumps({**corpus, "checks": ["main", "basics"]})], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["errors"] == [] and data["summary"]["violations"] == 0
        assert [r["k"] for r in data["records"] if r["name"] == name] == list(range(1, kmax + 1))

    @pytest.mark.parametrize(
        "checks, eps", [("nodal", "1e-9"), ("nodal_cheeger", "0")], ids=["nodal-near-tie", "nodal_cheeger-zero-signs"]
    )
    def test_nodal_checks_on_star4_hold(self, tmp_path, capsys, checks, eps):
        # At eps = 1e-9 lambda_2 and lambda_3 are about 5e-10 apart; at
        # eps = 0 f_2 and f_3 vanish at the centre.
        path = str(tmp_path / "star4.json")
        assert main(["gen", "--family", "star", "--n", "4", "-o", path]) == 0
        code, out, err = run_cli(["verify", path, "--checks", checks, "--eps", eps, "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["errors"] == [] and data["records"] and all(r["holds"] for r in data["records"])

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: Jacobi's accuracy is absolute (1e-12 of the Frobenius norm), so it "
               "reports lambda_1 = -0.366 here and `main` records a solver failure",
    )
    def test_weights_many_orders_apart(self, tmp_path, capsys):
        path = tmp_path / "p3.json"
        path.write_text(json.dumps({"n": 3, "mu": "unit", "edges": [
            {"u": 0, "v": 1, "w": 1e150}, {"u": 1, "v": 2, "w": 1}]}))
        code, out, err = run_cli(["verify", str(path), "--checks", "main"], capsys)
        assert (code, err) == (0, "")
        records = json.loads(out)["records"]
        assert records and all(r["holds"] for r in records)

    def test_instance_the_generator_refuses_exit_1(self, capsys):
        # Instance 001 (K12 at p = 1, degrees 3.3e154) overflows its measure
        # products: its error names it, and the other three still run.
        corpus = json.dumps({"families": ["random_connected"], "sizes": [3, 12], "count": 4, "seed": 2,
                             "p": 1.0, "w_low": 3e153, "w_high": 3e153})
        code, out, err = run_cli(["verify", "--corpus", corpus, "--checks", "basics"], capsys)
        assert code == 1
        assert err.startswith("error [random_connected-001-n12]: invalid graph: mu_u * mu_v on edge (0,1) ")
        assert err.count("\n") == 1
        data = json.loads(out)
        assert [instance for instance, _ in data["errors"]] == ["random_connected-001-n12"]
        assert sorted({rec["instance"] for rec in data["records"]}) == [
            "random_connected-000-n3", "random_connected-002-n3", "random_connected-003-n3"
        ]
        assert data["summary"]["violations"] == 0

    def test_many_problems_name_five_and_count_the_rest(self, capsys):
        # That instance has 66 problems, one per edge; its line names the
        # first five and counts the others, and the error lists every one.
        corpus = {"families": ["random_connected"], "sizes": [3, 12], "count": 4, "seed": 2,
                  "p": 1.0, "w_low": 3e153, "w_high": 3e153}
        code, _, err = run_cli(["verify", "--corpus", json.dumps(corpus), "--checks", "basics"], capsys)
        clause = "mu_u * mu_v on edge (0,{}) is not a positive finite number"
        assert code == 1
        assert err == ("error [random_connected-001-n12]: invalid graph: "
                       + "; ".join(clause.format(v) for v in range(1, 6)) + "; and 61 more\n")
        builds = dict(cheegerlab.bounds.corpus_instances(cheegerlab.CorpusConfig(**corpus)))
        with pytest.raises(cheegerlab.InvalidGraphError) as exc:
            builds["random_connected-001-n12"]()
        assert len(exc.value.problems) == 66
        assert exc.value.problems[:5] == tuple(clause.format(v) for v in range(1, 6))

    def test_corpus_json_checks_win_over_the_flag(self, capsys):
        # Like seed and eps, a "checks" key of the corpus JSON wins over
        # --checks (default main,basics).
        config = {"families": ["path"], "sizes": [5]}
        code, expected, _ = run_cli(["verify", "--corpus", json.dumps(config), "--checks", "lower"], capsys)
        assert code == 0
        assert {rec["name"] for rec in json.loads(expected)["records"]} == {"lower_eta", "lower_gap"}
        corpus = json.dumps({**config, "checks": ["lower"]})
        for flags in ([], ["--checks", "main,basics"], ["--checks", ""]):
            code, out, _ = run_cli(["verify", "--corpus", corpus, *flags], capsys)
            assert code == 0 and out == expected
        product = json.dumps({**config, "checks": ["product"]})
        code, out, err = run_cli(["verify", "--corpus", product], capsys)
        assert code == 2 and out == ""
        assert err == "error: bad corpus config: 'checks' must be a nonempty list of distinct check names, got ['product']\n"

    @pytest.mark.parametrize(
        "corpus, message",
        [
            ("[1]", "must be a JSON object, not list"),
            ('"x"', "must be a JSON object, not str"),
            ('{"count": "3"}', "'count' must be an integer >= 0, got '3'"),
            ('{"count": true}', "'count' must be an integer >= 0, got True"),
            ('{"eps": "x"}', "'eps' must be a finite number >= 0, got 'x'"),
            ('{"eps": NaN}', "'eps' must be a finite number >= 0, got nan"),
            ('{"sizes": []}', "'sizes' must be a nonempty list of distinct integers >= 1, got []"),
            ('{"sizes": [4, 0]}', "'sizes' must be a nonempty list of distinct integers >= 1, got [4, 0]"),
            ('{"checks": []}', "'checks' must be a nonempty list of distinct check names, got []"),
            ('{"checks": ["bogus"]}', "'checks' must be a nonempty list of distinct check names, got ['bogus']"),
            ('{"checks": ["main", "product"]}',
             "'checks' must be a nonempty list of distinct check names, got ['main', 'product']"),
            ('{"p": "0.3"}', "'p' must be a finite number in [0, 1], got '0.3'"),
            ('{"w_high": Infinity}', "'w_high' must be a finite number > 0 or null, got inf"),
            ('{"w_low": -1}', "'w_low' must be a finite number > 0 or null, got -1"),
            ('{"a": -1}', "'a' must be a finite number > 0, got -1"),
            ('{"p": 7}', "'p' must be a finite number in [0, 1], got 7"),
            ('{"signed": 1}', "'signed' must be true or false, got 1"),
            ('{"families": "random_tree"}', "'families' must be a nonempty list of distinct family names, got 'random_tree'"),
            ('{"families": ["random_tree", "random_tree"], "sizes": [5], "count": 2}',
             "'families' must be a nonempty list of distinct family names, got ['random_tree', 'random_tree']"),
            ('{"families": ["cycle"], "sizes": [4, 4], "signed": true}',
             "'sizes' must be a nonempty list of distinct integers >= 1, got [4, 4]"),
            ('{"checks": ["main", "main"]}',
             "'checks' must be a nonempty list of distinct check names, got ['main', 'main']"),
            ('{"sizez": [4]}', "unknown key 'sizez'"),
            ('{"budget": {"max_states": 5}}', "unknown key 'budget'"),
        ],
    )
    @pytest.mark.parametrize("checks", ["main", "nodal"])
    def test_bad_corpus_config_exit_2(self, capsys, corpus, message, checks):
        code, out, err = run_cli(["verify", "--corpus", corpus, "--checks", checks], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: bad corpus config: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("source", ["inline", "file"])
    def test_malformed_corpus_json_exit_2(self, tmp_path, capsys, source):
        corpus = "{bad"
        with pytest.raises(json.JSONDecodeError) as decoded:
            json.loads(corpus)
        if source == "file":
            path = tmp_path / "corpus.json"
            path.write_text(corpus)
            corpus = f"@{path}"
        code, out, err = run_cli(["verify", "--corpus", corpus], capsys)
        assert code == 2 and out == ""
        assert err == f"error: bad corpus config: malformed JSON: {decoded.value}\n"

    def test_empty_corpus_is_malformed_json(self, capsys):
        # An empty --corpus is a corpus given, not a missing one.
        code, out, err = run_cli(["verify", "--corpus", ""], capsys)
        assert code == 2 and out == ""
        assert err == "error: bad corpus config: malformed JSON: Expecting value: line 1 column 1 (char 0)\n"

    @pytest.mark.parametrize(
        "corpus, message",
        [
            ('{"families": ["petersen"], "count": 0}',
             "'families' must be a nonempty list of distinct family names, got ['petersen']"),
            ('{"families": ["petersen"], "count": 2}',
             "'families' must be a nonempty list of distinct family names, got ['petersen']"),
            ('{"families": ["path"], "sizes": [1, 4]}', "'sizes' must be >= 2 for path, got [1, 4]"),
            ('{"families": ["random_connected"], "sizes": [1]}',
             "'sizes' must be >= 2 for random_connected, got [1]"),
            ('{"families": ["gn"], "sizes": [2]}', "'sizes' must be >= 3 for gn, got [2]"),
            ('{"w_low": 2, "w_high": 1}', "w_high must be >= w_low"),
            ('{"mu": "degre"}', "'mu' must be a measure name or a list of finite numbers, got 'degre'"),
            ('{"families": ["path"], "sizes": [4, 5], "mu": [1, 1, 1, 1]}',
             "'mu' has length 4, but path at size 5 has 5 vertices"),
            pytest.param('{"eps": 1' + "0" * 400 + "}", f"'eps' must be a finite number >= 0, got {10**400!r}",
                         id="eps-int-beyond-float"),
        ],
    )
    def test_corpus_the_generator_refuses_exit_2(self, capsys, corpus, message):
        # Refused on construction, before the first instance: a corpus of
        # an unknown family with count 0 used to exit 0 with no records.
        code, out, err = run_cli(["verify", "--corpus", corpus], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: bad corpus config: {message}\n"

    def test_weight_order_one_rule_for_gen_and_corpus(self, capsys):
        code, out, gen_err = run_cli(["gen", "--family", "star", "--n", "4", "--w-low", "2", "--w-high", "1"], capsys)
        assert code == 2 and out == "" and gen_err == "error: w_high must be >= w_low\n"
        corpus = '{"families": ["star"], "sizes": [4], "w_low": 2, "w_high": 1}'
        code, out, err = run_cli(["verify", "--corpus", corpus], capsys)
        assert code == 2 and out == "" and err == "error: bad corpus config: w_high must be >= w_low\n"

    @pytest.mark.parametrize("family", ["gn", "random_tree"])
    def test_corpus_mu_of_wrong_length_exit_2(self, capsys, monkeypatch, family):
        # gn(3) has 8 vertices, the random tree 5: neither matches mu, and
        # the config is refused before any instance is generated.
        def fail(*args, **kw):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(cheegerlab.bounds, "generate", fail)
        monkeypatch.setattr(cheegerlab.graph, "generate", fail)
        size = 3 if family == "gn" else 5
        corpus = json.dumps({"families": [family], "sizes": [size], "count": 2, "mu": [1.0] * 4})
        code, out, err = run_cli(["verify", "--corpus", corpus, "--checks", "main"], capsys)
        n = 8 if family == "gn" else 5
        assert code == 2
        assert out == ""
        assert err == (f"error: bad corpus config: 'mu' has length 4, "
                       f"but {family} at size {size} has {n} vertices\n")

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("corpus", [False, True])
    def test_bad_eps_exit_2(self, gn3_file, capsys, eps, corpus):
        where = ["--corpus", '{"families": ["gn"], "sizes": [3]}'] if corpus else [gn3_file]
        code, out, err = run_cli(
            ["verify", *where, "--checks", "nodal,nodal_cheeger", f"--eps={eps}"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: eps must be a finite number >= 0\n"

    def test_overflowing_eps_is_a_check_error(self, gn3_file, capsys):
        # The perturbation is refused before any eigensolve or DP: the two
        # nodal checks each record it, and the other checks still run.
        code, out, err = run_cli(
            ["verify", gn3_file, "--checks", "nodal,basics,nodal_cheeger", "--eps", "1e308"], capsys
        )
        message = "eps = 1e+308 is too large: the perturbed degrees or potentials would overflow"
        assert code == 1
        data = json.loads(out)
        assert data["errors"] == [
            ["graph", f"nodal: {message}"],
            ["graph", f"nodal_cheeger: {message}"],
        ]
        assert err == f"error [graph]: nodal: {message}\nerror [graph]: nodal_cheeger: {message}\n"
        code, basics, _ = run_cli(["verify", gn3_file, "--checks", "basics", "--eps", "1e308"], capsys)
        assert code == 0
        assert data["records"] == json.loads(basics)["records"] != []

    def test_huge_weights_give_a_finite_upper_bound(self, tmp_path, capsys):
        # 2 tau lambda_k overflows at k = 2, 3 (tau = 2e160), so the bound is
        # sqrt(2 tau) sqrt(lambda_k); at k = 1 the plain form is kept.
        path = tmp_path / "p3.json"
        path.write_text(json.dumps({"n": 3, "mu": "unit", "edges": [
            {"u": 0, "v": 1, "w": 1e160}, {"u": 1, "v": 2, "w": 1e160}]}))
        code, out, _ = run_cli(
            ["verify", str(path), "--checks", "main,nodal_cheeger", "--eps", "0"], capsys
        )
        assert code == 0
        records = json.loads(out)["records"]
        assert [(r["name"], r["k"]) for r in records] == [
            (name, k) for name in ("main", "nodal_cheeger") for k in (1, 2, 3)
        ]
        for r in records:
            tau, lam = r["meta"]["tau"], r["meta"]["lambda_k"]
            assert r["holds"] and math.isfinite(r["rhs"]) and math.isfinite(r["margin"])
            if r["k"] == 1:
                assert r["rhs"] == math.sqrt(2.0 * tau * lam)
            else:
                assert r["rhs"] == math.sqrt(2.0 * tau) * math.sqrt(lam)

    def test_negative_kappa_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        path.write_text(
            json.dumps({"n": 2, "edges": [{"u": 0, "v": 1, "w": 1}], "kappa": [-1, 0]})
        )
        code, out, err = run_cli(["verify", str(path), "--checks", "main"], capsys)
        assert code == 0
        assert "skipped" in err
        data = strict_json(out)
        assert data["summary"]["skipped"] == 1
        # A skipped record's sides are null in JSON and blank in CSV.
        [record] = data["records"]
        assert (record["holds"], record["lhs"], record["rhs"], record["margin"]) == (None,) * 4
        code, out, _ = run_cli(["verify", str(path), "--checks", "main", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "graph,main,0,,,,skipped"

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
        k2.write_text(json.dumps({"n": 2, "edges": [{"u": 0, "v": 1, "w": 0.05}], "mu": [1, 1]}))
        for k in ("1", "2"):
            code, out, _ = run_cli(
                ["verify", str(p3), "--checks", "product", "--with-graph", str(k2), "--product-k", k],
                capsys,
            )
            assert code == 0
            data = json.loads(out)
            recs = [r for r in data["records"] if r["name"] == "product"]
            assert len(recs) == 1 and recs[0]["holds"]

    @pytest.mark.parametrize("k", [0, 3])
    def test_product_k_checked_before_solving(self, tmp_path, capsys, monkeypatch, k):
        def no_check(*args):
            raise AssertionError("the checks ran before the --product-k check")

        monkeypatch.setattr(cheegerlab.cli, "run_checks_on_graph", no_check)
        p3 = tmp_path / "p3.json"
        k2 = tmp_path / "k2.json"
        main(["gen", "--family", "path", "--n", "3", "--mu", "unit", "-o", str(p3)])
        k2.write_text(json.dumps({"n": 2, "edges": [{"u": 0, "v": 1, "w": 0.1}], "mu": [1, 1]}))
        code, out, err = run_cli(
            ["verify", str(p3), "--checks", "product", "--with-graph", str(k2), "--product-k", str(k)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: --product-k must be in [1, 2], got {k}\n"

    def test_product_check_on_a_20_vertex_product(self, tmp_path, capsys):
        # The product's full profile is beyond the work policy; the check
        # reads rho_2 only, which is within it.
        tree = tmp_path / "t.json"
        k2 = tmp_path / "k2.json"
        main(["gen", "--family", "random_tree", "--n", "10", "--seed", "3", "--mu", "unit", "-o", str(tree)])
        k2.write_text(json.dumps({"n": 2, "edges": [{"u": 0, "v": 1, "w": 0.01}], "mu": [1, 1]}))
        code, out, err = run_cli(
            ["verify", str(tree), "--checks", "product", "--with-graph", str(k2), "--product-k", "1"],
            capsys,
        )
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["errors"] == []
        assert [(r["name"], r["k"], r["holds"]) for r in data["records"]] == [("product", 2, True)]

    def test_product_check_error_keeps_the_other_records(self, tmp_path, capsys):
        # perturb refuses an eps that overflows the tree factor's degrees:
        # the product check records it, and the basics records are kept.
        p3 = tmp_path / "p3.json"
        k2 = tmp_path / "k2.json"
        main(["gen", "--family", "path", "--n", "3", "--mu", "unit", "-o", str(p3)])
        k2.write_text(json.dumps({"n": 2, "edges": [{"u": 0, "v": 1, "w": 0.1}], "mu": [1, 1]}))
        code, out, err = run_cli(
            ["verify", str(p3), "--checks", "product,basics", "--with-graph", str(k2), "--eps", "1e308"],
            capsys,
        )
        message = "eps = 1e+308 is too large: the perturbed degrees or potentials would overflow"
        assert code == 1
        data = json.loads(out)
        assert data["errors"] == [["graph", f"product: {message}"]]
        # basics skips its lambda-side records on unit measure.
        assert err == (
            "warning: 1 record(s) skipped on hypothesis grounds\n"
            f"error [graph]: product: {message}\n"
        )
        code, basics, _ = run_cli(["verify", str(p3), "--checks", "basics", "--eps", "1e308"], capsys)
        assert code == 0
        assert data["records"] == json.loads(basics)["records"] != []

    @staticmethod
    def argparse_exit_2(args, capsys) -> str:
        """The message of an argparse refusal: exit 2, nothing on stdout,
        and the usage line before `error:` on stderr."""
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        usage, _, message = err.partition("\ncheegerlab verify: error: ")
        assert usage.startswith("usage: cheegerlab verify ")
        return message

    def test_neither_graph_nor_corpus_exit_2(self, capsys):
        message = self.argparse_exit_2(["verify", "--checks", "main"], capsys)
        assert message == "one of the arguments graph --corpus is required\n"

    @pytest.mark.parametrize("config", ['{"families":["path"],"sizes":[4]}', ""], ids=["path", "empty"])
    @pytest.mark.parametrize("graph_first", [True, False])
    def test_graph_and_corpus_exit_2(self, gn3_file, capsys, graph_first, config):
        # The graph was ignored here before, and the corpus ran.
        corpus = ["--corpus", config]
        args = [gn3_file, *corpus] if graph_first else [*corpus, gn3_file]
        first, second = ("graph", "--corpus") if graph_first else ("--corpus", "graph")
        message = self.argparse_exit_2(["verify", *args], capsys)
        assert message == f"argument {second}: not allowed with argument {first}\n"

    def test_unknown_check_exit_2(self, gn3_file, capsys):
        code, out, err = run_cli(["verify", gn3_file, "--checks", "bogus"], capsys)
        assert code == 2 and out == ""
        assert err == "error: unknown check 'bogus'; known: main, nodal, nodal_cheeger, lower, basics, product\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["GRAPH", "--checks", "product"], "--checks product needs --with-graph FILE (and --product-k)"),
            (["--corpus", '{"sizes":[4]}', "--checks", "product"],
             "the product check needs an explicit pair: verify GRAPH --checks product --with-graph FILE --product-k K"),
        ],
    )
    def test_product_without_a_pair_exit_2(self, gn3_file, capsys, args, message):
        args = [gn3_file if a == "GRAPH" else a for a in args]
        code, out, err = run_cli(["verify", *args], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["main,main", "main,basics,main", "main,,main"])
    def test_repeated_check_exit_2(self, gn3_file, capsys, flag):
        # Each record would be written twice and counted twice in the
        # summary; the flag is refused before a graph or corpus is read.
        for args in ([gn3_file], ["--corpus", '{"sizes": [4]}']):
            code, out, err = run_cli(["verify", *args, "--checks", flag], capsys)
            assert code == 2 and out == ""
            assert err == f"error: --checks {flag!r} names a check more than once\n"

    @pytest.mark.parametrize("flag", ["", ",,,"])
    def test_empty_check_list_exit_2(self, gn3_file, capsys, flag):
        code, out, err = run_cli(["verify", gn3_file, "--checks", flag], capsys)
        assert code == 2 and out == ""
        assert err == f"error: --checks {flag!r} names no check\n"
        # In a corpus run the flag is the config's checks unless the JSON
        # names its own.
        code, out, err = run_cli(["verify", "--corpus", '{"sizes": [4]}', "--checks", flag], capsys)
        assert code == 2 and out == ""
        assert err == "error: bad corpus config: 'checks' must be a nonempty list of distinct check names, got []\n"

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
        assert err == "error: eps must be a finite number >= 0\n"

    def test_overflowing_eps_exit_2(self, gn3_file, capsys):
        code, out, err = run_cli(["perturb", gn3_file, "--eps", "1e308", "--trials", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            "error: eps = 1e+308 is too large: the perturbed degrees or potentials would overflow\n"
        )

    def test_zero_trials_exit_2(self, tmp_path, capsys):
        path = tmp_path / "k3.json"
        main(["gen", "--family", "complete", "--n", "3", "-o", str(path)])
        code, out, err = run_cli(["perturb", str(path), "--trials", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: trials must be >= 1\n"

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

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_one_blas_thread_unless_set(self, tmp_path, capsys, preset):
        # The package sets the thread variables before numpy is imported,
        # and only where the caller left them unset; `analyze` at n = 40
        # then runs in that interpreter, and its values (Jacobi's, which
        # read no BLAS) are this process's bits.
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        env = {k: v for k, v in src_env().items() if k not in names}
        if preset is not None:
            env.update(dict.fromkeys(names, preset))
        graph, report = str(tmp_path / "g40.json"), str(tmp_path / "analyze.json")
        assert main(["gen", "--family", "random_connected", "--n", "40", "--seed", "7", "-o", graph]) == 0
        script = ("import os, sys, cheegerlab.cli; print(*(os.environ[k] for k in %r)); "
                  "sys.exit(cheegerlab.cli.main(['analyze', %r, '-o', %r]))" % (names, graph, report))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [preset or "1"] * 2
        code, out, _ = run_cli(["analyze", graph], capsys)
        assert code == 0
        with open(report) as f:
            assert json.load(f)["spectrum"]["values"] == json.loads(out)["spectrum"]["values"]


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

    @pytest.mark.parametrize(
        "graph, text, command",
        [
            (SIGNED_GRAPH, SIGNED_GRAPH_TEXT, ["analyze"]),
            (SIGNED_GRAPH, SIGNED_GRAPH_TEXT, ["cheeger", "--k", "2", "--signed"]),
            ({"n": 3, "mu": "unit", "edges": [{"u": 0, "v": 1, "w": 2.0}, {"u": 1, "v": 2, "w": 0.5, "sigma": -1}]},
             "n 3 mu unit\n0 1 2.0\n1 2 0.5 -1\n", ["analyze"]),
        ],
        ids=["signed-analyze", "signed-cheeger", "unit-analyze"],
    )
    def test_json_and_edge_list_give_the_same_bytes(self, tmp_path, capsys, graph, text, command):
        paths = tmp_path / "g.json", tmp_path / "g.txt"
        paths[0].write_text(json.dumps(graph))
        paths[1].write_text(text)
        outputs = [run_cli([command[0], str(path), *command[1:]], capsys) for path in paths]
        assert outputs[0][0] == 0 and outputs[0][2] == ""
        assert outputs[0] == outputs[1]


class TestResultKeys:
    """The keys of each result's JSON, in the order written."""

    CERTIFICATE = ["exact", "k", "parts", "signed", "states", "value"]

    def test_analyze(self, gn3_file, capsys):
        code, out, _ = run_cli(["analyze", gn3_file], capsys)
        data = json.loads(out)
        assert code == 0
        assert list(data) == ["classification", "cyclomatic", "degrees", "edge_count", "eta", "kappa",
                              "mu", "n", "signed", "spectrum", "tau", "tau_min"]
        assert list(data["classification"]) == ["bipartition_labels", "component_count", "component_labels",
                                                "is_bipartite", "is_connected", "is_tree"]
        assert list(data["spectrum"]) == ["clusters", "functions", "values"]
        assert list(data["eta"]) == ["eta", "values"]

    def test_perturb(self, gn3_file, capsys):
        code, out, _ = run_cli(["perturb", gn3_file, "--trials", "3"], capsys)
        assert code == 0
        assert list(json.loads(out)) == ["eps", "fraction_simple", "fraction_zero_free", "gap_tol", "seed",
                                         "trials", "worst_entry", "worst_gap", "zero_tol"]

    def test_cheeger(self, gn3_file, capsys):
        code, out, _ = run_cli(["cheeger", gn3_file, "--k", "2", "--sweep-from-eig", "2"], capsys)
        data = json.loads(out)
        assert code == 0
        assert list(data) == ["budget_exceeded", "certificate", "sweep"]
        assert list(data["certificate"]) == self.CERTIFICATE
        assert list(data["sweep"]) == ["bound", "certificate", "m"]
        assert list(data["sweep"]["certificate"]) == self.CERTIFICATE

    @pytest.mark.parametrize(
        "edges, classification",
        [
            ([(i, (i + 1) % 6) for i in range(6)],
             '{"bipartition_labels": [0, 1, 0, 1, 0, 1], "component_count": 1, '
             '"component_labels": [0, 0, 0, 0, 0, 0], "is_bipartite": true, "is_connected": true, '
             '"is_tree": false}'),
            ([(i, (i + 1) % 5) for i in range(5)],
             '{"bipartition_labels": null, "component_count": 1, "component_labels": [0, 0, 0, 0, 0], '
             '"is_bipartite": false, "is_connected": true, "is_tree": false}'),
            # C4 on the even vertices and C3 on the odd ones.
            ([(0, 2), (2, 4), (4, 6), (0, 6), (1, 3), (3, 5), (1, 5)],
             '{"bipartition_labels": null, "component_count": 2, "component_labels": [0, 1, 0, 1, 0, 1, 0], '
             '"is_bipartite": false, "is_connected": false, "is_tree": false}'),
        ],
        ids=["C6", "C5", "C4+C3"],
    )
    def test_classification_bytes(self, tmp_path, capsys, edges, classification):
        path = tmp_path / "g.json"
        n = 1 + max(v for e in edges for v in e)
        path.write_text(json.dumps({"n": n, "mu": "unit", "edges": [{"u": u, "v": v, "w": 1} for u, v in edges]}))
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == 0
        assert out.startswith(f'{{"classification": {classification}, "cyclomatic": ')


class TestDumps:
    """Every subcommand writes its JSON as json.dumps(obj, sort_keys=True):
    one compact line of strict JSON with sorted keys, then a newline.  The
    writer does not sort: every dict is built in key order, and these cases
    reach every kind of dict the subcommands write."""

    FIVE_CHECKS = {"families": ["random_connected"], "sizes": [6], "count": 2, "checks": list(CHECK_NAMES)}

    @pytest.mark.parametrize(
        "args, marker",
        [
            (["analyze", "GRAPH"], '"tau": '),
            (["cheeger", "GRAPH", "--k", "2", "--sweep-from-eig", "2"], '"sweep": '),
            (["verify", "GRAPH", "--checks", ",".join(CHECK_NAMES)], '"holds": true'),
            # A record skipped on hypothesis grounds has null sides.
            (["verify", "NEG_KAPPA", "--checks", "main"], '"lhs": null'),
            (["perturb", "GRAPH", "--trials", "3"], '"fraction_simple": '),
            (["gen", "--family", "cycle", "--n", "4"], '"sigma": 1'),
            (["verify", "--corpus", json.dumps(FIVE_CHECKS)], '"name": "nodal_cheeger"'),
            (["verify", "--corpus", json.dumps({**FIVE_CHECKS, "signed": True})], '"name": "main_signed"'),
            (["cheeger", "SIGNED", "--k", "2"], '"signed": true'),
            (["verify", "P3", "--checks", "product", "--with-graph", "K2", "--product-k", "2"], '"k_factor": 2'),
            # path-n19's profile is beyond the work policy: an error, exit 1.
            (["verify", "--corpus", '{"families": ["path"], "sizes": [5, 19], "checks": ["main"]}'],
             '"errors": [["path-n19", "main: '),
            # Five-check corpora at n = 10..12: the packing DP reads the held
            # plan up to n = 11 and builds its blocks per call at n = 12.
            (["verify", "--corpus", json.dumps({**FIVE_CHECKS, "sizes": [10], "count": 3})], '"name": "nodal_cheeger"'),
            (["verify", "--corpus", json.dumps({**FIVE_CHECKS, "sizes": [11], "count": 3})], '"name": "nodal_cheeger"'),
            (["verify", "--corpus", json.dumps({**FIVE_CHECKS, "sizes": [12], "count": 3})], '"name": "nodal_cheeger"'),
        ],
    )
    def test_one_compact_sorted_line(self, args, marker, gn3_file, tmp_path, capsys):
        neg = tmp_path / "neg.json"
        neg.write_text(json.dumps({"n": 2, "edges": [{"u": 0, "v": 1, "w": 1}], "kappa": [-1, 0]}))
        p3 = tmp_path / "p3.json"
        assert main(["gen", "--family", "path", "--n", "3", "--mu", "unit", "-o", str(p3)]) == 0
        k2 = tmp_path / "k2.json"
        k2.write_text(json.dumps({"n": 2, "edges": [{"u": 0, "v": 1, "w": 0.1}], "mu": [1, 1]}))
        signed = tmp_path / "signed.json"
        signed.write_text(json.dumps(SIGNED_GRAPH))
        files = {"GRAPH": gn3_file, "NEG_KAPPA": str(neg), "P3": str(p3), "K2": str(k2), "SIGNED": str(signed)}
        args = [files.get(a, a) for a in args]
        want = 1 if marker.startswith('"errors": [[') else 0
        code, out, _ = run_cli(args, capsys)
        assert code == want
        assert marker in out
        assert out == json.dumps(strict_json(out), sort_keys=True) + "\n"
        path = tmp_path / "out.json"
        assert main(args + ["-o", str(path)]) == want
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("bad", [object(), np.int64(3)])
    def test_rejects_what_reports_never_hold(self, bad, monkeypatch, capsys):
        monkeypatch.setattr(cheegerlab.cli, "to_json_dict", lambda g: {"n": bad})
        with pytest.raises(TypeError):
            main(["gen", "--family", "cycle", "--n", "4"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_what_strict_json_cannot_hold(self, bad, monkeypatch, capsys):
        # RFC 8259 has no NaN or infinity: the writer refuses one rather than
        # print a bare `NaN` or `Infinity`, and nothing reaches stdout.
        monkeypatch.setattr(cheegerlab.cli, "to_json_dict", lambda g: {"n": bad})
        code, out, err = run_cli(["gen", "--family", "cycle", "--n", "4"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: Out of range float values are not JSON compliant")
