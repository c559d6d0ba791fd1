"""The exact bytes of the upper-bound records rho_j <= sqrt(2 tau lambda_k).

`verify --corpus` with `--checks main,basics` on a fixed small corpus
(unsigned and signed) and `verify --checks product` on P3 x K2 (K2's
weight 0.05, unit measure) at eps = 0 print these texts, byte for byte.
Every value in them is a Jacobi eigenvalue or an exact optimum, neither of
which reads BLAS, so the bytes are the same on every build; a change to
how a record is built, or to its meta's key order, shows here.
"""

import json

import pytest

from cheegerlab.cli import main

_CORPUS = {"families": ["random_connected"], "sizes": [4, 5], "count": 2, "seed": 11}

_CORPUS_MAIN_BASICS = (
    '{"errors": [], "records": ['
    '{"holds": true, "instance": "random_connected-000-n4", "k": 2, "lhs": 0.6367480262120995, "margin": 0.6747725692512361, "meta": {"lambda_2": 0.860043136162251}, "name": "cheeger_upper", "rhs": 1.3115205954633355}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 1, "lhs": 2.3482994365581955e-18, "margin": -2.3482994365581955e-18, "meta": {"lambda_k": 4.696598873116391e-18}, "name": "eq1_left", "rhs": 0.0}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 2, "lhs": 0.4300215680811255, "margin": 0.20672645813097396, "meta": {"lambda_k": 0.860043136162251}, "name": "eq1_left", "rhs": 0.6367480262120995}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 3, "lhs": 0.7191383988248917, "margin": 0.2808616011751083, "meta": {"lambda_k": 1.4382767976497834}, "name": "eq1_left", "rhs": 1.0}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 4, "lhs": 0.8508400330939836, "margin": 0.1491599669060164, "meta": {"lambda_k": 1.7016800661879672}, "name": "eq1_left", "rhs": 1.0}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 2, "lhs": 0.0, "margin": 1.3115205954633355, "meta": {"certificate": {"exact": true, "k": 1, "parts": [[0, 1, 2, 3]], "signed": false, "states": 108, "value": 0.0}, "ell": 1, "j": 1, "lambda_k": 0.860043136162251, "tau": 1.0}, "name": "main", "rhs": 1.3115205954633355}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 3, "lhs": 0.6367480262120995, "margin": 1.0592925379547977, "meta": {"certificate": {"exact": true, "k": 2, "parts": [[0, 1], [2, 3]], "signed": false, "states": 108, "value": 0.6367480262120995}, "ell": 1, "j": 2, "lambda_k": 1.4382767976497834, "tau": 1.0}, "name": "main", "rhs": 1.6960405641668972}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 4, "lhs": 1.0, "margin": 0.8448198102730615, "meta": {"certificate": {"exact": true, "k": 3, "parts": [[1], [2], [3]], "signed": false, "states": 108, "value": 1.0}, "ell": 1, "j": 3, "lambda_k": 1.7016800661879672, "tau": 1.0}, "name": "main", "rhs": 1.8448198102730615}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 1, "lhs": 0.0, "margin": 0.6367480262120995, "meta": {}, "name": "monotonic", "rhs": 0.6367480262120995}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 2, "lhs": 0.6367480262120995, "margin": 0.36325197378790053, "meta": {}, "name": "monotonic", "rhs": 1.0}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 3, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic", "rhs": 1.0}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 2, "lhs": 0.3409573892078349, "margin": 0.6544329400864173, "meta": {"lambda_2": 0.49540095382625987}, "name": "cheeger_upper", "rhs": 0.9953903292942522}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 1, "lhs": 0.0, "margin": 0.0, "meta": {"lambda_k": 0.0}, "name": "eq1_left", "rhs": 0.0}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 2, "lhs": 0.24770047691312994, "margin": 0.09325691229470498, "meta": {"lambda_k": 0.49540095382625987}, "name": "eq1_left", "rhs": 0.3409573892078349}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 3, "lhs": 0.7522995230868701, "margin": 0.2477004769131299, "meta": {"lambda_k": 1.5045990461737402}, "name": "eq1_left", "rhs": 1.0}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 4, "lhs": 1.0000000000000007, "margin": -6.661338147750939e-16, "meta": {"lambda_k": 2.0000000000000013}, "name": "eq1_left", "rhs": 1.0}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 1, "lhs": 0.0, "margin": 0.0, "meta": {"certificate": {"exact": true, "k": 1, "parts": [[0, 1, 2, 3]], "signed": false, "states": 108, "value": 0.0}, "ell": 0, "j": 1, "lambda_k": 0.0, "tau": 1.0}, "name": "main", "rhs": 0.0}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 2, "lhs": 0.3409573892078349, "margin": 0.6544329400864173, "meta": {"certificate": {"exact": true, "k": 2, "parts": [[0, 1], [2, 3]], "signed": false, "states": 108, "value": 0.3409573892078349}, "ell": 0, "j": 2, "lambda_k": 0.49540095382625987, "tau": 1.0}, "name": "main", "rhs": 0.9953903292942522}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 3, "lhs": 1.0, "margin": 0.7347040359518047, "meta": {"certificate": {"exact": true, "k": 3, "parts": [[1], [2], [3]], "signed": false, "states": 108, "value": 1.0}, "ell": 0, "j": 3, "lambda_k": 1.5045990461737402, "tau": 1.0}, "name": "main", "rhs": 1.7347040359518047}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 4, "lhs": 1.0, "margin": 1.0000000000000004, "meta": {"certificate": {"exact": true, "k": 4, "parts": [[0], [1], [2], [3]], "signed": false, "states": 108, "value": 1.0}, "ell": 0, "j": 4, "lambda_k": 2.0000000000000013, "tau": 1.0}, "name": "main", "rhs": 2.0000000000000004}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 1, "lhs": 0.0, "margin": 0.3409573892078349, "meta": {}, "name": "monotonic", "rhs": 0.3409573892078349}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 2, "lhs": 0.3409573892078349, "margin": 0.6590426107921651, "meta": {}, "name": "monotonic", "rhs": 1.0}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 3, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic", "rhs": 1.0}], "summary": {"errors": 0, "holds": 23, "records": 23, "skipped": 0, "violations": 0}}\n'
)

_CORPUS_MAIN_BASICS_SIGNED = (
    '{"errors": [], "records": ['
    '{"holds": true, "instance": "random_connected-000-n4", "k": 2, "lhs": 0.6367480262120995, "margin": 0.6747725692512361, "meta": {"lambda_2": 0.860043136162251}, "name": "cheeger_upper", "rhs": 1.3115205954633355}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 1, "lhs": 2.3482994365581955e-18, "margin": -2.3482994365581955e-18, "meta": {"lambda_k": 4.696598873116391e-18}, "name": "eq1_left", "rhs": 0.0}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 2, "lhs": 0.4300215680811255, "margin": 0.20672645813097396, "meta": {"lambda_k": 0.860043136162251}, "name": "eq1_left", "rhs": 0.6367480262120995}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 3, "lhs": 0.7191383988248917, "margin": 0.2808616011751083, "meta": {"lambda_k": 1.4382767976497834}, "name": "eq1_left", "rhs": 1.0}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 4, "lhs": 0.8508400330939836, "margin": 0.1491599669060164, "meta": {"lambda_k": 1.7016800661879672}, "name": "eq1_left", "rhs": 1.0}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 2, "lhs": 0.0, "margin": 1.3115205954633355, "meta": {"certificate": {"exact": true, "k": 1, "parts": [[0, 1, 2, 3]], "signed": false, "states": 108, "value": 0.0}, "ell": 1, "j": 1, "lambda_k": 0.860043136162251, "tau": 1.0}, "name": "main", "rhs": 1.3115205954633355}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 3, "lhs": 0.6367480262120995, "margin": 1.0592925379547977, "meta": {"certificate": {"exact": true, "k": 2, "parts": [[0, 1], [2, 3]], "signed": false, "states": 108, "value": 0.6367480262120995}, "ell": 1, "j": 2, "lambda_k": 1.4382767976497834, "tau": 1.0}, "name": "main", "rhs": 1.6960405641668972}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 4, "lhs": 1.0, "margin": 0.8448198102730615, "meta": {"certificate": {"exact": true, "k": 3, "parts": [[1], [2], [3]], "signed": false, "states": 108, "value": 1.0}, "ell": 1, "j": 3, "lambda_k": 1.7016800661879672, "tau": 1.0}, "name": "main", "rhs": 1.8448198102730615}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 1, "lhs": 0.0, "margin": 0.6367480262120995, "meta": {}, "name": "monotonic", "rhs": 0.6367480262120995}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 2, "lhs": 0.6367480262120995, "margin": 0.36325197378790053, "meta": {}, "name": "monotonic", "rhs": 1.0}, '
    '{"holds": true, "instance": "random_connected-000-n4", "k": 3, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic", "rhs": 1.0}, '
    '{"holds": null, "instance": "random_connected-001-n4", "k": 0, "lhs": NaN, "margin": NaN, "meta": {"skipped": "requires unsigned graph with mu = degree, kappa = 0"}, "name": "eq1_left", "rhs": NaN}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 1, "lhs": 0.0, "margin": 0.0, "meta": {"certificate": {"exact": true, "k": 1, "parts": [[0, 1, 3], [2]], "signed": true, "states": 108, "value": 0.0}, "ell": 0, "j": 1, "lambda_k": 0.0, "tau": 1.0}, "name": "main_signed", "rhs": 0.0}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 2, "lhs": 0.3409573892078349, "margin": 0.6544329400864173, "meta": {"certificate": {"exact": true, "k": 2, "parts": [[0, 1], [], [2], [3]], "signed": true, "states": 108, "value": 0.3409573892078349}, "ell": 0, "j": 2, "lambda_k": 0.49540095382625987, "tau": 1.0}, "name": "main_signed", "rhs": 0.9953903292942522}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 3, "lhs": 1.0, "margin": 0.7347040359518047, "meta": {"certificate": {"exact": true, "k": 3, "parts": [[1], [], [2], [], [3], []], "signed": true, "states": 108, "value": 1.0}, "ell": 0, "j": 3, "lambda_k": 1.5045990461737402, "tau": 1.0}, "name": "main_signed", "rhs": 1.7347040359518047}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 4, "lhs": 1.0, "margin": 1.0000000000000004, "meta": {"certificate": {"exact": true, "k": 4, "parts": [[0], [], [1], [], [2], [], [3], []], "signed": true, "states": 108, "value": 1.0}, "ell": 0, "j": 4, "lambda_k": 2.0000000000000013, "tau": 1.0}, "name": "main_signed", "rhs": 2.0000000000000004}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 1, "lhs": 0.0, "margin": 0.3409573892078349, "meta": {}, "name": "monotonic_signed", "rhs": 0.3409573892078349}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 2, "lhs": 0.3409573892078349, "margin": 0.6590426107921651, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 3, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}], "summary": {"errors": 0, "holds": 18, "records": 19, "skipped": 1, "violations": 0}}\n'
)

_PRODUCT_K1 = (
    '{"errors": [], "records": ['
    '{"holds": true, "instance": "graph", "k": 2, "lhs": 0.05000000000000001, "margin": 0.5903124237432849, "meta": {"certificate": {"exact": true, "k": 2, "parts": [[0, 2, 4], [1, 3, 5]], "signed": false, "states": 1458, "value": 0.05000000000000001}, "eigensum_error": 2.7755575615628914e-17, "eps": 0.0, "gap": 0.9999999999999991, "k_factor": 1, "lambda2_max": 0.09999999999999999, "lambda_index": 0.10000000000000002, "n2": 2, "tau": 2.05}, "name": "product", "rhs": 0.6403124237432849}], "summary": {"errors": 0, "holds": 1, "records": 1, "skipped": 0, "violations": 0}}\n'
)

_PRODUCT_K2 = (
    '{"errors": [], "records": ['
    '{"holds": true, "instance": "graph", "k": 4, "lhs": 1.05, "margin": 1.073676058159531, "meta": {"certificate": {"exact": true, "k": 4, "parts": [[0, 2, 3], [1], [4], [5]], "signed": false, "states": 1458, "value": 1.05}, "eigensum_error": 1.7763568394002505e-15, "eps": 0.0, "gap": 2.0000000000000004, "k_factor": 2, "lambda2_max": 0.09999999999999999, "lambda_index": 1.100000000000001, "n2": 2, "tau": 2.05}, "name": "product", "rhs": 2.123676058159531}], "summary": {"errors": 0, "holds": 1, "records": 1, "skipped": 0, "violations": 0}}\n'
)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out


@pytest.mark.parametrize("signed", [False, True])
def test_corpus_main_basics_bytes(capsys, signed):
    corpus = json.dumps({**_CORPUS, "signed": True} if signed else _CORPUS)
    code, out = run_cli(["verify", "--corpus", corpus, "--checks", "main,basics"], capsys)
    assert code == 0
    assert out == "".join(_CORPUS_MAIN_BASICS_SIGNED if signed else _CORPUS_MAIN_BASICS)


@pytest.mark.parametrize("k", [1, 2])
def test_product_bytes(tmp_path, capsys, k):
    p3 = tmp_path / "p3.json"
    assert main(["gen", "--family", "path", "--n", "3", "--mu", "unit", "-o", str(p3)]) == 0
    k2 = tmp_path / "k2.json"
    k2.write_text('{"n": 2, "mu": [1, 1], "edges": [{"u": 0, "v": 1, "w": 0.05}]}')
    args = ["verify", str(p3), "--checks", "product", "--with-graph", str(k2), "--product-k", str(k), "--eps", "0"]
    code, out = run_cli(args, capsys)
    assert code == 0
    assert out == "".join(_PRODUCT_K1 if k == 1 else _PRODUCT_K2)
