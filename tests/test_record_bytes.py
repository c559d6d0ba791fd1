"""The exact bytes of the upper-bound records rho_j <= sqrt(2 tau lambda_k).

`verify --corpus` with `--checks main,basics` on a fixed small corpus
(unsigned and signed) and on a signed corpus of the cycle and gn
families, and `verify --checks product` on P3 x K2 (K2's weight 0.05,
unit measure) at eps = 0 print these texts, byte for byte.
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
    '{"holds": null, "instance": "random_connected-001-n4", "k": 0, "lhs": null, "margin": null, "meta": {"skipped": "requires unsigned graph with mu = degree, kappa = 0"}, "name": "eq1_left", "rhs": null}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 1, "lhs": 0.0, "margin": 0.0, "meta": {"certificate": {"exact": true, "k": 1, "parts": [[0, 1, 3], [2]], "signed": true, "states": 108, "value": 0.0}, "ell": 0, "j": 1, "lambda_k": 0.0, "tau": 1.0}, "name": "main_signed", "rhs": 0.0}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 2, "lhs": 0.3409573892078349, "margin": 0.6544329400864173, "meta": {"certificate": {"exact": true, "k": 2, "parts": [[0, 1], [], [2], [3]], "signed": true, "states": 108, "value": 0.3409573892078349}, "ell": 0, "j": 2, "lambda_k": 0.49540095382625987, "tau": 1.0}, "name": "main_signed", "rhs": 0.9953903292942522}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 3, "lhs": 1.0, "margin": 0.7347040359518047, "meta": {"certificate": {"exact": true, "k": 3, "parts": [[1], [], [2], [], [3], []], "signed": true, "states": 108, "value": 1.0}, "ell": 0, "j": 3, "lambda_k": 1.5045990461737402, "tau": 1.0}, "name": "main_signed", "rhs": 1.7347040359518047}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 4, "lhs": 1.0, "margin": 1.0000000000000004, "meta": {"certificate": {"exact": true, "k": 4, "parts": [[0], [], [1], [], [2], [], [3], []], "signed": true, "states": 108, "value": 1.0}, "ell": 0, "j": 4, "lambda_k": 2.0000000000000013, "tau": 1.0}, "name": "main_signed", "rhs": 2.0000000000000004}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 1, "lhs": 0.0, "margin": 0.3409573892078349, "meta": {}, "name": "monotonic_signed", "rhs": 0.3409573892078349}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 2, "lhs": 0.3409573892078349, "margin": 0.6590426107921651, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "random_connected-001-n4", "k": 3, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}], "summary": {"errors": 0, "holds": 18, "records": 19, "skipped": 1, "violations": 0}}\n'
)

# A signed corpus of deterministic families: each instance's signature is
# drawn from the corpus seed and the instance counter.
_SIGNED_DETERMINISTIC_CONFIG = {
    "families": ["cycle", "gn"], "sizes": [4, 5], "signed": True, "checks": ["main", "basics"]
}

_SIGNED_DETERMINISTIC_CORPUS = (
    '{"errors": [], "records": ['
    '{"holds": null, "instance": "cycle-n4", "k": 0, "lhs": null, "margin": null, "meta": {"skipped": "requires unsigned graph with mu = degree, kappa = 0"}, "name": "eq1_left", "rhs": null}, '
    '{"holds": true, "instance": "cycle-n4", "k": 2, "lhs": 0.25, "margin": 0.5153668647301795, "meta": {"certificate": {"exact": true, "k": 1, "parts": [[0, 2, 3], [1]], "signed": true, "states": 108, "value": 0.25}, "ell": 1, "j": 1, "lambda_k": 0.2928932188134524, "tau": 1.0}, "name": "main_signed", "rhs": 0.7653668647301795}, '
    '{"holds": true, "instance": "cycle-n4", "k": 3, "lhs": 0.5, "margin": 1.3477590650225733, "meta": {"certificate": {"exact": true, "k": 2, "parts": [[0], [3], [1], [2]], "signed": true, "states": 108, "value": 0.5}, "ell": 1, "j": 2, "lambda_k": 1.7071067811865472, "tau": 1.0}, "name": "main_signed", "rhs": 1.8477590650225733}, '
    '{"holds": true, "instance": "cycle-n4", "k": 4, "lhs": 1.0, "margin": 0.8477590650225735, "meta": {"certificate": {"exact": true, "k": 3, "parts": [[1], [], [2], [], [3], []], "signed": true, "states": 108, "value": 1.0}, "ell": 1, "j": 3, "lambda_k": 1.7071067811865475, "tau": 1.0}, "name": "main_signed", "rhs": 1.8477590650225735}, '
    '{"holds": true, "instance": "cycle-n4", "k": 1, "lhs": 0.25, "margin": 0.25, "meta": {}, "name": "monotonic_signed", "rhs": 0.5}, '
    '{"holds": true, "instance": "cycle-n4", "k": 2, "lhs": 0.5, "margin": 0.5, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "cycle-n4", "k": 3, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": null, "instance": "cycle-n5", "k": 0, "lhs": null, "margin": null, "meta": {"skipped": "requires unsigned graph with mu = degree, kappa = 0"}, "name": "eq1_left", "rhs": null}, '
    '{"holds": true, "instance": "cycle-n5", "k": 2, "lhs": 0.0, "margin": 1.1755705045849465, "meta": {"certificate": {"exact": true, "k": 1, "parts": [[0, 1], [2, 3, 4]], "signed": true, "states": 405, "value": 0.0}, "ell": 1, "j": 1, "lambda_k": 0.6909830056250528, "tau": 1.0}, "name": "main_signed", "rhs": 1.1755705045849465}, '
    '{"holds": true, "instance": "cycle-n5", "k": 3, "lhs": 0.5, "margin": 0.6755705045849465, "meta": {"certificate": {"exact": true, "k": 2, "parts": [[1], [2], [3, 4], []], "signed": true, "states": 405, "value": 0.5}, "ell": 1, "j": 2, "lambda_k": 0.6909830056250529, "tau": 1.0}, "name": "main_signed", "rhs": 1.1755705045849465}, '
    '{"holds": true, "instance": "cycle-n5", "k": 4, "lhs": 1.0, "margin": 0.9021130325903077, "meta": {"certificate": {"exact": true, "k": 3, "parts": [[2], [], [3], [], [4], []], "signed": true, "states": 405, "value": 1.0}, "ell": 1, "j": 3, "lambda_k": 1.8090169943749483, "tau": 1.0}, "name": "main_signed", "rhs": 1.9021130325903077}, '
    '{"holds": true, "instance": "cycle-n5", "k": 5, "lhs": 1.0, "margin": 0.902113032590308, "meta": {"certificate": {"exact": true, "k": 4, "parts": [[1], [], [2], [], [3], [], [4], []], "signed": true, "states": 405, "value": 1.0}, "ell": 1, "j": 4, "lambda_k": 1.8090169943749488, "tau": 1.0}, "name": "main_signed", "rhs": 1.902113032590308}, '
    '{"holds": true, "instance": "cycle-n5", "k": 1, "lhs": 0.0, "margin": 0.5, "meta": {}, "name": "monotonic_signed", "rhs": 0.5}, '
    '{"holds": true, "instance": "cycle-n5", "k": 2, "lhs": 0.5, "margin": 0.5, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "cycle-n5", "k": 3, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "cycle-n5", "k": 4, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": null, "instance": "gn-n4", "k": 0, "lhs": null, "margin": null, "meta": {"skipped": "requires unsigned graph with mu = degree, kappa = 0"}, "name": "eq1_left", "rhs": null}, '
    '{"holds": true, "instance": "gn-n4", "k": 2, "lhs": 0.08863676653075694, "margin": 0.28498419683441867, "meta": {"certificate": {"exact": true, "k": 1, "parts": [[0, 4, 5, 6, 7, 8, 9], [1, 2, 3]], "signed": true, "states": 196830, "value": 0.08863676653075694}, "ell": 1, "j": 1, "lambda_k": 0.06979631213296095, "tau": 1.0}, "name": "main_signed", "rhs": 0.3736209633651756}, '
    '{"holds": true, "instance": "gn-n4", "k": 3, "lhs": 0.2128572733083737, "margin": 0.6975932030452665, "meta": {"certificate": {"exact": true, "k": 2, "parts": [[0, 8], [5, 6, 7], [1, 2, 3], [4, 9]], "signed": true, "states": 196830, "value": 0.2128572733083737}, "ell": 1, "j": 2, "lambda_k": 0.41446003494628514, "tau": 1.0}, "name": "main_signed", "rhs": 0.9104504763536402}, '
    '{"holds": true, "instance": "gn-n4", "k": 4, "lhs": 0.34426229508196726, "margin": 0.6561099455449783, "meta": {"certificate": {"exact": true, "k": 3, "parts": [[0, 8], [7], [1, 2, 3], [], [4, 5, 6, 9], []], "signed": true, "states": 196830, "value": 0.34426229508196726}, "ell": 1, "j": 3, "lambda_k": 0.5003723099084877, "tau": 1.0}, "name": "main_signed", "rhs": 1.0003722406269455}, '
    '{"holds": true, "instance": "gn-n4", "k": 5, "lhs": 0.5011337868480725, "margin": 0.8368247070208314, "meta": {"certificate": {"exact": true, "k": 4, "parts": [[0, 8], [7], [1, 2], [], [3], [4, 9], [5, 6], []], "signed": true, "states": 196830, "value": 0.5011337868480725}, "ell": 1, "j": 4, "lambda_k": 0.8950664656579731, "tau": 1.0}, "name": "main_signed", "rhs": 1.337958493868904}, '
    '{"holds": true, "instance": "gn-n4", "k": 6, "lhs": 0.5709995709995711, "margin": 0.9571752128906047, "meta": {"certificate": {"exact": true, "k": 5, "parts": [[0], [1], [2, 3], [], [4, 9], [], [5, 6], [], [7], [8]], "signed": true, "states": 196830, "value": 0.5709995709995711}, "ell": 1, "j": 5, "lambda_k": 1.1676590850588928, "tau": 1.0}, "name": "main_signed", "rhs": 1.5281747838901758}, '
    '{"holds": true, "instance": "gn-n4", "k": 7, "lhs": 1.0, "margin": 0.6392894790026449, "meta": {"certificate": {"exact": true, "k": 6, "parts": [[4], [], [5], [], [6], [], [7], [], [8], [], [9], []], "signed": true, "states": 196830, "value": 1.0}, "ell": 1, "j": 6, "lambda_k": 1.3436349979843814, "tau": 1.0}, "name": "main_signed", "rhs": 1.6392894790026449}, '
    '{"holds": true, "instance": "gn-n4", "k": 8, "lhs": 1.0, "margin": 0.877323782888644, "meta": {"certificate": {"exact": true, "k": 7, "parts": [[3], [], [4], [], [5], [], [6], [], [7], [], [8], [], [9], []], "signed": true, "states": 196830, "value": 1.0}, "ell": 1, "j": 7, "lambda_k": 1.7621722928996641, "tau": 1.0}, "name": "main_signed", "rhs": 1.877323782888644}, '
    '{"holds": true, "instance": "gn-n4", "k": 9, "lhs": 1.0, "margin": 0.8990378123913683, "meta": {"certificate": {"exact": true, "k": 8, "parts": [[2], [], [3], [], [4], [], [5], [], [6], [], [7], [], [8], [], [9], []], "signed": true, "states": 196830, "value": 1.0}, "ell": 1, "j": 8, "lambda_k": 1.803172306446097, "tau": 1.0}, "name": "main_signed", "rhs": 1.8990378123913683}, '
    '{"holds": true, "instance": "gn-n4", "k": 10, "lhs": 1.0, "margin": 1.0000000000000013, "meta": {"certificate": {"exact": true, "k": 9, "parts": [[1], [], [2], [], [3], [], [4], [], [5], [], [6], [], [7], [], [8], [], [9], []], "signed": true, "states": 196830, "value": 1.0}, "ell": 1, "j": 9, "lambda_k": 2.0000000000000027, "tau": 1.0}, "name": "main_signed", "rhs": 2.0000000000000013}, '
    '{"holds": true, "instance": "gn-n4", "k": 1, "lhs": 0.08863676653075694, "margin": 0.12422050677761676, "meta": {}, "name": "monotonic_signed", "rhs": 0.2128572733083737}, '
    '{"holds": true, "instance": "gn-n4", "k": 2, "lhs": 0.2128572733083737, "margin": 0.13140502177359356, "meta": {}, "name": "monotonic_signed", "rhs": 0.34426229508196726}, '
    '{"holds": true, "instance": "gn-n4", "k": 3, "lhs": 0.34426229508196726, "margin": 0.15687149176610526, "meta": {}, "name": "monotonic_signed", "rhs": 0.5011337868480725}, '
    '{"holds": true, "instance": "gn-n4", "k": 4, "lhs": 0.5011337868480725, "margin": 0.06986578415149858, "meta": {}, "name": "monotonic_signed", "rhs": 0.5709995709995711}, '
    '{"holds": true, "instance": "gn-n4", "k": 5, "lhs": 0.5709995709995711, "margin": 0.4290004290004289, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "gn-n4", "k": 6, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "gn-n4", "k": 7, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "gn-n4", "k": 8, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "gn-n4", "k": 9, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": null, "instance": "gn-n5", "k": 0, "lhs": null, "margin": null, "meta": {"skipped": "requires unsigned graph with mu = degree, kappa = 0"}, "name": "eq1_left", "rhs": null}, '
    '{"holds": true, "instance": "gn-n5", "k": 2, "lhs": 0.0, "margin": 0.5292400707373371, "meta": {"certificate": {"exact": true, "k": 1, "parts": [[0, 1, 3], [2, 4, 5, 6, 7, 8, 9, 10, 11]], "signed": true, "states": 2125764, "value": 0.0}, "ell": 1, "j": 1, "lambda_k": 0.1400475262370308, "tau": 1.0}, "name": "main_signed", "rhs": 0.5292400707373371}, '
    '{"holds": true, "instance": "gn-n5", "k": 3, "lhs": 0.1792581168476877, "margin": 0.3890012733952002, "meta": {"certificate": {"exact": true, "k": 2, "parts": [[0, 1, 3], [2, 4, 10], [5, 6, 7, 8, 9, 11], []], "signed": true, "states": 2125764, "value": 0.1792581168476877}, "ell": 1, "j": 2, "lambda_k": 0.16145936729960936, "tau": 1.0}, "name": "main_signed", "rhs": 0.5682593902428879}, '
    '{"holds": true, "instance": "gn-n5", "k": 4, "lhs": 0.2604178304100101, "margin": 0.7385027995794953, "meta": {"certificate": {"exact": true, "k": 3, "parts": [[0, 1, 3], [2], [4, 5, 6, 11], [], [7, 8, 9, 10], []], "signed": true, "states": 2125764, "value": 0.2604178304100101}, "ell": 1, "j": 3, "lambda_k": 0.4989212125093152, "tau": 1.0}, "name": "main_signed", "rhs": 0.9989206299895054}, '
    '{"holds": true, "instance": "gn-n5", "k": 5, "lhs": 0.36190488521745884, "margin": 0.7239646109411044, "meta": {"certificate": {"exact": true, "k": 4, "parts": [[0], [9, 10], [1, 3], [2], [4, 5, 11], [], [6, 7, 8], []], "signed": true, "states": 2125764, "value": 0.36190488521745884}, "ell": 1, "j": 4, "lambda_k": 0.589556281343826, "tau": 1.0}, "name": "main_signed", "rhs": 1.0858694961585633}, '
    '{"holds": true, "instance": "gn-n5", "k": 6, "lhs": 0.5011337868480726, "margin": 0.8443864658900323, "meta": {"certificate": {"exact": true, "k": 5, "parts": [[0], [9, 10], [1], [2], [3], [4], [5, 6, 11], [], [7, 8], []], "signed": true, "states": 2125764, "value": 0.5011337868480726}, "ell": 1, "j": 5, "lambda_k": 0.905212375264207, "tau": 1.0}, "name": "main_signed", "rhs": 1.345520252738105}, '
    '{"holds": true, "instance": "gn-n5", "k": 7, "lhs": 0.594172314435291, "margin": 0.9195809803256586, "meta": {"certificate": {"exact": true, "k": 6, "parts": [[0], [10], [1], [2], [3], [4], [5, 11], [], [6, 7], [], [8, 9], []], "signed": true, "states": 2125764, "value": 0.594172314435291}, "ell": 1, "j": 6, "lambda_k": 1.145724518699815, "tau": 1.0}, "name": "main_signed", "rhs": 1.5137532947609496}, '
    '{"holds": true, "instance": "gn-n5", "k": 8, "lhs": 1.0, "margin": 0.6034452892652293, "meta": {"certificate": {"exact": true, "k": 7, "parts": [[5], [], [6], [], [7], [], [8], [], [9], [], [10], [], [11], []], "signed": true, "states": 2125764, "value": 1.0}, "ell": 1, "j": 7, "lambda_k": 1.2855183978334275, "tau": 1.0}, "name": "main_signed", "rhs": 1.6034452892652293}, '
    '{"holds": true, "instance": "gn-n5", "k": 9, "lhs": 1.0, "margin": 0.8177462209036339, "meta": {"certificate": {"exact": true, "k": 8, "parts": [[4], [], [5], [], [6], [], [7], [], [8], [], [9], [], [10], [], [11], []], "signed": true, "states": 2125764, "value": 1.0}, "ell": 1, "j": 8, "lambda_k": 1.6521006618047211, "tau": 1.0}, "name": "main_signed", "rhs": 1.817746220903634}, '
    '{"holds": true, "instance": "gn-n5", "k": 10, "lhs": 1.0, "margin": 0.8436398752419685, "meta": {"certificate": {"exact": true, "k": 9, "parts": [[3], [], [4], [], [5], [], [6], [], [7], [], [8], [], [9], [], [10], [], [11], []], "signed": true, "states": 2125764, "value": 1.0}, "ell": 1, "j": 9, "lambda_k": 1.6995039947911106, "tau": 1.0}, "name": "main_signed", "rhs": 1.8436398752419685}, '
    '{"holds": true, "instance": "gn-n5", "k": 11, "lhs": 1.0, "margin": 0.9754286475861575, "meta": {"certificate": {"exact": true, "k": 10, "parts": [[2], [], [3], [], [4], [], [5], [], [6], [], [7], [], [8], [], [9], [], [10], [], [11], []], "signed": true, "states": 2125764, "value": 1.0}, "ell": 1, "j": 10, "lambda_k": 1.9511591708520377, "tau": 1.0}, "name": "main_signed", "rhs": 1.9754286475861575}, '
    '{"holds": true, "instance": "gn-n5", "k": 12, "lhs": 1.0, "margin": 0.9853445511371159, "meta": {"certificate": {"exact": true, "k": 11, "parts": [[1], [], [2], [], [3], [], [4], [], [5], [], [6], [], [7], [], [8], [], [9], [], [10], [], [11], []], "signed": true, "states": 2125764, "value": 1.0}, "ell": 1, "j": 11, "lambda_k": 1.970796493364918, "tau": 1.0}, "name": "main_signed", "rhs": 1.985344551137116}, '
    '{"holds": true, "instance": "gn-n5", "k": 1, "lhs": 0.0, "margin": 0.1792581168476877, "meta": {}, "name": "monotonic_signed", "rhs": 0.1792581168476877}, '
    '{"holds": true, "instance": "gn-n5", "k": 2, "lhs": 0.1792581168476877, "margin": 0.0811597135623224, "meta": {}, "name": "monotonic_signed", "rhs": 0.2604178304100101}, '
    '{"holds": true, "instance": "gn-n5", "k": 3, "lhs": 0.2604178304100101, "margin": 0.10148705480744874, "meta": {}, "name": "monotonic_signed", "rhs": 0.36190488521745884}, '
    '{"holds": true, "instance": "gn-n5", "k": 4, "lhs": 0.36190488521745884, "margin": 0.1392289016306138, "meta": {}, "name": "monotonic_signed", "rhs": 0.5011337868480726}, '
    '{"holds": true, "instance": "gn-n5", "k": 5, "lhs": 0.5011337868480726, "margin": 0.09303852758721831, "meta": {}, "name": "monotonic_signed", "rhs": 0.594172314435291}, '
    '{"holds": true, "instance": "gn-n5", "k": 6, "lhs": 0.594172314435291, "margin": 0.40582768556470905, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "gn-n5", "k": 7, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "gn-n5", "k": 8, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "gn-n5", "k": 9, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "gn-n5", "k": 10, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}, '
    '{"holds": true, "instance": "gn-n5", "k": 11, "lhs": 1.0, "margin": 0.0, "meta": {}, "name": "monotonic_signed", "rhs": 1.0}], "summary": {"errors": 0, "holds": 54, "records": 58, "skipped": 4, "violations": 0}}\n'
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


def test_signed_deterministic_corpus_bytes(capsys):
    corpus = json.dumps(_SIGNED_DETERMINISTIC_CONFIG)
    code, out = run_cli(["verify", "--corpus", corpus], capsys)
    assert code == 0
    assert out == _SIGNED_DETERMINISTIC_CORPUS


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
