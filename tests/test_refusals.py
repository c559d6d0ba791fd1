"""Each refusal of the library, by its exception type and exact text.

A check whose hypotheses fail raises HypothesisViolation (a skipped record
when run through `run_checks_on_graph`); a request outside a function's
domain raises ValueError, or its subclass InvalidGraphError /
GraphFormatError for a graph that breaks an invariant or a file that does
not parse.
"""

import numpy as np
import pytest

from cheegerlab import (
    WeightedGraph,
    conductance,
    generate,
    load_graph,
    rho_exact,
    rho_profile,
    rho_signed_profile,
    rho_upper_nodal_sweep,
    strong_nodal,
    with_random_signature,
)
from cheegerlab.bounds import (
    HypothesisViolation,
    check_lemma_nodal_cheeger,
    check_nodal_count_bounds,
    check_product_theorem,
    run_checks_on_graph,
)
from cheegerlab.graph import Edge, GraphFormatError, InvalidGraphError
from cheegerlab.spectral import eig_sym


def p3():
    return generate("path", 3, mu="unit")


def k2():
    return WeightedGraph.build(2, [(0, 1, 0.05)], mu="unit")


def signed_c4():
    return with_random_signature(generate("cycle", 4), 3)


REFUSALS = {
    "nodal count on a disconnected graph": (
        lambda: check_nodal_count_bounds(WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)]), 0.05, 1),
        HypothesisViolation,
        "requires a connected graph",
    ),
    "nodal-cheeger lemma with kappa < 0": (
        lambda: check_lemma_nodal_cheeger(
            WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1)], kappa=[-1, 0, 0]), 0.0, 1
        ),
        HypothesisViolation,
        "requires kappa >= 0",
    ),
    "product with a signed factor 1": (
        lambda: check_product_theorem(
            WeightedGraph.build(3, [(0, 1, 1, -1), (1, 2, 1)], mu="unit"), k2(), 1
        ),
        HypothesisViolation,
        "factor 1 must be unsigned",
    ),
    "product with a signed factor 2": (
        lambda: check_product_theorem(p3(), WeightedGraph.build(2, [(0, 1, 0.05, -1)], mu="unit"), 1),
        HypothesisViolation,
        "factor 2 must be unsigned",
    ),
    "product with a kappa < 0 factor 1": (
        lambda: check_product_theorem(
            WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1)], mu="unit", kappa=[0, -1, 0]), k2(), 1
        ),
        HypothesisViolation,
        "factor 1 needs kappa >= 0",
    ),
    "product with a kappa < 0 factor 2": (
        lambda: check_product_theorem(
            p3(), WeightedGraph.build(2, [(0, 1, 1)], mu="unit", kappa=[0, -1]), 1
        ),
        HypothesisViolation,
        "factor 2 needs kappa >= 0",
    ),
    "product at k = 0": (
        lambda: check_product_theorem(p3(), k2(), 0),
        HypothesisViolation,
        "k must be in [1, 2]",
    ),
    "product at k = n1": (
        lambda: check_product_theorem(p3(), k2(), 3),
        HypothesisViolation,
        "k must be in [1, 2]",
    ),
    "conductance of a vertex above n - 1": (
        lambda: conductance(p3(), [3]),
        ValueError,
        "vertex 3 out of range",
    ),
    "conductance of a negative vertex": (
        lambda: conductance(p3(), [0, -1]),
        ValueError,
        "vertex -1 out of range",
    ),
    "rho_exact on a signed graph at k = 0": (
        lambda: rho_exact(signed_c4(), 0),
        ValueError,
        "k must be in [1, 4], got 0",
    ),
    "rho_exact on a signed graph at k = n + 1": (
        lambda: rho_exact(signed_c4(), 5),
        ValueError,
        "k must be in [1, 4], got 5",
    ),
    "rho_profile at kmax = 0": (
        lambda: rho_profile(p3(), 0),
        ValueError,
        "kmax must be in [1, 3]",
    ),
    "rho_profile at kmax = n + 1": (
        lambda: rho_profile(p3(), 4),
        ValueError,
        "kmax must be in [1, 3]",
    ),
    "rho_signed_profile at kmax = 0": (
        lambda: rho_signed_profile(signed_c4(), 0),
        ValueError,
        "kmax must be in [1, 4]",
    ),
    "rho_signed_profile at kmax = n + 1": (
        lambda: rho_signed_profile(signed_c4(), 5),
        ValueError,
        "kmax must be in [1, 4]",
    ),
    "nodal sweep on a signed graph": (
        lambda: rho_upper_nodal_sweep(signed_c4(), [1.0, -1.0, 1.0, -1.0]),
        ValueError,
        "nodal sweep is defined for unsigned graphs",
    ),
    "graph with no vertex": (
        lambda: WeightedGraph(n=0, edges=(), mu=(), kappa=()),
        InvalidGraphError,
        "invalid graph: vertex count must be positive",
    ),
    "graph with an endpoint >= n": (
        lambda: WeightedGraph(n=2, edges=(Edge(0, 2, 1.0, 1),), mu=(1.0, 1.0), kappa=(0.0, 0.0)),
        InvalidGraphError,
        "invalid graph: edge (0,2) endpoint out of range; isolated vertex 0; isolated vertex 1",
    ),
    "strong nodal domains of a short function": (
        lambda: strong_nodal(p3(), [1.0, -1.0]),
        ValueError,
        "function length must equal vertex count",
    ),
    "Jacobi values of a non-square matrix": (
        lambda: eig_sym(np.zeros((2, 3))),
        ValueError,
        "matrix must be square",
    ),
    "Jacobi values of a vector": (
        lambda: eig_sym(np.zeros(3)),
        ValueError,
        "matrix must be square",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal(case):
    call, kind, message = REFUSALS[case]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind
    assert str(err.value) == message


def test_unknown_check_is_an_error_row():
    rows, errors = run_checks_on_graph("g", p3(), ["bogus", "basics"], 0.0, 1)
    assert errors == [("g", "bogus: unknown check 'bogus'")]
    assert rows and all(instance == "g" for instance, _ in rows)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph file"),
        ("# a comment only\n\n", "empty graph file"),
        ("vertices 2 mu unit\n0 1 1\n", "header must read: n <int> mu <degree|unit|list> [kappa <list>]"),
        ("n 2 mu unit\n0 1\n", "bad edge line: '0 1'"),
        ("n 2 mu unit\n0 x 1\n", "bad edge line '0 x 1': invalid literal for int() with base 10: 'x'"),
    ],
)
def test_edge_list_file_refusal(tmp_path, text, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(GraphFormatError) as err:
        load_graph(str(path))
    assert type(err.value) is GraphFormatError
    assert str(err.value) == message
