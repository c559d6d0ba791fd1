import copy
import dataclasses
import hashlib
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheegerlab import (
    WeightedGraph,
    classify,
    cyclomatic,
    degree_profile,
    generate,
    product,
    with_random_signature,
)
from cheegerlab import graph
from cheegerlab.graph import (
    Edge,
    GraphFormatError,
    InvalidGraphError,
    dumps_graph,
    format_graph_text,
    from_json_dict,
    load_graph,
    loads_graph,
    parse_graph_text,
)
from brute import disjoint_union, loop_degrees, order_visible_graph, search_classify


def triangle():
    return WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def problems(n, edges, **kwargs) -> tuple[str, ...]:
    """The problems WeightedGraph.build refuses its arguments with."""
    with pytest.raises(InvalidGraphError) as exc:
        WeightedGraph.build(n, edges, **kwargs)
    assert str(exc.value) == "invalid graph: " + "; ".join(exc.value.problems)
    return exc.value.problems


class TestValidate:
    def test_triangle_ok(self):
        assert triangle().n == 3

    def test_self_loop(self):
        assert any("self-loop" in p for p in problems(2, [(0, 0, 1), (0, 1, 1)]))

    def test_nonpositive_measure(self):
        assert any("nonpositive measure" in p for p in problems(2, [(0, 1, 1)], mu=[1.0, 0.0]))

    def test_duplicate_edge(self):
        assert any("duplicate" in p for p in problems(2, [(0, 1, 1), (1, 0, 2)]))

    @pytest.mark.parametrize("reversed_first", [False, True])
    def test_edge_stored_with_u_above_v(self, reversed_first):
        # One pair stored in both orders is a multigraph: its degrees would
        # sum both copies while the Laplacian keeps one entry.  The check
        # refuses the reversed copy, so every repeat is a duplicate (u, v).
        pair = (Edge(1, 2, 1.0), Edge(2, 1, 1.0))
        edges = (*(pair[::-1] if reversed_first else pair), Edge(0, 1, 1.0))
        g = triangle()
        for make in (
            lambda: WeightedGraph(n=3, edges=edges, mu=(1.0,) * 3, kappa=(0.0,) * 3),
            lambda: dataclasses.replace(g, edges=edges),
        ):
            with pytest.raises(InvalidGraphError) as exc:
                make()
            assert exc.value.problems == ("edge (2,1) stored with u > v",)
        with pytest.raises(InvalidGraphError, match=r"edge \(1,0\) stored with u > v"):
            dataclasses.replace(g, edges=(Edge(1, 0, 1.0), *g.edges[1:]))
        # build stores every edge with u < v, so the same input is a duplicate there.
        assert problems(3, [tuple(e) for e in edges]) == ("duplicate edge (1,2)",)

    @pytest.mark.parametrize(
        "edge, problem",
        [
            (Edge(0.5, 2, 1.0), "edge (0.5,2) has a vertex id that is not an int"),
            (Edge(0, 2.0, 1.0), "edge (0,2.0) has a vertex id that is not an int"),
            (Edge(True, 2, 1.0), "edge (True,2) has a vertex id that is not an int"),
            (Edge(0, np.int64(2), 1.0), "edge (0,np.int64(2)) has a vertex id that is not an int"),
            (Edge(0, 2, 1.0, 1.0), "sigma 1.0 on edge (0,2) must be the int +1 or -1"),
            (Edge(0, 2, 1.0, -1.0), "sigma -1.0 on edge (0,2) must be the int +1 or -1"),
            (Edge(0, 2, 1.0, True), "sigma True on edge (0,2) must be the int +1 or -1"),
        ],
    )
    def test_vertex_ids_and_signs_must_be_ints(self, edge, problem):
        # The graph formats would write a float or bool id or sign in a form
        # their loaders refuse, and a float id cannot index the vertices.
        g = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1)])
        edges = (*g.edges, edge)
        for make in (
            lambda: WeightedGraph(n=3, edges=edges, mu=g.mu, kappa=g.kappa),
            lambda: dataclasses.replace(g, edges=edges),
        ):
            with pytest.raises(InvalidGraphError) as exc:
                make()
            assert exc.value.problems == (problem,)

    @pytest.mark.parametrize(
        "edge_w, mu0, kappa1, problem",
        [
            (np.float64(2.0), 1.0, 0.0, "weight np.float64(2.0) on edge (1,2) must be a Python int or float"),
            (np.float32(2.0), 1.0, 0.0, "weight np.float32(2.0) on edge (1,2) must be a Python int or float"),
            (True, 1.0, 0.0, "weight True on edge (1,2) must be a Python int or float"),
            (1.0, np.float64(2.0), 0.0, "measure np.float64(2.0) at vertex 0 must be a Python int or float"),
            (1.0, np.float32(2.0), 0.0, "measure np.float32(2.0) at vertex 0 must be a Python int or float"),
            (1.0, True, 0.0, "measure True at vertex 0 must be a Python int or float"),
            (1.0, 1.0, np.float64(-0.5), "kappa np.float64(-0.5) at vertex 1 must be a Python int or float"),
            (1.0, 1.0, np.float32(0.5), "kappa np.float32(0.5) at vertex 1 must be a Python int or float"),
            (1.0, 1.0, False, "kappa False at vertex 1 must be a Python int or float"),
        ],
    )
    def test_weights_measures_and_kappa_must_be_python_numbers(self, edge_w, mu0, kappa1, problem):
        # np.float64 is a float subclass whose repr, np.float64(2.0), the
        # text format would write and its loader refuse; dumps_graph cannot
        # encode an np.float32 and writes a bool as true, which both loaders
        # refuse.
        g = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1)], mu="unit")
        edges = (g.edges[0], Edge(1, 2, edge_w))
        mu = (mu0, *g.mu[1:])
        kappa = (0.0, kappa1, 0.0)
        for make in (
            lambda: WeightedGraph(n=3, edges=edges, mu=mu, kappa=kappa),
            lambda: dataclasses.replace(g, edges=edges, mu=mu, kappa=kappa),
        ):
            with pytest.raises(InvalidGraphError) as exc:
                make()
            assert exc.value.problems == (problem,)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: WeightedGraph.build(3, [(0.0, 1.0, 1, -1.0), (1, 2, 2.5, np.int64(1))], mu="unit"),
            lambda: WeightedGraph(n=2, edges=(Edge(0, 1, 2, -1),), mu=(1, 3), kappa=(0, -2)),
            lambda: dataclasses.replace(generate("path", 3), edges=(Edge(0, 1, 1.5, -1), Edge(1, 2, 1.0))),
            lambda: with_random_signature(generate("random_connected", 7, seed=3, p=0.5), 5),
            lambda: generate("star", 6, mu="unit"),
            # build stores Python floats whatever numbers it is given.
            lambda: WeightedGraph.build(2, [(0, 1, np.float64(2.0))], mu=[np.float32(1.5), 1], kappa=[np.float64(0.5), 0]),
        ],
    )
    def test_accepted_graphs_round_trip(self, make):
        g = make()
        assert loads_graph(dumps_graph(g)) == g
        assert loads_graph(format_graph_text(g)) == g

    def test_isolated_vertex(self):
        assert any("isolated vertex 2" in p for p in problems(3, [(0, 1, 1)]))

    def test_nonpositive_weight_and_bad_sigma(self):
        found = problems(2, [(0, 1, -2.0, 3)])
        assert any("weight" in p for p in found)
        assert any("sigma" in p for p in found)

    def test_message_lists_every_problem(self):
        with pytest.raises(ValueError) as exc:
            WeightedGraph.build(3, [(0, 0, 1), (0, 1, -1.0)])
        message = str(exc.value)
        assert message.startswith("invalid graph: ")
        assert "self-loop at vertex 0" in message and "isolated vertex 2" in message

    def test_every_constructor_checks(self):
        g = triangle()
        bad_mu = (1.0, 0.0, 1.0)
        for make in (
            lambda: WeightedGraph(n=g.n, edges=g.edges, mu=bad_mu, kappa=g.kappa),
            lambda: dataclasses.replace(g, mu=bad_mu),
        ):
            with pytest.raises(InvalidGraphError, match="nonpositive measure at vertex 1"):
                make()


class TestInputBoundary:
    def test_nan_kappa(self):
        assert any("kappa at vertex 0" in p for p in problems(2, [(0, 1, 1)], kappa=[math.nan, 0.0]))

    def test_infinite_weight(self):
        found = problems(2, [(0, 1, math.inf)], mu=[1.0, 1.0])
        assert found == ("non-finite weight on edge (0,1)",)

    def test_infinite_measure(self):
        found = problems(2, [(0, 1, 1)], mu=[1.0, math.inf])
        assert found == ("non-finite measure at vertex 1",)

    @pytest.mark.parametrize(
        "n, edges, mu, kappa, message",
        [
            (3, [(0, 1, 1e308), (1, 2, 1e308)], "unit", 0.0,
             "Laplacian diagonal bound (d + |kappa|)/mu at vertex 1 is not finite; "
             "3 x total edge weight (the bound on beta's numerator) is not finite"),
            (2, [(0, 1, 1)], [1e-320, 1.0], 0.0,
             "Laplacian diagonal bound (d + |kappa|)/mu at vertex 0 is not finite"),
            (3, [(0, 1, 1), (1, 2, 1)], [1e308, 1e-10, 1e308], 0.0, "total measure mu(V) is not finite"),
            (2, [(0, 1, 1)], [1e-3, 1.0], [1.7e308, 0.0],
             "Laplacian diagonal bound (d + |kappa|)/mu at vertex 0 is not finite"),
            (2, [(0, 1, 6e307)], [1.0, 1.0], 0.0,
             "3 x total edge weight (the bound on beta's numerator) is not finite"),
            (2, [(0, 1, 1e-190)], [1e-200, 1e-200], 0.0,
             "mu_u * mu_v on edge (0,1) is not a positive finite number"),
            (2, [(0, 1, 1e190)], [1e200, 1e200], 0.0,
             "mu_u * mu_v on edge (0,1) is not a positive finite number"),
            (2, [(0, 1, 1e200)], [1e-300, 1e-20], -1e200,
             "Laplacian diagonal bound (d + |kappa|)/mu at vertex 0 is not finite"),
        ],
    )
    def test_derived_sums_must_be_finite(self, n, edges, mu, kappa, message):
        assert "; ".join(problems(n, edges, mu=mu, kappa=kappa)) == message

    def test_fractional_vertex_count(self):
        for mu, kappa in (([1, 1], [0, 0]), ("degree", 0.0), ("unit", 0.0), ([1, 1], 0.0)):
            with pytest.raises(ValueError, match=r"^vertex count 2\.5 is not an integer$"):
                WeightedGraph.build(2.5, [(0, 1, 1)], mu=mu, kappa=kappa)
        with pytest.raises(ValueError, match=r"^vertex count 2\.5 is not an integer$"):
            WeightedGraph(n=2.5, edges=triangle().edges[:1], mu=(1.0, 1.0), kappa=(0.0, 0.0))
        assert WeightedGraph.build(2.0, [(0, 1, 1)]).n == 2

    def test_fractional_vertex_id(self):
        with pytest.raises(ValueError, match="vertex id 0.7"):
            WeightedGraph.build(2, [(0.7, 1, 1)])
        with pytest.raises(GraphFormatError, match="vertex id 0.7"):
            from_json_dict({"n": 2, "edges": [{"u": 0.7, "v": 1, "w": 1}]})

    def test_integral_float_vertex_id(self):
        assert WeightedGraph.build(2, [(0.0, 1.0, 1)]) == WeightedGraph.build(2, [(0, 1, 1)])
        data = {"n": 2.0, "edges": [{"u": 0.0, "v": 1, "w": 1, "sigma": -1.0}], "mu": [1, 1], "kappa": 0}
        assert from_json_dict(data) == WeightedGraph.build(2, [(0, 1, 1.0, -1)], mu=[1.0, 1.0])

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"n": 3.7}, "n 3.7 is not an integer"),
            ({"n": True}, "n true is not an integer"),
            ({"n": "3"}, 'n "3" is not an integer'),
            ({"edges": [{"u": True, "v": 1, "w": 1}, {"u": 1, "v": 2, "w": 1}]},
             "edge 0 vertex id true is not an integer"),
            ({"edges": [{"u": 0, "v": 1, "w": 1}, {"u": 1, "v": "0", "w": 1}]},
             'edge 1 vertex id "0" is not an integer'),
            ({"edges": [{"u": 0, "v": 1, "w": 1, "sigma": True}, {"u": 1, "v": 2, "w": 1}]},
             "edge 0 sigma true is not an integer"),
            ({"edges": [{"u": 0, "v": 1, "w": 1, "sigma": "0"}, {"u": 1, "v": 2, "w": 1}]},
             'edge 0 sigma "0" is not an integer'),
            ({"edges": [{"u": 0, "v": 1, "w": 1}, {"u": 1, "v": 2, "w": "2.5"}]},
             'edge 1 weight w "2.5" is not a number'),
            ({"edges": [{"u": 0, "v": 1, "w": True}, {"u": 1, "v": 2, "w": 1}]},
             "edge 0 weight w true is not a number"),
            ({"mu": [1, "2.5", 1]}, 'mu entry 1 "2.5" is not a number'),
            ({"mu": [1, 1, True]}, "mu entry 2 true is not a number"),
            ({"kappa": [0, "2.5", 0]}, 'kappa entry 1 "2.5" is not a number'),
            ({"kappa": [True, 0, 0]}, "kappa entry 0 true is not a number"),
            ({"kappa": True}, "kappa true is not a number"),
            ({"kappa": "0"}, 'kappa "0" is not a number'),
            # Wrong-shaped containers are named too.
            ({"edges": [{"u": 0, "v": 1}]}, 'edge 0 has no "w"'),
            ({"mu": 5}, "mu must be a string or a list"),
            ({"edges": {"u": 0}}, "edges must be a list of edge objects"),
            ({"edges": [[0, 1, 1]]}, "edge 0 must be an object with u, v and w"),
            # A misspelled key is named, not loaded as the field's default.
            ({"kapa": [5, 5, 5]}, 'unknown key "kapa"'),
            ({"edges": [{"u": 0, "v": 1, "w": 1}, {"u": 1, "v": 2, "w": 1, "sgima": -1}]},
             'edge 1 has unknown key "sgima"'),
        ],
    )
    def test_json_types_are_not_coerced(self, patch, message):
        data = {"n": 3, "edges": [{"u": 0, "v": 1, "w": 1}, {"u": 1, "v": 2, "w": 1}], **patch}
        with pytest.raises(GraphFormatError) as err:
            from_json_dict(data)
        assert str(err.value) == f"malformed graph JSON: {message}"

    def test_list_fields_stored_as_tuples(self):
        # A list field would make the graph unhashable and let its fields
        # change after the check, under what the graph already holds.
        g = WeightedGraph(n=2, edges=[Edge(0, 1, 1.0, 1)], mu=[1.0, 1.0], kappa=[0.0, 0.0])
        assert (g.edges, g.mu, g.kappa) == ((Edge(0, 1, 1.0, 1),), (1.0, 1.0), (0.0, 0.0))
        assert g == WeightedGraph.build(2, [(0, 1, 1.0)], mu="unit") and isinstance(hash(g), int)
        h = dataclasses.replace(g, mu=[2.0, 3.0], kappa=[0.5, 0.0])
        assert (h.mu, h.kappa) == ((2.0, 3.0), (0.5, 0.0)) and isinstance(hash(h), int)
        # A generator is read once: the check and the graph see the same edges.
        h = WeightedGraph(n=2, edges=(e for e in g.edges), mu=(1.0, 1.0), kappa=(0.0, 0.0))
        assert h == g and h.m == 1 and h.degrees().tolist() == [1.0, 1.0]

    def test_edge_entries_must_be_edges(self):
        g = WeightedGraph.build(2, [(0, 1, 1.0)], mu="unit")
        for make in (
            lambda: WeightedGraph(n=2, edges=((0, 1, 1.0, 1),), mu=(1.0, 1.0), kappa=(0.0, 0.0)),
            lambda: dataclasses.replace(g, edges=[(0, 1, 1.0, 1)]),
        ):
            with pytest.raises(InvalidGraphError) as exc:
                make()
            assert exc.value.problems[0] == "edge entry (0, 1, 1.0, 1) is not an Edge"

    @pytest.mark.parametrize(
        "n, edges, mu, kappa, message",
        [
            (2, [("0", "1", "2.5")], "degree", 0.0, "vertex id '0' is not an integer"),
            (2, [(False, True, 1.0, True)], "degree", 0.0, "vertex id False is not an integer"),
            (2, [(0, np.True_, 1.0)], "degree", 0.0, "vertex id np.True_ is not an integer"),
            (2, [(0, 1, 1.0, True)], "degree", 0.0, "sigma True is not an integer"),
            (2, [(0, 1, 1.0, "-1")], "degree", 0.0, "sigma '-1' is not an integer"),
            (2, [(0, 1, "2.5")], "degree", 0.0, "weight '2.5' is not a number"),
            (2, [(0, 1, True)], "degree", 0.0, "weight True is not a number"),
            (2, [(0, 1, 1.0)], ["1", "2"], 0.0, "measure '1' is not a number"),
            (2, [(0, 1, 1.0)], [1.0, np.True_], 0.0, "measure np.True_ is not a number"),
            (2, [(0, 1, 1.0)], "unit", "0.5", "kappa '0.5' is not a number"),
            (2, [(0, 1, 1.0)], "unit", True, "kappa True is not a number"),
            (2, [(0, 1, 1.0)], "unit", [0.0, np.False_], "kappa np.False_ is not a number"),
            ("2", [(0, 1, 1.0)], "unit", 0.0, "vertex count '2' is not an integer"),
            (True, [(0, 1, 1.0)], "unit", 0.0, "vertex count True is not an integer"),
            (np.float32(2.5), [(0, 1, 1.0)], "unit", 0.0, "vertex count np.float32(2.5) is not an integer"),
        ],
    )
    def test_build_refuses_strings_and_bools(self, n, edges, mu, kappa, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WeightedGraph.build(n, edges, mu=mu, kappa=kappa)

    @pytest.mark.parametrize(
        "n, edges, mu, kappa, message",
        [
            (2, [(0, 1, 1.0)], 3.0, 0.0, "mu 3.0 is not a sequence"),
            (2, [(0, 1, 1.0)], np.array(3.0), 0.0, "mu array(3.) is not a sequence"),
            (2, [(0, 1, 1.0)], "unit", None, "kappa None is not a sequence"),
            (2, 5, "degree", 0.0, "edges 5 is not a sequence"),
            (2, [(0, 1)], "degree", 0.0, "edge (0, 1) is not a (u, v, w) or (u, v, w, sigma) tuple of numbers"),
            (2, [5], "degree", 0.0, "edge 5 is not a (u, v, w) or (u, v, w, sigma) tuple of numbers"),
            (2, [(0, 1, 1.0)], "unit", np.array("0.5"), "kappa np.str_('0.5') is not a number"),
            # A fifth entry is refused like a missing third, not dropped.
            (2, [(0, 1, 1.0, 1, 99)], "degree", 0.0,
             "edge (0, 1, 1.0, 1, 99) is not a (u, v, w) or (u, v, w, sigma) tuple of numbers"),
        ],
    )
    def test_build_names_a_field_of_the_wrong_shape(self, n, edges, mu, kappa, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WeightedGraph.build(n, edges, mu=mu, kappa=kappa)

    @pytest.mark.parametrize("key", ["edges", "mu", "kappa"])
    def test_constructor_names_a_field_that_is_not_a_sequence(self, key):
        g = WeightedGraph.build(2, [(0, 1, 1.0)], mu="unit")
        for value in (5.0, np.array(0.5)):
            for make in (
                lambda: WeightedGraph(**{"n": 2, "edges": (), "mu": (1.0, 1.0), "kappa": (0.0, 0.0), key: value}),
                lambda: dataclasses.replace(g, **{key: value}),
            ):
                with pytest.raises(InvalidGraphError) as exc:
                    make()
                assert exc.value.problems == (f"{key} {value!r} is not a sequence",)

    def test_constructor_refuses_a_string_vertex_count(self):
        with pytest.raises(ValueError, match="^vertex count '2' is not an integer$"):
            WeightedGraph(n="2", edges=(Edge(0, 1, 1.0),), mu=(1.0, 1.0), kappa=(0.0, 0.0))

    def test_build_keeps_numpy_numbers_and_integral_floats(self):
        g = WeightedGraph.build(
            np.int64(2), [(np.int64(0), 1.0, np.float32(2.0), np.int64(-1))],
            mu=[np.float32(1.0), 2], kappa=np.float64(0.5),
        )
        assert g == WeightedGraph.build(2, [(0, 1, 2.0, -1)], mu=[1.0, 2.0], kappa=0.5)
        # A 0-d array is a scalar, like np.float64, so it is broadcast.
        assert WeightedGraph.build(2, [(0, 1, 1.0)], kappa=np.array(0.5)).kappa == (0.5, 0.5)

    def test_vertex_count_bounded_by_edges(self):
        with pytest.raises(GraphFormatError, match="twice the edge count"):
            parse_graph_text("n 1000000000 mu degree\n0 1 1\n")
        with pytest.raises(GraphFormatError, match="twice the edge count"):
            from_json_dict({"n": 10**9, "edges": [{"u": 0, "v": 1, "w": 1}]})


class TestDegreeProfile:
    def test_k3_mu_degree(self):
        prof = degree_profile(triangle())
        assert prof.d == (2.0, 2.0, 2.0)
        assert prof.tau == 1.0 and prof.tau_min == 1.0

    def test_path3_unit_measure(self):
        g = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1)], mu=[1, 1, 1])
        prof = degree_profile(g)
        assert prof.d == (1.0, 2.0, 1.0)
        assert prof.tau == 2.0 and prof.tau_min == 1.0

    def test_single_edge_weighted(self):
        g = WeightedGraph.build(2, [(0, 1, 3)], mu=[1, 6])
        prof = degree_profile(g)
        assert prof.tau == 3.0 and prof.tau_min == 0.5

    @pytest.mark.parametrize(
        "g",
        [generate("random_connected", n, seed, p=0.6) for n, seed in ((3, 1), (7, 2), (12, 3), (16, 4))]
        + [order_visible_graph(9)],
        ids=["rc3", "rc7", "rc12", "rc16", "order_visible9"],
    )
    def test_degree_sums_match_loop_reference(self, g):
        # order_visible_graph's 1e16 and 1.0 weights make any add order
        # other than the stored-edge one change the bits.
        d = loop_degrees(g)
        want = np.array(d).tobytes()
        assert g.degrees().tobytes() == want
        assert np.array(g.mu).tobytes() == want
        mu = [float(i + 1) for i in range(g.n)]
        prof = degree_profile(WeightedGraph.build(g.n, g.edges, mu=mu))
        assert np.array(prof.d).tobytes() == want
        ratios = [x / m for x, m in zip(d, mu)]
        assert np.array([prof.tau, prof.tau_min]).tobytes() == np.array([max(ratios), min(ratios)]).tobytes()


class TestStructure:
    def test_cyclomatic_tree_and_cycle(self):
        assert cyclomatic(generate("star", 5)) == 0
        assert cyclomatic(generate("cycle", 5)) == 1

    def test_cyclomatic_gn(self):
        g = generate("gn", 3)
        assert g.n == 8 and g.m == 8
        assert cyclomatic(g) == 1

    def test_cyclomatic_additive_over_components(self):
        # C_3 and C_4 side by side: ell = 1 + 1 with component count 2
        edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
        edges += [(3, 4, 1), (4, 5, 1), (5, 6, 1), (3, 6, 1)]
        g = WeightedGraph.build(7, edges)
        assert classify(g).component_count == 2
        assert cyclomatic(g) == 2

    def test_classify_disconnected(self):
        g = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)])
        cls = classify(g)
        assert cls.component_count == 2 and not cls.is_connected
        assert cls.component_labels == (0, 0, 1, 1)

    def test_classify_star(self):
        cls = classify(generate("star", 4))
        assert cls.is_tree and cls.is_bipartite
        assert cls.bipartition_labels == (0, 1, 1, 1)

    def test_classify_odd_cycle_not_bipartite(self):
        assert not classify(triangle()).is_bipartite

    def test_classify_equals_search_oracle(self):
        # The double-cover labelling against a depth-first 2-colouring,
        # field for field, on 3,000-odd graphs: every family at n = 2..13
        # (random ones at three densities and 25 seeds), then 900
        # relabelled, randomly signed disjoint unions of two or three of
        # those with n <= 8.
        graphs = []
        for n in range(2, 14):
            graphs += [generate(f, n) for f in ("path", "cycle", "star", "complete") if n > 2 or f != "cycle"]
            for seed in range(25):
                graphs.append(generate("random_tree", n, seed=seed))
                for p in (0.1, 0.3, 0.6):
                    graphs.append(generate("random_connected", n, seed=seed, p=p))
                    graphs.append(generate("random_bipartite", n, seed=seed, p=p))
        graphs += [generate("gn", n) for n in range(3, 6)]
        rng = np.random.default_rng(5)
        pool = [g for g in graphs if g.n <= 8]
        for i in range(900):
            pieces = [with_random_signature(pool[j], i) for j in rng.integers(len(pool), size=rng.integers(2, 4))]
            graphs.append(disjoint_union(pieces, rng.permutation(sum(h.n for h in pieces)).tolist()))
        assert len(graphs) >= 3000
        assert not any(c.is_connected for c in map(classify, graphs[-900:]))
        for g in graphs:
            assert classify(g) == search_classify(g), g


class TestHeldInputs:
    """What a graph derives from itself alone is built on first use and held
    with the graph object."""

    def test_built_once_per_graph(self, monkeypatch):
        built = []

        def counting(real):
            def build(g):
                built.append(g)
                return real(g)
            return build

        for name in ("_classify", "_degree_profile"):
            monkeypatch.setattr(graph, name, counting(getattr(graph, name)))
        g = generate("random_connected", 7, seed=2, p=0.4)
        cls, prof = classify(g), degree_profile(g)
        assert classify(g) is cls and degree_profile(g) is prof
        assert cyclomatic(g) == g.m - g.n + cls.component_count
        assert built == [g, g]

    def test_equal_copies_hold_their_own(self):
        g = generate("gn", 3)
        cls = classify(g)
        twins = [
            WeightedGraph.build(g.n, g.edges, mu=g.mu, kappa=g.kappa),
            dataclasses.replace(g),
            copy.copy(g),
            copy.deepcopy(g),
            pickle.loads(pickle.dumps(g)),
        ]
        for twin in twins:
            assert twin == g and hash(twin) == hash(g)
            assert twin._held == {}
            assert classify(twin) == cls and classify(twin) is not cls


class TestProduct:
    def test_p2_times_p2_is_c4(self):
        p2 = WeightedGraph.build(2, [(0, 1, 1)], mu="unit")
        g = product(p2, p2)
        assert g.n == 4
        assert [(e.u, e.v) for e in g.edges] == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert all(e.w == 1.0 for e in g.edges)
        assert g.mu == (1.0, 1.0, 1.0, 1.0)

    def test_kappa_additivity(self):
        pa = WeightedGraph.build(2, [(0, 1, 1)], mu="unit", kappa=[1, 0])
        pb = WeightedGraph.build(2, [(0, 1, 1)], mu="unit", kappa=[0, 2])
        assert product(pa, pb).kappa == (1.0, 3.0, 0.0, 2.0)

    def test_rejects_non_unit_measure(self):
        with pytest.raises(ValueError, match="unit vertex measure"):
            product(triangle(), triangle())

    def test_rejects_signed(self):
        s = WeightedGraph.build(2, [(0, 1, 1, -1)], mu="unit")
        with pytest.raises(ValueError, match="unsigned"):
            product(s, s)

    @given(st.integers(0, 2**32), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_product_counts(self, seed, n1, n2):
        g1 = generate("random_tree", n1, seed, mu="unit")
        g2 = generate("random_connected", n2, seed + 1, mu="unit")
        g = product(g1, g2)
        assert g.n == n1 * n2
        assert g.m == n1 * g2.m + n2 * g1.m


# generate(family, n, seed, **kwargs) -> the first 16 hex digits of the sha256
# of dumps_graph, or the error's type and message.  Every corpus, and the
# benchmark's expected outputs, are built from generated graphs, so a change
# to the generators must leave these bytes and errors as they are.  Each
# family has its least n and one below it.
_PINNED_GENERATION = [
    ('gn', 3, 0, {}, '96c24bc1b9a0f291'),
    ('gn', 7, 1, {}, 'd836b3c06bd80b87'),
    ('gn', 9, 2, {'p': 0.15}, '7a67901564d43798'),
    ('gn', 8, 3, {'p': 0.8, 'w_low': 0.3, 'w_high': 3.0}, '5678f9501c412cbc'),
    ('gn', 6, 4, {'mu': 'unit'}, '82ce673e5dcd1ce4'),
    ('gn', 5, 5, {'w_low': 2.0}, 'e2fa18db03735d20'),
    ('gn', 2, 0, {}, 'ValueError: gn family requires n >= 3'),
    ('path', 2, 0, {}, 'c9c524c4e3c14326'),
    ('path', 7, 1, {}, 'd77a29f8540322ba'),
    ('path', 9, 2, {'p': 0.15}, '2e06fde8d29389ff'),
    ('path', 8, 3, {'p': 0.8, 'w_low': 0.3, 'w_high': 3.0}, 'a1c05bd4b3741985'),
    ('path', 6, 4, {'mu': 'unit'}, 'c6d95573890dfc18'),
    ('path', 5, 5, {'w_low': 2.0}, '5f96c57f79004241'),
    ('path', 1, 0, {}, 'ValueError: path requires n >= 2'),
    ('cycle', 3, 0, {}, 'cf9823c7b18975e4'),
    ('cycle', 7, 1, {}, 'f27c9a1b1d4032b4'),
    ('cycle', 9, 2, {'p': 0.15}, 'efd18c04ac89562a'),
    ('cycle', 8, 3, {'p': 0.8, 'w_low': 0.3, 'w_high': 3.0}, 'd2988facb4264131'),
    ('cycle', 6, 4, {'mu': 'unit'}, '9c6073c9dd1fe841'),
    ('cycle', 5, 5, {'w_low': 2.0}, '7f2bf2f0b029dc5c'),
    ('cycle', 2, 0, {}, 'ValueError: cycle requires n >= 3'),
    ('star', 2, 0, {}, 'c9c524c4e3c14326'),
    ('star', 7, 1, {}, '4a5ce96f177c40aa'),
    ('star', 9, 2, {'p': 0.15}, 'd41bf5a1fe574054'),
    ('star', 8, 3, {'p': 0.8, 'w_low': 0.3, 'w_high': 3.0}, 'fc9cb1a9ef6f301b'),
    ('star', 6, 4, {'mu': 'unit'}, '3c597a50c44e832b'),
    ('star', 5, 5, {'w_low': 2.0}, '6407369aa2bc190f'),
    ('star', 1, 0, {}, 'ValueError: star requires n >= 2'),
    ('complete', 2, 0, {}, 'c9c524c4e3c14326'),
    ('complete', 7, 1, {}, '7b1fbb80b7f6924b'),
    ('complete', 9, 2, {'p': 0.15}, '6fa3c20b2eb84017'),
    ('complete', 8, 3, {'p': 0.8, 'w_low': 0.3, 'w_high': 3.0}, '684a2b5e4f4540cc'),
    ('complete', 6, 4, {'mu': 'unit'}, 'e88be2f6f61c28b2'),
    ('complete', 5, 5, {'w_low': 2.0}, '20a9f0610366cf20'),
    ('complete', 1, 0, {}, 'ValueError: complete requires n >= 2'),
    ('random_tree', 2, 0, {}, '7077f6691ed9b89f'),
    ('random_tree', 7, 1, {}, '97f1b98c919d6bb5'),
    ('random_tree', 9, 2, {'p': 0.15}, '0db6e870374de68b'),
    ('random_tree', 8, 3, {'p': 0.8, 'w_low': 0.3, 'w_high': 3.0}, '5da699975c89cdb5'),
    ('random_tree', 6, 4, {'mu': 'unit'}, 'a6b4a00f73efd20a'),
    ('random_tree', 5, 5, {'w_low': 2.0}, 'ff4b297a147eb396'),
    ('random_tree', 1, 0, {}, 'ValueError: random_tree requires n >= 2'),
    ('random_connected', 2, 0, {}, 'da240f5be0746a32'),
    ('random_connected', 7, 1, {}, '0b2fa9acbcb53f81'),
    ('random_connected', 9, 2, {'p': 0.15}, '68e9273da7fcaf0c'),
    ('random_connected', 8, 3, {'p': 0.8, 'w_low': 0.3, 'w_high': 3.0}, '8c21c1ac200172d6'),
    ('random_connected', 6, 4, {'mu': 'unit'}, 'bfc768fb9e2884cb'),
    ('random_connected', 5, 5, {'w_low': 2.0}, '5c46dded6f978c69'),
    ('random_connected', 1, 0, {}, 'ValueError: random_connected requires n >= 2'),
    ('random_bipartite', 2, 0, {}, 'e20ffda9c07073d9'),
    ('random_bipartite', 7, 1, {}, 'bbb38fe530611291'),
    ('random_bipartite', 9, 2, {'p': 0.15}, '5278d2682b552ef0'),
    ('random_bipartite', 8, 3, {'p': 0.8, 'w_low': 0.3, 'w_high': 3.0}, 'a5845ccb6cd52e24'),
    ('random_bipartite', 6, 4, {'mu': 'unit'}, 'e7391c7b54edec48'),
    ('random_bipartite', 5, 5, {'w_low': 2.0}, 'ca738f670393a2a7'),
    ('random_bipartite', 1, 0, {}, 'ValueError: random_bipartite requires n >= 2'),
    ('gn', 4, 0, {'a': 1e+200}, 'ValueError: a = 1e+200 makes the gn weight a^3 overflow'),
    ('petersen', 10, 0, {}, "ValueError: unknown family 'petersen'"),
    ('path', 4, 0, {'p': 1.5}, 'ValueError: p must be a finite number in [0, 1], got 1.5'),
    ('star', 4, 0, {'w_low': 2.0, 'w_high': 1.0}, 'ValueError: w_high must be >= w_low'),
]


class TestGenerate:
    @pytest.mark.parametrize("family, n, seed, kwargs, pinned", _PINNED_GENERATION)
    def test_generation_is_pinned(self, family, n, seed, kwargs, pinned):
        try:
            text = dumps_graph(generate(family, n, seed, **kwargs))
            got = hashlib.sha256(text.encode()).hexdigest()[:16]
        except ValueError as exc:
            got = f"{type(exc).__name__}: {exc}"
        assert got == pinned

    def test_every_family_is_pinned(self):
        assert {row[0] for row in _PINNED_GENERATION} >= set(graph.FAMILIES)

    def test_gn3_matches_figure(self):
        g = generate("gn", 3, a=1.1)
        weights = {(e.u, e.v): e.w for e in g.edges}
        a = 1.1
        assert weights[(0, 1)] == 1.0
        assert weights[(1, 2)] == a
        assert weights[(2, 3)] == a * a
        assert weights[(3, 4)] == a * a
        assert weights[(4, 5)] == a
        assert weights[(5, 6)] == 1.0
        assert weights[(0, 6)] == 1.0 and weights[(3, 7)] == 1.0

    def test_gn_connected_cyclomatic_one(self):
        for n in range(3, 8):
            g = generate("gn", n)
            assert classify(g).is_connected and cyclomatic(g) == 1

    def test_gn_rejects_small_n(self):
        with pytest.raises(ValueError):
            generate("gn", 2)

    def test_path2(self):
        g = generate("path", 2)
        assert g.edges == (g.edges[0],)
        assert g.edges[0].w == 1.0
        assert g.mu == (1.0, 1.0)
        assert g.kappa == (0.0, 0.0)

    def test_random_tree_deterministic_and_tree(self):
        g1 = generate("random_tree", 7, seed=123)
        g2 = generate("random_tree", 7, seed=123)
        assert g1 == g2
        assert classify(g1).is_tree

    def test_random_connected_connected(self):
        for i in range(20):
            g = generate("random_connected", 4 + i % 7, seed=i, p=0.2)
            assert classify(g).is_connected

    def test_random_bipartite_bipartite(self):
        for i in range(10):
            g = generate("random_bipartite", 5 + i % 4, seed=i, p=0.4)
            assert classify(g).is_bipartite

    def test_random_weights_in_range(self):
        g = generate("random_tree", 10, seed=5)
        assert all(0.5 <= e.w <= 2.0 for e in g.edges)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate("petersen", 10)

    def test_signature_randomization(self):
        g = with_random_signature(generate("cycle", 8), seed=3)
        assert with_random_signature(generate("cycle", 8), seed=3) == g
        assert {e.sigma for e in g.edges} == {-1, 1}


class TestSerialization:
    def test_json_round_trip(self):
        g = with_random_signature(generate("random_connected", 6, seed=9), seed=4)
        assert from_json_dict(json.loads(dumps_graph(g))) == g

    def test_json_defaults(self):
        g = from_json_dict({"n": 2, "edges": [{"u": 0, "v": 1, "w": 2.5}]})
        assert g.edges[0].sigma == 1
        assert g.mu == (2.5, 2.5)  # "degree" default
        assert g.kappa == (0.0, 0.0)

    def test_text_round_trip(self):
        g = generate("random_connected", 5, seed=2)
        assert parse_graph_text(format_graph_text(g)) == g

    def test_text_header(self):
        g = parse_graph_text("n 3 mu 1 1 1\n0 1 2.0\n1 2 0.5 -1\n")
        assert g.mu == (1.0, 1.0, 1.0)
        assert g.edges[1].sigma == -1

    def test_malformed_json(self):
        with pytest.raises(GraphFormatError):
            loads_graph("{not json")
        for data in ([], None, "n"):
            with pytest.raises(GraphFormatError, match="^malformed graph JSON: "):
                from_json_dict(data)

    def test_malformed_header(self):
        with pytest.raises(GraphFormatError):
            parse_graph_text("vertices 3\n0 1 1\n")

    def test_text_keeps_kappa(self):
        g = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1)], kappa=[0.5, 0, 0.25])
        assert parse_graph_text(format_graph_text(g)).kappa == (0.5, 0.0, 0.25)

    def test_text_header_without_kappa(self):
        g = parse_graph_text("n 2 mu degree\n0 1 1\n")
        assert g.kappa == (0.0, 0.0)

    @pytest.mark.parametrize(
        "header",
        [
            "n 3",
            "n 3 mu",
            "m 3 mu degree",
            "n 3 measure degree",
            "n x mu degree",
            "n 3.5 mu degree",
            "n 3 mu 1 1",
            "n 3 mu 1 1 one",
            "n 3 mu degree extra",
            "n 3 mu kappa 0 0 0",
            "n 3 mu degree kappa",
            "n 3 mu degree kappa 0 0",
            "n 3 mu degree kappa 0 0 0 0",
            "n 3 mu degree kappa 0 zero 0",
            "n 3 mu 1 1 1 kappa 0 0 0 kappa 0 0 0",
        ],
    )
    def test_malformed_header_variants(self, header):
        with pytest.raises(GraphFormatError):
            parse_graph_text(header + "\n0 1 1\n1 2 1\n")

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "edges": [{"u": 0, "v": 1, "w": NaN}], "mu": [1, 1]}',
            "n 2 mu 1 1\n0 1 nan\n",
        ],
    )
    def test_nan_weight_is_format_error(self, tmp_path, text):
        with pytest.raises(GraphFormatError, match=r"^non-finite weight on edge \(0,1\)$"):
            loads_graph(text)
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match=r"^non-finite weight on edge \(0,1\)$"):
            load_graph(str(path))

    @pytest.mark.parametrize(
        "n, edges, mu, kappa, message",
        [
            (3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 1.0], None, "mu has length 2, expected 3"),
            (3, [(0, 1, 1.0), (1, 2, 1.0)], None, [0.0, 0.5], "kappa has length 2, expected 3"),
            (5, [(0, 1, 1.0), (1, 2, 1.0)], None, None,
             "n = 5 exceeds twice the edge count (2), so some vertex would be isolated"),
            (2, [(0, 0, 1.0), (0, 1, 1.0)], None, None, "self-loop at vertex 0"),
            (2, [(0, 1, 1.0), (1, 0, 2.0)], None, None, "duplicate edge (0,1)"),
            (2, [(0, 1, math.nan)], [1.0, 1.0], None, "non-finite weight on edge (0,1)"),
            (3, [(0, 1, 1.0, 2), (1, 2, 1.0)], None, [0.0, 0.0, 0.0],
             "sigma 2 on edge (0,1) must be the int +1 or -1"),
            (3, [(0, 1, 1.0), (1, 2, 1.0)], "bogus", None, "unknown measure token 'bogus'"),
        ],
    )
    def test_one_message_per_fault_in_either_format(self, n, edges, mu, kappa, message):
        # Both readers hand their fields to one checked core.
        if mu is None or isinstance(mu, str):
            text = f"n {n} mu {mu or 'degree'}"
        else:
            text = f"n {n} mu " + " ".join(map(repr, mu))
        if kappa is not None:
            text += " kappa " + " ".join(map(repr, kappa))
        text += "".join("\n" + " ".join(map(repr, e)) for e in edges) + "\n"
        data = {"n": n, "edges": [dict(zip(("u", "v", "w", "sigma"), e)) for e in edges]}
        data.update({key: value for key, value in (("mu", mu), ("kappa", kappa)) if value is not None})
        for source in (text, json.dumps(data)):
            with pytest.raises(GraphFormatError) as err:
                loads_graph(source)
            assert str(err.value) == message

    def test_text_measure_token_loads_like_json(self):
        g = parse_graph_text("n 3 mu unit\n0 1 2.0\n1 2 0.5 -1\n")
        edges = [{"u": 0, "v": 1, "w": 2.0}, {"u": 1, "v": 2, "w": 0.5, "sigma": -1}]
        assert g == from_json_dict({"n": 3, "mu": "unit", "edges": edges})
        assert g.mu == (1.0, 1.0, 1.0)

    def test_validation_problems_joined(self):
        with pytest.raises(GraphFormatError) as err:
            from_json_dict({"n": 3, "edges": [{"u": 0, "v": 1, "w": -1}, {"u": 1, "v": 1, "w": 1}]})
        assert str(err.value) == "; ".join(problems(3, [(0, 1, -1), (1, 1, 1)]))

    def test_sniffing(self):
        g = generate("path", 3)
        assert loads_graph(dumps_graph(g)) == g
        assert loads_graph(format_graph_text(g)) == g


# |kappa| <= 1e300 keeps the Laplacian diagonal bound (d + |kappa|)/mu
# finite for mu >= 1e-3, so every drawn graph is valid.
finite = st.floats(-1e300, 1e300)


@st.composite
def full_graphs(draw):
    """Graphs with every field drawn: weights, signs, mu (a list, "unit" or
    "degree") and kappa (zero or a list)."""
    n = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    g = generate("random_connected", n, seed, p=0.4)
    g = with_random_signature(g, seed)
    mu = draw(st.sampled_from(["unit", "degree"]) | st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    kappa = draw(st.just(0.0) | st.lists(finite, min_size=n, max_size=n))
    return WeightedGraph.build(n, g.edges, mu=mu, kappa=kappa)


class TestRoundTripProperties:
    @given(full_graphs())
    @settings(max_examples=50, deadline=None)
    def test_json(self, g):
        assert loads_graph(dumps_graph(g)) == g

    @given(full_graphs())
    @settings(max_examples=50, deadline=None)
    def test_edge_list(self, g):
        assert loads_graph(format_graph_text(g)) == loads_graph(dumps_graph(g)) == g
