import itertools
import json
import math
import random

import pytest

from annulus_chroma.gadgets import SPINDLE_EDGES, embed_odd_cycle, spindle_points
from annulus_chroma.schema import SchemaError
from annulus_chroma.udg import (
    MAX_VERTICES,
    UnitDistanceGraph,
    build_udg,
    chromatic_number_exact,
    graph_from_edges,
    graph_from_json,
    greedy_clique,
    greedy_coloring,
    is_proper,
)
from oracles import (
    brute_chromatic,
    brute_colorable,
    mycielski,
    random_graph,
    reference_chromatic_number,
    reference_greedy_clique,
    reference_greedy_coloring,
)


class TestBuildUdg:
    def test_spindle_points_give_eleven_edges(self):
        g = build_udg(list(spindle_points()), 1e-9)
        assert len(g.edges) == 11
        assert g.edges == SPINDLE_EDGES

    def test_far_points_give_no_edges(self):
        g = build_udg([(0.0, 0.0), (0.5, 0.0)], 1e-9)
        assert g.edges == ()

    def test_cycle_embedding_has_no_chords(self):
        emb = embed_odd_cycle(0.01)
        g = build_udg(list(emb.vertices), 1e-9)
        assert len(g.edges) == emb.params["n"] == 9
        assert set(g.edges) == set(emb.edges)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            build_udg([(0.0, 0.0)], -1e-9)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="finite"):
            build_udg([(0.0, 0.0), (1.0, 0.0)], tolerance)

    @pytest.mark.parametrize("coordinate", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, coordinate):
        with pytest.raises(ValueError, match="point 2 must have finite coordinates"):
            build_udg([(0.0, 0.0), (1.0, 0.0), (coordinate, 0.0)])

    def test_tolerance_widens_detection(self):
        pts = [(0.0, 0.0), (1.0005, 0.0)]
        assert build_udg(pts, 1e-9).edges == ()
        assert build_udg(pts, 1e-3).edges == ((0, 1),)


class TestGraphStructure:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(0, 1), (1, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(0, 3)])

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        # An infinite tolerance would make any edge "unit", here one of length 5.
        with pytest.raises(ValueError, match="finite"):
            UnitDistanceGraph(2, ((0, 1),), ((0.0, 0.0), (5.0, 0.0)), tolerance)

    @pytest.mark.parametrize("coordinate", [math.nan, math.inf])
    def test_edge_to_non_finite_point_rejected(self, coordinate):
        # abs(nan - 1.0) > tol is False, so a NaN length must not pass as unit.
        with pytest.raises(ValueError, match="point 1 must have finite coordinates"):
            UnitDistanceGraph(2, ((0, 1),), ((0.0, 0.0), (coordinate, 0.0)))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges(0, [])

    def test_edge_length_validated_when_points_given(self):
        with pytest.raises(ValueError):
            UnitDistanceGraph(2, ((0, 1),), ((0.0, 0.0), (0.5, 0.0)), 1e-9)

    def test_edges_canonicalized(self):
        g = graph_from_edges(4, [(3, 1), (2, 0)])
        assert g.edges == ((0, 2), (1, 3))

    def test_edge_tuples_shared_between_graphs(self):
        a = graph_from_edges(4, [(3, 1)])
        b = graph_from_edges(5, [[1, 3]])
        assert a.edges[0] is b.edges[0]
        big = graph_from_edges(MAX_VERTICES + 2, [(MAX_VERTICES + 1, 0)])
        assert big.edges == ((0, MAX_VERTICES + 1),)


class TestChromaticNumber:
    def test_odd_cycle(self):
        c5 = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        chi, witness = chromatic_number_exact(c5)
        assert chi == 3
        assert is_proper(c5, witness)

    def test_complete_graph(self):
        k4 = graph_from_edges(4, list(itertools.combinations(range(4), 2)))
        assert chromatic_number_exact(k4)[0] == 4

    def test_single_vertex(self):
        g = graph_from_edges(1, [])
        chi, witness = chromatic_number_exact(g)
        assert (chi, witness) == (1, (0,))
        assert is_proper(g, witness)

    def test_bipartite(self):
        g = graph_from_edges(6, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)])
        assert chromatic_number_exact(g)[0] == 2

    def test_moser_spindle(self):
        g = build_udg(list(spindle_points()), 1e-9)
        chi, witness = chromatic_number_exact(g)
        assert chi == 4
        assert is_proper(g, witness)
        assert max(witness) + 1 == 4

    def test_moser_spindle_not_three_colorable_exhaustively(self):
        g = build_udg(list(spindle_points()), 1e-9)
        assert not brute_colorable(g, 3)  # all 3^7 = 2187 assignments
        assert brute_colorable(g, 4)

    def test_agrees_with_brute_force(self):
        rng = random.Random(314)
        for _ in range(80):
            g = random_graph(rng)
            chi, witness = chromatic_number_exact(g)
            assert chi == brute_chromatic(g)
            assert is_proper(g, witness)
            assert max(witness) + 1 == chi

    def test_bounds_sandwich(self):
        rng = random.Random(1618)
        for _ in range(80):
            g = random_graph(rng)
            chi, _ = chromatic_number_exact(g)
            assert len(greedy_clique(g)) <= chi <= max(greedy_coloring(g)) + 1

    def test_greedy_coloring_is_proper(self):
        rng = random.Random(27)
        for _ in range(50):
            g = random_graph(rng)
            assert is_proper(g, greedy_coloring(g))

    def test_deterministic(self):
        g = build_udg(list(spindle_points()), 1e-9)
        assert chromatic_number_exact(g) == chromatic_number_exact(g)

    def test_size_cap(self):
        g = graph_from_edges(MAX_VERTICES + 1, [])
        with pytest.raises(ValueError, match="capped"):
            chromatic_number_exact(g)

    def test_cap_boundary_accepted(self):
        g = graph_from_edges(MAX_VERTICES, [(0, 1)])
        assert chromatic_number_exact(g)[0] == 2


def _same_as_reference(graph: UnitDistanceGraph) -> bool:
    return (
        greedy_clique(graph) == reference_greedy_clique(graph)
        and greedy_coloring(graph) == reference_greedy_coloring(graph)
        and chromatic_number_exact(graph) == reference_chromatic_number(graph)
    )


class TestReferenceIdentity:
    """The bitset solver walks the reference search tree: same answers, witnesses and bounds."""

    @pytest.mark.parametrize(
        "graph,chi",
        [
            (graph_from_edges(9, []), 1),
            (graph_from_edges(1, []), 1),
            (graph_from_edges(64, list(itertools.combinations(range(64), 2))), 64),
            (build_udg(list(spindle_points()), 1e-9), 4),
            (mycielski(4, random.Random(4)), 4),
            (mycielski(5, random.Random(5)), 5),
        ],
        ids=["edgeless", "K1", "K64", "spindle", "relabelled-M4", "relabelled-M5"],
    )
    def test_fixed_graphs(self, graph, chi):
        assert _same_as_reference(graph)
        assert chromatic_number_exact(graph)[0] == chi

    def test_random_graphs(self):
        rng = random.Random(2012)
        for i in range(300):
            graph = random_graph(rng, max_n=40, edge_probability=0.1 + 0.4 * i / 299)
            assert _same_as_reference(graph), f"graph {i}: n={graph.n}, edges={graph.edges}"


class TestIsProper:
    def test_spindle_witness(self):
        g = build_udg(list(spindle_points()), 1e-9)
        _, witness = chromatic_number_exact(g)
        assert is_proper(g, witness)

    def test_length_mismatch(self):
        g = graph_from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            is_proper(g, (0, 1))

    def test_monochromatic_edge_detected(self):
        g = graph_from_edges(2, [(0, 1)])
        assert not is_proper(g, (0, 0))
        assert is_proper(g, (0, 1))


class TestJson:
    def test_points_form_literal(self):
        doc = json.loads('{"points": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386], [2.0, 0.0]], '
                         '"tolerance": 1e-9}')
        g = graph_from_json(doc)
        assert g == build_udg([(0.0, 0.0), (1.0, 0.0), (0.5, 0.8660254037844386), (2.0, 0.0)], 1e-9)
        assert g.edges == ((0, 1), (0, 2), (1, 2), (1, 3))

    def test_abstract_form_literal(self):
        g = graph_from_json(json.loads('{"n": 5, "edges": [[0, 1], [4, 2]]}'))
        assert g == graph_from_edges(5, [(0, 1), (2, 4)])
        assert g.points is None

    def test_points_form_default_tolerance(self):
        g = graph_from_json({"points": [[0.0, 0.0], [1.0, 0.0]]})
        assert g.edges == ((0, 1),)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, 1e-2])
    def test_points_form_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(SchemaError, match="graph.tolerance"):
            graph_from_json({"points": [[0.0, 0.0], [1.0, 0.0]], "tolerance": tolerance})

    @pytest.mark.parametrize("coordinate", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="huge-int")])
    def test_non_finite_point_rejected(self, coordinate):
        with pytest.raises(SchemaError, match=r"points\[1\]\[0\]: expected a finite number"):
            graph_from_json({"points": [[0.0, 0.0], [coordinate, 0.0]]})

    def test_bad_point_position_reported(self):
        with pytest.raises(SchemaError, match=r"points\[1\]"):
            graph_from_json({"points": [[0.0, 0.0], [1.0]]})

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown keys"):
            graph_from_json({"n": 2, "edges": [], "weights": []})

    def test_bad_edge_rejected(self):
        with pytest.raises(SchemaError, match=r"edges\[0\]"):
            graph_from_json({"n": 2, "edges": [[0, "x"]]})

    def test_structural_error_wrapped(self):
        with pytest.raises(SchemaError, match="self-loop"):
            graph_from_json({"n": 2, "edges": [[1, 1]]})
