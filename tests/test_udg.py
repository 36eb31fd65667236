import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_chroma.gadgets import SPINDLE_EDGES, embed_odd_cycle, spindle_points
from annulus_chroma.schema import SchemaError
from annulus_chroma.udg import (
    MAX_VERTICES,
    UnitDistanceGraph,
    build_udg,
    chromatic_number_exact,
    graph_from_json,
    greedy_clique,
    greedy_coloring,
    is_proper,
)
from oracles import (
    brute_chromatic,
    brute_colorable,
    load_outcome,
    mycielski,
    random_graph,
    reference_chromatic_number,
    reference_graph_from_json,
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
        points = [(0.0, 0.0), (1.0, 0.0), (coordinate, 0.0)]
        # A list of tuples meets the bulk pass, a numpy array the point-by-point checks.
        for given_points in (points, np.array(points)):
            with pytest.raises(ValueError, match=r"point 2 must have finite coordinates, got \("):
                build_udg(given_points)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0])
    def test_tolerance_refused_before_the_points_are_read(self, tolerance):
        # The tolerance used to be refused only after the quadratic pass over the points.
        with pytest.raises(ValueError, match=f"tolerance must be finite and nonnegative, got {tolerance}"):
            build_udg([(0.0, 0.0), ("x", 0.0)], tolerance)

    def test_tolerance_widens_detection(self):
        pts = [(0.0, 0.0), (1.0005, 0.0)]
        assert build_udg(pts, 1e-9).edges == ()
        assert build_udg(pts, 1e-3).edges == ((0, 1),)

    @pytest.mark.parametrize(
        "points, message",
        [
            ([("0", "0"), ("1", True)], "point 0 must be a pair of real numbers, got ('0', '0')"),
            ([(0.0, 0.0), (1, True)], "point 1 must be a pair of real numbers, got (1, True)"),
            ([(0.0, 0.0), [False, 0.0]], "point 1 must be a pair of real numbers, got [False, 0.0]"),
            ([(0.0, 0.0), (None, 0.0)], "point 1 must be a pair of real numbers, got (None, 0.0)"),
            ([(0.0, 0.0), (1.0, 0.0, 0.0)], "point 1 must be a pair of real numbers, got (1.0, 0.0, 0.0)"),
            ([(0.0, 0.0), 5], "point 1 must be a pair of real numbers, got 5"),
            ([(0.0, 0.0), "ab"], "point 1 must be a pair of real numbers, got 'ab'"),
            ([(0.0, 0.0), (10**400, 0)], "point 1 must have finite coordinates, got an integer too large for a float"),
        ],
        ids=["strings", "bool", "late-bool-list", "none", "triple", "int", "string", "huge-int"],
    )
    def test_non_number_coordinate_rejected(self, points, message):
        # float() used to parse "0" and read True as 1.0, so these built graphs.
        with pytest.raises(ValueError) as exc:
            build_udg(points)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            UnitDistanceGraph(len(points), [], points)
        assert str(exc.value) == message

    def test_numpy_and_integer_coordinates_accepted(self):
        expected = build_udg([(0.0, 0.0), (1.0, 0.0)])
        assert build_udg([(0, 0), [1, 0]]) == expected
        assert build_udg(np.array([[0.0, 0.0], [1.0, 0.0]])) == expected
        assert all(type(c) is float for p in build_udg(np.array([[0, 0], [1, 0]])).points for c in p)


class TestGraphStructure:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            UnitDistanceGraph(3, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            UnitDistanceGraph(3, [(0, 1), (1, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            UnitDistanceGraph(3, [(0, 3)])

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
            UnitDistanceGraph(0, [])

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True])
    def test_non_integer_vertex_count_rejected(self, n):
        # A float count would build and then fail inside the solver.
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            UnitDistanceGraph(n, [(0, 1)])

    def test_edge_length_validated_when_points_given(self):
        with pytest.raises(ValueError):
            UnitDistanceGraph(2, ((0, 1),), ((0.0, 0.0), (0.5, 0.0)), 1e-9)
        with pytest.raises(ValueError, match="expected 3 points, got 2"):
            UnitDistanceGraph(3, ((0, 1),), ((0.0, 0.0), (1.0, 0.0)), 1e-9)

    @pytest.mark.parametrize("n", [3, MAX_VERTICES + 1])
    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1.5)], "edge (0, 1.5) is not a pair of integer vertex indices"),
            ([(0, 2.0)], "edge (0, 2.0) is not a pair of integer vertex indices"),
            ([(True, 2)], "edge (True, 2) is not a pair of integer vertex indices"),
            ([(0, 1), [2, False]], "edge [2, False] is not a pair of integer vertex indices"),
            (["ab"], "edge 'ab' is not a pair of integer vertex indices"),
            ([(0, None)], "edge (0, None) is not a pair of integer vertex indices"),
            ([(0, 1, 2)], "edge (0, 1, 2) is not a pair of integer vertex indices"),
            ([5], "edge 5 is not a pair of integer vertex indices"),
        ],
        ids=["float", "integral-float", "bool", "late-bool", "string", "none", "triple", "int"],
    )
    def test_non_integer_edge_rejected(self, n, edges, message):
        # Such an edge used to be stored, and the solver then raised TypeError.
        with pytest.raises(ValueError) as exc:
            UnitDistanceGraph(n, edges)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: UnitDistanceGraph(3, 5), "edges must be an iterable of vertex pairs, got 5"),
            (lambda: UnitDistanceGraph(MAX_VERTICES + 1, None), "edges must be an iterable of vertex pairs, got None"),
            (lambda: UnitDistanceGraph(2, [], 5), "points must be an iterable of (x, y) pairs, got 5"),
            (lambda: build_udg(5), "points must be an iterable of (x, y) pairs, got 5"),
        ],
        ids=["edges", "edges-oversize", "points", "build-points"],
    )
    def test_non_iterable_list_rejected(self, make, message):
        # These raised TypeError: "'int' object is not iterable".
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    def test_numpy_integer_edges_stored_as_ints(self):
        g = UnitDistanceGraph(3, np.array([[2, 0], [1, 2]]))
        assert g.edges == ((0, 2), (1, 2))
        assert all(type(i) is int for edge in g.edges for i in edge)

    def test_edges_canonicalized(self):
        g = UnitDistanceGraph(4, [(3, 1), (2, 0)])
        assert g.edges == ((0, 2), (1, 3))

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
    @pytest.mark.parametrize("form", ["list", "tuple", "numpy", "generator"])
    def test_bitsets_and_edges_across_the_solver_cap(self, n, form):
        rng = random.Random(n)
        pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if j == n - 1 or rng.random() < 0.3]
        masks = [0] * n
        for i, j in pairs:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        canonical = UnitDistanceGraph(n, sorted(pairs))
        for _ in range(3):
            given = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in pairs]
            rng.shuffle(given)
            if form == "list":
                given = [list(e) for e in given]
            elif form == "tuple":
                given = tuple(given)
            elif form == "numpy":
                given = np.array(given, dtype=np.int64).reshape(-1, 2)
            else:
                given = (e for e in given)
            g = UnitDistanceGraph(n, given)
            assert g.edges == tuple(sorted(pairs))
            assert all(type(i) is int for edge in g.edges for i in edge)
            assert g.masks == tuple(masks)
            assert g == canonical and hash(g) == hash(canonical)


class TestChromaticNumber:
    def test_odd_cycle(self):
        c5 = UnitDistanceGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        chi, witness = chromatic_number_exact(c5)
        assert chi == 3
        assert is_proper(c5, witness)

    def test_complete_graph(self):
        k4 = UnitDistanceGraph(4, list(itertools.combinations(range(4), 2)))
        assert chromatic_number_exact(k4)[0] == 4

    def test_single_vertex(self):
        g = UnitDistanceGraph(1, [])
        chi, witness = chromatic_number_exact(g)
        assert (chi, witness) == (1, (0,))
        assert is_proper(g, witness)

    def test_bipartite(self):
        g = UnitDistanceGraph(6, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)])
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
        g = UnitDistanceGraph(MAX_VERTICES + 1, [])
        with pytest.raises(ValueError, match="capped"):
            chromatic_number_exact(g)

    def test_cap_boundary_accepted(self):
        g = UnitDistanceGraph(MAX_VERTICES, [(0, 1)])
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
            (UnitDistanceGraph(9, []), 1),
            (UnitDistanceGraph(1, []), 1),
            (UnitDistanceGraph(64, list(itertools.combinations(range(64), 2))), 64),
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

    def test_random_graphs_near_the_cap(self):
        # Deep searches on many vertices, where choosing among many
        # uncolored vertices at each node is where the solver spends its time.
        rng = random.Random(2013)
        for i in range(30):
            n = 48 + 16 * i // 29
            graph = _gnp(rng, n, 0.08 + 0.17 * i / 29)
            assert _same_as_reference(graph), f"graph {i}: n={graph.n}, edges={graph.edges}"

    def test_hard_dense_graph(self):
        # Built as the benchmark's fixed hard G(64, 0.25) is built from its draw 16.
        graph = _gnp(random.Random(16), 64, 0.25)
        assert _same_as_reference(graph)
        assert chromatic_number_exact(graph)[0] == 7

    def test_tie_on_saturation_and_degree_goes_to_the_lower_index(self):
        # After the hub 0, vertices 1 to 4 all see one color; 2 and 4 lead
        # on degree and tie, so 2 is colored next and 4 takes a third color.
        graph = UnitDistanceGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 4)])
        assert greedy_coloring(graph) == (0, 1, 1, 1, 2)
        assert _same_as_reference(graph)


def _gnp(rng: random.Random, n: int, p: float) -> UnitDistanceGraph:
    return UnitDistanceGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


class TestIsProper:
    def test_spindle_witness(self):
        g = build_udg(list(spindle_points()), 1e-9)
        _, witness = chromatic_number_exact(g)
        assert is_proper(g, witness)

    def test_length_mismatch(self):
        g = UnitDistanceGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            is_proper(g, (0, 1))

    def test_monochromatic_edge_detected(self):
        g = UnitDistanceGraph(2, [(0, 1)])
        assert not is_proper(g, (0, 0))
        assert is_proper(g, (0, 1))


_JUNK_INDEX = st.one_of(st.integers(-2, 3), st.booleans(), st.floats(), st.text(max_size=1), st.none())


@st.composite
def graph_documents(draw):
    """Abstract-form documents: a simple graph with up to two junk edges inserted, rarely as a tuple."""
    n = draw(st.integers(1, MAX_VERTICES + 6) if draw(st.integers(0, 9)) else st.sampled_from([0, -1, True, 2.5, "3"]))
    top = n if type(n) is int and n > 1 else 2
    index = st.integers(0, top - 1)
    pairs = draw(st.lists(st.tuples(index, index).filter(lambda p: p[0] != p[1]),
                          unique_by=frozenset, max_size=40))
    edges = [list(p) for p in pairs]
    junk = st.one_of(
        st.lists(st.integers(-1, top), min_size=2, max_size=2),  # out of range or a self-loop
        st.lists(st.one_of(index, _JUNK_INDEX), min_size=2, max_size=2),
        st.lists(index, max_size=3),
        st.tuples(index, index),
        st.sampled_from(edges) if edges else st.none(),  # a duplicate, in its order or reversed
        st.sampled_from(edges).map(lambda e: e[::-1]) if edges else st.none(),
        _JUNK_INDEX,
    )
    for _ in range(draw(st.integers(0, 2))):
        edges.insert(draw(st.integers(0, len(edges))), draw(junk))
    return {"n": n, "edges": edges if draw(st.integers(0, 19)) != 10 else tuple(edges)}


_COORDINATE = st.one_of(st.sampled_from([0, 1, 2, -1, 0.0, 0.5, 1.0]), st.floats(-3.0, 3.0))
_JUNK_COORDINATE = st.one_of(st.booleans(), st.text(max_size=1), st.none(),
                             st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**309]))


@st.composite
def point_documents(draw):
    """Geometric-form documents: up to eight points with up to two junk points inserted, sometimes a tolerance."""
    points = draw(st.lists(st.lists(_COORDINATE, min_size=2, max_size=2), max_size=8))
    junk = st.one_of(
        st.lists(st.one_of(_COORDINATE, _JUNK_COORDINATE), min_size=2, max_size=2),
        st.lists(_COORDINATE, max_size=3),
        st.tuples(_COORDINATE, _COORDINATE),
        _JUNK_COORDINATE,
    )
    for _ in range(draw(st.integers(0, 2))):
        points.insert(draw(st.integers(0, len(points))), draw(junk))
    doc = {"points": points}
    if draw(st.booleans()):
        doc["tolerance"] = draw(st.sampled_from([1e-9, 1e-6, 0.0, True]))
    return doc


class TestJson:
    @given(doc=graph_documents())
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_as_the_element_by_element_loader(self, doc):
        assert load_outcome(graph_from_json, doc) == load_outcome(reference_graph_from_json, doc)

    @given(doc=point_documents())
    @settings(max_examples=300, deadline=None)
    def test_points_same_outcome_as_the_point_by_point_loader(self, doc):
        assert load_outcome(graph_from_json, doc) == load_outcome(reference_graph_from_json, doc)

    def test_points_form_literal(self):
        doc = json.loads('{"points": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386], [2.0, 0.0]], '
                         '"tolerance": 1e-9}')
        g = graph_from_json(doc)
        assert g == build_udg([(0.0, 0.0), (1.0, 0.0), (0.5, 0.8660254037844386), (2.0, 0.0)], 1e-9)
        assert g.edges == ((0, 1), (0, 2), (1, 2), (1, 3))

    def test_abstract_form_literal(self):
        g = graph_from_json(json.loads('{"n": 5, "edges": [[0, 1], [4, 2]]}'))
        assert g == UnitDistanceGraph(5, [(0, 1), (2, 4)])
        assert g.points is None

    def test_points_form_default_tolerance(self):
        g = graph_from_json({"points": [[0.0, 0.0], [1.0, 0.0]]})
        assert g.edges == ((0, 1),)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, 1e-2, 1e-16])
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

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({1: 5}, "graph.points[1]: expected a list, got int"),
            ({1: (1.0, 0.0)}, "graph.points[1]: expected a list, got tuple"),
            ({1: [1.0]}, "graph.points[1]: expected [x, y], got 1 entries"),
            ({1: [1.0, 0.0, 0.0]}, "graph.points[1]: expected [x, y], got 3 entries"),
            ({1: [True, 0.0]}, "graph.points[1][0]: expected a number, got bool"),
            ({1: [1.0, "0"]}, "graph.points[1][1]: expected a number, got str"),
            ({1: [None, 0.0]}, "graph.points[1][0]: expected a number, got NoneType"),
            ({1: [math.nan, 0.0]}, "graph.points[1][0]: expected a finite number, got nan"),
            ({1: [1.0, math.inf]}, "graph.points[1][1]: expected a finite number, got inf"),
            ({1: [-math.inf, 0.0]}, "graph.points[1][0]: expected a finite number, got -inf"),
            ({1: [10**400, 0.0]}, "graph.points[1][0]: expected a finite number, got an integer too large for a float"),
            ({1: [1, -10**309]}, "graph.points[1][1]: expected a finite number, got an integer too large for a float"),
            # Several bad points: the first one is named, whatever its kind.
            ({1: [1.0, "x"], 3: 7}, "graph.points[1][1]: expected a number, got str"),
            ({2: [1.0], 3: [math.nan, 0.0]}, "graph.points[2]: expected [x, y], got 1 entries"),
            ({0: [0.0, math.inf], 2: [False, 1.0]}, "graph.points[0][1]: expected a finite number, got inf"),
        ],
    )
    def test_bad_point_message(self, changes, message):
        points = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.25], [2, 1]]
        for index, value in changes.items():
            points[index] = value
        with pytest.raises(SchemaError) as exc:
            graph_from_json({"points": points})
        assert str(exc.value) == message

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown keys"):
            graph_from_json({"n": 2, "edges": [], "weights": []})

    def test_bad_edge_rejected(self):
        with pytest.raises(SchemaError, match=r"edges\[0\]"):
            graph_from_json({"n": 2, "edges": [[0, "x"]]})

    def test_structural_error_wrapped(self):
        with pytest.raises(SchemaError, match="self-loop"):
            graph_from_json({"n": 2, "edges": [[1, 1]]})

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({3: 5}, "graph.edges[3]: expected a list, got int"),
            ({3: (3, 4)}, "graph.edges[3]: expected a list, got tuple"),
            ({3: [3]}, "graph.edges[3]: expected [i, j], got 1 entries"),
            ({3: [3, 4, 5]}, "graph.edges[3]: expected [i, j], got 3 entries"),
            ({3: [True, 4]}, "graph.edges[3][0]: expected an integer, got bool"),
            ({3: [3, 4.0]}, "graph.edges[3][1]: expected an integer, got float"),
            ({3: ["3", 4]}, "graph.edges[3][0]: expected an integer, got str"),
            ({3: [-1, 4]}, "graph: edge (-1, 4) out of range for n=6"),
            ({3: [3, 6]}, "graph: edge (3, 6) out of range for n=6"),
            ({3: [4, 4]}, "graph: self-loop at vertex 4"),
            ({3: [1, 2]}, "graph: duplicate edge (1, 2)"),
            ({3: [2, 1]}, "graph: duplicate edge (1, 2)"),
            # Several bad edges: every edge passes the schema before any is
            # checked against n, and each kind reports its first offender.
            ({2: [2, 9], 3: [3, "x"]}, "graph.edges[3][1]: expected an integer, got str"),
            ({2: [1.5, True], 4: []}, "graph.edges[2][0]: expected an integer, got float"),
            ({1: [7, 7], 3: [9, 0]}, "graph: self-loop at vertex 7"),
            ({1: [0, 9], 3: [3, 3]}, "graph: edge (0, 9) out of range for n=6"),
            ({1: [1, 0], 3: [4, 4]}, "graph: duplicate edge (0, 1)"),
        ],
    )
    def test_bad_edge_message(self, changes, message):
        edges = [[i, i + 1] for i in range(5)]
        for index, value in changes.items():
            edges[index] = value
        with pytest.raises(SchemaError) as exc:
            graph_from_json({"n": 6, "edges": edges})
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"n": 3, "edges": {"0": [0, 1]}}, "graph.edges: expected a list, got dict"),
            ({"n": True, "edges": []}, "graph.n: expected an integer, got bool"),
            ({"n": 0, "edges": []}, "graph: graph needs at least one vertex, got n=0"),
        ],
    )
    def test_bad_document_message(self, doc, message):
        with pytest.raises(SchemaError) as exc:
            graph_from_json(doc)
        assert str(exc.value) == message

    def test_large_graph_accepted(self):
        g = graph_from_json({"n": MAX_VERTICES + 6, "edges": [[MAX_VERTICES + 5, 0], [3, MAX_VERTICES + 1], [2, 1]]})
        assert g.edges == ((0, MAX_VERTICES + 5), (1, 2), (3, MAX_VERTICES + 1))
