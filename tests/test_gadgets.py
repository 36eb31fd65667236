import copy
import dataclasses
import itertools
import math
import pickle
import random

import pytest

from annulus_chroma import gadgets
from annulus_chroma.gadgets import (
    GadgetEmbedding,
    GadgetInfeasible,
    ODD_CYCLE_THRESHOLD,
    SPINDLE_EDGES,
    SPINDLE_THRESHOLD,
    TRI_ROD_THRESHOLD,
    embed_moser_spindle,
    embed_odd_cycle,
    embed_rod,
    embed_trirod,
    embedding_to_json,
    gadget_lower_bound,
    margin_of,
    spindle_points,
    trirod_rotation_path,
)
from annulus_chroma.geometry import Annulus, unit_chord_angle
from annulus_chroma.radial import thresholds
from annulus_chroma.udg import build_udg, chromatic_number_exact
from oracles import annulus_contains, reference_odd_cycle

# The same 7-vertex graph under an unrelated labeling: rhombus 0-1-3-2 with
# apex 3, rhombus 0-5-4-6 with apex 4, and the apex-apex edge 3-4.
MOSER_REFERENCE_EDGES = frozenset(
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 5), (0, 6), (5, 6), (4, 5), (4, 6), (3, 4)]
)


def edge_lengths(embedding):
    return [math.dist(embedding.vertices[i], embedding.vertices[j]) for i, j in embedding.edges]


class TestRod:
    def test_example_r_01(self):
        emb = embed_rod(0.1)
        assert emb.params["rho"] == pytest.approx(0.55, abs=0)
        xs = sorted(x for x, _ in emb.vertices)
        assert xs == [-0.5, 0.5]
        for _, y in emb.vertices:
            assert y == pytest.approx(math.sqrt(0.3025 - 0.25), abs=1e-12)

    def test_example_r_001(self):
        emb = embed_rod(0.01)
        assert emb.params["rho"] == pytest.approx(0.505, abs=1e-12)
        assert emb.vertices[1][1] == pytest.approx(math.sqrt(0.255025 - 0.25), abs=1e-9)

    def test_margin_is_half_r(self):
        rng = random.Random(1)
        for _ in range(100):
            r = rng.uniform(1e-4, 0.4999)
            emb = embed_rod(r)
            assert emb.margin == pytest.approx(r / 2.0, abs=1e-12)
            assert emb.margin > 0

    @pytest.mark.parametrize("r", [1e-17, 2.0 ** -54])
    def test_margin_is_zero_where_the_outer_radius_rounds_to_half(self, r):
        emb = embed_rod(r)
        assert emb.margin == 0.0
        assert math.dist(*emb.vertices) == 1.0

    def test_endpoints_at_radius_rho(self):
        emb = embed_rod(0.3)
        for v in emb.vertices:
            assert math.hypot(*v) == pytest.approx(emb.params["rho"], abs=1e-12)


class TestOddCycle:
    def test_example_r_01(self):
        emb = embed_odd_cycle(0.1)
        assert (emb.params["n"], emb.params["w"]) == (3, 1)
        assert emb.params["rho"] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    def test_example_r_001(self):
        emb = embed_odd_cycle(0.01)
        assert (emb.params["n"], emb.params["w"]) == (9, 4)
        assert emb.params["rho"] == pytest.approx(0.50771, abs=1e-5)
        assert Annulus(0.01).inner_radius <= emb.params["rho"] <= Annulus(0.01).outer_radius

    def test_succeeds_on_grid(self):
        for i in range(1000):
            r = 0.001 + i * (0.498 / 999)
            emb = embed_odd_cycle(r)
            assert emb.params["n"] <= 99
            annulus = Annulus(r)
            assert annulus.inner_radius <= emb.params["rho"] <= annulus.outer_radius

    def test_cycle_is_three_chromatic(self):
        for r in (0.005, 0.1, 0.33):
            emb = embed_odd_cycle(r)
            g = build_udg(list(emb.vertices), 1e-9)
            assert set(g.edges) == set(emb.edges)
            assert chromatic_number_exact(g)[0] == 3

    def test_minimal_n_then_minimal_w(self):
        # at r = 0.01 the hits with n <= 9 are only (9, 4); n = 3..7 all miss
        emb = embed_odd_cycle(0.01)
        annulus = Annulus(0.01)
        for n in range(3, emb.params["n"], 2):
            for w in range(1, (n - 1) // 2 + 1):
                if math.gcd(n, w) != 1:
                    continue
                rho = 1.0 / (2.0 * math.sin(math.pi * w / n))
                assert not annulus.inner_radius <= rho <= annulus.outer_radius

    def test_unit_edges(self):
        emb = embed_odd_cycle(0.27)
        for length in edge_lengths(emb):
            assert abs(length - 1.0) <= 1e-9

    def test_matches_reference_search(self):
        # The switch points r_n, where {n/((n-1)/2)} first fits, and the r
        # below ODD_CYCLE_THRESHOLD where 1/2 + r stops rounding up to the
        # 99-gon's radius, each with 20 floats on either side; then r spread
        # over (0, 1/2) and down to the smallest float.
        centres = [1.0 / (2.0 * math.sin(math.pi * ((n - 1) // 2) / n)) - 0.5 for n in range(3, 101, 2)]
        centres.append(ODD_CYCLE_THRESHOLD - math.ulp(0.5) / 2.0)
        rs = []
        for below in centres:
            above = below
            rs.append(below)
            for _ in range(20):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
                rs += [below, above]
        rng = random.Random(99)
        rs += [rng.uniform(0.0, 0.5) for _ in range(35_000)]
        rs += [math.exp(rng.uniform(math.log(1e-4), math.log(0.5))) for _ in range(5_000)]
        rs += [math.exp(rng.uniform(math.log(5e-324), math.log(1e-4))) for _ in range(300)]
        rs += [5e-324, math.nextafter(0.5, 0.0)]
        rs = [r for r in rs if 0.0 < r < 0.5]
        assert len(rs) >= 40_000
        raised = 0
        for r in rs:
            reference = reference_odd_cycle(r)
            if reference is None:
                with pytest.raises(GadgetInfeasible):
                    embed_odd_cycle(r)
                raised += 1
                continue
            emb = embed_odd_cycle(r)
            n, w, rho, vertices = reference
            assert emb.params == {"r": r, "n": n, "w": w, "rho": rho}
            assert emb.vertices == vertices
        assert 300 < raised < 400

    def test_a_start_off_the_bound_moves_to_the_same_n(self, monkeypatch):
        # The first guess at n comes from theta; the loops after it move n
        # down while n - 2 fits and up while n does not.  With theta off by
        # 1e-3 or by 4 ulps either way, the guess lands off the bound and the
        # loops must reach the same cycle.
        rng = random.Random(173)
        rs = [math.exp(rng.uniform(math.log(ODD_CYCLE_THRESHOLD), math.log(0.49))) for _ in range(200)]
        expected = {r: embed_odd_cycle(r) for r in rs}
        moves = {"up": 0, "down": 0}
        for skew in (
            lambda t: t * (1.0 - 1e-3),
            lambda t: t * (1.0 + 1e-3),
            lambda t: t - 4.0 * math.ulp(t),
            lambda t: t + 4.0 * math.ulp(t),
        ):
            monkeypatch.setattr(gadgets, "unit_chord_angle", lambda outer, skew=skew: skew(unit_chord_angle(outer)))
            for r in rs:
                got, want = embed_odd_cycle(r), expected[r]
                assert (got.params["n"], got.vertices, got.margin) == (want.params["n"], want.vertices, want.margin), r
                theta = skew(unit_chord_angle(Annulus(r).outer_radius))
                start = max(3, math.ceil(math.pi / (math.pi - theta))) | 1
                moves["up"] += start < got.params["n"]
                moves["down"] += start > got.params["n"]
        assert moves["up"] > 0 and moves["down"] > 0, moves

    def test_infeasible_below_threshold(self):
        assert ODD_CYCLE_THRESHOLD == pytest.approx(6.294e-5, rel=1e-3)
        assert embed_odd_cycle(ODD_CYCLE_THRESHOLD).params["n"] == 99
        with pytest.raises(GadgetInfeasible) as err:
            embed_odd_cycle(1e-5)
        assert err.value.threshold == ODD_CYCLE_THRESHOLD
        # 1/2 + r rounds to 1/2 here, where no unit chord exists.
        with pytest.raises(GadgetInfeasible):
            embed_odd_cycle(1e-17)
        with pytest.raises(GadgetInfeasible):
            gadget_lower_bound(1e-5)

    def test_message_claims_no_strict_inequality(self):
        # The odd cycle embeds at its threshold, so "only for r > T" would be false.
        assert embed_odd_cycle(ODD_CYCLE_THRESHOLD).params["n"] == 99
        cases = [(embed_odd_cycle, 1e-5, ODD_CYCLE_THRESHOLD), (embed_trirod, 0.05, TRI_ROD_THRESHOLD),
                 (embed_moser_spindle, 0.3, SPINDLE_THRESHOLD)]
        for embed, r, threshold in cases:
            with pytest.raises(GadgetInfeasible) as err:
                embed(r)
            message = str(err.value)
            assert message == f"{err.value.kind} does not embed at r = {r!r}; threshold {threshold!r}"
            assert ">" not in message and "<" not in message


class TestTriRod:
    def test_threshold_matches_table(self):
        assert abs(TRI_ROD_THRESHOLD - thresholds()[0].max_r) <= 1e-12

    def test_feasibility_flip(self):
        with pytest.raises(GadgetInfeasible) as err:
            embed_trirod(TRI_ROD_THRESHOLD)
        assert err.value.threshold == TRI_ROD_THRESHOLD
        with pytest.raises(GadgetInfeasible):
            embed_trirod(TRI_ROD_THRESHOLD - 1e-9)
        emb = embed_trirod(TRI_ROD_THRESHOLD + 1e-9)
        assert emb.margin > 0

    def test_example_r_008(self):
        emb = embed_trirod(0.08)
        for v in emb.vertices:
            assert math.hypot(*v) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert emb.margin == pytest.approx(0.00265, abs=1e-5)

    def test_example_r_03(self):
        emb = embed_trirod(0.3)
        assert emb.margin == pytest.approx(min(0.8 - 1 / math.sqrt(3), 1 / math.sqrt(3) - 0.2), abs=1e-12)

    def test_rotation_path(self):
        assert trirod_rotation_path(0.08)
        assert trirod_rotation_path(0.45)

    def test_rotation_path_infeasible_below_threshold(self):
        with pytest.raises(GadgetInfeasible):
            trirod_rotation_path(0.05)

    def test_floats_just_above_threshold(self):
        # Rounding puts the vertices on the outer circle for the first few
        # floats above the threshold; those must raise, not embed with margin 0.
        r = TRI_ROD_THRESHOLD
        for _ in range(20):
            r = math.nextafter(r, 1.0)
            try:
                emb = embed_trirod(r)
            except GadgetInfeasible:
                assert gadget_lower_bound(r).bound == 3
                continue
            assert emb.margin > 0.0
            outer = Annulus(r).outer_radius
            assert all(math.hypot(x, y) < outer for x, y in emb.vertices)
            assert trirod_rotation_path(r)
            assert gadget_lower_bound(r).bound == 4

    def test_margin_formula(self):
        rng = random.Random(2)
        for _ in range(100):
            r = rng.uniform(TRI_ROD_THRESHOLD + 1e-6, 0.4999)
            emb = embed_trirod(r)
            assert emb.margin == pytest.approx(min(r - TRI_ROD_THRESHOLD, r + TRI_ROD_THRESHOLD), abs=1e-12)


class TestSpindlePoints:
    def test_eleven_unit_distances(self):
        g = build_udg(list(spindle_points()), 1e-9)
        assert g.edges == SPINDLE_EDGES

    def test_degree_sequence(self):
        degrees = [0] * 7
        for i, j in SPINDLE_EDGES:
            degrees[i] += 1
            degrees[j] += 1
        assert sorted(degrees) == [3, 3, 3, 3, 3, 3, 4]

    def test_isomorphic_to_reference_labeling(self):
        mine = frozenset(SPINDLE_EDGES)
        for perm in itertools.permutations(range(7)):
            mapped = frozenset(tuple(sorted((perm[i], perm[j]))) for i, j in mine)
            if mapped == MOSER_REFERENCE_EDGES:
                return
        pytest.fail("canonical spindle is not isomorphic to the reference adjacency")

    def test_exactly_two_unit_rhombi(self):
        # a unit rhombus shows up as a 4-vertex subset inducing 5 unit edges
        edges = set(SPINDLE_EDGES)
        counts = []
        for subset in itertools.combinations(range(7), 4):
            induced = sum(1 for e in itertools.combinations(subset, 2) if tuple(sorted(e)) in edges)
            counts.append(induced)
        assert counts.count(5) == 2
        assert max(counts) == 5  # no K4

    def test_chromatic_number_four(self):
        g = build_udg(list(spindle_points()), 1e-9)
        assert chromatic_number_exact(g)[0] == 4

    def test_apexes_unit_apart(self):
        pts = spindle_points()
        assert math.dist(pts[3], pts[6]) == pytest.approx(1.0, abs=1e-12)
        assert math.hypot(*pts[3]) == pytest.approx(math.sqrt(3.0), abs=1e-12)


class TestSpindleEmbedding:
    def test_below_threshold_infeasible(self):
        for r in (0.1, 0.3, 0.4045, SPINDLE_THRESHOLD):
            with pytest.raises(GadgetInfeasible) as err:
                embed_moser_spindle(r)
            assert err.value.threshold == SPINDLE_THRESHOLD

    def test_example_r_042(self):
        emb = embed_moser_spindle(0.42)
        assert emb.margin > 0
        assert len(emb.vertices) == 7
        assert len(emb.edges) == 11
        for length in edge_lengths(emb):
            assert abs(length - 1.0) <= 1e-9
        assert margin_of(emb.vertices, Annulus(0.42)) == pytest.approx(emb.margin, abs=1e-12)

    def test_near_threshold(self):
        r = SPINDLE_THRESHOLD + 0.005
        emb = embed_moser_spindle(r)
        assert emb.margin > 0
        # the best possible clearance is r minus the threshold
        assert emb.margin <= r - SPINDLE_THRESHOLD + 1e-9

    def test_margin_close_to_optimum(self):
        for k in range(60):
            r = SPINDLE_THRESHOLD + 1e-9 + k * (0.4999 - SPINDLE_THRESHOLD) / 59
            emb = embed_moser_spindle(r)
            assert emb.margin == pytest.approx(r - SPINDLE_THRESHOLD, abs=1e-12)

    def test_margin_is_the_clearance_up_to_rounding(self):
        # In floats the margin misses r - SPINDLE_THRESHOLD on many r, but by less than 1e-16.
        rng = random.Random(18)
        for _ in range(5000):
            r = rng.uniform(math.nextafter(SPINDLE_THRESHOLD, 1.0), math.nextafter(0.5, 0.0))
            assert abs(embed_moser_spindle(r).margin - (r - SPINDLE_THRESHOLD)) <= 1e-16

    def test_embedded_graph_is_spindle(self):
        emb = embed_moser_spindle(0.45)
        g = build_udg(list(emb.vertices), 1e-9)
        assert g.edges == SPINDLE_EDGES
        assert chromatic_number_exact(g)[0] == 4

    def test_deterministic(self):
        assert embed_moser_spindle(0.43) == embed_moser_spindle(0.43)

    def test_vertices_inside_annulus(self):
        annulus = Annulus(0.42)
        emb = embed_moser_spindle(0.42)
        for v in emb.vertices:
            assert annulus.inner_radius + 1e-9 < math.hypot(*v) < annulus.outer_radius - 1e-9


class TestLowerBound:
    def test_band_one_only_cycle(self):
        result = gadget_lower_bound(0.05)
        assert result.bound == 3
        assert [name for name, _ in result.certificates] == ["odd_cycle"]

    def test_trirod_band(self):
        result = gadget_lower_bound(0.1)
        assert result.bound == 4
        assert [name for name, _ in result.certificates] == ["odd_cycle", "tri_rod"]

    def test_all_gadgets(self):
        result = gadget_lower_bound(0.42)
        assert result.bound == 4
        assert [name for name, _ in result.certificates] == ["odd_cycle", "tri_rod", "moser_spindle"]

    def test_certificates_are_valid_embeddings(self):
        result = gadget_lower_bound(0.42)
        annulus = Annulus(0.42)
        for _, emb in result.certificates:
            for length in edge_lengths(emb):
                assert abs(length - 1.0) <= 1e-9
            for v in emb.vertices:
                assert annulus_contains(annulus, v)


def _unit_pair_rs():
    """A seeded sweep of r, and 4 floats either side of each threshold and odd-cycle switch point."""
    rng = random.Random(22)
    rs = [rng.uniform(1e-9, 0.4999) for _ in range(200)] + [10.0 ** rng.uniform(-5.0, -0.302) for _ in range(200)]
    switches = [1.0 / (2.0 * math.sin(math.pi * ((n - 1) // 2) / n)) - 0.5 for n in range(5, 101, 2)]
    for threshold in [ODD_CYCLE_THRESHOLD, TRI_ROD_THRESHOLD, SPINDLE_THRESHOLD] + switches:
        below = above = threshold
        rs.append(threshold)
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            rs += [below, above]
    return rs


class TestEdgesAreTheUnitPairs:
    """An embedding's edges follow from its kind; build_udg finds exactly them from its vertices."""

    @pytest.mark.parametrize("embed", [embed_rod, embed_odd_cycle, embed_trirod, embed_moser_spindle])
    def test_each_embedder(self, embed):
        embedded = 0
        for r in _unit_pair_rs():
            try:
                emb = embed(r)
            except GadgetInfeasible:
                continue
            assert build_udg(emb.vertices).edges == emb.edges, r
            embedded += 1
        assert embedded >= 20

    def test_every_lower_bound_certificate(self):
        kinds = set()
        for r in _unit_pair_rs():
            try:
                certificates = gadget_lower_bound(r).certificates
            except GadgetInfeasible:
                continue
            for kind, emb in certificates:
                assert build_udg(emb.vertices).edges == emb.edges, (kind, r)
                kinds.add(kind)
        assert kinds == {"odd_cycle", "tri_rod", "moser_spindle"}


class TestEmbeddingType:
    def test_non_unit_edge_rejected(self):
        with pytest.raises(ValueError, match=r"rod edge \(0, 1\) has length 0.5, not 1"):
            GadgetEmbedding("rod", {}, ((0.0, 0.0), (0.5, 0.0)), 0.1)

    def test_wrong_shape_rejected(self):
        # Unit steps, but a rod has two vertices.
        with pytest.raises(ValueError, match="rod needs 2 vertices, got 3"):
            GadgetEmbedding("rod", {}, ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), 0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gadget kind 'hexagon'"):
            GadgetEmbedding("hexagon", {}, ((0.0, 0.0), (1.0, 0.0)), 0.1)

    def test_even_cycle_rejected(self):
        square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="odd_cycle needs an odd vertex count >= 3, got 4"):
            GadgetEmbedding("odd_cycle", {}, square, 0.1)

    @pytest.mark.parametrize(
        "kind, vertices, edge",
        [
            # Vertex 2 moved to 1 right of vertex 0: edge (1, 2) is sqrt(3) long.
            ("tri_rod", embed_trirod(0.1).vertices[:2] + ((1.0, 1.0 / math.sqrt(3.0)),), (1, 2)),
            # Apex 6 folded onto the hub: its rhombus edges stay unit, the apex edge is sqrt(3) long.
            ("moser_spindle", spindle_points()[:6] + spindle_points()[:1], (3, 6)),
            # The unit 5-cycle at r = 0.05 with vertices 1 and 2 swapped: its unit pairs skip index 1.
            ("odd_cycle", tuple(embed_odd_cycle(0.05).vertices[k] for k in (0, 2, 1, 3, 4)), (0, 1)),
        ],
        ids=["tri_rod-two-edges", "spindle-ten-edges", "cycle-skipping-an-index"],
    )
    def test_partial_shape_rejected(self, kind, vertices, edge):
        # The right vertex count, but the unit pairs miss an edge of the kind.
        assert edge not in build_udg(vertices).edges
        with pytest.raises(ValueError, match=rf"{kind} edge \({edge[0]}, {edge[1]}\) has length"):
            GadgetEmbedding(kind, {}, vertices, 0.1)

    @pytest.mark.parametrize("coordinate", [math.nan, math.inf])
    def test_edge_to_non_finite_vertex_rejected(self, coordinate):
        with pytest.raises(ValueError, match="point 1 must have finite coordinates"):
            GadgetEmbedding("rod", {}, ((0.0, 0.0), (coordinate, 0.0)), 0.1)

    def test_edges_follow_from_the_kind(self):
        assert [f.name for f in dataclasses.fields(GadgetEmbedding) if f.init] == ["kind", "params", "vertices", "margin"]
        assert GadgetEmbedding("tri_rod", {}, embed_trirod(0.1).vertices, 0.1).edges == ((0, 1), (0, 2), (1, 2))
        with pytest.raises(TypeError):
            GadgetEmbedding("rod", {}, ((0.0, 0.0), (1.0, 0.0)), ((0, 1),), 0.1)

    def test_hashable_and_equal_by_value(self):
        assert hash(embed_rod(0.1)) == hash(embed_rod(0.1))
        assert len({embed_rod(0.1), embed_rod(0.1), embed_moser_spindle(0.45), embed_moser_spindle(0.45)}) == 2
        vertices = embed_rod(0.1).vertices
        # params is left out of the hash, not out of equality
        a, b = GadgetEmbedding("rod", {"r": 0.1}, vertices, 0.1), GadgetEmbedding("rod", {"r": 0.2}, vertices, 0.1)
        assert hash(a) == hash(b) and a != b

    def test_params_refuse_mutation(self):
        e = embed_moser_spindle(0.45)
        with pytest.raises(TypeError):
            e.params["r"] = 9
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.params = {}
        assert e.params["r"] == 0.45 and type(e.params["translation"]) is tuple
        # a read-only copy: the caller's dict and its nested lists stay theirs
        params = {"r": 0.1, "xs": [1.0, [2.0]]}
        e = GadgetEmbedding("rod", params, embed_rod(0.1).vertices, 0.1)
        params["r"] = 9
        params["xs"][1].append(3.0)
        assert e.params == {"r": 0.1, "xs": (1.0, (2.0,))}
        assert embedding_to_json(e)["params"] == {"r": 0.1, "xs": [1.0, [2.0]]}

    def test_pickle_and_copy_round_trip(self):
        for e in (embed_rod(0.1), embed_odd_cycle(0.05), embed_moser_spindle(0.45)):
            for twin in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e), copy.copy(e)):
                assert twin == e and twin.edges == e.edges and type(twin.params) is type(e.params)

    def test_json_params_keep_their_lists(self):
        d = embedding_to_json(embed_moser_spindle(0.45))
        assert type(d["params"]) is dict and type(d["params"]["translation"]) is list
        assert d["params"] == {"r": 0.45, "rotation": 0.0, "translation": [-3.0 / math.sqrt(11.0), 0.0]}
