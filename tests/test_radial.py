import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_chroma.geometry import Annulus, TWO_PI, unit_chord_angle
from annulus_chroma.radial import (
    RadialColoring,
    Threshold,
    coloring_from_json,
    coloring_to_json,
    construct_radial_coloring,
    radial_chromatic_number,
    thresholds,
    verify_radial_coloring,
)
from annulus_chroma.schema import SchemaError
from oracles import random_proper_radial_coloring, random_radial_coloring


class TestRadialChromaticNumber:
    @pytest.mark.parametrize("r,expected", [(0.05, 3), (0.1, 4), (0.3, 5), (0.4, 6), (0.499, 6)])
    def test_values(self, r, expected):
        assert radial_chromatic_number(r) == expected

    def test_exact_threshold_is_closed(self):
        t4 = (2.0 - math.sqrt(2.0)) / (2.0 * math.sqrt(2.0))
        # theta is exactly pi/2 here, so 2*pi/theta = 4 and the band is closed.
        assert unit_chord_angle(0.5 + t4) == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert radial_chromatic_number(t4) == 4

    @pytest.mark.parametrize("r", [0.0, 0.5, -0.2, 1.0])
    def test_domain(self, r):
        with pytest.raises(ValueError):
            radial_chromatic_number(r)

    def test_nondecreasing_and_in_range(self):
        previous = 3
        for i in range(10_000):
            r = 0.001 + i * (0.498 / 9_999)
            n = radial_chromatic_number(r)
            assert 3 <= n <= 6
            assert n >= previous
            previous = n

    def test_threshold_exactness(self):
        for t in thresholds():
            if t.colors == 6:
                assert radial_chromatic_number(0.4999999) == 6
                continue
            assert radial_chromatic_number(t.max_r) == t.colors
            assert radial_chromatic_number(t.max_r + 1e-6) == t.colors + 1

    def test_construction_proper_around_thresholds(self):
        # N(r) snaps only rounding error to the smaller count, so the N-sector
        # construction holds at every tolerance just above a threshold too.
        # Each threshold, the 300 floats on either side and T +- 10**-k.
        rng = random.Random(17)
        rs = [rng.uniform(1e-6, 0.5 - 1e-6) for _ in range(300)]
        for t in (row.max_r for row in thresholds()[:3]):
            below = above = t
            rs.append(t)
            for _ in range(300):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
                rs += [below, above]
            rs += [t + sign * 10.0 ** -k for k in range(6, 15) for sign in (-1.0, 1.0)]
        for r in rs:
            c = construct_radial_coloring(r)
            for tolerance in (1e-9, 1e-12, 1e-14):
                assert verify_radial_coloring(c, tolerance).proper, (r, tolerance)


class TestThresholds:
    def test_exact_expressions(self):
        rows = thresholds()
        assert [t.colors for t in rows] == [3, 4, 5, 6]
        assert rows[0].max_r == (2.0 - math.sqrt(3.0)) / (2.0 * math.sqrt(3.0))
        assert rows[1].max_r == (2.0 - math.sqrt(2.0)) / (2.0 * math.sqrt(2.0))
        assert rows[2].max_r == -0.5 + math.sqrt(2.0 / (5.0 - math.sqrt(5.0)))
        assert rows[3].max_r == 0.5

    def test_decimal_values(self):
        rows = thresholds()
        assert rows[0].max_r == pytest.approx(0.0773503, abs=1e-7)
        assert rows[1].max_r == pytest.approx(0.2071068, abs=1e-7)
        assert rows[2].max_r == pytest.approx(0.3506508, abs=1e-7)

    def test_consistency_with_theta(self):
        for t in thresholds():
            outer = 0.5 + t.max_r if t.colors < 6 else 1.0  # N=6 holds in the limit r -> 1/2
            assert TWO_PI / unit_chord_angle(outer) == pytest.approx(t.colors, abs=1e-9)

    def test_strictly_increasing(self):
        rows = thresholds()
        assert all(rows[i].max_r < rows[i + 1].max_r for i in range(3))


class TestConstruct:
    def test_three_coloring_at_threshold(self):
        t3 = thresholds()[0].max_r
        c = construct_radial_coloring(t3)
        assert c.n == 3
        assert sorted(c.sector_colors) == [0, 1, 2]
        for i in range(3):
            assert c.sector_width(i) == pytest.approx(TWO_PI / 3.0, abs=1e-9)
        assert verify_radial_coloring(c).proper

    def test_four_coloring_at_threshold(self):
        t4 = thresholds()[1].max_r
        c = construct_radial_coloring(t4)
        assert c.n == 4
        for i in range(4):
            assert c.sector_width(i) == pytest.approx(math.pi / 2.0, abs=1e-9)
        assert verify_radial_coloring(c).proper

    def test_example_r_01(self):
        c = construct_radial_coloring(0.1)
        theta = unit_chord_angle(0.6)
        assert c.n == 4
        assert list(c.boundaries) == pytest.approx([0.0, theta, 2 * theta, 3 * theta])
        assert c.sector_width(3) == pytest.approx(TWO_PI - 3 * theta, abs=1e-12)
        assert c.sector_width(3) == pytest.approx(0.37252, abs=1e-4)
        assert verify_radial_coloring(c).proper

    def test_boundary_takes_clockwise_sector_color(self):
        c = construct_radial_coloring(0.1)
        n = c.n
        assert c.boundary_colors[0] == n - 1
        for k in range(1, n):
            assert c.boundary_colors[k] == k - 1

    def test_round_trip_uses_exact_color_count(self):
        rng = random.Random(5)
        for _ in range(60):
            r = rng.uniform(0.001, 0.499)
            c = construct_radial_coloring(r)
            assert verify_radial_coloring(c).proper
            assert len(c.colors_used()) == radial_chromatic_number(r)

    def test_leftover_width_in_range(self):
        rng = random.Random(6)
        for _ in range(200):
            r = rng.uniform(0.001, 0.499)
            c = construct_radial_coloring(r)
            theta = unit_chord_angle(0.5 + r)
            leftover = c.sector_width(c.n - 1)
            assert 0.0 < leftover <= theta + 1e-9


class TestVerify:
    def test_three_equal_sectors_improper(self):
        c = RadialColoring(
            Annulus(0.1), (0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0), (0, 1, 2), (0, 1, 2)
        )
        verdict = verify_radial_coloring(c)
        assert not verdict.proper
        p, q = verdict.witness
        assert abs(math.dist(p, q) - 1.0) <= 1e-9
        # a 120-degree sector at outer radius 0.6 spans chords through 1
        assert verdict.piece_labels == ("sector 0", "sector 0")

    def test_two_colorings_improper(self):
        rng = random.Random(11)
        for _ in range(50):
            c = random_radial_coloring(rng, 0.1, n_colors=2)
            verdict = verify_radial_coloring(c)
            assert not verdict.proper
            p, q = verdict.witness
            assert abs(math.dist(p, q) - 1.0) <= 1e-9

    def test_single_boundary_always_improper(self):
        for r in (0.01, 0.2, 0.45):
            c = RadialColoring(Annulus(r), (1.0,), (0,), (1,))
            verdict = verify_radial_coloring(c)
            assert not verdict.proper

    def test_witness_points_share_color_class(self):
        rng = random.Random(13)
        for _ in range(40):
            r = rng.uniform(0.02, 0.48)
            n_colors = max(2, radial_chromatic_number(r) - 1)
            c = random_radial_coloring(rng, r, n_colors)
            verdict = verify_radial_coloring(c)
            if verdict.proper:
                continue
            p, q = verdict.witness
            pieces = {label: (region, color) for label, region, color in c.pieces()}
            region1, color1 = pieces[verdict.piece_labels[0]]
            region2, color2 = pieces[verdict.piece_labels[1]]
            assert color1 == color2 == verdict.color
            assert region1.contains(p)
            assert region2.contains(q)

    def test_rejection_sampling_oracle(self):
        # No random same-color pair in the constructed coloring may sit near
        # distance 1: a million draws, all at least 1e-6 away.
        c = construct_radial_coloring(0.1)
        rng = np.random.default_rng(20240817)
        n = 1_000_000
        sector = rng.integers(0, c.n, size=2 * n)
        starts = np.array([c.boundaries[i] for i in range(c.n)])
        widths = np.array([c.sector_width(i) for i in range(c.n)])
        phi = starts[sector] + rng.random(2 * n) * widths[sector]
        rho = rng.uniform(c.annulus.inner_radius, c.annulus.outer_radius, size=2 * n)
        xs = rho * np.cos(phi)
        ys = rho * np.sin(phi)
        same = sector[:n] == sector[n:]
        dx = xs[:n] - xs[n:]
        dy = ys[:n] - ys[n:]
        d = np.hypot(dx, dy)[same]
        assert d.size > 100_000
        assert np.all(np.abs(d - 1.0) > 1e-6)

    def test_proper_random_colorings(self):
        r_min = thresholds()[0].max_r
        rng = random.Random(3030)
        for _ in range(200):
            r = rng.uniform(r_min, 0.49)
            c = random_proper_radial_coloring(rng, r)
            assert verify_radial_coloring(c).proper, c

    def test_three_thin_sectors_two_thirds_of_pi_apart_are_proper(self):
        # three thin color-0 sectors 2*pi/3 apart are pairwise closer than theta
        third = TWO_PI / 3.0
        colors = (0, 1, 0, 2, 0, 3)
        c = RadialColoring(
            Annulus(0.05), (0.0, 0.01, third, third + 0.01, 2 * third, 2 * third + 0.01), colors, colors
        )
        assert unit_chord_angle(0.55) == pytest.approx(2.282, abs=1e-3)
        assert verify_radial_coloring(c).proper

    def test_antipodal_thin_sectors(self):
        eps = 0.01
        c = RadialColoring(
            Annulus(0.3),
            (0.0, eps, math.pi, math.pi + eps),
            (0, 1, 0, 2),
            (1, 1, 1, 2),
        )
        assert not verify_radial_coloring(c).proper


class TestStructure:
    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            RadialColoring(Annulus(0.1), (1.0, 0.5), (0, 1), (0, 1))

    def test_color_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RadialColoring(Annulus(0.1), (0.0, 1.0), (0,), (0, 1))

    def test_out_of_range_boundary_rejected(self):
        with pytest.raises(ValueError):
            RadialColoring(Annulus(0.1), (0.0, TWO_PI), (0, 1), (0, 1))

    def test_negative_color_rejected(self):
        with pytest.raises(ValueError):
            RadialColoring(Annulus(0.1), (0.0, 1.0), (0, -1), (0, 1))

    @given(r=st.floats(0.001, 0.499))
    @settings(max_examples=40, deadline=None)
    def test_construct_always_verifies(self, r):
        c = construct_radial_coloring(r)
        assert verify_radial_coloring(c).proper


class TestJson:
    def test_round_trip(self):
        c = construct_radial_coloring(0.23)
        doc = json.loads(json.dumps(coloring_to_json(c)))
        assert coloring_from_json(doc) == c

    def test_missing_key(self):
        with pytest.raises(SchemaError, match="missing keys"):
            coloring_from_json({"r": 0.1, "boundaries": [0.0]})

    def test_unknown_key(self):
        doc = coloring_to_json(construct_radial_coloring(0.1))
        doc["extra"] = 1
        with pytest.raises(SchemaError, match="unknown keys"):
            coloring_from_json(doc)

    def test_bad_element_position_reported(self):
        doc = coloring_to_json(construct_radial_coloring(0.1))
        doc["boundaries"][2] = "oops"
        with pytest.raises(SchemaError, match=r"boundaries\[2\]"):
            coloring_from_json(doc)

    def test_non_integer_color_rejected(self):
        doc = coloring_to_json(construct_radial_coloring(0.1))
        doc["sector_colors"][0] = 0.5
        with pytest.raises(SchemaError, match=r"sector_colors\[0\]"):
            coloring_from_json(doc)

    def test_structural_error_wrapped(self):
        doc = {"r": 0.1, "boundaries": [1.0, 0.5], "sector_colors": [0, 1], "boundary_colors": [0, 1]}
        with pytest.raises(SchemaError, match="strictly increasing"):
            coloring_from_json(doc)

    def test_threshold_fields(self):
        t = Threshold(3, 0.077, "(2 - sqrt(3)) / (2*sqrt(3))")
        assert t.colors == 3 and t.max_r == 0.077
