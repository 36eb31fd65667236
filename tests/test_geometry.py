import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_chroma import geometry
from annulus_chroma.geometry import (
    DEFAULT_TOLERANCE,
    AnnularSector,
    Annulus,
    TWO_PI,
    contains_unit_pair,
    normalize_angle,
    sector_distance_interval,
    unit_chord_angle,
)
from annulus_chroma.radial import RadialColoring, verify_radial_coloring
from oracles import (
    pairwise_extremes,
    random_point_in,
    random_sector,
    random_sector_pair,
    reference_contains_unit_pair,
    reference_sector_distance_interval,
    reference_verify_radial_coloring,
    sampled_extremes,
)


class TestAnnulus:
    def test_radii(self):
        a = Annulus(0.1)
        assert a.inner_radius == pytest.approx(0.4, abs=0)
        assert a.outer_radius == pytest.approx(0.6, abs=0)

    @pytest.mark.parametrize("r", [0.0, 0.5, -0.1, 0.7])
    def test_domain(self, r):
        with pytest.raises(ValueError):
            Annulus(r)

    def test_radii_sum_to_one(self):
        rng = random.Random(7)
        for _ in range(200):
            a = Annulus(rng.uniform(1e-6, 0.5 - 1e-6))
            assert abs(a.inner_radius + a.outer_radius - 1.0) <= 1e-15

    def test_contains(self):
        a = Annulus(0.1)
        assert a.contains((0.5, 0.0))
        assert a.contains((0.0, -0.4))
        assert not a.contains((0.39, 0.0))
        assert not a.contains((0.0, 0.61))


def on_mid_circle(angle: float) -> tuple[float, float]:
    """The point at radius 1/2, inside every annulus, in the given direction."""
    return (0.5 * math.cos(angle), 0.5 * math.sin(angle))


EAST, NORTH = (0.5, 0.0), (0.0, 0.5)  # atan2 reads these as exactly 0 and the float pi/2


class TestAnnularSector:
    annulus = Annulus(0.3)

    def test_membership_flags(self):
        s = AnnularSector(self.annulus, 0.0, math.pi / 2.0, start_closed=True, end_closed=False)
        assert math.atan2(NORTH[1], NORTH[0]) == math.pi / 2.0
        assert s.contains(EAST)
        assert s.contains(on_mid_circle(math.pi / 4.0))
        assert not s.contains(NORTH)
        assert not s.contains(on_mid_circle(-0.1))

    def test_wraparound(self):
        s = AnnularSector(self.annulus, 6.0, 1.0)
        assert s.contains(on_mid_circle(6.2))
        assert s.contains(on_mid_circle(0.2))  # 6.0 + 1.0 passes 2*pi
        assert not s.contains(on_mid_circle(1.5))

    def test_tolerance_widens_closed_ends_only(self):
        tol = 1e-6
        open_sector = AnnularSector(self.annulus, 0.0, math.pi / 2.0, start_closed=False, end_closed=False)
        assert not open_sector.contains(EAST, tol) and not open_sector.contains(NORTH, tol)
        assert open_sector.contains(on_mid_circle(tol / 2.0), tol)
        assert open_sector.contains(on_mid_circle(math.pi / 2.0 - tol / 2.0), tol)
        assert not open_sector.contains(on_mid_circle(-tol / 2.0), tol)
        assert not open_sector.contains(on_mid_circle(math.pi / 2.0 + tol / 2.0), tol)
        closed_sector = AnnularSector(self.annulus, 0.0, math.pi / 2.0)
        assert closed_sector.contains(on_mid_circle(-tol / 2.0), tol)
        assert closed_sector.contains(on_mid_circle(math.pi / 2.0 + tol / 2.0), tol)

    def test_full_circle_ignores_flags(self):
        s = AnnularSector(self.annulus, 0.3, TWO_PI, start_closed=False, end_closed=False)
        for q in (0.0, 0.3, 3.0, 6.2):
            assert s.contains(on_mid_circle(q))

    def test_zero_width_must_be_closed(self):
        assert AnnularSector(self.annulus, 1.0, 0.0).contains(on_mid_circle(1.0))
        with pytest.raises(ValueError):
            AnnularSector(self.annulus, 1.0, 0.0, start_closed=False)

    @pytest.mark.parametrize("width", [-0.1, TWO_PI + 0.1])
    def test_width_domain(self, width):
        with pytest.raises(ValueError):
            AnnularSector(self.annulus, 0.0, width)

    @given(
        start=st.floats(0.0, TWO_PI - 1e-9),
        width=st.floats(1e-3, TWO_PI),
        f=st.floats(0.05, 0.95),
    )
    @settings(max_examples=150)
    def test_membership_mod_two_pi(self, start, width, f):
        s = AnnularSector(self.annulus, start, width, False, False)
        q = start + f * width
        assert s.contains(on_mid_circle(q))
        assert s.contains(on_mid_circle(q + TWO_PI))
        assert s.contains(on_mid_circle(q - TWO_PI))

    def test_normalize_angle(self):
        assert normalize_angle(TWO_PI) == 0.0
        assert normalize_angle(-1e-300) == 0.0
        assert 0.0 <= normalize_angle(123.456) < TWO_PI

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, start):
        # Taken modulo 2*pi these are NaN, which would make [0, 0] an attained distance range.
        with pytest.raises(ValueError, match="finite"):
            normalize_angle(start)
        with pytest.raises(ValueError, match="finite"):
            AnnularSector(self.annulus, start, 1.0)
        with pytest.raises(ValueError, match="finite"):
            AnnularSector(self.annulus, start, 1.0, False, False)


class TestUnitChordAngle:
    def test_exact_values(self):
        assert unit_chord_angle(1.0 / math.sqrt(3.0)) == pytest.approx(TWO_PI / 3.0, abs=1e-12)
        assert unit_chord_angle(1.0) == pytest.approx(math.pi / 3.0, abs=1e-12)
        assert unit_chord_angle(1.0 / math.sqrt(2.0)) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_agrees_with_arccos_form(self):
        for i in range(10_000):
            radius = 0.5 + 1e-6 + i * (2.0 / 10_000)
            via_asin = unit_chord_angle(radius)
            via_acos = math.acos(1.0 - 1.0 / (2.0 * radius * radius))
            assert abs(via_asin - via_acos) <= 1e-12

    def test_strictly_decreasing(self):
        previous = None
        for i in range(10_000):
            radius = 0.5000001 + i * (3.0 / 10_000)
            theta = unit_chord_angle(radius)
            if previous is not None:
                assert theta < previous
            previous = theta

    def test_range_for_annulus_radii(self):
        for r in (1e-6, 0.1, 0.25, 0.4999):
            theta = unit_chord_angle(0.5 + r)
            assert math.pi / 3.0 < theta < math.pi

    @pytest.mark.parametrize("radius", [0.5, 0.4, 0.0, -1.0])
    def test_domain(self, radius):
        if radius == 0.5:  # the edge of the domain: the unit chord is a diameter
            assert unit_chord_angle(radius) == math.pi
            return
        with pytest.raises(ValueError):
            unit_chord_angle(radius)


class TestSectorDistanceInterval:
    def test_antipodal_segments(self):
        a = Annulus(0.1)
        s1 = AnnularSector(a, 0.0, 0.0)
        s2 = AnnularSector(a, math.pi, 0.0)
        di = sector_distance_interval(s1, s2)
        assert di.min == pytest.approx(0.8, abs=1e-12)
        assert di.max == pytest.approx(1.2, abs=1e-12)
        assert di.min_attained_interior and di.max_attained_interior

    def test_perpendicular_segments(self):
        a = Annulus(0.1)
        s1 = AnnularSector(a, 0.0, 0.0)
        s2 = AnnularSector(a, math.pi / 2.0, 0.0)
        di = sector_distance_interval(s1, s2)
        assert di.min == pytest.approx(math.sqrt(0.32), abs=1e-12)
        assert di.max == pytest.approx(math.sqrt(0.72), abs=1e-12)

    def test_same_segment(self):
        a = Annulus(0.2)
        s = AnnularSector(a, 1.0, 0.0)
        di = sector_distance_interval(s, s)
        assert di.min == 0.0
        assert di.max == pytest.approx(0.4, abs=1e-12)

    def test_unit_width_sector_max_is_one(self):
        a = Annulus(0.1)
        theta = unit_chord_angle(a.outer_radius)
        s = AnnularSector(a, 0.3, theta)
        di = sector_distance_interval(s, s)
        assert di.max == pytest.approx(1.0, abs=1e-12)
        assert di.max_attained_interior  # closed corners realize the unit chord
        lo, hi = sampled_extremes(s, s)
        assert hi == pytest.approx(di.max, abs=1e-3)
        assert lo == pytest.approx(di.min, abs=1e-3)

    def test_open_sector_max_not_attained(self):
        a = Annulus(0.1)
        theta = unit_chord_angle(a.outer_radius)
        s = AnnularSector(a, 0.3, theta, start_closed=False, end_closed=False)
        di = sector_distance_interval(s, s)
        assert di.max == pytest.approx(1.0, abs=1e-12)
        assert not di.max_attained_interior

    @pytest.mark.parametrize("r", [0.1, 0.3])
    def test_min_accurate_for_small_gaps(self, r):
        # Two sectors a gap g apart are nearest at radius a across the gap;
        # the minimum keeps its relative accuracy however small g is.
        a = Annulus(r)
        s1 = AnnularSector(a, 0.0, 1.0)
        for k in range(41):
            gap = 10.0 ** (-9.0 + 0.1 * k)
            s2 = AnnularSector(a, 1.0 + gap, 1.0)
            rho, phi = a.inner_radius, s2.start
            exact = math.dist((rho * math.cos(1.0), rho * math.sin(1.0)), (rho * math.cos(phi), rho * math.sin(phi)))
            assert sector_distance_interval(s1, s2).min == pytest.approx(exact, rel=1e-6), gap

    @pytest.mark.parametrize("closed", [False, True])
    def test_min_across_the_narrower_of_two_gaps(self, closed):
        # The arcs nearly cover the circle, leaving gaps of 6e-7 and 1.2e-6
        # whose ends tie within 1e-12 in cosine; the minimum is across the
        # narrower gap, at radius a.
        a = Annulus(0.1)
        s1 = AnnularSector(a, 0.0, 3.0, closed, closed)
        s2 = AnnularSector(a, 3.0 + 6e-7, TWO_PI - 3.0 - 1.8e-6, closed, closed)
        rho = a.inner_radius
        exact = math.dist((rho * math.cos(3.0), rho * math.sin(3.0)),
                          (rho * math.cos(3.0 + 6e-7), rho * math.sin(3.0 + 6e-7)))
        for pair in ((s1, s2), (s2, s1)):
            assert sector_distance_interval(*pair).min == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("r", [1e-9, 1e-7, 1e-5])
    def test_thin_annulus_segment_max_is_its_length(self, r):
        a = Annulus(r)
        s = AnnularSector(a, 1.0, 0.0)
        assert sector_distance_interval(s, s).max == a.outer_radius - a.inner_radius

    def test_mismatched_annuli(self):
        s1 = AnnularSector(Annulus(0.1), 0.0, 1.0)
        s2 = AnnularSector(Annulus(0.2), 0.0, 1.0)
        with pytest.raises(ValueError):
            sector_distance_interval(s1, s2)

    def test_symmetric_exactly(self):
        rng = random.Random(42)
        for _ in range(300):
            annulus = Annulus(rng.uniform(0.01, 0.49))
            s1 = random_sector(rng, annulus, closed=False)
            s2 = random_sector(rng, annulus, closed=False)
            d12 = sector_distance_interval(s1, s2)
            d21 = sector_distance_interval(s2, s1)
            assert d12 == d21

    def test_brackets_random_point_pairs(self):
        rng = random.Random(99)
        for _ in range(20):
            annulus = Annulus(rng.uniform(0.02, 0.48))
            s1 = random_sector(rng, annulus)
            s2 = random_sector(rng, annulus)
            di = sector_distance_interval(s1, s2)
            for _ in range(5_000):
                p = random_point_in(s1, rng)
                q = random_point_in(s2, rng)
                d = math.dist(p, q)
                assert di.min - 1e-9 <= d <= di.max + 1e-9

    def test_tight_against_sampling(self):
        rng = random.Random(4242)
        for _ in range(25):
            annulus = Annulus(rng.uniform(0.02, 0.48))
            s1 = random_sector(rng, annulus)
            s2 = random_sector(rng, annulus)
            di = sector_distance_interval(s1, s2)
            lo, hi = sampled_extremes(s1, s2, n_angles=200, n_radii=200)
            assert di.min == pytest.approx(lo, abs=1e-3)
            assert di.max == pytest.approx(hi, abs=1e-3)
            coarse_lo, coarse_hi = pairwise_extremes(s1, s2, n_angles=60, n_radii=6)
            assert di.min - 1e-9 <= coarse_lo
            assert coarse_hi <= di.max + 1e-9

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_interval_well_formed(self, data):
        r = data.draw(st.floats(0.01, 0.49))
        annulus = Annulus(r)
        start1 = data.draw(st.floats(0.0, TWO_PI - 1e-12))
        start2 = data.draw(st.floats(0.0, TWO_PI - 1e-12))
        width1 = data.draw(st.floats(0.0, TWO_PI))
        width2 = data.draw(st.floats(0.0, TWO_PI))
        s1 = AnnularSector(annulus, start1, width1)
        s2 = AnnularSector(annulus, start2, width2)
        di = sector_distance_interval(s1, s2)
        assert 0.0 <= di.min <= di.max <= 2.0 * annulus.outer_radius + 1e-12


class TestContainsUnitPair:
    @pytest.mark.parametrize("tolerance", [math.nan, -math.inf, -1.0])
    def test_absurd_tolerance_refused(self, tolerance):
        # Every comparison with NaN is false, so a NaN tolerance found no unit pair in this 3-radian sector.
        s = AnnularSector(Annulus(0.3), 0.0, 3.0, False, False)
        assert contains_unit_pair(s, s)[0]
        for analyse in (contains_unit_pair, sector_distance_interval):
            with pytest.raises(ValueError, match=f"tolerance must be nonnegative, got {tolerance}"):
                analyse(s, s, tolerance)

    def test_antipodal_segments_true(self):
        a = Annulus(0.1)
        s1 = AnnularSector(a, 0.0, 0.0)
        s2 = AnnularSector(a, math.pi, 0.0)
        found, witness = contains_unit_pair(s1, s2)
        assert found
        p, q = witness
        assert abs(math.dist(p, q) - 1.0) <= 1e-9
        assert s1.contains(p) and s2.contains(q)

    @pytest.mark.parametrize("r", [1e-17, 2.0 ** -54, 5e-324])
    def test_antipodal_segments_where_the_outer_radius_rounds_to_half(self, r):
        # 1/2 + r == 1/2: the diameter is the only unit chord.
        a = Annulus(r)
        assert a.outer_radius == 0.5
        s1 = AnnularSector(a, 0.0, 0.0)
        s2 = AnnularSector(a, math.pi, 0.0)
        found, witness = contains_unit_pair(s1, s2)
        assert found
        p, q = witness
        assert math.dist(p, q) == 1.0
        assert s1.contains(p) and s2.contains(q)

    def test_perpendicular_segments_false(self):
        a = Annulus(0.1)
        s1 = AnnularSector(a, 0.0, 0.0)
        s2 = AnnularSector(a, math.pi / 2.0, 0.0)
        found, witness = contains_unit_pair(s1, s2)
        assert not found and witness is None

    def test_open_unit_width_sector_excludes_corner_chord(self):
        a = Annulus(0.1)
        theta = unit_chord_angle(a.outer_radius)
        open_sector = AnnularSector(a, 0.0, theta, start_closed=False, end_closed=False)
        found, _ = contains_unit_pair(open_sector, open_sector)
        assert not found
        closed_sector = AnnularSector(a, 0.0, theta)
        found, witness = contains_unit_pair(closed_sector, closed_sector)
        assert found
        p, q = witness
        assert abs(math.dist(p, q) - 1.0) <= 1e-9

    def test_half_open_still_excludes(self):
        # The corner chord needs both corners; one closed endpoint is not enough.
        a = Annulus(0.1)
        theta = unit_chord_angle(a.outer_radius)
        s = AnnularSector(a, 0.0, theta, start_closed=True, end_closed=False)
        found, _ = contains_unit_pair(s, s)
        assert not found

    def test_adjacent_open_sectors_share_unit_pair(self):
        a = Annulus(0.1)
        theta = unit_chord_angle(a.outer_radius)
        s1 = AnnularSector(a, 0.0, theta, False, False)
        s2 = AnnularSector(a, theta, theta, False, False)
        found, witness = contains_unit_pair(s1, s2)
        assert found
        p, q = witness
        assert abs(math.dist(p, q) - 1.0) <= 1e-9
        assert s1.contains(p) and s2.contains(q)

    def test_witnesses_on_random_pairs(self):
        rng = random.Random(2024)
        positives = 0
        for _ in range(400):
            annulus = Annulus(rng.uniform(0.02, 0.48))
            s1 = random_sector(rng, annulus, closed=False)
            s2 = random_sector(rng, annulus, closed=False)
            found, witness = contains_unit_pair(s1, s2)
            if not found:
                assert witness is None
                continue
            positives += 1
            p, q = witness
            assert abs(math.dist(p, q) - 1.0) <= 1e-12
            assert s1.contains(p)
            assert s2.contains(q)
            # closed form: both points on one circle of radius in [1/2, 1/2 + r]
            rho_p, rho_q = math.hypot(*p), math.hypot(*q)
            assert abs(rho_p - rho_q) <= 1e-12
            assert 0.5 - 1e-12 <= rho_p <= annulus.outer_radius + 1e-12
        assert positives > 50  # the sampler must actually exercise the witness path

    def test_closed_sector_of_width_theta(self):
        # The difference arc reaches theta at one point only: the outer corners.
        a = Annulus(0.1)
        theta = unit_chord_angle(a.outer_radius)
        s = AnnularSector(a, 0.3, theta)
        found, (p, q) = contains_unit_pair(s, s)
        assert found
        assert abs(math.dist(p, q) - 1.0) <= 1e-12
        assert math.hypot(*p) == math.hypot(*q) == a.outer_radius
        assert s.contains(p) and s.contains(q)

    def test_tolerance_window_witness(self):
        # Two rays whose outer corners are 1 - 5e-4 apart: improper at tol = 1e-3.
        a, tol = Annulus(0.1), 1e-3
        delta = 2.0 * math.asin((1.0 - 5e-4) / (2.0 * a.outer_radius))
        s1 = AnnularSector(a, 0.4, 0.0)
        s2 = AnnularSector(a, 0.4 + delta, 0.0)
        assert sector_distance_interval(s1, s2).max == pytest.approx(1.0 - 5e-4, abs=1e-12)
        assert contains_unit_pair(s1, s2, 1e-4) == (False, None)
        found, (p, q) = contains_unit_pair(s1, s2, tol)
        assert found
        assert abs(math.dist(p, q) - 1.0) <= tol
        assert s1.contains(p, 1e-12) and s2.contains(q, 1e-12)

    def test_tolerance_window_witness_avoids_open_end(self):
        # Every distance lies within tol of 1, but the largest is reached only
        # at the sector's open end: the witness takes the attained smallest one.
        a, tol = Annulus(1e-5), 1e-3
        ray = AnnularSector(a, 0.0, 0.0)
        s = AnnularSector(a, math.pi - 0.02, 0.007, start_closed=True, end_closed=False)
        di = sector_distance_interval(ray, s, tol)
        assert di.max < 1.0 and not di.max_attained_interior
        found, (p, q) = contains_unit_pair(ray, s, tol)
        assert found
        assert abs(math.dist(p, q) - 1.0) <= tol
        assert ray.contains(p, 1e-12) and s.contains(q, 1e-12)

    def test_witnesses_inside_open_sectors_narrower_than_the_tolerance(self):
        rng = random.Random(41)
        for _ in range(2000):
            annulus, tol = Annulus(rng.uniform(0.01, 0.49)), 10.0 ** rng.uniform(-9.0, -4.0)
            theta = unit_chord_angle(annulus.outer_radius)
            start = rng.uniform(0.0, TWO_PI)
            s1 = AnnularSector(annulus, start, rng.uniform(0.0, 2.0 * tol) or tol, False, False)
            s2 = AnnularSector(
                annulus, start + rng.uniform(theta + 4.0 * tol, math.pi), rng.uniform(0.0, 2.0 * tol) or tol, False, False
            )
            found, (p, q) = contains_unit_pair(s1, s2, tol)
            assert found
            assert s1.contains(p, tol) and s2.contains(q, tol)

    def test_witness_at_the_attained_end(self):
        # Two copies of one arc a hair narrower than theta, one closed and one
        # open at its start: distance 1 within tol is attained only with the
        # open copy's point at its closed end.
        annulus, tol = Annulus(0.11235681691721083), 1.9560852997508123e-08
        closed = AnnularSector(annulus, 4.854952505789755, 1.9107053407777448, True, True)
        half_open = AnnularSector(annulus, 4.854952505789755, 1.9107053407777448, False, True)
        found, (p, q) = contains_unit_pair(closed, half_open, tol)
        assert found
        assert closed.contains(p, tol) and half_open.contains(q, tol)

    def test_witnesses_inside_half_open_copies_of_one_arc(self):
        rng = random.Random(43)
        flags = ((True, True), (False, True), (True, False))
        positives = 0
        for _ in range(3000):
            annulus, tol = Annulus(rng.uniform(0.01, 0.49)), 10.0 ** rng.uniform(-12.0, -6.0)
            width = unit_chord_angle(annulus.outer_radius) + rng.uniform(-2.0, 2.0) * tol
            start = rng.uniform(0.0, TWO_PI)
            s1 = AnnularSector(annulus, start, width, *rng.choice(flags))
            s2 = AnnularSector(annulus, start, width, *rng.choice(flags))
            found, witness = contains_unit_pair(s1, s2, tol)
            if found:
                positives += 1
                assert s1.contains(witness[0], tol) and s2.contains(witness[1], tol)
        assert positives > 1000

    def test_verdict_consistent_with_interval(self):
        rng = random.Random(77)
        for _ in range(300):
            annulus = Annulus(rng.uniform(0.02, 0.48))
            s1 = random_sector(rng, annulus)
            s2 = random_sector(rng, annulus)
            di = sector_distance_interval(s1, s2)
            found, _ = contains_unit_pair(s1, s2)
            if di.min + 1e-9 < 1.0 < di.max - 1e-9:
                assert found
            if 1.0 < di.min - 1e-9 or 1.0 > di.max + 1e-9:
                assert not found


class TestMissFromTheMaximum:
    # d_min = 2*a*sin(g_min/2) <= 2*a <= 1 for every r, so the minimum never
    # rules a pair out and contains_unit_pair decides a miss from g_max alone.
    # The reference is no oracle below r = 1e-9, so none is used here.
    @pytest.mark.parametrize("r", [5e-324, 2.0 ** -60, 2.0 ** -54, 1e-17, 1e-9, None])
    def test_min_never_exceeds_one_and_the_max_alone_decides_a_miss(self, r, monkeypatch):
        targets = []
        gap_extreme = geometry._gap_extreme

        def recorded(lo, hi, lo_ok, hi_ok, target, tolerance):
            targets.append(target)
            return gap_extreme(lo, hi, lo_ok, hi_ok, target, tolerance)

        monkeypatch.setattr(geometry, "_gap_extreme", recorded)
        rng = random.Random(19)
        misses = 0
        for k in range(2000):
            tolerance = 0.0 if k % 4 == 0 else 10.0 ** rng.uniform(-15.0, -3.0)
            s1, s2, tolerance = random_sector_pair(rng, r, tolerance)
            di = sector_distance_interval(s1, s2, tolerance)
            assert di.min <= 1.0, (s1, s2, tolerance)
            targets.clear()
            verdict = contains_unit_pair(s1, s2, tolerance)
            if di.max + tolerance < 1.0:
                misses += 1
                assert verdict == (False, None), (s1, s2, tolerance)
                assert targets == [math.pi], (s1, s2, tolerance)
            else:
                assert sorted(targets) == [0.0, math.pi], (s1, s2, tolerance)
        assert misses > 100


class TestReferencePairAnalysis:
    def test_same_results_as_the_radius_box_search(self):
        # The chord forms must report what the corner and edge candidate
        # search reported: verdicts, witnesses and attainment flags to the
        # last bit.  The extremes agree within 1e-7, the reference's own
        # cancellation error in a^2 + b^2 - 2*a*b*cos near cos = 1, except
        # where the two ends of the difference arc tie within 1e-12 in
        # cosine: the reference reads such a tie at one fixed end, the chord
        # forms at the nearer end for the min and the farther for the max.
        # There a dense grid of the two sectors decides, within 1e-8.
        rng = random.Random(2013)
        positives = 0
        for _ in range(20_000):
            s1, s2, tol = random_sector_pair(rng)
            got = sector_distance_interval(s1, s2, tol)
            ref = reference_sector_distance_interval(s1, s2, tol)
            assert (got.min_attained_interior, got.max_attained_interior) == (
                ref.min_attained_interior, ref.max_attained_interior), (s1, s2, tol)
            grid = None
            for k, (value, expected) in enumerate(((got.min, ref.min), (got.max, ref.max))):
                if abs(value - expected) > 1e-7:
                    grid = grid or sampled_extremes(s1, s2, 300, 300)
                    assert value == pytest.approx(grid[k], abs=1e-8), (s1, s2, tol)
            verdict = contains_unit_pair(s1, s2, tol)
            assert verdict == reference_contains_unit_pair(s1, s2, tol), (s1, s2, tol)
            positives += verdict[0]
        assert 2_000 < positives < 18_000


TIE_RADII = (1e-9, 0.01, 0.1, 0.2, 0.3, 0.45, 0.49)


def _bits(value):
    """Floats as hex strings, also inside tuples and dataclasses, so == compares them to the last bit."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _gaps_at_theta(theta: float) -> tuple[float, float, float]:
    return math.nextafter(theta, 0.0), theta, math.nextafter(theta, math.pi)


def _gap_tie_pairs():
    """(s1, s2): pairs whose largest circular gap is theta or 1 ulp either side, in every end combination.

    s2 = [gap/2, gap] (gap/2 + gap/2 is exact) and s1 = [0, 0.25], or the
    two rays at 0 and gap, so the difference arc starts at exactly -gap.
    """
    for r in TIE_RADII:
        annulus = Annulus(r)
        for gap in _gaps_at_theta(unit_chord_angle(annulus.outer_radius)):
            yield AnnularSector(annulus, 0.0, 0.0), AnnularSector(annulus, gap, 0.0)
            for flags1, flags2 in itertools.product(itertools.product((True, False), repeat=2), repeat=2):
                yield AnnularSector(annulus, 0.0, 0.25, *flags1), AnnularSector(annulus, 0.5 * gap, 0.5 * gap, *flags2)


class TestGapTies:
    # Where the largest gap is theta, d_max is 1 up to rounding, and the
    # attainment flags and the tolerance decide.  The reference computes the
    # extremes through a^2 + b^2 - 2*a*b*cos, so they agree within an ulp of
    # 1.  With a tolerance that absorbs the ulp, verdicts and witnesses are
    # the reference's bit for bit; with none, a verdict rests on the last bit
    # of d_max, which the two forms round apart.
    @pytest.mark.parametrize("tolerance", [0.0, DEFAULT_TOLERANCE])
    def test_same_as_the_reference(self, tolerance):
        verdicts = {True: 0, False: 0}
        for s1, s2 in _gap_tie_pairs():
            for a, b in ((s1, s2), (s2, s1)):
                got = sector_distance_interval(a, b, tolerance)
                ref = reference_sector_distance_interval(a, b, tolerance)
                assert (got.min_attained_interior, got.max_attained_interior) == (
                    ref.min_attained_interior, ref.max_attained_interior), (a, b)
                assert abs(got.min - ref.min) <= math.ulp(1.0) and abs(got.max - ref.max) <= math.ulp(1.0), (a, b)
                found, witness = contains_unit_pair(a, b, tolerance)
                verdicts[found] += 1
                if tolerance or _bits(got) == _bits(ref):
                    assert _bits((found, witness)) == _bits(reference_contains_unit_pair(a, b, tolerance)), (a, b)
                if found and tolerance:
                    assert a.contains(witness[0], tolerance) and b.contains(witness[1], tolerance)
                    assert abs(math.dist(*witness) - 1.0) <= tolerance
        assert verdicts[True] > 100 and verdicts[False] > 100

    @pytest.mark.parametrize("tolerance", [0.0, DEFAULT_TOLERANCE])
    def test_color_class_spanning_theta(self, tolerance):
        # Colour 0 holds sectors (0, gap/2) and (gap/2, gap) and the ray
        # between them, and each end ray when it takes colour 0, so the class
        # spans exactly gap with either end open or closed.  The rest of the
        # circle is cut into sectors narrower than theta, each in a colour of
        # its own.
        improper = 0
        for r in TIE_RADII:
            theta = unit_chord_angle(0.5 + r)
            for gap in _gaps_at_theta(theta):
                m = math.ceil((TWO_PI - gap) / (0.5 * theta))
                rest = [gap + k * (TWO_PI - gap) / m for k in range(1, m)]
                boundaries = [0.0, 0.5 * gap, gap, *rest]
                sectors = [0, 0, *range(1, m + 1)]
                for ray_at_0, ray_at_gap in itertools.product((0, m), (0, 1)):
                    rays = [ray_at_0, 0, ray_at_gap, *range(2, m + 1)]
                    coloring = RadialColoring(Annulus(r), boundaries, sectors, rays)
                    got = verify_radial_coloring(coloring, tolerance)
                    ref = reference_verify_radial_coloring(coloring, tolerance)
                    assert _bits(got) == _bits(ref), (r, gap, rays)
                    improper += not got.proper
        assert improper > 0
