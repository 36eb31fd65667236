import json
import math
import random
import tracemalloc

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
from oracles import (
    construction_exactly_proper,
    exact_radial_chromatic_number,
    load_outcome,
    random_proper_radial_coloring,
    random_radial_coloring,
    reference_coloring_from_json,
    reference_verify_radial_coloring,
)


def _piece(coloring, label):
    """(region, color) of a verdict's piece label, parsed as ``cli`` parses it."""
    kind, _, index = label.partition(" ")
    i = int(index)
    if kind == "sector":
        return coloring.sector(i), coloring.sector_colors[i]
    return coloring.boundary_segment(i), coloring.boundary_colors[i]


def _ulp_steps(x, steps):
    """x moved by ``steps`` representable doubles (negative steps go down)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


def _identity_suite():
    """Seeded (coloring, tolerance) cases for comparing the verifier with the eager reference scan."""
    tolerances = (1e-12, 1e-9, 1e-6)
    rng = random.Random(8080)
    cases = []
    # random colorings of 1 to 10^4 boundaries; few colors, so mostly improper
    for idx in range(700):
        max_boundaries = rng.choice((1, 2, 8, 8, 8, 64, 64, 1000)) if idx % 50 else 10_000
        r = rng.uniform(0.005, 0.495)
        c = random_radial_coloring(rng, r, rng.randint(1, radial_chromatic_number(r) + 1), max_boundaries)
        cases.append((c, tolerances[idx % 3]))
    # proper colorings, which the scan compares pair by pair
    r_min = thresholds()[0].max_r
    for idx in range(200):
        c = random_proper_radial_coloring(rng, rng.uniform(r_min, 0.499), max_cuts=rng.randint(0, 12))
        cases.append((c, tolerances[idx % 3]))
    # a single ray: the lone sector is the full circle minus the ray
    for _ in range(40):
        c = RadialColoring(Annulus(rng.uniform(0.005, 0.495)), (rng.uniform(0.0, TWO_PI),),
                           (rng.randrange(2),), (rng.randrange(2),))
        cases += [(c, tol) for tol in tolerances]
    # the construction at each band threshold +- a few ulps, and the same cut
    # on an annulus a few ulps wider, where its equal sectors are within an
    # ulp or two of theta
    for t in [t.max_r for t in thresholds()[:-1]] + [0.5]:
        for steps in range(-4, 5):
            r = _ulp_steps(t, steps)
            if not 0.0 < r < 0.5:
                continue
            c = construct_radial_coloring(r)
            cases += [(c, tol) for tol in tolerances]
            for wider in (1, 3):
                r_wide = _ulp_steps(r, wider)
                if r_wide < 0.5:
                    cut = RadialColoring(Annulus(r_wide), c.boundaries, c.sector_colors, c.boundary_colors)
                    cases += [(cut, tol) for tol in tolerances]
    return cases


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

    @pytest.mark.parametrize("r", [1e-17, 2.0 ** -54, 5e-324])
    def test_outer_radius_rounding_to_half(self, r):
        # 1/2 + r == 1/2 here, and the 3 sectors of 2*pi/3 still fit.
        assert radial_chromatic_number(r) == 3

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
        # Around a threshold the N equal sectors are within rounding error of
        # theta, so the construction must verify at every tolerance there.
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
        assert c.n == 4
        assert list(c.boundaries) == [0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0]
        assert verify_radial_coloring(c).proper

    @pytest.mark.parametrize("r", [1e-17, 2.0 ** -54, 5e-324])
    def test_outer_radius_rounding_to_half(self, r):
        c = construct_radial_coloring(r)
        assert c.n == 3
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


class TestExactness:
    """N(r) and the construction judged on the exact rationals floats denote (oracles.py)."""

    def test_random_half_widths(self):
        rng = random.Random(2013)
        rs = [rng.uniform(0.0, 0.5) for _ in range(2000)]
        rs += [10.0 ** rng.uniform(-17.0, math.log10(0.5)) for _ in range(300)]
        assert min(rs) < 1e-16
        for r in rs:
            assert radial_chromatic_number(r) == exact_radial_chromatic_number(r), r
            assert construction_exactly_proper(construct_radial_coloring(r)), r

    def test_floats_around_thresholds(self):
        # N may be off only between a real threshold and its table float;
        # where N is exact the construction may be improper only within 6
        # floats below a real threshold, where the slack is under rounding.
        excused = 0
        for row, off_by_one in zip(thresholds()[:3], (3, 1, 2)):
            rs = [_ulp_steps(row.max_r, k) for k in range(-40, 41)]
            exact = [exact_radial_chromatic_number(r) for r in rs]
            first_above = exact.index(row.colors + 1)  # the first float past the real threshold
            assert exact == [row.colors] * first_above + [row.colors + 1] * (len(rs) - first_above)
            between = {r for r in rs if (r <= row.max_r) != (r < rs[first_above])}
            assert len(between) == off_by_one
            for k, (r, n) in enumerate(zip(rs, exact)):
                if r in between:
                    assert radial_chromatic_number(r) == n + (1 if r > row.max_r else -1), r
                    continue
                assert radial_chromatic_number(r) == n, r
                if not construction_exactly_proper(construct_radial_coloring(r)):
                    assert first_above - 6 <= k < first_above, r
                    excused += 1
        assert excused <= 10


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

    @pytest.mark.parametrize("tolerance", [math.nan, -math.inf, -1.0])
    def test_absurd_tolerance_gives_no_verdict(self, tolerance):
        # Improper at the default tolerance; NaN and -1.0 used to call it proper.
        c = RadialColoring(Annulus(0.3), (0.0, 3.0), (0, 0), (0, 0))
        assert not verify_radial_coloring(c).proper
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            verify_radial_coloring(c, tolerance)

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
            region1, color1 = _piece(c, verdict.piece_labels[0])
            region2, color2 = _piece(c, verdict.piece_labels[1])
            assert color1 == color2 == verdict.color
            assert region1.contains(p)
            assert region2.contains(q)

    def test_same_result_as_the_eager_reference_scan(self):
        # Building pieces as the scan reaches them must not change which
        # pair is reported, nor a bit of its witness.
        cases = _identity_suite()
        assert len({id(c) for c, _ in cases}) >= 1000
        verdicts = []
        for c, tol in cases:
            verdict = verify_radial_coloring(c, tol)
            assert verdict == reference_verify_radial_coloring(c, tol), (c.n, tol)
            verdicts.append(verdict)
        assert max(c.n for c, _ in cases) > 5000
        improper = sum(not v.proper for v in verdicts)
        assert 0.2 * len(cases) < improper < 0.9 * len(cases)
        assert any(v.piece_labels and v.piece_labels[1].startswith("boundary") for v in verdicts)

    def test_improper_scan_builds_only_the_pieces_it_reaches(self):
        # A conflict early in the scan of 2 * 10^4 pieces must not pay for
        # all of them: the eager scan peaked at 8.5 MB here.
        rng = random.Random(8)
        n = 10_000
        angles = sorted({rng.uniform(0.0, TWO_PI) for _ in range(n)})
        assert len(angles) == n
        c = RadialColoring(
            Annulus(0.1),
            tuple(angles),
            tuple(rng.randrange(3) for _ in range(n)),
            tuple(rng.randrange(3) for _ in range(n)),
        )
        verify_radial_coloring(construct_radial_coloring(0.1))
        tracemalloc.start()
        try:
            verdict = verify_radial_coloring(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not verdict.proper
        assert peak < 3_000_000, peak

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

    def test_boundary_color_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected 2 boundary colors, got 3"):
            RadialColoring(Annulus(0.1), (0.0, 1.0), (0, 1), (0, 1, 2))

    def test_no_boundary_rejected(self):
        with pytest.raises(ValueError, match="at least one boundary ray"):
            RadialColoring(Annulus(0.1), (), (), ())

    def test_out_of_range_boundary_rejected(self):
        with pytest.raises(ValueError):
            RadialColoring(Annulus(0.1), (0.0, TWO_PI), (0, 1), (0, 1))

    def test_negative_color_rejected(self):
        with pytest.raises(ValueError):
            RadialColoring(Annulus(0.1), (0.0, 1.0), (0, -1), (0, 1))

    @pytest.mark.parametrize("sectors, rays, message", [
        ((0, 1.5), (0, 1), "sector color 1 must be a nonnegative integer, got 1.5"),
        ((0, 1), (1.0, 0), "boundary color 0 must be a nonnegative integer, got 1.0"),
        ((0, "1"), (0, 1), "sector color 1 must be a nonnegative integer, got '1'"),
    ], ids=["float", "integral-float", "string"])
    def test_non_integer_color_rejected(self, sectors, rays, message):
        # int() would store 1.5 as color 1, merging two color classes.
        with pytest.raises(ValueError) as exc:
            RadialColoring(Annulus(0.2), (0.0, 1.0), sectors, rays)
        assert str(exc.value) == message

    @pytest.mark.parametrize("boundaries, sectors, rays, message", [
        (["0.5", "2"], (0, 1), (0, 1), "boundary angle 0 must be a real number, got '0.5'"),
        ((0.0, True), (0, 1), (0, 1), "boundary angle 1 must be a real number, got True"),
        ((0.0, None), (0, 1), (0, 1), "boundary angle 1 must be a real number, got None"),
        ((0, 10**400), (0, 1), (0, 1),
         "boundary angle 1 must be a finite number, got an integer too large for a float"),
        ((0.0, 1.0), (0, True), (0, 1), "sector color 1 must be a nonnegative integer, got True"),
        ((0.0, 1.0), (0, 1), (False, 1), "boundary color 0 must be a nonnegative integer, got False"),
    ], ids=["strings", "bool-boundary", "none-boundary", "huge-int-boundary", "bool-sector", "bool-ray"])
    def test_non_number_element_rejected(self, boundaries, sectors, rays, message):
        # float() used to parse "0.5" and store True as 1.0, and index() took a bool as 0 or 1.
        with pytest.raises(ValueError) as exc:
            RadialColoring(Annulus(0.1), boundaries, sectors, rays)
        assert str(exc.value) == message

    @pytest.mark.parametrize("boundaries, sectors, rays, message", [
        (5, (0,), (0,), "boundaries must be an iterable of angles, got 5"),
        ((0.0,), 0, (0,), "sector_colors must be an iterable of colors, got 0"),
        ((0.0,), (0,), None, "boundary_colors must be an iterable of colors, got None"),
    ], ids=["boundaries", "sector-colors", "boundary-colors"])
    def test_non_iterable_list_rejected(self, boundaries, sectors, rays, message):
        # These raised TypeError: "'int' object is not iterable".
        with pytest.raises(ValueError) as exc:
            RadialColoring(Annulus(0.1), boundaries, sectors, rays)
        assert str(exc.value) == message

    def test_numpy_boundaries_stored_as_floats(self):
        c = RadialColoring(Annulus(0.2), (np.int64(0), np.float64(1.5), np.float32(2.5)), (0, 1, 2), (2, 0, 1))
        assert c.boundaries == (0.0, 1.5, 2.5)
        assert all(type(b) is float for b in c.boundaries)

    def test_integer_like_colors_stored_as_ints(self):
        c = RadialColoring(Annulus(0.2), (0.0, 1.0), np.array([0, 1]), (1, 0))
        assert c.sector_colors == (0, 1) and c.boundary_colors == (1, 0)
        assert all(type(x) is int for x in c.sector_colors + c.boundary_colors)

    @given(r=st.floats(0.001, 0.499))
    @settings(max_examples=40, deadline=None)
    def test_construct_always_verifies(self, r):
        c = construct_radial_coloring(r)
        assert verify_radial_coloring(c).proper


_JUNK_NUMBER = st.one_of(st.floats(), st.integers(-3, 9), st.booleans(), st.text(max_size=1), st.none(),
                        st.just(10**400))


@st.composite
def coloring_documents(draw):
    """A coloring document, then up to three changes: a junk element appended or put in, one removed, a list reversed.

    Rarely one of the three lists is then made a tuple.
    """
    k = draw(st.integers(0, 12))
    if draw(st.integers(0, 4)):
        boundaries = sorted(draw(st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=k, max_size=k,
                                          unique=True)))
    else:
        boundaries = list(range(min(k, 7)))  # all ints, read as floats
    doc = {
        "r": draw(_JUNK_NUMBER if draw(st.integers(0, 9)) == 5 else st.floats(0.001, 0.499)),
        "boundaries": boundaries,
        "sector_colors": draw(st.lists(st.integers(0, 4), min_size=len(boundaries), max_size=len(boundaries))),
        "boundary_colors": draw(st.lists(st.integers(0, 4), min_size=len(boundaries), max_size=len(boundaries))),
    }
    keys = st.sampled_from(["boundaries", "sector_colors", "boundary_colors"])
    for _ in range(draw(st.integers(0, 3))):
        values = doc[draw(keys)]
        change = draw(st.integers(0, 3))
        if change == 0:
            values.append(draw(_JUNK_NUMBER))
        elif values and change == 1:
            values.pop(draw(st.integers(0, len(values) - 1)))
        elif len(values) > 1 and change == 2:
            values.reverse()
        elif values:
            values[draw(st.integers(0, len(values) - 1))] = draw(_JUNK_NUMBER)
    if draw(st.integers(0, 19)) == 10:
        key = draw(keys)
        doc[key] = tuple(doc[key])  # a container that is not a JSON array
    return doc


class TestJson:
    @given(doc=coloring_documents())
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_as_the_element_by_element_loader(self, doc):
        assert load_outcome(coloring_from_json, doc) == load_outcome(reference_coloring_from_json, doc)

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

    @staticmethod
    def _ten_ray_doc():
        return {
            "r": 0.1,
            "boundaries": [0.5 * i for i in range(10)],
            "sector_colors": [i % 4 for i in range(10)],
            "boundary_colors": [i % 4 for i in range(10)],
        }

    @pytest.mark.parametrize(
        "key, index, value, message",
        [
            ("boundaries", 7, True, "coloring.boundaries[7]: expected a number, got bool"),
            ("sector_colors", 8, False, "coloring.sector_colors[8]: expected an integer, got bool"),
            ("boundaries", 7, math.nan, "coloring.boundaries[7]: expected a finite number, got nan"),
            ("boundary_colors", 9, 1.0, "coloring.boundary_colors[9]: expected an integer, got float"),
            ("boundaries", 6, 2.5, "coloring: boundary angles must be strictly increasing at index 6"),
            ("boundaries", 9, 7.0, "coloring: boundary angle 9 out of [0, 2*pi): 7.0"),
            ("sector_colors", 8, -1, "coloring: sector color 8 must be a nonnegative integer, got -1"),
            ("boundaries", 7, "7", "coloring.boundaries[7]: expected a number, got str"),
            ("boundaries", 7, math.inf, "coloring.boundaries[7]: expected a finite number, got inf"),
            ("boundaries", 7, -math.inf, "coloring.boundaries[7]: expected a finite number, got -inf"),
            ("boundaries", 7, None, "coloring.boundaries[7]: expected a number, got NoneType"),
            ("boundary_colors", 9, True, "coloring.boundary_colors[9]: expected an integer, got bool"),
            ("sector_colors", 8, 2.0, "coloring.sector_colors[8]: expected an integer, got float"),
            ("boundary_colors", 9, -3, "coloring: boundary color 9 must be a nonnegative integer, got -3"),
            ("boundaries", 5, 2.0, "coloring: boundary angles must be strictly increasing at index 5"),
            ("boundaries", 0, -0.5, "coloring: boundary angle 0 out of [0, 2*pi): -0.5"),
        ],
    )
    def test_late_bad_element_message(self, key, index, value, message):
        doc = self._ten_ray_doc()
        doc[key][index] = value
        with pytest.raises(SchemaError) as exc:
            coloring_from_json(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "changes, message",
        [
            # Several bad elements: each list passes the schema in key order
            # before the coloring is checked, and each names its first offender.
            ({"boundaries": {3: "x", 5: math.nan}}, "coloring.boundaries[3]: expected a number, got str"),
            ({"boundaries": {5: math.nan}, "sector_colors": {2: 0.5}},
             "coloring.boundaries[5]: expected a finite number, got nan"),
            ({"sector_colors": {4: -1}, "boundary_colors": {1: True}},
             "coloring.boundary_colors[1]: expected an integer, got bool"),
            ({"boundaries": {8: 1.0}, "sector_colors": {2: -1}},
             "coloring: boundary angles must be strictly increasing at index 8"),
            ({"sector_colors": {6: -2, 2: -1}, "boundary_colors": {0: -1}},
             "coloring: sector color 2 must be a nonnegative integer, got -1"),
        ],
    )
    def test_first_of_several_bad_elements(self, changes, message):
        doc = self._ten_ray_doc()
        for key, values in changes.items():
            for index, value in values.items():
                doc[key][index] = value
        with pytest.raises(SchemaError) as exc:
            coloring_from_json(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "lengths, message",
        [
            ((10, 9, 10), "coloring: expected 10 sector colors, got 9"),
            ((10, 10, 11), "coloring: expected 10 boundary colors, got 11"),
            ((9, 10, 8), "coloring: expected 9 sector colors, got 10"),
            ((0, 0, 0), "coloring: a radial coloring needs at least one boundary ray"),
        ],
    )
    def test_length_mismatch_message(self, lengths, message):
        doc = self._ten_ray_doc()
        for key, length in zip(("boundaries", "sector_colors", "boundary_colors"), lengths):
            doc[key] = doc[key][:length] + [1] * (length - 10)
        with pytest.raises(SchemaError) as exc:
            coloring_from_json(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("boundaries", [[0, 1, 2, 3, 4, 5], [0, 1.0, 2, 3.5, 4, 5]])
    def test_int_boundaries_read_as_floats(self, boundaries):
        doc = {"r": 0.1, "boundaries": boundaries, "sector_colors": [0] * 6, "boundary_colors": [1] * 6}
        c = coloring_from_json(doc)
        assert c.boundaries == tuple(float(b) for b in boundaries)
        assert all(type(b) is float for b in c.boundaries)

    @pytest.mark.parametrize(
        "key, value, where",
        [
            ("boundaries", [0, 10**400], "coloring.boundaries[1]"),
            ("boundaries", [0.0, 10**400], "coloring.boundaries[1]"),
            ("r", 10**400, "coloring.r"),
        ],
        ids=["int-boundaries", "mixed-boundaries", "r"],
    )
    def test_integer_too_large_for_a_float(self, key, value, where):
        doc = {"r": 0.1, "boundaries": [0.0, 1.0], "sector_colors": [0, 1], "boundary_colors": [0, 1], key: value}
        with pytest.raises(SchemaError) as exc:
            coloring_from_json(doc)
        assert str(exc.value) == f"{where}: expected a finite number, got an integer too large for a float"

    def test_structural_error_wrapped(self):
        doc = {"r": 0.1, "boundaries": [1.0, 0.5], "sector_colors": [0, 1], "boundary_colors": [0, 1]}
        with pytest.raises(SchemaError, match="strictly increasing"):
            coloring_from_json(doc)

    def test_threshold_fields(self):
        t = Threshold(3, 0.077, "(2 - sqrt(3)) / (2*sqrt(3))")
        assert t.colors == 3 and t.max_r == 0.077
