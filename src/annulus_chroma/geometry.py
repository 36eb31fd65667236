"""Exact planar geometry of annuli, their sectors, and distances between sectors.

All angles are radians, normalized to [0, 2*pi). Sector arcs carry
explicit open/closed endpoint flags because colorings assign boundary rays
to one adjacent sector; treating everything as closed would reject valid
colorings whose extreme chords sit exactly on an excluded boundary.

Unit-distance witnesses rest on one fact: a unit chord on the circle of
radius rho spans the angle 2*asin(1/(2*rho)), theta at the outer radius.
Two directions at circular distance delta in [theta, pi] therefore carry a
pair exactly 1 apart at radius 1/(2*sin(delta/2)), between 1/2 and 1/2 + r.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

DEFAULT_TOLERANCE = 1e-9
TWO_PI = 2.0 * math.pi
_FLOAT_MAX = sys.float_info.max

Point = tuple[float, float]


def _check_tolerance(tolerance: float, finite: bool = True) -> None:
    """Refuse a NaN or negative tolerance, and an infinite one if ``finite``: one chained comparison when it passes."""
    if not 0.0 <= tolerance <= (_FLOAT_MAX if finite else math.inf):
        raise ValueError(f"tolerance must be {'finite and ' if finite else ''}nonnegative, got {tolerance}")


def normalize_angle(angle: float) -> float:
    """Reduce a finite angle to the canonical range [0, 2*pi); ValueError otherwise."""
    a = angle % TWO_PI
    if not a < TWO_PI or a < 0.0:  # NaN (from inf too) lands here, at no cost to finite angles
        if a != a:
            raise ValueError(f"angle must be finite, got {angle}")
        a = 0.0
    return a


@dataclass(frozen=True)
class Annulus:
    """Closed ring centered at the origin: inner radius 1/2 - r, outer radius 1/2 + r.

    The half-width r must satisfy 0 < r < 1/2, so the inner radius is
    positive and the two radii always sum to 1.
    """

    r: float

    def __post_init__(self) -> None:
        if not 0.0 < self.r < 0.5:
            raise ValueError(f"annulus half-width must lie strictly in (0, 1/2), got {self.r}")

    @property
    def inner_radius(self) -> float:
        return 0.5 - self.r

    @property
    def outer_radius(self) -> float:
        return 0.5 + self.r

    def contains(self, point: Point, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        rho = math.hypot(point[0], point[1])
        return self.inner_radius - tolerance <= rho <= self.outer_radius + tolerance


@dataclass(frozen=True)
class AnnularSector:
    """Annulus points whose direction lies in the arc [start, start + width].

    The arc's ends carry open/closed flags.  width == 0 is a radial segment
    (one ray's part of the annulus) and requires both ends closed.  width ==
    2*pi is the whole annulus; both flags are then ignored.  Membership is
    invariant under adding multiples of 2*pi to a direction.  start must be
    finite (see normalize_angle).
    """

    annulus: Annulus
    start: float
    width: float
    start_closed: bool = True
    end_closed: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.width <= TWO_PI:
            raise ValueError(f"interval width must lie in [0, 2*pi], got {self.width}")
        if self.width == 0.0 and not (self.start_closed and self.end_closed):
            raise ValueError("zero-width interval must be closed at both endpoints")
        object.__setattr__(self, "start", normalize_angle(self.start))

    def contains(self, point: Point, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        """Whether the point lies in the sector; the tolerance widens the annulus and closed arc ends only."""
        if not self.annulus.contains(point, tolerance):
            return False
        if self.width >= TWO_PI:
            return True
        t = normalize_angle(math.atan2(point[1], point[0]) - self.start)
        if self.start_closed and (t <= tolerance or t >= TWO_PI - tolerance):
            return True
        if self.end_closed and abs(t - self.width) <= tolerance:
            return True
        return 0.0 < t < self.width


@dataclass(frozen=True)
class DistanceInterval:
    """Range of Euclidean distances realizable between two sectors.

    The min/max are the extremes over the sector closures; the attainment
    flags record whether each extreme is realized by a point pair that
    respects the sectors' open/closed endpoint flags.
    """

    min: float
    max: float
    min_attained_interior: bool
    max_attained_interior: bool


def unit_chord_angle(outer_radius: float) -> float:
    """Central angle subtended by a chord of length 1 on a circle of the given radius.

    Equals 2*asin(1/(2*R)); defined for R >= 1/2, where the unit chord
    exists, and pi at R = 1/2, where it is a diameter.  Strictly decreasing
    in the radius.
    """
    if outer_radius < 0.5:
        raise ValueError(f"outer radius must be at least 1/2 for a unit chord to exist, got {outer_radius}")
    return 2.0 * math.asin(1.0 / (2.0 * outer_radius))


# --------------------------------------------------------------------------
# Distance analysis between two sectors of the same annulus.
#
# Every piece spans the full radial extent [a, b] = [1/2 - r, 1/2 + r], so a
# pair of points is a chord: at radii rho1, rho2 and circular distance g,
#     d^2 = (rho1 - rho2)^2 + 4*rho1*rho2*sin^2(g/2),
# increasing in g on [0, pi].  phi1 - phi2 ranges over one arc [lo, hi] of
# width w1 + w2, read once per pair; the extremes of g over it (attainment
# flags from the endpoint flags) fix the distance extremes in closed form:
# - d_min = 2*a*sin(g_min/2), at radii (a, a), where both terms are least;
# - d_max = max(2*b*sin(g_max/2), sqrt((b - a)^2 + 4*a*b*sin^2(g_max/2))),
#   the larger of the corners (b, b) and (a, b), since d^2 is convex in the
#   radii and (a, a) never exceeds (b, b).
# The (a, b) corner never exceeds a + b = 1, so with theta = 2*asin(1/(2*b))
# the exact d_max reaches 1 exactly when g_max >= theta.  d_min never
# exceeds 2*a <= 1, so the minimum cannot rule a pair out: contains_unit_pair
# decides a miss from g_max and d_max alone, and computes g_min and d_min
# only for the pairs that survive.
#
# A pair is analysed in plain floats and tuples: contains_unit_pair builds
# objects only for a witness it returns, and sector_distance_interval only
# the DistanceInterval it returns.
# --------------------------------------------------------------------------


def _gap_extreme(
    lo: float,
    hi: float,
    lo_ok: bool,
    hi_ok: bool,
    target: float,
    tolerance: float,
) -> tuple[float, float, bool]:
    """Extreme circular distance over the angular-difference arc [lo, hi].

    Returns (gap, delta, attained): the extreme circular distance in
    [0, pi], a realizing angular difference in [lo, hi] (at an attained end
    if one is), and whether a pair respecting the endpoint flags realizes
    it.  ``lo_ok`` and ``hi_ok`` say whether each end is attained.
    ``target`` is the circular distance being hunted (0 for the min, pi for
    the max); if it is unreachable the extreme sits at an arc endpoint.
    """
    span = hi - lo

    if span >= TWO_PI + tolerance:
        return target, lo + ((target - lo) % TWO_PI), True

    u = (target - lo) % TWO_PI
    if u >= TWO_PI - tolerance:
        u = 0.0

    at_lo = u <= tolerance
    at_hi = abs(u - span) <= tolerance
    if abs(span - TWO_PI) <= tolerance:
        # Full circle with a single seam at lo (== hi mod 2*pi).
        at_lo = at_hi = at_lo or u >= span - tolerance
    if at_lo and at_hi:
        return target, lo if lo_ok else hi, lo_ok or hi_ok
    if at_lo:
        return target, lo, lo_ok
    if at_hi:
        return target, hi, hi_ok
    if u < span:
        return target, lo + u, True

    # Target unreachable: the extreme is at the arc endpoint of greater
    # (min) or lesser (max) cosine, the two counted equal within 1e-12.
    # In a tie the value is the nearer (min) or farther (max) end's circular
    # distance, which the cosines cannot tell apart near 0 and pi; the delta
    # and the attained flag stay those of the tie, which verdicts rest on.
    want_min = target == 0.0
    v_lo = math.cos(abs(lo))
    v_hi = math.cos(abs(hi))
    if abs(v_lo - v_hi) <= 1e-12:
        ends = (abs(math.remainder(lo, TWO_PI)), abs(math.remainder(hi, TWO_PI)))
        return min(ends) if want_min else max(ends), lo if lo_ok else hi, lo_ok or hi_ok
    if (v_lo > v_hi) == want_min:
        return abs(math.remainder(lo, TWO_PI)), lo, lo_ok
    return abs(math.remainder(hi, TWO_PI)), hi, hi_ok


def _sector_key(s: AnnularSector):
    return (s.start, s.width, s.start_closed, s.end_closed)


def _difference_arc(s1: AnnularSector, s2: AnnularSector, tolerance: float):
    """(lo, hi, lo_ok, hi_ok, swapped): the range [lo, hi] of phi1 - phi2 for a pair of sectors.

    The range is unwrapped and taken over the pair in canonical order
    (swapped when that order is (s2, s1)); ``lo_ok`` and ``hi_ok`` say
    whether a pair respecting the endpoint flags attains each end.
    """
    # An infinite tolerance still passes: every pair then holds a unit pair,
    # and perfbench's witness-checker test takes its degenerate witness.
    _check_tolerance(tolerance, False)
    if s1.annulus != s2.annulus:
        raise ValueError("sectors belong to different annuli")

    # Canonical operand order makes the result exactly symmetric in (s1, s2).
    swapped = _sector_key(s2) < _sector_key(s1)
    c1, c2 = (s2, s1) if swapped else (s1, s2)

    lo = c1.start - (c2.start + c2.width)
    hi = (c1.start + c1.width) - c2.start
    if c1.width >= TWO_PI or c2.width >= TWO_PI:
        lo_ok = hi_ok = True
    else:
        lo_ok = c1.start_closed and c2.end_closed
        hi_ok = c1.end_closed and c2.start_closed
    return lo, hi, lo_ok, hi_ok, swapped


def _max_distance(r: float, gap: float) -> float:
    """d_max at largest circular gap ``gap`` in the annulus of half-width r."""
    a = 0.5 - r
    b = 0.5 + r
    s = math.sin(0.5 * gap)
    return max(2.0 * b * s, math.sqrt((b - a) * (b - a) + 4.0 * a * b * s * s))


def _min_distance(r: float, gap: float) -> float:
    """d_min at least circular gap ``gap`` in the annulus of half-width r."""
    return 2.0 * (0.5 - r) * math.sin(0.5 * gap)


def sector_distance_interval(
    s1: AnnularSector, s2: AnnularSector, tolerance: float = DEFAULT_TOLERANCE
) -> DistanceInterval:
    """Exact range of ||p - q|| over p in s1, q in s2.

    Both sectors must belong to the same annulus.  Because sectors are
    connected and distance is continuous, every value in [min, max] is
    realized by some pair of closure points; the attainment flags report
    whether the extremes survive the open/closed endpoint flags.
    """
    lo, hi, lo_ok, hi_ok, _ = _difference_arc(s1, s2, tolerance)
    gap_min = _gap_extreme(lo, hi, lo_ok, hi_ok, 0.0, tolerance)
    gap_max = _gap_extreme(lo, hi, lo_ok, hi_ok, math.pi, tolerance)
    r = s1.annulus.r
    return DistanceInterval(_min_distance(r, gap_min[0]), _max_distance(r, gap_max[0]), gap_min[2], gap_max[2])


def _pair_for_delta(s1: AnnularSector, s2: AnnularSector, delta: float) -> tuple[float, float]:
    """Angles (phi1, phi2), unwrapped within the arcs, with phi1 - phi2 = delta in [lo, hi]."""
    u0, w1 = s1.start, s1.width
    v0, w2 = s2.start, s2.width
    phi2_lo = max(v0, u0 - delta)
    phi2_hi = min(v0 + w2, u0 + w1 - delta)
    phi2 = 0.5 * (phi2_lo + phi2_hi)
    return phi2 + delta, phi2


def _polar_point(rho: float, phi: float) -> Point:
    return (rho * math.cos(phi), rho * math.sin(phi))


def _unit_chord_witness(
    s1: AnnularSector, s2: AnnularSector, lo: float, hi: float, delta_at_extreme: float, swapped: bool
) -> tuple[Point, Point]:
    """Pair 1 apart on one circle: directions d apart at radius 1/(2*|sin(d/2)|).

    [lo, hi] and ``swapped`` are _difference_arc's.  d is the point nearest
    the middle of the difference arc on its longest piece at circular
    distance in [theta, pi], so both angles sit strictly inside their arcs.
    Without such a piece of positive length, d is ``delta_at_extreme``,
    that of an attained extreme, and the radius is capped at the outer one;
    the pair is then 1 apart only up to the tolerance and rounding, which
    the caller checks.
    """
    outer = s1.annulus.outer_radius
    theta = unit_chord_angle(outer)
    turns = range(math.floor(lo / TWO_PI) - 1, math.ceil(hi / TWO_PI) + 1)
    start, end = max(
        ((max(lo, k * TWO_PI + theta), min(hi, (k + 1) * TWO_PI - theta)) for k in turns),
        key=lambda piece: piece[1] - piece[0],
    )
    delta = min(max(0.5 * (lo + hi), start), end) if end > start else delta_at_extreme
    c1, c2 = (s2, s1) if swapped else (s1, s2)
    phi1, phi2 = _pair_for_delta(c1, c2, delta)
    half_chord = abs(math.sin(0.5 * (phi1 - phi2)))  # per unit radius
    rho = outer if 2.0 * outer * half_chord <= 1.0 else 0.5 / half_chord
    p, q = _polar_point(rho, phi1), _polar_point(rho, phi2)
    return (q, p) if swapped else (p, q)


def contains_unit_pair(
    s1: AnnularSector, s2: AnnularSector, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[bool, tuple[Point, Point] | None]:
    """Whether some p in s1 and q in s2 are at distance 1 within the tolerance.

    Returns (verdict, witness).  A distance-1 value strictly inside the
    realizable range always yields a witness; a value matching the range
    minimum or maximum within the tolerance counts only when the
    corresponding extreme is attained by points respecting the open/closed
    flags, and its witness is 1 apart within the tolerance by math.dist.
    The witness is closed-form: both points on the circle of radius
    1/(2*sin(delta/2)), delta their angular distance.
    """
    lo, hi, lo_ok, hi_ok, swapped = _difference_arc(s1, s2, tolerance)
    r = s1.annulus.r
    gap_max = _gap_extreme(lo, hi, lo_ok, hi_ok, math.pi, tolerance)
    d_max = _max_distance(r, gap_max[0])
    if 1.0 > d_max + tolerance:
        return False, None
    # 1.0 < d_min - tolerance never holds: d_min = 2*a*sin(g_min/2) <= 2*a <= 1.
    gap_min = _gap_extreme(lo, hi, lo_ok, hi_ok, 0.0, tolerance)
    d_min = _min_distance(r, gap_min[0])
    interior = d_min + tolerance < 1.0 < d_max - tolerance
    if (
        interior
        or (abs(1.0 - d_min) <= tolerance and gap_min[2])
        or (abs(1.0 - d_max) <= tolerance and gap_max[2])
    ):
        delta_at_extreme = (gap_max if gap_max[2] else gap_min)[1]
        witness = _unit_chord_witness(s1, s2, lo, hi, delta_at_extreme, swapped)
        # A witness capped at the outer radius can fall short of 1 by the
        # tolerance and a few ulps more; such a pair is a miss.
        if interior or abs(math.dist(*witness) - 1.0) <= tolerance:
            return True, witness
    return False, None
