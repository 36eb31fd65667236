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
    if not outer_radius >= 0.5:  # NaN too
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
# the DistanceInterval it returns.  Both read a pair through _analyse_pair,
# whose prologue is in the common case three comparisons (the tolerance,
# the annuli by identity, the starts).  contains_unit_pair first decides a
# miss in one pass in its own frame, with no helper call: that prologue and
# lo, hi; then, when pi lies off [lo, hi] by more than the tolerance, g_max
# as the larger of the ends' circular distances and d_max, in
# _analyse_pair's float operations, so each miss it decides is the full
# analysis's, to the last bit.  A pair that pass does not rule out goes to
# _analyse_pair.
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

    # Target unreachable: the extreme is at the arc end of smaller (min) or
    # larger (max) circular distance, lo when the two are equal.  An
    # unattained extreme end whose cosine ties the attained other end's
    # within 1e-12 hands the delta and the attained flag to that end, so a
    # pair and its mirror image agree; the value stays the extreme end's.
    g_lo = abs(math.remainder(lo, TWO_PI))
    g_hi = abs(math.remainder(hi, TWO_PI))
    if (g_hi < g_lo) if target == 0.0 else (g_hi > g_lo):
        gap, end, end_ok, other, other_ok = g_hi, hi, hi_ok, lo, lo_ok
    else:
        gap, end, end_ok, other, other_ok = g_lo, lo, lo_ok, hi, hi_ok
    if other_ok and not end_ok and abs(math.cos(abs(lo)) - math.cos(abs(hi))) <= 1e-12:
        return gap, other, True
    return gap, end, end_ok


def _sector_key(s: AnnularSector):
    return (s.start, s.width, s.start_closed, s.end_closed)


def _analyse_pair(s1: AnnularSector, s2: AnnularSector, tolerance: float):
    """(swapped, lo, hi, gap_min, gap_max, d_min, d_max): the distance analysis of a pair of sectors.

    [lo, hi] is the range of phi1 - phi2, unwrapped and taken over the pair
    in canonical order (swapped when that order is (s2, s1)).  gap_min and
    gap_max are _gap_extreme's (gap, delta, attained) toward 0 and pi, with
    each end of [lo, hi] attained when a pair respecting the endpoint flags
    reaches it, and d_min and d_max the distance extremes they fix.
    """
    # An infinite tolerance still passes: every pair then holds a unit pair,
    # and perfbench's witness-checker test takes its degenerate witness.
    if not 0.0 <= tolerance <= math.inf:
        _check_tolerance(tolerance, False)
    # Annulus refuses a NaN r, so the same object is an equal annulus.
    if s1.annulus is not s2.annulus and s1.annulus != s2.annulus:
        raise ValueError("sectors belong to different annuli")

    # Canonical operand order makes the result exactly symmetric in (s1, s2).
    # It is the order of _sector_key, whose first field, the start, settles
    # every pair but those starting together (a sector and its own ray).
    swapped = s2.start < s1.start or (s2.start == s1.start and _sector_key(s2) < _sector_key(s1))
    c1, c2 = (s2, s1) if swapped else (s1, s2)

    lo = c1.start - (c2.start + c2.width)
    hi = (c1.start + c1.width) - c2.start
    if c1.width >= TWO_PI or c2.width >= TWO_PI:
        lo_ok = hi_ok = True
    else:
        lo_ok = c1.start_closed and c2.end_closed
        hi_ok = c1.end_closed and c2.start_closed
    gap_min = _gap_extreme(lo, hi, lo_ok, hi_ok, 0.0, tolerance)
    gap_max = _gap_extreme(lo, hi, lo_ok, hi_ok, math.pi, tolerance)
    r = s1.annulus.r
    a = 0.5 - r
    b = 0.5 + r
    s = math.sin(0.5 * gap_max[0])
    d_max = max(2.0 * b * s, math.sqrt((b - a) * (b - a) + 4.0 * a * b * s * s))
    d_min = 2.0 * a * math.sin(0.5 * gap_min[0])
    return swapped, lo, hi, gap_min, gap_max, d_min, d_max


def sector_distance_interval(
    s1: AnnularSector, s2: AnnularSector, tolerance: float = DEFAULT_TOLERANCE
) -> DistanceInterval:
    """Exact range of ||p - q|| over p in s1, q in s2.

    Both sectors must belong to the same annulus.  Because sectors are
    connected and distance is continuous, every value in [min, max] is
    realized by some pair of closure points; the attainment flags report
    whether the extremes survive the open/closed endpoint flags.
    """
    _, _, _, gap_min, gap_max, d_min, d_max = _analyse_pair(s1, s2, tolerance)
    return DistanceInterval(d_min, d_max, gap_min[2], gap_max[2])


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

    [lo, hi] and ``swapped`` are _analyse_pair's.  d is the point nearest
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
    # _analyse_pair's prologue and lo, hi, in its float operations.
    if not 0.0 <= tolerance <= math.inf:
        _check_tolerance(tolerance, False)
    annulus = s1.annulus
    if annulus is not s2.annulus and annulus != s2.annulus:
        raise ValueError("sectors belong to different annuli")
    start1 = s1.start
    start2 = s2.start
    swapped = start2 < start1 or (start2 == start1 and _sector_key(s2) < _sector_key(s1))
    c1, c2 = (s2, s1) if swapped else (s1, s2)
    lo = c1.start - (c2.start + c2.width)
    hi = (c1.start + c1.width) - c2.start
    r = annulus.r

    # The one-pass miss: pi lies off [lo, hi] by more than the tolerance
    # (which implies _gap_extreme's two span checks fail), exactly where
    # _gap_extreme(..., pi, ...) reaches its unreachable branch, so g_max is
    # the larger of the ends' circular distances and d_max is _analyse_pair's,
    # both in the same operations.
    u = (math.pi - lo) % TWO_PI
    if tolerance < u < TWO_PI - tolerance and u - (hi - lo) > tolerance:
        gap = max(abs(math.remainder(lo, TWO_PI)), abs(math.remainder(hi, TWO_PI)))
        a = 0.5 - r
        b = 0.5 + r
        s = math.sin(0.5 * gap)
        # 1 > max(x, y) + tol exactly when 1 > x + tol and 1 > y + tol.
        if 1.0 > 2.0 * b * s + tolerance and 1.0 > math.sqrt((b - a) * (b - a) + 4.0 * a * b * s * s) + tolerance:
            return False, None

    # No miss gets here: a pair off the one-pass test has g_max = pi, so
    # d_max >= 2*b*sin(pi/2) >= 1; and 1.0 < d_min - tolerance never holds,
    # as d_min = 2*a*sin(g_min/2) <= 2*a <= 1.
    swapped, lo, hi, gap_min, gap_max, d_min, d_max = _analyse_pair(s1, s2, tolerance)
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
