"""Exact planar geometry of annuli, angular intervals, and distances between sectors.

All angles are radians, normalized to [0, 2*pi). Angular intervals carry
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
from dataclasses import dataclass

DEFAULT_TOLERANCE = 1e-9
TWO_PI = 2.0 * math.pi

Point = tuple[float, float]


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
class AngularInterval:
    """Arc of directions [start, start + width] with per-endpoint open/closed flags.

    width == 0 is the degenerate single-direction case and requires both
    endpoints closed.  width == 2*pi is the full circle; both flags are
    then ignored.  Membership is invariant under adding multiples of 2*pi
    to the query angle.  start must be finite (see normalize_angle).
    """

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

    def contains(self, angle: float, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        """Whether the direction lies in the arc; the tolerance widens closed ends only."""
        if self.width >= TWO_PI:
            return True
        t = normalize_angle(angle - self.start)
        if self.start_closed and (t <= tolerance or t >= TWO_PI - tolerance):
            return True
        if self.end_closed and abs(t - self.width) <= tolerance:
            return True
        return 0.0 < t < self.width


@dataclass(frozen=True)
class AnnularSector:
    """Intersection of an annulus with an angular interval (full radial extent)."""

    annulus: Annulus
    arc: AngularInterval

    @classmethod
    def of(
        cls,
        annulus: Annulus,
        start: float,
        width: float,
        start_closed: bool = True,
        end_closed: bool = True,
    ) -> "AnnularSector":
        return cls(annulus, AngularInterval(start, width, start_closed, end_closed))

    @classmethod
    def radial_segment(cls, annulus: Annulus, angle: float) -> "AnnularSector":
        """Degenerate sector: the intersection of one ray with the annulus."""
        return cls(annulus, AngularInterval(angle, 0.0, True, True))

    def contains(self, point: Point, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        if not self.annulus.contains(point, tolerance):
            return False
        return self.arc.contains(math.atan2(point[1], point[0]), tolerance)


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

    Equals 2*asin(1/(2*R)); defined only for R > 1/2, where the unit chord
    exists.  Strictly decreasing in the radius.
    """
    if outer_radius <= 0.5:
        raise ValueError(f"outer radius must exceed 1/2 for a unit chord to exist, got {outer_radius}")
    return 2.0 * math.asin(1.0 / (2.0 * outer_radius))


# --------------------------------------------------------------------------
# Distance analysis between two sectors of the same annulus.
#
# With p = (rho1, phi1), q = (rho2, phi2) and c = cos(phi1 - phi2),
#     d^2 = rho1^2 + rho2^2 - 2*rho1*rho2*c = (rho1 - rho2)^2 + 2*rho1*rho2*(1 - c),
# strictly decreasing in c and jointly convex in the radii.  phi1 - phi2
# ranges over one arc [lo, hi] of width w1 + w2, read once per pair; the
# extremes of cos over it (attainment flags from the endpoint flags) fix c.
# Every piece spans the full radial extent [a, b], a + b = 1, so the radius
# box is [a, b]^2 for every pair and its extremes are closed-form:
# - d_max^2 is the largest corner value at the least c: a convex function
#   peaks at a corner, and d^2(b, a) equals d^2(a, b) bit for bit.
# - d_min^2 is d^2(a, a) at the greatest c, where both terms above are
#   least.  For c > 0 with c*b >= a the edge point (c*b, b) is taken too:
#   within rounding of c = 1 it can round below d^2(a, a), and the smaller
#   value is what a search over every corner and edge critical point finds
#   (tests/oracles.py keeps that search as the reference).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _AngleExtreme:
    value: float  # extreme value of cos(delta)
    delta: float  # a realizing angular difference in [lo, hi], at an attained end if one is
    attained: bool  # realizable by a pair respecting the endpoint flags


@dataclass(frozen=True)
class _PairAnalysis:
    interval: DistanceInterval
    arc1: AngularInterval
    arc2: AngularInterval
    lo: float  # unwrapped range [lo, hi] of phi1 - phi2
    hi: float
    cos_max: _AngleExtreme  # governs the distance minimum
    cos_min: _AngleExtreme  # governs the distance maximum
    swapped: bool


def _cos_extreme(
    lo: float,
    hi: float,
    lo_ok: bool,
    hi_ok: bool,
    target: float,
    want_max: bool,
    tolerance: float,
) -> _AngleExtreme:
    """Extreme of cos over the angular-difference arc [lo, hi].

    ``lo_ok`` and ``hi_ok`` say whether each end is attained.  ``target``
    is the critical angle of cos being hunted (0 for the max, pi for the
    min); if it is unreachable the extreme sits at an arc endpoint.
    """
    span = hi - lo

    if span >= TWO_PI + tolerance:
        delta = lo + ((target - lo) % TWO_PI)
        return _AngleExtreme(math.cos(target), delta, True)

    u = (target - lo) % TWO_PI
    if u >= TWO_PI - tolerance:
        u = 0.0

    at_lo = u <= tolerance
    at_hi = abs(u - span) <= tolerance
    if abs(span - TWO_PI) <= tolerance:
        # Full circle with a single seam at lo (== hi mod 2*pi).
        at_lo = at_hi = at_lo or u >= span - tolerance
    if at_lo and at_hi:
        return _AngleExtreme(math.cos(target), lo if lo_ok else hi, lo_ok or hi_ok)
    if at_lo:
        return _AngleExtreme(math.cos(target), lo, lo_ok)
    if at_hi:
        return _AngleExtreme(math.cos(target), hi, hi_ok)
    if u < span:
        return _AngleExtreme(math.cos(target), lo + u, True)

    # Critical angle unreachable: the extreme is at an arc endpoint.
    v_lo = math.cos(abs(lo))
    v_hi = math.cos(abs(hi))
    if abs(v_lo - v_hi) <= 1e-12:
        return _AngleExtreme(v_lo if want_max else v_hi, lo if lo_ok else hi, lo_ok or hi_ok)
    if (v_lo > v_hi) == want_max:
        return _AngleExtreme(v_lo, lo, lo_ok)
    return _AngleExtreme(v_hi, hi, hi_ok)


def _dist_sq(r1: float, r2: float, c: float) -> float:
    return r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * c


def _sector_key(s: AnnularSector):
    a = s.arc
    return (a.start, a.width, a.start_closed, a.end_closed)


def _analyze_pair(s1: AnnularSector, s2: AnnularSector, tolerance: float) -> _PairAnalysis:
    if s1.annulus != s2.annulus:
        raise ValueError("sectors belong to different annuli")

    # Canonical operand order makes the result exactly symmetric in (s1, s2).
    swapped = _sector_key(s2) < _sector_key(s1)
    arc1, arc2 = (s2.arc, s1.arc) if swapped else (s1.arc, s2.arc)

    lo = arc1.start - (arc2.start + arc2.width)
    hi = (arc1.start + arc1.width) - arc2.start
    if arc1.width >= TWO_PI or arc2.width >= TWO_PI:
        lo_ok = hi_ok = True
    else:
        lo_ok = arc1.start_closed and arc2.end_closed
        hi_ok = arc1.end_closed and arc2.start_closed
    cos_max = _cos_extreme(lo, hi, lo_ok, hi_ok, 0.0, want_max=True, tolerance=tolerance)
    cos_min = _cos_extreme(lo, hi, lo_ok, hi_ok, math.pi, want_max=False, tolerance=tolerance)

    a = s1.annulus.inner_radius
    b = s1.annulus.outer_radius
    c = cos_min.value
    d_max_sq = max(_dist_sq(a, a, c), _dist_sq(a, b, c), _dist_sq(b, b, c))
    c = cos_max.value
    d_min_sq = _dist_sq(a, a, c)
    if c > 0.0 and c * b >= a:
        d_min_sq = min(d_min_sq, _dist_sq(c * b, b, c))

    interval = DistanceInterval(
        min=math.sqrt(max(0.0, d_min_sq)),
        max=math.sqrt(max(0.0, d_max_sq)),
        min_attained_interior=cos_max.attained,
        max_attained_interior=cos_min.attained,
    )
    return _PairAnalysis(interval, arc1, arc2, lo, hi, cos_max, cos_min, swapped)


def sector_distance_interval(
    s1: AnnularSector, s2: AnnularSector, tolerance: float = DEFAULT_TOLERANCE
) -> DistanceInterval:
    """Exact range of ||p - q|| over p in s1, q in s2.

    Both sectors must belong to the same annulus.  Because sectors are
    connected and distance is continuous, every value in [min, max] is
    realized by some pair of closure points; the attainment flags report
    whether the extremes survive the open/closed endpoint flags.
    """
    return _analyze_pair(s1, s2, tolerance).interval


def _pair_for_delta(arc1: AngularInterval, arc2: AngularInterval, delta: float) -> tuple[float, float]:
    """Angles (phi1, phi2), unwrapped within the arcs, with phi1 - phi2 = delta in [lo, hi]."""
    u0, w1 = arc1.start, arc1.width
    v0, w2 = arc2.start, arc2.width
    phi2_lo = max(v0, u0 - delta)
    phi2_hi = min(v0 + w2, u0 + w1 - delta)
    phi2 = 0.5 * (phi2_lo + phi2_hi)
    return phi2 + delta, phi2


def _polar_point(rho: float, phi: float) -> Point:
    return (rho * math.cos(phi), rho * math.sin(phi))


def _unit_chord_witness(analysis: _PairAnalysis, outer: float) -> tuple[Point, Point]:
    """Pair 1 apart on one circle: directions d apart at radius 1/(2*|sin(d/2)|).

    d is the point nearest the middle of the difference arc on its longest
    piece at circular distance in [theta, pi], so both angles sit strictly
    inside their arcs.  Without such a piece of positive length, d is an
    attained extreme and the radius is capped at the outer one (distance 1
    within the tolerance).
    """
    lo, hi = analysis.lo, analysis.hi
    theta = unit_chord_angle(outer)
    turns = range(math.floor(lo / TWO_PI) - 1, math.ceil(hi / TWO_PI) + 1)
    start, end = max(
        ((max(lo, k * TWO_PI + theta), min(hi, (k + 1) * TWO_PI - theta)) for k in turns),
        key=lambda piece: piece[1] - piece[0],
    )
    if end > start:
        delta = min(max(0.5 * (lo + hi), start), end)
    else:
        delta = (analysis.cos_min if analysis.cos_min.attained else analysis.cos_max).delta
    phi1, phi2 = _pair_for_delta(analysis.arc1, analysis.arc2, delta)
    half_chord = abs(math.sin(0.5 * (phi1 - phi2)))  # per unit radius
    rho = outer if 2.0 * outer * half_chord <= 1.0 else 0.5 / half_chord
    p, q = _polar_point(rho, phi1), _polar_point(rho, phi2)
    return (q, p) if analysis.swapped else (p, q)


def contains_unit_pair(
    s1: AnnularSector, s2: AnnularSector, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[bool, tuple[Point, Point] | None]:
    """Whether some p in s1 and q in s2 are at distance exactly 1.

    Returns (verdict, witness).  A distance-1 value strictly inside the
    realizable range always yields a witness; a value matching the range
    minimum or maximum counts only when the corresponding extreme is
    attained by points respecting the open/closed flags.  The witness is
    closed-form: both points on the circle of radius 1/(2*sin(delta/2)),
    delta their angular distance.
    """
    analysis = _analyze_pair(s1, s2, tolerance)
    di = analysis.interval
    if 1.0 < di.min - tolerance or 1.0 > di.max + tolerance:
        return False, None
    if (
        di.min + tolerance < 1.0 < di.max - tolerance
        or (abs(1.0 - di.min) <= tolerance and di.min_attained_interior)
        or (abs(1.0 - di.max) <= tolerance and di.max_attained_interior)
    ):
        return True, _unit_chord_witness(analysis, s1.annulus.outer_radius)
    return False, None
