"""Radial colorings of an annulus and the radial chromatic number.

A radial coloring partitions the annulus by finitely many boundary rays:
each open sector between consecutive rays is monochromatic and each ray
(a closed radial segment) carries its own color.  The least number of
colors in a proper radial coloring is ceil(2*pi / theta), where theta is
the angular width of a unit chord on the outer circle.  The verifier
checks every pair of same-colored pieces with contains_unit_pair and
returns a witness for the first conflict.  It builds a piece's region only
when its scan first reaches the piece, and a piece label only for the
reported pair, so an early conflict costs little on a large coloring.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
from dataclasses import dataclass

from .geometry import (
    DEFAULT_TOLERANCE,
    TWO_PI,
    AnnularSector,
    Annulus,
    Point,
    contains_unit_pair,
)
from .schema import SchemaError, require_int, require_keys, require_list, require_number


@dataclass(frozen=True)
class Threshold:
    """Band: ``colors`` colors suffice radially up to ``max_r``, but for the floats thresholds() names."""

    colors: int
    max_r: float
    expression: str


def thresholds() -> list[Threshold]:
    """The band boundaries of the radial chromatic number, in closed form.

    N(r) is the colors of the first row with r <= max_r (the final band is
    open at 1/2, outside the domain).  The floats of T3 and T5 lie above the
    real thresholds, so the rows are one color short on the 3 and 2 floats
    in between; T4's lies below, one color over on the 1 float between.
    """
    return [
        Threshold(3, (2.0 - math.sqrt(3.0)) / (2.0 * math.sqrt(3.0)), "(2 - sqrt(3)) / (2*sqrt(3))"),
        Threshold(4, (2.0 - math.sqrt(2.0)) / (2.0 * math.sqrt(2.0)), "(2 - sqrt(2)) / (2*sqrt(2))"),
        Threshold(5, -0.5 + math.sqrt(2.0 / (5.0 - math.sqrt(5.0))), "-1/2 + sqrt(2 / (5 - sqrt(5)))"),
        Threshold(6, 0.5, "1/2"),
    ]


def radial_chromatic_number(r: float) -> int:
    """Least number of colors in a proper radial coloring of the annulus.

    N equal sectors of width 2*pi/N are no wider than the unit-chord angle
    theta exactly when r <= T_N, so N(r) is the colors of the first row of
    thresholds() with r <= max_r, for every r that Annulus accepts.
    """
    Annulus(r)
    return next(t.colors for t in thresholds() if r <= t.max_r)


def _angles(boundaries) -> tuple[float, ...]:
    """The angles as floats, refusing any that is not a real number; float() would parse "0.5" and read True."""
    try:
        iter(boundaries)
    except TypeError:
        raise ValueError(f"boundaries must be an iterable of angles, got {boundaries!r}") from None
    bs = tuple(boundaries)
    types = set(map(type, bs))
    if types <= {float}:
        return bs
    if types <= {float, int}:
        with contextlib.suppress(OverflowError):  # the loop names the first integer too large
            return tuple(map(float, bs))
    angles = []
    for i, b in enumerate(bs):
        if isinstance(b, bool) or not isinstance(b, numbers.Real):
            raise ValueError(f"boundary angle {i} must be a real number, got {b!r}")
        try:
            angles.append(float(b))
        except OverflowError:
            raise ValueError(f"boundary angle {i} must be a finite number, "
                             "got an integer too large for a float") from None
    return tuple(angles)


def _color_ints(colors, name: str) -> tuple[int, ...]:
    """The colors as ints; int() would truncate 1.5 into another color class and parse "1", index() read True."""
    try:
        iter(colors)
    except TypeError:
        raise ValueError(f"{name}_colors must be an iterable of colors, got {colors!r}") from None
    cs = tuple(colors)
    if set(map(type, cs)) <= {int}:
        return cs
    for i, c in enumerate(cs):
        if isinstance(c, bool) or not hasattr(c, "__index__"):
            raise ValueError(f"{name} color {i} must be a nonnegative integer, got {c!r}")
    return tuple(map(operator.index, cs))


@dataclass(frozen=True)
class RadialColoring:
    """A coloring given by boundary rays, per-sector colors, and per-ray colors.

    ``boundaries`` must be strictly increasing angles in [0, 2*pi).  Sector i
    spans boundaries[i] to boundaries[(i+1) % n], open at both ends; with a
    single boundary the lone sector spans the full circle minus that ray.
    Angles are stored as floats and colors as ints; a bool or a string is
    neither.  Only a list a bulk pass over exact types refuses is checked
    element by element, which names the first bad index.
    """

    annulus: Annulus
    boundaries: tuple[float, ...]
    sector_colors: tuple[int, ...]
    boundary_colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundaries", _angles(self.boundaries))
        object.__setattr__(self, "sector_colors", _color_ints(self.sector_colors, "sector"))
        object.__setattr__(self, "boundary_colors", _color_ints(self.boundary_colors, "boundary"))
        n = len(self.boundaries)
        if n < 1:
            raise ValueError("a radial coloring needs at least one boundary ray")
        # One pass in C accepts a valid list; the loop only names the first bad index.
        bs = self.boundaries
        if not (0.0 <= bs[0] and bs[-1] < TWO_PI and all(map(operator.lt, bs, bs[1:]))):
            for i, b in enumerate(bs):
                if not 0.0 <= b < TWO_PI:
                    raise ValueError(f"boundary angle {i} out of [0, 2*pi): {b}")
                if i > 0 and b <= bs[i - 1]:
                    raise ValueError(f"boundary angles must be strictly increasing at index {i}")
        if len(self.sector_colors) != n:
            raise ValueError(f"expected {n} sector colors, got {len(self.sector_colors)}")
        if len(self.boundary_colors) != n:
            raise ValueError(f"expected {n} boundary colors, got {len(self.boundary_colors)}")
        for name, colors in (("sector", self.sector_colors), ("boundary", self.boundary_colors)):
            if min(colors) < 0:
                for i, c in enumerate(colors):
                    if c < 0:
                        raise ValueError(f"{name} color {i} must be a nonnegative integer, got {c}")

    @property
    def n(self) -> int:
        return len(self.boundaries)

    def sector_width(self, i: int) -> float:
        if self.n == 1:
            return TWO_PI
        width = (self.boundaries[(i + 1) % self.n] - self.boundaries[i]) % TWO_PI
        return width

    def sector(self, i: int) -> AnnularSector:
        """Open sector between boundary rays i and i+1 (full circle minus the ray when n == 1)."""
        return AnnularSector(self.annulus, self.boundaries[i], self.sector_width(i), False, False)

    def boundary_segment(self, i: int) -> AnnularSector:
        return AnnularSector(self.annulus, self.boundaries[i], 0.0)

    def colors_used(self) -> list[int]:
        return sorted(set(self.sector_colors) | set(self.boundary_colors))


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking a radial coloring for unit-distance conflicts."""

    proper: bool
    witness: tuple[Point, Point] | None = None
    color: int | None = None
    piece_labels: tuple[str, str] | None = None


def construct_radial_coloring(r: float) -> RadialColoring:
    """Proper radial coloring with exactly radial_chromatic_number(r) colors.

    N equal sectors, cut at k*2*pi/N, take colors 0..N-1; the ray at the
    start of sector k takes the color of sector k - 1 (the clockwise
    neighbor), so each color is one arc of width 2*pi/N, no wider than
    theta exactly when r <= T_N.  Rounded, the arcs pass theta only on 10
    floats at most 6 below T3, T4 or T5.
    """
    n_colors = radial_chromatic_number(r)
    boundaries = tuple(k * TWO_PI / n_colors for k in range(n_colors))
    sector_colors = tuple(range(n_colors))
    boundary_colors = (n_colors - 1,) + tuple(range(n_colors - 1))
    return RadialColoring(Annulus(r), boundaries, sector_colors, boundary_colors)


def verify_radial_coloring(
    coloring: RadialColoring, tolerance: float = DEFAULT_TOLERANCE
) -> VerificationResult:
    """Check every pair of same-colored pieces (including self-pairs) for a unit chord.

    Sectors are open at both angular ends; boundary rays are closed
    zero-width segments.  Proper iff no same-colored pair of points lies at
    distance exactly 1; otherwise a witness pair is returned.

    Piece k is sector k for k < n and boundary ray k - n otherwise.  Colors
    are scanned in ascending order and each color's pairs (i, j), i <= j, in
    index order.  A piece's region is built when the scan first reaches it,
    so a conflict early in the scan builds few of the 2n regions, and labels
    are formatted only for the reported pair.
    """
    n = coloring.n
    by_color: dict[int, list[int]] = {}
    for k, color in enumerate(coloring.sector_colors + coloring.boundary_colors):
        by_color.setdefault(color, []).append(k)

    def region(k: int) -> AnnularSector:
        return coloring.sector(k) if k < n else coloring.boundary_segment(k - n)

    def conflict(i: int, j: int, witness: tuple[Point, Point], color: int) -> VerificationResult:
        labels = tuple(f"sector {k}" if k < n else f"boundary {k - n}" for k in (i, j))
        return VerificationResult(proper=False, witness=witness, color=color, piece_labels=labels)

    for color in sorted(by_color):
        group = by_color[color]
        # Row 0 meets every piece of the color in order, so it builds them all.
        regions: list[AnnularSector] = []
        for k in group:
            regions.append(region(k))
            found, witness = contains_unit_pair(regions[0], regions[-1], tolerance)
            if found:
                return conflict(group[0], k, witness, color)
        for i in range(1, len(group)):
            for j in range(i, len(group)):
                found, witness = contains_unit_pair(regions[i], regions[j], tolerance)
                if found:
                    return conflict(group[i], group[j], witness, color)
    return VerificationResult(proper=True)


def coloring_to_json(coloring: RadialColoring) -> dict:
    return {
        "r": coloring.annulus.r,
        "boundaries": list(coloring.boundaries),
        "sector_colors": list(coloring.sector_colors),
        "boundary_colors": list(coloring.boundary_colors),
    }


_LISTS = (("boundaries", require_number), ("sector_colors", require_int), ("boundary_colors", require_int))


def coloring_from_json(data: dict) -> RadialColoring:
    """The coloring of a JSON document; RadialColoring checks its lists.

    Only lists it refuses are checked against the schema element by element,
    in key order, so a SchemaError names the first bad element's position.
    """
    require_keys(data, ("r", "boundaries", "sector_colors", "boundary_colors"), "coloring")
    r = require_number(data["r"], "coloring.r")
    lists = [data[key] for key, _ in _LISTS]
    try:
        if not all(isinstance(values, list) for values in lists):
            raise ValueError("a list is not a JSON array")  # the checks below name it
        return RadialColoring(Annulus(r), *lists)
    except ValueError as exc:
        for key, require in _LISTS:
            for i, value in enumerate(require_list(data[key], f"coloring.{key}")):
                require(value, f"coloring.{key}[{i}]")
        raise SchemaError(f"coloring: {exc}") from exc

