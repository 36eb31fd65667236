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

import math
import operator
from dataclasses import dataclass

from .geometry import (
    DEFAULT_TOLERANCE,
    TWO_PI,
    AngularInterval,
    AnnularSector,
    Annulus,
    Point,
    contains_unit_pair,
    unit_chord_angle,
)
from .schema import SchemaError, require_ints, require_keys, require_number, require_numbers


@dataclass(frozen=True)
class Threshold:
    """Largest half-width r for which ``colors`` colors suffice radially."""

    colors: int
    max_r: float
    expression: str


def thresholds() -> list[Threshold]:
    """The exact band boundaries of the radial chromatic number.

    N colors suffice for r up to and including the N-th entry's max_r
    (the final band is open at 1/2, which lies outside the domain).
    """
    return [
        Threshold(3, (2.0 - math.sqrt(3.0)) / (2.0 * math.sqrt(3.0)), "(2 - sqrt(3)) / (2*sqrt(3))"),
        Threshold(4, (2.0 - math.sqrt(2.0)) / (2.0 * math.sqrt(2.0)), "(2 - sqrt(2)) / (2*sqrt(2))"),
        Threshold(5, -0.5 + math.sqrt(2.0 / (5.0 - math.sqrt(5.0))), "-1/2 + sqrt(2 / (5 - sqrt(5)))"),
        Threshold(6, 0.5, "1/2"),
    ]


def radial_chromatic_number(r: float) -> int:
    """Least number of colors in a proper radial coloring of the annulus.

    Equals ceil(2*pi / theta) with theta the unit-chord angle at the outer
    radius.  A ratio within 4 ulps of an integer is rounding error and is
    snapped to it first, so the thresholds land in their closed band; any
    larger excess means N sectors of width theta leave a gap and N + 1
    colors are needed.
    """
    ratio = TWO_PI / unit_chord_angle(Annulus(r).outer_radius)
    nearest = round(ratio)
    if abs(ratio - nearest) <= 4.0 * math.ulp(nearest):
        return int(nearest)
    return math.ceil(ratio)


@dataclass(frozen=True)
class RadialColoring:
    """A coloring given by boundary rays, per-sector colors, and per-ray colors.

    ``boundaries`` must be strictly increasing angles in [0, 2*pi).  Sector i
    spans boundaries[i] to boundaries[(i+1) % n], open at both ends; with a
    single boundary the lone sector spans the full circle minus that ray.
    """

    annulus: Annulus
    boundaries: tuple[float, ...]
    sector_colors: tuple[int, ...]
    boundary_colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundaries", tuple(map(float, self.boundaries)))
        object.__setattr__(self, "sector_colors", tuple(map(int, self.sector_colors)))
        object.__setattr__(self, "boundary_colors", tuple(map(int, self.boundary_colors)))
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
        arc = AngularInterval(self.boundaries[i], self.sector_width(i), False, False)
        return AnnularSector(self.annulus, arc)

    def boundary_segment(self, i: int) -> AnnularSector:
        return AnnularSector.radial_segment(self.annulus, self.boundaries[i])

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

    N - 1 sectors of width exactly theta take colors 0..N-2 and the leftover
    sector takes color N-1; the ray at angle k*theta takes the color of the
    sector ending there (the clockwise neighbor), so each ray merges with a
    sector of its own color.
    """
    n_colors = radial_chromatic_number(r)
    theta = unit_chord_angle(0.5 + r)
    boundaries = tuple(k * theta for k in range(n_colors))
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


def coloring_from_json(data: dict) -> RadialColoring:
    require_keys(data, ("r", "boundaries", "sector_colors", "boundary_colors"), "coloring")
    r = require_number(data["r"], "coloring.r")
    boundaries = require_numbers(data["boundaries"], "coloring.boundaries")
    sector_colors = require_ints(data["sector_colors"], "coloring.sector_colors")
    boundary_colors = require_ints(data["boundary_colors"], "coloring.boundary_colors")
    try:
        return RadialColoring(Annulus(r), tuple(boundaries), tuple(sector_colors), tuple(boundary_colors))
    except ValueError as exc:
        raise SchemaError(f"coloring: {exc}") from exc
