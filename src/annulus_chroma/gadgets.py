"""Unit-distance gadgets embedded in an annulus, with numeric certificates.

Each embedder returns explicit vertex coordinates, the unit edges, and the
clearance (margin) from the annulus boundary; every placement is closed
form.  The odd cycle and the Moser spindle are finite graphs whose
chromatic numbers (3 and 4) the exact solver checks.  The tri-rod is
centered on the origin, so rotating it about the center keeps every
vertex at radius 1/sqrt(3): it turns freely inside the annulus exactly
when it embeds, with no sampled path to check.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .geometry import DEFAULT_TOLERANCE, Annulus, Point, TWO_PI, unit_chord_angle
from .radial import thresholds
from .udg import _float_points

# Half-width above which the gadget fits strictly inside the annulus: T3.
TRI_ROD_THRESHOLD = thresholds()[0].max_r
SPINDLE_THRESHOLD = 3.0 / math.sqrt(11.0) - 0.5

# Angle between the two rhombus axes that puts the far apexes (both at
# distance sqrt(3) from the hub) at distance exactly 1.
SPINDLE_SPREAD = 2.0 * math.asin(1.0 / (2.0 * math.sqrt(3.0)))

SPINDLE_EDGES = (
    (0, 1), (0, 2), (0, 4), (0, 5),
    (1, 2), (1, 3), (2, 3),
    (3, 6),
    (4, 5), (4, 6), (5, 6),
)

# Vertex count and sorted edges of each kind but the odd cycle, whose length varies.
_SHAPES = {"rod": (2, ((0, 1),)), "tri_rod": (3, ((0, 1), (0, 2), (1, 2))), "moser_spindle": (7, SPINDLE_EDGES)}

ODD_CYCLE_MAX_N = 99


def _star_radius(n: int) -> float:
    """Circumradius of the unit-side star polygon {n/w}, w = (n - 1)/2, for odd n."""
    return 1.0 / (2.0 * math.sin(math.pi * ((n - 1) // 2) / n))


# Below this half-width not even the ODD_CYCLE_MAX_N-gon reaches the outer circle.
ODD_CYCLE_THRESHOLD = _star_radius(ODD_CYCLE_MAX_N) - 0.5


class GadgetInfeasible(ValueError):
    """The gadget cannot be embedded at this half-width; carries the threshold.

    The message claims no inequality with the threshold: the odd cycle
    embeds at its threshold, the spindle does not.
    """

    def __init__(self, kind: str, r: float, threshold: float):
        super().__init__(f"{kind} does not embed at r = {r!r}; threshold {threshold!r}")
        self.kind = kind
        self.r = r
        self.threshold = threshold


def _frozen(value):
    """The value with its lists, nested ones too, turned into tuples."""
    return tuple(_frozen(v) for v in value) if isinstance(value, list) else value


def _thawed(value):
    """The value with its tuples, nested ones too, turned into lists, as JSON reads them."""
    return [_thawed(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class GadgetEmbedding:
    """Concrete placement of a gadget: vertices, unit edges, boundary clearance.

    margin is the signed minimal clearance of any vertex from the two
    annulus circles; interior embeddings have margin > 0.  edges are not
    given but follow from the kind, as sorted pairs: those of _SHAPES, or
    for an odd cycle of n vertices (k, k + 1) and (0, n - 1).  The vertices
    are stored as float pairs, their count must be the kind's, and each
    edge must be 1 long within DEFAULT_TOLERANCE.  params is stored as a
    read-only copy, its lists as tuples, and is left out of the hash.
    """

    kind: str
    params: Mapping[str, object] = field(hash=False)
    vertices: tuple[Point, ...]
    edges: tuple[tuple[int, int], ...] = field(init=False)
    margin: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType({k: _frozen(v) for k, v in self.params.items()}))
        vertices = _float_points(self.vertices)
        object.__setattr__(self, "vertices", vertices)
        n = len(vertices)
        if self.kind == "odd_cycle":
            if n < 3 or n % 2 == 0:
                raise ValueError(f"odd_cycle needs an odd vertex count >= 3, got {n}")
            shape = (n, ((0, 1), (0, n - 1)) + tuple((k, k + 1) for k in range(1, n - 1)))
        elif self.kind in _SHAPES:
            shape = _SHAPES[self.kind]
        else:
            raise ValueError(f"unknown gadget kind {self.kind!r}")
        if n != shape[0]:
            raise ValueError(f"{self.kind} needs {shape[0]} vertices, got {n}")
        for i, j in shape[1]:
            d = math.dist(vertices[i], vertices[j])
            if not abs(d - 1.0) <= DEFAULT_TOLERANCE:  # NaN fails too
                raise ValueError(f"{self.kind} edge ({i}, {j}) has length {d}, not 1 within {DEFAULT_TOLERANCE}")
        object.__setattr__(self, "edges", shape[1])

    def __reduce__(self):
        # A mappingproxy does not pickle: rebuild from a dict, through the checks above.
        return type(self), (self.kind, dict(self.params), self.vertices, self.margin)


def margin_of(vertices, annulus: Annulus) -> float:
    """Signed minimal clearance of the vertices from the annulus boundary circles."""
    inner, outer = annulus.inner_radius, annulus.outer_radius
    worst = math.inf
    for x, y in vertices:
        rho = math.hypot(x, y)
        worst = min(worst, rho - inner, outer - rho)
    return worst


def embed_rod(r: float) -> GadgetEmbedding:
    """Unit segment with both endpoints at radius (1/2 + outer_radius)/2.

    That radius is the midpoint of (1/2, outer_radius), so the margin is
    r/2 up to the rounding of radii near 1/2.  For r <= 2**-54, where
    1/2 + r rounds to 1/2, the rod is a diameter and the margin is 0.
    """
    annulus = Annulus(r)
    rho = 0.5 * (0.5 + annulus.outer_radius)
    h = math.sqrt(rho * rho - 0.25)
    vertices = ((-0.5, h), (0.5, h))
    return GadgetEmbedding(
        kind="rod",
        params={"r": r, "rho": rho},
        vertices=vertices,
        margin=margin_of(vertices, annulus),
    )


def embed_odd_cycle(r: float) -> GadgetEmbedding:
    """Star polygon {n/w} of unit side, w = (n - 1)/2, with the least odd n that fits.

    Vertices 2*pi*w/n apart on the circle of radius 1/(2*sin(pi*w/n)) make
    every cycle edge unit and no chord.  That radius is at most the outer
    one when the step is at least theta, first for w = (n - 1)/2 once
    n >= pi/(pi - theta); no smaller w fits at that n, and gcd(n, w) = 1.
    The float test of the radius settles n near the switch points.  Raises
    GadgetInfeasible below ODD_CYCLE_THRESHOLD, where not even
    n = ODD_CYCLE_MAX_N fits, less the floats just under it for which
    1/2 + r rounds up to that radius.
    """
    annulus = Annulus(r)
    outer = annulus.outer_radius
    if _star_radius(ODD_CYCLE_MAX_N) > outer:
        raise GadgetInfeasible("odd_cycle", r, ODD_CYCLE_THRESHOLD)
    theta = unit_chord_angle(outer)
    n = max(3, math.ceil(math.pi / (math.pi - theta))) | 1  # least odd n at or above the bound
    while n > 3 and _star_radius(n - 2) <= outer:
        n -= 2
    while _star_radius(n) > outer:
        n += 2
    w = (n - 1) // 2
    rho = _star_radius(n)
    step = TWO_PI * w / n
    vertices = tuple((rho * math.cos(step * k), rho * math.sin(step * k)) for k in range(n))
    return GadgetEmbedding(
        kind="odd_cycle",
        params={"r": r, "n": n, "w": w, "rho": rho},
        vertices=vertices,
        margin=margin_of(vertices, annulus),
    )


def embed_trirod(r: float) -> GadgetEmbedding:
    """Unit equilateral triangle centered at the origin (circumradius 1/sqrt(3)).

    Feasible exactly when the margin computed from the vertex coordinates is
    positive: r > TRI_ROD_THRESHOLD, less the few floats just above it where
    rounding puts the vertices on the outer circle.
    """
    annulus = Annulus(r)
    rho = 1.0 / math.sqrt(3.0)
    vertices = tuple(
        (rho * math.cos(a), rho * math.sin(a))
        for a in (math.pi / 2.0, math.pi / 2.0 + TWO_PI / 3.0, math.pi / 2.0 + 2.0 * TWO_PI / 3.0)
    )
    margin = margin_of(vertices, annulus)
    if margin <= 0.0:
        raise GadgetInfeasible("tri_rod", r, TRI_ROD_THRESHOLD)
    return GadgetEmbedding(
        kind="tri_rod",
        params={"r": r, "rho": rho},
        vertices=vertices,
        margin=margin,
    )


def trirod_rotation_path(r: float) -> bool:
    """Whether the tri-rod turns about the center strictly inside the annulus.

    Rotation keeps every vertex at radius 1/sqrt(3), so this holds exactly
    when embed_trirod(r) returns; it raises GadgetInfeasible otherwise.
    """
    return embed_trirod(r).margin > 0.0


def spindle_points() -> tuple[Point, ...]:
    """Canonical Moser spindle: hub at the origin, two unit rhombi spindled apart.

    Index 0 is the hub (degree 4); 1, 2 and 4, 5 are the rhombus side
    vertices; 3 and 6 are the far apexes at distance sqrt(3) from the hub
    and distance 1 from each other.
    """
    pts: list[Point] = [(0.0, 0.0)]
    for axis in (-SPINDLE_SPREAD / 2.0, SPINDLE_SPREAD / 2.0):
        u1 = (math.cos(axis - math.pi / 6.0), math.sin(axis - math.pi / 6.0))
        u2 = (math.cos(axis + math.pi / 6.0), math.sin(axis + math.pi / 6.0))
        pts.extend([u1, u2, (u1[0] + u2[0], u1[1] + u2[1])])
    return tuple(pts)


def embed_moser_spindle(r: float) -> GadgetEmbedding:
    """The spindle with its minimal enclosing circle centered on the annulus center.

    That circle has radius 3/sqrt(11) and passes through the hub and both
    far apexes, so shifting the canonical spindle by (-3/sqrt(11), 0) puts
    those three vertices at distance r - SPINDLE_THRESHOLD inside the outer
    circle.  No placement does better: every rigid motion leaves some vertex
    at least 3/sqrt(11) from the center.  The nearest vertex then lies at
    radius about 0.239, above every inner radius the feasible range allows
    (1/2 - r < 0.0955), so the margin equals r - SPINDLE_THRESHOLD up to
    rounding (within 1e-16).
    """
    annulus = Annulus(r)
    if r <= SPINDLE_THRESHOLD:
        raise GadgetInfeasible("moser_spindle", r, SPINDLE_THRESHOLD)
    shift = -3.0 / math.sqrt(11.0)
    vertices = tuple((x + shift, y) for x, y in spindle_points())
    return GadgetEmbedding(
        kind="moser_spindle",
        params={"r": r, "rotation": 0.0, "translation": [shift, 0.0]},
        vertices=vertices,
        margin=margin_of(vertices, annulus),
    )


@dataclass(frozen=True)
class LowerBoundResult:
    """Best gadget-certified lower bound plus the certificates behind it."""

    bound: int
    certificates: tuple[tuple[str, GadgetEmbedding], ...]


def gadget_lower_bound(r: float) -> LowerBoundResult:
    """Largest chromatic lower bound given by embeddable gadgets, with each gadget.

    The odd cycle (3) and the Moser spindle (4) are finite graphs the exact
    solver checks.  The tri-rod's 4, the only 4 for r in (TRI_ROD_THRESHOLD,
    SPINDLE_THRESHOLD], rests on the paper's rotation argument, not on a
    checked graph: one circle of radius 1/sqrt(3) is 3-colorable by
    120-degree arcs.
    """
    embeddings = [embed_odd_cycle(r)]
    for embed in (embed_trirod, embed_moser_spindle):  # looked up per call, so rebinding them takes effect
        with contextlib.suppress(GadgetInfeasible):
            embeddings.append(embed(r))
    return LowerBoundResult(4 if len(embeddings) > 1 else 3, tuple((e.kind, e) for e in embeddings))


def embedding_to_json(embedding: GadgetEmbedding) -> dict:
    return {
        "kind": embedding.kind,
        "params": {k: _thawed(v) for k, v in embedding.params.items()},
        "vertices": [[x, y] for x, y in embedding.vertices],
        "edges": [list(e) for e in embedding.edges],
        "margin": embedding.margin,
    }
