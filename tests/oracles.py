"""Independent oracles, reference implementations and random generators shared across the test suite.

The distance oracles avoid the library's analytic machinery and work from
dense grids; the chromatic oracle is a plain backtracking enumeration in
natural vertex order.  The reference sections keep algorithms the library
has replaced, unchanged, so tests can require equal results.  The exact
section judges N(r) and the construction on the rational numbers that
floats denote, in Fraction and 50-digit decimal arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from annulus_chroma.geometry import (
    DEFAULT_TOLERANCE,
    Annulus,
    AnnularSector,
    DistanceInterval,
    contains_unit_pair,
    unit_chord_angle,
)
from annulus_chroma.radial import RadialColoring, VerificationResult, construct_radial_coloring
from annulus_chroma.schema import (
    SchemaError,
    require_index_pair,
    require_int,
    require_keys,
    require_list,
    require_number,
    require_point,
    require_tolerance,
)
from annulus_chroma.udg import _PAIRS, UnitDistanceGraph, build_udg

TWO_PI = 2.0 * math.pi


def angle_grid(sector: AnnularSector, n_angles: int) -> np.ndarray:
    if sector.width == 0.0:
        return np.array([sector.start])
    return sector.start + np.linspace(0.0, sector.width, n_angles)


def radius_grid(sector: AnnularSector, n_radii: int) -> np.ndarray:
    return np.linspace(sector.annulus.inner_radius, sector.annulus.outer_radius, n_radii)


def sector_grid_points(sector: AnnularSector, n_angles: int, n_radii: int) -> np.ndarray:
    angles = angle_grid(sector, n_angles)
    radii = radius_grid(sector, n_radii)
    rho = radii[:, None]
    xs = (rho * np.cos(angles)[None, :]).ravel()
    ys = (rho * np.sin(angles)[None, :]).ravel()
    return np.column_stack([xs, ys])


def _augmented_angles(sector: AnnularSector, other: AnnularSector, n_angles: int) -> np.ndarray:
    """Sector angle grid plus the other arc's endpoints and their antipodes.

    Plain linspaces on two different arcs almost never align, so a grid-only
    sample can miss angular differences of exactly 0 or pi by half a step.
    Adding these few angles (when they fall inside the arc) pins the
    extreme alignments without using any distance analysis.
    """
    base = angle_grid(sector, n_angles)
    extras = []
    other_end = other.start + other.width
    for t in (other.start, other_end):
        for shift in (0.0, math.pi, -math.pi):
            u = (t + shift - sector.start) % TWO_PI
            if u <= sector.width:
                extras.append(sector.start + u)
    if not extras:
        return base
    return np.concatenate([base, np.array(extras)])


def sampled_extremes(
    s1: AnnularSector, s2: AnnularSector, n_angles: int = 400, n_radii: int = 400
) -> tuple[float, float]:
    """Distance extremes over the closure grids of two sectors.

    Uses only the pointwise fact that d^2 = r1^2 + r2^2 - 2*r1*r2*cos(dphi)
    is decreasing in cos(dphi) for positive radii, so the grid extremes
    split into an angle part (extreme cosines over all angle pairs) and a
    radius part (extremes of the quadratic over all radius pairs).
    """
    a1 = _augmented_angles(s1, s2, n_angles)
    a2 = _augmented_angles(s2, s1, n_angles)
    cosines = np.cos(a1[:, None] - a2[None, :])
    c_min = float(cosines.min())
    c_max = float(cosines.max())
    r1 = radius_grid(s1, n_radii)[:, None]
    r2 = radius_grid(s2, n_radii)[None, :]
    base = r1 * r1 + r2 * r2
    cross = 2.0 * r1 * r2
    sq_min = float((base - cross * c_max).min())
    sq_max = float((base - cross * c_min).max())
    return math.sqrt(max(sq_min, 0.0)), math.sqrt(max(sq_max, 0.0))


def pairwise_extremes(
    s1: AnnularSector, s2: AnnularSector, n_angles: int = 120, n_radii: int = 10
) -> tuple[float, float]:
    """Brute-force distance extremes over the full cross product of coarse grids."""
    p1 = sector_grid_points(s1, n_angles, n_radii)
    p2 = sector_grid_points(s2, n_angles, n_radii)
    dx = p1[:, 0][:, None] - p2[:, 0][None, :]
    dy = p1[:, 1][:, None] - p2[:, 1][None, :]
    d = np.hypot(dx, dy)
    return float(d.min()), float(d.max())


def random_sector(
    rng: random.Random, annulus: Annulus, closed: bool = True, allow_degenerate: bool = True
) -> AnnularSector:
    if allow_degenerate and rng.random() < 0.1:
        return AnnularSector(annulus, rng.uniform(0.0, TWO_PI), 0.0)
    start = rng.uniform(0.0, TWO_PI)
    width = rng.uniform(1e-3, TWO_PI)
    if closed:
        return AnnularSector(annulus, start, width, True, True)
    return AnnularSector(annulus, start, width, rng.random() < 0.5, rng.random() < 0.5)


def random_point_in(sector: AnnularSector, rng: random.Random) -> tuple[float, float]:
    """Uniform in (angle, radius) parameter space over the closure."""
    phi = sector.start + rng.uniform(0.0, sector.width)
    rho = rng.uniform(sector.annulus.inner_radius, sector.annulus.outer_radius)
    return (rho * math.cos(phi), rho * math.sin(phi))


def random_radial_coloring(
    rng: random.Random, r: float, n_colors: int, max_boundaries: int = 8
) -> RadialColoring:
    n = rng.randint(1, max_boundaries)
    while True:
        angles = sorted(rng.uniform(0.0, TWO_PI) for _ in range(n))
        if len(set(angles)) == n:
            break
    sector_colors = tuple(rng.randrange(n_colors) for _ in range(n))
    boundary_colors = tuple(rng.randrange(n_colors) for _ in range(n))
    return RadialColoring(Annulus(r), tuple(angles), sector_colors, boundary_colors)


def random_proper_radial_coloring(rng: random.Random, r: float, max_cuts: int = 3) -> RadialColoring:
    """construct_radial_coloring(r) rotated by a seeded offset, each sector cut by rays of its color.

    Every color class keeps the point set it has in the construction, so
    every draw is proper.
    """
    base = construct_radial_coloring(r)
    offset = rng.uniform(0.0, TWO_PI)
    rays = []  # (angle, ray color, color of the sector after the ray)
    for i in range(base.n):
        start, width, color = base.boundaries[i], base.sector_width(i), base.sector_colors[i]
        rays.append((start, base.boundary_colors[i], color))
        cuts = sorted(rng.uniform(0.0, width) for _ in range(rng.randint(0, max_cuts)))
        rays += [(start + t, color, color) for t in cuts if 0.0 < t < width]
    rotated = sorted(((a + offset) % TWO_PI, ray, sector) for a, ray, sector in rays)
    return RadialColoring(
        Annulus(r),
        tuple(a for a, _, _ in rotated),
        tuple(sector for _, _, sector in rotated),
        tuple(ray for _, ray, _ in rotated),
    )


def window_edge_coloring(rng: random.Random) -> tuple[RadialColoring, float]:
    """(coloring, tolerance): two rays of color 0 whose outer chord is 1 - f*tolerance, f in [0, 1.2].

    r runs log-uniformly from 2.8e-17 to 0.49 and the tolerance from 1e-15
    to 1e-13.  Every other piece takes a color of its own, and rays at most
    theta/2 apart cut the rest of the circle, so the only same-colored pair
    that can hold a unit pair is the two rays, at the tolerance window's edge.
    """
    r = 10.0 ** rng.uniform(math.log10(2.8e-17), math.log10(0.49))
    tolerance = 10.0 ** rng.uniform(-15.0, -13.0)
    outer = 0.5 + r
    gap = 2.0 * math.asin((1.0 - rng.uniform(0.0, 1.2) * tolerance) / (2.0 * outer))
    step = 0.5 * unit_chord_angle(outer)
    first = rng.uniform(0.0, TWO_PI - gap)
    inside, outside = math.ceil(gap / step), math.ceil((TWO_PI - gap) / step)
    rays = [first + k * gap / inside for k in range(inside)]
    rays += [(first + gap + k * (TWO_PI - gap) / outside) % TWO_PI for k in range(outside)]
    rays.sort()
    n = len(rays)
    ray_colors = [0 if a in (first, first + gap) else n + 1 + i for i, a in enumerate(rays)]
    return RadialColoring(Annulus(r), rays, range(1, n + 1), ray_colors), tolerance


def brute_chromatic(graph: UnitDistanceGraph) -> int:
    """Exhaustive chromatic number by backtracking in natural vertex order."""
    masks = graph.adjacency_masks()
    n = graph.n

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def extend(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in range(v) if masks[v] >> u & 1):
                    colors[v] = c
                    if extend(v + 1):
                        return True
                    colors[v] = -1
            return False

        return extend(0)

    for k in range(1, n + 1):
        if colorable(k):
            return k
    return n


def brute_colorable(graph: UnitDistanceGraph, k: int) -> bool:
    """Whether some k-coloring is proper, by scanning assignments exhaustively."""
    import itertools

    from annulus_chroma.udg import is_proper

    return any(is_proper(graph, assignment) for assignment in itertools.product(range(k), repeat=graph.n))


def random_graph(rng: random.Random, max_n: int = 8, edge_probability: float = 0.4) -> UnitDistanceGraph:
    n = rng.randint(1, max_n)
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_probability
    )
    return UnitDistanceGraph(n, edges)


def mycielski(k: int, rng: random.Random | None = None) -> UnitDistanceGraph:
    """Mycielski graph M_k (M_2 = K_2, M_3 = C_5, M_4 = Groetzsch), chi = k; relabelled by rng if given."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        new = list(edges)
        for i, j in edges:
            new += [(n + i, j), (n + j, i)]
        new += [(n + i, 2 * n) for i in range(n)]
        n, edges = 2 * n + 1, new
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    return UnitDistanceGraph(n, tuple((perm[i], perm[j]) for i, j in edges))


# Reference loaders: graph_from_json's abstract form and coloring_from_json
# as they were before the bulk pass, checking element by element in
# document order, with the constructors' checks written out in their order.
# Tests require the loaders to accept the same documents, build equal
# objects and raise the same error type and message.


def load_outcome(load, data):
    """What a loader makes of a document: the object, or the type and message of its SchemaError."""
    try:
        return load(data)
    except SchemaError as exc:
        return type(exc), str(exc)


def reference_graph_from_json(data) -> UnitDistanceGraph:
    """Either form, with the points and edges checked one at a time."""
    if isinstance(data, dict) and "points" in data:
        require_keys(data, ("points",), "graph", optional=("tolerance",))
        pts = [
            require_point(p, f"graph.points[{i}]")
            for i, p in enumerate(require_list(data["points"], "graph.points"))
        ]
        tolerance = require_tolerance(data.get("tolerance", DEFAULT_TOLERANCE), "graph.tolerance")
        if not pts:
            raise SchemaError("graph.points: must not be empty")
        try:
            return build_udg(pts, tolerance)
        except ValueError as exc:
            raise SchemaError(f"graph: {exc}") from exc
    require_keys(data, ("n", "edges"), "graph")
    n = require_int(data["n"], "graph.n")
    edges = [
        require_index_pair(e, f"graph.edges[{i}]")
        for i, e in enumerate(require_list(data["edges"], "graph.edges"))
    ]
    try:
        return _reference_graph_from_edges(n, edges)
    except ValueError as exc:
        raise SchemaError(f"graph: {exc}") from exc


def _reference_graph_from_edges(n, edges) -> UnitDistanceGraph:
    edges = tuple(tuple(e) for e in edges)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    canonical = []
    seen = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        edge = (i, j) if i < j else (j, i)
        edge = _PAIRS.get(edge, edge)
        if edge in seen:
            raise ValueError(f"duplicate edge {edge}")
        seen.add(edge)
        canonical.append(edge)
    return UnitDistanceGraph(n, tuple(sorted(canonical)))


def reference_coloring_from_json(data) -> RadialColoring:
    require_keys(data, ("r", "boundaries", "sector_colors", "boundary_colors"), "coloring")
    r = require_number(data["r"], "coloring.r")
    boundaries = [
        require_number(b, f"coloring.boundaries[{i}]")
        for i, b in enumerate(require_list(data["boundaries"], "coloring.boundaries"))
    ]
    sector_colors, boundary_colors = (
        [require_int(c, f"coloring.{key}[{i}]") for i, c in enumerate(require_list(data[key], f"coloring.{key}"))]
        for key in ("sector_colors", "boundary_colors")
    )
    try:
        return _reference_radial_coloring(Annulus(r), boundaries, sector_colors, boundary_colors)
    except ValueError as exc:
        raise SchemaError(f"coloring: {exc}") from exc


def _reference_radial_coloring(annulus, boundaries, sector_colors, boundary_colors) -> RadialColoring:
    n = len(boundaries)
    if n < 1:
        raise ValueError("a radial coloring needs at least one boundary ray")
    for i, b in enumerate(boundaries):
        if not 0.0 <= b < TWO_PI:
            raise ValueError(f"boundary angle {i} out of [0, 2*pi): {b}")
        if i > 0 and b <= boundaries[i - 1]:
            raise ValueError(f"boundary angles must be strictly increasing at index {i}")
    if len(sector_colors) != n:
        raise ValueError(f"expected {n} sector colors, got {len(sector_colors)}")
    if len(boundary_colors) != n:
        raise ValueError(f"expected {n} boundary colors, got {len(boundary_colors)}")
    for name, colors in (("sector", sector_colors), ("boundary", boundary_colors)):
        for i, c in enumerate(colors):
            if c < 0:
                raise ValueError(f"{name} color {i} must be a nonnegative integer, got {c}")
    return RadialColoring(annulus, tuple(boundaries), tuple(sector_colors), tuple(boundary_colors))


# Reference solver: the string-scanning DSATUR search the bitset solver in
# udg replaced, kept unchanged so tests can require bit-identical answers.


def reference_greedy_clique(graph: UnitDistanceGraph) -> list[int]:
    masks = graph.adjacency_masks()
    order = sorted(range(graph.n), key=lambda v: (-bin(masks[v]).count("1"), v))
    clique: list[int] = []
    for v in order:
        if all(masks[v] >> u & 1 for u in clique):
            clique.append(v)
    return clique


def reference_greedy_coloring(graph: UnitDistanceGraph) -> tuple[int, ...]:
    masks = graph.adjacency_masks()
    colors = [-1] * graph.n
    sat = [0] * graph.n  # bitmask of colors adjacent to each vertex
    for _ in range(graph.n):
        v = max(
            (u for u in range(graph.n) if colors[u] == -1),
            key=lambda u: (bin(sat[u]).count("1"), bin(masks[u]).count("1"), -u),
        )
        c = 0
        while sat[v] >> c & 1:
            c += 1
        colors[v] = c
        for u in range(graph.n):
            if masks[v] >> u & 1:
                sat[u] |= 1 << c
    return tuple(colors)


def reference_color_with_limit(masks: list[int], k: int, seed: list[int]) -> list[int] | None:
    n = len(masks)
    if len(seed) > k:
        return None
    colors = [-1] * n
    sat = [0] * n
    degrees = [bin(m).count("1") for m in masks]

    def paint(v: int, c: int) -> list[int]:
        colors[v] = c
        touched = []
        bit = 1 << c
        for u in range(n):
            if masks[v] >> u & 1 and not sat[u] & bit:
                sat[u] |= bit
                touched.append(u)
        return touched

    def unpaint(v: int, c: int, touched: list[int]) -> None:
        colors[v] = -1
        bit = 1 << c
        for u in touched:
            sat[u] &= ~bit

    max_used = -1
    for v in seed:
        max_used += 1
        paint(v, max_used)

    def extend(assigned: int, max_used: int) -> bool:
        if assigned == n:
            return True
        v = max(
            (u for u in range(n) if colors[u] == -1),
            key=lambda u: (bin(sat[u]).count("1"), degrees[u], -u),
        )
        if bin(sat[v]).count("1") >= k:
            return False
        top = min(max_used + 1, k - 1)
        for c in range(top + 1):
            if sat[v] >> c & 1:
                continue
            touched = paint(v, c)
            if extend(assigned + 1, max(max_used, c)):
                return True
            unpaint(v, c, touched)
        return False

    if extend(len(seed), max_used):
        return colors
    return None


def reference_chromatic_number(graph: UnitDistanceGraph) -> tuple[int, tuple[int, ...]]:
    masks = graph.adjacency_masks()
    clique = reference_greedy_clique(graph)
    upper = reference_greedy_coloring(graph)
    upper_k = max(upper) + 1
    for k in range(len(clique), upper_k):
        witness = reference_color_with_limit(masks, k, clique)
        if witness is not None:
            return k, tuple(witness)
    return upper_k, upper


def reference_odd_cycle(r: float, n_max: int = 99):
    """(n, w, rho, vertices) of the first star polygon {n/w} whose circumradius lies in the annulus, or None.

    The double search over odd n ascending, then w ascending with
    gcd(n, w) = 1, that the closed-form embed_odd_cycle replaced.
    """
    annulus = Annulus(r)
    for n in range(3, n_max + 1, 2):
        for w in range(1, (n - 1) // 2 + 1):
            if math.gcd(n, w) != 1:
                continue
            rho = 1.0 / (2.0 * math.sin(math.pi * w / n))
            if annulus.inner_radius <= rho <= annulus.outer_radius:
                step = TWO_PI * w / n
                vertices = tuple((rho * math.cos(step * k), rho * math.sin(step * k)) for k in range(n))
                return n, w, rho, vertices
    return None


# Reference verifier: the eager scan that verify_radial_coloring replaced,
# which built every piece and label before scanning, kept unchanged so tests
# can require equal results, witnesses included.


def reference_pieces(coloring: RadialColoring) -> list[tuple[str, AnnularSector, int]]:
    """All monochromatic pieces as (label, region, color) triples."""
    out: list[tuple[str, AnnularSector, int]] = []
    for i in range(coloring.n):
        out.append((f"sector {i}", coloring.sector(i), coloring.sector_colors[i]))
    for i in range(coloring.n):
        out.append((f"boundary {i}", coloring.boundary_segment(i), coloring.boundary_colors[i]))
    return out


def reference_verify_radial_coloring(
    coloring: RadialColoring, tolerance: float = DEFAULT_TOLERANCE
) -> VerificationResult:
    pieces = reference_pieces(coloring)
    by_color: dict[int, list[tuple[str, AnnularSector]]] = {}
    for label, region, color in pieces:
        by_color.setdefault(color, []).append((label, region))
    for color in sorted(by_color):
        group = by_color[color]
        for i in range(len(group)):
            for j in range(i, len(group)):
                found, witness = contains_unit_pair(group[i][1], group[j][1], tolerance)
                if found:
                    return VerificationResult(
                        proper=False,
                        witness=witness,
                        color=color,
                        piece_labels=(group[i][0], group[j][0]),
                    )
    return VerificationResult(proper=True)


# Reference pair analysis: the candidate search over the radius box that the
# closed forms in geometry replaced, reading the difference arc in each step,
# kept unchanged so tests can require equal verdicts, witnesses and flags, and
# intervals within this search's cancellation error near cos = 1.  It holds
# for r >= 1e-9 and tolerances >= 1e-12 only.  Outside that range the
# cancellation error, which can even put its min above its max, outgrows
# the tolerance, and seeded pairs get verdicts other than the library's.


@dataclass(frozen=True)
class _ReferenceAngleExtreme:
    value: float
    delta: float
    attained: bool


@dataclass(frozen=True)
class _ReferencePairAnalysis:
    interval: DistanceInterval
    arc1: AnnularSector
    arc2: AnnularSector
    cos_max: _ReferenceAngleExtreme
    cos_min: _ReferenceAngleExtreme
    swapped: bool


def _reference_difference_arc(arc1: AnnularSector, arc2: AnnularSector):
    lo = arc1.start - (arc2.start + arc2.width)
    hi = (arc1.start + arc1.width) - arc2.start
    lo_ok = arc1.start_closed and arc2.end_closed
    hi_ok = arc1.end_closed and arc2.start_closed
    if arc1.width >= TWO_PI:
        lo_ok = hi_ok = True
    if arc2.width >= TWO_PI:
        lo_ok = hi_ok = True
    return lo, hi, lo_ok, hi_ok


def _reference_cos_extreme(
    arc1: AnnularSector,
    arc2: AnnularSector,
    target: float,
    want_max: bool,
    tolerance: float,
) -> _ReferenceAngleExtreme:
    lo, hi, lo_ok, hi_ok = _reference_difference_arc(arc1, arc2)
    span = hi - lo

    if span >= TWO_PI + tolerance:
        delta = lo + ((target - lo) % TWO_PI)
        return _ReferenceAngleExtreme(math.cos(target), delta, True)

    u = (target - lo) % TWO_PI
    if u >= TWO_PI - tolerance:
        u = 0.0

    if abs(span - TWO_PI) <= tolerance:
        if u <= tolerance or u >= span - tolerance:
            return _ReferenceAngleExtreme(math.cos(target), lo if lo_ok else hi, lo_ok or hi_ok)
        return _ReferenceAngleExtreme(math.cos(target), lo + u, True)

    at_lo = u <= tolerance
    at_hi = abs(u - span) <= tolerance
    if at_lo and at_hi:
        return _ReferenceAngleExtreme(math.cos(target), lo if lo_ok else hi, lo_ok or hi_ok)
    if at_lo:
        return _ReferenceAngleExtreme(math.cos(target), lo, lo_ok)
    if at_hi:
        return _ReferenceAngleExtreme(math.cos(target), hi, hi_ok)
    if u < span:
        return _ReferenceAngleExtreme(math.cos(target), lo + u, True)

    v_lo = math.cos(abs(lo))
    v_hi = math.cos(abs(hi))
    if abs(v_lo - v_hi) <= 1e-12:
        return _ReferenceAngleExtreme(v_lo if want_max else v_hi, lo if lo_ok else hi, lo_ok or hi_ok)
    if (v_lo > v_hi) == want_max:
        return _ReferenceAngleExtreme(v_lo, lo, lo_ok)
    return _ReferenceAngleExtreme(v_hi, hi, hi_ok)


def _reference_dist_sq(r1: float, r2: float, c: float) -> float:
    return r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * c


def _reference_sector_key(s: AnnularSector):
    return (s.start, s.width, s.start_closed, s.end_closed)


def _reference_analyze_pair(s1: AnnularSector, s2: AnnularSector, tolerance: float) -> _ReferencePairAnalysis:
    if s1.annulus != s2.annulus:
        raise ValueError("sectors belong to different annuli")

    swapped = _reference_sector_key(s2) < _reference_sector_key(s1)
    arc1, arc2 = (s2, s1) if swapped else (s1, s2)

    cos_max = _reference_cos_extreme(arc1, arc2, 0.0, want_max=True, tolerance=tolerance)
    cos_min = _reference_cos_extreme(arc1, arc2, math.pi, want_max=False, tolerance=tolerance)

    a = s1.annulus.inner_radius
    b = s1.annulus.outer_radius
    corners = ((a, a), (a, b), (b, a), (b, b))

    radii_max = max(corners, key=lambda p: _reference_dist_sq(p[0], p[1], cos_min.value))
    d_max = math.sqrt(max(0.0, _reference_dist_sq(radii_max[0], radii_max[1], cos_min.value)))

    candidates = list(corners)
    c = cos_max.value
    if c > 0.0:
        for fixed in (a, b):
            crit = c * fixed
            if a <= crit <= b:
                candidates.append((crit, fixed))
                candidates.append((fixed, crit))
    radii_min = min(candidates, key=lambda p: _reference_dist_sq(p[0], p[1], c))
    d_min = math.sqrt(max(0.0, _reference_dist_sq(radii_min[0], radii_min[1], c)))

    interval = DistanceInterval(
        min=d_min,
        max=d_max,
        min_attained_interior=cos_max.attained,
        max_attained_interior=cos_min.attained,
    )
    return _ReferencePairAnalysis(interval, arc1, arc2, cos_max, cos_min, swapped)


def reference_sector_distance_interval(
    s1: AnnularSector, s2: AnnularSector, tolerance: float = DEFAULT_TOLERANCE
) -> DistanceInterval:
    return _reference_analyze_pair(s1, s2, tolerance).interval


def _reference_pair_for_delta(arc1: AnnularSector, arc2: AnnularSector, delta: float) -> tuple[float, float]:
    u0, w1 = arc1.start, arc1.width
    v0, w2 = arc2.start, arc2.width
    phi2_lo = max(v0, u0 - delta)
    phi2_hi = min(v0 + w2, u0 + w1 - delta)
    phi2 = 0.5 * (phi2_lo + phi2_hi)
    return phi2 + delta, phi2


def _reference_polar_point(rho: float, phi: float) -> tuple[float, float]:
    return (rho * math.cos(phi), rho * math.sin(phi))


def _reference_unit_chord_witness(analysis: _ReferencePairAnalysis, outer: float):
    lo, hi, _, _ = _reference_difference_arc(analysis.arc1, analysis.arc2)
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
    phi1, phi2 = _reference_pair_for_delta(analysis.arc1, analysis.arc2, delta)
    half_chord = abs(math.sin(0.5 * (phi1 - phi2)))
    rho = outer if 2.0 * outer * half_chord <= 1.0 else 0.5 / half_chord
    p, q = _reference_polar_point(rho, phi1), _reference_polar_point(rho, phi2)
    return (q, p) if analysis.swapped else (p, q)


def reference_contains_unit_pair(s1: AnnularSector, s2: AnnularSector, tolerance: float = DEFAULT_TOLERANCE):
    analysis = _reference_analyze_pair(s1, s2, tolerance)
    di = analysis.interval
    if 1.0 < di.min - tolerance or 1.0 > di.max + tolerance:
        return False, None
    if (
        di.min + tolerance < 1.0 < di.max - tolerance
        or (abs(1.0 - di.min) <= tolerance and di.min_attained_interior)
        or (abs(1.0 - di.max) <= tolerance and di.max_attained_interior)
    ):
        return True, _reference_unit_chord_witness(analysis, s1.annulus.outer_radius)
    return False, None


def random_sector_pair(
    rng: random.Random, r: float | None = None, tolerance: float | None = None
) -> tuple[AnnularSector, AnnularSector, float]:
    """(s1, s2, tolerance) aimed at the pair analysis's edge cases.

    Unless given, r runs log-uniformly from 1e-9 to 0.499 and the tolerance
    from 1e-12 to 1e-3.  Widths are drawn near theta, near 2*pi, under 1e-6,
    zero (radial segments) or anywhere, with random open/closed ends; the
    second piece starts anywhere, or at, theta or pi past the first one's
    start or end, give or take up to 10^6 tolerances.  The radius-box
    reference holds only on the default ranges, r >= 1e-9 and tolerance
    >= 1e-12; outside them it is no oracle for the library.
    """
    if r is None:
        r = 10.0 ** rng.uniform(-9.0, math.log10(0.499))
    if tolerance is None:
        tolerance = 10.0 ** rng.uniform(-12.0, -3.0)
    annulus = Annulus(r)
    theta = unit_chord_angle(annulus.outer_radius)
    jitter = tolerance * rng.choice((0.0, 0.0, 0.5, 1.0, 2.0, 10.0 ** rng.uniform(0.0, 6.0))) * rng.choice((-1.0, 1.0))

    def piece(start: float) -> AnnularSector:
        kind = rng.randrange(5)
        if kind == 0:
            return AnnularSector(annulus, start, 0.0)
        if kind == 1:
            width = theta + jitter
        elif kind == 2:
            width = TWO_PI - rng.choice((0.0, 0.5 * tolerance, tolerance, 2.0 * tolerance, rng.uniform(0.0, 1e-3)))
        elif kind == 3:
            width = rng.uniform(1e-15, 1e-6)
        else:
            width = rng.uniform(0.0, TWO_PI)
        width = min(max(width, 1e-15), TWO_PI)
        return AnnularSector(annulus, start, width, rng.random() < 0.5, rng.random() < 0.5)

    s1 = piece(rng.uniform(0.0, TWO_PI))
    anchor = s1.start + rng.choice((0.0, s1.width))
    offset = rng.choice((None, 0.0, theta, math.pi, -theta))
    s2 = piece(rng.uniform(0.0, TWO_PI) if offset is None else anchor + offset + jitter)
    return s1, s2, tolerance


# Exact radial answers.  A float is the rational number it denotes, and
# N(r) <= k exactly when 2*pi/k <= theta, that is (1 + 2r)*sin(pi/k) <= 1,
# where sin^2(pi/k) is 3/4, 1/2, (5 - sqrt(5))/8 and 1/4 for k = 3..6.  An
# arc of directions of width w <= pi holds a unit pair exactly when
# (1 + 2r)*sin(w/2) > 1, decided here in 50-digit decimal.

_PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
_UNDECIDED = Decimal("1e-40")


def exact_radial_chromatic_number(r: float) -> int:
    """N(r) for the exact half-width r in (0, 1/2), by rational comparisons."""
    x = (1 + 2 * Fraction(r)) ** 2  # (1 + 2r)^2
    if x * Fraction(3, 4) <= 1:
        return 3
    if x / 2 <= 1:
        return 4
    # x*(5 - sqrt(5))/8 <= 1  <=>  5x - 8 <= x*sqrt(5), squared when both sides are positive
    if 5 * x - 8 <= 0 or (5 * x - 8) ** 2 <= 5 * x * x:
        return 5
    return 6  # x/4 <= 1 for every r < 1/2


def _decimal_sin(x: Decimal) -> Decimal:
    """sin(x) by its Taylor series, in the caller's decimal context."""
    term = total = x
    k = 1
    while abs(term) > Decimal("1e-55"):
        term = -term * x * x / ((2 * k) * (2 * k + 1))
        total += term
        k += 1
    return total


def construction_exactly_proper(coloring: RadialColoring) -> bool:
    """Whether no color class c, the arc (b_c, b_{c+1}], holds a unit pair exactly.

    The coloring must give sector c color c and ray c + 1 the same color, as
    the construction does, so each class is one such arc; the last wraps
    round past 2*pi, taken from a 60-digit pi.  Raises ArithmeticError if a
    class lies within 1e-40 of holding a unit pair, where 50 digits cannot
    settle it.
    """
    n, bs = coloring.n, coloring.boundaries
    if coloring.sector_colors != tuple(range(n)) or coloring.boundary_colors != tuple((c - 1) % n for c in range(n)):
        raise ValueError("each color class must be sector c with ray c + 1")
    proper = True
    with localcontext() as ctx:
        ctx.prec = 50  # each operation below is exact, then rounded to 50 digits
        scale = 1 + 2 * Decimal(coloring.annulus.r)
        ends = [Decimal(b) for b in bs] + [2 * _PI_60 + Decimal(bs[0])]
        for c in range(n):
            width = ends[c + 1] - ends[c]
            excess = scale * _decimal_sin(width / 2) - 1
            if abs(excess) <= _UNDECIDED:
                raise ArithmeticError(f"class {c} at r = {coloring.annulus.r!r} is undecided at 50 digits")
            proper = proper and width < _PI_60 and excess < 0
    return proper
