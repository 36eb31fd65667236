"""Independent oracles and random generators shared across the test suite.

Everything here deliberately avoids the library's analytic machinery: the
distance oracles work from dense grids, and the chromatic oracle is a plain
backtracking enumeration in natural vertex order.
"""

from __future__ import annotations

import math
import random

import numpy as np

from annulus_chroma.geometry import DEFAULT_TOLERANCE, Annulus, AnnularSector, contains_unit_pair
from annulus_chroma.radial import RadialColoring, VerificationResult, construct_radial_coloring
from annulus_chroma.udg import UnitDistanceGraph

TWO_PI = 2.0 * math.pi


def angle_grid(sector: AnnularSector, n_angles: int) -> np.ndarray:
    arc = sector.arc
    if arc.width == 0.0:
        return np.array([arc.start])
    return arc.start + np.linspace(0.0, arc.width, n_angles)


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
    other_end = other.arc.start + other.arc.width
    for t in (other.arc.start, other_end):
        for shift in (0.0, math.pi, -math.pi):
            u = (t + shift - sector.arc.start) % TWO_PI
            if u <= sector.arc.width:
                extras.append(sector.arc.start + u)
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
        return AnnularSector.radial_segment(annulus, rng.uniform(0.0, TWO_PI))
    start = rng.uniform(0.0, TWO_PI)
    width = rng.uniform(1e-3, TWO_PI)
    if closed:
        return AnnularSector.of(annulus, start, width, True, True)
    return AnnularSector.of(annulus, start, width, rng.random() < 0.5, rng.random() < 0.5)


def random_point_in(sector: AnnularSector, rng: random.Random) -> tuple[float, float]:
    """Uniform in (angle, radius) parameter space over the closure."""
    phi = sector.arc.start + rng.uniform(0.0, sector.arc.width)
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
