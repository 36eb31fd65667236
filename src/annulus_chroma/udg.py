"""Finite unit-distance graphs and exact chromatic numbers.

The solver is graph-generic: geometry enters only through build_udg, which
turns a point set into a graph by connecting pairs at distance 1 (within a
tolerance).  Chromatic numbers come from branch-and-bound with a greedy
clique lower bound, DSATUR-style saturation ordering (Brelaz 1979), and
color-symmetry breaking, so small instances solve exactly and
deterministically.  Vertex sets are Python ints used as bitsets (in the
style of San Segundo et al. 2012): the search keeps the uncolored vertices
as one int and visits only the uncolored neighbours of each painted vertex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .geometry import DEFAULT_TOLERANCE, Point
from .schema import (
    SchemaError,
    require_index_pair,
    require_int,
    require_keys,
    require_list,
    require_point,
    require_tolerance,
)

MAX_VERTICES = 64

# One shared tuple per vertex pair of a solver-sized graph: a graph holds a
# pointer per edge instead of its own 2-tuple, which matters when many
# graphs are alive at once.
_PAIRS = {pair: pair for pair in itertools.combinations(range(MAX_VERTICES), 2)}

ColoringAssignment = tuple[int, ...]


@dataclass(frozen=True)
class UnitDistanceGraph:
    """Graph on indexed vertices, optionally carrying planar coordinates.

    When points are present, every edge must join a pair at distance 1
    within the stored tolerance (the converse is enforced by build_udg,
    not by the type).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    points: tuple[Point, ...] | None = None
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={self.n}")
        canonical = []
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            edge = (i, j) if i < j else (j, i)
            edge = _PAIRS.get(edge, edge)
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add(edge)
            canonical.append(edge)
        object.__setattr__(self, "edges", tuple(sorted(canonical)))
        if self.points is not None:
            pts = tuple((float(x), float(y)) for x, y in self.points)
            object.__setattr__(self, "points", pts)
            if len(pts) != self.n:
                raise ValueError(f"expected {self.n} points, got {len(pts)}")
            for i, j in self.edges:
                d = math.dist(pts[i], pts[j])
                if abs(d - 1.0) > self.tolerance:
                    raise ValueError(f"edge ({i}, {j}) has length {d}, not 1 within {self.tolerance}")

    def adjacency_masks(self) -> list[int]:
        masks = [0] * self.n
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return masks


def build_udg(points: list[Point], tolerance: float = DEFAULT_TOLERANCE) -> UnitDistanceGraph:
    """Graph whose edges are exactly the point pairs at distance 1 within tolerance."""
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    pts = [(float(x), float(y)) for x, y in points]
    edges = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(math.dist(pts[i], pts[j]) - 1.0) <= tolerance:
                edges.append((i, j))
    return UnitDistanceGraph(len(pts), tuple(edges), tuple(pts), tolerance)


def graph_from_edges(n: int, edges) -> UnitDistanceGraph:
    """Abstract graph without coordinates (the solver is geometry-agnostic)."""
    return UnitDistanceGraph(n, tuple(tuple(e) for e in edges))


def is_proper(graph: UnitDistanceGraph, assignment) -> bool:
    """True iff the assignment gives different colors to the ends of every edge."""
    if len(assignment) != graph.n:
        raise ValueError(f"expected {graph.n} colors, got {len(assignment)}")
    return all(assignment[i] != assignment[j] for i, j in graph.edges)


def greedy_clique(graph: UnitDistanceGraph) -> list[int]:
    """Maximal clique grown greedily by descending degree; a chromatic lower bound."""
    return _greedy_clique(graph.adjacency_masks())


def greedy_coloring(graph: UnitDistanceGraph) -> ColoringAssignment:
    """Proper coloring by repeatedly coloring the most saturated uncolored vertex."""
    return _greedy_coloring(graph.adjacency_masks())


def _greedy_clique(masks: list[int]) -> list[int]:
    order = sorted(range(len(masks)), key=lambda v: (-masks[v].bit_count(), v))
    clique: list[int] = []
    member = 0
    for v in order:
        if masks[v] & member == member:
            clique.append(v)
            member |= 1 << v
    return clique


def _most_saturated(free: int, rank: list[int]) -> int:
    """The vertex of ``free`` with the highest rank; the lowest index wins ties.

    A rank is n * saturation + degree with degree < n, so comparing ranks
    compares (saturation, degree) in that order.
    """
    best = -1
    while free:
        low = free & -free
        u = low.bit_length() - 1
        if rank[u] > best:
            best = rank[u]
            v = u
        free ^= low
    return v


def _greedy_coloring(masks: list[int]) -> ColoringAssignment:
    n = len(masks)
    colors = [-1] * n
    sat = [0] * n  # bitmask of colors adjacent to each vertex
    rank = [m.bit_count() for m in masks]  # see _most_saturated
    free = (1 << n) - 1
    while free:
        v = _most_saturated(free, rank)
        free ^= 1 << v
        c = (~sat[v] & (sat[v] + 1)).bit_length() - 1
        colors[v] = c
        bit = 1 << c
        rest = masks[v] & free
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            if not sat[u] & bit:
                sat[u] |= bit
                rank[u] += n
            rest ^= low
    return tuple(colors)


def _color_with_limit(masks: list[int], k: int, seed: list[int]) -> list[int] | None:
    """Proper coloring with at most k colors, or None.

    Backtracking with saturation-degree vertex selection; the seed clique is
    pre-colored 0, 1, 2, ... and elsewhere new colors are only introduced in
    order, which breaks color-permutation symmetry without losing
    completeness.

    The uncolored vertices are one int bitset, and painting a vertex updates
    the saturation of its uncolored neighbours only: colored vertices are
    uncolored again in reverse order, so their saturation is never read
    stale.
    """
    n = len(masks)
    if len(seed) > k:
        return None
    colors = [-1] * n
    sat = [0] * n  # bitmask of colors adjacent to each vertex
    rank = [m.bit_count() for m in masks]  # see _most_saturated
    free = (1 << n) - 1
    for c, v in enumerate(seed):
        colors[v] = c
        free ^= 1 << v
        bit = 1 << c
        rest = masks[v] & free
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            sat[u] |= bit
            rank[u] += n
            rest ^= low
    limit = k * n

    def extend(free: int, max_used: int) -> bool:
        if not free:
            return True
        v = _most_saturated(free, rank)
        if rank[v] >= limit:
            return False
        free ^= 1 << v
        taken = sat[v]
        neighbours = masks[v] & free
        for c in range(min(max_used + 1, k - 1) + 1):
            bit = 1 << c
            if taken & bit:
                continue
            colors[v] = c
            touched = []
            rest = neighbours
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                if not sat[u] & bit:
                    sat[u] |= bit
                    rank[u] += n
                    touched.append(u)
                rest ^= low
            if extend(free, c if c > max_used else max_used):
                return True
            for u in touched:
                sat[u] ^= bit
                rank[u] -= n
        return False

    if extend(free, len(seed) - 1):
        return colors
    return None


def chromatic_number_exact(graph: UnitDistanceGraph) -> tuple[int, ColoringAssignment]:
    """Exact chromatic number with a proper witness using that many colors.

    Searches k = |clique|, |clique|+1, ... until a k-coloring exists; the
    greedy coloring bounds the search from above, so the loop always
    terminates at the exact value.  Fully deterministic.
    """
    if graph.n > MAX_VERTICES:
        raise ValueError(f"graph has {graph.n} vertices; the exact solver is capped at {MAX_VERTICES}")
    masks = graph.adjacency_masks()
    clique = _greedy_clique(masks)
    upper = _greedy_coloring(masks)
    upper_k = max(upper) + 1
    for k in range(len(clique), upper_k):
        witness = _color_with_limit(masks, k, clique)
        if witness is not None:
            return k, tuple(witness)
    return upper_k, upper


def graph_to_json(graph: UnitDistanceGraph) -> dict:
    if graph.points is not None:
        return {"points": [[x, y] for x, y in graph.points], "tolerance": graph.tolerance}
    return {"n": graph.n, "edges": [list(e) for e in graph.edges]}


def graph_from_json(data: dict) -> UnitDistanceGraph:
    """Accepts either the geometric form {points, tolerance} or the abstract {n, edges}."""
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
        return graph_from_edges(n, edges)
    except ValueError as exc:
        raise SchemaError(f"graph: {exc}") from exc
