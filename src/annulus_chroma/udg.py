"""Finite unit-distance graphs and exact chromatic numbers.

The solver is graph-generic: geometry enters only through build_udg, which
turns a point set into a graph by connecting pairs at distance 1 (within a
tolerance).  Chromatic numbers come from branch-and-bound with a greedy
clique lower bound, DSATUR-style saturation ordering, and color-symmetry
breaking, so small instances solve exactly and deterministically.
"""

from __future__ import annotations

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
    masks = graph.adjacency_masks()
    order = sorted(range(graph.n), key=lambda v: (-bin(masks[v]).count("1"), v))
    clique: list[int] = []
    for v in order:
        if all(masks[v] >> u & 1 for u in clique):
            clique.append(v)
    return clique


def greedy_coloring(graph: UnitDistanceGraph) -> ColoringAssignment:
    """Proper coloring by repeatedly coloring the most saturated uncolored vertex."""
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


def _color_with_limit(masks: list[int], k: int, seed: list[int]) -> list[int] | None:
    """Proper coloring with at most k colors, or None.

    Backtracking with saturation-degree vertex selection; the seed clique is
    pre-colored 0, 1, 2, ... and elsewhere new colors are only introduced in
    order, which breaks color-permutation symmetry without losing
    completeness.
    """
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


def chromatic_number_exact(graph: UnitDistanceGraph) -> tuple[int, ColoringAssignment]:
    """Exact chromatic number with a proper witness using that many colors.

    Searches k = |clique|, |clique|+1, ... until a k-coloring exists; the
    greedy coloring bounds the search from above, so the loop always
    terminates at the exact value.  Fully deterministic.
    """
    if graph.n > MAX_VERTICES:
        raise ValueError(f"graph has {graph.n} vertices; the exact solver is capped at {MAX_VERTICES}")
    masks = graph.adjacency_masks()
    clique = greedy_clique(graph)
    upper = greedy_coloring(graph)
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
