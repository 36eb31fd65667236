"""Finite unit-distance graphs and exact chromatic numbers.

The solver is graph-generic: geometry enters only through build_udg, which
turns a point set into a graph by connecting pairs at distance 1 (within a
tolerance).  Chromatic numbers come from branch-and-bound with a greedy
clique lower bound, DSATUR-style saturation ordering (Brelaz 1979), and
color-symmetry breaking, so small instances solve exactly and
deterministically.  One DSATUR routine does both jobs: the greedy coloring
that bounds the search from above is the search's own first descent.
Vertex sets are Python ints used as bitsets (in the style of San Segundo
et al. 2012): a graph is stored as one int of neighbours per vertex, and
its edge list is derived from them; the uncolored vertices are one int,
each color c keeps the int of uncolored vertices with a neighbour of
color c, and each saturation level s keeps the int of vertices whose
neighbours carry s distinct colors.  Painting a vertex moves the
neighbours its color newly reaches up one level with one AND per level
in use, and the next vertex is found in the highest level that holds an
uncolored one.

UnitDistanceGraph checks edge lists, in one loop that reads self-loops
and duplicates off the bitsets it builds, and _float_points the points
that graph_from_json, build_udg and UnitDistanceGraph are given.
graph_from_json checks each edge of a document against the schema before
it builds, and a point list only when _float_points refuses it, to name
the bad element's position.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

from .geometry import DEFAULT_TOLERANCE, Point, _check_tolerance
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


@dataclass(frozen=True, init=False)
class UnitDistanceGraph:
    """Graph on indexed vertices, optionally carrying planar coordinates.

    The graph is stored as its adjacency bitsets: masks[v] is the int whose
    bit u is set when u and v are joined, the form the exact solver reads.
    edges is derived from them, as the sorted pairs (i, j) with i < j.

    An edge is a pair of distinct vertex indices in range(n), of any integer
    type but bool, given in either order and at most once.  The tolerance
    must be finite and nonnegative.  When points are present, they must be
    pairs of finite real numbers (not bools or strings), stored as floats,
    and every edge must join a pair at distance 1 within the tolerance (the
    converse is enforced by build_udg, not by the type).  The graph holds
    one int of up to n bits per vertex, so an absurd n fails as [0] * n
    would, and building it or reading edges (derived again on each access)
    takes time that grows with n times the edge count.
    """

    n: int
    masks: tuple[int, ...]
    points: tuple[Point, ...] | None = None
    tolerance: float = DEFAULT_TOLERANCE

    def __init__(self, n: int, edges, points=None, tolerance: float = DEFAULT_TOLERANCE) -> None:
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        _check_tolerance(tolerance)
        try:
            iter(edges)
        except TypeError:
            raise ValueError(f"edges must be an iterable of vertex pairs, got {edges!r}") from None
        masks = [0] * n
        for edge in edges:
            i, j = _index_pair(edge)
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if masks[i] >> j & 1:
                raise ValueError(f"duplicate edge {(i, j) if i < j else (j, i)}")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "tolerance", tolerance)
        if points is not None:
            points = _float_points(points)
            if len(points) != n:
                raise ValueError(f"expected {n} points, got {len(points)}")
            for i, j in self.edges:
                d = math.dist(points[i], points[j])
                if not abs(d - 1.0) <= tolerance:  # NaN fails too
                    raise ValueError(f"edge ({i}, {j}) has length {d}, not 1 within {tolerance}")
        object.__setattr__(self, "points", points)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        edges = []
        for i, mask in enumerate(self.masks):
            higher = mask >> i + 1 << i + 1
            while higher:
                low = higher & -higher
                edges.append((i, low.bit_length() - 1))
                higher ^= low
        return tuple(edges)


def _index_pair(edge) -> tuple[int, int]:
    try:
        i, j = edge
        if isinstance(i, bool) or isinstance(j, bool):
            raise TypeError
        return operator.index(i), operator.index(j)
    except (TypeError, ValueError):
        raise ValueError(f"edge {edge!r} is not a pair of integer vertex indices") from None


def _float_points(points) -> tuple[Point, ...]:
    """The points as float pairs, refusing a coordinate that is not a finite real number; float() would parse "0.5" and read True.

    One bulk pass accepts lists or tuples of two ints or floats, all finite;
    only a list it refuses is checked point by point, which names the first
    bad index.
    """
    try:
        iter(points)
    except TypeError:
        raise ValueError(f"points must be an iterable of (x, y) pairs, got {points!r}") from None
    pts = tuple(points)
    if set(map(type, pts)) <= {list, tuple} and set(map(len, pts)) <= {2}:
        flat = list(itertools.chain.from_iterable(pts))
        if set(map(type, flat)) <= {float, int}:
            with contextlib.suppress(OverflowError):  # the loop names the first integer too large
                flat = list(map(float, flat))
                if all(map(math.isfinite, flat)):
                    return tuple(zip(flat[::2], flat[1::2]))
    floats = []
    for i, point in enumerate(pts):
        try:
            x, y = point
        except (TypeError, ValueError):
            x = y = None
        if not all(isinstance(c, numbers.Real) and not isinstance(c, bool) for c in (x, y)):
            raise ValueError(f"point {i} must be a pair of real numbers, got {point!r}")
        try:
            x, y = float(x), float(y)
        except OverflowError:
            raise ValueError(f"point {i} must have finite coordinates, got an integer too large for a float") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"point {i} must have finite coordinates, got ({x}, {y})")
        floats.append((x, y))
    return tuple(floats)


def build_udg(points: list[Point], tolerance: float = DEFAULT_TOLERANCE) -> UnitDistanceGraph:
    """Graph whose edges are exactly the point pairs at distance 1 within tolerance."""
    _check_tolerance(tolerance)  # before the quadratic pass
    pts = _float_points(points)
    edges = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(math.dist(pts[i], pts[j]) - 1.0) <= tolerance:
                edges.append((i, j))
    return UnitDistanceGraph(len(pts), tuple(edges), tuple(pts), tolerance)


def is_proper(graph: UnitDistanceGraph, assignment) -> bool:
    """True iff the assignment gives different colors to the ends of every edge."""
    if len(assignment) != graph.n:
        raise ValueError(f"expected {graph.n} colors, got {len(assignment)}")
    return all(assignment[i] != assignment[j] for i, j in graph.edges)


def greedy_clique(graph: UnitDistanceGraph) -> list[int]:
    """Maximal clique grown greedily by descending degree, then ascending index; a chromatic lower bound."""
    masks = graph.masks
    clique: list[int] = []
    member = 0
    for v in sorted(range(graph.n), key=lambda v: (-masks[v].bit_count(), v)):
        if masks[v] & member == member:
            clique.append(v)
            member |= 1 << v
    return clique


def greedy_coloring(graph: UnitDistanceGraph) -> ColoringAssignment:
    """Proper coloring by repeatedly coloring the most saturated uncolored vertex.

    This is the exact search's first descent, which recurses once per
    vertex: past about 990 vertices it exceeds Python's default recursion
    limit.
    """
    return tuple(_color_with_limit(graph.masks, graph.n, []))


def _color_with_limit(masks: tuple[int, ...], k: int, seed: list[int]) -> list[int] | None:
    """Proper coloring with at most k colors, or None.

    Backtracking with saturation-degree vertex selection; the seed clique is
    pre-colored 0, 1, 2, ... and elsewhere new colors are only introduced in
    order, which breaks color-permutation symmetry without losing
    completeness.  Colors are tried lowest first, and with k = n a vertex
    can always take a color no vertex has yet, so with k = n and no seed
    the first descent never backtracks: it is the greedy coloring.

    near[c] is the bitset of uncolored vertices with a neighbour of color
    c, and level[s] the bitset of vertices whose colored neighbours carry s
    distinct colors; a colored vertex stays in the level it had, so only
    level[s] & free counts.  The next vertex is the highest-degree, then
    lowest-index member of the highest level that meets free, and when that
    level is k the vertex has no color left.  Painting v with c adds v's
    uncolored neighbours not yet in near[c] to near[c] and moves them up
    one level, with one AND per level in use; unpainting moves that same
    set back.  Vertices are unpainted in reverse order, so the bits of an
    uncolored vertex are never stale.
    """
    n = len(masks)
    colors = [-1] * n
    near = [0] * k
    free = (1 << n) - 1
    for c, v in enumerate(seed):
        colors[v] = c
        free ^= 1 << v
        near[c] = masks[v] & free
    # The seed is a clique of distinct colors: a vertex's level is the
    # number of seed vertices next to it.
    seed_set = ((1 << n) - 1) ^ free
    level = [0] * (k + 1)
    for u in range(n):
        if free >> u & 1:
            level[(masks[u] & seed_set).bit_count()] |= 1 << u
    degree = [m.bit_count() for m in masks]

    def extend(free: int, max_used: int) -> bool:
        if not free:
            return True
        # No vertex sees more colors than are in use.
        s = max_used + 1
        while not level[s] & free:
            s -= 1
        if s == k:
            return False
        choice = level[s] & free
        best = -1
        while choice:
            low = choice & -choice
            u = low.bit_length() - 1
            if degree[u] > best:
                best = degree[u]
                v, bit = u, low
            choice ^= low
        free ^= bit
        neighbours = masks[v] & free
        for c in range(min(max_used + 1, k - 1) + 1):
            if near[c] & bit:
                continue
            colors[v] = c
            new = neighbours & ~near[c]
            near[c] |= new
            # A vertex of new sees at most the colors in use, and not c:
            # it moves up from a level <= used.  The moves run top down
            # (and back bottom up), so that no vertex moves twice.
            used = c if c > max_used else max_used
            for s in range(used, -1, -1):
                moved = level[s] & new
                level[s] ^= moved
                level[s + 1] |= moved
            if extend(free, used):
                return True
            near[c] ^= new
            for s in range(1, used + 2):
                moved = level[s] & new
                level[s] ^= moved
                level[s - 1] |= moved
        return False

    if extend(free, len(seed) - 1):
        return colors
    return None


def _check_solver_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"graph has {n} vertices; the exact solver is capped at {MAX_VERTICES}")


def chromatic_number_exact(graph: UnitDistanceGraph) -> tuple[int, ColoringAssignment]:
    """Exact chromatic number with a proper witness using that many colors.

    Searches k = |clique|, |clique|+1, ... until a k-coloring exists; the
    greedy coloring bounds the search from above, so the loop always
    terminates at the exact value.  Fully deterministic.
    """
    _check_solver_size(graph.n)
    clique = greedy_clique(graph)
    upper = greedy_coloring(graph)
    upper_k = max(upper) + 1
    for k in range(len(clique), upper_k):
        witness = _color_with_limit(graph.masks, k, clique)
        if witness is not None:
            return k, tuple(witness)
    return upper_k, upper


def graph_from_json(data: dict) -> UnitDistanceGraph:
    """Accepts either the geometric form {points, tolerance} or the abstract {n, edges}.

    Each edge is checked against the schema, and a point list only when
    _float_points refuses it, so a SchemaError names the first bad
    element's position.  A self-loop, duplicate or out-of-range edge raises
    a SchemaError with UnitDistanceGraph's message.
    """
    _, build = _read_graph_json(data)
    return build()


def _read_graph_json(data) -> tuple[int, Callable[[], UnitDistanceGraph]]:
    """A graph document's vertex count, and a function that builds its graph.

    The document's schema is checked first.  The count lets a caller refuse
    a graph the solver cannot take before building it: before build_udg's
    pass over all pairs of points, or an abstract graph's int per vertex.
    """
    if isinstance(data, dict) and "points" in data:
        require_keys(data, ("points",), "graph", optional=("tolerance",))
        points = require_list(data["points"], "graph.points")
        try:
            if not all(isinstance(p, list) for p in points):
                raise ValueError("a point is not a JSON array")  # the checks below name it
            pts = _float_points(points)
        except ValueError as exc:
            for i, p in enumerate(points):
                require_point(p, f"graph.points[{i}]")
            raise SchemaError(f"graph: {exc}") from exc
        tolerance = require_tolerance(data.get("tolerance", DEFAULT_TOLERANCE), "graph.tolerance")
        if not pts:
            raise SchemaError("graph.points: must not be empty")
        return len(pts), lambda: build_udg(pts, tolerance)
    require_keys(data, ("n", "edges"), "graph")
    n = require_int(data["n"], "graph.n")
    edges = require_list(data["edges"], "graph.edges")
    for i, e in enumerate(edges):
        # Only an edge that is not two plain ints builds its position string:
        # for every edge, that would double the time to load a document.
        if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            require_index_pair(e, f"graph.edges[{i}]")

    def build() -> UnitDistanceGraph:
        try:
            return UnitDistanceGraph(n, edges)
        except ValueError as exc:
            raise SchemaError(f"graph: {exc}") from exc

    return n, build
