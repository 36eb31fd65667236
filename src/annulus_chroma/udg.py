"""Finite unit-distance graphs and exact chromatic numbers.

The solver is graph-generic: geometry enters only through build_udg, which
turns a point set into a graph by connecting pairs at distance 1 (within a
tolerance).  Chromatic numbers come from branch-and-bound with a greedy
clique lower bound, DSATUR-style saturation ordering (Brelaz 1979), and
color-symmetry breaking, so small instances solve exactly and
deterministically.  One greedy DSATUR descent runs per solve: its coloring
bounds the search from above, and it pauses before each new color k from
the clique's size up, where the search for a k-coloring resumes from its
state instead of walking the same picks again from the root.  That search
is one recursion, which first tries the colors the descent left untried
at each of its picks, deepest first.
Vertex sets are Python ints used as bitsets (in the style of San Segundo
et al. 2012): a graph is stored as one int of neighbours per vertex, and
its edge list is derived from them.  _color_with_limit describes the
search's own bitsets: the uncolored vertices, each color's neighbourhood,
the saturation levels and the degree groups.

UnitDistanceGraph holds no points.  It checks edge lists, in one loop
that reads self-loops and duplicates off the bitsets it builds;
_float_points checks the points that graph_from_json and build_udg are
given, and a gadget embedding's vertices.  graph_from_json checks each
edge of a document against the schema before it builds, and a point list
only when _float_points refuses it, to name the bad element's position.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

from .geometry import DEFAULT_TOLERANCE, Point, _check_tolerance
from .schema import (
    SchemaError,
    require_index_pair,
    require_int,
    require_iterable,
    require_keys,
    require_list,
    require_point,
    require_tolerance,
)

MAX_VERTICES = 512

ColoringAssignment = tuple[int, ...]


@dataclass(frozen=True, init=False)
class UnitDistanceGraph:
    """Graph on indexed vertices, stored as its adjacency bitsets.

    masks[v] is the int whose bit u is set when u and v are joined, the
    form the exact solver reads.  edges is derived from them, as the sorted
    pairs (i, j) with i < j.  The type carries no coordinates: build_udg
    makes the graph of a point set.

    An edge is a pair of distinct vertex indices in range(n), of any integer
    type but bool, given in either order and at most once.  The graph holds
    one int of up to n bits per vertex: an n too large to index a list
    raises ValueError, a smaller n that does not fit in memory fails as
    [0] * n would, and building the graph or reading edges (derived again
    on each access) takes time that grows with n times the edge count.
    """

    n: int
    masks: tuple[int, ...]

    def __init__(self, n: int, edges) -> None:
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        edges = require_iterable(edges, "edges", "vertex pairs")
        try:
            masks = [0] * n
        except OverflowError:
            raise ValueError(f"vertex count {n} is too large to store") from None
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
    pts = tuple(require_iterable(points, "points", "(x, y) pairs"))
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
    return UnitDistanceGraph(len(pts), edges)


def greedy_clique(graph: UnitDistanceGraph) -> list[int]:
    """Maximal clique grown greedily by descending degree, then ascending index; a chromatic lower bound.

    Its vertices, in its order, are the first picks of every DSATUR descent
    the exact solver makes, colored 0, 1, 2, ...
    """
    return _greedy_clique(graph.masks, _degree_groups(graph.masks))


def greedy_coloring(graph: UnitDistanceGraph) -> ColoringAssignment:
    """Proper coloring by repeatedly coloring the most saturated uncolored vertex.

    This is the exact search's greedy descent, run to its end.
    """
    masks = graph.masks
    colors = [-1] * graph.n
    for _ in _greedy_descent(masks, _degree_groups(masks), graph.n, colors):
        pass  # no color reaches n: the descent never pauses
    return tuple(colors)


def _degree_groups(masks: tuple[int, ...]) -> list[int]:
    """The bitset of each degree's vertices, highest degree first."""
    by_degree: dict[int, int] = {}
    for u, m in enumerate(masks):
        d = m.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << u
    return [by_degree[d] for d in sorted(by_degree, reverse=True)]


def _greedy_clique(masks: tuple[int, ...], groups: list[int]) -> list[int]:
    """The vertices in groups order, lowest index first in a group, each kept if it is next to all kept so far."""
    clique: list[int] = []
    common = -1  # the vertices next to every member
    for group in groups:
        rest = group & common
        while rest:
            v = (rest & -rest).bit_length() - 1
            clique.append(v)
            common &= masks[v]
            rest &= masks[v]
    return clique


def _greedy_descent(masks: tuple[int, ...], groups: list[int], first: int, colors: list[int]) -> Iterator[tuple]:
    """DSATUR's greedy descent into colors, a list of n -1s, as a loop that pauses before each new color k >= first.

    Each pick colors the most saturated free vertex, the highest-degree and
    then lowest-index one (groups comes from _degree_groups), with the
    lowest color none of its neighbours has, so the descent never
    backtracks.  near and level are _color_with_limit's bitsets, and the
    descent keeps a trail of (vertex, bit, color, max_used before the
    paint, free after the pick, the vertices the paint moved up a level).
    A pick sees every color in use exactly when it needs a new one, k; if k
    >= first, the descent yields (trail, colors, near[:k], level[:k + 1])
    before painting it, the trail being its own list and the rest copies.
    So the pauses come at k = first, first + 1, ..., below the count of
    colors its coloring uses.
    """
    n = len(masks)
    near = [0] * n
    free = (1 << n) - 1
    level = [0] * (n + 1)
    level[0] = free
    trail: list[tuple[int, int, int, int, int, int]] = []
    max_used = -1
    while free:
        s = max_used + 1
        while not level[s] & free:
            s -= 1
        choice = level[s] & free
        for group in groups:
            if pick := group & choice:
                break
        bit = pick & -pick
        v = bit.bit_length() - 1
        if s > max_used:
            c = s
            if c >= first:
                yield trail, colors[:], near[:c], level[:c + 1]
            used = c
        else:
            c = 0
            while near[c] & bit:
                c += 1
            used = max_used
        free ^= bit
        new = masks[v] & free & ~near[c]
        colors[v] = c
        near[c] |= new
        _move_up(level, new, used)
        trail.append((v, bit, c, max_used, free, new))
        max_used = used


def _color_with_limit(masks: tuple[int, ...], groups: list[int], trail: list, colors: list[int],
                      near: list[int], level: list[int]) -> list[int] | None:
    """Proper coloring with at most k = len(near) colors, or None, searched from a pause of _greedy_descent.

    Backtracking with saturation-degree vertex selection; new colors are
    only introduced in order, which breaks color-permutation symmetry
    without losing completeness.  Colors are tried lowest first.  The
    search from the root, with every vertex free, would first walk the
    greedy descent, whose picks take the lowest colors they can, until the
    pick that needs color k; there that node fails.  So this search starts
    at that pause, with the descent's state there, and backtracks into the
    trail's frames, deepest first, undoing each frame's paint.  One
    recursion does the rest: extend(v, bit, free, max_used, first) paints
    v, with free the other uncolored vertices, each color from first up in
    turn, and after each paint picks the next vertex and recurses on it
    from color 0, unless that vertex already sees k colors.  A frame calls
    it from the color after the descent's choice.  No clique needs
    pre-coloring: at any k >= |clique|
    the first |clique| picks are _greedy_clique's vertices in its order,
    each forced to the next new color, since the free vertices next to
    every one painted so far form the top level.

    near[c] is the bitset of uncolored vertices with a neighbour of color
    c, and level[s] the bitset of vertices whose colored neighbours carry s
    distinct colors; a colored vertex stays in the level it had, so only
    level[s] & free counts.  The next vertex is the highest-degree, then
    lowest-index member of the highest level that meets free, and when that
    level is k the vertex has no color left.  groups holds the bitset of
    each degree's vertices, highest degree first, so the vertex is the
    lowest bit of the first group that meets that level; the caller builds
    it once per solve with _degree_groups.  Painting v with c adds v's
    uncolored neighbours not yet in near[c] to near[c] and moves them up
    one level: a walk down the levels from the highest they can sit in,
    which stops once all of them have moved, at the lowest level that
    holds one of them.  Unpainting puts back the near[c] read before the
    paint and moves that same set back down the same way.  Vertices are
    unpainted in reverse order, so the bits of an uncolored vertex are
    never stale.  colors, near and level are the pause's copies, changed
    in place; trail is only read.
    """
    k = len(near)

    def extend(v: int, bit: int, free: int, max_used: int, first: int) -> bool:
        neighbours = masks[v] & free
        # A new color only in order, and at most k of them.
        for c in range(first, max_used + 2 if max_used < k - 1 else k):
            near_c = near[c]
            if near_c & bit:
                continue
            colors[v] = c
            if not free:
                return True
            new = neighbours & ~near_c
            near[c] = near_c | new
            # A vertex of new is uncolored, so it sits in one level; it sees
            # at most the colors in use, and not c: it moves up from a level
            # <= used, and back down from one <= used + 1.  Each walk goes
            # down from there and stops once all of new has moved.
            used = c if c > max_used else max_used
            rest = new
            s = used
            while rest:
                moved = level[s] & rest
                level[s] ^= moved
                level[s + 1] |= moved
                rest ^= moved
                s -= 1
            # No vertex sees more colors than are in use; one that sees k
            # has none left, and its call would fail at once.
            s = used + 1
            while not level[s] & free:
                s -= 1
            if s < k:
                choice = level[s] & free
                for group in groups:
                    if pick := group & choice:
                        break
                pick &= -pick
                if extend(pick.bit_length() - 1, pick, free ^ pick, used, 0):
                    return True
            near[c] = near_c
            rest = new
            s = used + 1
            while rest:
                moved = level[s] & rest
                level[s] ^= moved
                level[s - 1] |= moved
                rest ^= moved
                s -= 1
        return False

    # Each frame's paint undone, then extend tries the colors after the descent's.
    for v, bit, chosen, max_used, free, moved in reversed(trail):
        near[chosen] ^= moved
        _move_down(level, moved, (chosen if chosen > max_used else max_used) + 1)
        if extend(v, bit, free, max_used, chosen + 1):
            return colors
    return None


def _move_up(level: list[int], rest: int, s: int) -> None:
    """Moves the vertices of rest up one level, walking down from level s until all have moved."""
    while rest:
        moved = level[s] & rest
        level[s] ^= moved
        level[s + 1] |= moved
        rest ^= moved
        s -= 1


def _move_down(level: list[int], rest: int, s: int) -> None:
    """Moves the vertices of rest down one level, walking down from level s until all have moved."""
    while rest:
        moved = level[s] & rest
        level[s] ^= moved
        level[s - 1] |= moved
        rest ^= moved
        s -= 1


def _check_solver_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"graph has {n} vertices; the exact solver is capped at {MAX_VERTICES}")


def chromatic_number_exact(graph: UnitDistanceGraph) -> tuple[int, ColoringAssignment]:
    """Exact chromatic number with a proper witness using that many colors.

    Searches k = |clique|, |clique|+1, ... until a k-coloring exists.  One
    greedy descent runs per solve and pauses before each new color k it
    needs; level k resumes from that pause, and if it fails the descent
    goes on.  The descent's own coloring bounds the search from above, so
    the loop always terminates at the exact value.  Fully deterministic.  A
    graph of more than MAX_VERTICES (512) vertices raises ValueError: each
    level's search recurses once per vertex, and 512 keeps it under
    Python's default recursion limit.
    """
    _check_solver_size(graph.n)
    masks = graph.masks
    groups = _degree_groups(masks)
    clique = _greedy_clique(masks, groups)
    upper = [-1] * graph.n
    for trail, colors, near, level in _greedy_descent(masks, groups, len(clique), upper):
        witness = _color_with_limit(masks, groups, trail, colors, near, level)
        if witness is not None:
            return len(near), tuple(witness)
    return max(upper) + 1, tuple(upper)


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
