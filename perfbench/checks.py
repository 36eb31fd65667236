"""Independent checks of the package's outputs.

Nothing here calls the package: witnesses are re-checked with math.hypot
and atan2 against the coloring's own boundaries, and colorings against an
edge loop, known chromatic numbers and brute force.  Each check raises
CheckFailed with a reason; the workloads count those as failed operations.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi
WITNESS_TOLERANCE = 1e-8


class CheckFailed(AssertionError):
    """An output of the package disagrees with the benchmark's own check."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def witness_problem(coloring: dict, color: int, labels, witness) -> str | None:
    """Why a claimed unit-distance witness is wrong, or None when it holds.

    Both points must be 1 apart within ``WITNESS_TOLERANCE``, lie in the
    annulus and in the piece their label names (sectors are open arcs
    between consecutive boundaries, rays are single directions), and both
    pieces must carry ``color``.
    """
    r, b = coloring["r"], coloring["boundaries"]
    n = len(b)
    (px, py), (qx, qy) = witness
    distance = math.hypot(px - qx, py - qy)
    if abs(distance - 1.0) > WITNESS_TOLERANCE:
        return f"witness points are {distance!r} apart, not 1"
    for label, (x, y) in zip(labels, witness):
        kind, _, index = label.partition(" ")
        i = int(index)
        rho = math.hypot(x, y)
        if not 0.5 - r - WITNESS_TOLERANCE <= rho <= 0.5 + r + WITNESS_TOLERANCE:
            return f"{label}: radius {rho!r} outside the annulus"
        phi = math.atan2(y, x) % TWO_PI
        if kind == "sector":
            width = ((b[(i + 1) % n] - b[i]) % TWO_PI) if n > 1 else TWO_PI
            offset = (phi - b[i]) % TWO_PI
            if not 0.0 < offset < width:
                return f"{label}: angle {phi!r} outside the open arc from {b[i]!r} of width {width!r}"
            piece_color = coloring["sector_colors"][i]
        elif kind == "boundary":
            gap = abs(phi - b[i]) % TWO_PI
            if min(gap, TWO_PI - gap) > WITNESS_TOLERANCE:
                return f"{label}: angle {phi!r} is not on the ray at {b[i]!r}"
            piece_color = coloring["boundary_colors"][i]
        else:
            return f"unknown piece label {label!r}"
        if piece_color != color:
            return f"{label} has colour {piece_color}, not the reported {color}"
    return None


def edges_of(graph: dict) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a graph in either JSON form, recomputed by hypot for points."""
    if "points" in graph:
        pts, tol = graph["points"], graph.get("tolerance", 1e-9)
        n = len(pts)
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)
                   if abs(math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) - 1.0) <= tol]
    return graph["n"], [tuple(e) for e in graph["edges"]]


def is_k_colorable(n: int, edges, k: int) -> bool:
    """Exhaustive backtracking in index order, new colours introduced in order."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[max(i, j)].append(min(i, j))
    colors = [-1] * n

    def place(v: int, used: int) -> bool:
        if v == n:
            return True
        for c in range(min(used + 1, k)):
            if all(colors[u] != c for u in adj[v]):
                colors[v] = c
                if place(v + 1, max(used, c + 1)):
                    return True
        colors[v] = -1
        return False

    return place(0, 0)


def brute_chromatic(n: int, edges) -> int:
    k = 1
    while not is_k_colorable(n, edges, k):
        k += 1
    return k


def greedy_clique_size(n: int, edges) -> int:
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    clique: list[int] = []
    for v in sorted(range(n), key=lambda v: -len(adj[v])):
        if all(u in adj[v] for u in clique):
            clique.append(v)
    return len(clique)


BRUTE_FORCE_MAX_N = 10


def check_chromatic(n: int, edges, chi: int, assignment, known: int | None) -> None:
    """An edge loop over the assignment, then chi against a known value, brute force or a clique."""
    require(len(assignment) == n, f"assignment has {len(assignment)} entries for {n} vertices")
    require(all(0 <= c < chi for c in assignment), f"assignment uses colours outside range({chi})")
    for i, j in edges:
        require(assignment[i] != assignment[j], f"edge ({i}, {j}) is monochromatic")
    if known is not None:
        require(chi == known, f"chi={chi}, expected {known}")
    elif n <= BRUTE_FORCE_MAX_N:
        require(chi == brute_chromatic(n, edges), f"chi={chi}, brute force disagrees")
    else:
        require(chi >= greedy_clique_size(n, edges), f"chi={chi} is below a clique size")


def check_odd_cycle(n: int, edges) -> None:
    """A connected 2-regular graph on an odd number of vertices (chi = 3 without the solver)."""
    require(n % 2 == 1 and len(edges) == n, f"{n} vertices, {len(edges)} edges: not an odd cycle")
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    require(all(len(a) == 2 for a in adj), "odd cycle is not 2-regular")
    seen, prev, v = 1, -1, 0
    while True:
        nxt = adj[v][0] if adj[v][0] != prev else adj[v][1]
        prev, v = v, nxt
        if v == 0:
            break
        seen += 1
    require(seen == n, "odd cycle is not connected")


def check_embedding(vertices, edges, r: float, strict: bool) -> None:
    """Unit edges by hypot; every vertex inside the open annulus, or the closed one when not ``strict``.

    An odd cycle certifies its bound on the closed annulus, so its vertices
    may sit on a boundary circle (the triangle does at r = T3); the tri-rod
    and the spindle must have room to move and so lie strictly inside.
    """
    for i, j in edges:
        (ax, ay), (bx, by) = vertices[i], vertices[j]
        require(abs(math.hypot(ax - bx, ay - by) - 1.0) <= WITNESS_TOLERANCE, f"edge ({i}, {j}) is not unit")
    for x, y in vertices:
        rho = math.hypot(x, y)
        inside = 0.5 - r < rho < 0.5 + r if strict else 0.5 - r - 1e-12 <= rho <= 0.5 + r + 1e-12
        require(inside, f"vertex at radius {rho!r} outside the {'open' if strict else 'closed'} annulus")
