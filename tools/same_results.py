"""Hash the library's results on seeded inputs, so two commits can be shown to compute the same.

    python3 tools/same_results.py

Prints one line per check: its name, how many results it hashed, and the
SHA-256 of their reprs (a float's repr round-trips, so equal hashes mean
equal results to the last bit).  Run it at two commits, copying it into the
older checkout if it is not there; equal lines mean equal results.

- pairs: sector_distance_interval and contains_unit_pair on 40,000 seeded
  random_sector_pair draws in both argument orders, r cycling over 5e-324,
  2**-60, 1e-17, 1e-9, log-uniform in [5e-324, 0.49] and 0.49, tolerance
  0 on every fourth draw and 10**U(-15, -3) otherwise.
- verify: verify_radial_coloring on the seed 1-3 verify_proper and
  verify_improper inputs of perfbench.
- solve: chromatic_number_exact, greedy_clique and greedy_coloring on the
  seed 1-3 solve suites of perfbench and on the Mycielski graph M6.
- levels: (k, udg._color_with_limit(...)) at every pause of
  udg._greedy_descent on the same graphs, levels that fail and levels
  above the chromatic number included.  It calls udg's private search
  functions by their present names and signatures, so it runs only at a
  commit that has them.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from annulus_chroma import geometry, udg  # noqa: E402
from oracles import mycielski, random_sector_pair  # noqa: E402
from perfbench import gen, workloads  # noqa: E402

SEEDS = (1, 2, 3)
PAIR_DRAWS = 40_000
PAIR_RADII = (5e-324, 2.0 ** -60, 1e-17, 1e-9, None, 0.49)  # None: log-uniform


def _digest(results) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for result in results:
        h.update(repr(result).encode())
        h.update(b"\n")
        count += 1
    return count, h.hexdigest()


def pair_results():
    rng = random.Random(28)
    for k in range(PAIR_DRAWS):
        r = PAIR_RADII[k % len(PAIR_RADII)]
        if r is None:
            r = math.exp(rng.uniform(math.log(5e-324), math.log(0.49)))
        tolerance = 0.0 if k % 4 == 0 else 10.0 ** rng.uniform(-15.0, -3.0)
        s1, s2, tolerance = random_sector_pair(rng, r, tolerance)
        for a, b in ((s1, s2), (s2, s1)):
            yield geometry.sector_distance_interval(a, b, tolerance), geometry.contains_unit_pair(a, b, tolerance)


def verify_results():
    for workload in ("verify_proper", "verify_improper"):
        for seed in SEEDS:
            for op in workloads.SETUPS[workload](random.Random(seed)).ops:
                yield op.run()


def solve_graphs():
    graphs = [udg.graph_from_json(data) for seed in SEEDS for _, data, _ in gen.solve_suite(random.Random(seed))]
    graphs.append(mycielski(6))
    return graphs


def solve_results():
    for graph in solve_graphs():
        yield udg.chromatic_number_exact(graph), udg.greedy_clique(graph), udg.greedy_coloring(graph)


def level_results():
    for graph in solve_graphs():
        masks = graph.masks
        groups = udg._degree_groups(masks)
        first = len(udg._greedy_clique(masks, groups))
        for trail, colors, near, level in udg._greedy_descent(masks, groups, first, [-1] * graph.n):
            yield len(near), udg._color_with_limit(masks, groups, trail, colors, near, level)


def main() -> None:
    for name, results in (("pairs", pair_results()), ("verify", verify_results()), ("solve", solve_results()),
                          ("levels", level_results())):
        count, digest = _digest(results)
        print(f"{name} {count} {digest}", flush=True)


if __name__ == "__main__":
    main()
