"""End-to-end acceptance checks, one per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion. Each check enforces its own numeric tolerance and wall-clock
budget; a failure is reported with the criterion number it belongs to.
"""

import functools
import math
import random
import time

import pytest

from annulus_chroma.gadgets import (
    GadgetInfeasible,
    SPINDLE_THRESHOLD,
    TRI_ROD_THRESHOLD,
    embed_moser_spindle,
    embed_odd_cycle,
    embed_trirod,
    gadget_lower_bound,
    spindle_points,
)
from annulus_chroma.geometry import Annulus, sector_distance_interval
from annulus_chroma.radial import (
    construct_radial_coloring,
    radial_chromatic_number,
    thresholds,
    verify_radial_coloring,
)
from annulus_chroma.udg import build_udg, chromatic_number_exact

from oracles import (
    brute_chromatic,
    brute_colorable,
    colors_used,
    is_proper,
    random_graph,
    random_radial_coloring,
    random_sector,
    sampled_extremes,
)


def criterion(number, description, budget=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - start
                if budget is not None:
                    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget:.0f}s budget"
            except BaseException:
                print(f"\n[FAIL] criterion {number}: {description}")
                raise
            print(f"\n[PASS] criterion {number}: {description} ({elapsed:.2f}s)")

        return run

    return wrap


@criterion(1, "threshold table values and color counts at the band edges", budget=1.0)
def test_criterion_1_threshold_table():
    rows = {t.colors: t.max_r for t in thresholds()}
    closed_forms = {
        3: (2.0 - math.sqrt(3.0)) / (2.0 * math.sqrt(3.0)),
        4: (2.0 - math.sqrt(2.0)) / (2.0 * math.sqrt(2.0)),
        5: -0.5 + math.sqrt(2.0 / (5.0 - math.sqrt(5.0))),
    }
    decimals = {3: 0.0773503, 4: 0.2071068, 5: 0.3506508}
    assert set(rows) == {3, 4, 5, 6}
    assert rows[6] == 0.5
    for colors, max_r in closed_forms.items():
        assert abs(rows[colors] - max_r) <= 1e-15
        assert abs(rows[colors] - decimals[colors]) <= 1e-7
        assert radial_chromatic_number(rows[colors]) == colors
        assert radial_chromatic_number(rows[colors] + 1e-6) == colors + 1


@criterion(2, "the two unit-chord angle forms agree and N stays in 3..6", budget=1.0)
def test_criterion_2_formula_consistency():
    lo, hi = 1e-6, 0.5 - 1e-6
    for i in range(10_000):
        r = lo + (hi - lo) * i / 9_999
        outer = 0.5 + r
        arccos_form = math.acos(1.0 - 1.0 / (2.0 * outer * outer))
        arcsin_form = 2.0 * math.asin(1.0 / (2.0 * outer))
        assert abs(arccos_form - arcsin_form) <= 1e-12, f"r={r!r}"
        n = radial_chromatic_number(r)
        assert n == math.ceil(2.0 * math.pi / arcsin_form - 1e-9)
        assert 3 <= n <= 6, f"r={r!r} gave N={n}"


@criterion(3, "1000 constructed colorings verify with exactly N colors", budget=30.0)
def test_criterion_3_construct_verify_round_trip():
    rng = random.Random(3)
    for _ in range(1000):
        r = rng.uniform(0.001, 0.499)
        n = radial_chromatic_number(r)
        coloring = construct_radial_coloring(r)
        assert colors_used(coloring) == list(range(n)), f"r={r!r}"
        verdict = verify_radial_coloring(coloring)
        assert verdict.proper, f"r={r!r}: witness {verdict.witness}"


@criterion(4, "random (N-1)-colorings are rejected with a unit-distance witness", budget=60.0)
def test_criterion_4_lower_bound_property():
    rng = random.Random(4)
    t3, t4, t5, _ = [t.max_r for t in thresholds()]
    bands = [(0.001, t3), (t3 + 1e-6, t4), (t4 + 1e-6, t5), (t5 + 1e-6, 0.499)]
    values = [lo + (hi - lo) * (k + 1) / 6.0 for lo, hi in bands for k in range(5)]
    assert len(values) == 20
    for r in values:
        n = radial_chromatic_number(r)
        for _ in range(1000):
            coloring = random_radial_coloring(rng, r, n - 1)
            verdict = verify_radial_coloring(coloring)
            assert not verdict.proper, f"r={r!r}: improper coloring accepted"
            p, q = verdict.witness
            assert abs(math.dist(p, q) - 1.0) <= 1e-9, f"r={r!r}: witness gap"


@criterion(5, "sector distance intervals bracket and track dense sampling", budget=60.0)
def test_criterion_5_geometry_oracle_equivalence():
    rng = random.Random(5)
    for _ in range(200):
        annulus = Annulus(rng.uniform(0.01, 0.49))
        s1 = random_sector(rng, annulus)
        s2 = random_sector(rng, annulus)
        interval = sector_distance_interval(s1, s2)
        smin, smax = sampled_extremes(s1, s2, 400, 400)
        assert interval.min <= smin + 1e-9, f"{s1} {s2}: min fails to bracket"
        assert interval.max >= smax - 1e-9, f"{s1} {s2}: max fails to bracket"
        assert smin - interval.min <= 1e-3, f"{s1} {s2}: min too loose"
        assert interval.max - smax <= 1e-3, f"{s1} {s2}: max too loose"


@criterion(6, "tri-rod flips exactly at its threshold; spindle embeds above its own", budget=120.0)
def test_criterion_6_gadget_certificates():
    with pytest.raises(GadgetInfeasible):
        embed_trirod(TRI_ROD_THRESHOLD - 1e-9)
    just_above = embed_trirod(TRI_ROD_THRESHOLD + 1e-9)
    assert just_above.margin > 0.0
    feasible = [TRI_ROD_THRESHOLD + 1e-9] + [
        TRI_ROD_THRESHOLD + k * (0.499 - TRI_ROD_THRESHOLD) / 20.0 for k in range(1, 21)
    ]
    # Rotation about the center keeps every vertex's radius, so the tri-rod
    # turns freely exactly when its vertices sit on the circle of radius
    # 1/sqrt(3) and that circle is strictly inside the outer one.
    for r in feasible:
        for v in embed_trirod(r).vertices:
            assert abs(math.hypot(*v) - 1.0 / math.sqrt(3.0)) <= 1e-15, f"r={r!r}: vertex off the circle"
        assert 1.0 / math.sqrt(3.0) < Annulus(r).outer_radius, f"r={r!r}: circle not inside"

    lo = SPINDLE_THRESHOLD + 0.005
    grid = [lo + (0.499 - lo) * (k + 1) / 51.0 for k in range(50)]
    for r in grid:
        emb = embed_moser_spindle(r)
        assert emb.margin > 0.0, f"r={r!r}: nonpositive margin"
        assert len(emb.edges) == 11
        for i, j in emb.edges:
            gap = abs(math.dist(emb.vertices[i], emb.vertices[j]) - 1.0)
            assert gap <= 1e-9, f"r={r!r}: edge ({i},{j}) off unit by {gap:.2e}"
    for r in (0.1, 0.25, SPINDLE_THRESHOLD - 1e-6):
        with pytest.raises(GadgetInfeasible):
            embed_moser_spindle(r)


@criterion(7, "exact solver matches exhaustive enumeration and known gadget values", budget=60.0)
def test_criterion_7_solver_correctness():
    rng = random.Random(7)
    for _ in range(200):
        graph = random_graph(rng)
        chi, assignment = chromatic_number_exact(graph)
        assert chi == brute_chromatic(graph), f"{graph.n} vertices, {graph.edges}"
        assert is_proper(graph, assignment)
        assert len(set(assignment)) == chi

    spindle = build_udg(spindle_points())
    assert len(spindle.edges) == 11
    chi, _ = chromatic_number_exact(spindle)
    assert chi == 4
    assert not brute_colorable(spindle, 3)
    assert brute_colorable(spindle, 4)

    for r in (0.01, 0.05, 0.0773, 0.15, 0.2071, 0.25, 0.3, 0.3506, 0.4, 0.45, 0.49):
        cycle = embed_odd_cycle(r)
        graph = build_udg(cycle.vertices)
        assert len(graph.edges) == len(cycle.vertices)
        chi, _ = chromatic_number_exact(graph)
        assert chi == 3, f"r={r!r}: {cycle.params}"


@criterion(8, "band-edge colorings are accepted and gadget lower bounds hold", budget=120.0)
def test_criterion_8_arbitrary_coloring_claims():
    t3, t4, t5, _ = [t.max_r for t in thresholds()]
    three = construct_radial_coloring(t3)
    assert colors_used(three) == [0, 1, 2]
    assert verify_radial_coloring(three).proper
    four = construct_radial_coloring(t4)
    assert colors_used(four) == [0, 1, 2, 3]
    assert verify_radial_coloring(four).proper

    everywhere = (0.001, 0.02, 0.05, t3, 0.1, 0.15, t4, 0.25, 0.3, t5, 0.4, 0.45, 0.499)
    for r in everywhere:
        assert gadget_lower_bound(r).bound >= 3, f"r={r!r}"
    above_t3 = (t3 + 1e-6, 0.1, 0.21, 0.25, 0.35, 0.45, 0.499)
    for r in above_t3:
        assert gadget_lower_bound(r).bound >= 4, f"r={r!r}"
