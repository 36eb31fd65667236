"""Tests of the benchmark's own generators, checks and tracing."""

import math
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import annulus_chroma.radial as radial  # noqa: E402
from perfbench import checks, gen, run, tracing, workloads  # noqa: E402


@pytest.mark.parametrize("make", [
    lambda rng: gen.cli_pass(rng),
    lambda rng: workloads.verify_colorings(rng, (0, 30), (6, 200), (12,)),
    lambda rng: gen.solve_suite(rng),
    lambda rng: gen.stratified_rs(rng, 50),
])
def test_generators_are_deterministic_per_seed(make):
    assert make(random.Random(7)) == make(random.Random(7))
    assert make(random.Random(7)) != make(random.Random(8))


def test_hard_solve_instances_are_the_same_for_every_seed():
    hard = len(gen.HARD_GNP)
    first, second = gen.solve_suite(random.Random(1))[-hard:], gen.solve_suite(random.Random(2))[-hard:]
    assert first == second
    assert [known for _, _, known in first] == [chi for *_, chi in gen.HARD_GNP]


def test_setup_only_prints_its_set_up_time():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "bands",
                           "--seed", "1", "--seconds", "0", "--setup-only"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    setup_s, reference_s = map(float, proc.stdout.split())
    assert 0.0 < setup_s < 60.0
    assert 0.0 < reference_s < 1.0


def test_speed_scales_by_the_reference_samples_around_an_operation():
    speed = run.Speed()
    speed.at, speed.seconds = [1.0, 2.0, 3.0], [1e-3, 2e-3, 4e-3]
    assert speed.scale(2.1, 2.5) == pytest.approx(2 * run.REFERENCE_NOMINAL_S / 6e-3)
    # An operation that spans a sample is scaled by the samples outside it.
    assert speed.scale(1.5, 2.5) == pytest.approx(2 * run.REFERENCE_NOMINAL_S / 5e-3)


def test_stratified_rs_cover_every_stratum():
    rs = gen.stratified_rs(random.Random(3), 100)
    width = (0.5 - 2 * gen.R_MIN) / 100
    assert [int((r - gen.R_MIN) // width) for r in rs] == list(range(100))


@pytest.mark.parametrize("k, n", [(3, 5), (4, 11)])
def test_mycielski_chromatic_number_by_brute_force(k, n):
    g = gen.mycielski(k)
    assert g["n"] == n
    assert checks.brute_chromatic(g["n"], g["edges"]) == k


def test_mycielski_sizes_up_to_m6():
    assert [gen.mycielski(k)["n"] for k in (5, 6)] == [23, 47]


@pytest.mark.parametrize("band", range(4))
def test_subdivided_constructions_verify_proper(band):
    rng = random.Random(band)
    for size in (0, 7, 40):
        data = gen.subdivided_proper(rng, gen.band_r(rng, band), size)
        assert len(data["boundaries"]) == max(size, gen.expected_colors(data["r"]))
        assert radial.verify_radial_coloring(radial.coloring_from_json(data)).proper


@pytest.mark.parametrize("band", range(4))
@pytest.mark.parametrize("make", [gen.random_improper, gen.recoloured_improper])
def test_improper_generators_give_checked_witnesses(band, make):
    rng = random.Random(10 + band)
    data = make(rng, gen.band_r(rng, band), 30)
    verdict = radial.verify_radial_coloring(radial.coloring_from_json(data))
    assert not verdict.proper
    assert checks.witness_problem(data, verdict.color, verdict.piece_labels, verdict.witness) is None


THREE = {"r": 0.3, "boundaries": [0.0, 1.0, 3.0], "sector_colors": [0, 1, 0], "boundary_colors": [0, 1, 2]}


def test_witness_checker_rejects_identical_points():
    # The witness verify prints with --tolerance inf: the same point twice.
    coloring = radial.coloring_from_json(THREE)
    verdict = radial.verify_radial_coloring(coloring, tolerance=math.inf)
    assert verdict.witness[0] == verdict.witness[1]
    problem = checks.witness_problem(THREE, verdict.color, verdict.piece_labels, verdict.witness)
    assert "apart, not 1" in problem


def test_witness_checker_rejects_a_point_outside_its_piece():
    # Sector 0 spans angles (0, 1); the first point sits at angle 2.
    p = (0.5 * math.cos(2.0), 0.5 * math.sin(2.0))
    q = (p[0] + 1.0, p[1])
    problem = checks.witness_problem(THREE, 0, ("sector 0", "sector 2"), (p, q))
    assert problem is not None and "outside the open arc" in problem


def test_witness_checker_rejects_different_colours():
    # A unit chord at radius 0.6 from sector 0 (colour 0) into sector 1 (colour 1).
    a, b = 0.5, 0.5 + 2 * math.asin(1.0 / (2 * 0.6))
    p = (0.6 * math.cos(a), 0.6 * math.sin(a))
    q = (0.6 * math.cos(b), 0.6 * math.sin(b))
    assert abs(math.dist(p, q) - 1.0) < 1e-12
    problem = checks.witness_problem(THREE, 0, ("sector 0", "sector 1"), (p, q))
    assert problem is not None and "has colour 1" in problem


def test_witness_checker_accepts_a_genuine_pair():
    a = 3.5
    p = (0.4 * math.cos(a), 0.4 * math.sin(a))
    q = (-0.6 * math.cos(a), -0.6 * math.sin(a))
    assert checks.witness_problem(THREE, 0, ("sector 2", "sector 0"), (p, q)) is None


def test_check_chromatic_catches_a_monochromatic_edge_and_a_wrong_chi():
    cycle = gen.odd_cycle(5)
    with pytest.raises(checks.CheckFailed):
        checks.check_chromatic(5, cycle["edges"], 3, (0, 0, 1, 0, 1), 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_chromatic(5, cycle["edges"], 4, (0, 1, 0, 1, 3), None)


def test_instrument_restores_every_rebound_name():
    before = {(m.__name__, k): v for m in tracing.MODULES for k, v in vars(m).items() if callable(v)}
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert radial.contains_unit_pair is not before["annulus_chroma.radial", "contains_unit_pair"]
        radial.verify_radial_coloring(radial.construct_radial_coloring(0.3))
    after = {(m.__name__, k): v for m in tracing.MODULES for k, v in vars(m).items() if callable(v)}
    assert after == before
    assert [s.name for s in tracer.spans] == ["radial.construct", "radial.chromatic_number", "radial.verify"]
    assert sum(len(v) for v in tracer.cup.values()) > 0
