import json
import math
import os
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import annulus_chroma
from annulus_chroma import cli
from annulus_chroma.cli import main
from annulus_chroma.gadgets import ODD_CYCLE_THRESHOLD, SPINDLE_THRESHOLD, TRI_ROD_THRESHOLD, spindle_points
from annulus_chroma.geometry import Annulus, unit_chord_angle
from annulus_chroma.radial import (
    RadialColoring,
    VerificationResult,
    coloring_from_json,
    thresholds,
    verify_radial_coloring,
)
from oracles import window_edge_coloring


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChiRadial:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "chi-radial", "--r", "0.05")
        assert code == 0
        assert out.splitlines()[0] == "N=3"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "chi-radial", "--r", "0.3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["N"] == 5
        assert payload["band"]["colors"] == 5
        assert payload["theta"] == pytest.approx(2 * math.asin(1 / 1.6), abs=1e-15)

    def test_band_matches_n_around_thresholds(self, capsys):
        for t in thresholds()[:3]:
            for r in [t.max_r] + [t.max_r + sign * 10.0 ** -k for k in range(6, 15) for sign in (-1.0, 1.0)]:
                code, out, _ = run(capsys, "chi-radial", "--r", repr(r), "--format", "json")
                assert code == 0
                payload = json.loads(out)
                assert payload["band"]["colors"] == payload["N"], r

    def test_outer_radius_rounding_to_half(self, capsys):
        code, out, err = run(capsys, "chi-radial", "--r", "1e-17")
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["N=3", f"theta={math.pi!r}"]

    def test_out_of_domain(self, capsys):
        code, _, err = run(capsys, "chi-radial", "--r", "0.6")
        assert code == 2
        assert "error:" in err

    def test_missing_argument(self, capsys):
        code, _, _ = run(capsys, "chi-radial")
        assert code == 2


class TestTable:
    def test_text_has_all_bands(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("colors")

    def test_json_matches_thresholds(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["colors"] for row in rows] == [3, 4, 5, 6]
        for row, expected in zip(rows, thresholds()):
            assert abs(row["max_r"] - expected.max_r) <= 1e-12

    @pytest.mark.parametrize("argv", [
        ("table",),
        ("construct", "--r", "0.2", "--format", "svg"),
    ], ids=["table", "construct-svg"])
    def test_out_in_a_missing_directory(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "No such file or directory" in err
        assert not path.parent.exists()


class TestConstructAndVerify:
    def test_construct_json_verifies(self, capsys, tmp_path):
        path = tmp_path / "coloring.json"
        code, out, _ = run(capsys, "construct", "--r", "0.15", "--out", str(path))
        assert code == 0
        assert out == ""
        coloring = coloring_from_json(json.loads(path.read_text()))
        assert verify_radial_coloring(coloring).proper

    def test_construct_svg(self, capsys):
        code, out, _ = run(capsys, "construct", "--r", "0.15", "--format", "svg")
        assert code == 0
        ET.fromstring(out)

    def test_construct_refuses_a_coloring_that_fails_self_verification(self, capsys, monkeypatch):
        one_colour = RadialColoring(Annulus(0.3), (0.0, 3.0), (0, 0), (0, 0))
        monkeypatch.setattr(cli, "construct_radial_coloring", lambda r: one_colour)
        code, out, err = run(capsys, "construct", "--r", "0.3")
        assert (code, out) == (3, "")
        assert "failed self-verification" in err

    def test_verify_accepts_constructed(self, capsys, tmp_path):
        path = tmp_path / "coloring.json"
        run(capsys, "construct", "--r", "0.4", "--out", str(path))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out.strip() == "proper"

    def test_verify_rejects_merged_colors(self, capsys, tmp_path):
        path = tmp_path / "coloring.json"
        run(capsys, "construct", "--r", "0.3", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["sector_colors"] = [0] * len(doc["sector_colors"])
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path), "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["proper"] is False
        p, q = payload["witness"]
        assert math.dist(p, q) == pytest.approx(1.0, abs=1e-9)

    def test_construct_verify_where_the_outer_radius_rounds_to_half(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        code, _, err = run(capsys, "construct", "--r", "1e-17", "--out", str(path))
        assert (code, err) == (0, "")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out.splitlines()[0] == "proper"

    def test_verify_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("content", [
        b'{"r": 0.1, "boundaries": [0.0], "sector_colors": [0], "boundary_colors": [0], "x": "\xff"}',
        b'{"r": 0.1, "boundaries": [0.0, 1' + b"0" * 5000 + b'], "sector_colors": [0, 1], "boundary_colors": [0, 1]}',
    ], ids=["not-utf8", "too-many-digits"])
    def test_verify_unreadable_json(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert "is not valid JSON" in err

    def test_verify_missing_key(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"r": 0.1}))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "boundaries" in err

    @pytest.mark.parametrize("key, value, where", [
        ("boundaries", [0, 10**400], "coloring.boundaries[1]"),
        ("r", 10**400, "coloring.r"),
    ], ids=["boundary", "r"])
    def test_verify_integer_too_large_for_a_float(self, capsys, tmp_path, key, value, where):
        path = tmp_path / "big.json"
        doc = {"r": 0.1, "boundaries": [0.0, 1.0], "sector_colors": [0, 1], "boundary_colors": [0, 1], key: value}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert f"{where}: expected a finite number" in err

    def test_verify_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 2


def _chord(rho, start):
    """Two points at radius rho, 1 apart, the first at angle ``start``."""
    d = 2.0 * math.asin(1.0 / (2.0 * rho))
    return tuple((rho * math.cos(a), rho * math.sin(a)) for a in (start, start + d))


# One sector of color 0 covering the circle but the ray at angle 0, r = 0.1.
ONE_SECTOR = {"r": 0.1, "boundaries": [0.0], "sector_colors": [0], "boundary_colors": [0]}
SECTORS = ("sector 0", "sector 0")


class TestVerifyWitnessCheck:
    @pytest.mark.parametrize("witness, color, labels", [
        (((0.55 * math.cos(1.0), 0.55 * math.sin(1.0)), (0.55 * math.cos(2.0), 0.55 * math.sin(2.0))), 0, SECTORS),
        (_chord(0.65, 0.5), 0, SECTORS),
        (_chord(0.55, 1.0), 0, ("boundary 0", "sector 0")),
        (_chord(0.55, 1.0), 1, SECTORS),
    ], ids=["not-unit-apart", "outside-annulus", "off-its-ray", "wrong-color"])
    def test_bogus_witness_exits_internal(self, capsys, tmp_path, monkeypatch, witness, color, labels):
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps(ONE_SECTOR))
        bogus = VerificationResult(proper=False, witness=witness, color=color, piece_labels=labels)
        monkeypatch.setattr(cli, "verify_radial_coloring", lambda coloring, tolerance: bogus)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 3
        assert out == ""
        assert "independent check" in err

    def test_sound_witness_is_printed(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps(ONE_SECTOR))
        sound = VerificationResult(proper=False, witness=_chord(0.55, 1.0), color=0, piece_labels=SECTORS)
        monkeypatch.setattr(cli, "verify_radial_coloring", lambda coloring, tolerance: sound)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert out.splitlines()[0] == "improper"


# Two colour-0 rays whose outer chord falls short of 1 by just under the
# tolerance 1e-15; every other piece has a colour of its own.
WINDOW_EDGE = [
    {"r": 2.7755575615628914e-17, "boundaries": [0.3966429520069594, 1.0, 3.538235694630649, 4.0],
     "sector_colors": [1, 2, 3, 4], "boundary_colors": [0, 5, 0, 6]},
    {"r": 0.3, "boundaries": [0.142, 0.642, 0.892, 1.142, 1.4922630658740614, 1.9922630658740614,
                              2.492263065874061, 2.992263065874061, 3.492263065874061, 3.992263065874061,
                              4.492263065874061, 4.992263065874061, 5.492263065874061, 5.992263065874061],
     "sector_colors": list(range(1, 15)), "boundary_colors": [0, 16, 17, 18, 0, *range(20, 29)]},
]


class TestWindowEdgeWitness:
    # A verdict from an extreme within the tolerance of 1 can put its witness at
    # the outer radius, where the chord can fall short of 1 by the tolerance
    # and rounding more: the pair then counts as a miss, not as a witness the
    # independent check refuses.
    @pytest.mark.parametrize("doc", WINDOW_EDGE, ids=["r-rounds-to-zero", "r-0.3"])
    def test_verify_at_the_window_edge(self, capsys, tmp_path, doc):
        path = tmp_path / "rays.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "verify", str(path), "--tolerance", "1e-15") == (0, "proper\n", "")
        code, out, err = run(capsys, "verify", str(path), "--tolerance", "1e-14")
        assert (code, err) == (1, "")
        assert "color=0" in out.splitlines()

    def test_every_window_verdict_passes_the_independent_check(self):
        rng = random.Random(2013)
        improper = 0
        for _ in range(4000):
            coloring, tolerance = window_edge_coloring(rng)
            verdict = verify_radial_coloring(coloring, tolerance)
            if not verdict.proper:
                improper += 1
                assert verdict.color == 0
                assert cli._witness_problem(coloring, verdict, tolerance) is None, (coloring, tolerance)
        assert 2000 < improper < 4000


class TestEmbed:
    def test_rod_json(self, capsys):
        code, out, _ = run(capsys, "embed", "--gadget", "rod", "--r", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "rod"
        assert payload["margin"] == pytest.approx(0.05, abs=1e-12)

    def test_cycle_text(self, capsys):
        code, out, _ = run(capsys, "embed", "--gadget", "cycle", "--r", "0.2", "--format", "text")
        assert code == 0
        assert out.splitlines()[0] == "kind=odd_cycle"

    def test_cycle_below_threshold(self, capsys):
        code, out, err = run(capsys, "embed", "--gadget", "cycle", "--r", "1e-5")
        assert code == 1
        assert out == ""
        assert f"threshold={ODD_CYCLE_THRESHOLD!r}" in err.splitlines()

    def test_trirod_feasible(self, capsys):
        code, out, _ = run(capsys, "embed", "--gadget", "trirod", "--r", "0.08")
        assert code == 0
        assert json.loads(out)["kind"] == "tri_rod"

    def test_trirod_infeasible_reports_threshold(self, capsys):
        code, out, err = run(capsys, "embed", "--gadget", "trirod", "--r", "0.07")
        assert code == 1
        assert out == ""
        assert "infeasible" in err
        assert repr(TRI_ROD_THRESHOLD) in err

    def test_spindle_feasible(self, capsys):
        code, out, _ = run(capsys, "embed", "--gadget", "spindle", "--r", "0.42")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "moser_spindle"
        assert payload["margin"] > 0

    def test_spindle_infeasible(self, capsys):
        code, _, err = run(capsys, "embed", "--gadget", "spindle", "--r", "0.3")
        assert code == 1
        assert repr(SPINDLE_THRESHOLD) in err

    def test_svg_format(self, capsys):
        code, out, _ = run(capsys, "embed", "--gadget", "rod", "--r", "0.25", "--format", "svg")
        assert code == 0
        ET.fromstring(out)

    @pytest.mark.parametrize("r", ["0.7", "nan"])
    def test_out_of_domain(self, capsys, r):
        code, out, err = run(capsys, "embed", "--gadget", "rod", "--r", r)
        assert (code, out) == (2, "")
        assert err == f"error: annulus half-width must lie strictly in (0, 1/2), got {float(r)}\n"


class TestSolve:
    def test_cycle_graph(self, capsys, tmp_path):
        path = tmp_path / "c5.json"
        path.write_text(json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert out.splitlines()[0] == "chi=3"

    def test_spindle_graph(self, capsys, tmp_path):
        path = tmp_path / "spindle.json"
        path.write_text(json.dumps({"points": [list(p) for p in spindle_points()], "tolerance": 1e-9}))
        code, out, _ = run(capsys, "solve", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["chi"] == 4
        assert len(payload["assignment"]) == 7

    def test_oversize_graph(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 65, "edges": [[0, 1]]}))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert err == "error: graph has 65 vertices; the exact solver is capped at 64\n"

    def test_oversize_points_refused_before_the_graph_is_built(self, capsys, tmp_path):
        # Building would check all 2 * 10^8 pairs of points, about a minute.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"points": [[0.001 * k, 0.0] for k in range(20_000)]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", str(path))
        assert time.perf_counter() - start < 10.0
        assert (code, out) == (2, "")
        assert err == "error: graph has 20000 vertices; the exact solver is capped at 64\n"

    @pytest.mark.parametrize(
        "doc", [{"n": 10**19, "edges": [[0, 1]]}, {"n": 65, "edges": [[0, 0]]}], ids=["huge-n", "self-loop"]
    )
    def test_oversize_abstract_document_refused_unbuilt(self, capsys, tmp_path, doc):
        # Building would fail on its own first: [0] * 10**19 raises OverflowError,
        # and the self-loop would be refused as a graph error.
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: graph has {doc['n']} vertices; the exact solver is capped at 64\n"

    def test_oversize_document_schema_checked_first(self, capsys, tmp_path):
        points = [[0.001 * k, 0.0] for k in range(100)]
        points[70] = [1.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": points}))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert err == "error: graph.points[70]: expected [x, y], got 1 entries\n"
        path.write_text(json.dumps({"n": 65, "edges": [[0, "x"]]}))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert err == "error: graph.edges[0][1]: expected an integer, got str\n"

    def test_bad_schema(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"edges": [[0, 1]]}))
        code, _, _ = run(capsys, "solve", str(path))
        assert code == 2

    def test_integer_too_large_for_a_float(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"points": [[10**400, 0], [0, 0]]}))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2
        assert out == ""
        assert "graph.points[0][0]: expected a finite number" in err

    def test_nan_tolerance_gives_no_verdict(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"points": [[0, 0], [1, 0]], "tolerance": NaN}')
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2
        assert out == ""
        assert "graph.tolerance" in err


def improper_coloring_file(capsys, tmp_path):
    path = tmp_path / "coloring.json"
    run(capsys, "construct", "--r", "0.3", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["sector_colors"] = [0] * len(doc["sector_colors"])
    path.write_text(json.dumps(doc))
    return path


class TestToleranceHandling:
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "1e-2", "1e-16"])
    def test_absurd_flag_gives_no_verdict(self, capsys, tmp_path, value):
        path = improper_coloring_file(capsys, tmp_path)
        code, out, err = run(capsys, "verify", str(path), "--tolerance", value)
        assert code == 2
        assert out == ""
        assert "--tolerance" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_env_gives_no_verdict(self, capsys, tmp_path, monkeypatch, value):
        path = improper_coloring_file(capsys, tmp_path)
        monkeypatch.setenv("ANNULUS_CHROMA_TOLERANCE", value)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert "ANNULUS_CHROMA_TOLERANCE" in err

    def test_floor_keeps_tie_witnesses_checkable(self, capsys, tmp_path, monkeypatch):
        # Colour 0 spans the open arc (0, theta + 1 ulp) at r = 0.49; the rest
        # is cut into sectors narrower than theta, each in a colour of its own.
        # Below 1e-15 the pair verdict on it rests on the last bit of d_max,
        # and its witness can fail the independent check (exit 3).
        r = 0.49
        gap = math.nextafter(unit_chord_angle(0.5 + r), 4.0)
        m = math.ceil((2.0 * math.pi - gap) / (0.5 * gap))
        rest = [gap + k * (2.0 * math.pi - gap) / m for k in range(1, m)]
        path = tmp_path / "tie.json"
        path.write_text(json.dumps({"r": r, "boundaries": [0.0, 0.5 * gap, gap, *rest],
                                    "sector_colors": [0, 0, *range(1, m + 1)],
                                    "boundary_colors": [m, 0, *range(1, m + 1)]}))
        code, out, err = run(capsys, "verify", str(path), "--tolerance", "1e-16")
        assert (code, out) == (2, "") and "--tolerance" in err
        monkeypatch.setenv("ANNULUS_CHROMA_TOLERANCE", "1e-16")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "") and "ANNULUS_CHROMA_TOLERANCE" in err
        code, _, err = run(capsys, "verify", str(path), "--tolerance", "1e-15")
        assert code in (0, 1), err

    def test_negative_flag_rejected(self, capsys, tmp_path):
        path = tmp_path / "coloring.json"
        run(capsys, "construct", "--r", "0.2", "--out", str(path))
        code, _, err = run(capsys, "verify", str(path), "--tolerance", "-1")
        assert code == 2
        assert "positive" in err

    def test_env_override_used(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "coloring.json"
        run(capsys, "construct", "--r", "0.2", "--out", str(path))
        monkeypatch.setenv("ANNULUS_CHROMA_TOLERANCE", "1e-6")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out.strip() == "proper"

    def test_env_invalid_rejected(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "coloring.json"
        run(capsys, "construct", "--r", "0.2", "--out", str(path))
        monkeypatch.setenv("ANNULUS_CHROMA_TOLERANCE", "banana")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "ANNULUS_CHROMA_TOLERANCE" in err

    @pytest.mark.parametrize("value", ["nan", "1e-2"])
    def test_absurd_flag_refused_by_construct(self, capsys, value):
        code, out, err = run(capsys, "construct", "--r", "0.2", "--tolerance", value)
        assert code == 2
        assert out == ""
        assert "--tolerance" in err

    def test_construct_takes_the_flag(self, capsys):
        code, out, _ = run(capsys, "construct", "--r", "0.2", "--tolerance", "1e-6")
        assert code == 0
        assert coloring_from_json(json.loads(out)).n > 0

    @pytest.mark.parametrize("argv", [
        ["chi-radial", "--r", "0.3"],
        ["table"],
        ["embed", "--gadget", "rod", "--r", "0.3"],
        ["solve", "GRAPH"],
    ], ids=["chi-radial", "table", "embed", "solve"])
    def test_flag_refused_where_no_tolerance_is_read(self, capsys, tmp_path, argv):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        argv = [str(path) if a == "GRAPH" else a for a in argv]
        code, out, err = run(capsys, *argv, "--tolerance", "nan")
        assert code == 2
        assert out == ""
        assert "--tolerance" in err

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "coloring.json"
        run(capsys, "construct", "--r", "0.2", "--out", str(path))
        monkeypatch.setenv("ANNULUS_CHROMA_TOLERANCE", "banana")
        code, _, _ = run(capsys, "verify", str(path), "--tolerance", "1e-9")
        assert code == 0


class TestParser:
    def test_version_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "annulus-chroma" in out

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2


class TestImport:
    def test_cli_import_leaves_out_numpy(self):
        src = Path(annulus_chroma.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, annulus_chroma.cli; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestEntry:
    """cli.entry, the console script's target, turns main's result into the exit status."""

    @pytest.mark.parametrize("argv, expected", [
        (["verify", "PROPER"], 0),
        (["verify", "IMPROPER"], 1),
        (["construct", "--r", "0.7"], 2),
    ], ids=["proper", "improper", "bad-r"])
    def test_exit_status(self, tmp_path, argv, expected):
        proper, improper = tmp_path / "proper.json", tmp_path / "improper.json"
        assert main(["construct", "--r", "0.15", "--out", str(proper)]) == 0
        doc = json.loads(proper.read_text())
        doc["sector_colors"] = [0] * len(doc["sector_colors"])
        improper.write_text(json.dumps(doc))
        argv = [{"PROPER": str(proper), "IMPROPER": str(improper)}.get(a, a) for a in argv]
        src = Path(annulus_chroma.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = f"import sys; from annulus_chroma import cli; sys.argv = {['annulus-chroma', *argv]!r}; cli.entry()"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == expected, proc.stderr
        if argv[0] == "verify":
            assert proc.stdout.splitlines()[0] == ("proper" if expected == 0 else "improper")
        else:
            assert "error:" in proc.stderr

    def test_verify_where_the_outer_radius_rounds_to_half(self, tmp_path):
        # 1/2 + r == 1/2: the two rays hold a diameter, the only unit chord.
        path = tmp_path / "rays.json"
        path.write_text(json.dumps({"r": 1e-17, "boundaries": [0.0, math.pi],
                                    "sector_colors": [0, 0], "boundary_colors": [0, 0]}))
        src = Path(annulus_chroma.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = f"import sys; from annulus_chroma import cli; sys.argv = {['annulus-chroma', 'verify', str(path)]!r}; cli.entry()"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "improper"
        assert lines[-1].startswith("witness=")
