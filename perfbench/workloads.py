"""The four workloads as lists of operations, plus the layer tour of the traced run.

An operation is one call a user waits for: one coloring verified, one graph
solved, or one r taken through the whole pipeline.
``run`` holds only calls into the package and is what gets timed; ``check``
validates the result afterwards with the independent checks.  Every call
goes through a module attribute (``radial.verify_radial_coloring``), so the
traced run sees it once ``tracing.instrument`` has rebound that name.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import annulus_chroma.cli as cli
import annulus_chroma.gadgets as gadgets
import annulus_chroma.geometry as geometry
import annulus_chroma.radial as radial
import annulus_chroma.svg as svg
import annulus_chroma.udg as udg

from perfbench import checks, gen
from perfbench.checks import require

SUBCOMMANDS = ("chi-radial", "table", "construct", "verify", "embed", "solve")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    inputs: object = None  # kept in the results file when the check fails


@dataclass
class Inputs:
    """What a workload's set-up produced: one pass of operations, and a way to describe its inputs.

    ``properties`` is called after the measurement, so recording the input
    properties costs no set-up time.
    """

    ops: list[Op]
    properties: Callable[[], dict]


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else list(values) * 3


def _spindle_share(rs) -> float:
    return sum(r > gen.SPINDLE_T for r in rs) / len(rs)


# ---------------------------------------------------------------------- cli


class CliRunner:
    """Runs ``python -m annulus_chroma.cli`` against the checkout's own sources."""

    def __init__(self, root: Path, tmp: Path):
        self.root, self.tmp = root, tmp
        self.env = {k: v for k, v in os.environ.items() if k != cli.TOLERANCE_ENV}
        self.env["PYTHONPATH"] = str(root / "src")

    def python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)


def _argv(entry: dict) -> list[str]:
    sub, fmt = entry["sub"], entry["format"]
    argv = [sub]
    if "path" in entry:
        argv.append(entry["path"])
    if sub == "embed":
        argv += ["--gadget", entry["gadget"]]
    if "r" in entry:
        argv += ["--r", repr(entry["r"])]
    argv += ["--format", fmt]
    if fmt == "svg":
        argv += ["--out", entry["out"]]
    return argv


_EMBEDDERS = {"rod": "embed_rod", "cycle": "embed_odd_cycle", "trirod": "embed_trirod",
              "spindle": "embed_moser_spindle"}
_FLOAT = r"[-+0-9.eE]+"


def _expected(entry: dict):
    """The in-process library result the cli output is compared with (computed once per entry)."""
    if "_expected" not in entry:
        sub = entry["sub"]
        if sub == "chi-radial":
            value = (radial.radial_chromatic_number(entry["r"]), geometry.unit_chord_angle(0.5 + entry["r"]))
        elif sub == "table":
            value = [(t.colors, t.max_r) for t in radial.thresholds()]
        elif sub == "construct":
            value = radial.construct_radial_coloring(entry["r"])
        elif sub == "verify":
            value = radial.verify_radial_coloring(radial.coloring_from_json(entry["file"]))
        elif sub == "embed":
            value = getattr(gadgets, _EMBEDDERS[entry["gadget"]])(entry["r"])
        else:
            value = udg.chromatic_number_exact(udg.graph_from_json(entry["file"]))
        entry["_expected"] = value
    return entry["_expected"]


def _fields(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def check_cli_output(entry: dict, code: int, out: str) -> None:
    """Exit code and parsed output against the library result and the independent checks."""
    sub, fmt = entry["sub"], entry["format"]
    expected = _expected(entry)
    if fmt == "svg":
        out = Path(entry["out"]).read_text(encoding="utf-8")
    want_code = 1 if sub == "verify" and not entry["proper"] else 0
    require(code == want_code, f"{sub} exited {code}, expected {want_code}")
    if sub == "chi-radial":
        if fmt == "json":
            d = json.loads(out)
            got = (d["N"], d["theta"])
        else:
            f = _fields(out)
            got = (int(f["N"]), float(f["theta"]))
        require(got == expected, f"chi-radial printed {got}, library gives {expected}")
        require(got[0] == gen.expected_colors(entry["r"]), f"N={got[0]} disagrees with the threshold table")
    elif sub == "table":
        if fmt == "json":
            got = [(row["colors"], row["max_r"]) for row in json.loads(out)]
            require(got == expected, "table json differs from thresholds()")
        else:
            got = [(int(c), float(m)) for c, m, *_ in (line.split() for line in out.splitlines()[1:])]
            require([c for c, _ in got] == [c for c, _ in expected], "table colours differ")
            require(all(abs(m - e) <= 1e-15 for (_, m), (_, e) in zip(got, expected)), "table max_r differs")
        require(all(abs(m - t) <= 1e-15 for (_, m), t in zip(got, gen.THRESHOLDS)), "table disagrees with the closed forms")
    elif sub == "construct":
        if fmt == "json":
            require(json.loads(out) == radial.coloring_to_json(expected), "construct json differs from the library")
        else:
            require(out == svg.render_radial_coloring(expected), "construct svg differs from the library")
        used = set(expected.sector_colors) | set(expected.boundary_colors)
        require(len(used) == gen.expected_colors(entry["r"]), f"construction uses {len(used)} colours")
    elif sub == "verify":
        if fmt == "json":
            d = json.loads(out)
            proper = d["proper"]
            claim = None if proper else (d["color"], d["pieces"], [tuple(p) for p in d["witness"]])
        else:
            proper = out.strip() == "proper"
            claim = None
            if not proper:
                f = _fields(out)
                nums = [float(x) for x in re.findall(_FLOAT, f["witness"])]
                claim = (int(f["color"]), f["pieces"].split("; "), [tuple(nums[:2]), tuple(nums[2:])])
        require(proper == entry["proper"] == expected.proper, f"verify said proper={proper}")
        if claim:
            require(claim[0] == expected.color and tuple(claim[1]) == expected.piece_labels
                    and tuple(claim[2]) == expected.witness, "verify witness differs from the library")
            problem = checks.witness_problem(entry["file"], *claim)
            require(problem is None, f"bad witness: {problem}")
    elif sub == "embed":
        if fmt == "json":
            d = json.loads(out)
            require(d == gadgets.embedding_to_json(expected), "embed json differs from the library")
            checks.check_embedding(d["vertices"], d["edges"], entry["r"], strict=d["kind"] != "odd_cycle")
        elif fmt == "text":
            f = _fields(out)
            got = (f["kind"], int(f["vertices"]), int(f["edges"]), float(f["margin"]))
            want = (expected.kind, len(expected.vertices), len(expected.edges), expected.margin)
            require(got == want, f"embed text {got} differs from the library {want}")
        else:
            require(out == svg.render_embedding(expected, geometry.Annulus(entry["r"])), "embed svg differs")
    else:
        if fmt == "json":
            d = json.loads(out)
            chi, assignment = d["chi"], tuple(d["assignment"])
        else:
            f = _fields(out)
            chi, assignment = int(f["chi"]), tuple(int(c) for c in f["assignment"].split(","))
        require((chi, assignment) == expected, "solve output differs from the library")
        n, edges = checks.edges_of(entry["file"])
        checks.check_chromatic(n, edges, chi, assignment, entry.get("known"))


def cli_main_op(entry: dict) -> Op:
    """In-process ``cli.main(argv)`` with stdout captured."""
    argv = _argv(entry)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue()

    return Op("cli.main." + entry["sub"], run, lambda res: check_cli_output(entry, *res), entry)


def cli_entries(rng: random.Random, tmp: Path) -> list[dict]:
    """One pass of the cli script, with its input files written and its svg outputs named."""
    entries = gen.cli_pass(rng)
    for k, entry in enumerate(entries):
        if "file" in entry:
            entry["path"] = str(tmp / f"cli{k}.json")
            Path(entry["path"]).write_text(json.dumps(entry["file"]), encoding="utf-8")
        if entry["format"] == "svg":
            entry["out"] = str(tmp / f"cli{k}.svg")
    return entries


# ------------------------------------------------------------------- verify

# Per band, 25 proper colorings (100 a pass) and 36 improper ones (144 a pass).
PROPER_SIZES = (0, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 23, 26, 30, 35, 40, 45, 50, 60, 70, 85,
                100, 115, 130)  # 0: the construction itself
# The improper sizes are spread so that each percentile falls inside a band of
# similar inputs, not on a gap between two: 80 of the 144 colorings have fewer
# than 50 boundaries and hold the median, and the 20 of 5000 and more hold the
# 90th percentile.  Around 3000 boundaries the verifier's working set nears the
# size of a shared cache, and its times there moved by up to 0.3 from run to
# run with the other tenants' load, against 0.1 at 5000 and up.
RANDOM_IMPROPER_SIZES = (6, 8, 10, 12, 15, 20, 25, 30, 40, 50, 100, 200, 300, 500, 1000, 2000, 3000,
                         5000, 6000, 7000, 8500, 10000)
RECOLOURED_SIZES = (6, 8, 9, 12, 15, 18, 21, 25, 30, 35, 40, 50, 100, 150)


def verify_op(data: dict, proper: bool) -> Op:
    coloring = radial.coloring_from_json(data)

    def check(v) -> None:
        require(v.proper == proper, f"verdict proper={v.proper}, generator says {proper}")
        if not v.proper:
            problem = checks.witness_problem(data, v.color, v.piece_labels, v.witness)
            require(problem is None, f"bad witness: {problem}")

    return Op("proper" if proper else "improper", lambda: radial.verify_radial_coloring(coloring), check, data)


def verify_colorings(rng: random.Random, proper_sizes=(), random_sizes=(),
                     recoloured_sizes=()) -> list[tuple[dict, bool]]:
    out = []
    for band in range(4):
        for size in proper_sizes:
            out.append((gen.subdivided_proper(rng, gen.band_r(rng, band), size), True))
        for size in random_sizes:
            out.append((gen.random_improper(rng, gen.band_r(rng, band), size), False))
        for size in recoloured_sizes:
            out.append((gen.recoloured_improper(rng, gen.band_r(rng, band), size), False))
    return out


def _verify_inputs(colorings: list[tuple[dict, bool]]) -> Inputs:
    sizes = [len(d["boundaries"]) for d, _ in colorings]
    return Inputs([verify_op(d, p) for d, p in colorings], lambda: {
        "proper_share": sum(p for _, p in colorings) / len(colorings),
        "boundary_count_quartiles": _quartiles(sizes),
    })


def setup_verify_proper(rng: random.Random) -> Inputs:
    return _verify_inputs(verify_colorings(rng, PROPER_SIZES))


def setup_verify_improper(rng: random.Random) -> Inputs:
    return _verify_inputs(verify_colorings(rng, (), RANDOM_IMPROPER_SIZES, RECOLOURED_SIZES))


# -------------------------------------------------------------------- solve


def solve_op(label: str, data: dict, known: int | None) -> Op:
    graph = udg.graph_from_json(data)
    n, edges = checks.edges_of(data)
    return Op(label, lambda: udg.chromatic_number_exact(graph),
              lambda res: checks.check_chromatic(n, edges, res[0], res[1], known), data)


def setup_solve(rng: random.Random) -> Inputs:
    suite = gen.solve_suite(rng)

    def properties() -> dict:
        graphs = [udg.graph_from_json(d) for _, d, _ in suite]
        tight = [len(udg.greedy_clique(g)) == max(udg.greedy_coloring(g)) + 1 for g in graphs]
        return {
            "instances": len(suite),
            "vertex_count_quartiles": _quartiles([g.n for g in graphs]),
            "edge_density_quartiles": _quartiles([2 * len(g.edges) / (g.n * (g.n - 1)) for g in graphs]),
            "share_greedy_clique_equals_greedy_upper": sum(tight) / len(tight),
        }

    return Inputs([solve_op(*item) for item in suite], properties)


# -------------------------------------------------------------------- bands

KNOWN_CHI = {"odd_cycle": 3, "tri_rod": 3, "moser_spindle": 4}
BANDS_UNIFORM = 100


def bands_op(r: float) -> Op:
    """One r through the pipeline: N(r), construct, verify, lower bound, re-solve each certificate."""

    def run():
        n_colors = radial.radial_chromatic_number(r)
        coloring = radial.construct_radial_coloring(r)
        verdict = radial.verify_radial_coloring(coloring)
        bound = gadgets.gadget_lower_bound(r)
        solved = []
        for kind, emb in bound.certificates:
            graph = udg.build_udg(emb.vertices)
            chi = udg.chromatic_number_exact(graph) if graph.n <= udg.MAX_VERTICES else None
            solved.append((kind, emb, graph, chi))
        return n_colors, coloring, verdict, bound, solved

    def check(res) -> None:
        n_colors, coloring, verdict, bound, solved = res
        require(n_colors == gen.expected_colors(r), f"N({r!r})={n_colors}")
        used = set(coloring.sector_colors) | set(coloring.boundary_colors)
        require(len(used) == n_colors, f"construction uses {len(used)} colours")
        require(verdict.proper, "construction verified improper")
        kinds = ["odd_cycle"] + ["tri_rod"] * (r > gen.TRI_ROD_T) + ["moser_spindle"] * (r > gen.SPINDLE_T)
        require([k for k, _ in bound.certificates] == kinds, f"certificates {bound.certificates}")
        require(bound.bound == (4 if r > gen.TRI_ROD_T else 3), f"lower bound {bound.bound}")
        for kind, emb, graph, chi in solved:
            checks.check_embedding(emb.vertices, emb.edges, r, strict=kind != "odd_cycle")
            n, edges = checks.edges_of({"points": emb.vertices, "tolerance": 1e-9})
            require(list(graph.edges) == edges == list(emb.edges), f"{kind}: unit pairs differ from its edges")
            if chi is None:
                checks.check_odd_cycle(n, edges)
            else:
                checks.check_chromatic(n, edges, chi[0], chi[1], KNOWN_CHI[kind])

    return Op("spindle" if r > gen.SPINDLE_T else "other", run, check, r)


def setup_bands(rng: random.Random) -> Inputs:
    rs = gen.special_rs() + gen.stratified_rs(rng, BANDS_UNIFORM)
    return Inputs([bands_op(r) for r in rs], lambda: {
        "r_per_pass": len(rs),
        "share_r_above_spindle_threshold": _spindle_share(rs),
    })


SETUPS = {"verify_proper": setup_verify_proper, "verify_improper": setup_verify_improper,
          "solve": setup_solve, "bands": setup_bands}


# --------------------------------------------------------------- layer tour


def tour_ops(rng: random.Random, runner: CliRunner) -> list[Op]:
    """Small inputs from every layer, so every layer reports on every workload's traced run.

    The cli layer is measured here: bare interpreter starts, imports of the
    package, and in-process ``cli.main`` over one pass of the seeded cli
    script.  M6 (about 10 s) is solved here once, the only place it runs.
    """
    probes = 3
    ops = [Op("cli.interp", lambda: runner.python("-c", "pass"), _exit_zero) for _ in range(probes)]
    ops += [Op("cli.import", lambda: runner.python("-c", "import annulus_chroma.cli"), _exit_zero)
            for _ in range(probes)]
    ops += [cli_main_op(e) for e in cli_entries(rng, runner.tmp)]
    r = gen.band_r(rng, 2)
    ops.append(Op("render", lambda: (svg.render_radial_coloring(radial.construct_radial_coloring(r)),
                                     svg.render_embedding(gadgets.embed_trirod(r), geometry.Annulus(r))),
                  lambda res: require(all(s.startswith("<?xml") for s in res), "render output")))
    ops += [verify_op(d, p) for d, p in verify_colorings(rng, (40,), (200,), (20,))]
    ops += [bands_op(x) for x in (gen.band_r(rng, 1), gen.spindle_r(rng))]
    ops += [solve_op(label, d, known) for label, d, known in
            [("C7", gen.odd_cycle(7), 3), ("spindle", gen.spindle_points(rng), 4),
             ("M4", gen.mycielski(4), 4), ("M5", gen.mycielski(5), 5), ("G(10,0.5)", gen.gnp(rng, 10, 0.5), None),
             ("M6", gen.mycielski(6), 6)]]
    return ops


def _exit_zero(proc) -> None:
    require(proc.returncode == 0, f"python exited {proc.returncode}: {proc.stderr[-200:]}")
