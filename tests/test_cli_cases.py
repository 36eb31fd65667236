"""End-to-end CLI cases, each run in a subprocess as a user runs the command.

Every row gives the arguments, the input document, the expected exit code
(0 proper or solved, 1 a negative verdict, 2 a refused input) and lines
that must appear on stdout and stderr.  Exit 1 must also come with its
verdict: ``improper`` on stdout or ``infeasible:`` on stderr.  By default a
row runs through ``python -m annulus_chroma.cli`` on this checkout's
``src``; with ANNULUS_CHROMA_CLI set (say to ``annulus-chroma``), the table
runs that command instead, such as an installed console script:

    ANNULUS_CHROMA_CLI=annulus-chroma python -m pytest -q tests/test_cli_cases.py
"""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
DOC = "DOC"  # stands in an argv for the input document's path


@dataclass(frozen=True)
class Written:
    """The document a CLI run writes with --out; with points, the graph {"points": ...} of its vertices."""

    argv: tuple[str, ...]
    points: bool = False


@dataclass(frozen=True)
class Case:
    """One CLI run: each expected line is matched whole, where * stands for any text.

    A str document is written as it is, for text json.dumps cannot write.
    """

    id: str
    argv: tuple[str, ...]
    document: dict | str | Written | None = None
    code: int = 0
    stdout: tuple[str, ...] = ()
    stderr: tuple[str, ...] = ()


def _cycle(n: int) -> dict:
    return {"n": n, "edges": [[i, (i + 1) % n] for i in range(n)]}


DEEP = "[" * 100_000 + "]" * 100_000
# chi 3, clique [1, 2], and 4 colors in the greedy coloring.
BELOW_GREEDY = {"n": 7, "edges": [[0, 1], [0, 3], [1, 2], [1, 3], [2, 4], [2, 6], [3, 5], [4, 5], [4, 6], [5, 6]]}

RAYS = {"r": 2.7755575615628914e-17, "boundaries": [0.3966429520069594, 1.0, 3.538235694630649, 4.0],
        "sector_colors": [1, 2, 3, 4], "boundary_colors": [0, 5, 0, 6]}

CASES = [
    # verify: the 1e-15 tolerance floor, proper constructions (r = 1e-17
    # too), a boolean boundary refused, a one-colour conflict printed.
    Case("verify-construction", ("verify", DOC), Written(("construct", "--r", "0.15")), stdout=("proper",)),
    Case("verify-tolerance-below-floor", ("verify", DOC, "--tolerance", "1e-16"), Written(("construct", "--r", "0.15")),
         code=2, stderr=("error: --tolerance: *",)),
    Case("verify-tolerance-at-floor", ("verify", DOC, "--tolerance", "1e-15"), Written(("construct", "--r", "0.15")),
         stdout=("proper",)),
    Case("chi-radial-tiny-r", ("chi-radial", "--r", "1e-17"), stdout=("N=3",)),
    # construct refuses a half-width outside (0, 1/2).
    Case("construct-r-0.7", ("construct", "--r", "0.7"),
         code=2, stderr=("error: annulus half-width must lie strictly in (0, 1/2), got 0.7",)),
    Case("verify-construction-tiny-r", ("verify", DOC), Written(("construct", "--r", "1e-17")), stdout=("proper",)),
    Case("verify-boolean-boundary", ("verify", DOC),
         {"r": 0.1, "boundaries": [0.0, True], "sector_colors": [0, 1], "boundary_colors": [0, 1]},
         code=2, stderr=("*coloring.boundaries[1]*",)),
    Case("verify-one-colour", ("verify", DOC),
         {"r": 0.3, "boundaries": [0.0, 3.0], "sector_colors": [0, 0], "boundary_colors": [0, 0]},
         code=1, stdout=("improper", "color=0", "pieces=*", "witness=*")),
    # 1/2 + r rounds to 1/2: the two rays hold a diameter, the only unit chord.
    Case("verify-rays-diameter-tiny-r", ("verify", DOC),
         {"r": 1e-17, "boundaries": [0.0, math.pi], "sector_colors": [0, 0], "boundary_colors": [0, 0]},
         code=1, stdout=("improper", "witness=*")),
    # Sector 1, one ulp wide, shares color 0 with ray 0: its witness point
    # lies on the sector's end, within the tolerance of its closed arc.
    Case("verify-one-ulp-sector", ("verify", DOC),
         {"r": 0.3, "boundaries": [0.0, 2.0, math.nextafter(2.0, 3.0)], "sector_colors": [1, 0, 2],
          "boundary_colors": [0, 1, 2]},
         code=1, stdout=("improper", "color=0")),
    # Nesting past the parser's recursion limit is refused as malformed JSON.
    Case("verify-deep-json", ("verify", DOC), DEEP, code=2, stderr=("*is not valid JSON*",)),
    # A document that is not a JSON object is refused by name.
    Case("verify-list-document", ("verify", DOC), "[]", code=2,
         stderr=("error: coloring: expected an object, got list",)),
    # Two rays whose chord falls 1.11e-15 short of 1: proper at 1e-15, a
    # conflict at 1e-14.
    Case("verify-rays-at-1e-15", ("verify", DOC, "--tolerance", "1e-15"), RAYS, stdout=("proper",)),
    Case("verify-rays-at-1e-14", ("verify", DOC, "--tolerance", "1e-14"), RAYS, code=1, stdout=("color=0",)),
    # solve: abstract graphs (C101 is past the old 64-vertex cap; C511 and
    # C512 sit at the 512-vertex cap).
    Case("solve-c5", ("solve", DOC), _cycle(5), stdout=("chi=3",)),
    Case("solve-c101", ("solve", DOC), _cycle(101), stdout=("chi=3",)),
    Case("solve-c511", ("solve", DOC), _cycle(511), stdout=("chi=3",)),
    Case("solve-c512", ("solve", DOC), _cycle(512), stdout=("chi=2",)),
    # Level 2 fails and level 3 succeeds, each resumed from the greedy
    # descent.  Beside a 505-cycle, level 3 resumes inside the small graph
    # and recurses about 510 deep, at the 512-vertex cap.
    Case("solve-below-greedy", ("solve", DOC), BELOW_GREEDY, stdout=("chi=3", "assignment=1,0,1,2,0,1,2")),
    Case("solve-below-greedy-at-the-cap", ("solve", DOC),
         {"n": 512, "edges": BELOW_GREEDY["edges"] + [[7 + i, 7 + (i + 1) % 505] for i in range(505)]},
         stdout=("chi=3",)),
    Case("solve-deep-json", ("solve", DOC), DEEP, code=2, stderr=("*is not valid JSON*",)),
    Case("solve-int-document", ("solve", DOC), "5", code=2, stderr=("error: graph: expected an object, got int",)),
    Case("solve-bad-edge", ("solve", DOC), {"n": 3, "edges": [[0, 1], [1, "x"]]},
         code=2, stderr=("*graph.edges[1]*",)),
    # 513 and 10^19 vertices are refused before any graph is built.
    Case("solve-513-vertices", ("solve", DOC), {"n": 513, "edges": [[0, 1]]}, code=2),
    Case("solve-10^19-vertices", ("solve", DOC), {"n": 10**19, "edges": [[0, 1]]},
         code=2, stderr=("*capped at 512*",)),
    # solve: point graphs, from embed's vertices.
    Case("solve-spindle-points", ("solve", DOC), Written(("embed", "--gadget", "spindle", "--r", "0.45"), points=True),
         stdout=("chi=4",)),
    Case("solve-99-cycle-points", ("solve", DOC), Written(("embed", "--gadget", "cycle", "--r", "6.3e-5"), points=True),
         stdout=("chi=3",)),
    Case("solve-bad-coordinate", ("solve", DOC), {"points": [[0.0, 0.0], ["x", 0.0]]},
         code=2, stderr=("*graph.points[1][0]*",)),
    # embed: the 99-cycle's counts, an infeasible tri-rod with its
    # threshold, and the triangle a feasible odd cycle takes.
    Case("embed-99-cycle-text", ("embed", "--gadget", "cycle", "--r", "6.3e-5", "--format", "text"),
         stdout=("vertices=99", "edges=99")),
    Case("embed-infeasible-trirod", ("embed", "--gadget", "trirod", "--r", "0.05"), code=1, stderr=("threshold=*",)),
    Case("embed-triangle-text", ("embed", "--gadget", "cycle", "--r", "0.3", "--format", "text"),
         stdout=("kind=odd_cycle", "vertices=3")),
]


def _run(argv, cwd: Path) -> subprocess.CompletedProcess:
    # The cases expect the default tolerance.
    env = {name: value for name, value in os.environ.items() if name != "ANNULUS_CHROMA_TOLERANCE"}
    command = env.get("ANNULUS_CHROMA_CLI")
    if command:
        prefix = shlex.split(command)
    else:
        prefix = [sys.executable, "-m", "annulus_chroma.cli"]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([*prefix, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def _document(document, path: Path) -> None:
    if isinstance(document, Written):
        proc = _run([*document.argv, "--out", str(path)], path.parent)
        assert proc.returncode == 0, proc.stderr
        if document.points:
            path.write_text(json.dumps({"points": json.loads(path.read_text())["vertices"]}))
    else:
        path.write_text(document if isinstance(document, str) else json.dumps(document))


def _has_line(text: str, pattern: str) -> bool:
    regex = re.compile(".*".join(map(re.escape, pattern.split("*"))))
    return any(regex.fullmatch(line) for line in text.splitlines())


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_cli_case(case, tmp_path):
    path = tmp_path / "doc.json"
    if case.document is not None:
        _document(case.document, path)
    proc = _run([str(path) if a == DOC else a for a in case.argv], tmp_path)
    assert proc.returncode == case.code, proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == 1:
        assert _has_line(proc.stdout, "improper") or _has_line(proc.stderr, "infeasible: *"), (proc.stdout, proc.stderr)
    for pattern in case.stdout:
        assert _has_line(proc.stdout, pattern), (pattern, proc.stdout)
    for pattern in case.stderr:
        assert _has_line(proc.stderr, pattern), (pattern, proc.stderr)
