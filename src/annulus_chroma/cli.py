"""Command-line interface for annulus colorings, gadgets, and the exact solver.

Exit codes: 0 success; 1 only for a negative verdict (an improper
coloring, an infeasible gadget); 2 for a refused input (a usage or domain
error, an unreadable or malformed file), which never yields a verdict; 3
for a failed self-check or an unexpected exception.  main alone turns an
exception into an exit code: the subcommands raise and never catch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import gadgets
from .gadgets import GadgetInfeasible, embedding_to_json
from .geometry import DEFAULT_TOLERANCE, TWO_PI, Annulus, unit_chord_angle
from .radial import (
    coloring_from_json,
    coloring_to_json,
    construct_radial_coloring,
    radial_chromatic_number,
    thresholds,
    verify_radial_coloring,
)
from .schema import SchemaError, require_tolerance
from .svg import render_embedding, render_radial_coloring
from .udg import _check_solver_size, _read_graph_json, chromatic_number_exact
from . import __version__

TOLERANCE_ENV = "ANNULUS_CHROMA_TOLERANCE"

# --gadget choice -> embedder, looked up in gadgets at call time so that
# rebinding a name there (as tracing does) reaches the CLI too.
EMBEDDERS = {"rod": "embed_rod", "cycle": "embed_odd_cycle", "trirod": "embed_trirod",
             "spindle": "embed_moser_spindle"}

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_tolerance(args) -> float:
    if args.tolerance is not None:
        return require_tolerance(args.tolerance, "--tolerance")
    raw = os.environ.get(TOLERANCE_ENV)
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError(f"{TOLERANCE_ENV} must be a number, got {raw!r}")
    return require_tolerance(value, TOLERANCE_ENV)


def _emit(args, content: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(content if content.endswith("\n") else content + "\n")
    else:
        sys.stdout.write(content if content.endswith("\n") else content + "\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # also bytes not UTF-8, integers past the digit limit, deep nesting
        raise SchemaError(f"{path} is not valid JSON: {exc}")


def cmd_chi_radial(args) -> int:
    n = radial_chromatic_number(args.r)
    theta = unit_chord_angle(0.5 + args.r)
    band = thresholds()[n - 3]
    if args.format == "json":
        _emit(args, json.dumps({
            "r": args.r,
            "N": n,
            "theta": theta,
            "band": {"colors": band.colors, "max_r": band.max_r, "expression": band.expression},
        }, indent=2))
    else:
        _emit(args, "\n".join([
            f"N={n}",
            f"theta={theta!r}",
            f"band: N={band.colors} for r <= {band.max_r!r}  [{band.expression}]",
        ]))
    return EXIT_OK


def cmd_table(args) -> int:
    rows = thresholds()
    if args.format == "json":
        _emit(args, json.dumps(
            [{"colors": t.colors, "max_r": t.max_r, "expression": t.expression} for t in rows],
            indent=2,
        ))
    else:
        lines = ["colors  max_r                  expression"]
        for t in rows:
            lines.append(f"{t.colors:<7d} {t.max_r:<22.15f} {t.expression}")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_construct(args) -> int:
    tolerance = _resolve_tolerance(args)
    coloring = construct_radial_coloring(args.r)
    verdict = verify_radial_coloring(coloring, tolerance)
    if not verdict.proper:
        return _fail(
            f"constructed coloring failed self-verification at r={args.r!r}: "
            f"witness {verdict.witness} in color {verdict.color}",
            EXIT_INTERNAL,
        )
    if args.format == "svg":
        _emit(args, render_radial_coloring(coloring))
    else:
        _emit(args, json.dumps(coloring_to_json(coloring), indent=2))
    return EXIT_OK


def _witness_problem(coloring, verdict, tolerance: float) -> str | None:
    """Why an improper verdict's witness fails a re-check by hypot and atan2 alone, or None.

    Each point's direction must lie within the tolerance of its piece's
    closed arc, from its boundary to the next for a sector and the boundary
    alone for a ray: a sector only a few ulps wide holds no float angle
    strictly inside it.  The rest holds within the tolerance too.
    """
    (px, py), (qx, qy) = verdict.witness
    if abs(math.hypot(px - qx, py - qy) - 1.0) > tolerance:
        return "the points are not 1 apart"
    for label, (x, y) in zip(verdict.piece_labels, verdict.witness):
        kind, _, index = label.partition(" ")
        i = int(index)
        if kind == "sector":
            width, color = coloring.sector_width(i), coloring.sector_colors[i]
        else:
            width, color = 0.0, coloring.boundary_colors[i]
        offset = (math.atan2(y, x) - coloring.boundaries[i]) % TWO_PI
        inside = offset <= width + tolerance or TWO_PI - offset <= tolerance
        if not inside or color != verdict.color:
            return f"the {label} point is outside its piece, or the piece is not color {verdict.color}"
        if abs(math.hypot(x, y) - 0.5) > coloring.annulus.r + tolerance:
            return f"the {label} point is outside the annulus"
    return None


def cmd_verify(args) -> int:
    tolerance = _resolve_tolerance(args)
    coloring = coloring_from_json(_load_json(args.path))
    verdict = verify_radial_coloring(coloring, tolerance)
    if not verdict.proper:
        problem = _witness_problem(coloring, verdict, tolerance)
        if problem is not None:
            return _fail(f"witness {verdict.witness} failed its independent check: {problem}", EXIT_INTERNAL)
    if args.format == "json":
        payload = {"proper": verdict.proper}
        if not verdict.proper:
            payload["color"] = verdict.color
            payload["pieces"] = list(verdict.piece_labels)
            payload["witness"] = [list(verdict.witness[0]), list(verdict.witness[1])]
        _emit(args, json.dumps(payload, indent=2))
    elif verdict.proper:
        _emit(args, "proper")
    else:
        p, q = verdict.witness
        _emit(args, "\n".join([
            "improper",
            f"color={verdict.color}",
            f"pieces={verdict.piece_labels[0]}; {verdict.piece_labels[1]}",
            f"witness=({p[0]!r}, {p[1]!r}) ({q[0]!r}, {q[1]!r})",
        ]))
    return EXIT_OK if verdict.proper else EXIT_NEGATIVE


def cmd_embed(args) -> int:
    annulus = Annulus(args.r)
    embedding = getattr(gadgets, EMBEDDERS[args.gadget])(args.r)
    if args.format == "svg":
        _emit(args, render_embedding(embedding, annulus))
    elif args.format == "text":
        lines = [
            f"kind={embedding.kind}",
            f"vertices={len(embedding.vertices)}",
            f"edges={len(embedding.edges)}",
            f"margin={embedding.margin!r}",
        ]
        for key, value in sorted(embedding_to_json(embedding)["params"].items()):
            lines.append(f"param {key}={value!r}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, json.dumps(embedding_to_json(embedding), indent=2))
    return EXIT_OK


def cmd_solve(args) -> int:
    n, build = _read_graph_json(_load_json(args.path))
    _check_solver_size(n)  # before building: build_udg is quadratic in the points
    chi, assignment = chromatic_number_exact(build())
    if args.format == "json":
        _emit(args, json.dumps({"chi": chi, "assignment": list(assignment)}, indent=2))
    else:
        _emit(args, "\n".join([
            f"chi={chi}",
            "assignment=" + ",".join(str(c) for c in assignment),
        ]))
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...], default_format: str) -> None:
    parser.add_argument("--format", choices=formats, default=default_format,
                        help=f"output format (default: {default_format})")
    parser.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


def _add_tolerance(parser: argparse.ArgumentParser) -> None:
    """Only the subcommands that read a tolerance take the flag, so elsewhere it is a usage error."""
    parser.add_argument("--tolerance", type=float, default=None,
                        help=f"geometric tolerance (default 1e-9, or ${TOLERANCE_ENV})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annulus-chroma",
        description="Chromatic numbers of annuli under the unit-distance constraint.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    chi = sub.add_parser("chi-radial", help="radial chromatic number at half-width r")
    chi.add_argument("--r", type=float, required=True, help="annulus half-width, 0 < r < 1/2")
    _add_common(chi, ("text", "json"), "text")
    chi.set_defaults(func=cmd_chi_radial)

    table = sub.add_parser("table", help="threshold table of the radial chromatic number")
    _add_common(table, ("text", "json"), "text")
    table.set_defaults(func=cmd_table)

    construct = sub.add_parser("construct", help="build a proper radial coloring")
    construct.add_argument("--r", type=float, required=True, help="annulus half-width, 0 < r < 1/2")
    _add_common(construct, ("json", "svg"), "json")
    _add_tolerance(construct)
    construct.set_defaults(func=cmd_construct)

    verify = sub.add_parser("verify", help="verify a radial coloring JSON file")
    verify.add_argument("path", help="path to a RadialColoring JSON document")
    _add_common(verify, ("text", "json"), "text")
    _add_tolerance(verify)
    verify.set_defaults(func=cmd_verify)

    embed = sub.add_parser("embed", help="embed a gadget into the annulus")
    embed.add_argument("--gadget", choices=tuple(EMBEDDERS), required=True)
    embed.add_argument("--r", type=float, required=True, help="annulus half-width, 0 < r < 1/2")
    _add_common(embed, ("json", "svg", "text"), "json")
    embed.set_defaults(func=cmd_embed)

    solve = sub.add_parser("solve", help="exact chromatic number of a graph JSON file")
    solve.add_argument("path", help="path to a graph JSON document")
    _add_common(solve, ("text", "json"), "text")
    solve.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except GadgetInfeasible as exc:  # a ValueError, but a negative verdict
        print(f"infeasible: {exc}", file=sys.stderr)
        print(f"threshold={exc.threshold!r}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ValueError, OSError) as exc:  # SchemaError is a ValueError
        return _fail(str(exc), EXIT_USAGE)
    except Exception as exc:
        sys.__excepthook__(type(exc), exc, exc.__traceback__)  # the traceback, without importing traceback
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
