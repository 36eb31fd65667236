"""In-memory spans around the package's public functions, for the traced run.

``instrument(tracer)`` rebinds public names in the package's module
namespaces (and in ``cli``, which imports them by name) to timing wrappers,
and restores them on exit.  A span records its name, start, end, parent,
operation id and attributes.  The hot ``contains_unit_pair`` calls are
aggregated per class instead of kept as spans.

Work a wrapper does after the timed call (classifying a geometry call,
computing solver bounds) is charged to ``overhead`` of every open span and
left out of their durations.
"""

from __future__ import annotations

import array
import contextlib
import time
from dataclasses import dataclass, field

import annulus_chroma.cli as cli
import annulus_chroma.gadgets as gadgets
import annulus_chroma.geometry as geometry
import annulus_chroma.radial as radial
import annulus_chroma.svg as svg
import annulus_chroma.udg as udg

MODULES = (cli, gadgets, geometry, radial, svg, udg)
CUP_CLASSES = ("miss", "interior", "extreme")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    child: float = 0.0  # time covered by child spans and geometry calls
    overhead: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start - self.overhead

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.cup = {c: array.array("d") for c in CUP_CLASSES}
        self.cup_in_verify = 0.0
        self.enabled = True  # off while the benchmark checks results

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self.stack[-1] if self.stack else None
        s = Span(name, 0.0, parent, self.op, attrs=attrs)
        self.spans.append(s)
        self.stack.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                self.spans[parent].child += s.duration

    def charge_overhead(self, seconds: float) -> None:
        for i in self.stack:
            self.spans[i].overhead += seconds

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op,
                 "duration": s.duration, "self": s.self_time, "attrs": s.attrs}
                for s in self.spans
            ],
            "geometry.contains_unit_pair": {
                c: {"calls": len(v), "seconds": sum(v)} for c, v in self.cup.items()
            },
        }


def _cup_class(s1, s2, tolerance: float) -> str:
    di = geometry.sector_distance_interval(s1, s2, tolerance)
    if 1.0 < di.min - tolerance or 1.0 > di.max + tolerance:
        return "miss"
    if di.min + tolerance < 1.0 < di.max - tolerance:
        return "interior"
    return "extreme"


def _traced_cup(tracer: Tracer, fn):
    def wrapper(s1, s2, tolerance=geometry.DEFAULT_TOLERANCE):
        if not tracer.enabled:
            return fn(s1, s2, tolerance)
        t0 = time.perf_counter()
        out = fn(s1, s2, tolerance)
        t1 = time.perf_counter()
        tracer.cup[_cup_class(s1, s2, tolerance)].append(t1 - t0)
        if tracer.stack:
            top = tracer.spans[tracer.stack[-1]]
            top.child += t1 - t0
            if top.name == "radial.verify":
                tracer.cup_in_verify += t1 - t0
        tracer.charge_overhead(time.perf_counter() - t1)
        return out
    return wrapper


def _traced(tracer: Tracer, name: str, fn, before=None, after=None):
    """Span around each call; ``before`` gives attributes, ``after`` adds some from the result."""
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        attrs = before(*args, **kwargs) if before else {}
        with tracer.span(name, **attrs) as s:
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:  # e.g. GadgetInfeasible: kept apart from completed calls
                s.attrs["raised"] = type(exc).__name__
                raise
            if after:
                t0 = time.perf_counter()
                s.attrs.update(after(args, out))
                tracer.charge_overhead(time.perf_counter() - t0)
        return out
    return wrapper


def _solver_bounds(args, out) -> dict:
    graph = args[0]
    clique = len(udg.greedy_clique(graph))
    upper = max(udg.greedy_coloring(graph)) + 1
    chi = out[0]
    return {"n": graph.n, "k_levels": (chi - clique + 1) if chi < upper else (upper - clique),
            "bound_gap": upper - clique}


def _hooks() -> dict:
    """Public function name -> (span name, before, after)."""
    return {
        "main": ("cli.main", lambda argv=None: {"sub": argv[0]}, None),
        "render_radial_coloring": ("svg.render_radial", None, None),
        "render_embedding": ("svg.render_embedding", None, None),
        "verify_radial_coloring": ("radial.verify", lambda c, *a, **k: {"pieces": 2 * c.n}, None),
        "construct_radial_coloring": ("radial.construct", None, None),
        "radial_chromatic_number": ("radial.chromatic_number", None, None),
        "gadget_lower_bound": ("gadgets.lower_bound", lambda r, *a, **k: {"r": r}, None),
        "embed_moser_spindle": ("gadgets.spindle", None, None),
        "embed_odd_cycle": ("gadgets.odd_cycle", None, None),
        "embed_trirod": ("gadgets.trirod", None, None),
        "trirod_rotation_path": ("gadgets.trirod_path", None, None),
        "build_udg": ("udg.build_udg", None, None),
        "chromatic_number_exact": ("udg.solve", None, _solver_bounds),
    }


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the traced public names in every module namespace that holds them."""
    saved = []
    originals = {}
    for name, (span_name, before, after) in _hooks().items():
        home = next(m for m in MODULES if name in vars(m) and getattr(m, name).__module__ == m.__name__)
        fn = getattr(home, name)
        originals[name] = (fn, _traced(tracer, span_name, fn, before, after))
    cup = geometry.contains_unit_pair
    originals["contains_unit_pair"] = (cup, _traced_cup(tracer, cup))
    for module in MODULES:
        for name, (fn, wrapped) in originals.items():
            if vars(module).get(name) is fn:
                saved.append((module, name, fn))
                setattr(module, name, wrapped)
    try:
        yield tracer
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
