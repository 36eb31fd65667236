"""Chromatic numbers of annuli under the unit-distance constraint.

Exact geometry for distances between annular sectors, radial colorings and
their chromatic formula, embeddable lower-bound gadgets (rod, odd cycle,
tri-rod, Moser spindle), and an exact chromatic-number solver for small
graphs.

The public API is the README's Library import block; everything else is
reached through its module.
"""

__version__ = "0.1.0"

from .geometry import AnnularSector, Annulus, contains_unit_pair, sector_distance_interval
from .radial import (
    RadialColoring,
    coloring_from_json,
    coloring_to_json,
    construct_radial_coloring,
    radial_chromatic_number,
    thresholds,
    verify_radial_coloring,
)
from .gadgets import (
    GadgetInfeasible,
    embed_moser_spindle,
    embed_odd_cycle,
    embed_rod,
    embed_trirod,
    embedding_to_json,
    gadget_lower_bound,
)
from .schema import SchemaError
from .udg import build_udg, chromatic_number_exact, graph_from_json

__all__ = [
    "AnnularSector",
    "Annulus",
    "GadgetInfeasible",
    "RadialColoring",
    "SchemaError",
    "build_udg",
    "chromatic_number_exact",
    "coloring_from_json",
    "coloring_to_json",
    "construct_radial_coloring",
    "contains_unit_pair",
    "embed_moser_spindle",
    "embed_odd_cycle",
    "embed_rod",
    "embed_trirod",
    "embedding_to_json",
    "gadget_lower_bound",
    "graph_from_json",
    "radial_chromatic_number",
    "sector_distance_interval",
    "thresholds",
    "verify_radial_coloring",
]
