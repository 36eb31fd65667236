"""Strict JSON schema helpers shared by the serializable types.

Validation errors carry the position of the offending value (dotted path
with list indices) so malformed documents are diagnosable.  An edge or
coloring list is checked by the constructor that stores it, and a point
list by the converter that stores it (udg._float_points); the loaders check
a list element by element here only when that code refuses it, to name the
first bad element.
"""

from __future__ import annotations

import math
from typing import Iterable

# Widest geometric tolerance accepted from outside the program: beyond it a
# "unit distance" could be off by more than any rounding error explains.
MAX_TOLERANCE = 1e-3
# Narrowest one: below it a pair verdict on a gap within an ulp of theta rests
# on the last bit of a rounded distance, and its witness can fail its check.
_MIN_TOLERANCE = 1e-15


class SchemaError(ValueError):
    """A JSON document does not match the expected schema."""


def require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise SchemaError(f"{where}: expected a finite number, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise SchemaError(f"{where}: expected a finite number, got {value}")
    return value


def require_tolerance(value, where: str) -> float:
    """A finite geometric tolerance with 1e-15 <= tolerance <= MAX_TOLERANCE."""
    value = require_number(value, where)
    if not _MIN_TOLERANCE <= value <= MAX_TOLERANCE:
        raise SchemaError(f"{where}: tolerance must be positive, from {_MIN_TOLERANCE} to {MAX_TOLERANCE}, got {value}")
    return value


def require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


def require_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def require_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def require_keys(data, required: Iterable[str], where: str, optional: Iterable[str] = ()) -> dict:
    data = require_dict(data, where)
    required = set(required)
    missing = required - data.keys()
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    unknown = data.keys() - required - set(optional)
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    return data


def require_point(value, where: str) -> tuple[float, float]:
    value = require_list(value, where)
    if len(value) != 2:
        raise SchemaError(f"{where}: expected [x, y], got {len(value)} entries")
    return (require_number(value[0], f"{where}[0]"), require_number(value[1], f"{where}[1]"))


def require_index_pair(value, where: str) -> tuple[int, int]:
    value = require_list(value, where)
    if len(value) != 2:
        raise SchemaError(f"{where}: expected [i, j], got {len(value)} entries")
    return (require_int(value[0], f"{where}[0]"), require_int(value[1], f"{where}[1]"))
