"""Strict JSON schema helpers shared by the serializable types.

Validation errors carry the position of the offending value (dotted path
with list indices) so malformed documents are diagnosable.  An edge or
coloring list is checked by the constructor that stores it; the loaders
check it element by element here only when the constructor refuses it, to
name the first bad element.  A point list is checked here, by
require_points, so solve can refuse it for size before build_udg.
"""

from __future__ import annotations

import contextlib
import math
from itertools import chain
from typing import Iterable

# Widest geometric tolerance accepted from outside the program: beyond it a
# "unit distance" could be off by more than any rounding error explains.
MAX_TOLERANCE = 1e-3


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
    """A finite geometric tolerance with 0 < tolerance <= MAX_TOLERANCE."""
    value = require_number(value, where)
    if not 0.0 < value <= MAX_TOLERANCE:
        raise SchemaError(f"{where}: tolerance must be positive and at most {MAX_TOLERANCE}, got {value}")
    return value


def require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


def require_points(value, where: str) -> list[tuple[float, float]]:
    """A list of [x, y] points, as float pairs; errors name the first bad point like require_point.

    Only a list that a bulk pass over exact types refuses is checked point by point.
    """
    points = require_list(value, where)
    if set(map(type, points)) <= {list} and set(map(len, points)) <= {2}:
        flat = list(chain.from_iterable(points))
        if set(map(type, flat)) <= {float, int}:
            with contextlib.suppress(OverflowError):  # the per-point checks name the first integer too large
                flat = list(map(float, flat))
                if all(map(math.isfinite, flat)):
                    return list(zip(flat[::2], flat[1::2]))
    return [require_point(p, f"{where}[{i}]") for i, p in enumerate(points)]


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
