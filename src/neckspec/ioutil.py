"""Small shared helpers for JSON input and deterministic text output, and
the size limits every grid and mode list are checked against."""

from __future__ import annotations

import json
import math
import os
import tempfile

# the most points one grid may have; a length and step past it ask for an
# astronomically large grid, not a fine one
MAX_GRID_POINTS = 2**31 - 1
# the most modes one mode list may hold, counted before it is built
MAX_MODES = 2**20
# the most values one (modes x grid points) array of glue or q0check may
# hold, checked before it is built: 18x the largest a benchmark workload
# makes (507 x 1792, q0check at h/2)
MAX_GRID_VALUES = 2**24


def read_json_object(path: str, error: type[Exception]) -> dict:
    """The JSON object in a UTF-8 file. Bytes that are not UTF-8, text that
    is not JSON, nesting too deep to parse and a top level that is not an
    object all raise ``error``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise error("top level: expected an object")
    return raw


def format_complex(z: complex) -> str:
    """Canonical complex literal: shortest round-trip parts, explicit sign."""
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}j"


def format_real(x: float) -> str:
    return f"{float(x):.17g}"


def write_text_atomic(path: str, text: str) -> None:
    """Write then rename so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def finite_number(x) -> float | None:
    """x as a float if it is a finite JSON number (bools excluded), else None."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        value = float(x)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None
