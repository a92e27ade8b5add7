"""Small shared helpers for JSON input and deterministic text output, and
the size limit every grid is checked against."""

from __future__ import annotations

import math
import os
import tempfile

# the most points one grid may have; a length and step past it ask for an
# astronomically large grid, not a fine one
MAX_GRID_POINTS = 2**31 - 1


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
