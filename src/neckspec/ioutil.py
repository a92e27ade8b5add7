"""Small shared helpers for JSON input and deterministic text output, and
the size limits every grid and mode list are checked against."""

from __future__ import annotations

import json
import math
import os
import tempfile

from .errors import ContractViolation

# the most points one grid may have; a length and step past it ask for an
# astronomically large grid, not a fine one
MAX_GRID_POINTS = 2**31 - 1
# the most modes one mode list may hold, counted before it is built
MAX_MODES = 2**20
# the most values one (modes x grid points) array of glue or q0check may
# hold, checked before it is built: 18x the largest a benchmark workload
# makes (507 x 1792, q0check at h/2)
MAX_GRID_VALUES = 2**24


def read_json_object(path: str) -> dict:
    """The JSON object in a UTF-8 file. Bytes that are not UTF-8, text that
    is not JSON, nesting too deep to parse, a key repeated in any object
    and a top level that is not an object all raise ContractViolation."""

    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ContractViolation(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, object_pairs_hook=unique)
        except (ValueError, RecursionError) as exc:
            raise ContractViolation(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ContractViolation("top level: expected an object")
    return raw


def _require_keys(obj: dict, where: str, required: set[str], optional: set[str]) -> None:
    """Refuse the first key of ``obj`` (sorted) outside ``required`` and
    ``optional``, then the first of ``required`` it lacks."""
    unknown = obj.keys() - required - optional
    if unknown:
        raise ContractViolation(f"{where}: unknown field {sorted(unknown)[0]!r}")
    missing = required - obj.keys()
    if missing:
        raise ContractViolation(f"{where}: missing field {sorted(missing)[0]!r}")


def _is_integer_key(key: str) -> bool:
    """Whether a key is an integer in canonical form ("00", "+1" and "1_0" are not)."""
    try:
        return str(int(key)) == key
    except ValueError:
        return False


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
