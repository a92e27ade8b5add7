"""Cross-section spectra and per-mode operator data.

Separation of variables on a cylinder R x X turns an elliptic operator
into a family of constant-coefficient ordinary differential operators,
one per eigenvalue nu of the form Laplacian on X. This module holds the
spectrum bookkeeping (:class:`CrossSectionSpectrum`), the per-mode
operators (:class:`ModeOperator`) and their symbol roots.

Conventions. D_t = -i d/dt, so the Laplace mode with eigenvalue nu has
symbol P(lambda) = lambda^2 + nu and acts by p -> nu p - p''. The Dirac
zero-mode block acts on (alpha, beta) pairs by J d/dt with
J = [[0, -1], [1, 0]], so its symbol is i lambda J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

from .errors import ContractViolation
from .ioutil import MAX_MODES, _is_integer_key, _require_keys, read_json_object

KIND_LAPLACE = "laplace"
KIND_DIRAC = "dirac"

# eigenvalues closer than this are merged into one multiplicity entry
MERGE_TOL = 1e-12


def _normalize_degree(pairs: Sequence[tuple[float, int]], where: str) -> tuple[tuple[float, int], ...]:
    """Sort by eigenvalue and merge entries closer than MERGE_TOL."""
    items = []
    for k, (nu, mult) in enumerate(pairs):
        nu = float(nu)
        if not math.isfinite(nu) or nu < -MERGE_TOL:
            raise ContractViolation(f"{where}[{k}]: eigenvalue must be finite and >= 0, got {nu!r}")
        if int(mult) != mult or mult < 1:
            raise ContractViolation(f"{where}[{k}]: multiplicity must be a positive integer, got {mult!r}")
        items.append((max(nu, 0.0), int(mult)))
    items.sort(key=lambda p: p[0])
    merged: list[tuple[float, int]] = []
    for nu, mult in items:
        if merged and abs(nu - merged[-1][0]) <= MERGE_TOL * max(1.0, abs(nu)):
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((nu, mult))
    return tuple(merged)


@dataclass(frozen=True)
class CrossSectionSpectrum:
    """Form-Laplacian spectrum of a cross-section, one list per degree.

    ``degrees`` maps the form degree q to a sorted tuple of
    ``(eigenvalue, multiplicity)`` pairs. Only the data needed for the
    mode calculus is kept; the cross-section itself, and the name a
    spectrum file labels it with, never appear.
    """

    dimension: int
    degrees: Mapping[int, tuple[tuple[float, int], ...]]

    def __post_init__(self):
        if self.dimension < 1:
            raise ContractViolation(f"dimension: must be >= 1, got {self.dimension}")
        clean = {}
        for q, pairs in self.degrees.items():
            if not 0 <= int(q) <= self.dimension:
                raise ContractViolation(f"degrees[{q}]: degree outside [0, {self.dimension}]")
            clean[int(q)] = _normalize_degree(pairs, f"degrees[{q}]")
        object.__setattr__(self, "degrees", clean)

    def eigenvalues(self, q: int) -> tuple[tuple[float, int], ...]:
        return self.degrees.get(q, ())

    def betti(self, q: int) -> int:
        """Multiplicity of the zero eigenvalue in degree q."""
        for nu, mult in self.eigenvalues(q):
            if nu <= MERGE_TOL:
                return mult
        return 0


@dataclass(frozen=True)
class ModeOperator:
    """One separated mode: a Laplace operator -d^2/dt^2 + nu acting on the
    coefficient of a fixed eigenform (degree_tag records whether that form
    enters as a tangential alpha or a dt-wedge beta), or a first-order
    Dirac block coupling an (alpha, beta) pair of harmonic forms."""

    kind: Literal["laplace", "dirac"]
    nu: float
    degree_tag: Literal["alpha", "beta"]

    def __post_init__(self):
        if self.kind not in (KIND_LAPLACE, KIND_DIRAC):
            raise ContractViolation(f"unknown operator kind {self.kind!r}")
        if self.nu < 0:
            raise ContractViolation(f"mode eigenvalue must be >= 0, got {self.nu}")
        if self.kind == KIND_DIRAC and self.nu != 0:
            raise ContractViolation("Dirac blocks exist only for harmonic (nu = 0) pairs")

    @property
    def is_zero_mode(self) -> bool:
        return self.nu <= MERGE_TOL


def circle_spectrum() -> CrossSectionSpectrum:
    """Spectrum of the circle of circumference 2 pi.

    Functions and one-forms share the eigenvalue list: 0 once and k^2
    twice for k = 1 .. 8.
    """
    pairs = [(0.0, 1)] + [(float(k * k), 2) for k in range(1, 9)]
    return CrossSectionSpectrum(dimension=1, degrees={0: tuple(pairs), 1: tuple(pairs)})


def scalar_spectrum(pairs: Sequence[tuple[float, int]] = ((0.0, 1),)) -> CrossSectionSpectrum:
    """Spectrum carrying modes in degree 0 only.

    This is the scalar (function) model: degree 0 holds the listed
    eigenvalues and no other degree contributes, so q = 0 mode lists
    consist of alpha modes alone.
    """
    return CrossSectionSpectrum(dimension=1, degrees={0: tuple(pairs)})


def torus2_spectrum() -> CrossSectionSpectrum:
    """Square two-torus with unit side lengths.

    Scalar eigenvalues are 4 pi^2 (m^2 + n^2) over lattice points with
    |m|, |n| <= 6; the degree-q multiplicity carries the extra
    binomial(2, q) factor from the form bundle.
    """
    counts: dict[float, int] = {}
    for m in range(-6, 7):
        for n in range(-6, 7):
            nu = 4 * math.pi**2 * (m * m + n * n)
            counts[nu] = counts.get(nu, 0) + 1
    scalar = sorted(counts.items())
    degrees = {
        q: tuple((nu, mult * math.comb(2, q)) for nu, mult in scalar)
        for q in range(3)
    }
    return CrossSectionSpectrum(dimension=2, degrees=degrees)


def load_spectrum(path: str) -> CrossSectionSpectrum:
    """Read a spectrum from a JSON file, strictly.

    The schema is ``{"name", "dimension", "degrees": {"<q>": [[nu, mult],
    ...]}}``; the string ``name`` only labels the file and is not kept.
    Unknown keys are errors, as are malformed entries; error messages name
    the offending field.
    """
    raw = read_json_object(path)
    _require_keys(raw, "top level", {"name", "dimension", "degrees"}, set())
    if not isinstance(raw["name"], str):
        raise ContractViolation("name: expected a string")
    if not isinstance(raw["dimension"], int) or isinstance(raw["dimension"], bool):
        raise ContractViolation("dimension: expected an integer")
    if not isinstance(raw["degrees"], dict):
        raise ContractViolation("degrees: expected an object")

    degrees: dict[int, list[tuple[float, int]]] = {}
    for key, rows in raw["degrees"].items():
        if not _is_integer_key(key):
            raise ContractViolation(f"degrees[{key!r}]: key is not an integer")
        if not isinstance(rows, list):
            raise ContractViolation(f"degrees[{key!r}]: expected a list of [nu, mult] pairs")
        pairs = []
        for k, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == 2):
                raise ContractViolation(f"degrees[{key!r}][{k}]: expected a [nu, mult] pair")
            nu, mult = row
            if not isinstance(nu, (int, float)) or isinstance(nu, bool):
                raise ContractViolation(f"degrees[{key!r}][{k}][0]: eigenvalue is not a number")
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise ContractViolation(f"degrees[{key!r}][{k}][1]: multiplicity is not an integer")
            pairs.append((float(nu), mult))
        degrees[int(key)] = pairs

    return CrossSectionSpectrum(dimension=raw["dimension"], degrees=degrees)


def _kept_eigenvalues(spec: CrossSectionSpectrum, q: int, cutoff: float):
    return [(nu, mult, tag) for tag, deg in (("alpha", q), ("beta", q - 1))
            for nu, mult in spec.eigenvalues(deg) if nu <= cutoff]


def mode_count(spec: CrossSectionSpectrum, q: int, cutoff: float) -> int:
    """The number of modes ``mode_list`` holds, summed from the
    multiplicities without building any; more than MAX_MODES is refused."""
    count = sum(mult for _, mult, _ in _kept_eigenvalues(spec, q, cutoff))
    if count > MAX_MODES:
        raise ContractViolation(
            f"degree {q}: the spectrum has {count} modes, more than MAX_MODES = {MAX_MODES}"
        )
    return count


def mode_list(spec: CrossSectionSpectrum, q: int, cutoff: float) -> list[ModeOperator]:
    """Laplace modes of degree q below the cutoff.

    Degree-q eigenforms enter tangentially (alpha), degree q-1 forms enter
    wedged with dt (beta); each eigenvalue is repeated per multiplicity,
    as one shared instance, since a ModeOperator is frozen. More than
    MAX_MODES modes are refused before any is built.
    """
    mode_count(spec, q, cutoff)
    modes: list[ModeOperator] = []
    for nu, mult, tag in _kept_eigenvalues(spec, q, cutoff):
        modes += [ModeOperator(KIND_LAPLACE, nu, tag)] * mult
    return modes


def roots_of(op: ModeOperator) -> tuple[tuple[complex, int], ...]:
    """(root, order) pairs of the mode symbol. The only real root is 0:
    lambda^2 + nu has real roots only at nu = 0, and a Dirac block exists
    only there."""
    if op.kind == KIND_DIRAC:
        return ((0j, 1),)
    if op.nu <= MERGE_TOL:
        return ((0j, 2),)
    r = math.sqrt(op.nu)
    return ((1j * r, 1), (-1j * r, 1))
