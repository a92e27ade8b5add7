"""Polynomial sections of the zero-mode operators and the boundary pairing
between them.

Every mode operator on the cylinder has 0 as its only real symbol root: a
Laplace mode has symbol lambda^2 + nu, whose roots are +-i sqrt(nu), or a
double 0 when nu = 0, and a Dirac block exists only at nu = 0. So the
sections that grow at most polynomially are the polynomials q(t) of the
zero modes; sections at any other rate never arise. This module represents
them exactly (coefficients may be Fractions, in which case every identity
below is exact rational arithmetic), applies the zero-mode operators
symbolically, inverts them on polynomials, and evaluates the pairing

    (u, v) = int <P(D_t)[chi u](t), v(t)> dt,

which is independent of the cutoff chi and has closed forms for the
model operators. Here D_t = -i d/dt and the fiber product conjugates
the second argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ContractViolation

# the Simpson panels of pairing_integral across a cutoff's unit transition
_QUAD_PANELS = 1024

# ---------------------------------------------------------------------------
# polynomial helpers; a polynomial is a tuple of fiber vectors (low degree
# first), each a 1-d ndarray of floats, complexes or Fractions


def _vec(x, dim: int) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape != (dim,):
        raise ContractViolation(f"fiber vector has shape {arr.shape}, expected ({dim},)")
    return arr


def _is_zero_vec(v: np.ndarray) -> bool:
    return all(x == 0 for x in v.tolist())


def _poly_trim(coeffs: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    out = list(coeffs)
    while out and _is_zero_vec(out[-1]):
        out.pop()
    return tuple(out)


def _poly_deriv(coeffs: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    return tuple((j + 1) * coeffs[j + 1] for j in range(len(coeffs) - 1))


def _poly_scale(coeffs: Sequence[np.ndarray], factor) -> tuple[np.ndarray, ...]:
    return tuple(factor * c for c in coeffs)


def _poly_values(coeffs: Sequence[np.ndarray], t: np.ndarray, dim: int) -> np.ndarray:
    """Horner evaluation, shape (dim, len(t))."""
    acc = np.zeros((dim, len(t)), dtype=complex)
    for c in reversed(coeffs):
        acc = acc * t + np.asarray(c, dtype=complex)[:, None]
    return acc


# ---------------------------------------------------------------------------
# sections


@dataclass(frozen=True)
class PolyhomSection:
    """Polynomial section q(t) of a zero-mode fiber.

    ``coeffs`` holds the fiber vectors of q, the degree-j vector at index j.
    The constructor checks each vector's shape and trims trailing zero
    vectors, so the zero section has no coefficients.
    """

    fiber_dim: int
    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        coeffs = tuple(_vec(c, self.fiber_dim) for c in self.coeffs)
        object.__setattr__(self, "coeffs", _poly_trim(coeffs))

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Values on a grid, shape (fiber_dim, len(t)), complex."""
        return _poly_values(self.coeffs, np.asarray(t, dtype=float), self.fiber_dim)


def affine_section(a, b) -> PolyhomSection:
    """The section a + t b."""
    a = np.atleast_1d(np.asarray(a))
    return PolyhomSection(len(a), (a, np.atleast_1d(np.asarray(b))))


def dump(u: PolyhomSection) -> str:
    """Canonical text form: one line per power of t."""
    lines = [f"section fiber_dim={u.fiber_dim}"]
    for j, c in enumerate(u.coeffs):
        entries = ", ".join(repr(x) for x in c.tolist())
        lines.append(f"  t^{j}: [{entries}]")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cutoff


@dataclass(frozen=True)
class CutoffFunction:
    """Quintic smoothstep rising 0 to 1 on [center - 1/2, center + 1/2].

    chi(t) + chi(-t) = 1 for the centered cutoff, which is what makes
    crossfades partitions of unity. Two derivatives are available in
    closed form; both vanish at the transition edges.
    """

    center: float = 0.0

    def _x(self, t):
        return np.clip(np.asarray(t, dtype=float) - self.center + 0.5, 0.0, 1.0)

    def __call__(self, t):
        x = self._x(t)
        return x**3 * (10.0 + x * (-15.0 + 6.0 * x))

    def d1(self, t):
        x = self._x(t)
        return 30.0 * x**2 * (1.0 - x) ** 2

    def d2(self, t):
        x = self._x(t)
        return 60.0 * x * (1.0 - x) * (1.0 - 2.0 * x)


# ---------------------------------------------------------------------------
# fiber operators


class LaplaceZero:
    """Zero-mode Laplace block: nu p - p'' with nu = 0, acting diagonally on
    a fiber of n_alpha tangential and n_beta dt-wedge components. The
    operator is the same on both kinds, so only the fiber dimension is kept."""

    kind = "laplace"

    def __init__(self, n_alpha: int, n_beta: int):
        self.fiber_dim = int(n_alpha) + int(n_beta)


class DiracZero:
    """First-order zero-mode block J d/dt on n_pairs of (alpha, beta)
    components, alphas first. J sends (a, b) to (-b, a)."""

    kind = "dirac"

    def __init__(self, n_pairs: int):
        self.n_pairs = int(n_pairs)
        self.fiber_dim = 2 * self.n_pairs
        n = self.n_pairs
        j = np.zeros((2 * n, 2 * n), dtype=int)
        j[:n, n:] = -np.eye(n, dtype=int)
        j[n:, :n] = np.eye(n, dtype=int)
        self.j_matrix = j


def _slice_section(u: PolyhomSection, sl: slice, dim: int) -> PolyhomSection:
    return PolyhomSection(dim, tuple(c[sl] for c in u.coeffs))


# ---------------------------------------------------------------------------
# symbolic application and inversion


def apply_P(op, u: PolyhomSection) -> PolyhomSection:
    """Apply the zero-mode operator exactly, with no complex scalars
    introduced: the Laplace block sends q to -q'' and the Dirac block to J q'.
    """
    if isinstance(op, LaplaceZero):
        out = _poly_scale(_poly_deriv(_poly_deriv(u.coeffs)), -1)
    elif isinstance(op, DiracZero):
        out = tuple(op.j_matrix @ c for c in _poly_deriv(u.coeffs))
    else:
        raise ContractViolation(f"no operator of kind {op.kind!r} acts on polynomial sections")
    return PolyhomSection(op.fiber_dim, out)


def in_kernel(op, u: PolyhomSection) -> bool:
    """Whether P u = 0 holds symbolically, to 1e-12 relative. Both model
    operators are formally self-adjoint, so this is also P* u = 0."""
    return _section_scale(apply_P(op, u)) <= 1e-12 * max(_section_scale(u), 1.0)


def _section_scale(u: PolyhomSection) -> float:
    return max((abs(complex(x)) for c in u.coeffs for x in c.tolist()), default=0.0)


def q_lambda0(op, f) -> PolyhomSection:
    """Right inverse of P on polynomials, with no kernel part.

    Laplace: f = sum c_j t^j maps to -sum c_j t^{j+2} / ((j+1)(j+2)).
    Dirac: u = -J (antiderivative of f with zero constant term).
    Exact in rational arithmetic on the coefficients.
    """
    coeffs = _coerce_poly_section(f, op.fiber_dim).coeffs
    if isinstance(op, LaplaceZero):
        out = [np.zeros(op.fiber_dim, dtype=object), np.zeros(op.fiber_dim, dtype=object)]
        for j, c in enumerate(coeffs):
            out.append(_exact_div(c, -((j + 1) * (j + 2))))
        return PolyhomSection(op.fiber_dim, tuple(out))
    if isinstance(op, DiracZero):
        out = [np.zeros(op.fiber_dim, dtype=object)]
        for j, c in enumerate(coeffs):
            out.append(_exact_div(op.j_matrix @ c, -(j + 1)))
        return PolyhomSection(op.fiber_dim, tuple(out))
    raise ContractViolation(f"no closed right inverse for operator kind {op.kind!r}")


def _exact_div(vec: np.ndarray, denom: int) -> np.ndarray:
    out = []
    for x in np.asarray(vec).tolist():
        if isinstance(x, Fraction) or isinstance(x, int):
            out.append(Fraction(x) / denom)
        else:
            out.append(x / denom)
    return np.array(out, dtype=object)


def _coerce_poly_section(f, dim: int) -> PolyhomSection:
    return f if isinstance(f, PolyhomSection) else PolyhomSection(dim, tuple(f))


# ---------------------------------------------------------------------------
# the pairing


def pairing_integral(op, u: PolyhomSection, v: PolyhomSection,
                     chi: CutoffFunction | None = None) -> complex:
    """Numerical pairing int <P(D_t)[chi u], v> dt by composite Simpson.

    The integrand is supported on the transition interval of chi, so the
    quadrature runs over [center - 1/2, center + 1/2] in _QUAD_PANELS
    panels. Both sections must lie in the kernel of P; anything else has no
    chi-independent pairing and is refused. The integrand is -(chi u)''
    against v for a Laplace block and J (chi u)' against v for a Dirac block.
    """
    if chi is None:
        chi = CutoffFunction(0.0)
    if not in_kernel(op, u):
        raise ContractViolation("first section is not annihilated by the operator")
    if not in_kernel(op, v):
        raise ContractViolation("second section is not annihilated by the operator")

    step = 1.0 / _QUAD_PANELS
    t = chi.center - 0.5 + step * np.arange(_QUAD_PANELS + 1)

    c0 = chi(t)
    c1 = chi.d1(t)
    q = tuple(np.asarray(c, dtype=complex) for c in u.coeffs)
    qv = _poly_values(q, t, op.fiber_dim)
    qv1 = _poly_values(_poly_deriv(q), t, op.fiber_dim)
    if isinstance(op, LaplaceZero):
        qv2 = _poly_values(_poly_deriv(_poly_deriv(q)), t, op.fiber_dim)
        p_chi_u = -(chi.d2(t) * qv + 2.0 * c1 * qv1 + c0 * qv2)
    elif isinstance(op, DiracZero):
        p_chi_u = op.j_matrix @ (c1 * qv + c0 * qv1)
    else:
        raise ContractViolation(f"no pairing integrand for operator kind {op.kind!r}")

    vv = v.evaluate(t)
    integrand = np.sum(p_chi_u * np.conj(vv), axis=0)

    w = np.ones(_QUAD_PANELS + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex(np.sum(w * integrand) * step / 3.0)


def pairing_closed(op, u: PolyhomSection, v: PolyhomSection) -> complex:
    """Closed form of the pairing for the model operators.

    With u = eta0 + t eta1 and v = eta0' + t eta1' the Laplace pairing is
    <eta0, eta1'> - <eta1, eta0'>; the Dirac pairing of constants
    (alpha, beta) against (alpha', beta') is <alpha, beta'> - <beta, alpha'>.
    """
    if isinstance(op, LaplaceZero):
        cu = _pad_poly(u.coeffs, 2, op.fiber_dim)
        cv = _pad_poly(v.coeffs, 2, op.fiber_dim)
        if len(cu) > 2 or len(cv) > 2:
            raise ContractViolation("Laplace kernel sections have degree at most one")
        return _herm(cu[0], cv[1]) - _herm(cu[1], cv[0])
    if isinstance(op, DiracZero):
        cu = _pad_poly(u.coeffs, 1, op.fiber_dim)
        cv = _pad_poly(v.coeffs, 1, op.fiber_dim)
        if len(cu) > 1 or len(cv) > 1:
            raise ContractViolation("Dirac kernel sections are constant")
        n = op.n_pairs
        au, bu = cu[0][:n], cu[0][n:]
        av, bv = cv[0][:n], cv[0][n:]
        return _herm(au, bv) - _herm(bu, av)
    raise ContractViolation(f"no closed pairing for operator kind {op.kind!r}")


def _pad_poly(coeffs, deg: int, dim: int):
    out = list(coeffs)
    while len(out) < deg:
        out.append(np.zeros(dim))
    return out


def _herm(x: np.ndarray, y: np.ndarray) -> complex:
    return complex(np.sum(np.asarray(x, dtype=complex) * np.conj(np.asarray(y, dtype=complex))))


@dataclass(frozen=True)
class GramResult:
    matrix: np.ndarray
    rank: int

    @property
    def full_rank(self) -> bool:
        return self.rank == min(self.matrix.shape)


def gram_matrix(op, basis_e: Sequence[PolyhomSection], basis_estar: Sequence[PolyhomSection]) -> GramResult:
    """Pairing Gram matrix between two kernel bases, with its numerical rank."""
    m = np.zeros((len(basis_e), len(basis_estar)), dtype=complex)
    for i, u in enumerate(basis_e):
        for j, v in enumerate(basis_estar):
            m[i, j] = pairing_closed(op, u, v)
    if m.size == 0:
        return GramResult(matrix=m, rank=0)
    sv = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1e-300)))
    return GramResult(matrix=m, rank=rank)


def standard_kernel_basis(op) -> list[PolyhomSection]:
    """Canonical basis of the polynomial kernel: constants then linears for
    a Laplace block, fiber constants for a Dirac block."""
    dim = op.fiber_dim
    eye = np.eye(dim)
    if isinstance(op, LaplaceZero):
        consts = [PolyhomSection(dim, (eye[i],)) for i in range(dim)]
        linears = [PolyhomSection(dim, (np.zeros(dim), eye[i])) for i in range(dim)]
        return consts + linears
    if isinstance(op, DiracZero):
        return [PolyhomSection(dim, (eye[i],)) for i in range(dim)]
    raise ContractViolation(f"no canonical kernel basis for operator kind {op.kind!r}")
