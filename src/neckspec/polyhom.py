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

which is independent of the cutoff chi and has a closed form. Here
D_t = -i d/dt and the fiber product conjugates the second argument.

Every zero-mode block is P = M d^k/dt^k with M an integer orthogonal
matrix on the fiber: k = 2 and M = -I for a Laplace block, k = 1 and
M = J for a Dirac block. The kernel, the right inverse and the pairing
all follow from the pair (k, M), so each operation below is one formula
in ``op.order``, ``op.matrix`` and ``op.fiber_dim``.
"""

from __future__ import annotations

import math
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
    """Zero-mode Laplace block nu p - p'' with nu = 0, that is M d^2/dt^2
    with M = -I, on a fiber of n_alpha tangential and n_beta dt-wedge
    components. The operator is the same on both kinds, so only the fiber
    dimension is kept."""

    order = 2

    def __init__(self, n_alpha: int, n_beta: int):
        self.fiber_dim = int(n_alpha) + int(n_beta)
        self.matrix = -np.eye(self.fiber_dim, dtype=int)


class DiracZero:
    """First-order zero-mode block J d/dt on n_pairs of (alpha, beta)
    components, alphas first. J sends (a, b) to (-b, a)."""

    order = 1

    def __init__(self, n_pairs: int):
        self.fiber_dim = 2 * int(n_pairs)
        self.matrix = np.kron([[0, -1], [1, 0]], np.eye(int(n_pairs), dtype=int))


def _slice_section(u: PolyhomSection, sl: slice, dim: int) -> PolyhomSection:
    return PolyhomSection(dim, tuple(c[sl] for c in u.coeffs))


# ---------------------------------------------------------------------------
# symbolic application and inversion


def apply_P(op, u: PolyhomSection) -> PolyhomSection:
    """Apply the zero-mode operator exactly, with no complex scalars
    introduced: q goes to M q^(k), so -q'' for a Laplace block and J q'
    for a Dirac block."""
    out = u.coeffs
    for _ in range(op.order):
        out = _poly_deriv(out)
    return PolyhomSection(op.fiber_dim, tuple(op.matrix @ c for c in out))


def in_kernel(op, u: PolyhomSection) -> bool:
    """Whether P u = 0 holds symbolically, to 1e-12 relative. Both model
    operators are formally self-adjoint, so this is also P* u = 0."""
    return _section_scale(apply_P(op, u)) <= 1e-12 * max(_section_scale(u), 1.0)


def _section_scale(u: PolyhomSection) -> float:
    return max((abs(complex(x)) for c in u.coeffs for x in c.tolist()), default=0.0)


def q_lambda0(op, f: Sequence[np.ndarray]) -> PolyhomSection:
    """Right inverse of P on polynomials, with no kernel part: as
    M^-1 = M^T, the polynomial with coefficient vectors f = (c_0, c_1, ...)
    maps to sum M^T c_j t^(j+k) j!/(j+k)!. Exact in rational arithmetic on
    the coefficients."""
    out = [np.zeros(op.fiber_dim, dtype=object) for _ in range(op.order)]
    for j, c in enumerate(f):
        out.append(_exact_div(op.matrix.T @ c, math.perm(j + op.order, op.order)))
    return PolyhomSection(op.fiber_dim, tuple(out))


def _exact_div(vec: np.ndarray, denom: int) -> np.ndarray:
    return np.array([Fraction(x) / denom if isinstance(x, (Fraction, int)) else x / denom
                     for x in np.asarray(vec).tolist()], dtype=object)


# ---------------------------------------------------------------------------
# the pairing


def pairing_integral(op, u: PolyhomSection, v: PolyhomSection,
                     chi: CutoffFunction | None = None) -> complex:
    """Numerical pairing int <P(D_t)[chi u], v> dt by composite Simpson.

    The integrand is supported on the transition interval of chi, so the
    quadrature runs over [center - 1/2, center + 1/2] in _QUAD_PANELS
    panels. Both sections must lie in the kernel of P; anything else has no
    chi-independent pairing and is refused. M is applied to u's
    coefficients, exactly, and (chi M u)^(k) is summed by Leibniz, highest
    derivative of chi first.
    """
    if chi is None:
        chi = CutoffFunction(0.0)
    if not in_kernel(op, u):
        raise ContractViolation("first section is not annihilated by the operator")
    if not in_kernel(op, v):
        raise ContractViolation("second section is not annihilated by the operator")

    step = 1.0 / _QUAD_PANELS
    t = chi.center - 0.5 + step * np.arange(_QUAD_PANELS + 1)

    chi_derivs = (chi, chi.d1, chi.d2)
    q = tuple(op.matrix @ np.asarray(c, dtype=complex) for c in u.coeffs)
    for i in range(op.order + 1):
        term = (math.comb(op.order, i) * chi_derivs[op.order - i](t)) * _poly_values(
            q, t, op.fiber_dim)
        p_chi_u = term if i == 0 else p_chi_u + term
        q = _poly_deriv(q)

    vv = v.evaluate(t)
    integrand = np.sum(p_chi_u * np.conj(vv), axis=0)

    w = np.ones(_QUAD_PANELS + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex(np.sum(w * integrand) * step / 3.0)


def pairing_closed(op, u: PolyhomSection, v: PolyhomSection) -> complex:
    """Closed form of the pairing of kernel sections u = sum eta_j t^j and
    v = sum eta'_j t^j, of degree below k:

        sum_{i = k-1, ..., 0} (-1)^i <M eta_{k-1-i}, eta'_i>,

    so <eta0, eta1'> - <eta1, eta0'> for a Laplace block and
    <alpha, beta'> - <beta, alpha'> for a Dirac block's constants
    (alpha, beta) and (alpha', beta').
    """
    k = op.order
    if len(u.coeffs) > k or len(v.coeffs) > k:
        raise ContractViolation(f"kernel sections of an order-{k} block have degree below {k}")
    cu, cv = (list(w.coeffs) + [np.zeros(op.fiber_dim)] * (k - len(w.coeffs)) for w in (u, v))
    out = 0j
    for i in reversed(range(k)):
        term = _herm(op.matrix @ cu[k - 1 - i], cv[i])
        out = out - term if i % 2 else out + term
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
    sv = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * np.max(sv, initial=1e-300)))
    return GramResult(matrix=m, rank=rank)


def standard_kernel_basis(op) -> list[PolyhomSection]:
    """Canonical basis of the polynomial kernel: the unit fiber vectors at
    each degree below k, constants first."""
    dim = op.fiber_dim
    eye = np.eye(dim)
    return [PolyhomSection(dim, (*np.zeros((d, dim)), eye[i]))
            for d in range(op.order) for i in range(dim)]
