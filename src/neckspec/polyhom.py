"""Polynomial-exponential sections on the cylinder axis and the
boundary pairing between them.

Solutions of a constant-coefficient mode operator that grow at most
polynomially are sums of terms e^{i lambda t} q(t) over real symbol
roots lambda, with q polynomial of degree below the root order. This
module represents such sections exactly (coefficients may be Fractions,
in which case every identity below is exact rational arithmetic),
applies the operator symbolically, inverts it on polynomials, and
evaluates the pairing

    (u, v) = int <P(D_t)[chi u](t), v(t)> dt,

which is independent of the cutoff chi and has closed forms for the
model operators. Here D_t = -i d/dt and the fiber product conjugates
the second argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .errors import ContractViolation

RATE_TOL = 1e-9


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


def _poly_add(a: Sequence[np.ndarray], b: Sequence[np.ndarray], dim: int) -> tuple[np.ndarray, ...]:
    n = max(len(a), len(b))
    out = []
    for j in range(n):
        if j < len(a) and j < len(b):
            out.append(a[j] + b[j])
        elif j < len(a):
            out.append(a[j])
        else:
            out.append(b[j])
    return tuple(out)


def _poly_values(coeffs: Sequence[np.ndarray], t: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Horner evaluation, shape (dim, len(t))."""
    if not coeffs:
        return np.zeros((0 if dim is None else dim, len(t)), dtype=complex)
    dim = len(coeffs[0])
    acc = np.zeros((dim, len(t)), dtype=complex)
    for c in reversed(coeffs):
        acc = acc * t + np.asarray(c, dtype=complex)[:, None]
    return acc


# ---------------------------------------------------------------------------
# sections


@dataclass(frozen=True)
class PolyhomSection:
    """Finite sum of terms e^{i rate t} q(t) with polynomial q.

    ``terms`` maps distinct real rates to coefficient tuples (degree-j
    fiber vector at index j). Trailing zero coefficients are trimmed on
    construction and exact duplicates of a rate are merged.
    """

    fiber_dim: int
    terms: tuple[tuple[float, tuple[np.ndarray, ...]], ...]

    def __post_init__(self):
        merged: dict[float, tuple[np.ndarray, ...]] = {}
        for rate, coeffs in self.terms:
            rate = float(rate)
            coeffs = tuple(_vec(c, self.fiber_dim) for c in coeffs)
            if rate in merged:
                merged[rate] = _poly_add(merged[rate], coeffs, self.fiber_dim)
            else:
                merged[rate] = coeffs
        clean = []
        for rate in sorted(merged):
            coeffs = _poly_trim(merged[rate])
            if coeffs:
                clean.append((rate, coeffs))
        rates = [r for r, _ in clean]
        for a, b in zip(rates, rates[1:]):
            if abs(a - b) < RATE_TOL:
                raise ContractViolation(f"rates {a} and {b} are too close to keep separate")
        object.__setattr__(self, "terms", tuple(clean))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def rates(self) -> tuple[float, ...]:
        return tuple(r for r, _ in self.terms)

    def coeffs_at(self, rate: float) -> tuple[np.ndarray, ...]:
        for r, coeffs in self.terms:
            if abs(r - rate) < RATE_TOL:
                return coeffs
        return ()

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Values on a grid, shape (fiber_dim, len(t)), complex."""
        t = np.asarray(t, dtype=float)
        out = np.zeros((self.fiber_dim, len(t)), dtype=complex)
        for rate, coeffs in self.terms:
            vals = _poly_values(coeffs, t)
            if rate != 0.0:
                vals = vals * np.exp(1j * rate * t)[None, :]
            out += vals
        return out

    def shifted(self, s) -> "PolyhomSection":
        """The section t -> u(t + s); exact for Fraction coefficients and
        rational s when the rate is zero."""
        new_terms = []
        for rate, coeffs in self.terms:
            n = len(coeffs)
            out = [None] * n
            for i in range(n):
                acc = None
                for j in range(i, n):
                    term = comb(j, i) * (s ** (j - i)) * coeffs[j]
                    acc = term if acc is None else acc + term
                out[i] = acc
            if rate != 0.0:
                out = [np.exp(1j * rate * s) * c for c in out]
            new_terms.append((rate, tuple(out)))
        return PolyhomSection(self.fiber_dim, tuple(new_terms))

    def __add__(self, other: "PolyhomSection") -> "PolyhomSection":
        if self.fiber_dim != other.fiber_dim:
            raise ContractViolation("fiber dimensions differ")
        return PolyhomSection(self.fiber_dim, self.terms + other.terms)


def affine_section(a, b=None) -> PolyhomSection:
    """The rate-zero section a + t b."""
    a = np.atleast_1d(np.asarray(a))
    coeffs = [a]
    if b is not None:
        coeffs.append(np.atleast_1d(np.asarray(b)))
    return PolyhomSection(len(a), ((0.0, tuple(coeffs)),))


def dump(u: PolyhomSection) -> str:
    """Canonical text form: one block per rate, one line per power of t."""
    lines = [f"section fiber_dim={u.fiber_dim}"]
    for rate, coeffs in u.terms:
        lines.append(f"rate {rate!r}")
        for j, c in enumerate(coeffs):
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
    a fiber of n_alpha tangential and n_beta dt-wedge components."""

    kind = "laplace"
    order = 2

    def __init__(self, n_alpha: int, n_beta: int):
        self.n_alpha = int(n_alpha)
        self.n_beta = int(n_beta)
        self.fiber_dim = self.n_alpha + self.n_beta
        self.real_roots = ((0.0, 2),)

    def taylor(self, rate: float):
        return [complex(rate) ** 2, 2.0 * complex(rate), 1.0 + 0j]

    def taylor_adjoint(self, rate: float):
        return self.taylor(rate)


class DiracZero:
    """First-order zero-mode block J d/dt on n_pairs of (alpha, beta)
    components, alphas first. J sends (a, b) to (-b, a)."""

    kind = "dirac"
    order = 1

    def __init__(self, n_pairs: int):
        self.n_pairs = int(n_pairs)
        self.fiber_dim = 2 * self.n_pairs
        self.real_roots = ((0.0, 1),)
        n = self.n_pairs
        j = np.zeros((2 * n, 2 * n), dtype=int)
        j[:n, n:] = -np.eye(n, dtype=int)
        j[n:, :n] = np.eye(n, dtype=int)
        self.j_matrix = j

    def taylor(self, rate: float):
        return [1j * complex(rate) * self.j_matrix, 1j * self.j_matrix]

    def taylor_adjoint(self, rate: float):
        # (i J)^* = -i J^T = i J, so the block is formally self-adjoint
        return self.taylor(rate)


class SyntheticScalar:
    """Scalar operator with a caller-supplied symbol polynomial; used to
    exercise the generic pairing machinery on root patterns the model
    operators do not produce (for example two distinct real roots)."""

    kind = "synthetic"

    def __init__(self, poly: Sequence[complex], real_roots: Sequence[tuple[float, int]]):
        self.poly = tuple(complex(c) for c in poly)
        self.order = len(self.poly) - 1
        self.fiber_dim = 1
        self.real_roots = tuple((float(r), int(d)) for r, d in real_roots)

    def taylor(self, rate: float):
        out = []
        for n in range(self.order + 1):
            acc = 0j
            for k in range(n, len(self.poly)):
                acc += self.poly[k] * comb(k, n) * complex(rate) ** (k - n)
            out.append(acc)
        return out

    def taylor_adjoint(self, rate: float):
        return [np.conj(c) for c in self.taylor(rate)]


class DirectSumOperator:
    """Componentwise direct sum; sections are concatenated along the fiber."""

    kind = "sum"

    def __init__(self, ops: Sequence):
        self.ops = tuple(ops)
        self.fiber_dim = sum(op.fiber_dim for op in self.ops)
        self.order = max(op.order for op in self.ops)
        roots: dict[float, int] = {}
        for op in self.ops:
            for r, d in op.real_roots:
                roots[r] = max(roots.get(r, 0), d)
        self.real_roots = tuple(sorted(roots.items()))

    def slices(self):
        lo = 0
        for op in self.ops:
            yield op, slice(lo, lo + op.fiber_dim)
            lo += op.fiber_dim


def _slice_section(u: PolyhomSection, sl: slice, dim: int) -> PolyhomSection:
    return PolyhomSection(dim, tuple((r, tuple(c[sl] for c in coeffs)) for r, coeffs in u.terms))


def _concat_sections(parts: Sequence[PolyhomSection], total_dim: int) -> PolyhomSection:
    rates = sorted({r for p in parts for r in p.rates()})
    terms = []
    for rate in rates:
        deg = max((len(p.coeffs_at(rate)) for p in parts), default=0)
        coeffs = []
        for j in range(deg):
            row = []
            for p in parts:
                c = p.coeffs_at(rate)
                row.append(c[j] if j < len(c) else np.zeros(p.fiber_dim))
            coeffs.append(np.concatenate(row))
        terms.append((rate, tuple(coeffs)))
    return PolyhomSection(total_dim, tuple(terms))


# ---------------------------------------------------------------------------
# symbolic application and inversion


def apply_P(op, u: PolyhomSection, adjoint: bool = False) -> PolyhomSection:
    """Apply the mode operator term by term.

    Exact (no complex scalars introduced) for the model operators at rate
    zero: the Laplace block sends q to -q'' and the Dirac block to J q'.
    """
    if isinstance(op, DirectSumOperator):
        parts = [apply_P(sub, _slice_section(u, sl, sub.fiber_dim), adjoint) for sub, sl in op.slices()]
        return _concat_sections(parts, op.fiber_dim)

    out_terms = []
    for rate, coeffs in u.terms:
        if rate == 0.0 and isinstance(op, LaplaceZero):
            out = _poly_scale(_poly_deriv(_poly_deriv(coeffs)), -1)
        elif rate == 0.0 and isinstance(op, DiracZero):
            out = tuple(op.j_matrix @ c for c in _poly_deriv(coeffs))
        else:
            taylor = op.taylor_adjoint(rate) if adjoint else op.taylor(rate)
            dim = op.fiber_dim
            out = ()
            q = tuple(np.asarray(c, dtype=complex) for c in coeffs)
            for n, coeff in enumerate(taylor):
                if np.all(np.asarray(coeff) == 0):
                    q = _poly_deriv(q) if n < len(taylor) - 1 else q
                    continue
                dt_n = _poly_scale(q, (-1j) ** n)
                applied = tuple(_coeff_apply(coeff, c) for c in dt_n)
                out = _poly_add(out, applied, dim)
                if n < len(taylor) - 1:
                    q = _poly_deriv(q)
        out_terms.append((rate, out))
    return PolyhomSection(op.fiber_dim, tuple(out_terms))


def _coeff_apply(coeff, vec: np.ndarray) -> np.ndarray:
    c = np.asarray(coeff)
    if c.ndim == 0:
        return c[()] * vec
    return c @ np.asarray(vec, dtype=complex)


def in_kernel(op, u: PolyhomSection, adjoint: bool = False) -> bool:
    """Whether P u = 0 (or P* u = 0) holds symbolically, to 1e-12 relative.

    Also requires every rate of u to be a real root of the symbol; a
    section at a non-root rate cannot be annihilated unless it vanishes.
    """
    roots = {r for r, _ in op.real_roots}
    for rate, _ in u.terms:
        if not any(abs(rate - r) <= RATE_TOL for r in roots):
            return False
    res = apply_P(op, u, adjoint=adjoint)
    scale = _section_scale(u)
    return _section_scale(res) <= 1e-12 * max(scale, 1.0)


def _section_scale(u: PolyhomSection) -> float:
    best = 0.0
    for _, coeffs in u.terms:
        for c in coeffs:
            for x in c.tolist():
                best = max(best, abs(complex(x)))
    return best


def q_lambda0(op, f) -> PolyhomSection:
    """Right inverse of P on rate-zero polynomials, with no kernel part.

    Laplace: f = sum c_j t^j maps to -sum c_j t^{j+2} / ((j+1)(j+2)).
    Dirac: u = -J (antiderivative of f with zero constant term).
    Exact in rational arithmetic on the coefficients.
    """
    if isinstance(op, DirectSumOperator):
        f = _coerce_poly_section(f, op.fiber_dim)
        parts = [q_lambda0(sub, _slice_section(f, sl, sub.fiber_dim)) for sub, sl in op.slices()]
        return _concat_sections(parts, op.fiber_dim)

    f = _coerce_poly_section(f, op.fiber_dim)
    coeffs = f.coeffs_at(0.0)
    if f.terms and (len(f.terms) > 1 or abs(f.terms[0][0]) > RATE_TOL):
        raise ContractViolation("the polynomial right inverse is defined at rate zero only")
    if isinstance(op, LaplaceZero):
        out = [np.zeros(op.fiber_dim, dtype=object), np.zeros(op.fiber_dim, dtype=object)]
        for j, c in enumerate(coeffs):
            out.append(_exact_div(c, -((j + 1) * (j + 2))))
        return PolyhomSection(op.fiber_dim, ((0.0, tuple(out)),))
    if isinstance(op, DiracZero):
        out = [np.zeros(op.fiber_dim, dtype=object)]
        for j, c in enumerate(coeffs):
            out.append(_exact_div(op.j_matrix @ c, -(j + 1)))
        return PolyhomSection(op.fiber_dim, ((0.0, tuple(out)),))
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
    if isinstance(f, PolyhomSection):
        return f
    coeffs = tuple(_vec(c, dim) for c in f)
    return PolyhomSection(dim, ((0.0, coeffs),))


# ---------------------------------------------------------------------------
# the pairing


def pairing_integral(op, u: PolyhomSection, v: PolyhomSection, chi: CutoffFunction | None = None,
                     quad_step: float = 1.0 / 256) -> complex:
    """Numerical pairing int <P(D_t)[chi u], v> dt by composite Simpson.

    The integrand is supported on the transition interval of chi, so the
    quadrature runs over [center - 1/2, center + 1/2] with the given step.
    Both sections must lie in the kernel of P; anything else has no
    chi-independent pairing and is refused.
    """
    if chi is None:
        chi = CutoffFunction(0.0)
    if not in_kernel(op, u):
        raise ContractViolation("first section is not annihilated by the operator")
    if not in_kernel(op, v, adjoint=True):
        raise ContractViolation("second section is not annihilated by the adjoint")

    n_step = round(1.0 / quad_step)
    if n_step < 2 or n_step % 2 == 1 or abs(n_step * quad_step - 1.0) > 1e-12:
        raise ContractViolation("quad_step must divide 1 into an even number of panels")
    t = chi.center - 0.5 + quad_step * np.arange(n_step + 1)

    c0 = chi(t)
    c1 = chi.d1(t)
    c2 = chi.d2(t)

    p_chi_u = np.zeros((op.fiber_dim, len(t)), dtype=complex)
    for rate, coeffs in u.terms:
        q = tuple(np.asarray(c, dtype=complex) for c in coeffs)
        qv = _poly_values(q, t, op.fiber_dim)
        qv1 = _poly_values(_poly_deriv(q), t, op.fiber_dim)
        qv2 = _poly_values(_poly_deriv(_poly_deriv(q)), t, op.fiber_dim)
        # Leibniz in D_t = -i d/dt on the product chi * q
        d0 = c0 * qv
        d1 = -1j * (c1 * qv + c0 * qv1)
        d2 = -(c2 * qv + 2.0 * c1 * qv1 + c0 * qv2)
        taylor = op.taylor(rate)
        acc = _coeff_apply_grid(taylor[0], d0)
        if len(taylor) > 1:
            acc = acc + _coeff_apply_grid(taylor[1], d1)
        if len(taylor) > 2:
            acc = acc + _coeff_apply_grid(taylor[2], d2)
        if rate != 0.0:
            acc = acc * np.exp(1j * rate * t)[None, :]
        p_chi_u += acc

    vv = v.evaluate(t)
    integrand = np.sum(p_chi_u * np.conj(vv), axis=0)

    w = np.ones(n_step + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex(np.sum(w * integrand) * quad_step / 3.0)


def _coeff_apply_grid(coeff, grid: np.ndarray) -> np.ndarray:
    c = np.asarray(coeff)
    if c.ndim == 0:
        return c[()] * grid
    return c @ grid


def pairing_closed(op, u: PolyhomSection, v: PolyhomSection) -> complex:
    """Closed form of the pairing for the model operators at rate zero.

    With u = eta0 + t eta1 and v = eta0' + t eta1' the Laplace pairing is
    <eta0, eta1'> - <eta1, eta0'>; the Dirac pairing of constants
    (alpha, beta) against (alpha', beta') is <alpha, beta'> - <beta, alpha'>.
    Components at other rates have no closed form here and are refused.
    """
    if isinstance(op, DirectSumOperator):
        total = 0j
        for sub, sl in op.slices():
            total += pairing_closed(
                sub, _slice_section(u, sl, sub.fiber_dim), _slice_section(v, sl, sub.fiber_dim)
            )
        return total

    for w in (u, v):
        for rate, _ in w.terms:
            if abs(rate) > RATE_TOL:
                raise ContractViolation("closed pairing is only available at the zero rate")

    if isinstance(op, LaplaceZero):
        cu = _pad_poly(u.coeffs_at(0.0), 2, op.fiber_dim)
        cv = _pad_poly(v.coeffs_at(0.0), 2, op.fiber_dim)
        if len(cu) > 2 or len(cv) > 2:
            raise ContractViolation("Laplace kernel sections have degree at most one")
        return _herm(cu[0], cv[1]) - _herm(cu[1], cv[0])
    if isinstance(op, DiracZero):
        cu = _pad_poly(u.coeffs_at(0.0), 1, op.fiber_dim)
        cv = _pad_poly(v.coeffs_at(0.0), 1, op.fiber_dim)
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
    if isinstance(op, DirectSumOperator):
        out = []
        for sub, sl in op.slices():
            for w in standard_kernel_basis(sub):
                out.append(_embed_section(w, op.fiber_dim, sl))
        return out
    dim = op.fiber_dim
    eye = np.eye(dim)
    if isinstance(op, LaplaceZero):
        consts = [PolyhomSection(dim, ((0.0, (eye[i],)),)) for i in range(dim)]
        linears = [PolyhomSection(dim, ((0.0, (np.zeros(dim), eye[i])),)) for i in range(dim)]
        return consts + linears
    if isinstance(op, DiracZero):
        return [PolyhomSection(dim, ((0.0, (eye[i],)),)) for i in range(dim)]
    raise ContractViolation(f"no canonical kernel basis for operator kind {op.kind!r}")


def _embed_section(u: PolyhomSection, dim: int, sl: slice) -> PolyhomSection:
    terms = []
    for rate, coeffs in u.terms:
        rows = []
        for c in coeffs:
            full = np.zeros(dim, dtype=np.asarray(c).dtype if np.asarray(c).dtype != object else object)
            full[sl] = c
            rows.append(full)
        terms.append((rate, tuple(rows)))
    return PolyhomSection(dim, tuple(terms))
