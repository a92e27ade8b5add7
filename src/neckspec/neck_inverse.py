"""Explicit right inverse of the mode operators on a long finite cylinder.

The mode operators separate. Positive modes (nu > 0) are inverted by
convolution with the Green's function G_nu(t) = e^{-sqrt(nu)|t|}/(2 sqrt(nu)),
evaluated by two stable exponential recursions; all positive rows of a
section are marched together, one grid point per step, each row with its
own rate. Zero modes are inverted row by row by moment kernels: the
Laplace zero mode by u(t) = -int_{-inf}^t (t - tau) f, which is also an
exact inverse of the discrete three-point stencil, and the Dirac zero mode
by u = -J int f. Beyond the support the zero-mode solutions are affine;
the asymptotic trace m0 - t m1 is computed from the same moment sums, so
the support law and trace identity hold exactly on the grid. The inverse
works in the section's dtype, so real data stays float64 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .ioutil import MAX_GRID_POINTS
from .polyhom import (
    CutoffFunction,
    DiracZero,
    DirectSumOperator,
    LaplaceZero,
    PolyhomSection,
    _concat_sections,
    pairing_closed,
)
from .rng import SplitMix64
from .spectral_model import KIND_DIRAC, KIND_LAPLACE, ModeOperator


def mode_rows(modes: Sequence[ModeOperator]) -> list[slice]:
    """Row slice of each mode in a stacked value array: one row per Laplace
    mode, two (alpha then beta) per Dirac block."""
    out = []
    lo = 0
    for m in modes:
        width = 2 if m.kind == KIND_DIRAC else 1
        out.append(slice(lo, lo + width))
        lo += width
    return out


def total_rows(modes: Sequence[ModeOperator]) -> int:
    return sum(2 if m.kind == KIND_DIRAC else 1 for m in modes)


def cell_grid(s_max: float, h: float) -> np.ndarray:
    """Cell-centered grid on [-s_max, s_max]: midpoints of 2 s_max / h cells."""
    n = _exact_cells(2 * s_max, h)
    return -s_max + (np.arange(n) + 0.5) * h


def _exact_cells(length: float, h: float) -> int:
    cells = length / h
    if not math.isfinite(cells) or cells > MAX_GRID_POINTS:
        raise ContractViolation(
            f"T or h: a grid of length {length} at step {h} has {cells:.3g} cells, "
            f"more than {MAX_GRID_POINTS}"
        )
    n = round(cells)
    if n < 1 or abs(n * h - length) > 1e-9 * max(1.0, length):
        raise ContractViolation(f"step {h} does not divide interval length {length}")
    return n


@dataclass(frozen=True)
class CompactSection:
    """Per-mode samples on a cell-centered grid, supported in [-support, support].

    ``values`` has one row per Laplace mode and two per Dirac block, in mode
    order; columns follow :func:`cell_grid`.
    """

    modes: tuple[ModeOperator, ...]
    s_max: float
    support: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not 0 < self.support <= self.s_max:
            raise ContractViolation("need 0 < support <= s_max")
        _exact_cells(2 * self.s_max, self.h)
        _exact_cells(2 * self.support, self.h)
        t = cell_grid(self.s_max, self.h)
        vals = np.asarray(self.values)
        vals = vals.astype(np.result_type(vals, float), copy=False)
        if vals.shape != (total_rows(self.modes), len(t)):
            raise ContractViolation(
                f"values shape {vals.shape}, expected ({total_rows(self.modes)}, {len(t)})"
            )
        outside = np.abs(t) > self.support
        if np.any(vals[:, outside] != 0):
            raise ContractViolation("section has samples outside its declared support")
        object.__setattr__(self, "values", vals)

    def grid(self) -> np.ndarray:
        return cell_grid(self.s_max, self.h)

    def norm(self) -> float:
        return math.sqrt(self.h * float(np.sum(np.abs(self.values) ** 2)))


@dataclass(frozen=True)
class NeckSolution:
    """Output of :func:`q0_apply`: regular and singular parts plus the
    polyhomogeneous trace of the singular part beyond the support."""

    modes: tuple[ModeOperator, ...]
    s_max: float
    support: float
    h: float
    regular: np.ndarray
    singular: np.ndarray
    trace_plus: PolyhomSection

    def total(self) -> np.ndarray:
        return self.regular + self.singular

    def grid(self) -> np.ndarray:
        return cell_grid(self.s_max, self.h)


def trace_operator(modes: Sequence[ModeOperator]):
    """Fiber operator of the zero-mode trace space and the value-row index of
    each fiber slot. Returns (None, []) when no zero mode is present."""
    ops = []
    rows: list[int] = []
    slices = mode_rows(modes)
    for m, sl in zip(modes, slices):
        if not m.is_zero_mode:
            continue
        if m.kind == KIND_DIRAC:
            ops.append(DiracZero(1))
            rows.extend([sl.start, sl.start + 1])
        elif m.degree_tag == "beta":
            ops.append(LaplaceZero(0, 1))
            rows.append(sl.start)
        else:
            ops.append(LaplaceZero(1, 0))
            rows.append(sl.start)
    if not ops:
        return None, []
    op = ops[0] if len(ops) == 1 else DirectSumOperator(ops)
    return op, rows


# ---------------------------------------------------------------------------
# Green's function convolution for positive modes


def _panel_weights(a: float, h: float) -> tuple[float, float]:
    """Weights of the two endpoint samples in
    int_0^h e^{-a(h-s)} f(s) ds with f linear between samples."""
    x = a * h
    if x > 1e-3:
        e = math.exp(-x)
        w_near = (x - 1.0 + e) / (a * a * h)
        w_far = (1.0 - e) / a - w_near
    else:
        # series in x avoids the cancellation in (x - 1 + e^{-x})
        w_near = h * (0.5 - x / 6 + x * x / 24 - x**3 / 120)
        w_far = h * (0.5 - x / 3 + x * x / 8 - x**3 / 30)
    return w_far, w_near


def _gnu_convolve(f: np.ndarray, nus: Sequence[float], h: float) -> np.ndarray:
    """Samples of (G_nu * f_lin) for every column of f, column k with nu = nus[k].

    f has shape (n, k): one positive-mode row per column, and f_lin
    interpolates each column linearly. Two sweeps march all columns at once:
    the forward one accumulates e^{-a(t_j - s)} mass from the left, the
    backward one from the right; u = (forward + backward) / (2a). Decay of
    the recursions matches the decay of G_nu exactly, so no periodization or
    overflow appears.
    """
    roots = [math.sqrt(nu) for nu in nus]
    # math.exp per column: np.exp may differ from it in the last bit
    e = np.array([math.exp(-a * h) for a in roots])
    w_prev, w_here = np.array([_panel_weights(a, h) for a in roots]).T
    n = len(f)
    out = np.zeros(f.shape, dtype=np.result_type(f, float))
    for j in range(1, n):
        out[j] = e * out[j - 1] + w_prev * f[j - 1] + w_here * f[j]
    back = np.zeros(f.shape[1], dtype=out.dtype)
    for j in range(n - 2, -1, -1):
        back = e * back + w_prev * f[j + 1] + w_here * f[j]
        out[j] += back
    # numpy divides complex by real as a multiply by the reciprocal; doing that
    # here gives a real out the bits of a complex out's real part
    out *= 1.0 / (2 * np.array(roots))
    return out


# ---------------------------------------------------------------------------
# zero-mode moment kernels


def _laplace_zero_inverse(f: np.ndarray, t: np.ndarray, h: float) -> np.ndarray:
    """u(t_j) = -int_{-inf}^{t_j} (t_j - tau) f(tau) dtau for cell-constant f.

    Exclusive cumulative sums make this an exact inverse of the discrete
    stencil -(u_{j+1} - 2u_j + u_{j-1})/h^2 = f_j, vanishing identically left
    of the support.
    """
    m0 = np.concatenate([[0.0], np.cumsum(f)[:-1]]) * h
    m1 = np.concatenate([[0.0], np.cumsum(t * f)[:-1]]) * h
    return -(t * m0 - m1)


def _cumulative_midpoint(f: np.ndarray, h: float) -> np.ndarray:
    """int_{-inf}^{t_j} f for cell-constant f: full cells below, half at t_j."""
    inclusive = np.cumsum(f) * h
    return inclusive - 0.5 * h * f


def q0_apply(modes: Sequence[ModeOperator], f: CompactSection) -> NeckSolution:
    """Apply the cylinder right inverse.

    Positive modes produce the regular part (one Green's convolution march
    over all their rows); zero modes produce the singular part and its
    affine trace. The grid must extend at least two units past the support
    so the trace identity has room to be checked.
    """
    if f.support > f.s_max - 2:
        raise ContractViolation("need s_max >= support + 2 to expose the trace")
    t = f.grid()
    h = f.h
    slices = mode_rows(f.modes)
    positive = [(sl.start, m.nu) for m, sl in zip(f.modes, slices)
                if m.kind == KIND_LAPLACE and not m.is_zero_mode]
    regular = np.zeros_like(f.values)
    if positive:
        idx = [r for r, _ in positive]
        regular[idx] = _gnu_convolve(f.values.T[:, idx], [nu for _, nu in positive], h).T
    # allocated after the march, whose two (n, rows) buffers are freed by now
    singular = np.zeros_like(f.values)
    trace_terms: list[PolyhomSection] = []
    for m, sl in zip(f.modes, slices):
        if m.kind == KIND_LAPLACE and m.is_zero_mode:
            row = f.values[sl.start]
            singular[sl.start] = _laplace_zero_inverse(row, t, h)
            m1 = h * complex(np.sum(row))
            m0 = h * complex(np.sum(t * row))
            trace_terms.append(PolyhomSection(1, ((0.0, (np.array([m0]), np.array([-m1]))),)))
        elif m.kind == KIND_DIRAC:
            fa, fb = f.values[sl.start], f.values[sl.start + 1]
            ca = _cumulative_midpoint(fa, h)
            cb = _cumulative_midpoint(fb, h)
            # u = -J int f with J(a, b) = (-b, a)
            singular[sl.start] = cb
            singular[sl.start + 1] = -ca
            ma = h * complex(np.sum(fa))
            mb = h * complex(np.sum(fb))
            trace_terms.append(PolyhomSection(2, ((0.0, (np.array([mb, -ma]),)),)))
    trace_plus = _concat_sections(trace_terms, sum(p.fiber_dim for p in trace_terms))
    return NeckSolution(
        modes=f.modes,
        s_max=f.s_max,
        support=f.support,
        h=h,
        regular=regular,
        singular=singular,
        trace_plus=trace_plus,
    )


# ---------------------------------------------------------------------------
# discrete operator application and checks


def apply_discrete(modes: Sequence[ModeOperator], values: np.ndarray, h: float) -> np.ndarray:
    """Three-point / central-difference application of the mode operators.

    Endpoint columns are returned as zero; callers only ever look at
    interior columns (the support sits strictly inside the grid).
    """
    out = np.zeros_like(values, dtype=np.result_type(values, float))
    for m, sl in zip(modes, mode_rows(modes)):
        if m.kind == KIND_LAPLACE:
            u = values[sl.start]
            out[sl.start, 1:-1] = m.nu * u[1:-1] - (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
        else:
            ua, ub = values[sl.start], values[sl.start + 1]
            da = (ua[2:] - ua[:-2]) / (2 * h)
            db = (ub[2:] - ub[:-2]) / (2 * h)
            out[sl.start, 1:-1] = -db
            out[sl.start + 1, 1:-1] = da
    return out


def residual_on_support(modes: Sequence[ModeOperator], sol: NeckSolution, f: CompactSection) -> float:
    """Relative l2 error of P(u) against f over the support window."""
    t = f.grid()
    pu = apply_discrete(modes, sol.total(), f.h)
    # the support is one contiguous run of columns, less the two grid ends
    inside = np.flatnonzero(np.abs(t) <= f.support)
    window = slice(max(int(inside[0]), 1), min(int(inside[-1]) + 1, len(t) - 1))
    # column-major temporaries are summed column by column, down the rows:
    # the order that fixes the last bits of the residuals q0check writes
    diff = np.subtract(pu[:, window], f.values[:, window], order="F")
    denom = math.sqrt(f.h * float(np.sum(np.abs(f.values[:, window], order="F") ** 2)))
    if denom == 0:
        return 0.0
    return math.sqrt(f.h * float(np.sum(np.abs(diff) ** 2))) / denom


def duality_check(modes: Sequence[ModeOperator], f: CompactSection, v: PolyhomSection):
    """Both sides of the trace duality (u_f, v) = <f, v> and their gap.

    The first value is the closed-form pairing of the asymptotic trace with
    v; the second is the h-weighted grid sum of <f(t), v(t)>; both reduce to
    the same moment sums, so the gap is roundoff.
    """
    op, rows = trace_operator(modes)
    if op is None:
        return 0j, 0j, 0.0
    if v.fiber_dim != op.fiber_dim:
        raise ContractViolation("section fiber does not match the zero-mode fiber")
    trace = q0_apply(modes, f).trace_plus
    pair = pairing_closed(op, trace, v)
    t = f.grid()
    vv = v.evaluate(t)
    l2 = f.h * complex(np.sum(f.values[rows, :] * np.conj(vv)))
    return pair, l2, abs(pair - l2)


# ---------------------------------------------------------------------------
# operator-norm growth of the zero-mode inverse


@dataclass(frozen=True)
class NormLawFit:
    supports: tuple[float, ...]
    ratios: tuple[float, ...]
    exponent: float
    prefactor: float


def operator_norm_fit(kind: str, supports: Sequence[float], h: float = 1.0 / 16) -> NormLawFit:
    """Growth of ||Q0 f|| / ||f|| on the worst-case family f = 1 on [-T, T].

    The measured log-log slope is the degree of the moment kernel: 2 for the
    Laplace zero mode, 1 for the Dirac block.
    """
    ratios = []
    for t_half in supports:
        s_max = t_half + 2
        if kind == KIND_LAPLACE:
            modes = (ModeOperator(KIND_LAPLACE, 0.0, "alpha"),)
            vals = np.zeros((1, _exact_cells(2 * s_max, h)))
        elif kind == KIND_DIRAC:
            modes = (ModeOperator(KIND_DIRAC, 0.0, "alpha"),)
            vals = np.zeros((2, _exact_cells(2 * s_max, h)))
        else:
            raise ContractViolation(f"unknown operator kind {kind!r}")
        t = cell_grid(s_max, h)
        inside = np.abs(t) <= t_half
        vals[0, inside] = 1.0
        f = CompactSection(modes, s_max, t_half, h, vals)
        sol = q0_apply(modes, f)
        u = sol.total()[:, inside]
        norm_u = math.sqrt(h * float(np.sum(np.abs(u) ** 2)))
        norm_f = math.sqrt(h * float(np.sum(np.abs(vals[:, inside]) ** 2)))
        ratios.append(norm_u / norm_f)
    logs_t = np.log(np.asarray(supports, dtype=float))
    logs_r = np.log(np.asarray(ratios))
    slope, intercept = np.polyfit(logs_t, logs_r, 1)
    return NormLawFit(
        supports=tuple(float(x) for x in supports),
        ratios=tuple(float(r) for r in ratios),
        exponent=float(slope),
        prefactor=float(math.exp(intercept)),
    )


# ---------------------------------------------------------------------------
# seeded smooth test data


def seeded_section(
    modes: Sequence[ModeOperator],
    s_max: float,
    support: float,
    h: float,
    seed: int,
) -> CompactSection:
    """Deterministic smooth random section supported in [-support, support].

    Each row is a random Fourier sum of four harmonics under a C^2 bump
    envelope that vanishes identically outside the support. Harmonic k is
    damped by (1+k)^{-2} so higher derivatives stay of order one and
    discretization-error checks see smooth data.
    """
    rng = SplitMix64(seed)
    t = cell_grid(s_max, h)
    vals = np.zeros((total_rows(modes), len(t)))
    # the envelope is 0 for |t| >= support: only the columns inside are filled
    lo, hi = np.searchsorted(t, -support, side="right"), np.searchsorted(t, support)
    rows, t = vals[:, lo:hi], t[lo:hi]
    rise = CutoffFunction(center=-support + 0.5)
    envelope = rise(t) * rise(-t)
    amps = rng.uniforms(8 * len(vals), -1.0, 1.0).reshape(len(vals), 4, 2)
    for k in range(4):
        amp = amps[:, k] / (1 + k) ** 2
        rows += (amp[:, :1] * np.cos(k * math.pi * t / support)
                 + amp[:, 1:] * np.sin((k + 1) * math.pi * t / support))
    rows *= envelope
    return CompactSection(tuple(modes), s_max, support, h, vals)
