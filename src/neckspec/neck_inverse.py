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
    LaplaceZero,
    PolyhomSection,
    _slice_section,
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


# rows at once: grid rows of panel terms, section rows transposed, and grid
# columns of the residual
_MARCH_ROWS = 64


def _gnu_convolve(f: np.ndarray, nus: Sequence[float], h: float) -> np.ndarray:
    """Samples of (G_nu * f_lin) for every column of f, column k with nu = nus[k].

    f has shape (n, k): one positive-mode row per column, and f_lin
    interpolates each column linearly. Two sweeps march all columns at once:
    the forward one accumulates e^{-a(t_j - s)} mass from the left, the
    backward one from the right; u = (forward + backward) / (2a). Decay of
    the recursions matches the decay of G_nu exactly, so no periodization or
    overflow appears.

    Each step is out_j = (e out_{j-1} + w_prev f_{j-1}) + w_here f_j. The
    steps run over the grid rows of f's support only: before it a sweep's
    state stays exactly +0, and past it a step only multiplies by e, which
    one ``multiply.accumulate`` does, and adds +0, which turns an underflowed
    -0 into +0. A C-ordered f keeps every step's reads contiguous.
    """
    roots = [math.sqrt(nu) for nu in nus]
    # math.exp per column: np.exp may differ from it in the last bit
    e = np.array([math.exp(-a * h) for a in roots])
    w_prev, w_here = np.array([_panel_weights(a, h) for a in roots]).T
    n = len(f)
    out = np.zeros(f.shape, dtype=np.result_type(f, float))
    f = np.ascontiguousarray(f, dtype=out.dtype)
    # grid rows holding any bit pattern but +0.0; outside them w f is +0
    held = np.flatnonzero(np.any(f.view(np.uint64), axis=1))
    if not len(held):
        return out
    lo, hi = int(held[0]), int(held[-1])
    prev, here = np.empty((2, min(_MARCH_ROWS, n), f.shape[1]), dtype=out.dtype)
    # forward: rows below lo stay +0, rows past hi + 1 only decay
    for c0 in range(max(lo, 1), min(hi + 2, n), _MARCH_ROWS):
        c1 = min(c0 + _MARCH_ROWS, hi + 2, n)
        p = np.multiply(w_prev, f[c0 - 1 : c1 - 1], out=prev[: c1 - c0])
        q = np.multiply(w_here, f[c0:c1], out=here[: c1 - c0])
        for row, last, p_j, q_j in zip(out[c0:c1], out[c0 - 1 : c1 - 1], p, q):
            np.multiply(e, last, out=row)
            row += p_j
            row += q_j
    if hi + 2 < n:
        out[hi + 2 :] = e
        np.multiply.accumulate(out[hi + 1 :], axis=0, out=out[hi + 1 :])
        out[hi + 2 :] += 0.0
    # backward: the state is +0 above hi, and only decays below lo - 1; it
    # is kept a chunk at a time and added into out once per chunk
    back = np.empty((min(_MARCH_ROWS, n), f.shape[1]), dtype=out.dtype)
    state = np.zeros(f.shape[1], dtype=out.dtype)
    stop = max(lo - 1, 0)
    for c1 in range(min(hi, n - 2) + 1, stop, -_MARCH_ROWS):
        c0 = max(c1 - _MARCH_ROWS, stop)
        p = np.multiply(w_prev, f[c0 + 1 : c1 + 1], out=prev[: c1 - c0])
        q = np.multiply(w_here, f[c0:c1], out=here[: c1 - c0])
        b = back[: c1 - c0]
        for b_j, p_j, q_j in zip(b[::-1], p[::-1], q[::-1]):
            state = np.multiply(e, state, out=b_j)
            state += p_j
            state += q_j
        out[c0:c1] += b
    if stop > 0:
        # out is +0 below lo, so out_j = +0 + back_j there
        out[: stop] = e
        np.multiply.accumulate(out[stop::-1], axis=0, out=out[stop::-1])
        out[: stop] += 0.0
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


def q0_apply(f: CompactSection) -> np.ndarray:
    """Apply the cylinder right inverse to f, mode by mode of ``f.modes``,
    and return the solution samples, rows and columns as in the section.

    Positive-mode rows are filled by one Green's convolution march over all
    of them; zero-mode rows by the moment kernels, which are affine beyond
    the support. The grid must extend at least two units past the support
    so the trace identity has room to be checked.
    """
    if f.support > f.s_max - 2:
        raise ContractViolation("need s_max >= support + 2 to expose the trace")
    t = f.grid()
    h = f.h
    slices = mode_rows(f.modes)
    positive = [(sl.start, m.nu) for m, sl in zip(f.modes, slices)
                if m.kind == KIND_LAPLACE and not m.is_zero_mode]
    idx = [r for r, _ in positive]
    # the march reads one grid row of every positive row per step: it gets
    # them C-ordered, in a copy freed when it returns, before the samples
    # are allocated, so at most two section-sized arrays are live
    march = (_gnu_convolve(_grid_major(f.values, idx), [nu for _, nu in positive], h)
             if idx else None)
    values = np.empty_like(f.values)  # every row is written below
    if idx:
        values[idx] = march.T
    for m, sl in zip(f.modes, slices):
        if m.kind == KIND_LAPLACE and m.is_zero_mode:
            values[sl.start] = _laplace_zero_inverse(f.values[sl.start], t, h)
        elif m.kind == KIND_DIRAC:
            # u = -J int f with J(a, b) = (-b, a)
            values[sl.start] = _cumulative_midpoint(f.values[sl.start + 1], h)
            values[sl.start + 1] = -_cumulative_midpoint(f.values[sl.start], h)
    return values


def _grid_major(values: np.ndarray, idx: list[int]) -> np.ndarray:
    """The rows idx of values as the columns of a C-ordered array, transposed
    a block of rows at a time so no second full copy is live."""
    out = np.empty((values.shape[1], len(idx)), dtype=values.dtype)
    for lo in range(0, len(idx), _MARCH_ROWS):
        out[:, lo : lo + _MARCH_ROWS] = values[idx[lo : lo + _MARCH_ROWS]].T
    return out


# ---------------------------------------------------------------------------
# residual of the discrete operators


def residual_on_support(u: np.ndarray, f: CompactSection) -> float:
    """Relative l2 error of P(u) against f over the support window, with P
    the operators of ``f.modes`` applied by the three-point Laplace stencil
    and central-difference Dirac rotation, and u the samples :func:`q0_apply`
    returns."""
    t, h = f.grid(), f.h
    # the support is one contiguous run of columns, less the two grid ends
    inside = np.flatnonzero(np.abs(t) <= f.support)
    w0, w1 = max(int(inside[0]), 1), min(int(inside[-1]) + 1, len(t) - 1)
    slices = mode_rows(f.modes)
    alpha = np.array([sl.start for m, sl in zip(f.modes, slices) if m.kind == KIND_DIRAC],
                     dtype=np.intp)
    beta = alpha + 1
    # (P u - f)^T: one grid column of the window per row of a C-ordered
    # buffer, whose memory-order sum is the column-by-column sum that fixes
    # the last bits of the residuals q0check writes
    diff = np.empty((max(w1 - w0, 0), len(u)), dtype=np.result_type(u, f.values))
    nu = np.array([m.nu for m, sl in zip(f.modes, slices) for _ in range(sl.start, sl.stop)],
                  dtype=diff.dtype)
    for c0 in range(w0, w1, _MARCH_ROWS):
        c1 = min(c0 + _MARCH_ROWS, w1)
        ut = np.ascontiguousarray(u[:, c0 - 1 : c1 + 1].T, dtype=diff.dtype)
        prev, mid, succ = ut[:-2], ut[1:-1], ut[2:]
        out = diff[c0 - w0 : c1 - w0]
        # nu u - (u_{j+1} - 2 u_j + u_{j-1}) / h^2 on every row; a Dirac
        # block's rows are then overwritten by its rotation (-db, da)
        np.multiply(2, mid, out=out)
        np.subtract(succ, out, out=out)
        out += prev
        out /= h**2
        np.subtract(nu * mid, out, out=out)
        out[:, alpha] = -((succ[:, beta] - prev[:, beta]) / (2 * h))
        out[:, beta] = (succ[:, alpha] - prev[:, alpha]) / (2 * h)
        out -= f.values[:, c0:c1].T
    # squared in place and summed; |f|^T then refills the real buffer
    mag = np.abs(diff) if np.iscomplexobj(diff) else diff
    num = _sum_squares(mag)
    denom = math.sqrt(h * _sum_squares(np.abs(f.values[:, w0:w1].T, out=mag)))
    if denom == 0:
        return 0.0
    return math.sqrt(h * num) / denom


def _sum_squares(a: np.ndarray) -> float:
    """sum(a**2) over a real array, squared in place and summed in a's
    memory order."""
    return float(np.sum(np.square(a, out=a)))


def duality_check(f: CompactSection, v: PolyhomSection):
    """Both sides of the trace duality (u_f, v) = <f, v> and their gap.

    The first value is the closed-form pairing of the asymptotic trace
    m0 - t m1 of Q0 f with v; the second is the h-weighted grid sum of
    <f(t), v(t)>; both reduce to the same moment sums of the zero-mode rows,
    so the gap is roundoff. The trace space is the direct sum of one fiber
    per zero mode, in mode order, each paired with its slice of v.
    """
    t, h = f.grid(), f.h
    rows: list[int] = []
    summands = []  # (fiber operator, affine trace) per zero mode
    for m, sl in zip(f.modes, mode_rows(f.modes)):
        if not m.is_zero_mode:
            continue
        rows.extend(range(sl.start, sl.stop))
        # each row's moment h sum f: m1 of a Laplace row, (ma, mb) of a Dirac block
        sums = [h * complex(np.sum(f.values[r])) for r in range(sl.start, sl.stop)]
        if m.kind == KIND_DIRAC:
            summands.append((DiracZero(1), PolyhomSection(2, (np.array([sums[1], -sums[0]]),))))
        else:
            # one slot; the operator is the same on alpha and beta modes
            m0 = h * complex(np.sum(t * f.values[sl.start]))
            summands.append((LaplaceZero(1, 0),
                             PolyhomSection(1, (np.array([m0]), np.array([-sums[0]])))))
    if not summands:
        return 0j, 0j, 0.0
    if v.fiber_dim != len(rows):
        raise ContractViolation("section fiber does not match the zero-mode fiber")
    # P0 separates, so the pairing is the sum of the summands' pairings
    pair, lo = 0j, 0
    for op, u in summands:
        sl = slice(lo, lo + op.fiber_dim)
        pair += pairing_closed(op, u, _slice_section(v, sl, op.fiber_dim))
        lo += op.fiber_dim
    vv = v.evaluate(t)
    l2 = h * complex(np.sum(f.values[rows, :] * np.conj(vv)))
    return pair, l2, abs(pair - l2)


# ---------------------------------------------------------------------------
# operator-norm growth of the zero-mode inverse


@dataclass(frozen=True)
class NormLawFit:
    ratios: tuple[float, ...]
    exponent: float


def operator_norm_fit(kind: str, supports: Sequence[float], h: float = 1.0 / 16) -> NormLawFit:
    """Growth of ||Q0 f|| / ||f|| on the worst-case family f = 1 on [-T, T].

    The measured log-log slope is the degree of the moment kernel: 2 for the
    Laplace zero mode, 1 for the Dirac block.
    """
    modes = (ModeOperator(kind, 0.0, "alpha"),)
    ratios = []
    for t_half in supports:
        s_max = t_half + 2
        vals = np.zeros((total_rows(modes), _exact_cells(2 * s_max, h)))
        t = cell_grid(s_max, h)
        inside = np.abs(t) <= t_half
        vals[0, inside] = 1.0
        f = CompactSection(modes, s_max, t_half, h, vals)
        u = q0_apply(f)[:, inside]
        norm_u = math.sqrt(h * float(np.sum(np.abs(u) ** 2)))
        norm_f = math.sqrt(h * float(np.sum(np.abs(vals[:, inside]) ** 2)))
        ratios.append(norm_u / norm_f)
    logs_t = np.log(np.asarray(supports, dtype=float))
    logs_r = np.log(np.asarray(ratios))
    slope = np.polyfit(logs_t, logs_r, 1)[0]
    return NormLawFit(
        ratios=tuple(float(r) for r in ratios),
        exponent=float(slope),
    )


# ---------------------------------------------------------------------------
# seeded smooth test data


_SECTION_ROWS = 32  # rows of seeded_section built at once


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
    waves = [(np.cos(k * math.pi * t / support), np.sin((k + 1) * math.pi * t / support))
             for k in range(4)]
    # accumulated by row blocks, each harmonic a cos + b sin summed in two
    # preallocated buffers and then added, in the grouping of a one-pass fill
    term = np.empty((2, min(len(rows), _SECTION_ROWS), len(t)))
    for lo in range(0, len(rows), _SECTION_ROWS):
        block = rows[lo : lo + _SECTION_ROWS]
        harmonic, sine = term[:, : len(block)]
        for k, (cos_k, sin_k) in enumerate(waves):
            amp = amps[lo : lo + _SECTION_ROWS, k] / (1 + k) ** 2
            np.multiply(amp[:, :1], cos_k, out=harmonic)
            harmonic += np.multiply(amp[:, 1:], sin_k, out=sine)
            block += harmonic
        block *= envelope
    return CompactSection(tuple(modes), s_max, support, h, vals)
