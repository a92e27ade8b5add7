"""Low-eigenvalue counting on stretched necks and the min-max machinery.

The number of eigenvalues of the degree-q glued operator in the window
(0, pi^2 s/T^2] grows like 2(b^{q-1}+b^q) sqrt(s) with a T-independent
remainder. This module counts them by the inertia of the tridiagonal
matrices (Sturm counts, no eigenvalues computed), gives the product-model
count as a reference, and builds the Fourier test spaces whose Rayleigh
quotients give the matching upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    AnalysisError,
    ContractViolation,
    InsufficientEigenvaluesError,
    ResolutionError,
)
from .glued_model import GluedOperator, eigen_lowest
from .gluing_solver import SubstituteKernel, substitute_kernel
from .ioutil import format_real
from .polyhom import CutoffFunction
from .spectral_model import CrossSectionSpectrum, mode_list

THRESHOLD_ZERO = 1e-10

# mode families stacked per pass of the Sturm recurrence; bounds the
# transient (n_points x STURM_CHUNK) diagonal block
STURM_CHUNK = 128


def window_top(G: GluedOperator, s: float) -> float:
    return math.pi**2 * s / G.T**2


def sturm_counts(G: GluedOperator, shifts) -> np.ndarray:
    """Per mode, the number of eigenvalues <= each shift: an integer array
    of shape (len(G.modes), len(shifts)).

    For a tridiagonal mode this is the inertia of A - xI, the number of
    negative pivots d_i = (a_i - x) - b^2/d_{i-1} of its LDL^T factorization:
    the Sturm count of Barth, Martin & Wilkinson (1967), as in LAPACK dstebz.
    The off-diagonal b = -1/h^2 is the same for every mode. A pivot smaller
    than pivmin in magnitude is replaced by -pivmin, as dstebz does. The
    pivots count eigenvalues < x, so x is moved up one ulp to count <= x and
    keep the window edges of the eigenvalue path.
    The recurrence runs once per grid point over a (families x shifts)
    array, STURM_CHUNK mode families at a time, and each family's row is
    copied to its members.
    """
    shifts = np.asarray(shifts, dtype=float)
    x = np.nextafter(shifts, np.inf)
    b2 = (1.0 / G.h**2) ** 2
    pivmin = np.finfo(float).tiny * max(1.0, b2)
    counts = np.zeros((len(G.modes), len(shifts)), dtype=np.int64)
    for start in range(0, len(G.families), STURM_CHUNK):
        chunk = G.families[start : start + STURM_CHUNK]
        diags = np.stack([G.mats[members[0]][0] for members in chunk], axis=1)  # (n, families)
        d = np.full((len(chunk), len(x)), np.inf)
        negative = np.zeros(d.shape, dtype=np.int64)
        for a in diags:
            d = (a[:, None] - x) - b2 / d
            d[np.abs(d) < pivmin] = -pivmin
            negative += d < 0
        for members, row in zip(chunk, negative):
            counts[members] = row
    return counts


def window_counts(G: GluedOperator, s_values, refuse_negative: bool = False) -> np.ndarray:
    """Per mode, the eigenvalue count in (THRESHOLD_ZERO, pi^2 s/T^2] for
    each s: shape (len(G.modes), len(s_values)).

    The same Sturm count also counts each mode below -1/T^2, a floor that
    scales like the window and sits well under the e^{-delta T} split of
    the glued kernel; with ``refuse_negative`` a mode with an eigenvalue
    there (a negative spectrum) raises ContractViolation.
    """
    tops = [window_top(G, s) for s in s_values]
    below = sturm_counts(G, [-1.0 / G.T**2, THRESHOLD_ZERO] + tops)
    if refuse_negative:
        _refuse_negative_modes(G, below[:, 0])
    return np.maximum(below[:, 2:] - below[:, 1:2], 0)


def _refuse_negative_modes(G: GluedOperator, negative: np.ndarray) -> None:
    hits = np.flatnonzero(negative)
    if not len(hits):
        return
    i = int(hits[0])
    # nu >= 0 and the free stencil is positive semidefinite, so a potential sits on mode i
    blocks = [str(k) for k, b in ((1, G.block1), (2, G.block2)) if b.potential_for(i) is not None]
    raise ContractViolation(
        f"mode {i} (nu = {format_real(G.modes[i].nu)}) has {int(negative[i])} eigenvalue(s) "
        f"below -1/T^2 = {format_real(-1.0 / G.T**2)} at T = {format_real(G.T)}: the "
        f"potential of block {' and '.join(blocks)} on it makes a negative spectrum, "
        "outside the density law"
    )


def _branch_counts(G: GluedOperator, per_mode: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exact, coexact) totals of per-mode counts, split by degree tag."""
    beta = np.array([m.degree_tag == "beta" for m in G.modes], dtype=bool)
    return per_mode[beta].sum(axis=0), per_mode[~beta].sum(axis=0)


def product_benchmark(spec: CrossSectionSpectrum, q: int, T: float, s: float) -> int:
    """Eigenvalue count of the product model circle(2T) x X in the window:
    values (k pi/T)^2 + nu over k in Z and the degree-q mode list."""
    top = math.pi**2 * s / T**2
    total = 0
    for m in mode_list(spec, q, cutoff=top):
        if m.nu > THRESHOLD_ZERO:
            room = top - m.nu
            if room < 0:
                continue
            k_max = int(math.floor(T * math.sqrt(room) / math.pi + 1e-9))
            total += 2 * k_max + 1
        else:
            total += 2 * int(math.floor(math.sqrt(s) + 1e-9))
    return total


# ---------------------------------------------------------------------------
# density sweeps


@dataclass(frozen=True)
class DensityReport:
    """Window counts over a (T, s) sweep against the density prediction."""

    q: int
    B: int
    b_exact: int  # b^{q-1}, the exact-branch multiplicity
    b_coexact: int  # b^q
    T_values: tuple[float, ...]
    s_values: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]  # indexed [T][s]
    prediction: tuple[float, ...]  # per s: 2 B sqrt(s)
    residuals: tuple[tuple[float, ...], ...]
    coexact: tuple[tuple[tuple[int, int], ...], ...]  # (exact, coexact) per [T][s]

    @property
    def max_residual(self) -> float:
        return float(max(abs(r) for row in self.residuals for r in row))


def _refuse_positive_modes(G: GluedOperator, s_values, per_mode: np.ndarray) -> None:
    hits = [(i, j) for i, j in np.argwhere(per_mode > 0) if not G.modes[i].is_zero_mode]
    if not hits:
        return
    i, j = hits[0]
    s, nu = s_values[j], G.modes[i].nu
    # every eigenvalue of a mode is at least nu + the minimum of its potential
    floor = min(m.nu + float(np.min(v)) for m, v in zip(G.modes, G.potentials_eff)
                if not m.is_zero_mode)
    safe = f"T > {format_real(math.pi * math.sqrt(s / floor))}" if floor > 0 else "none"
    raise ContractViolation(
        f"s = {format_real(s)} at T = {format_real(G.T)}: the counting window reaches "
        f"positive mode {i} (nu = {format_real(nu)}); the T that the bound "
        f"lambda >= nu + min V guarantees: {safe}"
    )


def density_sweep(
    builder: Callable[[float], GluedOperator],
    q: int,
    s_values,
    T_values,
) -> DensityReport:
    """Count window eigenvalues for every (T, s) pair from one Sturm count
    per T; asserts count monotonicity in s and, when both s and 4s
    appear, that their residuals differ by at most 2B + 2. A mode with an
    eigenvalue below -1/T^2 (a negative spectrum) or a window that holds an
    eigenvalue of a positive mode is outside the density law and is refused
    with ContractViolation."""
    s_values = tuple(float(s) for s in s_values)
    T_values = tuple(float(T) for T in T_values)
    if not s_values or not T_values:
        raise ContractViolation("density sweep needs at least one s and one T")
    counts = []
    coexact = []
    B = b_exact = b_coexact = None
    for T in T_values:
        G = builder(T)
        if G.q != q:
            raise ContractViolation("builder produced an operator of the wrong degree")
        b_exact, b_coexact = G.spec.betti(q - 1), G.spec.betti(q)
        B = b_exact + b_coexact
        per_mode = window_counts(G, s_values, refuse_negative=True)
        _refuse_positive_modes(G, s_values, per_mode)
        exact, coexact_row = _branch_counts(G, per_mode)
        row = [int(e + c) for e, c in zip(exact, coexact_row)]
        if any(b < a for a, b in zip(row, row[1:])) and sorted(s_values) == list(s_values):
            raise AnalysisError("window counts decreased in s")
        counts.append(tuple(row))
        coexact.append(tuple((int(e), int(c)) for e, c in zip(exact, coexact_row)))
    prediction = tuple(2.0 * B * math.sqrt(s) for s in s_values)
    residuals = tuple(
        tuple(c - p for c, p in zip(row, prediction)) for row in counts
    )
    for i, s in enumerate(s_values):
        for j, s4 in enumerate(s_values):
            if abs(s4 - 4.0 * s) < 1e-12:
                for row in residuals:
                    if abs(row[j] - row[i]) > 2 * B + 2:
                        raise AnalysisError(
                            f"residual drift between s = {s} and 4s exceeds 2B + 2"
                        )
    return DensityReport(
        q=q,
        B=B,
        b_exact=b_exact,
        b_coexact=b_coexact,
        T_values=T_values,
        s_values=s_values,
        counts=tuple(counts),
        prediction=prediction,
        residuals=residuals,
        coexact=tuple(coexact),
    )


def density_csv(report: DensityReport) -> str:
    lines = ["q,T,s,count,prediction,residual,branch"]
    for i, T in enumerate(report.T_values):
        for j, s in enumerate(report.s_values):
            lines.append(
                f"{report.q},{format_real(T)},{format_real(s)},{report.counts[i][j]},"
                f"{format_real(report.prediction[j])},{format_real(report.residuals[i][j])},all"
            )
            ex, co = report.coexact[i][j]
            for name, cnt, mult in (("exact", ex, report.b_exact),
                                    ("coexact", co, report.b_coexact)):
                pred = 2.0 * mult * math.sqrt(s)
                lines.append(
                    f"{report.q},{format_real(T)},{format_real(s)},{cnt},"
                    f"{format_real(pred)},{format_real(cnt - pred)},{name}"
                )
    return "\n".join(lines) + "\n"


def gnuplot_tables(report: DensityReport) -> dict[str, str]:
    """Two-column (s, count) tables, one file name per (q, T)."""
    out = {}
    for i, T in enumerate(report.T_values):
        rows = ["# s count"]
        for j, s in enumerate(report.s_values):
            rows.append(f"{format_real(s)} {report.counts[i][j]}")
        out[f"density_q{report.q}_T{format_real(T)}.dat"] = "\n".join(rows) + "\n"
    return out


# ---------------------------------------------------------------------------
# Fourier test spaces on [-1, 1]


@dataclass(frozen=True)
class TestSpace:
    """Span of e^{i k pi x} on [-1,1] cut by linear constraints on the
    coefficients; basis rows are orthonormal coefficient vectors."""

    kind: str
    n: int
    k_values: tuple[int, ...]
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def _k_window(n: int) -> tuple[int, ...]:
    return tuple(k for k in range(-n, n + 1) if k != 0)


def _constraint_rows(kind: str, n: int, ks: tuple[int, ...]) -> np.ndarray:
    sign = np.array([(-1.0) ** abs(k) for k in ks])
    karr = np.array(ks, dtype=float)
    if kind == "Vn":
        return np.vstack([sign, sign * karr])
    if kind == "E":
        return np.vstack([sign / karr, sign / karr**2])
    if kind == "VnPrime":
        rows = [sign / karr, sign / karr**2]
        for j, k in enumerate(ks):
            if abs(k) <= n:
                e = np.zeros(len(ks))
                e[j] = 1.0
                rows.append(e)
        return np.vstack(rows)
    if kind == "Wn":
        base = _constraint_rows("VnPrime", n, ks)
        return np.vstack([base, sign * karr**2])
    raise ContractViolation(f"unknown test-space kind {kind!r}")


def test_space(kind: str, n: int, window: int | None = None) -> TestSpace:
    """Build a finite Fourier model of V_n, E, V'_n or W_n.

    V_n lives on its own window |k| <= n; the others need window > n wide
    enough to leave room below the removed frequencies."""
    import scipy.linalg
    if kind == "Vn":
        if n < 2:
            raise ContractViolation("V_n needs n >= 2")
        ks = _k_window(n)
    else:
        if window is None:
            window = 2 * n + 2
        if kind in ("VnPrime", "Wn") and window <= n + 1:
            raise ContractViolation("window must exceed n + 1 to leave room in E")
        ks = _k_window(window)
    rows = _constraint_rows(kind, n, ks)
    basis = scipy.linalg.null_space(rows).T
    return TestSpace(kind=kind, n=n, k_values=ks, basis=basis)


def assert_space_dimensions(n: int, window: int | None = None) -> dict[str, int]:
    """Rank-certify dim V_n = 2n-2, codim E = 3 (with a_0), codim of V'_n
    inside E = 2n, and the single extra constraint of W_n."""
    if window is None:
        window = 2 * n + 2
    vn = test_space("Vn", n)
    e = test_space("E", n, window)
    vp = test_space("VnPrime", n, window)
    wn = test_space("Wn", n, window)
    dims = {
        "Vn": vn.dim,
        "E": e.dim,
        "VnPrime": vp.dim,
        "Wn": wn.dim,
        "E_codim": 2 * window + 1 - e.dim,
        "VnPrime_codim_in_E": e.dim - vp.dim,
        "Wn_codim_in_VnPrime": vp.dim - wn.dim,
    }
    expected = {
        "Vn": 2 * n - 2,
        "E_codim": 3,
        "VnPrime_codim_in_E": 2 * n,
        "Wn_codim_in_VnPrime": 1,
    }
    for key, want in expected.items():
        if dims[key] != want:
            raise AnalysisError(f"test-space dimension check failed: {key} = {dims[key]}, expected {want}")
    return dims


def fourier_values(k_values, coeffs, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(np.asarray(x, dtype=float), dtype=complex)
    for k, a in zip(k_values, coeffs):
        if a != 0:
            out = out + a * np.exp(1j * k * math.pi * np.asarray(x))
    return out


def fourier_l2_norm(coeffs: Mapping[int, complex], T: float) -> float:
    """L^2 norm of f_T(t) = f(t/T) on [-T, T] by Parseval."""
    return math.sqrt(2.0 * T * sum(abs(a) ** 2 for a in coeffs.values()))


def h_operator_check(coeffs: Mapping[int, complex], T: float, h: float = 1.0 / 128) -> float:
    """Compare H f_T(t) = int_{-inf}^t (tau - t) f_T(tau) dtau against its
    closed Fourier form (T^2/pi^2) sum a_k/k^2 e^{i k pi t/T}.

    Requires f in E: a_0 = 0 and the two alternating moment sums vanish,
    which is exactly what cancels the affine boundary terms at t = -T and
    makes Hf_T vanish beyond t = T. Returns the max absolute deviation,
    including the far-side moment defect; compare to 1e-6 ||f||.
    """
    import scipy.integrate
    if h > 1.0 / 128 + 1e-12:
        raise ContractViolation("need h <= 1/128 for the quadrature comparison")
    ks = sorted(coeffs)
    amax = max((abs(coeffs[k]) for k in ks), default=0.0)
    if amax == 0.0:
        return 0.0
    sums = [
        abs(coeffs.get(0, 0.0)),
        abs(sum((-1.0) ** abs(k) * coeffs[k] / k for k in ks if k != 0)),
        abs(sum((-1.0) ** abs(k) * coeffs[k] / k**2 for k in ks if k != 0)),
    ]
    if max(sums) > 1e-9 * amax:
        raise ContractViolation("test function is not in E (moment sums nonzero)")
    m = int(round(2.0 * T / h))
    t = -T + h * np.arange(m + 1)
    f = np.zeros(m + 1, dtype=complex)
    closed = np.zeros(m + 1, dtype=complex)
    for k in ks:
        if k == 0:
            continue
        phase = np.exp(1j * k * math.pi * t / T)
        f += coeffs[k] * phase
        closed += coeffs[k] / k**2 * phase
    closed *= T**2 / math.pi**2

    def cum(y):
        re = scipy.integrate.cumulative_simpson(y.real, dx=h, initial=0.0)
        im = scipy.integrate.cumulative_simpson(y.imag, dx=h, initial=0.0)
        return re + 1j * im

    m0 = cum(f)
    m1 = cum(t * f)
    numeric = m1 - t * m0
    dev = float(np.max(np.abs(numeric - closed)))
    # beyond T the closed form is zero; the numeric tail is affine in t
    # with coefficients given by the total moments
    tail = abs(m1[-1]) + abs(m0[-1]) * (T + 2.0)
    return max(dev, float(tail))


# ---------------------------------------------------------------------------
# min-max upper bounds


def minmax_upper_from_Vn(G: GluedOperator, n: int, eps: float = 0.05) -> float:
    """Rayleigh bound from the V_n trial space on the neck.

    Places every V_n basis function, scaled to [-T, T] and cut at
    0.9 T, on each zero-mode row; returns the largest generalized
    Rayleigh quotient and asserts the min-max consequence: at least
    (2n-2) B - dim kernel eigenvalues lie in (threshold, (1+eps)(n pi)^2/T^2],
    with both counts taken by ``sturm_counts``.
    """
    import scipy.linalg
    if n < 2:
        raise ContractViolation("need n >= 2")
    zero_modes = [i for i, m in enumerate(G.modes) if m.is_zero_mode]
    if not zero_modes:
        raise ContractViolation("no zero modes to carry the trial space")
    space = test_space("Vn", n)
    t = G.grid()
    cut = CutoffFunction(0.0)(0.9 * G.T - np.abs(t))
    trials = []
    for row in space.basis:
        trials.append(fourier_values(space.k_values, row, t / G.T) * cut)
    bound = 0.0
    for i in zero_modes:
        d = len(trials)
        A = np.zeros((d, d), dtype=complex)
        M = np.zeros((d, d), dtype=complex)
        applied = [G.apply_mode(i, u.astype(complex)) for u in trials]
        for a in range(d):
            for b in range(d):
                A[a, b] = G.h * np.sum(applied[b] * np.conj(trials[a]))
                M[a, b] = G.h * np.sum(trials[b] * np.conj(trials[a]))
        mvals = np.linalg.eigvalsh(M)
        if mvals[0] <= 1e-12 * max(mvals[-1], 1.0):
            raise ResolutionError("trial space is degenerate on this grid; refine h")
        vals = scipy.linalg.eigh(A, M, eigvals_only=True)
        bound = max(bound, float(np.max(vals.real)))
    target = (1.0 + eps) * (n * math.pi) ** 2 / G.T**2
    if bound > target:
        raise AnalysisError(
            f"trial Rayleigh bound {bound:.6e} exceeds (1+eps)(n pi)^2/T^2 = {target:.6e}"
        )
    want = (2 * n - 2) * len(zero_modes)
    below = sturm_counts(G, [THRESHOLD_ZERO, target]).sum(axis=0)
    dim_kernel = int(below[0])
    got = int(below[1] - below[0])
    if got < want - dim_kernel:
        raise AnalysisError(
            f"min-max count failed: {got} eigenvalues below {target:.6e}, "
            f"expected at least {want - dim_kernel}"
        )
    return bound


def scalar_lambda1_bounds(G: GluedOperator) -> tuple[float, float]:
    """(lower, upper) for the first nonzero eigenvalue of the scalar model.

    Lower is the measured first eigenvalue above the kernel threshold;
    upper is the Rayleigh quotient of the clipped ramp t/T times the
    kernel profile, with its kernel component removed: the discrete
    version of the 6/T^2 test function bound.
    """
    if len(G.modes) != 1 or not G.modes[0].is_zero_mode:
        raise ContractViolation("scalar model expected: exactly one zero mode")
    res = eigen_lowest(G, 4)
    vals = res.values()
    above = vals[vals > THRESHOLD_ZERO]
    if len(above) == 0:
        raise InsufficientEigenvaluesError("no eigenvalue above the kernel threshold")
    lower = float(above[0])
    S = substitute_kernel(G)
    t = G.grid()
    base = S.basis[0][1] if S.dim else np.ones(G.n_points)
    u = np.clip(t / G.T, -1.0, 1.0) * base
    u = u - (G.h * np.sum(u * base)) * base / (G.h * np.sum(base * base))
    num = G.h * float(np.sum(G.apply_mode(0, u) * u))
    den = G.h * float(np.sum(u * u))
    return lower, num / den


# ---------------------------------------------------------------------------
# substitute kernel vs discrete kernel


def discrete_kernel_vectors(G: GluedOperator, dim: int) -> np.ndarray:
    """The dim lowest eigenvectors of the glued matrices, flattened over
    (mode, grid) and sorted by eigenvalue, ties by mode. One eigensolve
    per mode family serves all its members."""
    import scipy.linalg
    n = G.n_points
    kk = min(dim, n)
    found = []
    for members in G.families:
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            *G.mats[members[0]], select="i", select_range=(0, kk - 1)
        )
        found.extend((float(vals[r]), i, vecs[:, r]) for i in members for r in range(kk))
    found.sort(key=lambda x: (x[0], x[1]))
    out = np.zeros((dim, len(G.modes) * n))
    for r, (_, i, vec) in enumerate(found[:dim]):
        out[r, i * n : (i + 1) * n] = vec / np.linalg.norm(vec)
    return out


def principal_angle_sines(G: GluedOperator, S: SubstituteKernel) -> np.ndarray:
    """Sines of the principal angles between the substitute kernel and the
    numerical kernel of the glued matrix (uniform grid weight, so the
    Euclidean angles are the grid-pairing angles)."""
    import scipy.linalg
    if S.dim == 0:
        raise ContractViolation("substitute kernel is trivial")
    A = S.flat_basis()
    K = discrete_kernel_vectors(G, S.dim)
    angles = scipy.linalg.subspace_angles(A.T, K.T)
    return np.sin(angles)
