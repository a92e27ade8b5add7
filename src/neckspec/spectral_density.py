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
from typing import Mapping, Sequence

import numpy as np

from .errors import AnalysisError, ContractViolation
from .glued_model import GluedOperator, eigen_lowest
from .gluing_solver import SubstituteKernel, substitute_kernel
from .ioutil import format_real
from .polyhom import CutoffFunction

THRESHOLD_ZERO = 1e-10

# rows (mode families of all operators) stacked per pass of the Sturm
# recurrence; bounds the transient (n_max x STURM_CHUNK) padded diagonal block
STURM_CHUNK = 128
# grid steps whose pivots are held at once: the pivmin test and the count of
# negative pivots run once per block of steps, not once per step
STURM_BLOCK = 16
_MINMAX_EPS = 0.05


def window_top(G: GluedOperator, s: float) -> float:
    return math.pi**2 * s / G.T**2


def _eliminate(pivots: np.ndarray, diags: np.ndarray, x: np.ndarray, b2: np.ndarray,
               quotient: np.ndarray, pivmin: np.ndarray | None = None) -> None:
    """Fill pivots[1:] with the LDL^T pivots of the steps in ``diags``,
    d_{k+1} = (a_k - x) - b2/d_k from d_0 = pivots[0], two ufunc calls per
    step into the given buffers. With ``pivmin``, a pivot smaller than
    pivmin in magnitude is replaced by -pivmin as it is made."""
    np.subtract(diags[:, :, None], x, out=pivots[1:])
    steps = list(pivots)
    for before, d in zip(steps, steps[1:]):
        np.divide(b2, before, out=quotient)
        np.subtract(d, quotient, out=d)
        if pivmin is not None:
            np.copyto(d, -pivmin, where=np.abs(d) < pivmin)


def _sturm_pass(operators, shifts) -> list[np.ndarray]:
    """Per operator, per mode, the number of eigenvalues <= each of that
    operator's shifts (``shifts[k]`` belongs to ``operators[k]``; every row
    has the same length): integer arrays of shape (len(G.modes), len(shifts[k])).

    For a tridiagonal mode this is the inertia of A - xI, the number of
    negative pivots d_i = (a_i - x) - b^2/d_{i-1} of its LDL^T factorization:
    the Sturm count of Barth, Martin & Wilkinson (1967), as in LAPACK dstebz.
    The off-diagonal b = -1/h^2 is the same for every mode of an operator. A
    pivot smaller than pivmin in magnitude is replaced by -pivmin, as dstebz
    does. The pivots count eigenvalues < x, so x is moved up one ulp to count
    <= x and keep the window edges of the eigenvalue path.

    One recurrence runs over the mode families of every operator at once,
    STURM_CHUNK families (rows) per pass, each row with its operator's
    shifts, b^2 and pivmin. A shorter diagonal is continued with +inf: its
    pivots stay +inf and count nothing, so every real step does the same
    float operations on the same values as a pass over its operator alone.
    Steps run STURM_BLOCK at a time without the pivmin replacement; a block
    with a pivot below pivmin is run again with it, so the pivots, and the
    counts, are those of the step-by-step recurrence. Each family's row is
    copied to its members.
    """
    x_all = np.nextafter(np.asarray(shifts, dtype=float), np.inf)
    counts = [np.zeros((len(G.modes), x_all.shape[1]), dtype=np.int64) for G in operators]
    rows = [(k, members) for k, G in enumerate(operators) for members in G.families]
    for start in range(0, len(rows), STURM_CHUNK):
        chunk = rows[start : start + STURM_CHUNK]
        owner = [k for k, _ in chunk]
        columns = [operators[k].mats[members[0]][0] for k, members in chunk]
        n = max(len(diag) for diag in columns)
        diags = np.full((n, len(chunk)), np.inf)
        for r, diag in enumerate(columns):
            diags[: len(diag), r] = diag
        x = x_all[owner]
        # full-shaped, as a broadcast operand doubles the cost of each division
        b2 = np.repeat([[(1.0 / operators[k].h**2) ** 2] for k in owner], x.shape[1], axis=1)
        pivmin = np.finfo(float).tiny * np.maximum(1.0, b2)
        pivots = np.empty((STURM_BLOCK + 1,) + x.shape)
        pivots[0] = np.inf
        quotient = np.empty(x.shape)
        negative = np.zeros(x.shape, dtype=np.int64)
        # a zero pivot divides by zero in the first run of its block, which
        # is then run again with the replacement
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for j in range(0, n, STURM_BLOCK):
                block = pivots[: min(STURM_BLOCK, n - j) + 1]
                _eliminate(block, diags[j : j + STURM_BLOCK], x, b2, quotient)
                if np.any((block[1:] > -pivmin) & (block[1:] < pivmin)):
                    _eliminate(block, diags[j : j + STURM_BLOCK], x, b2, quotient, pivmin)
                # d < pivmin is exactly "negative after the pivmin replacement"
                negative += np.count_nonzero(block[1:] < pivmin, axis=0)
                pivots[0] = block[-1]
        for row, (k, members) in zip(negative, chunk):
            counts[k][members] = row
    return counts


def sturm_counts(G: GluedOperator, shifts) -> np.ndarray:
    """Per mode, the number of eigenvalues <= each shift: an integer array
    of shape (len(G.modes), len(shifts)); the one-operator case of the
    stacked Sturm pass (``_sturm_pass``)."""
    return _sturm_pass([G], [shifts])[0]


def window_counts(operators, s_values) -> list[np.ndarray]:
    """Per operator, per mode, the eigenvalue count in
    (THRESHOLD_ZERO, pi^2 s/T^2] for each s: arrays of shape
    (len(G.modes), len(s_values)), all from one Sturm pass.

    The same pass also counts each mode below -1/T^2, a floor that scales
    like the window and sits well under the e^{-delta T} split of the glued
    kernel; the first operator, in the given order, with a mode that has an
    eigenvalue there (a negative spectrum) raises ContractViolation.
    """
    shifts = [[-1.0 / G.T**2, THRESHOLD_ZERO] + [window_top(G, s) for s in s_values]
              for G in operators]
    out = []
    for G, below in zip(operators, _sturm_pass(operators, shifts)):
        _refuse_negative_modes(G, below[:, 0])
        out.append(np.maximum(below[:, 2:] - below[:, 1:2], 0))
    return out


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


# ---------------------------------------------------------------------------
# density sweeps


def _law(mult: int, s: float) -> float:
    """The density law's count 2 mult sqrt(s) for a branch of multiplicity mult."""
    return 2.0 * mult * math.sqrt(s)


@dataclass(frozen=True)
class DensityReport:
    """Window counts over a (T, s) sweep against the density prediction."""

    q: int
    b_exact: int  # b^{q-1}, the exact-branch multiplicity
    b_coexact: int  # b^q
    T_values: tuple[float, ...]
    s_values: tuple[float, ...]
    coexact: tuple[tuple[tuple[int, int], ...], ...]  # (exact, coexact) per [T][s]

    @property
    def B(self) -> int:
        return self.b_exact + self.b_coexact

    @property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        """Both branches' counts, indexed [T][s]."""
        return tuple(tuple(ex + co for ex, co in row) for row in self.coexact)

    @property
    def prediction(self) -> tuple[float, ...]:
        """Per s: 2 B sqrt(s)."""
        return tuple(_law(self.B, s) for s in self.s_values)

    @property
    def residuals(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(c - p for c, p in zip(row, self.prediction)) for row in self.counts)

    @property
    def max_residual(self) -> float:
        return float(max(abs(r) for row in self.residuals for r in row))

    def branches(self, i: int, j: int) -> tuple[tuple[str, int, float], ...]:
        """(branch, count, prediction) of both branches at T_values[i], s_values[j]."""
        ex, co = self.coexact[i][j]
        s = self.s_values[j]
        return (("exact", ex, _law(self.b_exact, s)), ("coexact", co, _law(self.b_coexact, s)))


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


def density_sweep(operators: Sequence[GluedOperator], s_values) -> DensityReport:
    """Count window eigenvalues for every (T, s) pair from one Sturm pass
    over ``operators``, one glued operator per T, all of one degree and
    spectrum; asserts count monotonicity in ascending s, whatever the
    order of ``s_values``, and, when both s and 4s appear, that their
    residuals differ by at most 2B + 2. A mode with an eigenvalue below
    -1/T^2 (a negative spectrum) or a window that holds an eigenvalue of a
    positive mode is outside the density law and is refused with
    ContractViolation.

    A sweep reports the first of: no operator or no s, or an operator of
    another degree or spectrum than the first; then a negative spectrum, in
    T order; then, T by T, a window reaching a positive mode or a count
    decreasing in s.
    """
    s_values = tuple(float(s) for s in s_values)
    if not s_values or not operators:
        raise ContractViolation("density sweep needs at least one s and one T")
    G = operators[0]
    q = G.q
    if any(H.q != q or H.spec != G.spec for H in operators):
        raise ContractViolation("density sweep: an operator of the wrong degree or spectrum")
    T_values = tuple(H.T for H in operators)
    b_exact, b_coexact = G.spec.betti(q - 1), G.spec.betti(q)
    ascending = sorted(range(len(s_values)), key=s_values.__getitem__)
    coexact = []
    for G, per_mode in zip(operators, window_counts(operators, s_values)):
        _refuse_positive_modes(G, s_values, per_mode)
        exact, coexact_row = _branch_counts(G, per_mode)
        row = [int(exact[j] + coexact_row[j]) for j in ascending]
        if any(b < a for a, b in zip(row, row[1:])):
            raise AnalysisError("window counts decreased in s")
        coexact.append(tuple((int(e), int(c)) for e, c in zip(exact, coexact_row)))
    report = DensityReport(q=q, b_exact=b_exact, b_coexact=b_coexact, T_values=T_values,
                           s_values=s_values, coexact=tuple(coexact))
    residuals = report.residuals
    for i, s in enumerate(s_values):
        for j, s4 in enumerate(s_values):
            if abs(s4 - 4.0 * s) < 1e-12:
                for row in residuals:
                    if abs(row[j] - row[i]) > 2 * report.B + 2:
                        raise AnalysisError(
                            f"residual drift between s = {s} and 4s exceeds 2B + 2"
                        )
    return report


def density_csv(report: DensityReport) -> str:
    # each property rebuilds its whole tuple, so each is read once
    counts, prediction, residuals = report.counts, report.prediction, report.residuals
    lines = ["q,T,s,count,prediction,residual,branch"]
    for i, T in enumerate(report.T_values):
        for j, s in enumerate(report.s_values):
            lines.append(
                f"{report.q},{format_real(T)},{format_real(s)},{counts[i][j]},"
                f"{format_real(prediction[j])},{format_real(residuals[i][j])},all"
            )
            for name, cnt, pred in report.branches(i, j):
                lines.append(
                    f"{report.q},{format_real(T)},{format_real(s)},{cnt},"
                    f"{format_real(pred)},{format_real(cnt - pred)},{name}"
                )
    return "\n".join(lines) + "\n"


def gnuplot_tables(report: DensityReport) -> dict[str, str]:
    """Two-column (s, count) tables, one file name per (q, T)."""
    out = {}
    for T, row in zip(report.T_values, report.counts):
        rows = ["# s count"]
        for s, count in zip(report.s_values, row):
            rows.append(f"{format_real(s)} {count}")
        out[f"density_q{report.q}_T{format_real(T)}.dat"] = "\n".join(rows) + "\n"
    return out


# ---------------------------------------------------------------------------
# Fourier test spaces on [-1, 1]


@dataclass(frozen=True)
class TestSpace:
    """Span of e^{i k pi x} on [-1,1] cut by linear constraints on the
    coefficients; basis rows are orthonormal coefficient vectors."""

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


def test_space(kind: str, n: int) -> TestSpace:
    """Build a finite Fourier model of V_n, E, V'_n or W_n.

    V_n lives on its own window |k| <= n; the others on |k| <= 2n + 2,
    which leaves room in E below the frequencies V'_n removes."""
    import scipy.linalg
    if kind == "Vn" and n < 2:
        raise ContractViolation("V_n needs n >= 2")
    ks = _k_window(n if kind == "Vn" else 2 * n + 2)
    rows = _constraint_rows(kind, n, ks)
    basis = scipy.linalg.null_space(rows).T
    return TestSpace(k_values=ks, basis=basis)


def assert_space_dimensions(n: int) -> dict[str, int]:
    """Rank-certify dim V_n = 2n-2, codim E = 3 (with a_0), codim of V'_n
    inside E = 2n, and the single extra constraint of W_n."""
    vn = test_space("Vn", n)
    e = test_space("E", n)
    vp = test_space("VnPrime", n)
    wn = test_space("Wn", n)
    dims = {
        "Vn": vn.dim,
        "E": e.dim,
        "VnPrime": vp.dim,
        "Wn": wn.dim,
        # with a_0, which the window leaves out (E has a_0 = 0)
        "E_codim": len(e.k_values) + 1 - e.dim,
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


def h_operator_check(coeffs: Mapping[int, complex], T: float) -> float:
    """Compare H f_T(t) = int_{-inf}^t (tau - t) f_T(tau) dtau against its
    closed Fourier form (T^2/pi^2) sum a_k/k^2 e^{i k pi t/T}.

    Requires f in E: a_0 = 0 and the two alternating moment sums vanish,
    which is exactly what cancels the affine boundary terms at t = -T and
    makes Hf_T vanish beyond t = T. Returns the max absolute deviation,
    including the far-side moment defect, of a Simpson quadrature at step
    1/128; compare to 1e-6 ||f||.
    """
    import scipy.integrate
    h = 1.0 / 128
    ks = sorted(coeffs)
    amax = max((abs(coeffs[k]) for k in ks), default=0.0)
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
    m0 = scipy.integrate.cumulative_simpson(f, dx=h, initial=0.0)
    m1 = scipy.integrate.cumulative_simpson(t * f, dx=h, initial=0.0)
    numeric = m1 - t * m0
    dev = float(np.max(np.abs(numeric - closed)))
    # beyond T the closed form is zero; the numeric tail is affine in t
    # with coefficients given by the total moments
    tail = abs(m1[-1]) + abs(m0[-1]) * (T + 2.0)
    return max(dev, float(tail))


# ---------------------------------------------------------------------------
# min-max upper bounds


def minmax_upper_from_Vn(G: GluedOperator, n: int) -> float:
    """Rayleigh bound from the V_n trial space on the neck.

    Places every V_n basis function, scaled to [-T, T] and cut at
    0.9 T, on each zero-mode row; returns the largest generalized
    Rayleigh quotient and asserts the min-max consequence: at least
    (2n-2) B - dim kernel eigenvalues lie in (threshold, (1+eps)(n pi)^2/T^2]
    with eps = _MINMAX_EPS, both counts taken by ``sturm_counts``. The Gram
    matrix M of the trials is the same on every row, and the stiffness
    matrix A the same on every member of a mode family, so each is built once.
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
    # the trial functions on the glued grid, one per row
    U = np.array([fourier_values(space.k_values, row, t / G.T) * cut for row in space.basis])
    M = G.h * np.conj(U) @ U.T
    mvals = np.linalg.eigvalsh(M)
    if mvals[0] <= 1e-12 * max(mvals[-1], 1.0):
        raise AnalysisError("trial space is degenerate on this grid; refine h")
    bound = 0.0
    for members in G.families:
        if not G.modes[members[0]].is_zero_mode:
            continue
        A = G.h * np.conj(U) @ G.apply_mode(members[0], U).T
        vals = scipy.linalg.eigh(A, M, eigvals_only=True)
        bound = max(bound, float(np.max(vals.real)))
    target = (1.0 + _MINMAX_EPS) * (n * math.pi) ** 2 / G.T**2
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
    vals = eigen_lowest(G, 4).values()
    above = vals[vals > THRESHOLD_ZERO]
    if len(above) == 0:
        raise AnalysisError("no eigenvalue above the kernel threshold")
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
