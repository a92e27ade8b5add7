"""Solvers on the glued grid: the substitute kernel, the characteristic
system at the neck, and the correction iteration.

The route mirrors the cylinder calculus. A source is windowed to the
neck and inverted there per mode family with discrete-exact inverses;
the characteristic system then picks the affine trace correction v that
cancels the block obstructions; the leftover residual (supported in the
block regions) is removed by slope-zero block solves; crossfading the
pieces leaves a defect of size e^{-delta T}, which the exact solver
drives below tolerance by iteration.

All inner products are the grid pairing h * sum(x conj(y)) over every
mode row, and "orthogonal to the kernel" always means this pairing. The
glued matrices are real, and every solver works in the source's dtype.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AnalysisError,
    ContractViolation,
    DegenerateSystemError,
    NoContractionError,
    NotOrthogonalError,
)
from .glued_model import (
    KERNEL_TOL,
    BlockKernelData,
    GluedOperator,
    ShootingElement,
    _corner_value,
    block_kernel,
    stencil,
)
from .ioutil import format_real
from .neck_inverse import _laplace_zero_inverse
from .polyhom import CutoffFunction

_CUT = 2.0  # block subgrids reach this far past the neck center
_BORDER_TOL = 1e-10  # certificate of every bordered block solve
_BORDER_DIGITS = 6  # significant digits a bordered solve must keep: eps cond <= 1e-6
_BORDER_ROWS = 4  # rows a bordered solve tries to shift before it refuses


def _inexact(x) -> np.ndarray:
    x = np.asarray(x)  # in its own dtype, promoted to at least float64
    return x.astype(np.result_type(x, float), copy=False)


def norm(G: GluedOperator, x: np.ndarray) -> float:
    a = np.abs(x)
    a *= a
    return math.sqrt(G.h * float(np.sum(a)))


def neck_windows(G: GluedOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w1, zeta0, zeta1): the block-1 crossfade weight 1 - chi(t) and the
    neck windows, zeta0 = 1 on |t| <= T fading out by T+1, zeta1 = 1 on
    |t| <= T-1 supported in [-T, T]."""
    t = G.grid()
    chi = CutoffFunction(0.0)
    w1 = 1.0 - chi(t)
    zeta0 = chi(G.T + 0.5 - np.abs(t))
    zeta1 = chi(G.T - 0.5 - np.abs(t))
    return w1, zeta0, zeta1


def transplant(G: GluedOperator, which: int, element: ShootingElement) -> np.ndarray:
    """Carry a shooting element onto the glued grid, continuing its affine
    far field a + b s beyond the shooting reach. Block 2 enters reversed."""
    if abs(element.h - G.h) > 1e-12:
        raise ContractViolation("element was shot at a different step than the glued grid")
    n = G.n_points
    t = G.grid()
    s = t + G.T + G.L1 if which == 1 else G.T + G.L2 - t
    out = element.a + element.b * s
    k = min(len(element.samples), n)
    if which == 1:
        out[:k] = element.samples[:k]
    else:
        out[n - k :] = element.samples[:k][::-1]
    return out


def _trace_in_t(G: GluedOperator, which: int, element: ShootingElement) -> tuple[float, float]:
    """The element's affine far field written in the glued coordinate:
    block 1 gives (a + b (T+L1)) + b t, block 2 gives (a + b (T+L2)) - b t."""
    if which == 1:
        return element.a + element.b * (G.T + G.L1), element.b
    return element.a + element.b * (G.T + G.L2), -element.b


# ---------------------------------------------------------------------------
# matching pairs and the substitute kernel


@dataclass(frozen=True)
class MatchingPair:
    """Two block kernel elements and their crossfaded glued section.

    matched_at_T records whether the transplanted traces agree through the
    neck (for the constant traces of bounded elements this is independent
    of T). A decaying element stands alone with the partner set to None.
    """

    mode_index: int
    u1: ShootingElement | None
    u2: ShootingElement | None
    matched_at_T: bool
    glued_section: np.ndarray


def matching_pair(G: GluedOperator, e1: ShootingElement | None,
                  e2: ShootingElement | None) -> MatchingPair:
    """Crossfade two shooting elements (as given, no rescaling) and test
    whether their traces continue each other through the neck."""
    if e1 is None and e2 is None:
        raise ContractViolation("a matching pair needs at least one element")
    mode = e1.mode_index if e1 is not None else e2.mode_index
    if e1 is not None and e2 is not None and e1.mode_index != e2.mode_index:
        raise ContractViolation("elements of a pair must share their mode")
    w1 = neck_windows(G)[0]
    section = np.zeros(G.n_points)
    traces = []
    for e, which, w in ((e1, 1, w1), (e2, 2, 1.0 - w1)):
        if e is None:
            traces.append(None)
            continue
        section = section + w * transplant(G, which, e)
        traces.append(_trace_in_t(G, which, e))
    if None in traces:
        (tr,) = [x for x in traces if x is not None]
        matched = abs(tr[0]) <= KERNEL_TOL and abs(tr[1]) <= KERNEL_TOL  # lone element must decay
    else:
        (a1, b1), (a2, b2) = traces
        scale = max(1.0, abs(a1), abs(a2), (abs(b1) + abs(b2)) * G.T)
        matched = abs(a1 - a2) <= KERNEL_TOL * scale and abs(b1 - b2) <= KERNEL_TOL * scale
    return MatchingPair(mode_index=mode, u1=e1, u2=e2, matched_at_T=matched,
                        glued_section=section)


def _unit_trace(e: ShootingElement) -> ShootingElement:
    return dataclasses.replace(e, samples=e.samples / e.a, a=1.0, b=e.b / e.a)


@dataclass(frozen=True)
class SubstituteKernel:
    """Basis of the glued kernel built from matched block elements."""

    G: GluedOperator
    pairs: tuple[MatchingPair, ...]
    kernel1: BlockKernelData
    kernel2: BlockKernelData
    basis: tuple[tuple[int, np.ndarray], ...]  # (mode_index, orthonormal values)

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def matched_modes(self) -> tuple[int, ...]:
        return tuple(p.mode_index for p in self.pairs if p.u1 is not None and p.u2 is not None)

    def overlaps(self, f: np.ndarray) -> np.ndarray:
        return np.array([self.G.h * np.sum(np.asarray(f[mode]) * vec) for mode, vec in self.basis])

    def project_off(self, f: np.ndarray) -> np.ndarray:
        out = np.array(_inexact(f))
        for mode, vec in self.basis:
            out[mode] -= (self.G.h * np.sum(out[mode] * vec)) * vec
        return out

    def flat_basis(self) -> np.ndarray:
        """Orthonormal kernel vectors flattened over (mode, grid)."""
        n = self.G.n_points
        out = np.zeros((len(self.basis), len(self.G.modes) * n))
        for k, (mode, vec) in enumerate(self.basis):
            out[k, mode * n : (mode + 1) * n] = vec
        return out


def substitute_kernel(
    G: GluedOperator,
    kd1: BlockKernelData | None = None,
    kd2: BlockKernelData | None = None,
) -> SubstituteKernel:
    """Shoot both blocks at the glued step and keep the crossfaded matched
    pairs: one kernel direction per mode where both traces are bounded
    (normalized to the shared constant), plus any decaying elements.

    The shooting reach is extended to cover the whole glued grid, so the
    transplanted sections are exact discrete solutions everywhere and no
    affine-continuation seam pollutes the crossfade."""
    span = 2 * G.T + G.L1 + G.L2
    if kd1 is None:
        kd1 = block_kernel(G.block1, G.spec, G.q, h=G.h, reach=span)
    if kd2 is None:
        kd2 = block_kernel(G.block2, G.spec, G.q, h=G.h, reach=span)
    by_mode1 = {e.mode_index: e for e in kd1.elements}
    by_mode2 = {e.mode_index: e for e in kd2.elements}
    pairs = []
    for i in sorted(by_mode1):
        e1, e2 = by_mode1[i], by_mode2[i]
        for e, slot in ((e1, 1), (e2, 2)):
            if e.decaying:
                pairs.append(matching_pair(G, e if slot == 1 else None,
                                           e if slot == 2 else None))
        if e1.bounded and not e1.decaying and e2.bounded and not e2.decaying:
            pair = matching_pair(G, _unit_trace(e1), _unit_trace(e2))
            if pair.matched_at_T:
                pairs.append(pair)
    basis = []
    for p in pairs:
        vec = np.array(p.glued_section, dtype=float)
        for mode, prev in basis:
            if mode == p.mode_index:
                vec -= G.h * np.sum(vec * prev) * prev
        nrm = math.sqrt(G.h * float(np.sum(vec * vec)))
        if nrm < 1e-12:
            raise AnalysisError("substitute kernel elements are linearly dependent")
        basis.append((p.mode_index, vec / nrm))
    return SubstituteKernel(G=G, pairs=tuple(pairs), kernel1=kd1, kernel2=kd2,
                            basis=tuple(basis))


# ---------------------------------------------------------------------------
# the cylinder-model solve on the glued grid


def _positive_mode_cylinder(f: np.ndarray, nu: float, h: float) -> np.ndarray:
    # padded symmetric positive definite solve of every column of f; every
    # retained interior row is reproduced exactly and the pad pushes the
    # closure artifacts under e^{-sqrt(nu) * 33/sqrt(nu)} = e^{-33}
    import scipy.linalg
    pad = min(int(math.ceil(33.0 / (math.sqrt(nu) * h))), 8000)
    n = len(f)
    ab = np.zeros((2, n + 2 * pad))
    ab[0] = nu + 2.0 / h**2
    ab[1, :-1] = -1.0 / h**2
    rhs = np.zeros((n + 2 * pad,) + f.shape[1:], dtype=f.dtype)
    rhs[pad : pad + n] = f
    sol = scipy.linalg.solveh_banded(ab, rhs, lower=True)
    return sol[pad : pad + n]


def cylinder_solve(G: GluedOperator, f0: np.ndarray) -> np.ndarray:
    """Mode-by-mode inverse of the free cylinder operator on the glued
    grid; every interior stencil row of the result reproduces f0 exactly.
    The positive modes of one family share one banded solve."""
    t = G.grid()
    f0 = _inexact(f0)
    out = np.zeros((len(G.modes), G.n_points), dtype=f0.dtype)
    for members in G.families:
        m = G.modes[members[0]]
        if not m.is_zero_mode:
            out[members] = _positive_mode_cylinder(f0[members].T, m.nu, G.h).T
            continue
        for i in members:
            out[i] = _laplace_zero_inverse(f0[i].real, t, G.h)
            if np.iscomplexobj(f0):
                out[i] += 1j * _laplace_zero_inverse(f0[i].imag, t, G.h)
    return out


# ---------------------------------------------------------------------------
# the characteristic system


@dataclass(frozen=True)
class CharacteristicSystem:
    """Rows pair trace data against transplanted shooting elements through
    the neck commutator; columns run over a fixed complement of the
    matched trace directions (the b coefficient of every zero mode, plus
    the a coefficient of the unmatched ones)."""

    G: GluedOperator
    columns: tuple[tuple[int, str], ...]
    matrix: np.ndarray
    rhs: np.ndarray
    rank: int
    cylinder: np.ndarray  # the unwindowed neck solve the rows pair against


@dataclass(frozen=True)
class CharacteristicSolution:
    coefficients: np.ndarray
    consistency: float
    rank: int


def _commutator_apply(G: GluedOperator, w: np.ndarray, mode_index: int,
                      g: np.ndarray) -> np.ndarray:
    """[P, w] g on one mode row; supported on the crossfade ramp, where the
    glued operator is the free cylinder."""
    return G.apply_mode(mode_index, w * g) - w * G.apply_mode(mode_index, g)


def characteristic_system(
    G: GluedOperator,
    S: SubstituteKernel,
    f: np.ndarray,
    expected_rank: int | None = None,
) -> CharacteristicSystem:
    """Green's identity on each block region reduces P u = f to a linear
    system for the affine trace correction v at the neck.

    Row of element g (block i, window w = w1 or 1 - w1):
        <v, [P, w] g~> = <f, w g~> - <zeta0 u0, [P, w] g~>,
    with u0 the cylinder solve of zeta1 f, the round's one neck solve, kept
    unwindowed as ``cylinder``. The left side is an exact discrete
    Wronskian of the traces, so the entries are chi-independent.
    """
    f = _inexact(f)
    t = G.grid()
    w1, zeta0, zeta1 = neck_windows(G)
    cyl = cylinder_solve(G, f * zeta1)
    matched = set(S.matched_modes())
    columns = []
    for mi in (i for i, m in enumerate(G.modes) if m.is_zero_mode):
        if mi not in matched:
            columns.append((mi, "a"))
        columns.append((mi, "b"))
    col_of = {c: k for k, c in enumerate(columns)}
    ones = np.ones_like(t)
    rows = []
    rhs = []
    for which, kd in ((1, S.kernel1), (2, S.kernel2)):
        w = w1 if which == 1 else 1.0 - w1
        for el in kd.elements:
            g = transplant(G, which, el)
            comm = _commutator_apply(G, w, el.mode_index, g)
            row = np.zeros(len(columns), dtype=f.dtype)
            if (el.mode_index, "a") in col_of:
                row[col_of[(el.mode_index, "a")]] = G.h * np.sum(ones * np.conj(comm))
            row[col_of[(el.mode_index, "b")]] = G.h * np.sum(t * np.conj(comm))
            rows.append(row)
            rhs.append(
                G.h * np.sum(f[el.mode_index] * np.conj(w * g))
                - G.h * np.sum(cyl[el.mode_index] * zeta0 * np.conj(comm))
            )
    A = np.array(rows) if rows else np.zeros((0, len(columns)))
    b = np.array(rhs) if rhs else np.zeros(0, dtype=f.dtype)
    if A.size:
        smax = float(np.max(np.abs(np.linalg.svd(A, compute_uv=False))))
        rank = int(np.linalg.matrix_rank(A, tol=1e-10 * max(smax, 1.0)))
    else:
        rank = 0
    if expected_rank is not None and rank < expected_rank:
        raise DegenerateSystemError(
            f"characteristic system rank dropped to {rank} (expected {expected_rank})"
        )
    return CharacteristicSystem(G=G, columns=tuple(columns), matrix=A, rhs=b, rank=rank,
                                cylinder=cyl)


def characteristic_solve(sys: CharacteristicSystem) -> CharacteristicSolution:
    """Minimum-norm least squares solution; the residual measures the
    inconsistency, i.e. the component of the source pairing with the
    global kernel."""
    if sys.matrix.size == 0:
        return CharacteristicSolution(np.zeros(0, dtype=sys.rhs.dtype),
                                      float(np.linalg.norm(sys.rhs)), sys.rank)
    v, *_ = np.linalg.lstsq(sys.matrix, sys.rhs, rcond=None)
    consistency = float(np.linalg.norm(sys.matrix @ v - sys.rhs))
    return CharacteristicSolution(coefficients=v, consistency=consistency, rank=sys.rank)


def _trace_grid(sys: CharacteristicSystem, coeffs: np.ndarray) -> np.ndarray:
    """Realize a coefficient vector as affine rows a + b t on the grid."""
    G = sys.G
    t = G.grid()
    out = np.zeros((len(G.modes), G.n_points), dtype=np.result_type(coeffs, float))
    for (mode, kind), c in zip(sys.columns, coeffs):
        out[mode] += c if kind == "a" else c * t
    return out


# ---------------------------------------------------------------------------
# block solves


def _block_subgrid(G: GluedOperator, which: int) -> tuple[slice, np.ndarray]:
    t = G.grid()
    if which == 1:
        j_cut = round((_CUT + G.T + G.L1) / G.h)
        return slice(0, j_cut), t[:j_cut]
    j_cut = round((G.T + G.L1 - _CUT) / G.h)
    return slice(j_cut, G.n_points), t[j_cut:]


def _block_matrix(G: GluedOperator, which: int, mode_index: int,
                  t_sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal block operator on the subgrid with the unfaded potential
    and a slope-zero closure at the cut."""
    m = G.modes[mode_index]
    block = G.block1 if which == 1 else G.block2
    n_sub = len(t_sub)
    s = t_sub + G.T + G.L1 if which == 1 else G.T + G.L2 - t_sub
    pot = block.potential_for(mode_index)
    v = pot.values(s, G.h) if pot is not None else np.zeros(n_sub)
    diag = m.nu + v + 2.0 / G.h**2
    outer = 0 if which == 1 else n_sub - 1
    cut = n_sub - 1 - outer
    diag[outer] = m.nu + v[outer] + _corner_value(block.boundary, G.h)
    diag[cut] = m.nu + v[cut] + 1.0 / G.h**2
    off = np.full(n_sub - 1, -1.0 / G.h**2)
    return diag, off


def _solve_tridiag(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    import scipy.linalg
    ab = np.zeros((3, len(diag)))
    ab[0, 1:] = off
    ab[1] = diag
    ab[2, :-1] = off
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


def _border_rows(g: np.ndarray):
    """Rows to shift in a bordered solve, at most _BORDER_ROWS of them by
    decreasing |g_k|, i.e. by decreasing 2 x 2 pivot [[B_kk, g_k], [g_k, 0]]
    (Bunch & Kaufman 1977): k = argmax |g| first, the rest sorted only if
    that row fails. Then the two end rows, if not tried yet: a kernel
    vector of a tridiagonal B with nonzero off-diagonals is never zero at
    an end row, so a shift there leaves C nonsingular even when B's kernel
    vanishes on every row of large |g|."""
    a = np.abs(g)
    yield int(np.argmax(a))
    tried = [int(k) for k in np.argsort(-a, kind="stable")[:_BORDER_ROWS]]
    yield from tried[1:]
    yield from (k for k in dict.fromkeys((0, len(g) - 1)) if k not in tried)


def _solve_bordered(diag: np.ndarray, off: np.ndarray, border: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
    """Solve [[B, g], [g^T, 0]] [u; lam] = [rhs; 0] in O(n) for a (near-)
    singular symmetric tridiagonal B with kernel direction g.

    Banded solves use the shifted C = B + sigma e_k e_k^T, |sigma| =
    max |diag B| (max |offdiag B| on a zero diagonal). The first try takes
    k = argmax |g|, the row whose 2 x 2 pivot [[B_kk, g_k], [g_k, 0]] is
    largest, and sigma signed like B_kk; C is then nonsingular when g spans
    the kernel of B. A regular bordered matrix can still leave that C
    singular. With B = [[1, sqrt 2], [sqrt 2, 1]] and g = e_0, C's pivot at
    k, 1/(B^-1)_kk + sigma, cancels, and the other sign of sigma cures it.
    With B = diag([[-1, 1/3], [1/3, 2]], 0) and g = (1, 1, 1)/2, a shift at
    row 0 or 1 leaves the zero row, and only a shift at row 2 cures it. So
    a try whose result fails the certificate is followed by the other sign
    of sigma, then by the other rows of ``_border_rows``; the first
    certified try wins, and if none is certified the first try's error is
    raised.
    """
    g = np.asarray(border)
    scale = float(np.max(np.abs(diag))) or float(np.max(np.abs(off), initial=0.0))
    first = None
    for k in _border_rows(g):
        for sign in (1.0, -1.0):
            sigma = sign * math.copysign(scale, float(diag[k]))
            try:
                return _shifted_bordered(diag, off, g, rhs, k, sigma)
            except AnalysisError as exc:
                first = first or exc
    raise first


def _shifted_bordered(diag: np.ndarray, off: np.ndarray, g: np.ndarray, rhs: np.ndarray,
                      k: int, sigma: float) -> np.ndarray:
    """One try of ``_solve_bordered`` with C = B + sigma e_k e_k^T.

    C u = rhs + sigma mu e_k - lam g with mu = u_k and g^T u = 0 is a 2 x 2
    system for (mu, lam) in C^-1 e_k and C^-1 g (C is symmetric). u comes
    from one more solve, not from the sum of the three solutions, whose
    cancelling rounding noise B would amplify by 4/h^2. A normwise backward
    error or |g^T u| / (|g| |u|) above _BORDER_TOL, as from an
    ill-conditioned C, raises AnalysisError. So does a u too large for the
    bordered matrix K to be regular at working precision: ||K|| ||x|| / ||rhs||
    bounds cond(K) from below, and a try on a singular K is still backward
    stable, returning a huge x along the kernel with a tiny backward error.
    """
    shifted = np.array(diag, dtype=float)
    shifted[k] += sigma
    unit = np.zeros(len(g))
    unit[k] = 1.0
    try:
        xe, xg = _solve_tridiag(shifted, off, np.column_stack([unit, g])).T
        mu, lam = np.linalg.solve([[1.0 - sigma * xe[k], xg[k]], [sigma * xg[k], -(g @ xg)]],
                                  [xe @ rhs, -(xg @ rhs)])
        u = _solve_tridiag(shifted, off, rhs - lam * g + sigma * mu * unit)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError(f"bordered block solve failed: {exc}") from exc
    u -= (g @ u) / (g @ g) * g  # g^T u is left at cond(C) eps, and B g ~ 0
    r = rhs - lam * g - stencil(diag, off, u)
    # backward error in the infinity norm; rows of [[B, g], [g^T, 0]] give its norm
    rows = np.abs(diag) + np.abs(g) + np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
    m_norm = max(np.max(rows), np.sum(np.abs(g)))
    kx = m_norm * max(np.max(np.abs(u)), abs(lam))
    size = kx + np.max(np.abs(rhs))
    tiny = np.finfo(float).tiny
    backward = max(np.max(np.abs(r)), abs(g @ u)) / max(size, tiny)
    orth = abs(g @ u) / max(np.linalg.norm(g) * np.linalg.norm(u), tiny)
    if not (backward <= _BORDER_TOL and orth <= _BORDER_TOL):
        raise AnalysisError(f"bordered block solve not certified: backward error {backward:.3e}, "
                            f"|g^T u| / (|g| |u|) = {orth:.3e} (tolerance {_BORDER_TOL:.0e})")
    cond = kx / max(np.max(np.abs(rhs)), tiny)
    if cond * np.finfo(float).eps > 10.0**-_BORDER_DIGITS:
        raise AnalysisError(f"bordered block solve refused: ||K|| ||x|| / ||rhs|| = {cond:.3e} "
                            f"leaves fewer than {_BORDER_DIGITS} digits; K is numerically singular")
    return u


def _block_solve(G: GluedOperator, S: SubstituteKernel, which: int, members: list[int],
                 rows: np.ndarray, t_sub: np.ndarray) -> np.ndarray:
    """Slope-zero block solves of a mode family's (k, n_sub) rows. The
    members of a family with a bounded kernel element share its border and
    are solved bordered one at a time."""
    diag, off = _block_matrix(G, which, members[0], t_sub)
    kd = S.kernel1 if which == 1 else S.kernel2
    bounded = next(
        (e for e in kd.elements if e.mode_index == members[0] and e.bounded), None
    )
    if bounded is None:
        return _solve_tridiag(diag, off, rows.T).T
    g = transplant(G, which, bounded)[_block_subgrid(G, which)[0]]
    edge_len = round(1.0 / G.h)
    edge = slice(-edge_len, None) if which == 1 else slice(None, edge_len)
    scale = float(np.mean(g[edge].real))
    out = np.empty_like(rows)
    for k, row in enumerate(rows):
        u = _solve_bordered(diag, off, g, row)
        # remove the kernel multiple so the plateau at the cut is zero and the
        # crossfade transports nothing
        if abs(scale) > 1e-8:
            u = u - (np.mean(u[edge]) / scale) * g
        out[k] = u
    return out


# ---------------------------------------------------------------------------
# approximate and exact solves


def approx_solve(
    G: GluedOperator,
    S: SubstituteKernel,
    f: np.ndarray,
    check_orthogonality: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """One pass of the gluing construction: returns (u, e) with
    e = f - P_T u of relative size e^{-delta T}.

    Pipeline: the characteristic system's cylinder solve of the source
    windowed to the neck (zeta1), plus the affine trace v it picks
    (cancelling the block obstructions), then block solves with slope-zero
    closures, crossfade, and projection off the substitute kernel. The
    block solves run once per block and ``G.families`` entry.
    """
    f = _inexact(f)
    if not f.any():
        return np.zeros_like(f), np.zeros_like(f)
    if check_orthogonality:
        nf = norm(G, f)
        ov = np.abs(S.overlaps(f))
        if ov.size and float(np.max(ov)) > 1e-6 * nf:
            raise NotOrthogonalError(
                f"source overlaps the substitute kernel: |<f, k>| = {float(np.max(ov)):.3e}"
                f" > 1.0e-06 * ||f|| = {1e-6 * nf:.3e}"
            )
    w1, zeta0, _ = neck_windows(G)
    sys = characteristic_system(G, S, f)
    v = characteristic_solve(sys)
    trace = _trace_grid(sys, v.coefficients)
    # (cylinder + trace) * zeta0 in the cylinder's own buffer, which sys gives
    # up: a fresh sum holds one more (modes x n) array at the round's peak
    u_neck = sys.cylinder
    del sys
    u_neck += trace
    del trace
    u_neck *= zeta0
    r = f - G.apply(u_neck)
    blocks = [(1, w1, *_block_subgrid(G, 1)), (2, 1.0 - w1, *_block_subgrid(G, 2))]
    for members in G.families:
        add = np.zeros((len(members), G.n_points), dtype=f.dtype)
        for which, weight, sub, t_sub in blocks:
            add[:, sub] += weight[sub] * _block_solve(G, S, which, members, r[members, sub], t_sub)
        u_neck[members] += add
    # the last apply is the memory peak of a round; free two (modes x n) arrays first
    del r
    u = S.project_off(u_neck)
    del u_neck
    return u, f - G.apply(u)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the correction iteration: f = P_T u + w + residual with
    u orthogonal to the substitute kernel and w inside it."""

    u: np.ndarray
    w: np.ndarray
    iterations: int
    contraction: tuple[float, ...]
    residuals: tuple[float, ...]
    residual: float


def solve_exact(
    G: GluedOperator,
    S: SubstituteKernel,
    f: np.ndarray,
    rtol: float = 1e-9,
) -> SolveReport:
    """Iterate approx_solve on residuals, projecting each round's source
    off the substitute kernel, until ||f - P u - w|| <= rtol ||f||."""
    f = _inexact(f)
    nf = norm(G, f)
    if nf == 0:
        return SolveReport(np.zeros_like(f), np.zeros_like(f), 0, (), (), 0.0)
    u = np.zeros_like(f)
    w = np.zeros_like(f)
    fn = f
    etas: list[float] = []
    residuals: list[float] = []
    for it in range(1, 81):
        src = fn.copy()  # only the kernel-bearing rows move
        for mode in {m for m, _ in S.basis}:
            wn = sum((G.h * np.sum(fn[mode] * vec)) * vec for m, vec in S.basis if m == mode)
            w[mode] += wn
            src[mode] -= wn
        n_src = norm(G, src)
        if n_src <= rtol * nf:
            return SolveReport(u, w, it - 1, tuple(etas), tuple(residuals), n_src / nf)
        un, fn = approx_solve(G, S, src, check_orthogonality=False)
        u += un
        n_fn = norm(G, fn)
        etas.append(n_fn / n_src)
        residuals.append(n_fn / nf)
        if n_fn <= rtol * nf:
            return SolveReport(S.project_off(u), w, it, tuple(etas), tuple(residuals), n_fn / nf)
        if len(etas) >= 2 and etas[-1] >= 1.0 and etas[-2] >= 1.0:
            raise NoContractionError(max(etas[-2:]))
    raise AnalysisError("correction iteration did not converge in 80 rounds")


def solve_direct(G: GluedOperator, S: SubstituteKernel, f: np.ndarray) -> np.ndarray:
    """Direct solve of the glued matrices per ``G.families`` entry; each
    member of a (near-)singular family is solved bordered by its substitute
    kernel direction, one at a time."""
    f = _inexact(f)
    out = np.zeros_like(f)
    borders: dict[int, list[np.ndarray]] = {}
    for mode, vec in S.basis:
        borders.setdefault(mode, []).append(vec)
    for members in G.families:
        diag, off = G.mats[members[0]]
        if members[0] in borders:
            for i in members:
                (g,) = borders[i]
                out[i] = _solve_bordered(diag, off, g, f[i])
        else:
            out[members] = _solve_tridiag(diag, off, f[members].T).T
    return S.project_off(out)


def solve_report_csv(G: GluedOperator, report: SolveReport, f: np.ndarray) -> str:
    ratio = norm(G, report.u) / norm(G, f)
    lines = ["T,iter,residual,eta,u_norm_over_f_norm"]
    for k in range(report.iterations):
        lines.append(
            f"{format_real(G.T)},{k + 1},{format_real(report.residuals[k])},"
            f"{format_real(report.contraction[k])},{format_real(ratio)}"
        )
    return "\n".join(lines) + "\n"
