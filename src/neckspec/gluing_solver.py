"""Solvers on the glued grid: the substitute kernel, the characteristic
system at the neck, and the correction iteration.

The route mirrors the cylinder calculus. A source is windowed to the
neck and inverted there per mode family with discrete-exact inverses;
the characteristic system then picks the affine trace correction v that
cancels the block obstructions; the leftover residual (supported in the
block regions) is removed by slope-zero block solves; crossfading the
pieces leaves a defect of size e^{-delta T}, which the exact solver
drives below tolerance by iteration. Every stage is block diagonal in
the mode families, so a pass can run on any subset of them, and after
the zero-mode neck solve and its trace correction it carries one family
at a time through all the rest, on that family's rows alone.

All inner products are the grid pairing h * sum(x conj(y)) over every
mode row, and "orthogonal to the kernel" always means this pairing. The
glued matrices are real, and every solver works in the source's dtype.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    AnalysisError,
    ContractViolation,
    NoContractionError,
    NotOrthogonalError,
)
from .glued_model import (
    KERNEL_TOL,
    NEUMANN,
    BlockMarch,
    GluedOperator,
    ShootingElement,
    block_kernel,
    mode_diagonal,
    stencil,
)
from .ioutil import format_real
from .neck_inverse import _laplace_zero_inverse
from .polyhom import CutoffFunction

_CUT = 2.0  # block subgrids reach this far past the neck center
_BORDER_TOL = 1e-10  # certificate of every bordered block solve
_BORDER_DIGITS = 6  # significant digits a bordered solve must keep: eps cond <= 1e-6
_BORDER_ROWS = 4  # rows a bordered solve tries to shift before it refuses
RTOL = 1e-9  # solve_exact stops at ||f - P u - w|| <= RTOL ||f||


def _inexact(x) -> np.ndarray:
    x = np.asarray(x)  # in its own dtype, promoted to at least float64
    return x.astype(np.result_type(x, float), copy=False)


def _abs2(x: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(x):
        a = np.abs(x)
        a *= a
        return a
    return x * x  # |x|^2 bit for bit, in one pass


def norm(G: GluedOperator, x: np.ndarray) -> float:
    return math.sqrt(G.h * float(np.sum(_abs2(x))))


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
    """The glued-grid row of a shooting element shot over the whole glued
    span: its first n samples, read in place for block 1 and copied
    reversed for block 2. A copy, not a reversed view, keeps every sum over
    the row in grid order."""
    if abs(element.h - G.h) > 1e-12:
        raise ContractViolation("element was shot at a different step than the glued grid")
    n = G.n_points
    if len(element.samples) < n:
        raise ContractViolation(
            f"element was shot over {len(element.samples)} points, fewer than the {n} "
            "points of the glued grid"
        )
    return element.samples[:n] if which == 1 else element.samples[n - 1 :: -1].copy()


# ---------------------------------------------------------------------------
# the substitute kernel


@dataclass(frozen=True)
class SubstituteKernel:
    """Basis of the glued kernel built from matched block elements, and
    the data of a correction round that depends only on G and the block
    kernels, built once by ``substitute_kernel``: the neck windows
    (w1, zeta0, zeta1) of ``neck_windows``, each block's slope-zero solve
    data, and each kernel element's characteristic row. Every array is
    read-only."""

    G: GluedOperator
    basis: tuple[tuple[int, np.ndarray], ...]  # (mode_index, orthonormal values)
    matched: frozenset[int]  # modes whose two bounded traces continue each other
    windows: tuple[np.ndarray, np.ndarray, np.ndarray]
    blocks: tuple[_BlockSide, _BlockSide]
    pairings: tuple[_Pairing, ...]  # block 1's elements, then block 2's, by mode

    @property
    def dim(self) -> int:
        return len(self.basis)

    def overlaps(self, f: np.ndarray) -> np.ndarray:
        return np.array([self.G.h * np.sum(np.asarray(f[mode]) * vec) for mode, vec in self.basis])

    def project_off(self, f: np.ndarray) -> np.ndarray:
        return self._project_in_place(np.array(_inexact(f)))

    def _project_in_place(self, out: np.ndarray) -> np.ndarray:
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


@dataclass(frozen=True)
class _BlockSide:
    """One block's slope-zero solves: its subgrid ``sub`` of the glued
    grid, the crossfade weight there, the off-diagonal -1/h^2 every family
    shares, and per mode the diagonal and, for a mode with a bounded
    kernel element, that element's border on the subgrid with the
    border's mean over ``edge``, the unit next to the cut. The members of
    a mode family share one diagonal and one border."""

    sub: slice
    weight: np.ndarray
    edge: slice
    off: np.ndarray
    diags: dict[int, np.ndarray]
    borders: dict[int, tuple[np.ndarray, float]]


@dataclass(frozen=True)
class _Pairing:
    """A transplanted kernel element g~ of one block, with its window w
    (w1 for block 1, 1 - w1 for block 2), as its characteristic row reads
    it: the entries h sum conj([P, w] g~) of column a and
    h sum t conj([P, w] g~) of column b, and the vectors w g~ and
    [P, w] g~ the row's right side pairs against. Both vectors are real,
    so each is its own conjugate."""

    mode_index: int
    a: float
    b: float
    window_g: np.ndarray
    commutator: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def substitute_kernel(G: GluedOperator,
                      marches: tuple[BlockMarch, BlockMarch] | None = None) -> SubstituteKernel:
    """Shoot both blocks at the glued step and crossfade their elements,
    mode by mode: each decaying element gives a kernel direction alone,
    and a mode whose two elements are bounded and not decaying gives one
    when their traces, normalized to the constant 1, continue each other
    through the neck (for bounded traces this is independent of T).

    The shooting reach is extended to cover the whole glued grid, so each
    transplanted section is an exact discrete solution everywhere. Given
    ``marches``, the two blocks' ``BlockMarch`` of G's degree, cutoff and
    step to at least the glued span, the blocks are not shot again: each
    kernel is read off its march's prefix.

    The windows, block solve data and characteristic rows are built here,
    once per operator, so that a correction round does only the work its
    source asks for, and before any source is allocated."""
    span = 2 * G.T + G.L1 + G.L2
    march1, march2 = (None, None) if marches is None else marches
    kd1 = block_kernel(G.block1, G.spec, G.q, h=G.h, cutoff=G.cutoff, reach=span, march=march1)
    kd2 = block_kernel(G.block2, G.spec, G.q, h=G.h, cutoff=G.cutoff, reach=span, march=march2)
    windows = tuple(_read_only(w) for w in neck_windows(G))
    w1 = windows[0]
    w2 = _read_only(1.0 - w1)
    sections = []
    matched = set()
    for e1, e2 in zip(kd1, kd2):
        if e1.decaying:
            sections.append((e1.mode_index, w1 * transplant(G, 1, e1)))
        if e2.decaying:
            sections.append((e2.mode_index, w2 * transplant(G, 2, e2)))
        if not (e1.bounded and not e1.decaying and e2.bounded and not e2.decaying):
            continue
        # the unit traces in the glued coordinate t: block 1 gives
        # (1 + b1 (T+L1)) + b1 t, block 2 gives (1 + b2 (T+L2)) - b2 t
        b1, b2 = e1.b / e1.a, e2.b / e2.a
        a1, a2 = 1.0 + b1 * (G.T + G.L1), 1.0 + b2 * (G.T + G.L2)
        scale = max(1.0, abs(a1), abs(a2), (abs(b1) + abs(b2)) * G.T)
        if abs(a1 - a2) <= KERNEL_TOL * scale and abs(b1 + b2) <= KERNEL_TOL * scale:
            # the samples cover the grid, so transplant / a is the unit trace's transplant
            sections.append((e1.mode_index, w1 * (transplant(G, 1, e1) / e1.a)
                             + w2 * (transplant(G, 2, e2) / e2.a)))
            matched.add(e1.mode_index)
    basis = []
    for mode, vec in sections:
        for prev_mode, prev in basis:
            if prev_mode == mode:
                vec -= G.h * np.sum(vec * prev) * prev
        nrm = math.sqrt(G.h * float(np.sum(vec * vec)))
        if nrm < 1e-12:
            raise AnalysisError("substitute kernel elements are linearly dependent")
        basis.append((mode, vec / nrm))
    return SubstituteKernel(
        G=G, basis=tuple(basis), matched=frozenset(matched), windows=windows,
        blocks=(_block_side(G, 1, kd1, w1), _block_side(G, 2, kd2, w2)),
        pairings=tuple(_pairing(G, which, el, w)
                       for which, kd, w in ((1, kd1, w1), (2, kd2, w2)) for el in kd),
    )


def _block_side(G: GluedOperator, which: int, kd: tuple[ShootingElement, ...],
                weight: np.ndarray) -> _BlockSide:
    sub, t_sub = _block_subgrid(G, which)
    edge_len = round(1.0 / G.h)
    edge = slice(-edge_len, None) if which == 1 else slice(None, edge_len)
    bounded = {e.mode_index: e for e in kd if e.bounded}
    diags, borders = {}, {}
    # the members of a family shoot one ODE, so they share their elements' samples
    for members in G.families:
        diags.update(dict.fromkeys(members, _read_only(_block_matrix(G, which, members[0], t_sub))))
        if members[0] in bounded:
            g = _read_only(transplant(G, which, bounded[members[0]])[sub])
            borders.update(dict.fromkeys(members, (g, float(np.mean(g[edge].real)))))
    return _BlockSide(sub=sub, weight=_read_only(weight[sub]), edge=edge,
                      off=_read_only(np.full(len(t_sub) - 1, -1.0 / G.h**2)),
                      diags=diags, borders=borders)


def _pairing(G: GluedOperator, which: int, el: ShootingElement, w: np.ndarray) -> _Pairing:
    g = transplant(G, which, el)
    comm = _read_only(_commutator_apply(G, w, el.mode_index, g))
    return _Pairing(mode_index=el.mode_index, a=G.h * np.sum(comm), b=G.h * np.sum(G.grid() * comm),
                    window_g=_read_only(w * g), commutator=comm)


# ---------------------------------------------------------------------------
# the cylinder-model solve on the glued grid


def _lapack_tridiag(name: str, bands: tuple[np.ndarray, ...], rhs: np.ndarray) -> np.ndarray:
    """Solve with LAPACK's ?gtsv (bands dl, d, du) or ?ptsv (bands d, e),
    called directly: z for a complex rhs, d otherwise, as scipy's
    ``solve_banded`` and ``solveh_banded`` pick them, and the same bits,
    without their band array, finiteness scan and batch wrapper. An empty
    rhs and n = 1 are handled as ``solve_banded`` handles them (f2py
    refuses an empty off-diagonal). A zero pivot, or for ptsv a pivot
    that is not positive, raises LinAlgError."""
    from scipy.linalg import lapack
    diag = bands[0] if name == "ptsv" else bands[1]
    if rhs.size == 0:
        return np.empty_like(rhs, dtype=np.result_type(diag, rhs))
    if len(diag) == 1:
        x = np.array(rhs)
        x /= diag[0]
        return x
    *_, x, info = getattr(lapack, ("z" if np.iscomplexobj(rhs) else "d") + name)(*bands, rhs)
    if info > 0:
        raise np.linalg.LinAlgError(f"?{name}: singular matrix (pivot {info})")
    return x


def _positive_mode_cylinder(f: np.ndarray, nu: float, h: float) -> np.ndarray:
    # nu - D_h^2 = (1 - r S)(1 - r S^-1) / (r h^2) with r + 1/r = 2 + h^2 nu,
    # r < 1 the decaying root; the ghost u_{-1} = r u_0 (and its mirror) at
    # the ends makes every column the exact infinite-grid inverse of f
    # padded by zeros (discrete transparent boundary condition)
    a = 0.5 * h**2 * nu
    r = 1.0 / (1.0 + a + math.sqrt(a * (2.0 + a)))  # no cancellation as nu -> 0
    d = np.full(len(f), nu + 2.0 / h**2)
    d[[0, -1]] -= r / h**2
    return _lapack_tridiag("ptsv", (d, np.full(len(f) - 1, -1.0 / h**2)), f)


def _families(G: GluedOperator, families: Sequence[list[int]] | None) -> Sequence[list[int]]:
    """``families``, all of ``G.families`` by default. An entry that is not
    an entry of ``G.families`` is refused, as it would be solved with its
    first member's matrix on every row."""
    if families is None or families is G.families:
        return G.families
    known = {tuple(members) for members in G.families}
    for members in families:
        if tuple(members) not in known:
            raise ContractViolation(f"{list(members)} is not a mode family of the glued operator")
    return families


def _family_rows(members: list[int]) -> list[int] | slice:
    """The index of a family's rows: a slice, which reads a view, when the
    members are one contiguous run, else the list, which reads a copy."""
    first = members[0]
    if members == list(range(first, first + len(members))):
        return slice(first, first + len(members))
    return members


def _neck_solve(G: GluedOperator, f0: np.ndarray, members: list[int]) -> np.ndarray:
    """The cylinder solve of one family's windowed source rows f0, a
    (k, n) array it may overwrite: one banded solve for a positive family,
    the moment kernels row by row, in place, for a zero-mode one."""
    m = G.modes[members[0]]
    if not m.is_zero_mode:
        return _positive_mode_cylinder(f0.T, m.nu, G.h).T
    for row in f0:
        row[:] = _laplace_zero_inverse(row, G.grid(), G.h)
    return f0


def cylinder_solve(G: GluedOperator, f: np.ndarray, window: np.ndarray | float,
                   families: Sequence[list[int]] | None = None) -> np.ndarray:
    """Mode-by-mode inverse of the free cylinder operator on the infinite
    grid, applied to f0 = window * f (a grid array or a scalar) continued
    by zeros. Every row of the result, the two end rows included,
    reproduces f0 exactly with the ghost values the infinite-grid solution
    takes past the ends: positive modes decay both ways, zero modes vanish
    left of the support. The positive modes of one family share one
    banded solve. f0 is formed family by family, so no windowed copy of
    the whole source is held. Only the rows of ``families`` (all of
    ``G.families`` by default) are solved; the others are zero."""
    families = _families(G, families)
    f = _inexact(f)
    out = np.zeros((len(G.modes), G.n_points), dtype=f.dtype)
    for members in families:
        rows = _family_rows(members)
        out[rows] = _neck_solve(G, f[rows] * window, members)
    return out


# ---------------------------------------------------------------------------
# the characteristic system


@dataclass(frozen=True)
class CharacteristicSystem:
    """Rows pair trace data against transplanted shooting elements through
    the neck commutator; columns run over a fixed complement of the
    matched trace directions (the b coefficient of every zero mode, plus
    the a coefficient of the unmatched ones)."""

    columns: tuple[tuple[int, str], ...]
    matrix: np.ndarray
    rhs: np.ndarray
    cylinder: np.ndarray  # the unwindowed neck solve the rows pair against


@dataclass(frozen=True)
class CharacteristicSolution:
    coefficients: np.ndarray
    consistency: float


def _commutator_apply(G: GluedOperator, w: np.ndarray, mode_index: int,
                      g: np.ndarray) -> np.ndarray:
    """[P, w] g on one mode row; supported on the crossfade ramp, where the
    glued operator is the free cylinder."""
    return G.apply_mode(mode_index, w * g) - w * G.apply_mode(mode_index, g)


def characteristic_system(G: GluedOperator, S: SubstituteKernel, f: np.ndarray,
                          families: Sequence[list[int]] | None = None) -> CharacteristicSystem:
    """Green's identity on each block region reduces P u = f to a linear
    system for the affine trace correction v at the neck.

    Row of element g (block i, window w = w1 or 1 - w1):
        <v, [P, w] g~> = <f, w g~> - <zeta0 u0, [P, w] g~>,
    with u0 the cylinder solve of zeta1 f, the round's one neck solve, kept
    unwindowed as ``cylinder``. [P, w] g~ lives on the crossfade ramp
    |t| <= 1/2 + h, where zeta0 is exactly 1, so the product with zeta0 is
    left out. The left side is an exact discrete Wronskian of the traces,
    so the entries are chi-independent.

    A row and its columns belong to one zero mode, so the system restricted
    to the modes of ``families`` (all of ``G.families`` by default) is the
    system of those rows alone.
    """
    families = _families(G, families)
    f = _inexact(f)
    cyl = cylinder_solve(G, f, S.windows[2], families)
    columns = []
    for mi in sorted(i for members in families if G.modes[members[0]].is_zero_mode
                     for i in members):
        if mi not in S.matched:
            columns.append((mi, "a"))
        columns.append((mi, "b"))
    col_of = {c: k for k, c in enumerate(columns)}
    rows = []
    rhs = []
    # every element is of a zero mode; those outside the families have no column
    for p in (p for p in S.pairings if (p.mode_index, "b") in col_of):
        row = np.zeros(len(columns), dtype=f.dtype)
        if (p.mode_index, "a") in col_of:
            row[col_of[(p.mode_index, "a")]] = p.a
        row[col_of[(p.mode_index, "b")]] = p.b
        rows.append(row)
        rhs.append(
            G.h * np.sum(f[p.mode_index] * p.window_g)
            - G.h * np.sum(cyl[p.mode_index] * p.commutator)
        )
    A = np.array(rows) if rows else np.zeros((0, len(columns)))
    b = np.array(rhs) if rhs else np.zeros(0, dtype=f.dtype)
    return CharacteristicSystem(columns=tuple(columns), matrix=A, rhs=b, cylinder=cyl)


def characteristic_solve(sys: CharacteristicSystem) -> CharacteristicSolution:
    """Minimum-norm least squares solution; the residual measures the
    inconsistency, i.e. the component of the source pairing with the
    global kernel."""
    if sys.matrix.size == 0:
        return CharacteristicSolution(np.zeros(0, dtype=sys.rhs.dtype),
                                      float(np.linalg.norm(sys.rhs)))
    v, *_ = np.linalg.lstsq(sys.matrix, sys.rhs, rcond=None)
    consistency = float(np.linalg.norm(sys.matrix @ v - sys.rhs))
    return CharacteristicSolution(coefficients=v, consistency=consistency)


# ---------------------------------------------------------------------------
# block solves


def _block_subgrid(G: GluedOperator, which: int) -> tuple[slice, np.ndarray]:
    t = G.grid()
    if which == 1:
        j_cut = round((_CUT + G.T + G.L1) / G.h)
        return slice(0, j_cut), t[:j_cut]
    j_cut = round((G.T + G.L1 - _CUT) / G.h)
    return slice(j_cut, G.n_points), t[j_cut:]


def _block_matrix(G: GluedOperator, which: int, mode_index: int, t_sub: np.ndarray) -> np.ndarray:
    """Diagonal of the tridiagonal block operator on the subgrid, with the
    unfaded potential and a slope-zero closure at the cut; its
    off-diagonal is the constant -1/h^2."""
    block = G.block1 if which == 1 else G.block2
    n_sub = len(t_sub)
    s = t_sub + G.T + G.L1 if which == 1 else G.T + G.L2 - t_sub
    pot = block.potential_for(mode_index)
    v = pot.values(s, G.h) if pot is not None else np.zeros(n_sub)
    # the slope-zero cut is a Neumann end
    ends = (block.boundary, NEUMANN) if which == 1 else (NEUMANN, block.boundary)
    return mode_diagonal(G.modes[mode_index].nu, v, G.h, *ends)


def _solve_tridiag(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return _lapack_tridiag("gtsv", (off, diag, off), rhs)


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


def _block_solve(side: _BlockSide, members: list[int], rows: np.ndarray) -> np.ndarray:
    """Slope-zero block solves of a mode family's (k, n_sub) rows. The
    members of a family with a bounded kernel element share its border and
    are solved bordered one at a time."""
    diag = side.diags[members[0]]
    if members[0] not in side.borders:
        return _solve_tridiag(diag, side.off, rows.T).T
    g, scale = side.borders[members[0]]
    out = np.empty_like(rows)
    for k, row in enumerate(rows):
        u = _solve_bordered(diag, side.off, g, row)
        # remove the kernel multiple so the plateau at the cut is zero and the
        # crossfade transports nothing
        if abs(scale) > 1e-8:
            u = u - (np.mean(u[side.edge]) / scale) * g
        out[k] = u
    return out


# ---------------------------------------------------------------------------
# approximate and exact solves


def approx_solve(
    G: GluedOperator,
    S: SubstituteKernel,
    f: np.ndarray,
    families: Sequence[list[int]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One pass of the gluing construction: returns (u, e) with
    e = f - P_T u of relative size e^{-delta T}.

    Pipeline: the characteristic system's cylinder solve of the zero-mode
    rows of the source windowed to the neck (zeta1), plus the affine trace
    v it picks (cancelling the block obstructions); then, one family at a
    time, the neck solve of a positive family, the window zeta0, the
    residual, block solves with slope-zero closures, crossfade, projection
    off the family's kernel rows and the family's rows of u and e. Each
    family's (k, n) rows go through the whole pass while they are in cache;
    a family of contiguous rows is read as a view.

    The pass runs on the rows of ``families`` (all of ``G.families`` by
    default). Every stage is block diagonal in the families and the
    kernel basis is per mode, so a subset is exact: on the other rows
    u = 0 and e = f. An entry that is not an entry of ``G.families`` is
    refused before any (modes x n) array is made.

    f is left as given. Beyond it a pass holds two (modes x n) arrays, the
    two it returns, u in the cylinder solve's buffer and e, plus one
    family's temporaries. A subset pass starts e as a copy of f.
    """
    families = _families(G, families)
    f = _inexact(f)
    worst = float(np.max(np.abs(S.overlaps(f)), initial=0.0))
    # ||f|| is at least the norm of the kernel modes' rows: the whole source
    # is summed only when an overlap exceeds the bound that norm sets
    if worst > 1e-6 * norm(G, f[sorted({mode for mode, _ in S.basis})]):
        nf = norm(G, f)
        if worst > 1e-6 * nf:
            raise NotOrthogonalError(
                f"source overlaps the substitute kernel: |<f, k>| = {worst:.3e}"
                f" > 1.0e-06 * ||f|| = {1e-6 * nf:.3e}"
            )
    sys = characteristic_system(
        G, S, f, [members for members in families if G.modes[members[0]].is_zero_mode])
    v = characteristic_solve(sys)
    # the trace a + b t lives on the zero-mode rows alone
    t = G.grid()
    traces: dict[int, np.ndarray] = {}
    for (mode, kind), c in zip(sys.columns, v.coefficients):
        row = traces.setdefault(mode, np.zeros(G.n_points, dtype=v.coefficients.dtype))
        row += c if kind == "a" else c * t
    u = sys.cylinder
    del sys
    for mode, row in traces.items():
        u[mode] += row
    # u is 0 on the rows outside the families, and a row there keeps e = f
    e = np.empty_like(u) if len(families) == len(G.families) else np.array(f)
    _, zeta0, zeta1 = S.windows
    for members in families:
        rows = _family_rows(members)
        fb = f[rows]
        # the zero-mode rows hold their cylinder solve plus trace already
        ub = u[rows] if G.modes[members[0]].is_zero_mode else _neck_solve(G, fb * zeta1, members)
        ub *= zeta0
        r = G.apply_mode(members[0], ub)
        np.subtract(fb, r, out=r)
        add = np.zeros_like(ub)
        for side in S.blocks:
            add[:, side.sub] += side.weight * _block_solve(side, members, r[:, side.sub])
        ub += add
        del r, add
        # projection off the family's kernel rows, in basis order
        for mode, vec in S.basis:
            if mode in members:
                k = members.index(mode)
                ub[k] -= (G.h * np.sum(ub[k] * vec)) * vec
        u[rows] = ub
        pu = G.apply_mode(members[0], ub)
        e[rows] = np.subtract(fb, pu, out=pu)
        # freed before the next family's are made: one family's temporaries at a time
        del fb, ub, pu
    return u, e


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the correction iteration: f = P_T u + w + residual with
    u orthogonal to the substitute kernel and w inside it. ``f_norm`` is
    ||f||, the scale of the relative residuals."""

    u: np.ndarray
    w: np.ndarray
    contraction: tuple[float, ...]
    residuals: tuple[float, ...]
    residual: float
    f_norm: float

    @property
    def iterations(self) -> int:
        """Rounds run: each appends its contraction."""
        return len(self.contraction)


def _rows(families: Sequence[list[int]]) -> list[int]:
    return [i for members in families for i in members]


def _family_norms(G: GluedOperator, a: np.ndarray) -> np.ndarray:
    """The norm of each ``G.families`` entry, from |x|^2 over the rows."""
    rows = np.sum(a, axis=1)
    return np.sqrt(G.h * np.array([np.sum(rows[members]) for members in G.families]))


def solve_exact(G: GluedOperator, S: SubstituteKernel, f: np.ndarray) -> SolveReport:
    """Iterate approx_solve on residuals, projecting each round's source
    off the substitute kernel, until ||f - P u - w|| <= RTOL ||f||.

    The first round solves every family. A later round solves only the
    families whose source norm is above RTOL ||f|| / (2 sqrt(m)), m the
    number of families: those left out hold at most RTOL ||f|| / 2
    together, so while the stop test, over all rows, fails, some family
    is solved. A non-finite source is refused.

    f is copied once, for the first round; every later source is the
    residual the previous round returned, whose kernel rows are moved to w
    in place. u is the first round's u, and later rounds add to it on the
    rows they solve."""
    fn = np.array(_inexact(f))
    # |fn|^2, formed once per source; moving the kernel rows to w
    # recomputes only those rows
    a = _abs2(fn)
    nf = math.sqrt(G.h * float(np.sum(a)))
    if not math.isfinite(nf):
        raise ContractViolation(f"the source is not finite: ||f|| = {nf}")
    if nf == 0:
        return SolveReport(np.zeros_like(fn), np.zeros_like(fn), (), (), 0.0, nf)
    u = None
    # not zeros_like, which writes every page: only w's kernel rows are set
    w = np.zeros(fn.shape, dtype=fn.dtype)
    etas: list[float] = []
    residuals: list[float] = []
    bar = RTOL * nf / (2.0 * math.sqrt(len(G.families)))
    for _ in range(80):
        for mode in {m for m, _ in S.basis}:
            wn = sum((G.h * np.sum(fn[mode] * vec)) * vec for m, vec in S.basis if m == mode)
            w[mode] += wn
            fn[mode] -= wn
            a[mode] = _abs2(fn[mode])
        n_src = math.sqrt(G.h * float(np.sum(a)))
        if n_src <= RTOL * nf:
            u = np.zeros_like(fn) if u is None else u
            return SolveReport(u, w, tuple(etas), tuple(residuals), n_src / nf, nf)
        families = G.families if u is None else [
            members for members, nrm in zip(G.families, _family_norms(G, a)) if nrm > bar]
        del a
        # rebinding fn frees this round's source before the next allocation
        un, fn = approx_solve(G, S, fn, families=families)
        if u is None:
            u = un
        else:
            # un is 0 on the rows of the families left out
            solved = _rows(families)
            u[solved] += un[solved]
        del un
        a = _abs2(fn)
        n_fn = math.sqrt(G.h * float(np.sum(a)))
        etas.append(n_fn / n_src)
        residuals.append(n_fn / nf)
        if n_fn <= RTOL * nf:
            return SolveReport(S._project_in_place(u), w, tuple(etas), tuple(residuals),
                               n_fn / nf, nf)
        if len(etas) >= 2 and etas[-1] >= 1.0 and etas[-2] >= 1.0:
            worst = G.families[int(np.argmax(_family_norms(G, a)))][0]
            raise NoContractionError(max(etas[-2:]), worst, G.modes[worst].nu, G.T)
    raise AnalysisError("correction iteration did not converge in 80 rounds")


def solve_direct(G: GluedOperator, S: SubstituteKernel, f: np.ndarray) -> np.ndarray:
    """Direct solve of the glued matrices per ``G.families`` entry; each
    member of a (near-)singular family is solved bordered by its substitute
    kernel direction, one at a time. A non-finite source is refused."""
    f = _inexact(f)
    nf = norm(G, f)
    if not math.isfinite(nf):
        raise ContractViolation(f"the source is not finite: ||f|| = {nf}")
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


def solve_report_csv(G: GluedOperator, report: SolveReport) -> str:
    ratio = norm(G, report.u) / report.f_norm
    lines = ["T,iter,residual,eta,u_norm_over_f_norm"]
    for k in range(report.iterations):
        lines.append(
            f"{format_real(G.T)},{k + 1},{format_real(report.residuals[k])},"
            f"{format_real(report.contraction[k])},{format_real(ratio)}"
        )
    return "\n".join(lines) + "\n"
