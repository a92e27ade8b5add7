"""Discrete glued operators on [-T-L1, T+L2] and their building blocks.

A building block is half-line mode ODE data: an outer boundary condition
at s = 0, a compact part of length L, and per-mode potentials decaying at
a declared exponential rate beyond L. Gluing reverses the second block's
axis, concatenates the intervals with a half neck length T on each side,
and fades each block's potential out across the window where the cylinder
coordinate rho_i = s_i - L_i + 1 passes T. The result is one symmetric
tridiagonal matrix per mode family on the cell-centered glued grid: the
modes of one nu with no potential on either block share theirs, and a
mode carrying a potential is a family of its own (``mode_families``).

Block kernels are computed by shooting: one solution per zero mode fixed
by the boundary row, classified by its affine far field a + b s. Discrete
conventions are chosen so the classification is exact in the flat cases:
a Neumann block with V = 0 shoots u identically 1, a Dirichlet block
shoots u(s) = s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Container, Mapping, Sequence

import numpy as np

from .errors import AnalysisError, ContractViolation
from .ioutil import MAX_GRID_POINTS, _is_integer_key, _require_keys, finite_number, read_json_object
from .polyhom import CutoffFunction
from .spectral_model import CrossSectionSpectrum, ModeOperator, mode_list

NEUMANN = "neumann"
DIRICHLET = "dirichlet"

# shooting classification tolerance (relative); the affine-fit guard is 10x it
KERNEL_TOL = 1e-6


class Potential:
    """One mode's potential on the half line, with declared decay rate mu.

    ``values(s, h)`` evaluates on a grid; the step h is passed so that
    discrete-quotient potentials (built from a target kernel profile w via
    V = (w(s+h) - 2w(s) + w(s-h)) / (h^2 w(s))) can depend on it. Plain
    callables and sample tables ignore h.
    """

    def __init__(self, fn: Callable[[np.ndarray, float], np.ndarray], mu: float):
        if mu <= 0:
            raise ContractViolation("decay rate mu must be positive")
        self._fn = fn
        self.mu = float(mu)

    def values(self, s: np.ndarray, h: float) -> np.ndarray:
        out = np.asarray(self._fn(np.asarray(s, dtype=float), float(h)), dtype=float)
        if out.shape != np.shape(s):
            raise ContractViolation("potential evaluation changed the grid shape")
        return out

    @classmethod
    def from_samples(cls, pairs: Sequence[tuple[float, float]], mu: float) -> "Potential":
        pts = np.asarray(sorted((float(a), float(b)) for a, b in pairs), dtype=float)
        if not np.all(np.isfinite(pts)):
            raise ContractViolation("potential samples must be finite")
        if len(pts) == 0:
            return cls(lambda s, h: np.zeros_like(s), mu)
        s_tab, v_tab = pts[:, 0], pts[:, 1]
        return cls(lambda s, h: np.interp(s, s_tab, v_tab, left=0.0, right=0.0), mu)

    @classmethod
    def from_kernel_profile(cls, w: Callable[[np.ndarray], np.ndarray], mu: float) -> "Potential":
        """Discrete quotient of a positive profile w, making w an exact
        discrete solution of -u'' + V u = 0 for every step h."""

        def quotient(s, h):
            ws = w(s)
            return (w(s + h) - 2.0 * ws + w(s - h)) / (h * h * ws)

        return cls(quotient, mu)


def sample_rows(rows, where: str) -> list[tuple[float, float]]:
    """Check a JSON sample table [[s, V], ...] of finite numbers; errors
    name ``where``, the table's field."""
    if not isinstance(rows, list):
        raise ContractViolation(f"{where}: expected [[s, V], ...] rows")
    out = []
    for r, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 2):
            raise ContractViolation(f"{where}: expected [[s, V], ...] rows")
        s, v = finite_number(row[0]), finite_number(row[1])
        if s is None or v is None:
            raise ContractViolation(f"{where}[{r}]: expected two finite numbers, got {row!r}")
        out.append((s, v))
    return out


def kernel_potential_neumann(mu: float, c: float) -> Potential:
    """Potential whose Neumann shooting solution is exactly bounded.

    The profile w(s) = 1 + c sech(mu s) is even, so the mirror ghost of the
    cell-centered Neumann row matches w(-h/2) = w(h/2) exactly and the
    discrete solution equals w on the grid. Requires |c| < 1 so w > 0.
    """
    if not -1 < c < 1 or c == 0:
        raise ContractViolation("need 0 < |c| < 1 for a positive profile")

    def w(s):
        # a fast rate overflows cosh to inf, and c / inf = 0 is the exact limit
        with np.errstate(over="ignore"):
            return 1.0 + c / np.cosh(mu * np.asarray(s, dtype=float))

    return Potential.from_kernel_profile(w, mu)


def kernel_potential_dirichlet(mu: float) -> Potential:
    """Potential whose Dirichlet shooting solution is exactly bounded:
    w(s) = tanh(mu s / 2) is odd, matching the antisymmetric ghost, and
    flattens to 1 at rate mu."""
    half = mu / 2.0

    def w(s):
        return np.tanh(half * np.asarray(s, dtype=float))

    return Potential.from_kernel_profile(w, mu)


def _shooting_reach(mu: float) -> int:
    reach = 20.0 / mu
    # every shooting grid has h <= 1/16
    if not math.isfinite(reach) or 16 * reach > MAX_GRID_POINTS:
        raise ContractViolation(
            f"mu: decay rate {mu} asks for a shooting reach of {reach:.3g}, "
            f"more than {MAX_GRID_POINTS} points at h = 1/16"
        )
    return int(max(10, math.ceil(reach)))


@dataclass(frozen=True)
class BuildingBlock:
    """Half-line block data: outer boundary condition, compact length, and
    per-mode potentials keyed by index into the active mode list."""

    spec: CrossSectionSpectrum
    L: float
    boundary: str
    mu: float
    potentials: Mapping[int, Potential] = field(default_factory=dict)

    def __post_init__(self):
        if self.boundary not in (NEUMANN, DIRICHLET):
            raise ContractViolation(f"unknown boundary condition {self.boundary!r}")
        if self.L < 0:
            raise ContractViolation("compact length must be >= 0")
        if self.mu <= 0:
            raise ContractViolation("decay rate must be positive")
        object.__setattr__(self, "potentials", dict(self.potentials))
        for idx, pot in self.potentials.items():
            # block_kernel sizes its shot from the block's mu, which must
            # cover the slowest potential
            if pot.mu < self.mu:
                raise ContractViolation(
                    f"potentials[{idx}]: decay rate {pot.mu} is slower than the block's "
                    f"mu = {self.mu}"
                )
            self._check_decay(pot, f"potentials[{idx}]")

    def _check_decay(self, pot: Potential, where: str) -> None:
        """Verify |V(s)| <= A e^{-mu (s-L)} beyond L with A inferred from the
        first stretch; a slower actual rate makes far samples break the bound.
        The bound is compared in logarithms, so no weight e^{mu (s-L)} is
        formed and any rate whose exponent mu (s-L) is finite can be checked."""
        h = 1.0 / 16
        reach = _shooting_reach(pot.mu)
        s = np.arange(self.L, self.L + reach + h / 2, h)
        v = np.abs(pot.values(s, h))
        # a NaN compares False against every bound below, so refuse it here
        if not np.all(np.isfinite(v)):
            k = int(np.argmin(np.isfinite(v)))
            raise ContractViolation(f"{where}: potential is not finite at s = {s[k]:.4f}")
        with np.errstate(over="ignore"):
            rate = pot.mu * (s - self.L)
        if not np.all(np.isfinite(rate)):
            raise ContractViolation(
                f"{where}: decay rate mu = {pot.mu} is too large to check: "
                f"the exponent mu (s - L) overflows on [L, L + {reach}]"
            )
        near = s <= self.L + 8.0
        with np.errstate(divide="ignore"):
            log_v = np.log(v)
        log_amp = max(float(np.max(log_v[near] + rate[near], initial=-math.inf)),
                      math.log(1e-12))
        # 10% slack absorbs the approach to the asymptotic amplitude; the
        # additive floor absorbs roundoff noise in computed sample tables.
        # A genuinely slower rate overshoots both by e^{(mu - rate) s}. Where
        # the floor is negligible, this is log|V| <= log A - mu (s-L) + log 1.1.
        floor = 1e-12 * max(1.0, float(np.max(v, initial=0.0)))
        with np.errstate(over="ignore"):
            bad = v > np.exp(log_amp - rate) * 1.1 + floor
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ContractViolation(
                f"{where}: samples decay slower than the declared rate {pot.mu} "
                f"(first violation at s = {s[k]:.4f})"
            )

    def potential_for(self, mode_index: int) -> Potential | None:
        return self.potentials.get(mode_index)


def load_block(path: str, spec: CrossSectionSpectrum) -> BuildingBlock:
    """Read block data from JSON: { "L", "boundary", "mu", "potentials":
    { "<mode-index>": [[s, V], ...] } }. Strict about unknown keys."""
    raw = read_json_object(path)
    _require_keys(raw, "top level", {"L", "boundary", "mu", "potentials"}, set())
    L, mu = finite_number(raw["L"]), finite_number(raw["mu"])
    if L is None or mu is None:
        raise ContractViolation(f"{'L' if L is None else 'mu'}: expected a finite number")
    if not isinstance(raw["potentials"], dict):
        raise ContractViolation("potentials: expected an object")
    pots = {}
    for key, rows in raw["potentials"].items():
        if not _is_integer_key(key):
            raise ContractViolation(f"potentials[{key!r}]: key is not an integer")
        pots[int(key)] = Potential.from_samples(sample_rows(rows, f"potentials[{key!r}]"), mu)
    return BuildingBlock(
        spec=spec,
        L=L,
        boundary=str(raw["boundary"]),
        mu=mu,
        potentials=pots,
    )


# ---------------------------------------------------------------------------
# assembly


def mode_families(modes: Sequence[ModeOperator], own: Container[int]
                  ) -> dict[tuple[float, int | None], list[int]]:
    """Mode indices keyed by (nu, the mode's own index if it is in ``own``,
    else None), in order of each family's first mode. The modes of one
    family share one ODE and one matrix; ``own`` holds the modes that need
    their own, such as those carrying a potential."""
    families: dict[tuple[float, int | None], list[int]] = {}
    for i, m in enumerate(modes):
        families.setdefault((m.nu, i if i in own else None), []).append(i)
    return families


def stencil(diag, c, u: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal product (diag, c) u along the last axis of
    u, in the dtype of u, with the one constant off-diagonal c (-1/h^2 on
    every glued matrix).

    u is read as C-ordered (k, n) rows, a 1-D or non-C-contiguous u as a
    copy, and c u is formed once. Each neighbour add, out[j] += (c u)[j+1]
    and then out[j] += (c u)[j-1], is one contiguous add on the flattened
    rows. The first carries a value across each row boundary into the last
    column, the second into the first column, so that column is saved
    before the add and written back after it.
    """
    u = np.asarray(u)
    rows = np.ascontiguousarray(u).reshape(-1, u.shape[-1])
    out = diag * rows
    cu = c * rows
    flat, cflat = out.reshape(-1), cu.reshape(-1)
    last = out[:, -1].copy()
    flat[:-1] += cflat[1:]
    out[:, -1] = last
    first = out[:, 0].copy()
    flat[1:] += cflat[:-1]
    out[:, 0] = first
    return out.reshape(u.shape)


@dataclass(frozen=True)
class GluedOperator:
    """Symmetric tridiagonal matrices on the glued grid, one per mode family.

    The grid is cell-centered on [-T-L1, T+L2]. ``families`` lists the mode
    indices that share a matrix (``mode_families`` of the modes carrying a
    potential on either block). ``mats[i]`` holds the pair (diag, offdiag)
    for mode i and ``potentials_eff[i]`` its faded potential: read-only
    arrays shared by the modes of a family. The off-diagonal is the one
    constant -1/h^2, held as one full vector shared by every mode;
    ``apply_mode`` reads the constant off it and hands it to ``stencil``,
    whose neighbour adds run flat over the rows. ``t`` holds the grid's
    cell centers, read-only, as ``grid()`` returns them.
    """

    spec: CrossSectionSpectrum
    q: int
    T: float
    h: float
    modes: tuple[ModeOperator, ...]
    block1: BuildingBlock
    block2: BuildingBlock
    mats: tuple[tuple[np.ndarray, np.ndarray], ...]
    potentials_eff: tuple[np.ndarray, ...]
    families: tuple[list[int], ...]
    t: np.ndarray
    cutoff: float = math.inf  # the mode list's cutoff, for the block kernels

    @property
    def L1(self) -> float:
        return self.block1.L

    @property
    def L2(self) -> float:
        return self.block2.L

    @property
    def coupling_eff(self) -> dict:
        """Always empty: modes never couple. Kept read-only for the one
        reader left, ``perfbench/tracing.py``; it goes with that line."""
        return {}

    def grid(self) -> np.ndarray:
        return self.t

    @property
    def n_points(self) -> int:
        return len(self.t)

    def apply_mode(self, i: int, u: np.ndarray) -> np.ndarray:
        diag, off = self.mats[i]
        return stencil(diag, off[0], u)

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        out = np.empty_like(values, dtype=np.result_type(values, float))
        # every row is written, as the families cover every mode
        for members in self.families:
            out[members] = self.apply_mode(members[0], values[members])
        return out


def mode_diagonal(nu: float, v: np.ndarray, h: float, left: str, right: str) -> np.ndarray:
    """Diagonal nu + v + 2/h^2 of one mode's matrix, with the corner
    entries of the boundaries ``left`` and ``right`` at its two ends."""
    # mirror ghost u_{-1} = u_0 (Neumann) keeps constants in the kernel;
    # antisymmetric ghost u_{-1} = -u_0 (Dirichlet) pins the wall at 0
    corner = {NEUMANN: 1.0 / h**2, DIRICHLET: 3.0 / h**2}
    diag = nu + v + 2.0 / h**2
    diag[0] = nu + v[0] + corner[left]
    diag[-1] = nu + v[-1] + corner[right]
    return diag


def glued_points(T: float, L1: float, L2: float, h: float) -> int:
    """Points of the cell-centered glued grid on [-T-L1, T+L2] at step h;
    refuses a step above 1/16, T < 2, a grid over MAX_GRID_POINTS and a step
    that does not divide T, L1 and L2."""
    if h > 1.0 / 16 + 1e-12:
        raise ContractViolation("need h <= 1/16")
    if T < 2:
        raise ContractViolation("need T >= 2")
    cells = (2 * T + L1 + L2) / h
    if not math.isfinite(cells) or cells > MAX_GRID_POINTS:
        raise ContractViolation(
            f"T or h: T = {T}, L1 + L2 = {L1 + L2} and h = {h} give "
            f"{cells:.3g} grid points, more than {MAX_GRID_POINTS}"
        )
    # h | T keeps t = 0 on a cell boundary, where the solver splits residuals
    for name, length in (("T", T), ("L1", L1), ("L2", L2)):
        n = round(length / h)
        if abs(n * h - length) > 1e-9:
            raise ContractViolation(f"step {h} does not divide {name}")
    return round(cells)


def assemble(
    block1: BuildingBlock,
    block2: BuildingBlock,
    spec: CrossSectionSpectrum,
    q: int,
    T: float,
    h: float,
    cutoff: float = math.inf,
) -> GluedOperator:
    """Glue two blocks across a neck of half length T.

    Block 1 occupies s1 = t + T + L1 (its boundary at the left end), block
    2 is axis-reversed with s2 = T + L2 - t. Each potential is multiplied
    by (1 - chi(rho_i - T)) with rho_i = s_i - L_i + 1, so both vanish
    identically on |t| <= 1/2 and are untouched where rho_i <= T - 1/2.
    """
    if block1.spec != spec or block2.spec != spec:
        raise ContractViolation("blocks must be built on the same cross-section spectrum")
    n = glued_points(T, block1.L, block2.L, h)
    modes = tuple(mode_list(spec, q, cutoff))
    for name, block in (("block 1", block1), ("block 2", block2)):
        for idx in sorted(block.potentials):
            if not 0 <= idx < len(modes):
                raise ContractViolation(
                    f"{name}: potential on mode {idx}, but degree {q} has {len(modes)} modes"
                    + (f" below the cutoff {cutoff}" if math.isfinite(cutoff) else "")
                )

    t = -T - block1.L + (np.arange(n) + 0.5) * h
    t.flags.writeable = False
    s1 = t + T + block1.L
    s2 = T + block2.L - t
    chi = CutoffFunction(0.0)
    fade1 = 1.0 - chi((s1 - block1.L + 1.0) - T)
    fade2 = 1.0 - chi((s2 - block2.L + 1.0) - T)

    families = mode_families(modes, set(block1.potentials) | set(block2.potentials))
    off = np.full(n - 1, -1.0 / h**2)
    off.flags.writeable = False
    mats: list = [None] * len(modes)
    pots_eff: list = [None] * len(modes)
    for (nu, _), members in families.items():
        v_eff = np.zeros(n)
        p1 = block1.potential_for(members[0])
        if p1 is not None:
            v_eff += p1.values(s1, h) * fade1
        p2 = block2.potential_for(members[0])
        if p2 is not None:
            v_eff += p2.values(s2, h) * fade2
        diag = mode_diagonal(nu, v_eff, h, block1.boundary, block2.boundary)
        diag.flags.writeable = v_eff.flags.writeable = False
        for i in members:
            mats[i] = (diag, off)
            pots_eff[i] = v_eff

    return GluedOperator(
        spec=spec,
        q=q,
        T=float(T),
        h=float(h),
        modes=modes,
        block1=block1,
        block2=block2,
        mats=tuple(mats),
        potentials_eff=tuple(pots_eff),
        families=tuple(families.values()),
        t=t,
        cutoff=cutoff,
    )


# ---------------------------------------------------------------------------
# block kernels by shooting


@dataclass(frozen=True)
class ShootingElement:
    """One zero mode's shooting solution and its nonzero affine far field
    a + b s. ``samples`` is a read-only view of a ``BlockMarch``, shared by
    the members of a mode family and by every T read off that march."""

    mode_index: int
    h: float
    samples: np.ndarray
    a: float
    b: float
    bounded: bool


def _shoot_families(block: BuildingBlock, cases: Sequence[tuple[int, float]], h: float,
                    reach: float) -> tuple[np.ndarray, np.ndarray]:
    """March u_{j+1} = 2u_j - u_{j-1} + h^2 v_j u_j from the boundary row,
    one column per case (mode index, nu) with v = nu + V of that mode.

    Starts are normalized to the exact flat solutions: u = 1 (Neumann) and
    u = s (Dirichlet). A nu > 0 column is divided by |u_{j+1}| whenever
    that exceeds 1e150; the returned log scale holds the running sum of the
    logs divided out, so log|u| + log scale is the log of the unscaled
    shot. Zero-mode columns (nu = 0) are never rescaled. Each column is
    marched in Python floats: at the few families a block shoots that is
    faster than a numpy step per grid point, whose overhead dominates.
    Both arrays are column-major, so each column is contiguous.
    """
    n = round(reach / h)
    s = (np.arange(n) + 0.5) * h
    u = np.empty((n, len(cases)), order="F")
    log_scale = np.zeros((n, len(cases)), order="F")
    for c, (mode_index, nu) in enumerate(cases):
        pot = block.potential_for(mode_index)
        v = pot.values(s, h) if pot is not None else np.zeros(n)
        hv = (h * h * (nu + v if nu > 0 else v)).tolist()
        u_prev = 1.0 if block.boundary == NEUMANN else h / 2.0
        u_here = u_prev * ((1.0 if block.boundary == NEUMANN else 3.0) + hv[0])
        column = [u_prev, u_here]
        if nu > 0:
            for j in range(1, n - 1):
                u_next = 2.0 * u_here - u_prev + hv[j] * u_here
                if abs(u_next) > 1e150:
                    mag = abs(u_next)
                    u_next /= mag
                    u_here /= mag
                    log_scale[j + 1 :, c] += math.log(mag)
                column.append(u_next)
                u_prev, u_here = u_here, u_next
        else:
            # the same step with no rescale test and no index lookups
            append = column.append
            for hvj in hv[1 : n - 1]:
                u_prev, u_here = u_here, 2.0 * u_here - u_prev + hvj * u_here
                append(u_here)
        u[:, c] = column
    return u, log_scale


def _affine_fit(s: np.ndarray, u: np.ndarray) -> tuple[float, float, float]:
    design = np.column_stack([np.ones_like(s), s])
    coeff, *_ = np.linalg.lstsq(design, u, rcond=None)
    resid = u - design @ coeff
    return float(coeff[0]), float(coeff[1]), float(np.max(np.abs(resid)))


def _growth_slopes(s: np.ndarray, u: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """Least-squares slope of log|u| + log scale, column by column, over the
    last 2 units of s; NaN for a column that is not finite there (one such
    column would turn every slope of a joint fit into NaN)."""
    window = s >= s[-1] - 2.0
    with np.errstate(divide="ignore"):
        tail = np.log(np.abs(u[window])) + log_scale[window]
    finite = np.all(np.isfinite(tail), axis=0)
    slopes = np.full(tail.shape[1], np.nan)
    if finite.any():
        slopes[finite] = np.polyfit(s[window], tail[:, finite], 1)[0]
    return slopes


def _kernel_reach(block: BuildingBlock, reach: float) -> float:
    """The reach a block's shot covers: ``reach``, raised to the least
    that the block's decay rate asks for."""
    return max(float(reach), float(block.L + _shooting_reach(block.mu)))


@dataclass(frozen=True)
class BlockMarch:
    """One block's shots of degree q at step h, marched once from its
    boundary: column c of ``u`` (read-only, contiguous) and of
    ``log_scale`` belong to the family ``members[c]``, shot as
    ``cases[c]`` = (first mode, nu) by ``_shoot_families``.

    The march is prefix-stable: the potential is sampled pointwise and a
    rescale depends only on earlier points, so the first n points are the
    march to reach n h, bit for bit. One march to the widest span of a
    command therefore serves the block kernel of every T in it
    (``block_kernel(..., march=)``)."""

    block: BuildingBlock
    q: int
    cutoff: float
    h: float
    cases: tuple[tuple[int, float], ...]
    members: tuple[list[int], ...]
    u: np.ndarray
    log_scale: np.ndarray

    @classmethod
    def shoot(cls, block: BuildingBlock, q: int, h: float, cutoff: float,
              reach: float) -> "BlockMarch":
        """March the mode families of degree q that can hold a kernel out to
        ``reach``, raised to the least the block's decay rate asks for: the
        zero modes (shot with nu = 0) and the positive modes carrying a
        potential (``mode_families`` of the modes with a potential on the
        block). A free positive mode is -d^2 + nu, positive definite at every
        step, and is not shot."""
        modes = mode_list(block.spec, q, cutoff)
        families = [(nu, members)
                    for (nu, _), members in mode_families(modes, block.potentials).items()
                    if modes[members[0]].is_zero_mode or members[0] in block.potentials]
        cases = tuple((members[0], 0.0 if modes[members[0]].is_zero_mode else nu)
                      for nu, members in families)
        u, log_scale = _shoot_families(block, cases, h, _kernel_reach(block, reach))
        u.flags.writeable = False
        return cls(block=block, q=q, cutoff=cutoff, h=h, cases=cases,
                   members=tuple(members for _, members in families), u=u, log_scale=log_scale)


def block_kernel(
    block: BuildingBlock,
    spec: CrossSectionSpectrum,
    q: int,
    h: float,
    cutoff: float,
    reach: float,
    march: BlockMarch | None,
) -> tuple[ShootingElement, ...]:
    """Shoot the modes of degree q that can hold a kernel from the outer
    boundary and classify.

    Zero modes yield one element each with its affine far data (a, b);
    bounded means |b| below KERNEL_TOL relative to the window scale. A
    bounded shot with |a| below it too raises AnalysisError: under an
    exponentially decaying V no nonzero solution tends to 0. A positive
    mode with a potential on the block is certified kernel-free by its
    growth rate: a bound state or threshold resonance below nu would hold
    the log slope of the shot under sqrt(nu) / 2. The shooting reach can
    only be extended, never shortened below the least that the block's
    decay rate asks for.

    One shot serves each family of modes that shoot the same ODE
    (``BlockMarch.shoot``). A given ``march`` of this block, degree,
    cutoff and step, to at least the reach, is read on its prefix instead
    of shooting again: the elements are the same, bit for bit.
    """
    if block.spec != spec:
        raise ContractViolation("block was built on a different spectrum")
    reach = _kernel_reach(block, reach)
    if march is None:
        march = BlockMarch.shoot(block, q, h, cutoff, reach)
    n = round(reach / h)
    if (march.block, march.q, march.cutoff, march.h) != (block, q, cutoff, h) or len(march.u) < n:
        raise ContractViolation(
            "march: shot for another block, degree, cutoff or step, or to a shorter reach"
        )
    u, log_scale = march.u[:n], march.log_scale[:n]
    s = (np.arange(n) + 0.5) * h
    grows = [c for c, (_, nu) in enumerate(march.cases) if nu > 0]
    slopes = dict(zip(grows, _growth_slopes(s, u[:, grows], log_scale[:, grows])))
    window = s >= reach - 2.0
    elements = []
    # families are ordered by their first mode, so the first failure raised
    # names the lowest mode that fails
    for c, members in enumerate(march.members):
        i, nu = march.cases[c]
        if nu > 0:
            if not slopes[c] >= math.sqrt(nu) / 2.0:
                raise AnalysisError(
                    f"mode {i} (nu = {nu}) fails its free-growth certificate: measured log "
                    f"slope {slopes[c]:.4f}; a bound state or threshold resonance is present"
                )
            continue
        # a contiguous read-only view, shared by the family and by every T
        shot = u[:, c]
        # past 1e150, the bound at which positive columns are rescaled, a
        # norm of the shot can overflow; a NaN or inf fails this test too
        if not np.max(np.abs(shot)) <= 1e150:
            raise AnalysisError(f"mode {i}: the shot overflows; the potential is too large to "
                                f"shoot at step {h}")
        a, b, resid = _affine_fit(s[window], shot[window])
        scale = max(1.0, abs(a), abs(b) * reach, float(np.max(np.abs(shot[window]))))
        if resid > 10.0 * KERNEL_TOL * scale:
            raise AnalysisError(
                f"mode {i}: far field is not affine (fit residual {resid:.3e}); "
                "the potential violates its decay contract"
            )
        bounded = abs(b) <= KERNEL_TOL * scale
        if bounded and abs(a) <= KERNEL_TOL * scale:
            raise AnalysisError(f"mode {i} fails its far-field certificate: a = {a:.3e} and "
                                f"b = {b:.3e} vanish at scale {scale:.3e}; no nonzero solution "
                                "decays under a decaying potential")
        elements.extend(
            ShootingElement(mode_index=k, h=h, samples=shot, a=a, b=b, bounded=bounded)
            for k in members
        )
    elements.sort(key=lambda e: e.mode_index)
    return tuple(elements)


# ---------------------------------------------------------------------------
# eigenvalues


@dataclass(frozen=True)
class EigenResult:
    entries: tuple[float, ...]  # ascending, one per (mode, rank)

    def values(self) -> np.ndarray:
        return np.array(self.entries)


def eigen_lowest(G: GluedOperator, k: int) -> EigenResult:
    """The k smallest eigenvalues of every per-mode matrix, merged sorted.

    Sturm bisection runs once per mode family, whose members share the
    values.
    """
    import scipy.linalg
    if k < 1:
        raise ContractViolation("need k >= 1")
    kk = min(k, G.n_points)
    entries: list[float] = []
    for members in G.families:
        vals = scipy.linalg.eigvalsh_tridiagonal(
            *G.mats[members[0]], select="i", select_range=(0, kk - 1)
        )
        entries.extend(vals.tolist() * len(members))
    return EigenResult(entries=tuple(sorted(entries)))
