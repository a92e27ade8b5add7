"""Tests for the glued-grid solvers: substitute kernel, characteristic
system, the cylinder and block solves, and approximate and exact solves."""

import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from neckspec import cli, glued_model, gluing_solver, spectral_density
from neckspec.errors import (
    AnalysisError,
    ContractViolation,
    DegenerateSystemError,
    NoContractionError,
    NotOrthogonalError,
)
from neckspec.glued_model import (
    DIRICHLET,
    NEUMANN,
    BuildingBlock,
    Potential,
    block_kernel,
    kernel_potential_dirichlet,
    kernel_potential_neumann,
)
from neckspec.gluing_solver import (
    approx_solve,
    characteristic_solve,
    characteristic_system,
    cylinder_solve,
    matching_pair,
    neck_windows,
    norm,
    solve_direct,
    solve_exact,
    solve_report_csv,
    substitute_kernel,
    transplant,
)
from neckspec.rng import SplitMix64
from neckspec.neck_inverse import _laplace_zero_inverse
from neckspec.spectral_model import scalar_spectrum, torus2_spectrum

SCALAR = scalar_spectrum()
H = 1.0 / 16


def nblock(pot=None, L=2.0, mu=1.0):
    pots = {0: pot} if pot is not None else {}
    return BuildingBlock(SCALAR, L, NEUMANN, mu, pots)


def dblock(pot=None, L=2.0, mu=1.0):
    pots = {0: pot} if pot is not None else {}
    return BuildingBlock(SCALAR, L, DIRICHLET, mu, pots)


def glue(b1, b2, T=10.0, h=H, spec=SCALAR, q=0):
    return glued_model.assemble(b1, b2, spec, q, T, h)


def seeded_source(G, seed, complex_part=True):
    gen = SplitMix64(seed)
    shape = (len(G.modes), G.n_points)
    f = np.array(gen.uniforms(shape[0] * shape[1], -1.0, 1.0)).reshape(shape)
    f = f.astype(complex)
    if complex_part:
        f += 1j * np.array(gen.uniforms(shape[0] * shape[1], -1.0, 1.0)).reshape(shape)
    return f


def sech_pair(mu=1.0, c1=0.8, c2=-0.35):
    return (
        nblock(kernel_potential_neumann(mu, c1), mu=mu),
        nblock(kernel_potential_neumann(mu, c2), mu=mu),
    )


# ---------------------------------------------------------------------------
# substitute kernel


def test_substitute_kernel_flat_nn_dimension():
    G = glue(nblock(), nblock())
    S = substitute_kernel(G)
    assert S.dim == 1
    assert S.matched_modes() == (0,)
    mode, vec = S.basis[0]
    assert mode == 0
    # crossfade of two constant sections is the constant section
    expected = 1.0 / math.sqrt(2 * G.T + G.L1 + G.L2)
    assert np.allclose(vec, expected, atol=1e-12)


def test_substitute_kernel_flat_nd_empty():
    G = glue(nblock(), dblock())
    S = substitute_kernel(G)
    assert S.dim == 0
    f = seeded_source(G, 3)
    assert np.array_equal(S.project_off(f), f)
    assert S.overlaps(f).size == 0


def test_substitute_kernel_multiplicity():
    spec2 = scalar_spectrum(((0.0, 2),), name="doubled")
    b = BuildingBlock(spec2, 2.0, NEUMANN, 1.0, {})
    G = glued_model.assemble(b, b, spec2, 0, 10.0, H)
    S = substitute_kernel(G)
    assert S.dim == 2
    assert sorted(m for m, _ in S.basis) == [0, 1]


def test_substitute_kernel_potential_pair_matches():
    b1 = nblock(kernel_potential_neumann(1.0, 0.8))
    b2 = dblock(kernel_potential_dirichlet(1.0))
    G = glue(b1, b2)
    S = substitute_kernel(G)
    assert S.dim == 1
    (pair,) = S.pairs
    assert pair.matched_at_T
    # normalized traces glue to the constant 1 through the neck, up to the
    # e^{-mu(T+L)} profile tails
    t = G.grid()
    middle = np.abs(t) <= 1.0
    assert np.allclose(pair.glued_section[middle], 1.0, atol=1e-4)


def test_matching_pair_unmatched_flag():
    G = glue(nblock(), dblock())
    (e1,) = block_kernel(nblock(), SCALAR, 0, h=H).elements
    (e2,) = block_kernel(dblock(), SCALAR, 0, h=H).elements
    assert e1.bounded and not e2.bounded
    pair = matching_pair(G, e1, e2)
    assert not pair.matched_at_T


def test_projection_roundtrip():
    G = glue(*sech_pair())
    S = substitute_kernel(G)
    f = seeded_source(G, 11)
    off = S.project_off(f)
    on = np.zeros_like(f)
    for c, (mode, vec) in zip(S.overlaps(f), S.basis):
        on[mode] += c * vec
    assert np.allclose(off + on, f, atol=1e-12)
    assert float(np.max(np.abs(S.overlaps(off)))) <= 1e-10 * norm(G, f)


# ---------------------------------------------------------------------------
# transplants


def test_transplant_reversal_and_affine_continuation():
    (e,) = block_kernel(dblock(), SCALAR, 0, h=H).elements
    G = glue(nblock(), dblock(), T=30.0)
    g = transplant(G, 2, e)
    t = G.grid()
    s2 = G.T + G.L2 - t
    # flat Dirichlet element is exactly linear, so samples and affine
    # continuation agree with b * s2 everywhere
    assert np.allclose(g, e.b * s2 + e.a, atol=1e-7)


def test_transplant_step_mismatch():
    (e,) = block_kernel(nblock(), SCALAR, 0, h=1.0 / 8).elements
    G = glue(nblock(), nblock())
    with pytest.raises(ContractViolation, match="different step"):
        transplant(G, 1, e)


# ---------------------------------------------------------------------------
# the characteristic system


def test_characteristic_entries_flat_nn():
    G = glue(nblock(), nblock())
    S = substitute_kernel(G)
    f = seeded_source(G, 5)
    sys = characteristic_system(G, S, f)
    assert sys.columns == ((0, "b"),)
    assert sys.rank == 1
    # entries telescope to the exact trace Wronskians -1 and +1
    assert sys.matrix[0, 0] == pytest.approx(-1.0, abs=1e-10)
    assert sys.matrix[1, 0] == pytest.approx(1.0, abs=1e-10)


def test_characteristic_entries_flat_nd():
    G = glue(nblock(), dblock())
    S = substitute_kernel(G)
    sys = characteristic_system(G, S, seeded_source(G, 6))
    assert sys.columns == ((0, "a"), (0, "b"))
    assert sys.rank == 2
    expected = np.array([[0.0, -1.0], [1.0, G.T + G.L2]])
    assert np.allclose(sys.matrix, expected, atol=1e-9)


def test_characteristic_entries_match_trace_wronskian():
    b1 = nblock(kernel_potential_neumann(2.0, 0.8), mu=2.0)
    G = glue(b1, dblock(), T=12.0)
    S = substitute_kernel(G)
    (e1,) = S.kernel1.elements
    sys = characteristic_system(G, S, seeded_source(G, 7))
    a_col = sys.columns.index((0, "a"))
    b_col = sys.columns.index((0, "b"))
    # row 0 belongs to the block-1 element; its entries are the Wronskians
    # of (1, g) and (t, g) against the t-frame trace of g
    a_t = e1.a + e1.b * (G.T + G.L1)
    assert abs(sys.matrix[0, a_col] - (-e1.b)) <= 1e-8
    assert sys.matrix[0, b_col] == pytest.approx(-a_t, rel=1e-6)


def test_characteristic_rank_guard():
    G = glue(nblock(), nblock())
    S = substitute_kernel(G)
    f = seeded_source(G, 8)
    characteristic_system(G, S, f, expected_rank=1)
    with pytest.raises(DegenerateSystemError, match="rank"):
        characteristic_system(G, S, f, expected_rank=2)


def test_characteristic_zero_source():
    G = glue(nblock(), nblock())
    S = substitute_kernel(G)
    sys = characteristic_system(G, S, np.zeros((1, G.n_points)))
    sol = characteristic_solve(sys)
    assert sol.consistency == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(sol.coefficients, 0.0, atol=1e-14)
    u, e = approx_solve(G, S, np.zeros((1, G.n_points)))
    assert not u.any() and not e.any() and u.dtype == e.dtype == np.float64


def test_characteristic_consistency_equivalence():
    mu = 2.0
    b1 = nblock(kernel_potential_neumann(mu, 0.8), mu=mu)
    b2 = dblock(kernel_potential_dirichlet(mu), mu=mu)
    G = glue(b1, b2, T=12.0)
    S = substitute_kernel(G)
    assert S.dim == 1
    khat = S.basis[0][1]
    errors = 0
    for seed in range(20):
        f = S.project_off(seeded_source(G, 100 + seed))
        nf = norm(G, f)
        cons = characteristic_solve(characteristic_system(G, S, f)).consistency
        if cons > 1e-6 * nf:
            errors += 1
        bad = np.array(f)
        bad[0] += 0.1 * nf * khat
        cons_bad = characteristic_solve(characteristic_system(G, S, bad)).consistency
        if cons_bad <= 1e-6 * norm(G, bad):
            errors += 1
    assert errors == 0


# ---------------------------------------------------------------------------
# approximate solve


def test_approx_solve_neck_moments_exact():
    G = glue(nblock(), nblock(), T=10.0)
    S = substitute_kernel(G)
    f = np.zeros((1, G.n_points), dtype=complex)
    # sums of centered second differences have zero mean and first moment
    # exactly, so the cylinder inverse is compactly supported and exact
    j0 = G.n_points // 2
    for k, amp in ((0, 1.0), (7, -0.6), (15, 2.3)):
        f[0, j0 + k - 1] += amp
        f[0, j0 + k] -= 2 * amp
        f[0, j0 + k + 1] += amp
    u, e = approx_solve(G, S, f)
    assert norm(G, e) <= 1e-10 * norm(G, f)


def test_approx_solve_flat_residual_floor():
    for b2 in (nblock(), dblock()):
        G = glue(nblock(), b2, T=10.0)
        S = substitute_kernel(G)
        f = S.project_off(seeded_source(G, 21))
        u, e = approx_solve(G, S, f)
        assert norm(G, e) <= 1e-9 * norm(G, f)
        assert float(np.max(np.abs(S.overlaps(u)), initial=0.0)) <= 1e-9 * norm(G, u)


def test_approx_solve_residual_decay():
    b1, b2 = sech_pair(mu=1.0)
    drops = []
    for T in (16.0, 20.0, 24.0):
        G = glue(b1, b2, T=T)
        S = substitute_kernel(G)
        t = G.grid()
        f = np.zeros((1, G.n_points), dtype=complex)
        f[0] = np.exp(-(t**2))
        f = S.project_off(f)
        u, e = approx_solve(G, S, f)
        drops.append(norm(G, e) / norm(G, f))
        assert norm(G, u) <= 50.0 * T * norm(G, f)
    slope = (math.log(drops[2]) - math.log(drops[0])) / 8.0
    assert slope <= -0.9 + 0.1
    assert slope >= -1.6


def test_approx_solve_rejects_kernel_component():
    G = glue(nblock(), nblock())
    S = substitute_kernel(G)
    f = np.zeros((1, G.n_points), dtype=complex)
    f[0] = S.basis[0][1]
    with pytest.raises(NotOrthogonalError, match="overlaps"):
        approx_solve(G, S, f)


def torus_glue(T=8.0):
    """torus2, q = 1 between the sech blocks of the CLI glue runs; block 2
    also carries a repulsive bump on mode 5, one copy of a repeated nu."""
    spec = torus2_spectrum()
    bump = Potential.from_callable(lambda s: 0.5 * np.exp(-s), 1.0)
    b1 = BuildingBlock(spec, 2.0, NEUMANN, 1.0, {0: kernel_potential_neumann(1.0, 0.8)})
    b2 = BuildingBlock(spec, 2.0, NEUMANN, 1.0,
                       {0: kernel_potential_neumann(1.0, -0.35), 5: bump})
    return glued_model.assemble(b1, b2, spec, 1, T, H)


def per_mode_cylinder(G, f0):
    t = G.grid()
    out = np.zeros_like(f0)
    for i, m in enumerate(G.modes):
        if m.is_zero_mode:
            out[i] = _laplace_zero_inverse(f0[i].real, t, G.h)
            if np.iscomplexobj(f0):
                out[i] += 1j * _laplace_zero_inverse(f0[i].imag, t, G.h)
        else:
            out[i] = gluing_solver._positive_mode_cylinder(f0[i], m.nu, G.h)
    return out


def per_mode_approx_solve(G, S, f):
    """approx_solve with one cylinder and one block solve per mode."""
    w1, zeta0, zeta1 = neck_windows(G)
    sys = characteristic_system(G, S, f)
    v = characteristic_solve(sys)
    u = (per_mode_cylinder(G, f * zeta1) + gluing_solver._trace_grid(sys, v.coefficients)) * zeta0
    r = f - G.apply(u)
    sub1, t1 = gluing_solver._block_subgrid(G, 1)
    sub2, t2 = gluing_solver._block_subgrid(G, 2)
    for i in range(len(G.modes)):
        add = np.zeros(G.n_points, dtype=f.dtype)
        add[sub1] += w1[sub1] * gluing_solver._block_solve(G, S, 1, [i], r[[i]][:, sub1], t1)[0]
        add[sub2] += (1.0 - w1)[sub2] * gluing_solver._block_solve(G, S, 2, [i], r[[i]][:, sub2],
                                                                   t2)[0]
        u[i] = u[i] + add
    u = S.project_off(u)
    return u, f - G.apply(u)


def test_batched_solves_equal_the_per_mode_loops_bit_for_bit():
    G = torus_glue()
    # one matrix per family, and the mode with a potential is a family of its own
    assert len({id(d) for d, _ in G.mats}) == len(G.families)
    assert [5] in G.families
    S = substitute_kernel(G)
    # the real source of the CLI and a complex one: both dtypes of the glue path
    for source in (cli._glued_source(G, 7), seeded_source(G, 7)):
        f = S.project_off(source)
        assert np.array_equal(G.apply(f),
                              np.array([G.apply_mode(i, f[i]) for i in range(len(f))]))
        assert np.array_equal(cylinder_solve(G, f), per_mode_cylinder(G, f))
        u, e = approx_solve(G, S, f)
        u_ref, e_ref = per_mode_approx_solve(G, S, f)
        assert np.array_equal(u, u_ref)
        assert np.array_equal(e, e_ref)


@pytest.mark.parametrize("build", [torus_glue, lambda: glue(*sech_pair())],
                         ids=["torus", "scalar-kernel"])
def test_real_source_solves_in_real_arithmetic_like_its_complex_cast(build):
    # the real path is checked against the complex path it replaces
    G = build()
    S = substitute_kernel(G)
    f = cli._glued_source(G, 7)
    real = solve_exact(G, S, f)
    cplx = solve_exact(G, S, f.astype(complex))
    assert real.iterations == cplx.iterations
    assert not cplx.u.imag.any() and not cplx.w.imag.any()
    assert norm(G, real.u - cplx.u) <= 1e-10 * norm(G, real.u)
    assert real.residual <= 1e-9 and cplx.residual <= 1e-9
    sys = characteristic_system(G, S, f)
    arrays = [real.u, real.w, *approx_solve(G, S, S.project_off(f)), cylinder_solve(G, f),
              sys.matrix, sys.rhs, sys.cylinder, solve_direct(G, S, f)]
    assert [a.dtype for a in arrays] == [np.float64] * len(arrays)


def test_approx_solve_round_makes_one_cylinder_solve(monkeypatch):
    G = torus_glue()
    S = substitute_kernel(G)
    f = S.project_off(cli._glued_source(G, 7))
    calls = []

    def counted(G, f0):
        calls.append(f0.shape)
        return cylinder_solve(G, f0)

    monkeypatch.setattr(gluing_solver, "cylinder_solve", counted)
    approx_solve(G, S, f)
    assert calls == [f.shape]


def test_solve_direct_refuses_two_kernel_directions_in_one_mode():
    G = torus_glue()
    S = substitute_kernel(G)
    doubled = dataclasses.replace(S, basis=S.basis + (S.basis[-1],))
    with pytest.raises(ValueError):
        solve_direct(G, doubled, np.zeros((len(G.modes), G.n_points), dtype=complex))


def test_family_solvers_equal_the_per_mode_loops():
    G = torus_glue()
    S = substitute_kernel(G)
    f = S.project_off(cli._glued_source(G, 7))
    borders = dict(S.basis)
    ref = np.zeros_like(f)
    for i in range(len(G.modes)):
        diag, off = G.mats[i]
        if i in borders:
            ref[i] = gluing_solver._solve_bordered(diag, off, borders[i], f[i])
        else:
            ref[i] = gluing_solver._solve_tridiag(diag, off, f[i])
    assert np.array_equal(solve_direct(G, S, f), S.project_off(ref))

    # the members of a family share their eigenvalues exactly: ties order by mode
    k = 3
    want = []
    for i, m in enumerate(G.modes):
        vals = scipy.linalg.eigvalsh_tridiagonal(*G.mats[i], select="i", select_range=(0, k - 1))
        want.extend((float(v), m.nu, m.degree_tag, i, r) for r, v in enumerate(vals))
    got = glued_model.eigen_lowest(G, k).entries
    assert [(e.value, e.nu, e.degree_tag, e.mode_index, e.k_within) for e in got] == sorted(
        want, key=lambda e: (e[0], e[3], e[4]))

    dim = S.dim + 6
    found = []
    for i in range(len(G.modes)):
        vals, vecs = scipy.linalg.eigh_tridiagonal(*G.mats[i], select="i",
                                                   select_range=(0, dim - 1))
        found.extend((float(vals[r]), i, vecs[:, r]) for r in range(dim))
    found.sort(key=lambda x: x[0])
    n = G.n_points
    K = np.zeros((dim, len(G.modes) * n))
    for r, (_, i, vec) in enumerate(found[:dim]):
        K[r, i * n : (i + 1) * n] = vec / np.linalg.norm(vec)
    assert len({i for _, i, _ in found[:dim]}) > 1
    assert np.array_equal(spectral_density.discrete_kernel_vectors(G, dim), K)


# ---------------------------------------------------------------------------
# exact solve


def test_solve_exact_flat_converges_fast():
    G = glue(nblock(), nblock(), T=20.0)
    S = substitute_kernel(G)
    f = seeded_source(G, 31)
    report = solve_exact(G, S, f)
    assert report.iterations <= 3
    assert report.residual <= 1e-9
    recon = G.apply(report.u) + report.w
    assert norm(G, f - recon) <= 1e-8 * norm(G, f)
    assert float(np.max(np.abs(S.overlaps(report.u)))) <= 1e-9 * max(norm(G, report.u), 1.0)


def test_solve_exact_kernel_source_splits_off():
    G = glue(nblock(), nblock())
    S = substitute_kernel(G)
    f = np.zeros((1, G.n_points), dtype=complex)
    f[0] = S.basis[0][1]
    report = solve_exact(G, S, f)
    assert report.iterations == 0
    assert norm(G, report.u) == 0.0
    assert np.allclose(report.w, f, atol=1e-12)


def test_solve_exact_matches_direct():
    b1, b2 = sech_pair(mu=1.0)
    G = glue(b1, b2, T=12.0)
    S = substitute_kernel(G)
    f = S.project_off(seeded_source(G, 41))
    report = solve_exact(G, S, f)
    u_direct = solve_direct(G, S, f)
    assert norm(G, report.u - u_direct) <= 1e-6 * norm(G, u_direct)


def test_solve_exact_eta_slope():
    mu = 1.0
    b1, b2 = sech_pair(mu=mu)
    etas = []
    for T in (16.0, 24.0):
        G = glue(b1, b2, T=T)
        S = substitute_kernel(G)
        t = G.grid()
        f = np.zeros((1, G.n_points), dtype=complex)
        f[0] = np.exp(-(t**2)) * (1.0 + 0.3 * t)
        f = S.project_off(f)
        report = solve_exact(G, S, f)
        etas.append(report.contraction[0])
    slope = (math.log(etas[1]) - math.log(etas[0])) / 8.0
    target = -0.9 * mu
    assert abs(slope - target) <= 0.2 * abs(target)


def test_solve_exact_growth_at_most_linear():
    b1, b2 = sech_pair(mu=1.0)
    ratios = []
    Ts = (10.0, 20.0, 40.0)
    for T in Ts:
        G = glue(b1, b2, T=T)
        S = substitute_kernel(G)
        t = G.grid()
        f = np.zeros((1, G.n_points), dtype=complex)
        f[0] = np.exp(-((np.abs(t) - T / 2) ** 2))
        f = S.project_off(f)
        report = solve_exact(G, S, f)
        ratios.append(norm(G, report.u) / norm(G, f))
    p = np.polyfit(np.log(Ts), np.log(ratios), 1)[0]
    assert p <= 1.2


def test_solve_exact_no_contraction():
    b1, b2 = sech_pair(mu=1.0)
    G = glue(b1, b2, T=4.0)
    kd1 = block_kernel(b1, SCALAR, 0, h=H)
    kd2 = block_kernel(b2, SCALAR, 0, h=H)
    # strip the kernel data: the characteristic correction disappears and
    # the near-singular block solves blow the residual up instead of down
    S = substitute_kernel(
        G,
        dataclasses.replace(kd1, elements=()),
        dataclasses.replace(kd2, elements=()),
    )
    assert S.dim == 0
    f = seeded_source(G, 51)
    with pytest.raises(NoContractionError):
        solve_exact(G, S, f)


def test_solve_report_csv_layout():
    b1, b2 = sech_pair(mu=1.0)
    G = glue(b1, b2, T=10.0)
    S = substitute_kernel(G)
    f = S.project_off(seeded_source(G, 61))
    report = solve_exact(G, S, f)
    text = solve_report_csv(G, report, f)
    lines = text.strip().split("\n")
    assert lines[0] == "T,iter,residual,eta,u_norm_over_f_norm"
    assert len(lines) == 1 + report.iterations
    first = lines[1].split(",")
    assert float(first[0]) == G.T
    assert int(first[1]) == 1
    assert float(first[2]) == report.residuals[0]


# ---------------------------------------------------------------------------
# the bordered block solve


def _dense_bordered(diag, off, g, rhs):
    n = len(diag)
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    M[:n, n] = g
    M[n, :n] = g
    # the matrix is real: solve for the real and imaginary parts together
    sol = np.linalg.solve(M, np.column_stack([np.append(rhs.real, 0.0),
                                              np.append(rhs.imag, 0.0)]))
    return sol[:n, 0] + 1j * sol[:n, 1]


@functools.lru_cache(maxsize=None)
def _kernel_block_system(T, which):
    """The near-singular block matrix and its bounded kernel direction, as
    _block_solve builds them for the kernel-bearing sech blocks."""
    G = glue(*sech_pair(), T=T)
    S = substitute_kernel(G)
    sub, t_sub = gluing_solver._block_subgrid(G, which)
    diag, off = gluing_solver._block_matrix(G, which, 0, t_sub)
    kd = S.kernel1 if which == 1 else S.kernel2
    (bounded,) = [e for e in kd.elements if e.bounded]
    return diag, off, transplant(G, which, bounded)[sub]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["neumann", "block", "indefinite"]),
    n=st.integers(2, 512),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_bordered_matches_dense(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "neumann":
        # exactly singular: the Neumann second difference keeps constants
        h = rng.choice([1.0 / 16, 1.0 / 128])
        diag = np.full(n, 2.0 / h**2)
        diag[[0, -1]] = 1.0 / h**2
        off = np.full(n - 1, -1.0 / h**2)
        g = np.ones(n)
    elif kind == "block":
        # n <= 512 holds the subgrids of T <= 28 at h = 1/16
        diag, off, g = _kernel_block_system(float(rng.choice([6, 12, 20, 28])),
                                            int(rng.choice([1, 2])))
        n = len(diag)
    else:
        # nonsingular, indefinite and diagonally dominant, random border
        diag = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n)
        off = rng.uniform(-0.4, 0.4, n - 1)
        g = rng.normal(size=n)
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    u = gluing_solver._solve_bordered(diag, off, g, rhs)
    ref = _dense_bordered(diag, off, g, rhs)
    assert np.linalg.norm(u - ref) <= 1e-9 * np.linalg.norm(ref)


def test_solve_bordered_zero_border_is_an_analysis_error():
    diag, off, g = _kernel_block_system(12.0, 1)
    rhs = np.ones(len(diag), dtype=complex)
    with pytest.raises(AnalysisError, match="bordered block solve"):
        gluing_solver._solve_bordered(diag, off, np.zeros_like(g), rhs)


def test_solve_bordered_certificate_catches_a_singular_shift():
    # B = [[1, r], [r, 1]] with g = e_0: the shift C = B + e_0 e_0^T is
    # singular for r = sqrt(2), so a try with it must fail its certificate;
    # on a singular bordered matrix the tries are backward stable, so the
    # singular shift is where the certificate has something to catch
    diag, off, g = np.ones(2), np.array([math.sqrt(2.0)]), np.array([1.0, 0.0])
    with pytest.raises(AnalysisError, match="not certified: backward error"):
        gluing_solver._shifted_bordered(diag, off, g, np.array([1.0, 2.0], dtype=complex),
                                        0, 1.0)


def test_solve_bordered_refuses_a_singular_system():
    # B = (1, 0.1)(1, 0.1)^T and g = (1, 0.1): (-0.1, 1, 0) spans the kernel of
    # the bordered matrix, and every try returns u ~ 1e34 with a tiny backward error
    diag, off, g = np.array([1.0, 0.01]), np.array([0.1]), np.array([1.0, 0.1])
    with pytest.raises(AnalysisError, match="numerically singular"):
        gluing_solver._solve_bordered(diag, off, g, np.array([1.0, 2.0], dtype=complex))


@pytest.mark.parametrize("diag, off, g", [
    # the system above: the bordered matrix has determinant -1, and the
    # other sign of the shift solves it
    ([1.0, 1.0], [math.sqrt(2.0)], [1.0, 0.0]),
    # B = diag([[-1, 1/3], [1/3, 2]], 0): a shift at row 0 or 1 leaves the
    # zero row, and only the shift at row 2 gives a regular C
    ([-1.0, 2.0, 0.0], [1.0 / 3.0, 0.0], [0.5, 0.5, 0.5]),
    # a zero diagonal: the shift takes its size from the off-diagonal
    ([0.0, 0.0, 0.0], [math.sqrt(2.0), 0.5], [1.0 / 3.0, 1.0 / 3.0, -1.0]),
])
def test_solve_bordered_regular_system_with_a_singular_first_shift(diag, off, g):
    diag, off, g = np.array(diag), np.array(off), np.array(g)
    rhs = np.arange(1.0, len(diag) + 1.0) + 0j
    u = gluing_solver._solve_bordered(diag, off, g, rhs)
    B = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    lam = g @ (rhs - B @ u) / (g @ g)
    K = np.block([[B, g[:, None]], [g[None, :], np.zeros((1, 1))]])
    x = np.append(u, lam)
    residual = np.append(rhs, 0.0) - K @ x
    backward = np.max(np.abs(residual)) / (
        np.max(np.sum(np.abs(K), axis=1)) * np.max(np.abs(x)) + np.max(np.abs(rhs)))
    assert backward <= 1e-10
    ref = _dense_bordered(diag, off, g, rhs)
    assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)


def test_solve_bordered_tries_the_end_rows():
    # B = tridiag(1, 0, 1) at n = 9 has the kernel (1, 0, -1, 0, ...), zero on
    # all four rows of largest |g|, so every shift there leaves C singular;
    # the bordered matrix is regular (cond ~ 700) and an end row solves it
    n = 9
    diag, off = np.zeros(n), np.ones(n - 1)
    g = np.where(np.arange(n) % 2 == 0, 0.1, 1.0)
    rows = list(gluing_solver._border_rows(g))
    assert rows[:4] == [1, 3, 5, 7] and rows[4:] == [0, n - 1]
    rhs = np.arange(1.0, n + 1.0) + 0j
    u = gluing_solver._solve_bordered(diag, off, g, rhs)
    ref = _dense_bordered(diag, off, g, rhs)
    assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)


def test_solve_exact_scalar_fine_rounds():
    # the kernel-bearing blocks of the CLI glue runs at h = 1/128, where the
    # block subgrids reach n = 4352
    b1, b2 = sech_pair()
    for T, rounds in ((10.0, 3), (20.0, 2), (30.0, 1)):
        G = glue(b1, b2, T=T, h=1.0 / 128)
        S = substitute_kernel(G)
        report = solve_exact(G, S, cli._glued_source(G, 7))
        assert report.iterations == rounds
        assert report.residual <= 1e-9


# ---------------------------------------------------------------------------
# the cylinder solve


def test_cylinder_solve_reproduces_interior_rows():
    G = glue(nblock(), nblock(), T=6.0)
    f = seeded_source(G, 81)
    _, _, zeta1 = neck_windows(G)
    f0 = f * zeta1
    u0 = cylinder_solve(G, f0)
    out = G.apply_mode(0, u0[0])
    t = G.grid()
    inside = np.abs(t) <= G.T - 1.0
    assert np.allclose(out[inside], f0[0][inside], atol=1e-9 * max(1.0, norm(G, f0)))
