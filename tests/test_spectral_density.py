import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neckspec import spectral_density as sd
from neckspec.errors import (
    AnalysisError,
    ContractViolation,
    ResolutionError,
)
from neckspec.glued_model import (
    BuildingBlock,
    Potential,
    assemble,
    eigen_lowest,
    kernel_potential_neumann,
)
from neckspec.gluing_solver import substitute_kernel
from neckspec.spectral_model import circle_spectrum, scalar_spectrum, torus2_spectrum

SCALAR = scalar_spectrum()
TORUS = torus2_spectrum()
H = 1.0 / 16


@functools.cache
def flat_scalar(T: float, L: float = 0.0):
    b = BuildingBlock(spec=SCALAR, L=L, boundary="neumann", mu=1.0, potentials={})
    return assemble(b, b, SCALAR, 0, T=T, h=H)


@functools.cache
def sech_scalar(T: float, mu: float = 1.0, c: float = 0.8):
    b = BuildingBlock(spec=SCALAR, L=2.0, boundary="neumann", mu=mu,
                      potentials={0: kernel_potential_neumann(mu, c)})
    return assemble(b, b, SCALAR, 0, T=T, h=H)


@functools.cache
def flat_torus(T: float):
    # cutoff keeps only the three zero modes; the first positive torus
    # eigenvalue 4 pi^2 sits far above every window used here
    b = BuildingBlock(spec=TORUS, L=0.0, boundary="neumann", mu=1.0, potentials={})
    return assemble(b, b, TORUS, 1, T=T, h=H, cutoff=0.9)


# ---------------------------------------------------------------------------
# window counts against the exact Neumann spectrum


def test_flat_counts_match_closed_form():
    # V = 0, L = 0: eigenvalues (k pi / 2T)^2, so the window (0, pi^2 s/T^2]
    # holds exactly floor(2 sqrt(s)) of them
    G = flat_scalar(20.0)
    for s in (4.41, 9.61, 16.81, 25.21):
        assert int(sd.window_counts(G, [s]).sum()) == math.floor(2 * math.sqrt(s))


def test_count_below_first_eigenvalue_is_zero():
    G = flat_scalar(20.0)
    assert int(sd.window_counts(G, [0.2]).sum()) == 0


# ---------------------------------------------------------------------------
# Sturm counts against the eigensolver path they replaced


def _eigensolver_counts(G, shifts, widen=0.0):
    """Per mode, eigenvalues <= each shift + widen, from full tridiagonal
    eigensolves."""
    out = np.zeros((len(G.modes), len(shifts)), dtype=int)
    for i in range(len(G.modes)):
        diag, off = G.mats[i]
        vals = scipy.linalg.eigvalsh_tridiagonal(diag, off)
        out[i] = [np.sum(vals <= x + widen) for x in shifts]
    return out


def _eigen_window(G, s, result):
    """(exact, coexact) counts in the window (threshold, pi^2 s/T^2], taken
    from eigen_lowest entries."""
    top = sd.window_top(G, s)
    inside = [e for e in result.entries if sd.THRESHOLD_ZERO < e.value <= top]
    exact = sum(e.degree_tag == "beta" for e in inside)
    return exact, len(inside) - exact


def _roundoff(G):
    # both methods are backward stable: each count is exact for a matrix
    # within a few ulps of ||A||, so counts may differ only for eigenvalues
    # this close to a shift
    norm = max(float(np.max(np.abs(diag))) + 2.0 / G.h**2 for diag, _ in G.mats)
    return 64 * np.finfo(float).eps * norm


_samples = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=4.0), st.floats(min_value=-20.0, max_value=20.0)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    T=st.integers(min_value=2, max_value=6),
    L1=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    L2=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    boundaries=st.tuples(st.sampled_from(["neumann", "dirichlet"]),
                         st.sampled_from(["neumann", "dirichlet"])),
    nus=st.lists(st.tuples(st.floats(min_value=0.01, max_value=5.0), st.integers(1, 3)),
                 unique_by=lambda p: p[0], max_size=2),
    pots=st.tuples(st.dictionaries(st.integers(0, 6), _samples, max_size=3),
                   st.dictionaries(st.integers(0, 6), _samples, max_size=3)),
    shifts=st.lists(st.floats(min_value=-30.0, max_value=300.0), min_size=1, max_size=5),
)
def test_sturm_counts_match_the_eigensolver(T, L1, L2, boundaries, nus, pots, shifts):
    # n = (2T + L1 + L2)/h stays at or below 256
    # repeated nu, with potentials on some copies, exercises the family rows
    spec = scalar_spectrum(pairs=((0.0, 1),) + tuple(sorted(nus)), name="rand")
    n_modes = 1 + sum(mult for _, mult in nus)
    blocks = [
        BuildingBlock(spec=spec, L=L, boundary=bc, mu=1.0, potentials={
            i: Potential.from_samples(rows, 1.0) for i, rows in table.items() if i < n_modes
        })
        for L, bc, table in zip((L1, L2), boundaries, pots)
    ]
    G = assemble(blocks[0], blocks[1], spec, 0, T=float(T), h=H)
    got = sd.sturm_counts(G, shifts)
    tol = _roundoff(G)
    low = _eigensolver_counts(G, shifts, -tol)
    high = _eigensolver_counts(G, shifts, tol)
    assert np.all((low <= got) & (got <= high))
    # away from ties the counts agree exactly, and so do the window counts
    s = shifts[-1] % 60.0 + 0.5
    edges = [sd.THRESHOLD_ZERO, sd.window_top(G, s)]
    assume(np.array_equal(_eigensolver_counts(G, edges, -tol), _eigensolver_counts(G, edges, tol)))
    reference = eigen_lowest(G, G.n_points)
    assert int(sd.window_counts(G, [s]).sum()) == sum(_eigen_window(G, s, reference))


def test_sturm_counts_an_eigenvalue_equal_to_the_shift():
    # at h = 1e100 the off-diagonal (1/h^2)^2 underflows to 0, so the matrix
    # is diagonal and its eigenvalues sit exactly on the shifts; an
    # eigenvalue equal to a shift must count as <= it
    G = flat_scalar(2.0)
    n = G.n_points
    diag = np.linspace(-1.0, 1.0, n)
    G0 = dataclasses.replace(G, mats=((diag, np.zeros(n - 1)),), h=1e100)
    assert sd.sturm_counts(G0, [diag[5], diag[-1], -2.0]).tolist() == [[6, n, 0]]


def test_default_split_matches_the_eigenvalue_path():
    # circle one-forms carry both degree tags; positive modes enter the window
    spec = circle_spectrum()
    b = BuildingBlock(spec=spec, L=0.0, boundary="neumann", mu=1.0)
    G = assemble(b, b, spec, 1, T=4.0, h=H, cutoff=20.0)
    ref = eigen_lowest(G, G.n_points)
    for s in (2.3, 7.7, 30.1):
        exact, coexact = sd._branch_counts(G, sd.window_counts(G, [s]))
        split = (int(exact[0]), int(coexact[0]))
        assert split == _eigen_window(G, s, ref)
        assert sum(split) == int(sd.window_counts(G, [s]).sum())


def test_long_flat_blocks_count_past_the_old_eigenvalue_budget():
    # flat Neumann blocks with L = 40 glue to one interval of length 100:
    # eigenvalues (4/h^2) sin^2(k pi h/200), of which k = 1..49 lie in
    # (0, pi^2 s/T^2] at s = 24.9
    b = BuildingBlock(spec=SCALAR, L=40.0, boundary="neumann", mu=1.0)
    G = assemble(b, b, SCALAR, 0, T=10.0, h=H)
    s = 24.9
    k = np.arange(1, G.n_points)
    closed = (4.0 / H**2) * np.sin(k * math.pi / (2 * G.n_points)) ** 2
    assert int(np.sum(closed <= sd.window_top(G, s))) == 49
    assert int(sd.window_counts(G, [s]).sum()) == 49
    exact, coexact = sd._branch_counts(G, sd.window_counts(G, [s]))
    assert (exact.tolist(), coexact.tolist()) == ([0], [49])


def _brute_product_count(nus, T, s):
    top = math.pi**2 * s / T**2
    total = 0
    for nu in nus:
        for k in range(-200, 201):
            val = (k * math.pi / T) ** 2 + nu
            if 1e-10 < val <= top * (1 + 1e-12):
                total += 1
    return total


def test_product_benchmark_examples():
    assert sd.product_benchmark(SCALAR, 0, 20.0, 6.25) == 4
    # boundary values count: k = +-2 lands exactly on the window top
    assert sd.product_benchmark(SCALAR, 0, 20.0, 4.0) == 4
    assert sd.product_benchmark(SCALAR, 0, 20.0, 3.99) == 2
    assert sd.product_benchmark(SCALAR, 0, 20.0, 0.2) == 0
    # degree without modes
    assert sd.product_benchmark(SCALAR, 2, 20.0, 9.0) == 0


def test_product_benchmark_positive_mode_exclusion():
    spec = scalar_spectrum(pairs=((0.0, 1), (1.0, 2)), name="shifted")
    # top = pi^2 s / T^2 < 1 keeps the nu = 1 tower out entirely
    assert sd.product_benchmark(spec, 0, 20.0, 4.0) == 4
    # at T = 4, s = 4 the window top 2.47 admits nu = 1 with k in {-1, 0, 1}
    assert sd.product_benchmark(spec, 0, 4.0, 4.0) == _brute_product_count([0.0, 1.0, 1.0], 4.0, 4.0)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(min_value=0.1, max_value=30.0),
    T=st.integers(min_value=3, max_value=40),
    nu1=st.floats(min_value=0.2, max_value=5.0),
)
def test_product_benchmark_matches_enumeration(s, T, nu1):
    spec = scalar_spectrum(pairs=((0.0, 1), (nu1, 2)), name="two-level")
    got = sd.product_benchmark(spec, 0, float(T), s)
    want = _brute_product_count([0.0, nu1, nu1], float(T), s)
    # the 1e-9 boundary guard may differ from the brute force on exact ties
    assert abs(got - want) <= 1


def test_product_shift_vanishes_for_flat_model():
    G = flat_scalar(20.0)
    for s in (4.41, 9.61, 16.81):
        assert int(sd.window_counts(G, [s]).sum()) == sd.product_benchmark(G.spec, G.q, G.T, s)


# ---------------------------------------------------------------------------
# density sweeps


def test_density_sweep_flat_scalar():
    rep = sd.density_sweep(flat_scalar, 0, [4.41, 9.61, 16.81, 25.21], [20.0, 40.0])
    assert rep.B == 1 and rep.q == 0
    for row in rep.counts:
        assert row == (4, 6, 8, 10)
    assert rep.max_residual <= 2 * rep.B + 3
    # scalar model has no (q-1)-forms, so the exact branch is empty
    for per_T in rep.coexact:
        for ex, co in per_T:
            assert ex == 0 and co > 0


def test_density_sweep_torus_branches():
    rep = sd.density_sweep(flat_torus, 1, [4.41, 9.61], [20.0])
    assert rep.B == 3 and rep.b_exact == 1 and rep.b_coexact == 2
    assert rep.counts[0] == (12, 18)
    (ex1, co1), (ex2, co2) = rep.coexact[0]
    assert (ex1, co1) == (4, 8)
    assert (ex2, co2) == (6, 12)
    # each branch tracks its own multiplicity times 2 sqrt(s)
    assert abs(ex1 - 2 * math.sqrt(4.41)) <= 2 * 1 + 3
    assert abs(co1 - 4 * math.sqrt(4.41)) <= 2 * 2 + 3


def test_density_sweep_checks_quadrupled_s():
    rep = sd.density_sweep(flat_scalar, 0, [2.25, 9.0], [20.0])
    assert rep.counts[0] == (3, 6)
    assert abs(rep.residuals[0][1] - rep.residuals[0][0]) <= 2 * rep.B + 2


def test_density_sweep_rejects_wrong_degree():
    with pytest.raises(ContractViolation):
        sd.density_sweep(flat_scalar, 1, [4.41], [20.0])


def test_density_sweep_needs_values():
    with pytest.raises(ContractViolation):
        sd.density_sweep(flat_scalar, 0, [], [20.0])


def test_density_csv_layout():
    rep = sd.density_sweep(flat_torus, 1, [4.41], [20.0])
    lines = sd.density_csv(rep).strip().split("\n")
    assert lines[0] == "q,T,s,count,prediction,residual,branch"
    assert lines[1].startswith("1,20,") and lines[1].endswith(",all")
    assert lines[2].endswith(",exact")
    assert lines[3].endswith(",coexact")
    assert lines[2].split(",")[3] == "4"
    assert lines[3].split(",")[3] == "8"


def test_gnuplot_tables():
    rep = sd.density_sweep(flat_scalar, 0, [4.41, 9.61], [20.0, 40.0])
    tables = sd.gnuplot_tables(rep)
    assert set(tables) == {"density_q0_T20.dat", "density_q0_T40.dat"}
    body = tables["density_q0_T20.dat"].strip().split("\n")
    assert body[0] == "# s count"
    assert body[1].split() == ["4.4100000000000001", "4"]


# ---------------------------------------------------------------------------
# Fourier test spaces


def test_space_dimensions_certificate():
    for n in (2, 3, 5):
        dims = sd.assert_space_dimensions(n)
        assert dims["Vn"] == 2 * n - 2
        assert dims["E_codim"] == 3
        assert dims["VnPrime_codim_in_E"] == 2 * n
        assert dims["Wn_codim_in_VnPrime"] == 1


def test_vn_basis_vanishes_doubly_at_ends():
    for n in (2, 3, 4):
        space = sd.test_space("Vn", n)
        karr = np.array(space.k_values, dtype=float)
        for row in space.basis:
            ends = sd.fourier_values(space.k_values, row, np.array([1.0, -1.0]))
            slopes = sd.fourier_values(space.k_values, row * 1j * math.pi * karr,
                                       np.array([1.0, -1.0]))
            assert np.max(np.abs(ends)) <= 1e-12
            assert np.max(np.abs(slopes)) <= 1e-12


def test_handmade_e_member():
    # -a1 + a2/2 - a3/3 = 0 and -a1 + a2/4 - a3/9 = 0
    # the basis rows are orthonormal, so a member is its own projection
    e = sd.test_space("E", 3, window=4)
    for a3, inside in ((36.0, True), (35.0, False)):
        vec = np.array([{1: 4.0, 2: 32.0, 3: a3}.get(k, 0.0) for k in e.k_values])
        off = vec - e.basis.T @ (e.basis @ vec)
        assert (np.linalg.norm(off) <= 1e-9 * np.linalg.norm(vec)) == inside


def test_space_argument_errors():
    with pytest.raises(ContractViolation):
        sd.test_space("Vn", 1)
    with pytest.raises(ContractViolation):
        sd.test_space("Wn", 3, window=4)
    with pytest.raises(ContractViolation):
        sd.test_space("Zn", 3)


def test_vnprime_h_norm_bound():
    # on V'_n the closed form of H divides each coefficient by k^2 > n^2,
    # so Parseval gives |H f| <= T^2 / ((n+1)^2 pi^2) |f|
    n, T = 3, 12.0
    space = sd.test_space("VnPrime", n, window=8)
    assert space.dim > 0
    for row in space.basis:
        coeffs = {k: a for k, a in zip(space.k_values, row) if a != 0}
        image = {k: a * T**2 / (math.pi**2 * k**2) for k, a in coeffs.items()}
        lhs = sd.fourier_l2_norm(image, T)
        rhs = T**2 / ((n + 1) ** 2 * math.pi**2) * sd.fourier_l2_norm(coeffs, T)
        assert lhs <= rhs * (1 + 1e-9)


# ---------------------------------------------------------------------------
# the H operator


def test_h_operator_matches_quadrature():
    coeffs = {1: 4.0, 2: 32.0, 3: 36.0}
    dev = sd.h_operator_check(coeffs, T=6.0)
    assert dev <= 1e-6 * sd.fourier_l2_norm(coeffs, 6.0)


def test_h_operator_real_combination():
    coeffs = {1: 2.0, -1: 2.0, 2: 16.0, -2: 16.0, 3: 18.0, -3: 18.0}
    dev = sd.h_operator_check(coeffs, T=10.0)
    assert dev <= 1e-6 * sd.fourier_l2_norm(coeffs, 10.0)


def test_h_operator_zero_input():
    assert sd.h_operator_check({}, T=5.0) == 0.0


def test_h_operator_rejects_non_members():
    with pytest.raises(ContractViolation, match="not in E"):
        sd.h_operator_check({1: 1.0}, T=5.0)


def test_h_operator_rejects_coarse_step():
    with pytest.raises(ContractViolation, match="1/128"):
        sd.h_operator_check({1: 4.0, 2: 32.0, 3: 36.0}, T=5.0, h=1.0 / 64)


# ---------------------------------------------------------------------------
# min-max upper bounds


def test_minmax_flat_scalar():
    G = flat_scalar(20.0)
    for n in (2, 3):
        bound = sd.minmax_upper_from_Vn(G, n)
        target = (n * math.pi) ** 2 / G.T**2
        assert 0.3 * target <= bound <= 1.05 * target


def test_minmax_triple_zero_mode():
    bound = sd.minmax_upper_from_Vn(flat_torus(20.0), 2)
    assert bound <= 1.05 * (2 * math.pi) ** 2 / 400.0


def test_minmax_argument_errors():
    with pytest.raises(ContractViolation):
        sd.minmax_upper_from_Vn(flat_scalar(20.0), 1)
    spec = scalar_spectrum(pairs=((1.0, 1),), name="gapped")
    b = BuildingBlock(spec=spec, L=0.0, boundary="neumann", mu=1.0, potentials={})
    G = assemble(b, b, spec, 0, T=4.0, h=H)
    with pytest.raises(ContractViolation, match="zero modes"):
        sd.minmax_upper_from_Vn(G, 2)


def test_minmax_degenerate_gram(monkeypatch):
    base = sd.test_space("Vn", 2)
    doubled = sd.TestSpace(kind="Vn", n=2, k_values=base.k_values,
                           basis=np.vstack([base.basis[0], base.basis[0]]))
    monkeypatch.setattr(sd, "test_space", lambda *a, **k: doubled)
    with pytest.raises(ResolutionError):
        sd.minmax_upper_from_Vn(flat_scalar(20.0), 2)


# ---------------------------------------------------------------------------
# scalar lambda_1 bounds


def test_lambda1_flat_matches_closed_form():
    for T in (20.0, 40.0):
        lo, up = sd.scalar_lambda1_bounds(flat_scalar(T))
        # the cell-centered scheme shifts (pi/2T)^2 by O(h^2 lambda^2)
        assert lo == pytest.approx((math.pi / (2 * T)) ** 2, rel=1e-5)
        assert lo <= up <= 6.3 / T**2
        # the clipped ramp gives the classic 3/T^2 quotient on a flat neck
        assert up * T**2 == pytest.approx(3.0, rel=0.02)


def test_lambda1_sech_window():
    for T in (20.0, 40.0):
        lo, up = sd.scalar_lambda1_bounds(sech_scalar(T))
        assert 0.3 <= lo * T**2 <= up * T**2 <= 6.3
        assert up <= 1.3 * lo


def test_lambda1_requires_scalar_model():
    with pytest.raises(ContractViolation):
        sd.scalar_lambda1_bounds(flat_torus(20.0))


# ---------------------------------------------------------------------------
# principal angles between the substitute and discrete kernels


def test_discrete_kernel_vectors_shape():
    G = flat_scalar(20.0)
    K = sd.discrete_kernel_vectors(G, 2)
    assert K.shape == (2, G.n_points)
    assert np.linalg.norm(K @ K.T - np.eye(2)) <= 1e-10


def test_principal_angles_flat_kernel_is_exact():
    # the constant is an exact discrete kernel vector, so the substitute
    # kernel and the lowest eigenvector span the same line
    G = flat_scalar(20.0)
    sines = sd.principal_angle_sines(G, substitute_kernel(G))
    assert sines.shape == (1,)
    assert sines[0] <= 1e-10


def test_principal_angles_decay_with_T():
    vals = []
    for T in (10.0, 20.0):
        G = sech_scalar(T, mu=0.6)
        vals.append(float(np.max(sd.principal_angle_sines(G, substitute_kernel(G)))))
    slope = (math.log(vals[1]) - math.log(vals[0])) / 10.0
    assert vals[1] < vals[0]
    assert -0.75 <= slope <= -0.35


def test_principal_angles_need_kernel():
    b1 = BuildingBlock(spec=SCALAR, L=0.0, boundary="neumann", mu=1.0, potentials={})
    b2 = BuildingBlock(spec=SCALAR, L=0.0, boundary="dirichlet", mu=1.0, potentials={})
    G = assemble(b1, b2, SCALAR, 0, T=4.0, h=H)
    with pytest.raises(ContractViolation):
        sd.principal_angle_sines(G, substitute_kernel(G))


def test_window_helpers():
    G = flat_scalar(20.0)
    assert sd.window_top(G, 4.0) == pytest.approx(math.pi**2 / 100.0)
