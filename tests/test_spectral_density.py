import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neckspec import spectral_density as sd
from neckspec.errors import AnalysisError, ContractViolation
from neckspec.glued_model import (
    BuildingBlock,
    Potential,
    assemble,
    eigen_lowest,
    kernel_potential_neumann,
)
from neckspec.gluing_solver import substitute_kernel
from neckspec.polyhom import CutoffFunction
from neckspec.spectral_model import circle_spectrum, mode_list, scalar_spectrum, torus2_spectrum

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
        assert int(sd.window_counts([G], [s])[0].sum()) == math.floor(2 * math.sqrt(s))


def test_count_below_first_eigenvalue_is_zero():
    G = flat_scalar(20.0)
    assert int(sd.window_counts([G], [0.2])[0].sum()) == 0


def test_window_counts_refuse_a_negative_spectrum():
    # a deep well on block 1 puts an eigenvalue of mode 0 below -1/T^2; the
    # refusal needs no argument, and names the first such operator
    spec = circle_spectrum()
    flat = BuildingBlock(spec=spec, L=0.0, boundary="neumann", mu=1.0)
    well = BuildingBlock(spec=spec, L=2.0, boundary="neumann", mu=1.0, potentials={
        0: Potential.from_samples([(0.0, -30.0), (1.5, -30.0), (1.9, 0.0)], 1.0)})
    good = assemble(flat, flat, spec, 1, T=10.0, h=H)
    bad = assemble(well, flat, spec, 1, T=20.0, h=H)
    assert sd.window_counts([good], [1.0])[0].shape == (len(good.modes), 1)
    with pytest.raises(ContractViolation, match=r"mode 0 .* below -1/T\^2 .* at T = 20"):
        sd.window_counts([good, bad], [1.0])


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


def _eigen_window(G, s, values):
    """How many of the eigenvalues lie in the window (threshold, pi^2 s/T^2]."""
    values = np.asarray(values)
    return int(np.sum((values > sd.THRESHOLD_ZERO) & (values <= sd.window_top(G, s))))


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


@st.composite
def _random_blocks(draw):
    """Two blocks on a random scalar spectrum, each of length at most 2, with
    either boundary and sampled potentials on some modes; repeated nu, with
    potentials on some copies, exercises the family rows."""
    nus = draw(st.lists(st.tuples(st.floats(min_value=0.01, max_value=5.0), st.integers(1, 3)),
                        unique_by=lambda p: p[0], max_size=2))
    spec = scalar_spectrum(pairs=((0.0, 1),) + tuple(sorted(nus)))
    n_modes = 1 + sum(mult for _, mult in nus)
    blocks = []
    for _ in range(2):
        table = draw(st.dictionaries(st.integers(0, 6), _samples, max_size=3))
        blocks.append(BuildingBlock(
            spec=spec, L=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
            boundary=draw(st.sampled_from(["neumann", "dirichlet"])), mu=1.0,
            potentials={i: Potential.from_samples(rows, 1.0)
                        for i, rows in table.items() if i < n_modes}))
    return blocks


def _reference_sturm_counts(G, shifts):
    """The step-by-step Sturm recurrence over one mode at a time, with the
    pivmin replacement at every step: the reference that the stacked pass
    must match bit for bit."""
    x = np.nextafter(np.asarray(shifts, dtype=float), np.inf)
    b2 = (1.0 / G.h**2) ** 2
    pivmin = np.finfo(float).tiny * max(1.0, b2)
    counts = np.zeros((len(G.mats), len(x)), dtype=np.int64)
    for i, (diag, _) in enumerate(G.mats):
        d = np.full(len(x), np.inf)
        for a in diag:
            d = (a - x) - b2 / d
            d[np.abs(d) < pivmin] = -pivmin
            counts[i] += d < 0
    return counts


_shift_lists = st.lists(st.floats(min_value=-30.0, max_value=300.0), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(T=st.integers(min_value=2, max_value=6), blocks=_random_blocks(), shifts=_shift_lists)
def test_sturm_counts_match_the_eigensolver(T, blocks, shifts):
    # n = (2T + L1 + L2)/h stays at or below 256
    G = assemble(blocks[0], blocks[1], blocks[0].spec, 0, T=float(T), h=H)
    got = sd.sturm_counts(G, shifts)
    tol = _roundoff(G)
    low = _eigensolver_counts(G, shifts, -tol)
    high = _eigensolver_counts(G, shifts, tol)
    assert np.all((low <= got) & (got <= high))
    # away from ties the counts agree exactly, and so do the window counts;
    # an operator with an eigenvalue below the floor -1/T^2 is refused
    s = shifts[-1] % 60.0 + 0.5
    edges = [-1.0 / G.T**2, sd.THRESHOLD_ZERO, sd.window_top(G, s)]
    assume(np.array_equal(_eigensolver_counts(G, edges, -tol), _eigensolver_counts(G, edges, tol)))
    if _eigensolver_counts(G, edges[:1]).any():
        with pytest.raises(ContractViolation, match="negative spectrum"):
            sd.window_counts([G], [s])
        return
    reference = eigen_lowest(G, G.n_points).values()
    assert int(sd.window_counts([G], [s])[0].sum()) == _eigen_window(G, s, reference)


@settings(max_examples=40, deadline=None)
@given(Ts=st.lists(st.integers(min_value=2, max_value=6), min_size=2, max_size=4),
       blocks=_random_blocks(), shifts=_shift_lists)
def test_stacked_pass_matches_each_operator_alone(Ts, blocks, shifts):
    # T values in any order, repeats allowed: the operators have different
    # grid lengths, so all but the longest are continued with +inf
    operators = [assemble(blocks[0], blocks[1], blocks[0].spec, 0, T=float(T), h=H) for T in Ts]
    rows = [[x * (1.0 + 0.25 * k) for x in shifts] for k in range(len(operators))]
    got = sd._sturm_pass(operators, rows)
    assert len(got) == len(operators)
    for G, x, counts in zip(operators, rows, got):
        assert np.array_equal(counts, _reference_sturm_counts(G, x))
        assert np.array_equal(counts, sd.sturm_counts(G, x))
        tol = _roundoff(G)
        low = _eigensolver_counts(G, x, -tol)
        high = _eigensolver_counts(G, x, tol)
        assert np.all((low <= counts) & (counts <= high))


def test_sturm_counts_an_eigenvalue_equal_to_the_shift():
    # at h = 1e100 the off-diagonal (1/h^2)^2 underflows to 0, so the matrix
    # is diagonal and its eigenvalues sit exactly on the shifts; an
    # eigenvalue equal to a shift must count as <= it
    G = flat_scalar(2.0)
    n = G.n_points
    diag = np.linspace(-1.0, 1.0, n)
    G0 = dataclasses.replace(G, mats=((diag, np.zeros(n - 1)),), h=1e100)
    assert sd.sturm_counts(G0, [diag[5], diag[-1], -2.0]).tolist() == [[6, n, 0]]
    # the same in one pass with operators of another step and other lengths:
    # each row keeps its own b^2 and pivmin
    G1, G2 = flat_scalar(3.0), sech_scalar(2.0)
    rows = [[0.5, 3.0, 40.0], [diag[5], diag[-1], -2.0], [-1.0, 0.01, 7.0]]
    got = sd._sturm_pass([G1, G0, G2], rows)
    assert got[1].tolist() == [[6, n, 0]]
    assert np.array_equal(got[0], _reference_sturm_counts(G1, rows[0]))
    assert np.array_equal(got[2], _reference_sturm_counts(G2, rows[2]))


@pytest.mark.parametrize("off_diagonal", ["vanishing", "grid"])
def test_zero_pivots_are_replaced_as_in_the_step_by_step_recurrence(off_diagonal):
    # a diagonal entry equal to the shift moved up one ulp makes a pivot
    # exactly 0 where b^2/d of the step before is 0, which dstebz replaces
    # by -pivmin. Unreplaced, b^2/0 would turn the next pivot into -inf
    # (b^2 > 0) or NaN (b^2 = 0). With b^2 = 0 the zeros sit on the first
    # step, at both sides of a STURM_BLOCK boundary and on the last step of
    # an operator stacked with a longer one; with the grid's b^2, on the
    # first step.
    G = flat_scalar(2.0)
    n = G.n_points
    shift = 0.25
    diag = np.linspace(-1.0, 1.0, n) if off_diagonal == "vanishing" else G.mats[0][0].copy()
    steps = [0, sd.STURM_BLOCK - 1, sd.STURM_BLOCK, n - 1]
    diag[steps] = np.nextafter(shift, np.inf)
    G0 = dataclasses.replace(G, mats=((diag, G.mats[0][1]),),
                             h=1e100 if off_diagonal == "vanishing" else G.h)
    want = _reference_sturm_counts(G0, [shift, -2.0])
    assert np.array_equal(sd.sturm_counts(G0, [shift, -2.0]), want)
    longer = flat_scalar(5.0)
    got = sd._sturm_pass([G0, longer], [[shift, -2.0], [shift, 2.0]])
    assert np.array_equal(got[0], want)
    assert np.array_equal(got[1], _reference_sturm_counts(longer, [shift, 2.0]))
    if off_diagonal == "vanishing":
        # a diagonal matrix: a zero pivot counts its eigenvalue as <= the shift
        assert want.tolist() == [[int(np.sum(diag <= np.nextafter(shift, np.inf))), 0]]


def test_default_split_matches_the_eigenvalue_path():
    # circle one-forms carry both degree tags; positive modes enter the window
    spec = circle_spectrum()
    b = BuildingBlock(spec=spec, L=0.0, boundary="neumann", mu=1.0)
    G = assemble(b, b, spec, 1, T=4.0, h=H, cutoff=20.0)
    ref = eigen_lowest(G, G.n_points).values()
    per_mode = [scipy.linalg.eigvalsh_tridiagonal(*mats, select="i",
                                                  select_range=(0, G.n_points - 1))
                for mats in G.mats]
    for s in (2.3, 7.7, 30.1):
        exact, coexact = sd._branch_counts(G, sd.window_counts([G], [s])[0])
        split = (int(exact[0]), int(coexact[0]))
        assert split == tuple(
            sum(_eigen_window(G, s, vals) for m, vals in zip(G.modes, per_mode)
                if (m.degree_tag == "beta") == beta)
            for beta in (True, False))
        assert sum(split) == int(sd.window_counts([G], [s])[0].sum()) == _eigen_window(G, s, ref)


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
    assert int(sd.window_counts([G], [s])[0].sum()) == 49
    exact, coexact = sd._branch_counts(G, sd.window_counts([G], [s])[0])
    assert (exact.tolist(), coexact.tolist()) == ([0], [49])


def product_benchmark(spec, q, T, s):
    """Eigenvalue count of the product model circle(2T) x X in the window:
    values (k pi/T)^2 + nu over k in Z and the degree-q mode list."""
    top = math.pi**2 * s / T**2
    total = 0
    for m in mode_list(spec, q, cutoff=top):
        if m.nu > sd.THRESHOLD_ZERO:
            room = top - m.nu
            if room < 0:
                continue
            k_max = int(math.floor(T * math.sqrt(room) / math.pi + 1e-9))
            total += 2 * k_max + 1
        else:
            total += 2 * int(math.floor(math.sqrt(s) + 1e-9))
    return total


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
    assert product_benchmark(SCALAR, 0, 20.0, 6.25) == 4
    # boundary values count: k = +-2 lands exactly on the window top
    assert product_benchmark(SCALAR, 0, 20.0, 4.0) == 4
    assert product_benchmark(SCALAR, 0, 20.0, 3.99) == 2
    assert product_benchmark(SCALAR, 0, 20.0, 0.2) == 0
    # degree without modes
    assert product_benchmark(SCALAR, 2, 20.0, 9.0) == 0


def test_product_benchmark_positive_mode_exclusion():
    spec = scalar_spectrum(pairs=((0.0, 1), (1.0, 2)))
    # top = pi^2 s / T^2 < 1 keeps the nu = 1 tower out entirely
    assert product_benchmark(spec, 0, 20.0, 4.0) == 4
    # at T = 4, s = 4 the window top 2.47 admits nu = 1 with k in {-1, 0, 1}
    assert product_benchmark(spec, 0, 4.0, 4.0) == _brute_product_count([0.0, 1.0, 1.0], 4.0, 4.0)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(min_value=0.1, max_value=30.0),
    T=st.integers(min_value=3, max_value=40),
    nu1=st.floats(min_value=0.2, max_value=5.0),
)
def test_product_benchmark_matches_enumeration(s, T, nu1):
    spec = scalar_spectrum(pairs=((0.0, 1), (nu1, 2)))
    got = product_benchmark(spec, 0, float(T), s)
    want = _brute_product_count([0.0, nu1, nu1], float(T), s)
    # the 1e-9 boundary guard may differ from the brute force on exact ties
    assert abs(got - want) <= 1


def test_product_shift_vanishes_for_flat_model():
    G = flat_scalar(20.0)
    for s in (4.41, 9.61, 16.81):
        assert int(sd.window_counts([G], [s])[0].sum()) == product_benchmark(G.spec, G.q, G.T, s)


# ---------------------------------------------------------------------------
# density sweeps


def test_density_sweep_flat_scalar():
    rep = sd.density_sweep([flat_scalar(20.0), flat_scalar(40.0)], [4.41, 9.61, 16.81, 25.21])
    assert rep.B == 1 and rep.q == 0
    for row in rep.counts:
        assert row == (4, 6, 8, 10)
    assert rep.max_residual <= 2 * rep.B + 3
    # scalar model has no (q-1)-forms, so the exact branch is empty
    for per_T in rep.coexact:
        for ex, co in per_T:
            assert ex == 0 and co > 0


def test_density_sweep_torus_branches():
    rep = sd.density_sweep([flat_torus(20.0)], [4.41, 9.61])
    assert rep.B == 3 and rep.b_exact == 1 and rep.b_coexact == 2
    assert rep.counts[0] == (12, 18)
    (ex1, co1), (ex2, co2) = rep.coexact[0]
    assert (ex1, co1) == (4, 8)
    assert (ex2, co2) == (6, 12)
    # each branch tracks its own multiplicity times 2 sqrt(s)
    assert abs(ex1 - 2 * math.sqrt(4.41)) <= 2 * 1 + 3
    assert abs(co1 - 4 * math.sqrt(4.41)) <= 2 * 2 + 3


def test_density_sweep_checks_quadrupled_s():
    rep = sd.density_sweep([flat_scalar(20.0)], [2.25, 9.0])
    assert rep.counts[0] == (3, 6)
    assert abs(rep.residuals[0][1] - rep.residuals[0][0]) <= 2 * rep.B + 2


@pytest.mark.parametrize("s_values", [[4.41, 9.61], [9.61, 4.41]])
def test_density_sweep_checks_counts_in_ascending_s_whatever_the_order(monkeypatch, s_values):
    def counts_of(table):
        return lambda operators, s: [np.array([[table[x] for x in s]]) for _ in operators]

    # 5 window eigenvalues at s = 4.41 and 3 at s = 9.61 is refused in either order
    monkeypatch.setattr(sd, "window_counts", counts_of({4.41: 5, 9.61: 3}))
    with pytest.raises(AnalysisError, match="^window counts decreased in s$"):
        sd.density_sweep([flat_scalar(20.0)], s_values)
    monkeypatch.setattr(sd, "window_counts", counts_of({4.41: 3, 9.61: 5}))
    rep = sd.density_sweep([flat_scalar(20.0)], s_values)
    assert dict(zip(rep.s_values, rep.counts[0])) == {4.41: 3, 9.61: 5}


def test_density_sweep_builds_every_T_before_it_refuses_a_count():
    # alone, T = 10 puts a positive mode in the window s = 25, T = 20 has a
    # negative spectrum (a deep well on block 1) and T = 30 the wrong degree
    spec = circle_spectrum()
    flat = BuildingBlock(spec=spec, L=0.0, boundary="neumann", mu=1.0)
    well = BuildingBlock(spec=spec, L=2.0, boundary="neumann", mu=1.0, potentials={
        0: Potential.from_samples([(0.0, -30.0), (1.5, -30.0), (1.9, 0.0)], 1.0)})

    def builder(T):
        if T == 30.0:
            return assemble(flat, flat, spec, 0, T=T, h=H)
        return assemble(well if T == 20.0 else flat, flat, spec, 1, T=T, h=H)

    def sweep(T_values):
        return sd.density_sweep([builder(T) for T in T_values], [1.0, 25.0])

    with pytest.raises(ContractViolation, match="positive mode 1"):
        sweep([10.0])
    with pytest.raises(ContractViolation, match=r"below -1/T\^2 .* at T = 20"):
        sweep([20.0])
    # the first of: an operator of another degree; a negative spectrum, in
    # T order; then, T by T, a window reaching a positive mode
    with pytest.raises(ContractViolation, match="wrong degree"):
        sweep([10.0, 20.0, 30.0])
    with pytest.raises(ContractViolation, match=r"below -1/T\^2 .* at T = 20"):
        sweep([10.0, 20.0])


def test_density_sweep_rejects_wrong_degree():
    b = BuildingBlock(spec=TORUS, L=0.0, boundary="neumann", mu=1.0, potentials={})
    torus_q0 = assemble(b, b, TORUS, 0, T=20.0, h=H, cutoff=0.9)
    for operators in ([flat_torus(20.0), torus_q0], [torus_q0, flat_scalar(20.0)]):
        with pytest.raises(ContractViolation, match="wrong degree or spectrum"):
            sd.density_sweep(operators, [4.41])


def test_density_sweep_needs_values():
    with pytest.raises(ContractViolation, match="at least one s and one T"):
        sd.density_sweep([flat_scalar(20.0)], [])
    with pytest.raises(ContractViolation, match="at least one s and one T"):
        sd.density_sweep([], [4.41])


def test_density_csv_layout():
    rep = sd.density_sweep([flat_torus(20.0)], [4.41])
    lines = sd.density_csv(rep).strip().split("\n")
    assert lines[0] == "q,T,s,count,prediction,residual,branch"
    assert lines[1].startswith("1,20,") and lines[1].endswith(",all")
    assert lines[2].endswith(",exact")
    assert lines[3].endswith(",coexact")
    assert lines[2].split(",")[3] == "4"
    assert lines[3].split(",")[3] == "8"


def test_gnuplot_tables():
    rep = sd.density_sweep([flat_scalar(20.0), flat_scalar(40.0)], [4.41, 9.61])
    tables = sd.gnuplot_tables(rep)
    assert set(tables) == {"density_q0_T20.dat", "density_q0_T40.dat"}
    body = tables["density_q0_T20.dat"].strip().split("\n")
    assert body[0] == "# s count"
    assert body[1].split() == ["4.4100000000000001", "4"]



def test_density_writers_read_each_report_property_once(monkeypatch):
    # each property rebuilds its whole tuple, so a read per (T, s) point
    # would make writing the tables quadratic in the sweep size
    T_values = tuple(float(T) for T in range(10, 18))
    s_values = (4.41, 9.61, 16.81, 25.21, 36.0)
    coexact = tuple(tuple((i + j, 2 * j) for j in range(len(s_values)))
                    for i in range(len(T_values)))
    rep = sd.DensityReport(q=1, b_exact=1, b_coexact=2, T_values=T_values,
                           s_values=s_values, coexact=coexact)
    expected_csv, expected_dat = sd.density_csv(rep), sd.gnuplot_tables(rep)
    reads = {}
    depth = [0]
    for name in ("counts", "prediction", "residuals"):
        fget = getattr(sd.DensityReport, name).fget

        def counted(self, name=name, fget=fget):
            # only the writer's own reads count, not those one property makes of another
            if depth[0] == 0:
                reads[name] = reads.get(name, 0) + 1
            depth[0] += 1
            try:
                return fget(self)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(sd.DensityReport, name, property(counted))
    assert sd.density_csv(rep) == expected_csv
    assert reads == {"counts": 1, "prediction": 1, "residuals": 1}
    reads.clear()
    assert sd.gnuplot_tables(rep) == expected_dat
    assert reads == {"counts": 1}
    assert expected_dat["density_q1_T11.dat"].split("\n")[1:3] == ["4.4100000000000001 1",
                                                                  "9.6099999999999994 4"]


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
    # the basis rows are orthonormal, so a member is its own projection;
    # n = 1 puts E on the window |k| <= 4
    e = sd.test_space("E", 1)
    assert e.k_values == (-4, -3, -2, -1, 1, 2, 3, 4)
    for a3, inside in ((36.0, True), (35.0, False)):
        vec = np.array([{1: 4.0, 2: 32.0, 3: a3}.get(k, 0.0) for k in e.k_values])
        off = vec - e.basis.T @ (e.basis @ vec)
        assert (np.linalg.norm(off) <= 1e-9 * np.linalg.norm(vec)) == inside


def test_space_argument_errors():
    with pytest.raises(ContractViolation):
        sd.test_space("Vn", 1)
    with pytest.raises(ContractViolation):
        sd.test_space("Zn", 3)


def test_vnprime_h_norm_bound():
    # on V'_n the closed form of H divides each coefficient by k^2 > n^2,
    # so Parseval gives |H f| <= T^2 / ((n+1)^2 pi^2) |f|
    n, T = 3, 12.0
    space = sd.test_space("VnPrime", n)
    assert max(space.k_values) == 2 * n + 2
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


def test_minmax_bound_matches_a_per_mode_reference():
    # the trials' Gram matrix is built once and the stiffness matrix once per
    # zero-mode family, as matrix products; the reference builds both entry
    # by entry for every zero mode. Mode 0 carries a potential, so the three
    # zero modes form two families.
    sech = BuildingBlock(spec=TORUS, L=2.0, boundary="neumann", mu=1.0,
                         potentials={0: kernel_potential_neumann(1.0, 0.8)})
    flat = BuildingBlock(spec=TORUS, L=0.0, boundary="neumann", mu=1.0, potentials={})
    G = assemble(sech, flat, TORUS, 1, T=20.0, h=H, cutoff=0.9)
    assert len(G.families) == 2
    for n in (2, 3):
        space = sd.test_space("Vn", n)
        cut = CutoffFunction(0.0)(0.9 * G.T - np.abs(G.grid()))
        trials = [sd.fourier_values(space.k_values, row, G.grid() / G.T) * cut
                  for row in space.basis]
        d = len(trials)
        reference = 0.0
        for i in range(len(G.modes)):
            A = np.zeros((d, d), dtype=complex)
            M = np.zeros((d, d), dtype=complex)
            for a in range(d):
                for b in range(d):
                    A[a, b] = G.h * np.sum(G.apply_mode(i, trials[b]) * np.conj(trials[a]))
                    M[a, b] = G.h * np.sum(trials[b] * np.conj(trials[a]))
            reference = max(reference, float(np.max(scipy.linalg.eigh(A, M, eigvals_only=True))))
        assert sd.minmax_upper_from_Vn(G, n) == pytest.approx(reference, rel=1e-12, abs=0)


def test_minmax_argument_errors():
    with pytest.raises(ContractViolation):
        sd.minmax_upper_from_Vn(flat_scalar(20.0), 1)
    spec = scalar_spectrum(pairs=((1.0, 1),))
    b = BuildingBlock(spec=spec, L=0.0, boundary="neumann", mu=1.0, potentials={})
    G = assemble(b, b, spec, 0, T=4.0, h=H)
    with pytest.raises(ContractViolation, match="zero modes"):
        sd.minmax_upper_from_Vn(G, 2)


def test_minmax_degenerate_gram(monkeypatch):
    base = sd.test_space("Vn", 2)
    doubled = sd.TestSpace(k_values=base.k_values,
                           basis=np.vstack([base.basis[0], base.basis[0]]))
    monkeypatch.setattr(sd, "test_space", lambda *a, **k: doubled)
    with pytest.raises(AnalysisError, match="^trial space is degenerate on this grid; refine h$"):
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
