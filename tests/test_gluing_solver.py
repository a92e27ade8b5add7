"""Tests for the glued-grid solvers: substitute kernel, characteristic
system, the cylinder and block solves, and approximate and exact solves."""

import dataclasses
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from neckspec import cli, glued_model, gluing_solver, spectral_density
from neckspec.errors import AnalysisError, ContractViolation
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
DOUBLED = scalar_spectrum(((0.0, 2),), name="doubled")
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
    assert S.matched == {0}
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
    b = BuildingBlock(DOUBLED, 2.0, NEUMANN, 1.0, {})
    G = glued_model.assemble(b, b, DOUBLED, 0, 10.0, H)
    S = substitute_kernel(G)
    assert S.dim == 2
    assert sorted(m for m, _ in S.basis) == [0, 1]


def test_substitute_kernel_potential_pair_matches():
    b1 = nblock(kernel_potential_neumann(1.0, 0.8))
    b2 = dblock(kernel_potential_dirichlet(1.0))
    G = glue(b1, b2)
    S = substitute_kernel(G)
    assert S.dim == 1
    assert S.matched == {0}
    ((_, vec),) = S.basis
    # normalized traces glue to one constant through the neck, up to the
    # e^{-mu(T+L)} profile tails
    t = G.grid()
    middle = np.abs(t) <= 1.0
    assert np.allclose(vec[middle] / np.mean(vec[middle]), 1.0, atol=1e-4)


@pytest.mark.parametrize("build, modes", [
    (lambda: glue(nblock(), nblock()), [0]),
    (lambda: glue(nblock(), dblock()), []),
    (lambda: glued_model.assemble(*[BuildingBlock(DOUBLED, 2.0, NEUMANN, 1.0, {})] * 2, DOUBLED,
                                  0, 10.0, H), [0, 1]),
    (lambda: glue(nblock(kernel_potential_neumann(1.0, 0.8)),
                  dblock(kernel_potential_dirichlet(1.0))), [0]),
    (lambda: glue(*sech_pair()), [0]),
    (lambda: glue(nblock(kernel_potential_neumann(2.0, 0.8), mu=2.0), dblock(), T=12.0), []),
    (lambda: torus_glue(), [0, 1, 338]),
], ids=["flat-nn", "flat-nd", "multiplicity", "potential-pair", "sech-pair", "unmatched",
        "torus"])
def test_substitute_kernel_has_one_unit_vector_per_matched_mode(build, modes):
    # a block element never vanishes at infinity, so a mode gives one
    # vector, the crossfade of its two matched traces, or none
    G = build()
    S = substitute_kernel(G)
    found = [mode for mode, _ in S.basis]
    assert found == sorted(set(found)) == modes
    assert S.matched == set(modes)
    for _, vec in S.basis:
        assert G.h * np.sum(vec * vec) == pytest.approx(1.0, abs=1e-12)


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


def test_transplant_reversal_and_short_elements():
    G = glue(nblock(), dblock(), T=30.0)
    span = 2 * G.T + G.L1 + G.L2
    (e,) = block_kernel(dblock(), SCALAR, 0, h=H, cutoff=math.inf, reach=span, march=None)
    g = transplant(G, 2, e)
    # block 2 enters reversed, bit for bit, as a copy of the samples
    assert np.array_equal(g, e.samples[: G.n_points][::-1])
    assert g.flags.c_contiguous and not np.shares_memory(g, e.samples)
    # the flat Dirichlet shot is u = s2 exactly
    assert np.allclose(g, G.T + G.L2 - G.grid(), rtol=0, atol=1e-9)
    # block 1 reads the head of the samples
    assert np.array_equal(transplant(G, 1, e), e.samples[: G.n_points])
    # the least reach covers L + 20 / mu = 22 units, short of the 64 glued ones
    (short,) = block_kernel(dblock(), SCALAR, 0, h=H, cutoff=math.inf, reach=0.0, march=None)
    with pytest.raises(ContractViolation, match="fewer than the 1024 points of the glued grid"):
        transplant(G, 2, short)


def test_transplant_step_mismatch():
    (e,) = block_kernel(nblock(), SCALAR, 0, h=1.0 / 8, cutoff=math.inf, reach=0.0,
                        march=None)
    G = glue(nblock(), nblock())
    with pytest.raises(ContractViolation, match="different step"):
        transplant(G, 1, e)


# ---------------------------------------------------------------------------
# one march per block serves every T


def _torus_kernel_blocks():
    spec = torus2_spectrum()
    blocks = tuple(BuildingBlock(spec, 2.0, NEUMANN, 1.0, {0: kernel_potential_neumann(1.0, c)})
                   for c in (0.8, -0.35))
    return blocks, spec, 1, 1.0 / 64, (16.0, 24.0, 40.0)


def _positive_mode_potential_blocks():
    # mode 1 (nu = 100) carries a potential, so its growth certificate runs
    # on the march, which rescales it many times over the widest span
    spec = scalar_spectrum(((0.0, 1), (100.0, 2)))
    pot = Potential(lambda s, h: 0.4 * np.exp(-s), 1.0)
    blocks = (BuildingBlock(spec, 2.0, NEUMANN, 1.0, {0: kernel_potential_neumann(1.0, 0.8),
                                                      1: pot}),
              BuildingBlock(spec, 2.0, DIRICHLET, 1.0, {1: pot}))
    return blocks, spec, 0, H, (10.0, 20.0, 30.0)


MARCH_CASES = {
    "glue-torus blocks": _torus_kernel_blocks,
    "glue-scalar-fine blocks": lambda: (sech_pair(), SCALAR, 0, 1.0 / 128, (10.0, 20.0, 30.0)),
    "potential on a positive mode": _positive_mode_potential_blocks,
}


@pytest.mark.parametrize("case", MARCH_CASES)
def test_one_march_to_the_widest_span_gives_every_T_its_kernel(case):
    blocks, spec, q, h, T_values = MARCH_CASES[case]()
    widest = max(2 * T + blocks[0].L + blocks[1].L for T in T_values)
    marches = tuple(glued_model.BlockMarch.shoot(b, q, h, math.inf, widest) for b in blocks)
    for T in T_values:
        G = glued_model.assemble(*blocks, spec, q, T, h)
        span = 2 * G.T + G.L1 + G.L2
        for block, march in zip(blocks, marches):
            # the march is prefix-stable, rescales and log scales included
            own = glued_model.BlockMarch.shoot(block, q, h, math.inf, span)
            assert np.array_equal(march.u[: len(own.u)], own.u)
            assert np.array_equal(march.log_scale[: len(own.u)], own.log_scale)
            fast = block_kernel(block, spec, q, h=h, cutoff=math.inf, reach=span, march=march)
            ref = block_kernel(block, spec, q, h=h, cutoff=math.inf, reach=span, march=None)
            assert [(e.mode_index, e.h, e.a, e.b, e.bounded) for e in fast] == \
                   [(e.mode_index, e.h, e.a, e.b, e.bounded) for e in ref]
            for e, r in zip(fast, ref):
                assert np.array_equal(e.samples, r.samples)
                assert not e.samples.flags.writeable and e.samples.flags.c_contiguous
                assert np.shares_memory(e.samples, march.u)
        S, S_ref = substitute_kernel(G, marches), substitute_kernel(G)
        assert S.matched == S_ref.matched
        assert [mode for mode, _ in S.basis] == [mode for mode, _ in S_ref.basis]
        assert all(np.array_equal(v, w) for (_, v), (_, w) in zip(S.basis, S_ref.basis))
    if case == "potential on a positive mode":
        assert all(np.max(m.log_scale) > 0 for m in marches)


def test_a_march_for_other_data_is_refused():
    b1, b2 = sech_pair()
    march = glued_model.BlockMarch.shoot(b1, 0, H, math.inf, 30.0)
    block_kernel(b1, SCALAR, 0, h=H, cutoff=math.inf, reach=30.0, march=march)
    for block, h, reach in ((b2, H, 30.0), (b1, H / 2, 30.0), (b1, H, 40.0)):
        with pytest.raises(ContractViolation, match="march: shot for another block"):
            block_kernel(block, SCALAR, 0, h=h, cutoff=math.inf, reach=reach, march=march)


# ---------------------------------------------------------------------------
# the characteristic system


def test_characteristic_entries_flat_nn():
    G = glue(nblock(), nblock())
    S = substitute_kernel(G)
    f = seeded_source(G, 5)
    sys = characteristic_system(G, S, f)
    assert sys.columns == ((0, "b"),)
    assert np.linalg.matrix_rank(sys.matrix) == 1
    # entries telescope to the exact trace Wronskians -1 and +1
    assert sys.matrix[0, 0] == pytest.approx(-1.0, abs=1e-10)
    assert sys.matrix[1, 0] == pytest.approx(1.0, abs=1e-10)


def test_characteristic_entries_flat_nd():
    G = glue(nblock(), dblock())
    S = substitute_kernel(G)
    sys = characteristic_system(G, S, seeded_source(G, 6))
    assert sys.columns == ((0, "a"), (0, "b"))
    assert np.linalg.matrix_rank(sys.matrix) == 2
    expected = np.array([[0.0, -1.0], [1.0, G.T + G.L2]])
    assert np.allclose(sys.matrix, expected, atol=1e-9)


def test_characteristic_entries_match_trace_wronskian():
    b1 = nblock(kernel_potential_neumann(2.0, 0.8), mu=2.0)
    G = glue(b1, dblock(), T=12.0)
    S = substitute_kernel(G)
    (e1,) = block_kernel(b1, SCALAR, 0, h=H, cutoff=math.inf, reach=2 * G.T + G.L1 + G.L2,
                         march=None)
    sys = characteristic_system(G, S, seeded_source(G, 7))
    a_col = sys.columns.index((0, "a"))
    b_col = sys.columns.index((0, "b"))
    # row 0 belongs to the block-1 element; its entries are the Wronskians
    # of (1, g) and (t, g) against the t-frame trace of g
    a_t = e1.a + e1.b * (G.T + G.L1)
    assert abs(sys.matrix[0, a_col] - (-e1.b)) <= 1e-8
    assert sys.matrix[0, b_col] == pytest.approx(-a_t, rel=1e-6)


def test_characteristic_zero_source():
    G = glue(nblock(), nblock())
    S = substitute_kernel(G)
    sys = characteristic_system(G, S, np.zeros((1, G.n_points)))
    sol = characteristic_solve(sys)
    assert sol.consistency == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(sol.coefficients, 0.0, atol=1e-14)
    e = np.zeros((1, G.n_points))
    u = approx_solve(G, S, e, G.families)
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
    e = f.copy()
    approx_solve(G, S, e, G.families)
    assert norm(G, e) <= 1e-10 * norm(G, f)


def test_approx_solve_flat_residual_floor():
    for b2 in (nblock(), dblock()):
        G = glue(nblock(), b2, T=10.0)
        S = substitute_kernel(G)
        f = S.project_off(seeded_source(G, 21))
        e = f.copy()
        u = approx_solve(G, S, e, G.families)
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
        e = f.copy()
        u = approx_solve(G, S, e, G.families)
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
    with pytest.raises(AnalysisError, match="^source overlaps the substitute kernel: "):
        approx_solve(G, S, f, G.families)


def torus_glue(T=8.0):
    """torus2, q = 1 between the sech blocks of the CLI glue runs; block 2
    also carries a repulsive bump on mode 5, one copy of a repeated nu."""
    spec = torus2_spectrum()
    bump = Potential(lambda s, h: 0.5 * np.exp(-s), 1.0)
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


def trace_grid(G, sys, coeffs):
    """Realize a coefficient vector as affine rows a + b t on the grid."""
    t = G.grid()
    out = np.zeros((len(G.modes), G.n_points), dtype=np.result_type(coeffs, float))
    for (mode, kind), c in zip(sys.columns, coeffs):
        out[mode] += c if kind == "a" else c * t
    return out


def per_mode_approx_solve(G, S, f):
    """approx_solve with one cylinder and one block solve per mode, and
    fresh full-size arrays at every step."""
    w1, zeta0, zeta1 = neck_windows(G)
    sys = characteristic_system(G, S, f)
    v = characteristic_solve(sys)
    u = (per_mode_cylinder(G, f * zeta1) + trace_grid(G, sys, v.coefficients)) * zeta0
    r = f - G.apply(u)
    sub1, _ = gluing_solver._block_subgrid(G, 1)
    sub2, _ = gluing_solver._block_subgrid(G, 2)
    side1, side2 = S.blocks
    for i in range(len(G.modes)):
        add = np.zeros(G.n_points, dtype=f.dtype)
        add[sub1] += w1[sub1] * gluing_solver._block_solve(side1, [i], r[[i]][:, sub1])[0]
        add[sub2] += (1.0 - w1)[sub2] * gluing_solver._block_solve(side2, [i], r[[i]][:, sub2])[0]
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
        assert np.array_equal(cylinder_solve(G, f, 1.0, G.families), per_mode_cylinder(G, f))
        zeta1 = neck_windows(G)[2]
        assert np.array_equal(cylinder_solve(G, f, zeta1, G.families),
                              per_mode_cylinder(G, f * zeta1))
        e = f.copy()
        u = approx_solve(G, S, e, G.families)
        u_ref, e_ref = per_mode_approx_solve(G, S, f)
        assert np.array_equal(u, u_ref)
        assert np.array_equal(e, e_ref)


def per_round_characteristic_system(G, f):
    """A reference characteristic system that makes every window,
    transplant and commutator from G itself, with the solver's
    expressions for each entry and right side."""
    span = 2 * G.T + G.L1 + G.L2
    kd1 = block_kernel(G.block1, G.spec, G.q, h=G.h, cutoff=math.inf, reach=span, march=None)
    kd2 = block_kernel(G.block2, G.spec, G.q, h=G.h, cutoff=math.inf, reach=span, march=None)
    matched = substitute_kernel(G).matched
    t = G.grid()
    w1, zeta0, zeta1 = neck_windows(G)
    cyl = cylinder_solve(G, f, zeta1, G.families)
    columns = []
    for mi in sorted(i for i, m in enumerate(G.modes) if m.is_zero_mode):
        if mi not in matched:
            columns.append((mi, "a"))
        columns.append((mi, "b"))
    col_of = {c: k for k, c in enumerate(columns)}
    ones = np.ones_like(t)
    rows, rhs = [], []
    for which, kd in ((1, kd1), (2, kd2)):
        w = w1 if which == 1 else 1.0 - w1
        for el in kd:
            g = transplant(G, which, el)
            comm = G.apply_mode(el.mode_index, w * g) - w * G.apply_mode(el.mode_index, g)
            row = np.zeros(len(columns), dtype=f.dtype)
            if (el.mode_index, "a") in col_of:
                row[col_of[(el.mode_index, "a")]] = G.h * np.sum(ones * np.conj(comm))
            row[col_of[(el.mode_index, "b")]] = G.h * np.sum(t * np.conj(comm))
            rows.append(row)
            rhs.append(G.h * np.sum(f[el.mode_index] * np.conj(w * g))
                       - G.h * np.sum(cyl[el.mode_index] * zeta0 * np.conj(comm)))
    return tuple(columns), np.array(rows), np.array(rhs)


@pytest.mark.parametrize("build, a_column", [
    (torus_glue, False),
    (lambda: glue(nblock(kernel_potential_neumann(2.0, 0.8), mu=2.0), dblock(), T=12.0), True),
], ids=["torus", "unmatched"])
def test_characteristic_system_equals_the_per_round_build_bit_for_bit(build, a_column):
    # the unmatched pair has an a column besides its b column
    G = build()
    S = substitute_kernel(G)
    for f in (cli._glued_source(G, 5), seeded_source(G, 5)):
        sys = characteristic_system(G, S, f)
        columns, matrix, rhs = per_round_characteristic_system(G, f)
        assert sys.columns == columns
        assert any(kind == "a" for _, kind in columns) == a_column
        assert sys.matrix.dtype == matrix.dtype == f.dtype
        assert sys.matrix.tobytes() == matrix.tobytes()
        assert sys.rhs.dtype == rhs.dtype == f.dtype
        assert sys.rhs.tobytes() == rhs.tobytes()


def test_operator_data_is_built_once_per_operator_and_is_read_only(monkeypatch):
    # three correction rounds between the scalar sech blocks at h = 1/128
    G = glue(*sech_pair(), T=10.0, h=1.0 / 128)
    calls = {"neck_windows": 0, "_block_matrix": []}
    windows, block_matrix = gluing_solver.neck_windows, gluing_solver._block_matrix

    def counted_windows(G):
        calls["neck_windows"] += 1
        return windows(G)

    def counted_matrix(G, which, mode_index, t_sub):
        calls["_block_matrix"].append((which, mode_index))
        return block_matrix(G, which, mode_index, t_sub)

    monkeypatch.setattr(gluing_solver, "neck_windows", counted_windows)
    monkeypatch.setattr(gluing_solver, "_block_matrix", counted_matrix)
    S = substitute_kernel(G)
    report = solve_exact(G, S, cli._glued_source(G, 1))
    assert report.iterations == 3 and report.residual <= 1e-9
    assert calls == {"neck_windows": 1, "_block_matrix": [(1, 0), (2, 0)]}
    side = S.blocks[0]
    for a in (G.grid(), *S.windows, side.diags[0], side.off, side.weight,
              S.pairings[0].commutator):
        with pytest.raises(ValueError):
            a[0] = 1.0


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
    e = S.project_off(f)
    arrays = [real.u, real.w, approx_solve(G, S, e, G.families), e,
              cylinder_solve(G, f, 1.0, G.families), sys.matrix, sys.rhs, sys.cylinder,
              solve_direct(G, S, f)]
    assert [a.dtype for a in arrays] == [np.float64] * len(arrays)


@functools.lru_cache(maxsize=None)
def cli_torus_glue(T=16.0):
    """The glued operator and substitute kernel of the CLI's torus2 glue
    runs (q = 1 between the two sech blocks, h = 1/16), by default at
    T = 16, where solve_exact takes two rounds."""
    spec = torus2_spectrum()
    b1 = BuildingBlock(spec, 2.0, NEUMANN, 1.0, {0: kernel_potential_neumann(1.0, 0.8)})
    b2 = BuildingBlock(spec, 2.0, NEUMANN, 1.0, {0: kernel_potential_neumann(1.0, -0.35)})
    G = glued_model.assemble(b1, b2, spec, 1, T, H)
    return G, substitute_kernel(G)


def traced_peak(fn, *args):
    """Peak bytes allocated while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_glue_round_peaks_stay_within_a_few_sources():
    # scipy.linalg is imported with this module, before tracing starts
    G, S = cli_torus_glue()
    f = cli._glued_source(G, 7)
    assert f.shape == (507, 576)
    src = S.project_off(f)
    approx_solve(G, S, src.copy(), G.families)  # allocations made once per process stay out of the peaks
    # the pass writes the residual over its source; beyond it, a pass holds
    # one (modes x n) array, u, plus one mode family's temporaries
    e = src.copy()
    peak = traced_peak(approx_solve, G, S, e, G.families)
    assert peak <= 2.5 * f.nbytes, peak / f.nbytes
    # measured 1.40: u and about 200 rows of temporaries, some six arrays of
    # the largest family's 36 rows; a second full-size array would pass 2
    assert peak <= 1.5 * f.nbytes, peak / f.nbytes
    assert solve_exact(G, S, f).iterations == 2
    # the one copy of f, which the rounds overwrite in place, |f|^2, u, w
    # and the u of a pass, plus temporaries
    peak = traced_peak(solve_exact, G, S, f)
    assert peak <= 6.0 * f.nbytes, peak / f.nbytes


@pytest.mark.parametrize("dtype", [float, complex])
def test_solvers_leave_the_source_as_given(dtype):
    # solve_exact leaves its source as given; approx_solve overwrites its
    # source with the residual, the e of the per-mode reference bit for bit
    G, S = cli_torus_glue()
    f = cli._glued_source(G, 7).astype(dtype)
    src = S.project_off(f)
    kept_f = f.copy()
    _, e_ref = per_mode_approx_solve(G, S, src)
    approx_solve(G, S, src, G.families)
    report = solve_exact(G, S, f)
    assert report.iterations == 2
    assert f.tobytes() == kept_f.tobytes()
    assert src.dtype == e_ref.dtype == dtype
    assert src.tobytes() == e_ref.tobytes()


def test_approx_solve_round_makes_one_cylinder_solve(monkeypatch):
    G = torus_glue()
    S = substitute_kernel(G)
    f = S.project_off(cli._glued_source(G, 7))
    calls = []

    def counted(G, f, window, families):
        calls.append(f.shape)
        return cylinder_solve(G, f, window, families)

    monkeypatch.setattr(gluing_solver, "cylinder_solve", counted)
    approx_solve(G, S, f, G.families)
    assert calls == [f.shape]


def test_an_unbordered_singular_family_is_an_analysis_error():
    # the zero mode of a free Neumann-Neumann operator keeps the constants,
    # so its matrix is exactly singular, glued or on a block side
    G = glue(nblock(), nblock())
    S = substitute_kernel(G)
    side = dataclasses.replace(S.blocks[0], borders={})
    rows = np.ones((1, side.sub.stop - side.sub.start))
    with pytest.raises(AnalysisError, match=r"^block 1 solve of mode 0 failed: \?gtsv: singular"):
        gluing_solver._block_solve(side, [0], rows)
    f = np.ones((1, G.n_points))
    with pytest.raises(AnalysisError, match=r"^direct solve of mode 0 failed: \?gtsv: singular"):
        solve_direct(G, dataclasses.replace(S, basis=()), f)


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

    # the members of a family share their eigenvalues exactly
    k = 3
    want = [float(v) for i in range(len(G.modes))
            for v in scipy.linalg.eigvalsh_tridiagonal(*G.mats[i], select="i",
                                                       select_range=(0, k - 1))]
    assert glued_model.eigen_lowest(G, k).entries == tuple(sorted(want))

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
    S = substitute_kernel(G)
    # strip the kernel data: the characteristic correction disappears and
    # the near-singular block solves blow the residual up instead of down
    S = dataclasses.replace(
        S,
        basis=(),
        blocks=tuple(dataclasses.replace(side, borders={}) for side in S.blocks),
        pairings=(),
    )
    assert S.dim == 0
    f = seeded_source(G, 51)
    with pytest.raises(AnalysisError, match=r"^iteration does not contract: eta = .* >= 1; the "
                       r"largest residual is on the family of mode 0, nu = 0, sqrt\(nu\) T = 0$"):
        solve_exact(G, S, f)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solvers_refuse_a_non_finite_source(bad):
    G, S = cli_torus_glue()
    f = cli._glued_source(G, 7)
    f[3, 5] = bad
    with pytest.raises(ContractViolation, match="source is not finite"):
        solve_exact(G, S, f)
    with pytest.raises(ContractViolation, match="source is not finite"):
        solve_direct(G, S, f)


def _recorded_rounds(monkeypatch, every_family=False):
    """Record the families solve_exact asks each approx_solve round for;
    with every_family, every family's norm reads as infinite, so solve_exact
    asks for them all in every round, adds u and refreshes |source|^2 on
    every row: full rounds, as before rounds were per family."""
    asked = []

    def recorded(G, S, f, families):
        asked.append(families)
        return approx_solve(G, S, f, families)

    monkeypatch.setattr(gluing_solver, "approx_solve", recorded)
    if every_family:
        monkeypatch.setattr(gluing_solver, "_family_norms",
                            lambda G, a: np.full(len(G.families), math.inf))
    return asked


@pytest.mark.parametrize("T, seed", [(10.0, 1), (16.0, 1), (16.0, 2), (24.0, 1)])
def test_per_family_rounds_match_full_rounds(monkeypatch, T, seed):
    # torus2 q = 1 between the CLI's sech blocks: after round 1 the residual
    # sits on a few of the 28 families
    G, S = cli_torus_glue(T)
    f = cli._glued_source(G, seed)
    asked = _recorded_rounds(monkeypatch)
    per_family = solve_exact(G, S, f)
    asked_full = _recorded_rounds(monkeypatch, every_family=True)
    full = solve_exact(G, S, f)
    assert per_family.iterations == full.iterations == len(asked) == len(asked_full)
    assert all(list(families) == list(G.families) for families in asked_full)
    assert per_family.residual <= 1e-9
    assert norm(G, per_family.u - full.u) <= 1e-12 * norm(G, full.u)
    assert norm(G, per_family.w - full.w) <= 1e-12 * norm(G, full.w)
    assert asked[0] is G.families
    for families in asked[1:]:
        assert 0 < len(families) < len(G.families)
        assert all(members in G.families for members in families)


def test_a_slowly_contracting_family_is_solved_again_with_the_zero_mode(monkeypatch):
    # nu = 0.1 contracts by about 0.019 a round at T = 10 on L = 2 blocks;
    # the zero mode carries the sech potentials, and nu = 4 is done in one round
    spec = scalar_spectrum(((0.0, 1), (0.1, 1), (4.0, 2)))
    b1 = BuildingBlock(spec, 2.0, NEUMANN, 1.0, {0: kernel_potential_neumann(1.0, 0.8)})
    b2 = BuildingBlock(spec, 2.0, NEUMANN, 1.0, {0: kernel_potential_neumann(1.0, -0.35)})
    G = glue(b1, b2, T=10.0, spec=spec)
    assert G.families == ([0], [1], [2, 3])
    S = substitute_kernel(G)
    f = S.project_off(seeded_source(G, 1, complex_part=False))
    asked = _recorded_rounds(monkeypatch)
    report = solve_exact(G, S, f)
    assert report.residual <= 1e-9
    assert asked[0] is G.families
    assert asked[1] == [[0], [1]]


def test_approx_solve_on_a_subset_is_the_subset_of_a_full_pass():
    G, S = cli_torus_glue()
    f = S.project_off(cli._glued_source(G, 3))
    e, e_sub = f.copy(), f.copy()
    u = approx_solve(G, S, e, G.families)
    subset = [members for members in G.families if 0 in members or len(members) > 20]
    rows = [i for members in subset for i in members]
    rest = [i for i in range(len(G.modes)) if i not in rows]
    u_sub = approx_solve(G, S, e_sub, families=subset)
    assert not u_sub[rest].any()
    assert np.array_equal(e_sub[rest], f[rest])
    assert norm(G, u_sub[rows] - u[rows]) <= 1e-13 * norm(G, u[rows])
    assert norm(G, e_sub[rows] - e[rows]) <= 1e-13 * norm(G, f[rows])


@pytest.mark.parametrize("dtype", [float, complex])
def test_a_positive_family_alone_is_its_rows_of_a_full_pass_bit_for_bit(dtype):
    # a pass carries each family through every stage on its own rows, so
    # solving one family alone must not move a bit of its u or e
    G, S = cli_torus_glue()
    f = cli._glued_source(G, 4) if dtype is float else seeded_source(G, 4)
    f = S.project_off(f)
    assert f.dtype == dtype
    e = f.copy()
    u = approx_solve(G, S, e, G.families)
    positive = [members for members in G.families if not G.modes[members[0]].is_zero_mode]
    assert len(positive) == 26
    for members in positive:
        e_one = f.copy()
        u_one = approx_solve(G, S, e_one, families=[members])
        assert u_one[members].tobytes() == u[members].tobytes()
        assert e_one[members].tobytes() == e[members].tobytes()


def _read_only(f):
    f = f.copy()
    f.flags.writeable = False
    return f


# sources approx_solve cannot overwrite with the residual: it refuses each
UNWRITABLE_SOURCES = {
    "read-only": _read_only,
    "float32": lambda f: f.astype(np.float32),
    "F-ordered": np.asfortranarray,
}


@pytest.mark.parametrize("solver", ["approx_solve", "characteristic_system", "cylinder_solve",
                                    *(f"approx_solve-{kind}" for kind in UNWRITABLE_SOURCES)])
def test_a_foreign_family_is_refused_before_any_full_size_array(solver):
    # [2, 338] mixes a positive mode with a zero mode of torus2: solved as
    # one family it would take mode 2's matrix and rate on row 338
    G, S = cli_torus_glue()
    f = S.project_off(cli._glued_source(G, 7))
    assert [2, 338] not in G.families
    # an unwritable source is made before tracing starts, as a caller's is
    kind = solver.removeprefix("approx_solve-")
    source = UNWRITABLE_SOURCES[kind](f) if kind in UNWRITABLE_SOURCES else f
    foreign = r"\[2, 338\] is not a mode family"
    call, match = {
        "approx_solve": (lambda: approx_solve(G, S, f, families=[[0], [2, 338]]), foreign),
        "characteristic_system": (lambda: characteristic_system(G, S, f, [[2, 338]]), foreign),
        "cylinder_solve": (lambda: cylinder_solve(G, f, 1.0, [[2, 338]]), foreign),
    }.get(solver, (lambda: approx_solve(G, S, source, G.families),
                   "writes the residual over its source"))
    tracemalloc.start()
    try:
        with pytest.raises(ContractViolation, match=match):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < f.nbytes / 10, peak / f.nbytes


def test_a_subset_pass_leaves_the_rows_outside_its_families_untouched():
    # a subset pass writes e on its own rows only: elsewhere e = f, which
    # the source rows already hold
    G, S = cli_torus_glue()
    f = S.project_off(cli._glued_source(G, 5))
    # the zero mode's one row, written through a view, and three families of
    # scattered rows, written through a copy
    subset = [members for members in G.families if members[0] in (0, 1, 2, 138)]
    assert len(subset) == 4 and [0] in subset
    e = f.copy()
    u = approx_solve(G, S, e, families=subset)
    rows = [i for members in subset for i in members]
    rest = [i for i in range(len(G.modes)) if i not in rows]
    assert e[rest].tobytes() == f[rest].tobytes()
    assert not u[rest].any()
    assert not np.array_equal(e[rows], f[rows])


def test_solve_report_csv_layout():
    b1, b2 = sech_pair(mu=1.0)
    G = glue(b1, b2, T=10.0)
    S = substitute_kernel(G)
    f = S.project_off(seeded_source(G, 61))
    report = solve_exact(G, S, f)
    text = solve_report_csv(G, report)
    lines = text.strip().split("\n")
    assert lines[0] == "T,iter,residual,eta,u_norm_over_f_norm"
    assert len(lines) == 1 + report.iterations
    first = lines[1].split(",")
    assert float(first[0]) == G.T
    assert int(first[1]) == 1
    assert float(first[2]) == report.residuals[0]
    assert report.f_norm == norm(G, f)


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
    _block_solve reads them for the kernel-bearing sech blocks."""
    side = substitute_kernel(glue(*sech_pair(), T=T)).blocks[which - 1]
    ((g, _),) = side.borders.values()
    return side.diags[0], side.off, g


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


# ---------------------------------------------------------------------------
# the LAPACK drivers against the scipy wrappers they replace


def _no_scipy_wrappers():
    """Patch scipy's banded solvers to fail: the drivers are called directly."""
    def refuse(*args, **kwargs):
        raise AssertionError("a scipy banded wrapper was called")

    return mock.patch.multiple(scipy.linalg, solve_banded=refuse, solveh_banded=refuse)


def _same_outcome(reference, call):
    """call() equals reference() bit for bit, or both raise LinAlgError."""
    try:
        want = reference()
    except np.linalg.LinAlgError:
        with _no_scipy_wrappers(), pytest.raises(np.linalg.LinAlgError):
            call()
        return
    with _no_scipy_wrappers():
        got = call()
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def _rhs(rng, n, shape, is_complex):
    size = (n,) if shape == 0 else (n, shape)
    rhs = rng.normal(size=size)
    return rhs + 1j * rng.normal(size=size) if is_complex else rhs


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), columns=st.integers(0, 3), is_complex=st.booleans(),
       scale=st.sampled_from([1e-3, 1.0, 4.0 / H**2]), seed=st.integers(0, 2**32 - 1))
def test_solve_tridiag_equals_solve_banded(n, columns, is_complex, scale, seed):
    # columns = 0 is a 1-D right-hand side; a diagonal small against the
    # off-diagonal makes gtsv pivot
    rng = np.random.default_rng(seed)
    diag = scale * rng.uniform(-1.0, 1.0, n)
    off = rng.uniform(-1.0, 1.0, n - 1)
    rhs = _rhs(rng, n, columns, is_complex)
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = off, diag, off
    _same_outcome(lambda: scipy.linalg.solve_banded((1, 1), ab, rhs),
                  lambda: gluing_solver._solve_tridiag(diag, off, rhs))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), columns=st.integers(0, 3), is_complex=st.booleans(),
       nu=st.sampled_from([0.0, 1e-6, 0.1, 4.0, 1e4]), h=st.sampled_from([H, 1.0 / 128]),
       seed=st.integers(0, 2**32 - 1))
def test_positive_mode_cylinder_equals_solveh_banded(n, columns, is_complex, nu, h, seed):
    rhs = _rhs(np.random.default_rng(seed), n, columns, is_complex)
    a = 0.5 * h**2 * nu
    r = 1.0 / (1.0 + a + math.sqrt(a * (2.0 + a)))
    ab = np.empty((2, n))
    ab[0] = nu + 2.0 / h**2
    ab[0, [0, -1]] -= r / h**2
    ab[1] = -1.0 / h**2
    if n == 1:
        # solveh_banded cannot take n = 1; solve_banded divides by the one entry
        reference = lambda: scipy.linalg.solve_banded((1, 1), np.array([[0.0], ab[0], [0.0]]), rhs)
    else:
        reference = lambda: scipy.linalg.solveh_banded(ab, rhs, lower=True)
    _same_outcome(reference, lambda: gluing_solver._positive_mode_cylinder(rhs, nu, h))


@pytest.mark.parametrize("is_complex", [False, True])
def test_tridiagonal_drivers_raise_on_a_singular_matrix(is_complex):
    rhs = _rhs(np.random.default_rng(0), 3, 2, is_complex)
    diag, off = np.ones(3), np.array([1.0, 0.0])  # rows 0 and 1 agree
    with _no_scipy_wrappers():
        with pytest.raises(np.linalg.LinAlgError):
            gluing_solver._solve_tridiag(diag, off, rhs)
        with pytest.raises(np.linalg.LinAlgError):
            gluing_solver._lapack_tridiag("ptsv", (np.array([1.0, 1.0, -1.0]), np.zeros(2)), rhs)
    # an empty right-hand side is returned empty, in scipy's dtype
    ab = np.array([[0.0, *off], diag, [*off, 0.0]])
    _same_outcome(lambda: scipy.linalg.solve_banded((1, 1), ab, rhs[:, :0]),
                  lambda: gluing_solver._solve_tridiag(diag, off, rhs[:, :0]))


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
    u0 = cylinder_solve(G, f, zeta1, G.families)
    out = G.apply_mode(0, u0[0])
    t = G.grid()
    inside = np.abs(t) <= G.T - 1.0
    assert np.allclose(out[inside], f0[0][inside], atol=1e-9 * max(1.0, norm(G, f0)))


def decaying_root(nu, h):
    """The root r < 1 of r + 1/r = 2 + h^2 nu: the infinite grid continues a
    solution of (nu - D_h^2) u = 0 past an end by the powers of r."""
    return math.exp(-math.acosh(1.0 + 0.5 * h**2 * nu))


@pytest.mark.parametrize("complex_part", [False, True], ids=["real", "complex"])
def test_cylinder_solve_is_exact_on_the_infinite_grid(complex_part):
    # every row of a positive family's solve, the end rows with the ghost
    # r u_end the infinite grid continues them by, reproduces the source
    G = torus_glue()
    f = seeded_source(G, 83, complex_part)
    if not complex_part:
        f = f.real.copy()
    u = cylinder_solve(G, f, 1.0, G.families)
    positive = [members for members in G.families if not G.modes[members[0]].is_zero_mode]
    assert len(positive) > 20
    for members in positive:
        nu = G.modes[members[0]].nu
        r = decaying_root(nu, G.h)
        for i in members:
            ext = np.concatenate([[r * u[i, 0]], u[i], [r * u[i, -1]]])
            residual = nu * ext[1:-1] - (ext[:-2] - 2.0 * ext[1:-1] + ext[2:]) / G.h**2
            scale = np.max(np.abs(f[i])) + (nu + 4.0 / G.h**2) * np.max(np.abs(u[i]))
            assert np.max(np.abs(residual - f[i])) <= 1e-14 * scale, (i, nu)


def test_cylinder_solve_matches_a_padded_reference_at_small_nu():
    # at h sqrt(nu) = 1/1600 the solution decays by e every 1600 points;
    # the reference pads each side until r^pad < e^-40, 64001 points
    nu, h, n = 1e-4, 1.0 / 16, 576
    f = np.array(SplitMix64(84).uniforms(n, -1.0, 1.0))
    pad = math.ceil(40.0 / -math.log(decaying_root(nu, h)))
    ab = np.zeros((2, n + 2 * pad))
    ab[0] = nu + 2.0 / h**2
    ab[1, :-1] = -1.0 / h**2
    rhs = np.zeros(n + 2 * pad)
    rhs[pad : pad + n] = f
    ref = scipy.linalg.solveh_banded(ab, rhs, lower=True)[pad : pad + n]
    u = gluing_solver._positive_mode_cylinder(f, nu, h)
    assert np.linalg.norm(u - ref) <= 1e-8 * np.linalg.norm(ref)
