"""Cylinder right inverse: moment kernels, Green's convolution, duality."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckspec.errors import ContractViolation
from neckspec.neck_inverse import (
    CompactSection,
    _gnu_convolve,
    _laplace_zero_inverse,
    _panel_weights,
    cell_grid,
    duality_check,
    mode_rows,
    operator_norm_fit,
    q0_apply,
    residual_on_support,
    seeded_section,
    total_rows,
)
from neckspec.polyhom import (
    CutoffFunction,
    DiracZero,
    LaplaceZero,
    PolyhomSection,
    _slice_section,
    affine_section,
    pairing_closed,
)
from neckspec.rng import SplitMix64
from neckspec.spectral_model import (
    KIND_DIRAC,
    KIND_LAPLACE,
    ModeOperator,
    circle_spectrum,
    mode_list,
    torus2_spectrum,
)


def laplace(nu, tag="alpha"):
    return ModeOperator(KIND_LAPLACE, nu, tag)


def dirac():
    return ModeOperator(KIND_DIRAC, 0.0, "alpha")


def box_section(modes, s_max, support, h, row=0, height=1.0):
    t = cell_grid(s_max, h)
    vals = np.zeros((total_rows(modes), len(t)), dtype=complex)
    vals[row, np.abs(t) <= support] = height
    return CompactSection(tuple(modes), s_max, support, h, vals)


def affine_trace(f, row, t):
    """m0 - t m1: the affine continuation of Q0 f's Laplace zero row beyond
    the support, from the moment sums m1 = int f and m0 = int tau f."""
    m1 = f.h * complex(np.sum(f.values[row]))
    m0 = f.h * complex(np.sum(f.grid() * f.values[row]))
    return m0 - t * m1


def pair_summands(summands, v):
    """Sum over (fiber operator, trace) of the closed pairing of the trace
    with its slice of v, the slices following each other in fiber order."""
    pair, lo = 0j, 0
    for op, u in summands:
        sl = slice(lo, lo + op.fiber_dim)
        pair += pairing_closed(op, u, _slice_section(v, sl, op.fiber_dim))
        lo += op.fiber_dim
    return pair


class TestLayout:
    def test_mode_rows(self):
        modes = (laplace(0.0), dirac(), laplace(1.0))
        assert mode_rows(modes) == [slice(0, 1), slice(1, 3), slice(3, 4)]
        assert total_rows(modes) == 4

    def test_grid_is_cell_centered(self):
        t = cell_grid(2.0, 0.5)
        np.testing.assert_allclose(t, [-1.75, -1.25, -0.75, -0.25, 0.25, 0.75, 1.25, 1.75])

    def test_bad_divisibility(self):
        with pytest.raises(ContractViolation):
            cell_grid(1.0, 0.3)


class TestCompactSection:
    def test_support_violation_rejected(self):
        modes = (laplace(0.0),)
        t = cell_grid(4.0, 0.25)
        vals = np.ones((1, len(t)), dtype=complex)
        with pytest.raises(ContractViolation, match="support"):
            CompactSection(modes, 4.0, 1.0, 0.25, vals)

    def test_shape_checked(self):
        modes = (dirac(),)
        with pytest.raises(ContractViolation):
            CompactSection(modes, 4.0, 1.0, 0.25, np.zeros((1, 32)))


class TestZeroModeInverse:
    def test_box_trace_value(self):
        # u_s(t) = -int_{-1}^{1} (t - tau) dtau = -2t for t > 1
        f = box_section((laplace(0.0),), 4.0, 1.0, 1.0 / 32)
        u = q0_apply(f)
        t = f.grid()
        right = t > 1.0
        np.testing.assert_allclose(u[0, right], -2.0 * t[right], rtol=0, atol=1e-12)
        np.testing.assert_allclose(u[0, right], affine_trace(f, 0, t[right]), rtol=0, atol=1e-12)

    def test_support_law_exact(self):
        f = seeded_section((laplace(0.0),), 6.0, 2.0, 1.0 / 16, seed=3)
        u = q0_apply(f)
        t = f.grid()
        assert np.all(u[:, t < -2.0] == 0)

    def test_trace_matches_samples_exactly(self):
        f = seeded_section((laplace(0.0),), 6.0, 2.0, 1.0 / 16, seed=4)
        u = q0_apply(f)
        t = f.grid()
        right = t > 2.0
        np.testing.assert_allclose(u[0, right], affine_trace(f, 0, t[right]), rtol=0, atol=1e-12)

    def test_discrete_stencil_inverted_exactly(self):
        f = seeded_section((laplace(0.0),), 6.0, 2.0, 1.0 / 64, seed=5)
        assert residual_on_support(q0_apply(f), f) <= 1e-9

    def test_odd_input_has_no_linear_trace(self):
        modes = (laplace(0.0),)
        h = 1.0 / 32
        t = cell_grid(5.0, h)
        vals = np.zeros((1, len(t)), dtype=complex)
        inside = np.abs(t) <= 1.0
        vals[0, inside] = t[inside]
        f = CompactSection(modes, 5.0, 1.0, h, vals)
        u = q0_apply(f)
        right = t > 1.0
        # m1 = integral of odd vanishes; m0 = int tau^2 = 2/3 up to O(h^2)
        assert abs(h * np.sum(vals[0])) <= 1e-13
        np.testing.assert_allclose(u[0, right], 2.0 / 3.0, rtol=0, atol=h**2)
        np.testing.assert_allclose(u[0, right], affine_trace(f, 0, t[right]), rtol=0, atol=1e-12)

    def test_dirac_inverse(self):
        modes = (dirac(),)
        f = box_section(modes, 4.0, 1.0, 1.0 / 32, row=0)
        u = q0_apply(f)
        # u = -J int f: alpha-row input feeds the beta row with a minus sign
        t = f.grid()
        right = t > 1.0
        np.testing.assert_allclose(u[1, right], -2.0, atol=1e-12)
        np.testing.assert_allclose(u[0, right], 0.0, atol=1e-12)
        assert np.all(u[:, t < -1.0] == 0)

    def test_dirac_residual_second_order(self):
        errs = []
        for h in (1.0 / 64, 1.0 / 128):
            f = seeded_section((dirac(),), 6.0, 2.0, h, seed=9)
            errs.append(residual_on_support(q0_apply(f), f))
        assert errs[0] <= 1e-3
        assert errs[1] <= errs[0] / 3.0

    def test_grid_margin_required(self):
        f = box_section((laplace(0.0),), 2.5, 1.0, 0.25)
        with pytest.raises(ContractViolation):
            q0_apply(f)


class TestGreenConvolution:
    def test_delta_profile(self):
        modes = (laplace(1.0),)
        h = 1.0 / 64
        t = cell_grid(6.0, h)
        vals = np.zeros((1, len(t)), dtype=complex)
        j0 = len(t) // 2
        vals[0, j0] = 1.0 / h
        f = CompactSection(modes, 6.0, 1.0, h, vals)
        u = q0_apply(f)[0].real
        expected = np.exp(-np.abs(t - t[j0])) / 2
        # the discrete delta is a width-2h hat, so the peak is low by O(h)
        assert np.max(np.abs(u - expected)) <= h / 4

    def test_linfty_bound_nu_four(self):
        modes = (laplace(4.0),)
        h = 1.0 / 128
        t = cell_grid(4.0, h)
        vals = np.zeros((1, len(t)), dtype=complex)
        vals[0, len(t) // 2] = 1.0 / h
        f = CompactSection(modes, 4.0, 1.0, h, vals)
        assert np.max(np.abs(q0_apply(f))) == pytest.approx(0.25, rel=2.0 * h)

    def test_residual_second_order(self):
        errs = []
        for h in (1.0 / 64, 1.0 / 128):
            f = seeded_section((laplace(2.0),), 6.0, 2.0, h, seed=12)
            errs.append(residual_on_support(q0_apply(f), f))
        assert errs[0] <= 1e-3
        assert errs[1] <= errs[0] / 3.0

    def test_exponential_decay_beyond_support(self):
        f = seeded_section((laplace(1.0),), 10.0, 2.0, 1.0 / 32, seed=6)
        u = q0_apply(f)
        t = f.grid()
        l1 = f.h * float(np.sum(np.abs(f.values)))
        outside = t > 2.0
        bound = l1 * np.exp(-(t[outside] - 2.0)) / 2.0
        assert np.all(np.abs(u[0, outside]) <= bound * (1 + 1e-6))

    @given(st.floats(0.05, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_panel_weights_continuous_at_series_switch(self, a):
        # direct and series formulas must agree in the handoff region
        for x in (2e-4, 5e-4, 9e-4, 1.1e-3, 2e-3):
            h = x / a
            far_d, near_d = _panel_weights(a, h)
            e = math.exp(-x)
            near_ref = (x - 1.0 + e) / (a * a * h)
            far_ref = (1.0 - e) / a - near_ref
            assert near_d == pytest.approx(near_ref, rel=1e-6, abs=1e-18)
            assert far_d == pytest.approx(far_ref, rel=1e-6, abs=1e-18)


def convolve_row(f, nu, h):
    """Reference: one row at a time, one element per step, in the row's dtype."""
    a = math.sqrt(nu)
    e = math.exp(-a * h)
    w_prev, w_here = _panel_weights(a, h)
    n = len(f)
    forward = np.zeros(n, dtype=np.result_type(f, float))
    for j in range(1, n):
        forward[j] = e * forward[j - 1] + w_prev * f[j - 1] + w_here * f[j]
    backward = np.zeros_like(forward)
    for j in range(n - 2, -1, -1):
        backward[j] = e * backward[j + 1] + w_prev * f[j + 1] + w_here * f[j]
    return (forward + backward) * (1.0 / (2 * a))


def bitwise_equal(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestBatchedConvolution:
    """The march over all rows at once must give the per-row bytes."""

    def march_matches_rows(self, rows, nus, h):
        out = _gnu_convolve(np.ascontiguousarray(rows.T), nus, h)
        ref = np.array([convolve_row(row, nu, h) for row, nu in zip(rows, nus)])
        assert bitwise_equal(out.T.copy(), ref)

    def test_rows_with_different_nu(self):
        h = 1.0 / 64
        # nu = 1e-8 gives a * h < 1e-3: the series branch of the panel weights
        nus = [1e-8, 0.25, 1.0, 2.0, 17.0, 400.0]
        assert math.sqrt(nus[0]) * h < 1e-3
        f = seeded_section(tuple(laplace(nu) for nu in nus), 4.0, 2.0, h, seed=3)
        self.march_matches_rows(f.values, nus, h)

    def test_single_row(self):
        f = seeded_section((laplace(3.0),), 4.0, 2.0, 1.0 / 128, seed=8)
        self.march_matches_rows(f.values, [3.0], 1.0 / 128)

    def test_complex_rows(self):
        h = 1.0 / 32
        nus = [0.5, 9.0, 1e-8]
        re = seeded_section(tuple(laplace(nu) for nu in nus), 4.0, 2.0, h, seed=5).values
        im = seeded_section(tuple(laplace(nu) for nu in nus), 4.0, 2.0, h, seed=6).values
        rows = re + 1j * im.real
        assert np.all(rows.imag[:, np.abs(cell_grid(4.0, h)) < 1.0] != 0)
        self.march_matches_rows(rows, nus, h)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("lo, hi", [(0, 40), (150, 255), (0, 255), (97, 97), (3, 4)],
                             ids=["touches-row-0", "touches-row-n-1", "whole-grid",
                                  "single-row", "two-rows"])
    def test_support_at_the_grid_edges(self, lo, hi, dtype):
        # the march skips the zero rows outside [lo, hi] and decays past them
        nus = [0.25, 9.0, 1e-8, 400.0]
        rows = np.zeros((len(nus), 256), dtype=dtype)
        rng = SplitMix64(1000 * lo + hi)
        width = hi + 1 - lo
        rows[:, lo : hi + 1] = rng.uniforms(len(nus) * width, -1.0, 1.0).reshape(len(nus), width)
        if dtype is complex:
            rows[:, lo : hi + 1] += 1j * rng.uniforms(len(nus) * width, -1.0, 1.0).reshape(
                len(nus), width)
        self.march_matches_rows(rows, nus, 1.0 / 32)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+0", "-0"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_input(self, sign, dtype):
        rows = sign * np.zeros((3, 128), dtype=dtype)
        self.march_matches_rows(rows, [0.5, 4.0, 1e-8], 1.0 / 16)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_underflowed_tails_are_positive_zeros(self, dtype):
        # at nu >= 2.5e5 the decay e^{-500 |t|} underflows within two units
        # past the support; a negative row decays to -0 unless each step's
        # + 0 turns it into +0
        h, nus = 1.0 / 64, [1e6, 2.5e5, 1.0]
        t = cell_grid(4.0, h)
        rows = np.zeros((len(nus), len(t)), dtype=dtype)
        rows[:, np.abs(t) <= 1.0] = -1.0 - (1j if dtype is complex else 0)
        ref = np.array([convolve_row(row, nu, h) for row, nu in zip(rows, nus)])
        tails = np.abs(t) > 3.0
        assert not np.any(ref[:2, tails]) and np.all(ref[2, tails].real < 0)
        self.march_matches_rows(rows, nus, h)

    def test_q0_apply_holds_at_most_two_and_a_half_copies(self):
        # the march's input and output, then its output and the samples:
        # the input is freed before the samples are allocated
        modes = mode_list(torus2_spectrum(), 1, math.inf)
        assert len(modes) == 507
        f = seeded_section(modes, 7.0, 5.0, 1.0 / 128, seed=264)
        tracemalloc.start()
        try:
            q0_apply(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * f.values.nbytes

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_residual_on_support_memory_stays_within_one_and_a_quarter_copies(self, dtype):
        # one (support window x rows) buffer that takes P u - f and then |f|,
        # each squared in place, plus |P u - f| beside it for a complex section
        modes = mode_list(torus2_spectrum(), 1, math.inf)
        f = seeded_section(modes, 7.0, 5.0, 1.0 / 128, seed=264)
        f = CompactSection(f.modes, f.s_max, f.support, f.h, f.values.astype(dtype))
        u = q0_apply(f)
        tracemalloc.start()
        try:
            residual_on_support(u, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * f.values.nbytes


class TestRealArithmetic:
    """A real section stays float64 and gives the real parts of its complex cast."""

    @pytest.mark.parametrize(
        "modes",
        [mode_list(torus2_spectrum(), 1, math.inf), (laplace(0.0), laplace(1.0), dirac())],
        ids=["torus2-q1", "mixed-dirac"],
    )
    def test_real_section_matches_its_complex_cast(self, modes):
        f = seeded_section(modes, 7.0, 5.0, 1.0 / 64, seed=31)
        fc = CompactSection(f.modes, f.s_max, f.support, f.h, f.values.astype(complex))
        assert f.values.dtype == np.float64
        x, z = q0_apply(f), q0_apply(fc)
        assert x.dtype == np.float64
        assert bitwise_equal(x, z.real.copy())
        assert not np.any(z.imag)
        assert residual_on_support(x, f) == residual_on_support(z, fc)
        # a kernel element of the zero-mode operator: affine on Laplace
        # slots, constant on Dirac slots
        slope = np.concatenate([[1.0] if m.kind == KIND_LAPLACE else [0.0, 0.0]
                                for m in modes if m.is_zero_mode])
        k = np.arange(len(slope))
        v = PolyhomSection(len(slope), (np.cos(k), slope * np.sin(k + 1)))
        pair, l2, gap = duality_check(f, v)
        pair_c, l2_c, gap_c = duality_check(fc, v)
        scale = 1 + abs(pair) + abs(l2)
        assert abs(pair - pair_c) <= 1e-13 * scale
        assert abs(l2 - l2_c) <= 1e-13 * scale
        assert max(gap, gap_c) <= 1e-10 * scale


class TestMixedModes:
    def test_residual_and_convergence(self):
        modes = (laplace(0.0), laplace(1.0), dirac())
        errs = []
        for h in (1.0 / 64, 1.0 / 128):
            f = seeded_section(modes, 6.0, 2.0, h, seed=21)
            errs.append(residual_on_support(q0_apply(f), f))
        assert errs[0] <= 1e-3
        assert errs[1] <= errs[0] / 3.0

    def test_positive_mode_rows_stay_regular(self):
        modes = (laplace(0.0), laplace(1.0))
        f = seeded_section(modes, 6.0, 2.0, 1.0 / 32, seed=2)
        u = q0_apply(f)
        # the positive row comes from the Green's march alone, the zero row
        # from the moment kernel alone
        march = _gnu_convolve(f.values[1][:, None], [1.0], f.h)[:, 0]
        assert np.array_equal(u[1], march)
        assert np.array_equal(u[0], _laplace_zero_inverse(f.values[0], f.grid(), f.h))


class TestInvertibility:
    def test_spectral_bound(self):
        # on modes with nu >= nu0 > 0 the inverse has norm at most 1/nu0
        modes = (laplace(1.0), laplace(4.0))
        f = seeded_section(modes, 6.0, 2.0, 1.0 / 32, seed=8)
        u = q0_apply(f)
        ratio = math.sqrt(np.sum(np.abs(u) ** 2) / np.sum(np.abs(f.values) ** 2))
        assert ratio <= 1.0 + (1.0 / 32) ** 2


class TestNormLaw:
    def test_laplace_growth_quadratic(self):
        fit = operator_norm_fit(KIND_LAPLACE, (5.0, 10.0, 20.0, 40.0))
        assert 1.8 <= fit.exponent <= 2.2

    def test_dirac_growth_linear(self):
        fit = operator_norm_fit(KIND_DIRAC, (5.0, 10.0, 20.0, 40.0))
        assert 0.8 <= fit.exponent <= 1.2


class TestDuality:
    def test_box_against_constant(self):
        modes = (laplace(0.0),)
        f = box_section(modes, 4.0, 1.0, 1.0 / 64)
        pair, l2, gap = duality_check(f, affine_section([1.0], [0.0]))
        assert l2 == pytest.approx(2.0)
        assert pair == pytest.approx(2.0)
        assert gap <= 1e-12

    def test_box_against_linear(self):
        modes = (laplace(0.0),)
        f = box_section(modes, 4.0, 1.0, 1.0 / 64)
        pair, l2, gap = duality_check(f, affine_section([0.0], [1.0]))
        assert abs(l2) <= 1e-12
        assert gap <= 1e-12

    def test_seeded_cases_exact(self):
        modes = (laplace(0.0, "alpha"), laplace(0.0, "beta"), dirac(), laplace(1.0))
        for seed in range(30):
            f = seeded_section(modes, 6.0, 2.0, 1.0 / 16, seed=seed)
            rng_v = np.cos(seed + np.arange(8.0))
            v = PolyhomSection(4, (rng_v[:4], np.array([rng_v[4], rng_v[5], 0.0, 0.0])))
            pair, l2, gap = duality_check(f, v)
            scale = 1 + abs(pair) + abs(l2)
            assert gap <= 1e-10 * scale

    def test_fiber_is_one_slot_per_laplace_zero_mode_two_per_dirac(self):
        modes = (laplace(2.0), laplace(0.0, "beta"), dirac(), laplace(1.0), laplace(0.0))
        f = seeded_section(modes, 6.0, 2.0, 1.0 / 16, seed=1)
        pair, l2, gap = duality_check(f, PolyhomSection(4, (np.ones(4),)))
        assert gap <= 1e-10 * (1 + abs(pair) + abs(l2))
        for dim in (3, 5):
            with pytest.raises(ContractViolation, match="fiber"):
                duality_check(f, PolyhomSection(dim, (np.ones(dim),)))
        f = seeded_section((laplace(1.0),), 6.0, 2.0, 1.0 / 16, seed=1)
        got = duality_check(f, PolyhomSection(1, (np.ones(1),)))
        assert repr(got) == repr((0j, 0j, 0.0))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_pairing_is_its_moment_reference_bit_for_bit(self, dtype):
        # positive modes between the zero modes, so the zero rows are no prefix
        modes = (laplace(2.0), laplace(0.0, "alpha"), laplace(1.0), dirac(), laplace(0.0, "beta"))
        rows = [1, 3, 4, 5]
        for seed in range(5):
            f = seeded_section(modes, 6.0, 2.0, 1.0 / 16, seed=seed)
            f = CompactSection(f.modes, f.s_max, f.support, f.h, f.values.astype(dtype))
            # a kernel element: affine on the Laplace slots, constant on the Dirac ones
            k = np.arange(len(rows)) + seed
            slope = np.array([1.0, 0.0, 0.0, 1.0]) * np.sin(k)
            v = PolyhomSection(len(rows), (np.cos(k), slope))
            t, h = f.grid(), f.h
            # the reference: each zero mode's affine trace from its moment
            # sums, paired with its slice of v, added up in fiber order
            m1 = [h * complex(np.sum(f.values[r])) for r in rows]
            m0 = [h * complex(np.sum(t * f.values[r])) for r in rows]
            summands = [
                (LaplaceZero(1, 0), PolyhomSection(1, (np.array([m0[0]]), np.array([-m1[0]])))),
                (DiracZero(1), PolyhomSection(2, (np.array([m1[2], -m1[1]]),))),
                (LaplaceZero(1, 0), PolyhomSection(1, (np.array([m0[3]]), np.array([-m1[3]])))),
            ]
            pair = pair_summands(summands, v)
            l2 = h * complex(np.sum(f.values[rows, :] * np.conj(v.evaluate(t))))
            assert duality_check(f, v) == (pair, l2, abs(pair - l2))
            # independently: the trace read off the full inverse's samples at
            # two points beyond the support pairs to the same value
            u = q0_apply(f)
            j1, j2 = np.flatnonzero(t > 2.0)[[0, -1]]
            slopes = (u[:, j2] - u[:, j1]) / (t[j2] - t[j1])
            heights = u[:, j1] - slopes * t[j1]
            read = [
                (LaplaceZero(1, 0), PolyhomSection(1, (heights[[1]], slopes[[1]]))),
                (DiracZero(1), PolyhomSection(2, (u[[3, 4], j1],))),
                (LaplaceZero(1, 0), PolyhomSection(1, (heights[[5]], slopes[[5]]))),
            ]
            assert abs(pair_summands(read, v) - pair) <= 1e-10

    def test_zero_section(self):
        modes = (laplace(0.0),)
        t = cell_grid(4.0, 1.0 / 16)
        f = CompactSection(modes, 4.0, 1.0, 1.0 / 16, np.zeros((1, len(t)), dtype=complex))
        pair, l2, gap = duality_check(f, affine_section([1.0], [0.0]))
        assert (pair, l2, gap) == (0, 0, 0)


class TestOutput:
    def test_seeded_section_deterministic(self):
        a = seeded_section((laplace(0.0),), 4.0, 1.0, 0.25, seed=7)
        b = seeded_section((laplace(0.0),), 4.0, 1.0, 0.25, seed=7)
        c = seeded_section((laplace(0.0),), 4.0, 1.0, 0.25, seed=8)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.any(a.values != c.values)
        assert np.any(a.values != 0)

    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 128])
    def test_seeded_section_matches_the_whole_array_fill(self, h):
        # a test-local copy of the fill the row blocks replaced: each
        # harmonic over all rows at once, in the same (a cos + b sin) grouping
        modes = tuple(mode_list(torus2_spectrum(), 1, math.inf)[:70]) + (dirac(),)
        got = seeded_section(modes, 6.0, 4.0, h, seed=13)
        gen = SplitMix64(13)
        t = cell_grid(6.0, h)
        want = np.zeros((total_rows(modes), len(t)))
        lo, hi = np.searchsorted(t, -4.0, side="right"), np.searchsorted(t, 4.0)
        rows, t = want[:, lo:hi], t[lo:hi]
        rise = CutoffFunction(center=-4.0 + 0.5)
        amps = gen.uniforms(8 * len(want), -1.0, 1.0).reshape(len(want), 4, 2)
        for k in range(4):
            amp = amps[:, k] / (1 + k) ** 2
            rows += (amp[:, :1] * np.cos(k * math.pi * t / 4.0)
                     + amp[:, 1:] * np.sin((k + 1) * math.pi * t / 4.0))
        rows *= rise(t) * rise(-t)
        assert np.array_equal(got.values, want)


def apply_discrete(modes, values, h):
    """Reference: the three-point Laplace stencil and central-difference
    Dirac rotation over the whole grid, one row at a time; the endpoint
    columns are zero."""
    out = np.zeros_like(values, dtype=np.result_type(values, float))
    for m, sl in zip(modes, mode_rows(modes)):
        if m.kind == KIND_LAPLACE:
            u = values[sl.start]
            out[sl.start, 1:-1] = m.nu * u[1:-1] - (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
        else:
            ua, ub = values[sl.start], values[sl.start + 1]
            da = (ua[2:] - ua[:-2]) / (2 * h)
            db = (ub[2:] - ub[:-2]) / (2 * h)
            out[sl.start, 1:-1] = -db
            out[sl.start + 1, 1:-1] = da
    return out


def residual_reference(u, f):
    """Reference: P u from apply_discrete, and P u - f and |f| on the
    support window as column-major copies, each squared and summed in
    memory order."""
    t = f.grid()
    pu = apply_discrete(f.modes, u, f.h)
    inside = np.flatnonzero(np.abs(t) <= f.support)
    window = slice(max(int(inside[0]), 1), min(int(inside[-1]) + 1, len(t) - 1))
    diff = np.subtract(pu[:, window], f.values[:, window], order="F")
    diff = np.abs(diff) if np.iscomplexobj(diff) else diff
    num = float(np.sum(np.square(diff)))
    denom = math.sqrt(f.h * float(np.sum(np.square(np.abs(f.values[:, window], order="F")))))
    if denom == 0:
        return 0.0
    return math.sqrt(f.h * num) / denom


class TestDiscreteApply:
    """P u as residual_on_support forms it: the relative residual of P u
    against its exact image is roundoff, and against twice it one half."""

    def residuals(self, modes, u, pu, h):
        t = cell_grid(2.0, h)
        inside = np.abs(t) <= 1.5
        out = []
        for scale in (1.0, 2.0):
            vals = np.zeros_like(u)
            vals[:, inside] = scale * pu[:, inside]
            out.append(residual_on_support(u, CompactSection(modes, 2.0, 1.5, h, vals)))
        return out

    def test_laplace_quadratic(self):
        # nu u - u'' on u = t^2 gives nu t^2 - 2 exactly for the 3-point stencil
        modes = (laplace(3.0),)
        h = 0.25
        t = cell_grid(2.0, h)
        u = (t**2)[None, :].astype(complex)
        exact, half = self.residuals(modes, u, (3.0 * t**2 - 2.0)[None, :], h)
        assert exact <= 1e-14
        assert half == pytest.approx(0.5, abs=1e-14)

    def test_dirac_rotation(self):
        modes = (dirac(),)
        h = 0.25
        t = cell_grid(2.0, h)
        u = np.vstack([t, 3.0 * t]).astype(complex)
        exact, half = self.residuals(modes, u, np.vstack([-3.0 + 0 * t, 1.0 + 0 * t]), h)
        assert exact <= 1e-14
        assert half == pytest.approx(0.5, abs=1e-14)


class TestResidualReference:
    """residual_on_support gives the reference's bits: the whole-grid P u
    and the column-major window copies it replaced."""

    SPECTRA = {
        "torus2-q0": mode_list(torus2_spectrum(), 0, math.inf),
        "torus2-q1": mode_list(torus2_spectrum(), 1, math.inf),
        "torus2-q2": mode_list(torus2_spectrum(), 2, math.inf),
        "circle-q1": mode_list(circle_spectrum(), 1, math.inf),
        "mixed-dirac": (laplace(0.0), laplace(1.0), dirac()),
    }

    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 32, 1.0 / 64], ids=["h16", "h32", "h64"])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("spectrum", SPECTRA)
    def test_matches_the_reference_bit_for_bit(self, spectrum, dtype, h):
        modes = self.SPECTRA[spectrum]
        f = seeded_section(modes, 7.0, 5.0, h, seed=35)
        if dtype is complex:
            im = seeded_section(modes, 7.0, 5.0, h, seed=36).values
            f = CompactSection(f.modes, f.s_max, f.support, h, f.values + 1j * im)
        u = q0_apply(f)
        assert u.dtype == f.values.dtype
        got, want = residual_on_support(u, f), residual_reference(u, f)
        assert 0 < want < 1e-2
        assert repr(got) == repr(want)
