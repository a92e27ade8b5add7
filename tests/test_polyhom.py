"""Polynomial sections, the right inverse, and the pairing."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckspec.errors import ContractViolation
from neckspec.polyhom import (
    CutoffFunction,
    DiracZero,
    LaplaceZero,
    PolyhomSection,
    affine_section,
    apply_P,
    dump,
    gram_matrix,
    in_kernel,
    pairing_closed,
    pairing_integral,
    q_lambda0,
    standard_kernel_basis,
)


def poly_section(dim, *coeffs):
    return PolyhomSection(dim, tuple(np.asarray(c) for c in coeffs))


def sections_equal(u, v):
    if len(u.coeffs) != len(v.coeffs):
        return False
    for a, b in zip(u.coeffs, v.coeffs):
        if not all(x == y for x, y in zip(a.tolist(), b.tolist())):
            return False
    return True


class TestCutoff:
    def test_edge_values(self):
        chi = CutoffFunction()
        assert chi(-0.5) == 0.0
        assert chi(0.5) == 1.0
        assert chi(-3.0) == 0.0
        assert chi(7.0) == 1.0
        assert chi(0.0) == pytest.approx(0.5)

    def test_partition_of_unity(self):
        chi = CutoffFunction()
        t = np.linspace(-1, 1, 101)
        np.testing.assert_allclose(chi(t) + chi(-t), 1.0, atol=1e-15)

    def test_monotone(self):
        chi = CutoffFunction()
        vals = chi(np.linspace(-0.6, 0.6, 400))
        assert np.all(np.diff(vals) >= 0)

    def test_center_shifts_support(self):
        chi = CutoffFunction(center=2.0)
        assert chi(1.5) == 0.0
        assert chi(2.5) == 1.0
        assert chi(2.0) == pytest.approx(0.5)

    def test_first_derivative_matches_difference_quotient(self):
        chi = CutoffFunction()
        t = np.linspace(-0.45, 0.45, 37)
        h = 1e-5
        fd = (chi(t + h) - chi(t - h)) / (2 * h)
        np.testing.assert_allclose(chi.d1(t), fd, atol=1e-8)

    def test_second_derivative_matches_difference_quotient(self):
        chi = CutoffFunction()
        t = np.linspace(-0.45, 0.45, 37)
        h = 1e-5
        fd = (chi.d1(t + h) - chi.d1(t - h)) / (2 * h)
        np.testing.assert_allclose(chi.d2(t), fd, atol=1e-7)

    def test_derivatives_vanish_at_edges(self):
        chi = CutoffFunction()
        for t in (-0.5, 0.5):
            assert chi.d1(t) == 0.0
            assert chi.d2(t) == 0.0


class TestSections:
    def test_trailing_zeros_trimmed(self):
        u = poly_section(1, [1.0], [0.0], [0.0])
        assert len(u.coeffs) == 1

    def test_evaluate(self):
        u = affine_section([1.0], [2.0])
        t = np.array([0.0, 1.0, -2.0])
        np.testing.assert_allclose(u.evaluate(t)[0], [1.0, 3.0, -3.0])

    def test_dump_golden(self):
        u = affine_section([1.0, 0.0], [0.0, -0.5])
        assert dump(u) == (
            "section fiber_dim=2\n"
            "  t^0: [1.0, 0.0]\n"
            "  t^1: [0.0, -0.5]\n"
        )


class TestApplyP:
    def test_laplace_quadratic(self):
        op = LaplaceZero(1, 0)
        u = poly_section(1, [0.0], [0.0], [1.0])
        out = apply_P(op, u)
        assert sections_equal(out, poly_section(1, [-2.0]))

    def test_laplace_kernel(self):
        op = LaplaceZero(2, 1)
        u = affine_section([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert apply_P(op, u).coeffs == ()
        assert in_kernel(op, u)

    def test_dirac_constant_kernel(self):
        op = DiracZero(1)
        u = poly_section(2, [1.0, 0.5])
        assert apply_P(op, u).coeffs == ()
        assert in_kernel(op, u)

    def test_dirac_linear_not_kernel(self):
        op = DiracZero(1)
        u = poly_section(2, [0.0, 0.0], [1.0, 0.0])
        out = apply_P(op, u)
        # J d/dt of t(alpha) = J alpha = beta
        assert sections_equal(out, poly_section(2, [0.0, 1.0]))
        assert not in_kernel(op, u)


class TestRightInverse:
    def test_laplace_constant(self):
        op = LaplaceZero(1, 0)
        u = q_lambda0(op, [np.array([Fraction(1)], dtype=object)])
        # -t^2/2
        assert u.coeffs[2][0] == Fraction(-1, 2)

    def test_laplace_linear(self):
        op = LaplaceZero(1, 0)
        u = q_lambda0(op, [np.array([0]), np.array([Fraction(1)], dtype=object)])
        # -t^3/6
        assert u.coeffs[3][0] == Fraction(-1, 6)

    def test_dirac_constant(self):
        op = DiracZero(1)
        c = np.array([Fraction(1), Fraction(0)], dtype=object)
        u = q_lambda0(op, [c])
        # -t J alpha = -t beta
        coeffs = u.coeffs
        assert coeffs[1][0] == 0 and coeffs[1][1] == Fraction(-1)

    def test_no_kernel_component(self):
        op = LaplaceZero(1, 0)
        u = q_lambda0(op, [np.array([3.0])])
        coeffs = u.coeffs
        assert coeffs[0][0] == 0 and coeffs[1][0] == 0

    @given(
        data=st.lists(
            st.tuples(st.integers(-9, 9), st.integers(1, 9)),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_laplace_roundtrip_exact(self, data):
        op = LaplaceZero(1, 0)
        f = [np.array([Fraction(p, q)], dtype=object) for p, q in data]
        u = q_lambda0(op, f)
        back = apply_P(op, u)
        expected = PolyhomSection(1, tuple(f))
        assert sections_equal(back, expected)

    @given(
        data=st.lists(
            st.tuples(st.integers(-9, 9), st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9)),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dirac_roundtrip_exact(self, data):
        op = DiracZero(1)
        f = [np.array([Fraction(p1, q1), Fraction(p2, q2)], dtype=object) for p1, q1, p2, q2 in data]
        u = q_lambda0(op, f)
        back = apply_P(op, u)
        expected = PolyhomSection(2, tuple(f))
        assert sections_equal(back, expected)

    def test_degree_bound(self):
        op = LaplaceZero(1, 0)
        f = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
        u = q_lambda0(op, f)
        assert len(u.coeffs) - 1 == len(f) - 1 + 2


class TestPairing:
    def test_laplace_four_term_formula(self):
        # fiber: one alpha, one beta; u = (a0 + dt^b0) + t(a1 + dt^b1)
        op = LaplaceZero(1, 1)
        rng = np.random.default_rng(11)
        for _ in range(10):
            a0, b0, a1, b1, ap0, bp0, ap1, bp1 = rng.normal(size=8) + 1j * rng.normal(size=8)
            u = affine_section([a0, b0], [a1, b1])
            v = affine_section([ap0, bp0], [ap1, bp1])
            expected = (
                a0 * np.conj(ap1) + b0 * np.conj(bp1) - a1 * np.conj(ap0) - b1 * np.conj(bp0)
            )
            assert pairing_closed(op, u, v) == pytest.approx(expected)

    def test_dirac_example_value(self):
        op = DiracZero(1)
        u = poly_section(2, [0.0, 1.0])  # dt wedge beta
        v = poly_section(2, [1.0, 0.0])  # alpha'
        assert pairing_closed(op, u, v) == pytest.approx(-1.0)
        assert pairing_integral(op, u, v) == pytest.approx(-1.0, abs=1e-8)

    def test_constant_constant_vanishes(self):
        op = LaplaceZero(1, 0)
        u = poly_section(1, [1.0])
        assert pairing_closed(op, u, u) == 0
        assert pairing_integral(op, u, u) == pytest.approx(0.0, abs=1e-10)

    def test_integral_matches_closed(self):
        # a step of 1/256 lands near 1e-8 for order-one sections; the
        # 1024 panels leave two orders of headroom at O(step^4)
        op = LaplaceZero(2, 1)
        rng = np.random.default_rng(7)
        for _ in range(8):
            u = affine_section(rng.normal(size=3), rng.normal(size=3))
            v = affine_section(rng.normal(size=3), rng.normal(size=3))
            closed = pairing_closed(op, u, v)
            quad = pairing_integral(op, u, v)
            assert quad == pytest.approx(closed, abs=1e-8)

    def test_chi_independence(self):
        op = LaplaceZero(1, 1)
        u = affine_section([1.0, -2.0], [0.5, 1.0])
        v = affine_section([2.0, 1.0], [1.0, 0.0])
        base = pairing_integral(op, u, v, CutoffFunction(0.0))
        for tau in (-3.0, -1.2, 0.4, 2.9):
            got = pairing_integral(op, u, v, CutoffFunction(tau))
            assert abs(got - base) <= 1e-8 * (1 + abs(base))

    def test_shift_invariance(self):
        op = LaplaceZero(1, 1)
        a, b = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
        c, d = np.array([0.0, 1.0]), np.array([2.0, 1.0])
        base = pairing_closed(op, affine_section(a, b), affine_section(c, d))
        for s in (1.0, -1.0, 20.0, -20.0):
            # the translates t -> u(t - s): (a - s b) + t b
            shifted = pairing_closed(op, affine_section(a - s * b, b), affine_section(c - s * d, d))
            assert shifted == pytest.approx(base, abs=1e-10)

    def test_non_kernel_input_refused(self):
        op = LaplaceZero(1, 0)
        u = poly_section(1, [0.0], [0.0], [1.0])
        v = poly_section(1, [1.0])
        with pytest.raises(ContractViolation):
            pairing_integral(op, u, v)

    def test_closed_form_unsupported_kind(self):
        op = SimpleNamespace(kind="synthetic")
        u = poly_section(1, [1.0])
        with pytest.raises(ContractViolation):
            pairing_closed(op, u, u)

    def test_dirac_pairing_second_slot_conjugated(self):
        op = DiracZero(1)
        u = poly_section(2, [0.0, 1.0])
        v = poly_section(2, [1j, 0.0])
        # <alpha_u, beta_v> - <beta_u, alpha_v> = -conj(1j) = 1j
        assert pairing_closed(op, u, v) == pytest.approx(1j)


class TestGram:
    def test_laplace_single_alpha(self):
        op = LaplaceZero(1, 0)
        basis = standard_kernel_basis(op)
        res = gram_matrix(op, basis, basis)
        np.testing.assert_allclose(res.matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)
        assert res.full_rank

    def test_dirac_pair(self):
        op = DiracZero(1)
        basis = standard_kernel_basis(op)
        res = gram_matrix(op, basis, basis)
        np.testing.assert_allclose(res.matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)
        assert res.full_rank

    def test_empty_bases(self):
        op = LaplaceZero(1, 0)
        res = gram_matrix(op, [], [])
        assert res.matrix.shape == (0, 0)
        assert res.rank == 0
        assert res.full_rank

    def test_kernel_basis_members_are_in_kernel(self):
        for op in (LaplaceZero(2, 1), DiracZero(2)):
            for u in standard_kernel_basis(op):
                assert in_kernel(op, u)
