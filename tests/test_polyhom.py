"""Polynomial sections, the right inverse, and the pairing."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckspec import polyhom
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

    def test_closed_form_refuses_degree_k(self):
        for op, u in ((LaplaceZero(1, 0), poly_section(1, [0.0], [0.0], [1.0])),
                      (DiracZero(1), poly_section(2, [0.0, 0.0], [1.0, 0.0]))):
            with pytest.raises(ContractViolation, match="have degree below"):
                pairing_closed(op, u, poly_section(op.fiber_dim, [1.0] * op.fiber_dim))

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


# ---------------------------------------------------------------------------
# reference: the per-kind bodies each operation had before every block
# became M d^k, kept to pin the one-path calculus bit for bit


def reference_j(op):
    n = op.fiber_dim // 2
    j = np.zeros((2 * n, 2 * n), dtype=int)
    j[:n, n:] = -np.eye(n, dtype=int)
    j[n:, :n] = np.eye(n, dtype=int)
    return j


def reference_apply_P(op, u):
    if isinstance(op, LaplaceZero):
        out = tuple(-1 * c for c in polyhom._poly_deriv(polyhom._poly_deriv(u.coeffs)))
    else:
        out = tuple(reference_j(op) @ c for c in polyhom._poly_deriv(u.coeffs))
    return PolyhomSection(op.fiber_dim, out)


def reference_q_lambda0(op, f):
    coeffs = PolyhomSection(op.fiber_dim, tuple(f)).coeffs
    if isinstance(op, LaplaceZero):
        out = [np.zeros(op.fiber_dim, dtype=object), np.zeros(op.fiber_dim, dtype=object)]
        for j, c in enumerate(coeffs):
            out.append(polyhom._exact_div(c, -((j + 1) * (j + 2))))
        return PolyhomSection(op.fiber_dim, tuple(out))
    out = [np.zeros(op.fiber_dim, dtype=object)]
    for j, c in enumerate(coeffs):
        out.append(polyhom._exact_div(reference_j(op) @ c, -(j + 1)))
    return PolyhomSection(op.fiber_dim, tuple(out))


def reference_pairing_integral(op, u, v, chi=None):
    chi = chi or CutoffFunction(0.0)
    n = polyhom._QUAD_PANELS
    step = 1.0 / n
    t = chi.center - 0.5 + step * np.arange(n + 1)
    c0 = chi(t)
    c1 = chi.d1(t)
    q = tuple(np.asarray(c, dtype=complex) for c in u.coeffs)
    qv = polyhom._poly_values(q, t, op.fiber_dim)
    qv1 = polyhom._poly_values(polyhom._poly_deriv(q), t, op.fiber_dim)
    if isinstance(op, LaplaceZero):
        qv2 = polyhom._poly_values(polyhom._poly_deriv(polyhom._poly_deriv(q)), t, op.fiber_dim)
        p_chi_u = -(chi.d2(t) * qv + 2.0 * c1 * qv1 + c0 * qv2)
    else:
        p_chi_u = reference_j(op) @ (c1 * qv + c0 * qv1)
    integrand = np.sum(p_chi_u * np.conj(v.evaluate(t)), axis=0)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex(np.sum(w * integrand) * step / 3.0)


def reference_pairing_closed(op, u, v):
    herm = polyhom._herm

    def pad(coeffs, deg, dim):
        return list(coeffs) + [np.zeros(dim)] * (deg - len(coeffs))

    if isinstance(op, LaplaceZero):
        cu, cv = pad(u.coeffs, 2, op.fiber_dim), pad(v.coeffs, 2, op.fiber_dim)
        return herm(cu[0], cv[1]) - herm(cu[1], cv[0])
    n = op.fiber_dim // 2
    cu, cv = pad(u.coeffs, 1, op.fiber_dim), pad(v.coeffs, 1, op.fiber_dim)
    return herm(cu[0][:n], cv[0][n:]) - herm(cu[0][n:], cv[0][:n])


def reference_kernel_basis(op):
    dim = op.fiber_dim
    eye = np.eye(dim)
    consts = [PolyhomSection(dim, (eye[i],)) for i in range(dim)]
    if isinstance(op, DiracZero):
        return consts
    return consts + [PolyhomSection(dim, (np.zeros(dim), eye[i])) for i in range(dim)]


PINNED_OPS = (LaplaceZero(1, 0), LaplaceZero(1, 1), LaplaceZero(2, 1), DiracZero(1))
PINNED_IDS = ["laplace10", "laplace11", "laplace21", "dirac1"]


def seeded_kernel_section(op, rng):
    """A complex kernel section: fiber vectors at each degree below k."""
    z = rng.uniform(-1.0, 1.0, size=(op.order, op.fiber_dim, 2))
    return PolyhomSection(op.fiber_dim, tuple(z[..., 0] + 1j * z[..., 1]))


def seeded_poly(op, rng, degree, fractions):
    if fractions:
        return [np.array([Fraction(int(p), int(q)) for p, q in
                          zip(rng.integers(-9, 10, op.fiber_dim), rng.integers(1, 10, op.fiber_dim))],
                         dtype=object) for _ in range(degree + 1)]
    return [rng.normal(size=op.fiber_dim) for _ in range(degree + 1)]


class TestOnePathCalculus:
    @pytest.mark.parametrize("op", PINNED_OPS, ids=PINNED_IDS)
    def test_operator_is_m_times_the_kth_derivative(self, op):
        m = op.matrix
        assert m.dtype.kind == "i" and m.shape == (op.fiber_dim, op.fiber_dim)
        assert np.array_equal(m.T @ m, np.eye(op.fiber_dim, dtype=int))
        assert op.order == (2 if isinstance(op, LaplaceZero) else 1)

    @pytest.mark.parametrize("op", PINNED_OPS, ids=PINNED_IDS)
    def test_apply_P_matches_the_per_kind_reference(self, op):
        rng = np.random.default_rng(37)
        for case in range(12):
            sections = [seeded_kernel_section(op, rng),
                        PolyhomSection(op.fiber_dim, tuple(seeded_poly(op, rng, 4, case % 2)))]
            for u in sections:
                assert dump(apply_P(op, u)) == dump(reference_apply_P(op, u))

    @pytest.mark.parametrize("op", PINNED_OPS, ids=PINNED_IDS)
    def test_q_lambda0_matches_the_per_kind_reference(self, op):
        rng = np.random.default_rng(38)
        for case in range(12):
            f = seeded_poly(op, rng, case % 5, fractions=True)
            assert dump(q_lambda0(op, f)) == dump(reference_q_lambda0(op, f))

    @pytest.mark.parametrize("op", PINNED_OPS, ids=PINNED_IDS)
    def test_pairings_match_the_per_kind_reference(self, op):
        rng = np.random.default_rng(39)
        for case in range(10):
            u, v = seeded_kernel_section(op, rng), seeded_kernel_section(op, rng)
            chi = CutoffFunction(float(rng.uniform(-3.0, 3.0))) if case % 2 else None
            assert repr(pairing_closed(op, u, v)) == repr(reference_pairing_closed(op, u, v))
            assert (repr(pairing_integral(op, u, v, chi))
                    == repr(reference_pairing_integral(op, u, v, chi)))

    @pytest.mark.parametrize("op", PINNED_OPS + (DiracZero(2), DiracZero(3)),
                             ids=PINNED_IDS + ["dirac2", "dirac3"])
    def test_kernel_basis_matches_the_per_kind_reference(self, op):
        got, want = standard_kernel_basis(op), reference_kernel_basis(op)
        assert [dump(u) for u in got] == [dump(u) for u in want]

    @pytest.mark.parametrize("n", [2, 3])
    def test_wider_dirac_pairing_agrees_with_the_reference(self, n):
        # one sum of 2n products where the reference took two sums of n
        op = DiracZero(n)
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            u, v = seeded_kernel_section(op, rng), seeded_kernel_section(op, rng)
            want = reference_pairing_closed(op, u, v)
            assert abs(pairing_closed(op, u, v) - want) <= 1e-15 * abs(want)
            assert (repr(pairing_integral(op, u, v))
                    == repr(reference_pairing_integral(op, u, v)))


zero_mode_ops = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3))
    .filter(lambda ab: sum(ab) > 0)
    .map(lambda ab: LaplaceZero(*ab)),
    st.integers(1, 3).map(DiracZero),
)


class TestOnePathProperties:
    @given(op=zero_mode_ops, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_right_inverse_roundtrip_is_exact(self, op, data):
        ratio = st.tuples(st.integers(-9, 9), st.integers(1, 9))
        rows = data.draw(st.lists(st.lists(ratio, min_size=op.fiber_dim, max_size=op.fiber_dim),
                                  min_size=1, max_size=4))
        f = [np.array([Fraction(p, q) for p, q in row], dtype=object) for row in rows]
        assert dump(apply_P(op, q_lambda0(op, f))) == dump(PolyhomSection(op.fiber_dim, tuple(f)))

    @given(op=zero_mode_ops, seed=st.integers(0, 2**32 - 1),
           center=st.floats(-3.0, 3.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_integral_matches_closed_form(self, op, seed, center):
        rng = np.random.default_rng(seed)
        u, v = seeded_kernel_section(op, rng), seeded_kernel_section(op, rng)
        closed = pairing_closed(op, u, v)
        quad = pairing_integral(op, u, v, CutoffFunction(center))
        assert abs(quad - closed) <= 1e-8 * (1.0 + abs(closed))
