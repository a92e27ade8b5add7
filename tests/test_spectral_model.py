"""Spectrum bookkeeping, symbol roots, and resolvent Laurent data."""

import json
import math

import numpy as np
import pytest

from neckspec.errors import ContractViolation, SpectrumFormatError
from neckspec.spectral_model import (
    KIND_DIRAC,
    KIND_LAPLACE,
    CrossSectionSpectrum,
    J_MATRIX,
    ModeOperator,
    circle_spectrum,
    default_cutoff,
    load_spectrum,
    mode_list,
    resolvent_laurent,
    roots_of,
    symbol_taylor,
    torus2_spectrum,
)


def lattice_multiplicities(max_lattice):
    """Independent enumeration of |m|,|n| <= max_lattice lattice norms."""
    counts = {}
    for m in range(-max_lattice, max_lattice + 1):
        for n in range(-max_lattice, max_lattice + 1):
            counts[m * m + n * n] = counts.get(m * m + n * n, 0) + 1
    return counts


class TestCircleSpectrum:
    def test_unit_circle_low_eigenvalues(self):
        spec = circle_spectrum(length=2 * math.pi, max_modes=2)
        assert spec.eigenvalues(0)[:3] == ((0.0, 1), (1.0, 2), (4.0, 2))
        assert spec.eigenvalues(1) == spec.eigenvalues(0)

    def test_betti_numbers(self):
        spec = circle_spectrum(length=2 * math.pi, max_modes=2)
        assert spec.betti(0) == 1
        assert spec.betti(1) == 1

    def test_short_circle(self):
        spec = circle_spectrum(length=math.pi, max_modes=1)
        got = spec.eigenvalues(0)
        assert got[0] == (0.0, 1)
        assert got[1][1] == 2
        assert got[1][0] == pytest.approx(4.0, abs=1e-12)

    def test_bad_length(self):
        with pytest.raises(ContractViolation):
            circle_spectrum(length=0.0)


class TestTorusSpectrum:
    def test_betti_list(self):
        spec = torus2_spectrum(max_lattice=1)
        assert (spec.betti(0), spec.betti(1), spec.betti(2)) == (1, 2, 1)

    def test_scalar_multiplicity_against_enumeration(self):
        oracle = lattice_multiplicities(1)
        spec = torus2_spectrum(max_lattice=1)
        got = dict(spec.eigenvalues(0))
        assert got[4 * math.pi**2] == oracle[1] == 4

    def test_one_form_multiplicity(self):
        # the form bundle contributes binomial(2, 1) = 2 on top of the
        # lattice count 4, so degree 1 sees 4 pi^2 with multiplicity 8
        spec = torus2_spectrum(max_lattice=2)
        got = dict(spec.eigenvalues(1))
        assert got[4 * math.pi**2] == 8

    def test_all_degrees_scale_by_binomial(self):
        spec = torus2_spectrum(max_lattice=3)
        oracle = lattice_multiplicities(3)
        for q, factor in ((0, 1), (1, 2), (2, 1)):
            got = dict(spec.eigenvalues(q))
            for norm, count in oracle.items():
                assert got[4 * math.pi**2 * norm] == factor * count


class TestLoadSpectrum:
    def write(self, tmp_path, payload):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(payload), encoding="utf-8")
        return str(p)

    def test_betti_only_k3xt2(self, tmp_path):
        payload = {
            "name": "K3xT2",
            "dimension": 3,
            "degrees": {str(q): [[0.0, b]] for q, b in enumerate((1, 2, 23, 44))},
        }
        spec = load_spectrum(self.write(tmp_path, payload))
        assert tuple(spec.betti(q) for q in range(4)) == (1, 2, 23, 44)

    def test_empty_degree_list(self, tmp_path):
        payload = {"name": "x", "dimension": 2, "degrees": {"1": []}}
        spec = load_spectrum(self.write(tmp_path, payload))
        assert spec.betti(1) == 0

    def test_negative_eigenvalue_names_field(self, tmp_path):
        payload = {"name": "x", "dimension": 1, "degrees": {"0": [[-1.0, 1]]}}
        with pytest.raises(SpectrumFormatError, match="degrees"):
            load_spectrum(self.write(tmp_path, payload))

    def test_zero_multiplicity(self, tmp_path):
        payload = {"name": "x", "dimension": 1, "degrees": {"0": [[1.0, 0]]}}
        with pytest.raises(SpectrumFormatError):
            load_spectrum(self.write(tmp_path, payload))

    def test_unknown_key(self, tmp_path):
        payload = {"name": "x", "dimension": 1, "degrees": {}, "extra": 1}
        with pytest.raises(SpectrumFormatError, match="extra"):
            load_spectrum(self.write(tmp_path, payload))

    def test_missing_key(self, tmp_path):
        payload = {"name": "x", "degrees": {}}
        with pytest.raises(SpectrumFormatError, match="dimension"):
            load_spectrum(self.write(tmp_path, payload))

    def test_merge_of_close_eigenvalues(self, tmp_path):
        payload = {
            "name": "x",
            "dimension": 1,
            "degrees": {"0": [[1.0, 2], [1.0 + 1e-15, 3]]},
        }
        spec = load_spectrum(self.write(tmp_path, payload))
        assert spec.eigenvalues(0) == ((1.0, 5),)

    def test_twist_is_an_unknown_field(self, tmp_path):
        # nothing reads a cross-section twist, so the loader refuses one
        payload = {
            "name": "x",
            "dimension": 1,
            "degrees": {"0": [[0.0, 2]]},
            "twist": {"0": [[[0.0, 1.0], [-1.0, 0.0]]]},
        }
        with pytest.raises(SpectrumFormatError, match="unknown field 'twist'"):
            load_spectrum(self.write(tmp_path, payload))

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(SpectrumFormatError, match="JSON"):
            load_spectrum(str(p))


class TestModeList:
    def test_circle_one_forms_zero_modes(self):
        spec = circle_spectrum()
        modes = mode_list(spec, q=1, cutoff=0.5)
        assert len(modes) == 2
        assert {m.degree_tag for m in modes} == {"alpha", "beta"}
        assert all(m.nu == 0 for m in modes)

    def test_torus_one_forms_zero_modes(self):
        modes = mode_list(torus2_spectrum(), q=1, cutoff=0.5)
        assert len(modes) == 3
        assert sum(m.degree_tag == "alpha" for m in modes) == 2
        assert sum(m.degree_tag == "beta" for m in modes) == 1

    def test_circle_functions_cutoff_two(self):
        modes = mode_list(circle_spectrum(), q=0, cutoff=2.0)
        assert sorted(m.nu for m in modes) == [0.0, 1.0, 1.0]

    def test_default_cutoff_covers_window(self):
        # windows reach pi^2 s / T^2; the default cutoff leaves a factor 25
        assert default_cutoff(10.0, 4.0) == pytest.approx(25 * (math.pi / 10) ** 2 * 4)


class TestRoots:
    def test_massive_laplace(self):
        data = roots_of(ModeOperator(KIND_LAPLACE, 4.0, "alpha"))
        assert data.max_real_order == 0
        assert set(data.roots) == {(2j, 1), (-2j, 1)}
        assert data.real_roots == ()

    def test_zero_laplace(self):
        data = roots_of(ModeOperator(KIND_LAPLACE, 0.0, "alpha"))
        assert data.real_roots == ((0.0, 2),)
        assert data.max_real_order == 2

    def test_dirac(self):
        data = roots_of(ModeOperator(KIND_DIRAC, 0.0, "alpha"))
        assert data.real_roots == ((0.0, 1),)
        assert data.max_real_order == 1

    def test_dirac_requires_zero_mode(self):
        with pytest.raises(ContractViolation):
            ModeOperator(KIND_DIRAC, 1.0, "alpha")


class TestResolventLaurent:
    def test_zero_laplace_pole(self):
        op = ModeOperator(KIND_LAPLACE, 0.0, "alpha")
        data = resolvent_laurent(op, 0.0, m_max=3)
        assert data.pole_order() == 2
        assert data.coeffs[-2] == pytest.approx(1.0)
        assert data.coeffs[-1] == pytest.approx(0.0)

    def test_massive_laplace_taylor(self):
        # geometric series: 1/(1 + z^2) = 1 - z^2 + z^4 - ...
        op = ModeOperator(KIND_LAPLACE, 1.0, "alpha")
        data = resolvent_laurent(op, 0.0, m_max=4)
        expected = {0: 1.0, 1: 0.0, 2: -1.0, 3: 0.0, 4: 1.0}
        for m, val in expected.items():
            assert data.coeffs[m] == pytest.approx(val, abs=1e-12)

    def test_dirac_residue_is_ij(self):
        op = ModeOperator(KIND_DIRAC, 0.0, "alpha")
        data = resolvent_laurent(op, 0.0, m_max=2)
        np.testing.assert_allclose(data.coeffs[-1], 1j * J_MATRIX)
        np.testing.assert_allclose(data.coeffs[0], np.zeros((2, 2)), atol=1e-14)
        jj = (1j * J_MATRIX) @ (1j * J_MATRIX)
        np.testing.assert_allclose(jj, np.eye(2))

    def test_resolvent_value_matches_reciprocal(self):
        for nu in (0.5, 1.0, 4.0, 9.0):
            op = ModeOperator(KIND_LAPLACE, nu, "alpha")
            for lam in (-2.0, -0.5, 0.1, 1.7, 3.0):
                data = resolvent_laurent(op, lam, m_max=0)
                assert data.coeffs[0] == pytest.approx(1.0 / (lam**2 + nu), rel=1e-12)

    def test_laurent_reconstruction_inside_half_distance(self):
        # the nearest singularities sit at +-i sqrt(nu); expanding around a
        # real base point, the series converges inside that distance
        nu = 2.0
        op = ModeOperator(KIND_LAPLACE, nu, "alpha")
        lam0 = 0.7
        dist = abs(lam0 - 1j * math.sqrt(nu))
        data = resolvent_laurent(op, lam0, m_max=60)
        for frac in (0.1, 0.3, 0.5):
            lam = lam0 + frac * dist / 2
            got = data.evaluate(lam)
            assert abs(got - 1.0 / (lam**2 + nu)) <= 1e-10

    def test_dirac_reconstruction_at_regular_point(self):
        op = ModeOperator(KIND_DIRAC, 0.0, "alpha")
        lam0 = 1.5
        data = resolvent_laurent(op, lam0, m_max=40)
        lam = 1.8
        inv = np.linalg.inv(1j * lam * J_MATRIX)
        np.testing.assert_allclose(data.evaluate(lam), inv, atol=1e-10)

    def test_expansion_at_imaginary_root(self):
        # lambda0 = i sqrt(nu) is a simple root: pole order 1 there
        op = ModeOperator(KIND_LAPLACE, 4.0, "alpha")
        data = resolvent_laurent(op, 2j, m_max=1)
        assert data.pole_order() == 1
        # residue of 1/((z)(z + 4i)) at 0 is 1/(4i)
        assert data.coeffs[-1] == pytest.approx(1.0 / 4j)


class TestSymbolTaylor:
    def test_laplace(self):
        op = ModeOperator(KIND_LAPLACE, 3.0, "alpha")
        assert symbol_taylor(op, 2.0) == [pytest.approx(7.0), pytest.approx(4.0), pytest.approx(1.0)]

    def test_dirac(self):
        op = ModeOperator(KIND_DIRAC, 0.0, "alpha")
        t = symbol_taylor(op, 0.5)
        np.testing.assert_allclose(t[0], 0.5j * J_MATRIX)
        np.testing.assert_allclose(t[1], 1j * J_MATRIX)


class TestSpectrumInvariants:
    def test_real_root_iff_betti(self):
        spec = torus2_spectrum()
        for q in range(3):
            zero_modes = [m for m in mode_list(spec, q, cutoff=1.0) if m.is_zero_mode]
            has_root = any(roots_of(m).max_real_order > 0 for m in mode_list(spec, q, cutoff=1.0))
            expected = spec.betti(q) + spec.betti(q - 1) > 0
            assert (len(zero_modes) > 0) == expected
            assert has_root == expected

    def test_degree_outside_range_rejected(self):
        with pytest.raises(SpectrumFormatError):
            CrossSectionSpectrum(name="x", dimension=1, degrees={5: ((0.0, 1),)})

    def test_spectra_compare_by_value(self):
        assert circle_spectrum() == circle_spectrum()
        assert circle_spectrum() != circle_spectrum(length=3.0)
