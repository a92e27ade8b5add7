"""Spectrum bookkeeping and symbol roots."""

import json
import math

import pytest

from neckspec.errors import ContractViolation
from neckspec.ioutil import MAX_MODES
from neckspec.spectral_model import (
    KIND_DIRAC,
    KIND_LAPLACE,
    CrossSectionSpectrum,
    ModeOperator,
    circle_spectrum,
    load_spectrum,
    mode_list,
    roots_of,
    scalar_spectrum,
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
        spec = circle_spectrum()
        assert spec.eigenvalues(0) == ((0.0, 1),) + tuple((float(k * k), 2) for k in range(1, 9))
        assert spec.eigenvalues(1) == spec.eigenvalues(0)

    def test_betti_numbers(self):
        spec = circle_spectrum()
        assert spec.betti(0) == 1
        assert spec.betti(1) == 1


class TestTorusSpectrum:
    def test_betti_list(self):
        spec = torus2_spectrum()
        assert (spec.betti(0), spec.betti(1), spec.betti(2)) == (1, 2, 1)

    def test_scalar_multiplicity_against_enumeration(self):
        oracle = lattice_multiplicities(6)
        spec = torus2_spectrum()
        got = dict(spec.eigenvalues(0))
        assert got[4 * math.pi**2] == oracle[1] == 4

    def test_one_form_multiplicity(self):
        # the form bundle contributes binomial(2, 1) = 2 on top of the
        # lattice count 4, so degree 1 sees 4 pi^2 with multiplicity 8
        spec = torus2_spectrum()
        got = dict(spec.eigenvalues(1))
        assert got[4 * math.pi**2] == 8

    def test_all_degrees_scale_by_binomial(self):
        spec = torus2_spectrum()
        oracle = lattice_multiplicities(6)
        assert len(spec.eigenvalues(0)) == len(oracle)
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
        with pytest.raises(ContractViolation, match="degrees"):
            load_spectrum(self.write(tmp_path, payload))

    def test_zero_multiplicity(self, tmp_path):
        payload = {"name": "x", "dimension": 1, "degrees": {"0": [[1.0, 0]]}}
        with pytest.raises(ContractViolation,
                           match=r"^degrees\[0\]\[0\]: multiplicity must be a positive integer, got 0$"):
            load_spectrum(self.write(tmp_path, payload))

    def test_unknown_key(self, tmp_path):
        payload = {"name": "x", "dimension": 1, "degrees": {}, "extra": 1}
        with pytest.raises(ContractViolation, match="extra"):
            load_spectrum(self.write(tmp_path, payload))

    def test_missing_key(self, tmp_path):
        payload = {"name": "x", "degrees": {}}
        with pytest.raises(ContractViolation, match="dimension"):
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
        with pytest.raises(ContractViolation, match="unknown field 'twist'"):
            load_spectrum(self.write(tmp_path, payload))

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ContractViolation, match="JSON"):
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

    def test_mode_count_is_bounded_before_expansion(self):
        # MAX_MODES alpha modes from degree 1 and one beta mode from degree 0
        spec = CrossSectionSpectrum("x", 1, {1: ((0.0, MAX_MODES),), 0: ((0.0, 1),)})
        message = f"^degree 1: the spectrum has {MAX_MODES + 1} modes, more than MAX_MODES = {MAX_MODES}$"
        with pytest.raises(ContractViolation, match=message):
            mode_list(spec, 1, cutoff=math.inf)
        # only the modes below the cutoff count
        huge = CrossSectionSpectrum("x", 1, {0: ((0.0, 1), (4.0, 2**62))})
        assert len(mode_list(huge, 0, cutoff=1.0)) == 1

    @pytest.mark.parametrize("spec,q,cutoff", [(torus2_spectrum(), 1, math.inf),
                                               (torus2_spectrum(), 2, 400.0),
                                               (circle_spectrum(), 1, math.inf)])
    def test_one_shared_operator_per_kept_eigenvalue(self, spec, q, cutoff):
        modes = mode_list(spec, q, cutoff)
        kept = [(nu, mult, tag) for tag, deg in (("alpha", q), ("beta", q - 1))
                for nu, mult in spec.eigenvalues(deg) if nu <= cutoff]
        # equal to a fresh operator per mode, in the same order
        assert modes == [ModeOperator(KIND_LAPLACE, nu, tag)
                         for nu, mult, tag in kept for _ in range(mult)]
        # one instance per kept (nu, tag), repeated over its multiplicity
        assert len({id(m) for m in modes}) == len(kept)
        first = 0
        for _, mult, _ in kept:
            assert all(m is modes[first] for m in modes[first : first + mult])
            first += mult


def real_roots_of(op):
    """The symbol roots of op with zero imaginary part, with their orders."""
    return [(root, order) for root, order in roots_of(op) if root.imag == 0]


class TestRoots:
    def test_massive_laplace(self):
        op = ModeOperator(KIND_LAPLACE, 4.0, "alpha")
        assert set(roots_of(op)) == {(2j, 1), (-2j, 1)}
        assert real_roots_of(op) == []

    def test_zero_laplace(self):
        assert real_roots_of(ModeOperator(KIND_LAPLACE, 0.0, "alpha")) == [(0.0, 2)]

    def test_dirac(self):
        assert real_roots_of(ModeOperator(KIND_DIRAC, 0.0, "alpha")) == [(0.0, 1)]

    def test_dirac_requires_zero_mode(self):
        with pytest.raises(ContractViolation):
            ModeOperator(KIND_DIRAC, 1.0, "alpha")


class TestSpectrumInvariants:
    def test_real_root_iff_betti(self):
        spec = torus2_spectrum()
        for q in range(3):
            zero_modes = [m for m in mode_list(spec, q, cutoff=1.0) if m.is_zero_mode]
            has_root = any(real_roots_of(m) for m in mode_list(spec, q, cutoff=1.0))
            expected = spec.betti(q) + spec.betti(q - 1) > 0
            assert (len(zero_modes) > 0) == expected
            assert has_root == expected
        # the polynomial calculus of neckspec.polyhom rests on this: no mode
        # has a real symbol root other than 0
        for spec in (torus2_spectrum(), circle_spectrum(), scalar_spectrum()):
            for q in range(spec.dimension + 2):
                for m in mode_list(spec, q, cutoff=math.inf):
                    assert all(root == 0 for root, _ in real_roots_of(m))

    def test_degree_outside_range_rejected(self):
        with pytest.raises(ContractViolation, match=r"^degrees\[5\]: degree outside \[0, 1\]$"):
            CrossSectionSpectrum(name="x", dimension=1, degrees={5: ((0.0, 1),)})

    def test_spectra_compare_by_value(self):
        assert circle_spectrum() == circle_spectrum()
        # the same name, one eigenvalue moved
        pairs = circle_spectrum().eigenvalues(0)
        moved = CrossSectionSpectrum("circle(length=6.28319)", 1,
                                     {0: pairs, 1: pairs[:-1] + ((81.0, 2),)})
        assert circle_spectrum() != moved
