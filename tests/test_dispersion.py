"""Dispersion module: Sellmeier evaluation, derivatives, crystal loading."""

import math

import numpy as np
import pytest
from scipy.constants import c

import pdcmodes as p
from pdcmodes.dispersion import k_double_prime, k_prime, wavevector_at_omega

from conftest import ROOM_T_C, assert_within


# Independent evaluation of the published two-pole polynomial for 5% MgO:LN
# (Gayer et al. 2008, Table 2), written out by hand so it cannot share code
# with the library path.
_GAYER = {
    "o": (5.653, 0.1185, 0.2091, 89.61, 10.85, 1.97e-2,
          7.941e-7, 3.134e-8, -4.641e-9, -2.188e-6),
    "e": (5.756, 0.0983, 0.2020, 189.32, 12.52, 1.32e-2,
          2.860e-6, 4.7e-8, 6.113e-8, 1.516e-4),
}


def _gayer_n(axis, lam_um, t_c):
    a1, a2, a3, a4, a5, a6, b1, b2, b3, b4 = _GAYER[axis]
    f = (t_c - 24.5) * (t_c + 570.82)
    n2 = (a1 + b1 * f
          + (a2 + b2 * f) / (lam_um ** 2 - (a3 + b3 * f) ** 2)
          + (a4 + b4 * f) / (lam_um ** 2 - a5 ** 2)
          - a6 * lam_um ** 2)
    return math.sqrt(n2)


class TestRefractiveIndex:
    def test_matches_independent_polynomial_e(self, crystal):
        n = p.refractive_index(crystal, "e", 0.775, ROOM_T_C)
        assert abs(n - _gayer_n("e", 0.775, ROOM_T_C)) < 1e-9
        assert 2.0 < n < 2.4

    def test_matches_independent_polynomial_o(self, crystal):
        n = p.refractive_index(crystal, "o", 1.55, 11.0)
        assert abs(n - _gayer_n("o", 1.55, 11.0)) < 1e-9
        assert 2.1 < n < 2.3

    def test_sweep_matches_polynomial(self, crystal):
        for axis in ("o", "e"):
            for lam in np.linspace(0.5, 4.0, 23):
                for t_c in (0.0, 11.0, ROOM_T_C, 100.0, 200.0):
                    n = p.refractive_index(crystal, axis, float(lam), t_c)
                    assert abs(n - _gayer_n(axis, float(lam), t_c)) < 1e-9

    def test_out_of_range_raises_and_names_range(self, crystal):
        with pytest.raises(p.DomainError, match=r"\[0\.5, 4\] µm"):
            p.refractive_index(crystal, "e", 25.0, ROOM_T_C)

    @pytest.mark.parametrize("lam", [math.nan, np.array([1.0, math.nan, 1.5])],
                             ids=["scalar", "array"])
    def test_nan_wavelength_is_out_of_range(self, crystal, lam):
        with pytest.raises(p.DomainError, match="nan µm outside"):
            p.refractive_index(crystal, "e", lam, ROOM_T_C)
        with pytest.raises(p.DomainError, match="nan µm outside"):
            wavevector_at_omega(crystal, "e", 2.0e6 * math.pi * c / lam, ROOM_T_C)
        with pytest.raises(p.DomainError, match="nan µm outside"):
            k_prime(crystal, "e", lam, ROOM_T_C)

    def test_unknown_axis(self, crystal):
        with pytest.raises(p.DomainError, match="axis"):
            p.refractive_index(crystal, "z", 1.0, ROOM_T_C)

    def test_temperature_continuity(self, crystal):
        lam = np.linspace(0.55, 3.9, 40)
        for axis in ("o", "e"):
            for t_c in (0.0, 24.5, 77.0, 150.0, 199.9):
                n1 = p.refractive_index(crystal, axis, lam, t_c)
                n2 = p.refractive_index(crystal, axis, lam, t_c + 0.01)
                assert np.all(np.abs(n2 - n1) < 1e-5)

    def test_evaluation_is_pure(self, crystal):
        a = p.refractive_index(crystal, "e", 1.234, 42.0)
        b = p.refractive_index(crystal, "e", 1.234, 42.0)
        assert a == b

    def test_wavevector_round_trip(self, crystal):
        for lam in (0.6, 0.775, 1.55, 3.2):
            n = p.refractive_index(crystal, "o", lam, ROOM_T_C)
            k = p.wavevector(crystal, "o", lam, ROOM_T_C)
            omega = 2e6 * math.pi * c / lam
            assert abs(k * c / omega - n) < 1e-12 * n


class TestGroupIndex:
    def test_type1_matching_wavelengths(self, crystal):
        m_pump = p.group_index(crystal, "e", 0.783, ROOM_T_C)
        m_signal = p.group_index(crystal, "o", 1.566, ROOM_T_C)
        assert abs(m_pump - m_signal) < 1e-3

    def test_type0_matching_wavelengths(self, crystal):
        m_pump = p.group_index(crystal, "e", 1.35, ROOM_T_C)
        m_signal = p.group_index(crystal, "e", 2.7, ROOM_T_C)
        assert abs(m_pump - m_signal) < 1e-3

    def test_boundary_is_excluded_for_derivatives(self, crystal):
        with pytest.raises(p.DomainError):
            p.group_index(crystal, "e", 0.5, ROOM_T_C)
        p.refractive_index(crystal, "e", 0.5, ROOM_T_C)  # index itself is fine


class TestGvd:
    def test_pump_gvd_740(self, crystal):
        assert_within(p.gvd(crystal, "e", 0.740, ROOM_T_C), 0.41, 0.05, "k_p''")

    def test_signal_gvd_1480(self, crystal):
        assert_within(p.gvd(crystal, "o", 1.480, ROOM_T_C), 0.13, 0.05, "k_s''")


# step large enough that k(ω) roundoff (~eps·k/h²) stays below the 1e-5
# relative target even near the GVD zero crossing; truncation of the
# fourth-order stencils is negligible for these smooth curves
def _fd_k_prime(crystal, axis, omega, t_c):
    h = 1e-3 * omega
    k = [wavevector_at_omega(crystal, axis, omega + i * h, t_c)
         for i in (-2, -1, 1, 2)]
    return (k[0] - 8 * k[1] + 8 * k[2] - k[3]) / (12 * h)


def _fd_k_double_prime(crystal, axis, omega, t_c):
    h = 1e-3 * omega
    k = [wavevector_at_omega(crystal, axis, omega + i * h, t_c)
         for i in (-2, -1, 0, 1, 2)]
    return (-k[0] + 16 * k[1] - 30 * k[2] + 16 * k[3] - k[4]) / (12 * h * h)


class TestClosedFormDerivatives:
    """Analytic dk/dω and d²k/dω² against high-order central differences."""

    def test_k_prime_matches_finite_difference(self, crystal):
        for axis in ("o", "e"):
            for lam in np.linspace(0.55, 3.8, 30):
                omega = 2e6 * math.pi * c / lam
                analytic = k_prime(crystal, axis, float(lam), ROOM_T_C)
                fd = _fd_k_prime(crystal, axis, omega, ROOM_T_C)
                assert abs(analytic - fd) < 1e-6 * abs(fd)

    def test_k_double_prime_matches_finite_difference(self, crystal):
        for axis in ("o", "e"):
            for lam in np.linspace(0.55, 3.8, 30):
                omega = 2e6 * math.pi * c / lam
                analytic = k_double_prime(crystal, axis, float(lam), ROOM_T_C)
                fd = _fd_k_double_prime(crystal, axis, omega, ROOM_T_C)
                assert abs(analytic - fd) < 1e-5 * abs(fd)

    def test_group_index_is_c_times_k_prime(self, crystal):
        for lam in (0.783, 1.35, 1.566, 2.7):
            omega = 2e6 * math.pi * c / lam
            m = p.group_index(crystal, "e", lam, ROOM_T_C)
            fd = c * _fd_k_prime(crystal, "e", omega, ROOM_T_C)
            assert abs(m - fd) < 1e-6 * abs(fd)


_MINIMAL = """
name: test-crystal
class: uniaxial
temperature_model: linear_dn_dt
d_eff_pm_per_V: 1.0
valid_range_um: [0.5, 4.0]
provenance: synthetic test data
sellmeier:
  o:
    form: sellmeier_standard
    coefficients: {{a: {a}, b: {b}, c: {c}, d: 0.0, dn_dt: 0.0, t_ref_c: 20.0}}
"""


class TestLoadCrystal:
    def test_bundled_mgoln(self, crystal):
        assert crystal.name == "MgO:LN-5pct"
        assert set(crystal.axes) == {"o", "e"}
        assert crystal.d_eff_pm_per_v == 4.64

    def test_empty_axes_rejected(self):
        doc = {
            "name": "x", "class": "uniaxial", "temperature_model": "none",
            "d_eff_pm_per_V": 1.0, "valid_range_um": [0.5, 4.0],
            "provenance": "p", "sellmeier": {},
        }
        with pytest.raises(p.ValidationError, match="at least one axis"):
            p.load_crystal(doc)

    def test_subunity_index_rejected(self):
        text = _MINIMAL.format(a=0.81, b="[]", c="[]")  # n = 0.9 everywhere
        with pytest.raises(p.ValidationError, match="n ≤ 1"):
            p.load_crystal(text)

    def test_pole_inside_range_rejected(self):
        text = _MINIMAL.format(a=1.0, b="[1.0]", c="[2.25]")  # pole at 1.5 µm
        with pytest.raises(p.ValidationError):
            p.load_crystal(text)

    def test_unknown_key_rejected(self):
        doc = {"name": "x", "clazz": "uniaxial"}
        with pytest.raises(p.ValidationError, match="unknown key"):
            p.load_crystal(doc)

    def test_unknown_coefficient_rejected(self):
        text = _MINIMAL.format(a=4.84, b="[]", c="[]")
        text = text.replace("dn_dt: 0.0", "dn_dt: 0.0, bogus: 1.0")
        with pytest.raises(p.ValidationError, match="unknown coefficient"):
            p.load_crystal(text)

    def test_incompatible_temperature_model(self):
        text = _MINIMAL.format(a=4.84, b="[]", c="[]").replace(
            "linear_dn_dt", "gayer_f_parameter")
        with pytest.raises(p.ValidationError, match="incompatible"):
            p.load_crystal(text)

    def test_negative_d_eff_rejected(self):
        text = _MINIMAL.format(a=4.84, b="[]", c="[]").replace(
            "d_eff_pm_per_V: 1.0", "d_eff_pm_per_V: -2.0")
        with pytest.raises(p.ValidationError, match="d_eff"):
            p.load_crystal(text)

    @pytest.mark.parametrize("old, bad", [
        ("a1: 5.653", "a1: x"),
        ("a1: 5.653", "a1: null"),
        ("valid_range_um: [0.5, 4.0]", "valid_range_um: [true, 4.0]"),
        ("d_eff_pm_per_V: 4.64", "d_eff_pm_per_V: true"),
    ], ids=["text_coefficient", "null_coefficient", "bool_range", "bool_d_eff"])
    def test_malformed_number_rejected(self, old, bad):
        text = p.bundled_crystal_path().read_text(encoding="utf-8")
        assert old in text
        with pytest.raises(p.ValidationError, match=bad.split(":")[0]):
            p.load_crystal(text.replace(old, bad, 1))

    def test_non_utf8_file_is_validation_error(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(p.ValidationError, match="latin1.yaml.*not UTF-8"):
            p.load_crystal_file(path)

    def test_pole_coefficients_must_be_a_list(self):
        text = _MINIMAL.format(a=4.84, b="3.0", c="[]")
        with pytest.raises(p.ValidationError, match="b must be a list"):
            p.load_crystal(text)

    def test_standard_sellmeier_round_trip(self):
        text = _MINIMAL.format(a=1.0, b="[2.5, 1.0]", c="[0.01, 100.0]")
        xtl = p.load_crystal(text)
        lam = 1.3
        lam2 = lam * lam
        expected = math.sqrt(1.0 + 2.5 * lam2 / (lam2 - 0.01)
                             + 1.0 * lam2 / (lam2 - 100.0))
        assert abs(p.refractive_index(xtl, "o", lam, 20.0) - expected) < 1e-12
