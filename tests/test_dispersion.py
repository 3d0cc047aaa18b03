"""Dispersion module: Sellmeier evaluation, derivatives, crystal loading."""

import copy
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from scipy.constants import c

import pdcmodes as p
from pdcmodes.dispersion import k_double_prime, k_prime, wavevector_at_omega

from conftest import (ROOM_T_C, assert_within, expression_n_squared,
                      expression_wavevector_at_omega)


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
class TestInPlaceEvaluation:
    """The in-place array paths equal their one-expression forms bit for bit,
    on both axes, at 0–200 °C, across the validity range."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(axis=st.sampled_from(["o", "e"]), t_c=st.floats(0.0, 200.0),
           lo=st.floats(0.5, 4.0), hi=st.floats(0.5, 4.0), n=st.integers(1, 40))
    def test_n_squared(self, crystal, axis, t_c, lo, hi, n):
        sell = crystal.axis(axis)
        lam = np.linspace(lo, hi, n)
        grid = np.add.outer(lam, lam[::-1]) / 2.0   # a 2-D input, like the pump grid
        for arr in (lam, grid):
            expected = expression_n_squared(sell, arr, t_c)
            assert np.array_equal(sell.n_squared(arr, t_c), expected)
            assert np.array_equal(sell.n(arr, t_c), np.sqrt(expected))
        scalar = float(lam[0])
        expected = expression_n_squared(sell, scalar, t_c)
        assert type(sell.n_squared(scalar, t_c)) is type(expected)
        assert sell.n_squared(scalar, t_c) == expected
        assert sell.n(scalar, t_c) == np.sqrt(expected)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(axis=st.sampled_from(["o", "e"]), t_c=st.floats(0.0, 200.0),
           lo=st.floats(0.51, 3.99), hi=st.floats(0.51, 3.99), n=st.integers(1, 40))
    def test_wavevector_at_omega(self, crystal, axis, t_c, lo, hi, n):
        omega = 2.0e6 * np.pi * c / np.linspace(lo, hi, n)
        grid = np.add.outer(omega, omega[::-1]) / 2.0
        for arr in (omega, grid):
            assert np.array_equal(
                wavevector_at_omega(crystal, axis, arr, t_c),
                expression_wavevector_at_omega(crystal, axis, arr, t_c))
        scalar = float(omega[0])
        assert wavevector_at_omega(crystal, axis, scalar, t_c) == \
            expression_wavevector_at_omega(crystal, axis, scalar, t_c)


def _hot_crystal():
    """The bundled crystal with b3 = 1e148 on both axes: finite at 0–200 °C,
    so it loads, but (a3 + b3·f)² overflows at 1000 °C."""
    text = p.bundled_crystal_path().read_text(encoding="utf-8")
    for old in ("b3: -4.641e-9", "b3: 6.113e-8"):
        assert old in text
        text = text.replace(old, "b3: 1.0e+148", 1)
    return p.load_crystal(text)


class TestNonFiniteEvaluation:
    def test_high_temperature_overflow_is_domain_error(self):
        xtl = _hot_crystal()
        assert 2.0 < p.refractive_index(xtl, "o", 1.55, 200.0) < 2.4
        for lam in (1.55, np.linspace(0.6, 3.0, 5)):
            with pytest.raises(p.DomainError, match="not finite at 1000 °C"):
                p.refractive_index(xtl, "o", lam, 1000.0)
        for method in ("n_squared", "dn2_dlam", "d2n2_dlam2"):
            with pytest.raises(p.DomainError, match="not finite at 1000 °C"):
                getattr(xtl.axis("e"), method)(1.55, 1000.0)

    @pytest.mark.parametrize("t_c", [-400.0, -273.15, float("nan")])
    def test_temperature_not_above_absolute_zero_is_domain_error(self, crystal, t_c):
        evaluations = (p.refractive_index, p.wavevector, p.group_index, p.gvd,
                       k_prime, k_double_prime)
        for evaluate in evaluations:
            with pytest.raises(p.DomainError, match="not above absolute zero"):
                evaluate(crystal, "o", 1.55, t_c)
        with pytest.raises(p.DomainError, match="not above absolute zero"):
            wavevector_at_omega(crystal, "e", np.array([1.2e15, 1.3e15]), t_c)

    def test_pole_on_the_sample_is_domain_error(self, crystal):
        # λ = a5 puts the second pole exactly on the sample: c4/0; the
        # derivatives' divide-by-zero warning comes before the error
        sell = crystal.axis("o")
        for method in ("n_squared", "dn2_dlam", "d2n2_dlam2"):
            with pytest.raises(p.DomainError, match="not finite"), \
                    np.errstate(divide="ignore"):
                getattr(sell, method)(np.array([1.0, sell.a5]), ROOM_T_C)


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


def _node_paths(node, prefix=()):
    """Key paths of every node below a parsed YAML document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


_BUNDLED = yaml.safe_load(p.bundled_crystal_path().read_text(encoding="utf-8"))
_BUNDLED_PATHS = list(_node_paths(_BUNDLED))

# what a YAML document can hold, plus numeric text and extreme numbers
_YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["1.0e8", "1e400", "nan", "-inf", "0x10"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4) | st.integers(), inner,
                                     max_size=3)),
    max_leaves=6)


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

    @pytest.mark.parametrize("old, bad", [
        ("a1: 5.653", "a1: 5.653\n      1: 2.0"),
        ("a3: 0.2091", "a3: 1.0e+200"),
        ("a5: 10.85", "a5: 1.0e+200"),
        ("b3: -4.641e-9", "b3: 1.0e+200"),
    ], ids=["integer_key", "huge_a3", "huge_a5", "huge_b3"])
    def test_malformed_coefficient_block_rejected(self, old, bad):
        # an integer key cannot name a coefficient; a squared coefficient
        # beyond the float range must not escape as OverflowError
        text = p.bundled_crystal_path().read_text(encoding="utf-8")
        assert old in text
        with pytest.raises(p.ValidationError, match="text keys|not finite"):
            p.load_crystal(text.replace(old, bad, 1))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(path=st.sampled_from(_BUNDLED_PATHS),
           action=st.sampled_from(["replace", "delete", "insert"]),
           key=st.text(max_size=4) | st.integers(), value=_YAML_VALUES)
    def test_mutated_bundled_document_raises_only_package_errors(
            self, path, action, key, value):
        doc = copy.deepcopy(_BUNDLED)
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if action == "replace":
            parent[path[-1]] = value
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[key] = value
        else:
            parent.insert(path[-1], value)
        try:
            p.load_crystal(doc)
        except p.PdcModesError:
            pass

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
