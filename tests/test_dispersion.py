"""Dispersion module: Sellmeier evaluation, derivatives, crystal loading."""

import copy
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import event, given, settings, strategies as st
from scipy.constants import c

import pdcmodes as p
from pdcmodes.dispersion import k_double_prime, k_prime, wavevector_at_omega

from conftest import (ROOM_T_C, assert_within, expression_n_derivatives,
                      expression_n_squared, expression_wavevector_at_omega)


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
            wavevector_at_omega(crystal, "e", 2.0e6 * math.pi * c / lam, ROOM_T_C)
        if np.ndim(lam):   # the other evaluations take one wavelength
            return
        with pytest.raises(p.DomainError, match="nan µm outside"):
            p.refractive_index(crystal, "e", lam, ROOM_T_C)
        with pytest.raises(p.DomainError, match="nan µm outside"):
            k_prime(crystal, "e", lam, ROOM_T_C)

    def test_unknown_axis(self, crystal):
        with pytest.raises(p.DomainError, match="axis"):
            p.refractive_index(crystal, "z", 1.0, ROOM_T_C)

    def test_temperature_continuity(self, crystal):
        omega = 2.0e6 * np.pi * c / np.linspace(0.55, 3.9, 40)
        for axis in ("o", "e"):
            for t_c in (0.0, 24.5, 77.0, 150.0, 199.9):
                n1 = wavevector_at_omega(crystal, axis, omega, t_c) * c / omega
                n2 = wavevector_at_omega(crystal, axis, omega, t_c + 0.01) * c / omega
                assert np.all(np.abs(n2 - n1) < 1e-5)

    def test_one_wavelength_evaluations_refuse_an_array(self, crystal):
        # only wavevector_at_omega takes an array; one number of any real
        # type, Python's or numpy's, gives a float
        lam = np.array([1.0, 1.5])
        evaluations = (p.refractive_index, p.wavevector, p.group_index, p.gvd,
                       k_prime, k_double_prime)
        methods = (crystal.axis("o").n, crystal.axis("o").n_derivatives)
        for evaluate in evaluations:
            with pytest.raises(TypeError, match="only wavevector_at_omega takes"):
                evaluate(crystal, "o", lam, ROOM_T_C)
            for one in (np.float32(1.5), np.float64(1.5), 1):
                value = evaluate(crystal, "o", one, ROOM_T_C)
                assert type(value) is float
                assert value == evaluate(crystal, "o", float(one), ROOM_T_C)
        for method in methods:
            with pytest.raises(TypeError, match="only wavevector_at_omega takes"):
                method(lam, ROOM_T_C)
            assert method(np.float64(1.5), ROOM_T_C) == method(1.5, ROOM_T_C)

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

    def test_bounds_are_included_for_every_evaluation(self, crystal):
        # one closed range [0.5, 4.0] µm: the bounds give finite values, the
        # next float outside either bound and NaN are DomainErrors
        def at_omega(xtl, axis, lam, t_c):
            omega = 2.0e6 * math.pi * c / lam
            assert 2.0e6 * math.pi * c / omega == lam or math.isnan(lam)
            return wavevector_at_omega(xtl, axis, omega, t_c)

        evaluations = (p.refractive_index, p.wavevector, at_omega,
                       p.group_index, p.gvd, k_prime, k_double_prime)
        for evaluate in evaluations:
            for axis in ("o", "e"):
                for lam in (0.5, 4.0):
                    assert math.isfinite(evaluate(crystal, axis, lam, ROOM_T_C))
                for lam in (math.nextafter(0.5, 0.0),
                            math.nextafter(4.0, math.inf), math.nan):
                    with pytest.raises(p.DomainError, match=r"\[0\.5, 4\] µm"):
                        evaluate(crystal, axis, lam, ROOM_T_C)


class TestGvd:
    def test_pump_gvd_740(self, crystal):
        assert_within(p.gvd(crystal, "e", 0.740, ROOM_T_C), 0.41, 0.05, "k_p''")

    def test_signal_gvd_1480(self, crystal):
        assert_within(p.gvd(crystal, "o", 1.480, ROOM_T_C), 0.13, 0.05, "k_s''")


# step large enough that k(ω) roundoff (~eps·k/h²) stays below the 1e-5
# relative target even near the GVD zero crossing; truncation of the
# fourth-order stencils is negligible for these smooth curves
class TestInPlaceEvaluation:
    """n at each element of an array (1-D and 2-D), its λ-derivatives at
    each wavelength of a sweep, and the wavevector over a whole array equal
    the one-expression oracles of conftest bit for bit, on both axes, at
    0–200 °C, across the validity range."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(axis=st.sampled_from(["o", "e"]), t_c=st.floats(0.0, 200.0),
           lo=st.floats(0.5, 4.0), hi=st.floats(0.5, 4.0), n=st.integers(1, 40))
    def test_n_squared(self, crystal, axis, t_c, lo, hi, n):
        sell = crystal.axis(axis)
        lam = np.linspace(lo, hi, n)
        grid = np.add.outer(lam, lam[::-1]) / 2.0   # a 2-D input, like the pump grid
        for arr in (lam, grid):
            expected = np.sqrt(expression_n_squared(sell, arr, t_c))
            assert [sell.n(x, t_c) for x in arr.flat] == expected.ravel().tolist()
            # the one array path, at the ω of each λ
            omega = 2.0e6 * np.pi * c / arr
            assert np.array_equal(
                wavevector_at_omega(crystal, axis, omega, t_c),
                expression_wavevector_at_omega(crystal, axis, omega, t_c))
        scalar = float(lam[0])
        expected = expression_n_squared(sell, scalar, t_c)
        assert type(sell.n(scalar, t_c)) is float
        assert sell.n(scalar, t_c) == np.sqrt(expected)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(axis=st.sampled_from(["o", "e"]), t_c=st.floats(0.0, 200.0),
           lo=st.floats(0.5, 4.0), hi=st.floats(0.5, 4.0), n=st.integers(1, 40))
    def test_n_derivatives(self, crystal, axis, t_c, lo, hi, n):
        # the shared pole-sum formula keeps the two-pole form's operations
        # and their order, so the bundled crystal's bits do not move. No
        # derivative takes an array, so the sweep goes one λ at a time, and
        # the oracle takes floats too: numpy's array ** may differ from
        # libm's pow in the last bits. Its n has the bits of n's.
        sell = crystal.axis(axis)
        for x in np.linspace(lo, hi, n).tolist():
            got = sell.n_derivatives(x, t_c)
            assert all(type(v) is float for v in got)
            assert got == expression_n_derivatives(sell, x, t_c)
            assert got[0] == sell.n(x, t_c)

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


# an ω whose wavelength lies exactly on the first pole of the bundled
# crystal's axis e at 3000 °C, 0.8515047162483 µm
POLE_3000_OMEGA = 2212144608673638.5


def _edited_crystal(*edits):
    """The bundled crystal with each (old, new) text edit applied once."""
    text = p.bundled_crystal_path().read_text(encoding="utf-8")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    return p.load_crystal(text)


class TestNonFiniteEvaluation:
    def test_high_temperature_overflow_is_domain_error(self, crystal):
        # the bundled crystal at 1e155 °C: f(T) ≈ 1e310 overflows, and so
        # does (a3 + b3·f)²
        assert 2.0 < p.refractive_index(crystal, "o", 1.55, 200.0) < 2.4
        with pytest.raises(p.DomainError, match=r"not finite at 1e\+155 °C"):
            p.refractive_index(crystal, "o", 1.55, 1e155)
        omega = 2.0e6 * np.pi * c / np.linspace(0.6, 3.0, 5)
        for omegas in (omega, omega[:0]):   # the terms name no λ: even none
            with pytest.raises(p.DomainError, match=r"not finite at 1e\+155 °C"):
                wavevector_at_omega(crystal, "o", omegas, 1e155)
        for method in ("n", "n_derivatives"):
            with pytest.raises(p.DomainError, match=r"not finite at 1e\+155 °C"):
                getattr(crystal.axis("e"), method)(1.55, 1e155)

    @pytest.mark.parametrize("t_c", [-400.0, -273.15, float("nan")])
    def test_temperature_not_above_absolute_zero_is_domain_error(self, crystal, t_c):
        evaluations = (p.refractive_index, p.wavevector, p.group_index, p.gvd,
                       k_prime, k_double_prime)
        for evaluate in evaluations:
            with pytest.raises(p.DomainError, match="not above absolute zero"):
                evaluate(crystal, "o", 1.55, t_c)
        with pytest.raises(p.DomainError, match="not above absolute zero"):
            wavevector_at_omega(crystal, "e", np.array([1.2e15, 1.3e15]), t_c)

    def test_negative_n_squared_is_domain_error(self):
        # b1 = −1e-5 on axis o: n² > 1 at 0–200 °C, so it loads, but
        # a1 + b1·f < 0 at 1000 °C; an array names its smallest n² and, like
        # a float, does not warn
        xtl = _edited_crystal(('"b1": 7.941e-7', '"b1": -1.0e-5'))
        for lam in (1.55, np.array([0.6, 1.55, 3.6])):
            omega = 2.0e6 * np.pi * c / lam
            lam_back = 2.0e6 * np.pi * c / omega
            smallest = np.min(expression_n_squared(xtl.axis("o"), lam_back, 1000.0))
            assert smallest < 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(p.DomainError,
                                   match=f"n² = {smallest:.6g} is not positive"):
                    wavevector_at_omega(xtl, "o", omega, 1000.0)
        with pytest.raises(p.DomainError, match="is not positive at 1.55 µm"):
            p.refractive_index(xtl, "o", 1.55, 1000.0)

    def test_non_real_index_names_where_it_is(self):
        # an array names the wavelength of its smallest n², and the
        # evaluation names the crystal and the axis
        xtl = _edited_crystal(('"b1": 7.941e-7', '"b1": -1.0e-5'))
        omega = 2.0e6 * np.pi * c / np.array([[3.6, 0.6], [1.55, 2.0]])
        lam = 2.0e6 * np.pi * c / omega
        n2 = expression_n_squared(xtl.axis("o"), lam, 1000.0)
        at = lam.flat[n2.argmin()]
        with pytest.raises(p.DomainError) as info:
            wavevector_at_omega(xtl, "o", omega, 1000.0)
        assert str(info.value) == (
            f"crystal 'MgO:LN-5pct', axis 'o': n² = {n2.min():.6g} is not "
            f"positive at {at:.6g} µm, 1000 °C: no real index")

    @pytest.mark.parametrize("omega", [0.0, -0.0, 0])
    def test_zero_frequency_is_domain_error(self, crystal, omega):
        # a float ω = 0 has the infinite wavelength that an array's 0 has,
        # and the same message, not a ZeroDivisionError
        sign = "-" if math.copysign(1.0, omega) < 0 else ""
        message = (rf"wavelength {sign}inf µm outside the valid range "
                   r"\[0.5, 4\] µm of crystal 'MgO:LN-5pct'")
        with pytest.raises(p.DomainError, match=message):
            wavevector_at_omega(crystal, "o", omega, ROOM_T_C)
        with pytest.raises(p.DomainError, match=message):
            wavevector_at_omega(crystal, "o", np.array([omega, 1.2e15]), ROOM_T_C)

    def test_pole_on_the_sample_is_domain_error(self, crystal):
        # λ = a5 puts the second pole exactly on the sample: c4/0, a
        # ZeroDivisionError on a float
        sell = crystal.axis("o")
        for method in ("n", "n_derivatives"):
            with pytest.raises(p.DomainError, match="not finite"):
                getattr(sell, method)(sell.a5, ROOM_T_C)
        # at 3000 °C the first pole of axis e lies in the valid range, and
        # the ω of POLE_3000_OMEGA puts it on the sample: c2/0, which is inf
        # in an array, and neither warns
        omega = np.array([2.0e6 * np.pi * c / 1.0, POLE_3000_OMEGA])
        lam = 2.0e6 * math.pi * c / POLE_3000_OMEGA
        assert lam * lam == crystal.axis("e")._terms(3000.0)[1][0][1]
        for omegas in (omega, POLE_3000_OMEGA):
            with pytest.raises(p.DomainError, match="axis 'e': .* not finite"):
                wavevector_at_omega(crystal, "e", omegas, 3000.0)


_K = 2.0e6 * math.pi * c   # ω = K/λ with λ in µm, and back

# what an ω array may hold besides in-range values: the pole of axis e at
# 3000 °C and a wavelength just below it, where n² < 0 there; NaN, ±0, ±inf,
# a subnormal, a negative ω and wavelengths outside [0.5, 4] µm
_SPECIAL_OMEGAS = (
    st.sampled_from([POLE_3000_OMEGA, _K / 0.85])
    | st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -1.2e15])
    | st.floats(0.05, 0.4999).map(lambda lam: _K / lam)
    | st.floats(4.0001, 100.0).map(lambda lam: _K / lam))


@st.composite
def _omega_arrays(draw):
    """A 1-D or 2-D array of in-range ω with up to three special values."""
    shape = draw(st.sampled_from([(0,), (1,), (2,), (7,), (1, 3), (3, 1), (3, 4)]))
    size = math.prod(shape)
    lams = draw(st.lists(st.floats(0.5, 4.0), min_size=size, max_size=size))
    omega = [_K / lam for lam in lams]
    for _ in range(draw(st.integers(0, 3)) if size else 0):
        omega[draw(st.integers(0, size - 1))] = draw(_SPECIAL_OMEGAS)
    return np.array(omega, dtype=float).reshape(shape)


@pytest.fixture(scope="module")
def negative_b1_crystal():
    """b1 = −1e-5 on axis o: n² crosses 0 in the valid range near 500 °C
    and is below 0 across it at 1000 °C."""
    return _edited_crystal(('"b1": 7.941e-7', '"b1": -1.0e-5'))


class TestArrayRefusal:
    """wavevector_at_omega on an array gives the one-expression oracle's
    bits, or the DomainError of the float path at the element it names:
    the first wavelength out of range in C order, else the smallest n² ≤ 0
    (a NaN first), else the first n that is not finite."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(omega=_omega_arrays(), design=st.one_of(
        st.tuples(st.just(False), st.sampled_from(["o", "e"]), st.floats(0.0, 200.0)),
        st.tuples(st.just(True), st.just("o"), st.floats(400.0, 1000.0)),
        st.tuples(st.just(False), st.just("e"), st.just(3000.0))))
    def test_result_or_the_float_paths_error(self, crystal, negative_b1_crystal,
                                             omega, design):
        negative_b1, axis, t_c = design
        xtl = negative_b1_crystal if negative_b1 else crystal
        with np.errstate(all="ignore"):
            lam = _K / omega
            outside = ~((lam >= 0.5) & (lam <= 4.0))
            n2 = expression_n_squared(xtl.axis(axis), lam, t_c)
            n = np.sqrt(n2)
        if outside.any():
            named, rule = outside.argmax(), "out of range"
        elif not (n2 > 0.0).all():
            named, rule = n2.argmin(), "n² ≤ 0"
        elif not np.isfinite(n).all():
            named, rule = (~np.isfinite(n)).argmax(), "n not finite"
        else:
            event("evaluated")
            got = wavevector_at_omega(xtl, axis, omega, t_c)
            expected = expression_wavevector_at_omega(xtl, axis, omega, t_c)
            assert got.shape == omega.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
            return
        event(f"refused: {rule}")
        with pytest.raises(p.DomainError) as float_path:
            wavevector_at_omega(xtl, axis, float(omega.flat[named]), t_c)
        with pytest.raises(p.DomainError) as array_path:
            wavevector_at_omega(xtl, axis, omega, t_c)
        assert str(array_path.value) == str(float_path.value)


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


_BUNDLED_TEXT = p.bundled_crystal_path().read_text(encoding="utf-8")
_BUNDLED = yaml.safe_load(_BUNDLED_TEXT)
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

    def test_bundled_crystal_is_the_crystal_file(self):
        # the bundled load parses with json, a crystal file with PyYAML:
        # both build one model
        assert p.load_bundled_crystal() == p.load_crystal_file(
            p.bundled_crystal_path())

    def test_forms_compare_by_type_and_coefficients(self, crystal):
        # two loads give equal crystals, whose forms are not the same objects
        again = p.load_bundled_crystal()
        assert again == crystal and again.axis("o") is not crystal.axis("o")
        sell = crystal.axis("o")
        coeffs = {key: getattr(sell, key) for key in sell._KEYS}
        assert p.dispersion.GayerTwoPole(**coeffs) == sell
        assert p.dispersion.GayerTwoPole(**{**coeffs, "b4": 0.0}) != sell
        assert crystal.axis("e") != sell
        standard = p.load_crystal(_STANDARD).axis("e")
        assert standard != sell and sell != standard
        assert standard == p.load_crystal(_STANDARD).axis("e")
        with pytest.raises(TypeError, match="unhashable"):
            hash(sell)

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

    @pytest.mark.parametrize("text, pole", [
        # b = 1e-3 makes the pole at √2.3104 µm so narrow that n² is finite
        # and above 1 at every sampled wavelength
        (_MINIMAL.format(a=4.0, b="[1.0e-3]", c="[2.3104]"), "1.52"),
        (_BUNDLED_TEXT.replace('"a3": 0.2091', '"a3": 1.3', 1), "1.30006"),
        (_BUNDLED_TEXT.replace('"a5": 10.85', '"a5": 2.5', 1), "2.5"),
    ], ids=["narrow_standard", "gayer_a3", "gayer_a5"])
    def test_pole_is_found_exactly(self, text, pole):
        with pytest.raises(p.ValidationError,
                           match=f"axis 'o': Sellmeier pole at {pole} µm"):
            p.load_crystal(text)

    @pytest.mark.parametrize("a3, b3, ends", [
        ("1.2", "7.0e-5", "0.221044 to 10.6695"),
        ("-1.2", "-7.0e-5", "-0.221044 to -10.6695"),
    ], ids=["rising", "falling"])
    def test_pole_crossing_between_checked_temperatures_rejected(self, a3, b3,
                                                                 ends):
        # |a3 + b3·f(T)| is 0.221 µm at 0 °C, 4.75 µm at 100 °C and 10.7 µm
        # at 200 °C, all outside [0.5, 4.0] µm; at 50 °C it is at 2.31 µm,
        # where n would read 9.02 at 2.3085 µm
        text = (_BUNDLED_TEXT.replace('"a3": 0.2091', f'"a3": {a3}', 1)
                .replace('"b3": -4.641e-9', f'"b3": {b3}', 1))
        with pytest.raises(p.ValidationError) as info:
            p.load_crystal(text)
        assert str(info.value) == (
            "crystal 'MgO:LN-5pct', axis 'o': Sellmeier pole crosses the "
            "validity range [0.5, 4.0] µm between 0.0 and 200.0 °C (from "
            f"{ends} µm)")

    def test_pole_jumping_the_range_between_adjacent_floats_rejected(self):
        # with b3 = 1e148 the pole is at a3 = 0.2091 µm at t_ref_c = 24.5 °C
        # and beyond 1e136 µm at the next float either side, so no float
        # temperature puts it in the range; the pole p(T) still crosses it,
        # from −1.4e152 µm at 0 °C to 1.4e153 µm at 200 °C
        text = _BUNDLED_TEXT.replace('"b3": -4.641e-9', '"b3": 1.0e+148', 1)
        with pytest.raises(p.ValidationError, match=(
                r"axis 'o': Sellmeier pole crosses the validity range "
                r"\[0.5, 4.0\] µm between 0.0 and 200.0 °C \(from "
                r"-1.39851e\+152 to 1.35279e\+153 µm\)")):
            p.load_crystal(text)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(a3=st.floats(-5.0, 5.0), b3=st.floats(-1e-3, 1e-3))
    def test_pole_rule_matches_a_temperature_scan(self, crystal, a3, b3):
        # at |b3| ≤ 1e-3 the pole moves under 1 µm/°C on 0–200 °C, so a
        # crossing of [0.5, 4.0] µm lasts over 3 °C: a 0.05 °C scan, ends
        # included, sees every pole the exact rule finds
        sell = crystal.axis("o")
        coeffs = {key: getattr(sell, key) for key in sell._KEYS}
        sell = p.dispersion.GayerTwoPole(**{**coeffs, "a3": a3, "b3": b3})
        scan = any(0.5 <= abs(sell._poles_um(i / 20)[0]) <= 4.0
                   for i in range(4001))
        assert (p.dispersion._pole_in_range(sell, 0.5, 4.0) is not None) == scan

    def test_negative_index_crystal_rejected(self):
        # n = 2 + dn_dt·(T − 20 °C) is 3 at 0 °C and −2 at 100 °C: n² = 4 is
        # positive everywhere, but the index is not above 1
        text = _MINIMAL.format(a=4.0, b="[]", c="[]").replace(
            "dn_dt: 0.0", "dn_dt: -0.05")
        with pytest.raises(p.ValidationError, match=(
                r"axis 'o': n ≤ 1 at 0.5 µm, 100.0 °C \(min n = -2\)")):
            p.load_crystal(text)

    @pytest.mark.parametrize("old, bad", [
        ('"a3": 0.2091', '"a3": 1.0e+200'),
        ('"a1": 5.653', '"a1": -100.0'),
    ], ids=["overflow", "negative_n2"])
    def test_non_finite_n2_message_names_its_causes(self, old, bad):
        # a pole in the range is found before n² is sampled, so the message
        # names the two causes that remain
        with pytest.raises(p.ValidationError) as info:
            p.load_crystal(_BUNDLED_TEXT.replace(old, bad, 1))
        assert str(info.value) == (
            "crystal 'MgO:LN-5pct', axis 'o': n or one of its λ-derivatives "
            "is not finite across [0.5, 4.0] µm at 0.0 °C (a coefficient "
            "overflows the float range, or n² ≤ 0)")

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
        ('"a1": 5.653', '"a1": x'),
        ('"a1": 5.653', '"a1": null'),
        ('"valid_range_um": [0.5, 4.0]', '"valid_range_um": [true, 4.0]'),
        ('"d_eff_pm_per_V": 4.64', '"d_eff_pm_per_V": true'),
        # the name and provenance are text, not what str() makes of a value
        ('"name": "MgO:LN-5pct"', '"name": ["a", {"b": 1}]'),
        ('"name": "MgO:LN-5pct"', '"name": 1e5'),
        # JSON keeps the last value of a key given twice
        ('"sellmeier": {', '"provenance": {"b": 1}, "sellmeier": {'),
    ], ids=["text_coefficient", "null_coefficient", "bool_range", "bool_d_eff",
            "list_name", "number_name", "mapping_provenance"])
    def test_malformed_number_rejected(self, old, bad):
        text = p.bundled_crystal_path().read_text(encoding="utf-8")
        assert old in text
        key = bad.split(":")[0].strip('"')
        with pytest.raises(p.ValidationError, match=f"{key} must be"):
            p.load_crystal(text.replace(old, bad, 1))

    def test_numeric_text_is_a_number(self):
        # YAML 1.1 reads 4.64e0 and 5.0e-1 as text; the loader reads them as
        # the numbers a coefficient written that way would be
        text = p.bundled_crystal_path().read_text(encoding="utf-8")
        for old, new in (('"d_eff_pm_per_V": 4.64', '"d_eff_pm_per_V": 4.64e0'),
                         ('"valid_range_um": [0.5, 4.0]',
                          '"valid_range_um": [5.0e-1, 4.0]')):
            assert old in text
            text = text.replace(old, new, 1)
        xtl = p.load_crystal(text)
        assert xtl.d_eff_pm_per_v == 4.64
        assert xtl.valid_range_um == (0.5, 4.0)

    def test_non_utf8_file_is_validation_error(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(p.ValidationError, match="latin1.yaml.*not UTF-8"):
            p.load_crystal_file(path)

    @pytest.mark.parametrize("old, bad, message", [
        ('"a1": 5.653', '"a1": 5.653, 1: 2.0', "text keys|not finite"),
        ('"a3": 0.2091', '"a3": 1.0e+200', "text keys|not finite"),
        ('"a5": 10.85', '"a5": 1.0e+200', "text keys|not finite"),
        ('"b3": -4.641e-9', '"b3": 1.0e+200', "pole crosses the validity range"),
    ], ids=["integer_key", "huge_a3", "huge_a5", "huge_b3"])
    def test_malformed_coefficient_block_rejected(self, old, bad, message):
        # an integer key cannot name a coefficient; a squared coefficient
        # beyond the float range must not escape as OverflowError; a b3 that
        # large carries the pole across the range between 0 and 200 °C
        text = p.bundled_crystal_path().read_text(encoding="utf-8")
        assert old in text
        with pytest.raises(p.ValidationError, match=message):
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

    def test_none_temperature_model_refuses_a_thermo_optic_term(self):
        # 'none' means n does not depend on T: a dn_dt of 0.001 would read
        # n = 2.2 at 20 °C and 2.3 at 120 °C
        text = _MINIMAL.format(a=4.84, b="[]", c="[]").replace(
            "linear_dn_dt", "none")
        assert p.load_crystal(text).temperature_model == "none"
        with pytest.raises(p.ValidationError) as info:
            p.load_crystal(text.replace("dn_dt: 0.0", "dn_dt: 0.001"))
        assert str(info.value) == (
            "crystal 'test-crystal', axis 'o': temperature_model 'none' needs "
            "dn_dt = 0, got 0.001")

    def test_standard_sellmeier_round_trip(self):
        text = _MINIMAL.format(a=1.0, b="[2.5, 1.0]", c="[0.01, 100.0]")
        xtl = p.load_crystal(text)
        lam = 1.3
        lam2 = lam * lam
        expected = math.sqrt(1.0 + 2.5 * lam2 / (lam2 - 0.01)
                             + 1.0 * lam2 / (lam2 - 100.0))
        assert abs(p.refractive_index(xtl, "o", lam, 20.0) - expected) < 1e-12


_STANDARD = """
name: standard-test
class: uniaxial
temperature_model: linear_dn_dt
d_eff_pm_per_V: 1.0
valid_range_um: [0.5, 4.0]
provenance: synthetic test data
sellmeier:
  o:
    form: sellmeier_standard
    coefficients: {a: 1.0, b: [2.5, 0.3], c: [0.0121, -0.04], d: 0.012,
                   dn_dt: 3.0e-5, t_ref_c: 20.0}
  e:
    form: sellmeier_standard
    coefficients: {a: 4.84, b: [], c: [], d: 0.02, dn_dt: -1.0e-5,
                   t_ref_c: 25.0}
"""


def _standard_closed_form(sell, lam_um, t_c):
    """n, group index and GVD (ps²/m) of a sellmeier_standard axis from the
    form as its file writes it, n² = a + Σ bᵢλ²/(λ² − cᵢ) − dλ², with the
    λ-derivatives of each term taken by hand and evaluated in exact
    rational arithmetic: only √n² and the last conversion round."""
    lam = Fraction(lam_um)
    lam2, d = lam * lam, Fraction(sell.d)
    g, gp, gpp = Fraction(sell.a) - d * lam2, -2 * d * lam, -2 * d
    for b, q in zip(map(Fraction, sell.b), map(Fraction, sell.c)):
        g += b * lam2 / (lam2 - q)
        gp += -2 * b * q * lam / (lam2 - q) ** 2
        gpp += 2 * b * q * (3 * lam2 + q) / (lam2 - q) ** 3
    root = Fraction(math.sqrt(g))
    dn = gp / (2 * root)
    d2n = gpp / (2 * root) - gp * gp / (4 * root ** 3)
    n = root + Fraction(sell.dn_dt) * (Fraction(t_c) - Fraction(sell.t_ref_c))
    return (float(n), float(n - lam * dn),
            float(lam ** 3 * d2n) * 1e-6 / (2.0 * math.pi * c ** 2) * 1e24)


class TestStandardSellmeier:
    """The standard form, evaluated by the shared pole-sum formula with
    c0 = a + Σbᵢ and rᵢ = bᵢcᵢ, against its own closed form: two poles,
    one of them at c ≤ 0, on axis o, no pole on axis e, and a thermo-optic
    term on both."""

    def test_matches_closed_form(self):
        xtl = p.load_crystal(_STANDARD)
        for axis in ("o", "e"):
            for t_c in (0.0, 20.0, 80.0, 200.0):
                for lam in np.linspace(0.5, 4.0, 36).tolist():
                    got = (p.refractive_index(xtl, axis, lam, t_c),
                           p.group_index(xtl, axis, lam, t_c),
                           p.gvd(xtl, axis, lam, t_c))
                    expected = _standard_closed_form(xtl.axis(axis), lam, t_c)
                    for name, a, b in zip(("n", "group index", "GVD"), got,
                                          expected):
                        assert abs(a - b) <= 1e-13 * abs(b), (axis, t_c, lam,
                                                              name, a, b)
