"""JSA construction, Schmidt decomposition, and the double-Gaussian oracle."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c

import pdcmodes as p
from pdcmodes.jsa import sinc

from conftest import assert_within


def _sinc_two_branches(x):
    """Reference sinc: both branches over the whole array, then a select."""
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < 1e-8
    safe = np.where(small, 1.0, arr)
    with np.errstate(over="ignore"):  # the unused x²/6 branch at |x| > 1e154
        return np.where(small, 1.0 - arr * arr / 6.0, np.sin(safe) / safe)


def _envelope_and_half_phase(amplitude):
    """α̃(Ωᵢ+Ωⱼ)·sinc(x) and x = Δ̃(Ωᵢ, Ωⱼ)·L/2 of a design's JSA, each as
    one expression of the public functions."""
    config, om = amplitude.config, amplitude.grid.detunings()
    x = p.phase_mismatch(config, om[:, None], om[None, :]) * (config.length_m / 2.0)
    envelope = p.pump_spectral_amplitude(
        amplitude.pump, om[:, None] + om[None, :]) * sinc(x)
    return envelope, x


def _dg_grid(r_ratio, width, n=512, n_sigma=4.5):
    extent = n_sigma * r_ratio * width / math.sqrt(2.0) * 2.0
    return p.FrequencyGrid(n=n, omega_max_rad_s=extent)


class TestSinc:
    def test_zero(self):
        assert sinc(0.0) == 1.0

    def test_tiny_argument_uses_expansion(self):
        x = 1e-9
        assert sinc(x) == 1.0 - x * x / 6.0

    def test_matches_definition(self):
        x = np.linspace(-30, 30, 1001)
        x = x[np.abs(x) > 1e-3]
        assert np.allclose(sinc(x), np.sin(x) / x, rtol=0, atol=1e-15)

    def test_equals_two_branch_formula_bit_for_bit(self):
        x = np.array([0.0, -0.0, 1e-9, -1e-9, 1e-8, -1e-8,
                      np.nextafter(1e-8, 0.0), -np.nextafter(1e-8, 0.0),
                      1e-7, 0.5, -2.0, 3.7, 1e3, -1e6, 1e300, np.nan])
        grid = np.add.outer(x, x[::-1])
        for arr in (x, grid):
            assert np.array_equal(sinc(arr), _sinc_two_branches(arr),
                                  equal_nan=True)
        for scalar in (0.0, 1e-9, 2.0):
            assert sinc(scalar) == float(_sinc_two_branches(scalar))
        assert math.isnan(sinc(float("nan")))

    def test_zero_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sinc(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]
            assert sinc(0.0) == 1.0


class TestPumpPulse:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(p.ValidationError):
            p.PumpPulse(0.775, -4.0, 12e-3, 1e8)

    def test_sigma_plus(self, pump775):
        lam = 0.775e-6
        expected = math.pi * c * 4e-9 / (lam ** 2 * math.sqrt(2 * math.log(2)))
        assert pump775.sigma_plus_rad_s == pytest.approx(expected, rel=1e-14)


class TestPumpSpectralAmplitude:
    def test_unit_integral_on_default_grid(self, matched_config, pump775):
        grid = p.default_grid(matched_config, pump775)
        om = grid.detunings()
        integral = np.sum(p.pump_spectral_amplitude(pump775, om)) \
            * grid.step_rad_s / (2 * math.pi)
        assert abs(integral - 1.0) < 1e-6

    def test_intensity_fwhm_matches_bandwidth(self, pump775):
        lam = 0.775e-6
        expected_fwhm = 2 * math.pi * c * 4e-9 / lam ** 2
        om = np.linspace(0, 5e13, 200001)
        intensity = p.pump_spectral_amplitude(pump775, om) ** 2
        half = np.interp(0.5 * intensity[0], intensity[::-1], om[::-1])
        assert_within(2 * half, expected_fwhm, 1e-3, "pump intensity FWHM")

    def test_even_symmetry(self, pump775, rng):
        om = rng.uniform(0, 3e13, size=50)
        assert np.array_equal(p.pump_spectral_amplitude(pump775, om),
                              p.pump_spectral_amplitude(pump775, -om))

    def test_in_place_equals_expression_bit_for_bit(self, pump740):
        sig = pump740.sigma_plus_rad_s
        om = np.linspace(-12, 12, 97) * sig
        for arg in (om, np.add.outer(om, om), 0.0, float(om[3])):
            expected = (math.sqrt(math.pi) / sig) * np.exp(
                -np.asarray(arg) ** 2 / (4.0 * sig ** 2))
            assert np.array_equal(p.pump_spectral_amplitude(pump740, arg), expected)


class TestDefaultGrid:
    def test_covers_reported_band(self, matched_config, pump775):
        grid = p.default_grid(matched_config, pump775)
        f_thz = (matched_config.omega_s_rad_s
                 + grid.detunings()) / (2 * math.pi * 1e12)
        assert f_thz[0] <= 185.0
        assert f_thz[-1] >= 202.0

    def test_extent_independent_of_n(self, matched_config, pump775):
        g1 = p.default_grid(matched_config, pump775, n=512)
        g2 = p.default_grid(matched_config, pump775, n=1024)
        assert g1.omega_max_rad_s == g2.omega_max_rad_s

    def test_schmidt_number_grid_converged(self, matched_decomp, matched_k_1024):
        assert abs(matched_decomp.schmidt_number - matched_k_1024) < 0.005 * matched_k_1024

    def test_minimum_points_enforced(self):
        with pytest.raises(p.ValidationError, match="64"):
            p.FrequencyGrid(n=32, omega_max_rad_s=1e13)

    def test_memory_budget_enforced(self):
        # the estimate alone decides; no grid is ever sampled here
        with pytest.raises(p.ValidationError, match="GiB budget"):
            p.FrequencyGrid(n=200_000, omega_max_rad_s=1e13)
        assert p.FrequencyGrid(n=2048, omega_max_rad_s=1e13).n == 2048

    def test_grid_is_symmetric(self, matched_config, pump775):
        grid = p.default_grid(matched_config, pump775)
        om = grid.detunings()
        assert om[0] == -om[-1]


class TestComputeJsa:
    def test_values_exactly_symmetric(self, walkoff_jsa, matched_jsa):
        for amplitude in (walkoff_jsa, matched_jsa):
            values = amplitude.values
            assert np.array_equal(values, values.T)
            assert np.array_equal(amplitude.kernel, amplitude.kernel.T)

    def test_kernel_is_weighted_envelope_bit_for_bit(self, walkoff_jsa, matched_jsa):
        for amplitude in (walkoff_jsa, matched_jsa):
            envelope = _envelope_and_half_phase(amplitude)[0]
            weight = amplitude.grid.step_rad_s / (2 * math.pi)
            assert np.array_equal(envelope * weight, amplitude.kernel)

    def test_values_carry_the_mismatch_chirp(self, matched_jsa):
        envelope, x = _envelope_and_half_phase(matched_jsa)
        assert np.array_equal(matched_jsa.values, envelope * np.exp(1j * x))

    def test_support_is_pump_band_times_phase_matched_band(
            self, walkoff_jsa, pump740):
        om = walkoff_jsa.grid.detunings()
        total = om[:, None] + om[None, :]
        alpha = p.pump_spectral_amplitude(pump740, total)
        alpha_peak = p.pump_spectral_amplitude(pump740, 0.0)
        x = _envelope_and_half_phase(walkoff_jsa)[1]
        inside = (alpha > 0.5 * alpha_peak) & (np.abs(sinc(x)) > 0.5)
        magnitude = np.abs(walkoff_jsa.values)
        assert inside.any()
        assert np.all(magnitude[inside] >= 0.25 * alpha_peak)
        peak = np.unravel_index(np.argmax(magnitude), magnitude.shape)
        assert inside[peak]

    def test_matched_design_peaks_at_degeneracy(self, matched_jsa):
        om = matched_jsa.grid.detunings()
        diagonal = np.abs(np.diagonal(matched_jsa.values))
        peak = np.argmax(diagonal)
        assert abs(om[peak]) <= matched_jsa.grid.step_rad_s
        # both hyperbola vertices sit within a fraction of the pump width
        td = p.taylor_dispersion(matched_jsa.config)
        assert abs(2 * td.omega_d_rad_s) < 0.2 * matched_jsa.pump.sigma_plus_rad_s

    def test_pump_record_must_match_design(self, matched_config, pump740):
        grid = p.FrequencyGrid(n=64, omega_max_rad_s=1e13)
        with pytest.raises(p.ValidationError, match="does not match"):
            p.compute_jsa(matched_config, pump740, grid)

    def test_grid_beyond_dispersion_validity(self, matched_config, pump775):
        grid = p.FrequencyGrid(n=64, omega_max_rad_s=9e14)
        with pytest.raises(p.DomainError, match="valid range"):
            p.compute_jsa(matched_config, pump775, grid)

    def test_arrays_are_read_only(self, matched_jsa):
        with pytest.raises(ValueError):
            matched_jsa.values[0, 0] = 0.0

    def test_holds_one_n2_array(self, matched_config, pump775):
        n = 256
        amplitude = p.compute_jsa(matched_config, pump775,
                                  p.default_grid(matched_config, pump775, n=n))
        held = {name: getattr(amplitude, name).nbytes
                for name in amplitude.__dataclass_fields__
                if isinstance(getattr(amplitude, name), np.ndarray)}
        assert held == {"kernel": 8 * n * n}

    def test_squeezing_peak_allocation(self, matched_config, pump775):
        n = 256
        grid = p.default_grid(matched_config, pump775, n=n)
        p.squeezing_spectrum(matched_config, pump775, grid=grid)  # warm up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            p.squeezing_spectrum(matched_config, pump775, grid=grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.1 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} n² doubles"


class TestSchmidtDecompose:
    def test_walk_off_design_mode_count(self, walkoff_decomp):
        assert_within(walkoff_decomp.schmidt_number, 9.4, 0.05, "K (walk-off)")

    def test_matched_design_mode_count(self, matched_decomp):
        assert_within(matched_decomp.schmidt_number, 2.56, 0.05, "K (matched)")

    def test_singular_values_normalized_and_sorted(self, walkoff_decomp, matched_decomp):
        for decomp in (walkoff_decomp, matched_decomp):
            assert abs(np.sum(decomp.s ** 2) - 1.0) < 1e-9
            assert np.all(np.diff(decomp.s) <= 0)
            assert decomp.schmidt_number >= 1.0

    def test_modes_orthonormal(self, matched_decomp, matched_jsa):
        weight = matched_jsa.grid.step_rad_s / (2 * math.pi)
        gram = matched_decomp.modes @ matched_decomp.modes.T * weight
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-6

    def test_left_right_modes_agree_in_magnitude(self, matched_jsa, matched_decomp):
        u, sv, vt = np.linalg.svd(matched_jsa.kernel)
        keep = matched_decomp.s > 1e-6
        assert np.max(np.abs(np.abs(u[:, keep]) - np.abs(vt[keep].T))) < 1e-8

    def test_separable_input_is_single_mode(self):
        grid = _dg_grid(1.0, 1e12)
        decomp = p.schmidt_decompose(p.double_gaussian_jsa(1e12, 1.0, grid))
        assert abs(decomp.schmidt_number - 1.0) < 1e-6
        assert abs(decomp.s[0] - 1.0) < 1e-6

    def test_all_zero_input_raises(self):
        grid = p.FrequencyGrid(n=64, omega_max_rad_s=1e13)
        dummy = p.double_gaussian_jsa(1e12, 1.0, grid)
        zero = p.JsaGrid(kernel=np.zeros_like(dummy.kernel), grid=grid)
        with pytest.raises(p.DomainError, match="zero"):
            p.schmidt_decompose(zero)

    def test_mode_shapes_are_hermite_gauss_like(self, matched_decomp):
        for n in range(3):
            mode = matched_decomp.modes[n].real
            significant = np.abs(mode) > 1e-3 * np.abs(mode).max()
            signs = np.sign(mode[significant])
            changes = int(np.sum(signs[1:] != signs[:-1]))
            assert changes == n, f"mode {n}: {changes} sign changes"


def _assert_normalized(decomp):
    assert abs(math.fsum(decomp.s ** 2) - 1.0) <= 1e-12
    assert decomp.schmidt_number >= 1.0


class TestSchmidtInvariants:
    """Σs² = 1 within 1e-12 and K ≥ 1 on any amplitude."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(r_ratio=st.floats(1.0, 20.0), n=st.integers(64, 160))
    def test_double_gaussian(self, r_ratio, n):
        amplitude = p.double_gaussian_jsa(1e12, r_ratio, _dg_grid(r_ratio, 1e12, n=n))
        _assert_normalized(p.schmidt_decompose(amplitude))

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(design=st.sampled_from(["walkoff", "matched"]),
           n=st.integers(64, 128), dt_c=st.floats(-0.5, 0.5))
    def test_small_grid_reference_designs(self, walkoff_config, matched_config,
                                          pump740, pump775, design, n, dt_c):
        config, pump = ((walkoff_config, pump740) if design == "walkoff"
                        else (matched_config, pump775))
        config = replace(config, temperature_c=config.temperature_c + dt_c)
        grid = p.default_grid(config, pump, n=n)
        _assert_normalized(p.schmidt_decompose(p.compute_jsa(config, pump, grid)))


class TestJsaEfficiency:
    def test_matched_design(self, matched_jsa, matched_decomp):
        eta = p.jsa_efficiency(matched_decomp)
        assert abs(eta - 0.75) < 0.05

    def test_single_mode_limit(self):
        grid = _dg_grid(1.0, 1e12)
        amplitude = p.double_gaussian_jsa(1e12, 1.0, grid)
        decomp = p.schmidt_decompose(amplitude)
        assert_within(p.jsa_efficiency(decomp), 0.25, 0.01,
                      "η at R = 1")

    def test_highly_multimode_limit(self):
        grid = _dg_grid(50.0, 1e12, n=1024, n_sigma=4.0)
        amplitude = p.double_gaussian_jsa(1e12, 50.0, grid)
        decomp = p.schmidt_decompose(amplitude)
        assert abs(p.jsa_efficiency(decomp) - 1.0) < 0.05


class TestDoubleGaussian:
    def test_rejects_aspect_ratio_below_one(self):
        grid = _dg_grid(1.0, 1e12)
        with pytest.raises(p.DomainError, match="ratio"):
            p.double_gaussian_jsa(1e12, 0.5, grid)
        with pytest.raises(p.DomainError, match="ratio"):
            p.double_gaussian_analytics(0.5)

    def test_analytics_limiting_cases(self):
        assert p.double_gaussian_analytics(1.0) == (1.0, 0.25)
        k, eta = p.double_gaussian_analytics(2.0)
        assert k == pytest.approx(1.25, rel=1e-15)
        assert eta == pytest.approx(4.0 / 9.0, rel=1e-15)
        _, eta_large = p.double_gaussian_analytics(1e4)
        assert abs(eta_large - 1.0) <= 2e-4

    def test_mode_count_at_r3(self):
        grid = _dg_grid(3.0, 2e12)
        decomp = p.schmidt_decompose(p.double_gaussian_jsa(2e12, 3.0, grid))
        assert_within(decomp.schmidt_number, (1 + 9) / 6, 0.01, "K at R = 3")

    def test_raw_norm_is_quarter_r(self):
        for width in (5e11, 2e12, 8e12):
            grid = _dg_grid(2.5, width)
            decomp = p.schmidt_decompose(p.double_gaussian_jsa(width, 2.5, grid))
            assert_within(decomp.raw_norm, 2.5 / 4, 0.01, "raw norm")

    @pytest.mark.parametrize("r_ratio", [1.0, 1.5, 2.0, 3.0, 5.0, 10.0])
    def test_oracle_equivalence(self, r_ratio):
        grid = _dg_grid(r_ratio, 1e12)
        amplitude = p.double_gaussian_jsa(1e12, r_ratio, grid)
        decomp = p.schmidt_decompose(amplitude)
        k_exact, eta_exact = p.double_gaussian_analytics(r_ratio)
        assert_within(decomp.schmidt_number, k_exact, 0.01, f"K at R={r_ratio}")
        assert_within(p.jsa_efficiency(decomp), eta_exact, 0.01,
                      f"η at R={r_ratio}")
        assert_within(decomp.raw_norm, r_ratio / 4, 0.01, f"norm at R={r_ratio}")
