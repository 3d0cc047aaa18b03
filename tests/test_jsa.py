"""JSA construction and Schmidt decomposition, checked against the
double-Gaussian oracle of conftest."""

import dataclasses
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c

import pdcmodes as p
from pdcmodes.jsa import sinc

from conftest import (assert_within, double_gaussian_analytics,
                      double_gaussian_jsa, eager_modes,
                      expression_envelope_and_half_phase)


def _sinc_two_branches(x):
    """Reference sinc: both branches over the whole array, then a select."""
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < 1e-8
    safe = np.where(small, 1.0, arr)
    with np.errstate(over="ignore"):  # the unused x²/6 branch at |x| > 1e154
        return np.where(small, 1.0 - arr * arr / 6.0, np.sin(safe) / safe)


def _assert_same_bits(got, expected):
    """The same shape, dtype and bytes: zero signs and NaN payloads count."""
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.fixture(scope="module")
def partial_block_designs(walkoff_config, matched_config, pump740, pump775):
    """Both designs, with their pumps, on a grid whose last row block is
    partly filled."""
    n = 200
    assert n % p.jsa._BLOCK_ROWS
    return [(config, pump, p.default_grid(config, pump, n=n))
            for config, pump in ((walkoff_config, pump740), (matched_config, pump775))]


@pytest.fixture(scope="module")
def partial_block_jsas(partial_block_designs):
    return [p.compute_jsa(*design) for design in partial_block_designs]


@pytest.fixture(scope="module")
def reference_designs(walkoff_config, matched_config, pump740, pump775,
                      walkoff_jsa, matched_jsa):
    """Both designs, with their pumps, on the grids of walkoff_jsa and
    matched_jsa."""
    return [(walkoff_config, pump740, walkoff_jsa.grid),
            (matched_config, pump775, matched_jsa.grid)]


@pytest.fixture(scope="module")
def reference_parts(reference_designs):
    """jsa_parts of walkoff_jsa's and matched_jsa's designs."""
    return [p.jsa_parts(*design) for design in reference_designs]


def _values(parts):
    """The complex J whose parts jsa_parts gives, rebuilt bit for bit from
    its real and imaginary parts."""
    real, imag = parts[1:]
    values = np.empty(real.shape, dtype=complex)
    values.real, values.imag = real, imag
    return values


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
            p.PumpPulse(wavelength_um=0.775, bandwidth_fwhm_nm=-4.0,
                        mean_power_w=12e-3, rep_rate_hz=1e8)

    # text and numpy bools are no numbers either
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "4",
                                       np.True_, np.False_])
    @pytest.mark.parametrize("field", ["wavelength_um", "bandwidth_fwhm_nm",
                                       "mean_power_w", "rep_rate_hz"])
    def test_rejects_non_finite_fields(self, field, value):
        fields = dict(wavelength_um=0.775, bandwidth_fwhm_nm=4.0,
                      mean_power_w=12e-3, rep_rate_hz=1e8)
        fields[field] = value
        with pytest.raises(p.ValidationError, match=re.escape(
                f"pump {field} must be a finite number, got {value!r}")):
            p.PumpPulse(**fields)

    def test_accepts_numpy_ints_and_floats(self):
        pulse = p.PumpPulse(wavelength_um=np.float64(0.775),
                            bandwidth_fwhm_nm=np.int64(4),
                            mean_power_w=np.float32(0.5) * 24e-3,
                            rep_rate_hz=np.int64(100_000_000))
        assert pulse.sigma_plus_rad_s == p.PumpPulse(
            wavelength_um=0.775, bandwidth_fwhm_nm=4.0, mean_power_w=12e-3,
            rep_rate_hz=1e8).sigma_plus_rad_s

    @pytest.mark.parametrize("bandwidth_nm", [1e-300, 1e-170, 1e200])
    def test_rejects_width_whose_square_leaves_the_float_range(self, bandwidth_nm):
        # pump_spectral_amplitude divides by 4σ₊², which would underflow
        # to 0 or overflow
        with pytest.raises(p.DomainError, match=re.escape(
                f"pump bandwidth_fwhm_nm = {bandwidth_nm:g} at 0.775 µm")):
            p.PumpPulse(wavelength_um=0.775, bandwidth_fwhm_nm=bandwidth_nm,
                        mean_power_w=12e-3, rep_rate_hz=1e8)

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

    @pytest.mark.parametrize("n", [64.0, 64.5, "64", True])
    def test_rejects_a_non_integer_point_count(self, n):
        # refused where it enters, not by np.linspace's TypeError later
        with pytest.raises(p.ValidationError, match=(
                f"grid points per axis must be an integer, got {n!r}")):
            p.FrequencyGrid(n=n, omega_max_rad_s=1e13)

    def test_accepts_a_numpy_integer_point_count(self):
        grid = p.FrequencyGrid(n=np.int64(64), omega_max_rad_s=1e13)
        assert grid.detunings().size == 64

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "1e13",
                                       np.True_])
    def test_rejects_non_finite_extent(self, value):
        with pytest.raises(p.ValidationError, match=re.escape(
                f"grid omega_max_rad_s must be a finite number, got {value!r}")):
            p.FrequencyGrid(n=64, omega_max_rad_s=value)

    @pytest.mark.parametrize("length_m", [1e-303, 1e-293])
    def test_rejects_length_whose_band_leaves_the_float_range(
            self, matched_config, pump775, length_m):
        # k_s″·L underflows to 0, or the band 4·20/(k_s″·L) overflows
        with pytest.raises(p.DomainError, match=f"crystal length {length_m:g} m"):
            p.default_grid(matched_config.replace(length_m=length_m), pump775)

    @pytest.mark.parametrize("length_m", [1e-8, 1e-11])
    def test_rejects_length_whose_band_reaches_past_the_signal_frequency(
            self, matched_config, pump775, length_m):
        # the band is finite, but it reaches below zero frequency
        with pytest.raises(p.DomainError, match=(
                f"crystal length {length_m:g} m is too short: the grid it "
                "needs reaches .* past zero frequency")):
            p.default_grid(matched_config.replace(length_m=length_m), pump775)

    def test_rejects_pump_band_reaching_past_the_signal_frequency(self, matched_config):
        wide = p.PumpPulse(wavelength_um=0.775, bandwidth_fwhm_nm=400.0,
                           mean_power_w=12e-3, rep_rate_hz=1e8)
        with pytest.raises(p.DomainError, match=(
                "pump bandwidth_fwhm_nm = 400 is too wide: .* past zero frequency")):
            p.default_grid(matched_config, wide)

    @pytest.mark.parametrize("length_m, bandwidth_nm, cause", [
        (0.3e-3, 4.0, "crystal length 0.0003 m is too short"),
        (80e-3, 100.0, "pump bandwidth_fwhm_nm = 100 is too wide"),
    ], ids=["length", "bandwidth"])
    def test_rejects_band_outside_the_valid_range(
            self, matched_config, length_m, bandwidth_nm, cause):
        # below ω_s, but the signal band leaves [0.5, 4] µm
        pump = p.PumpPulse(wavelength_um=0.775, bandwidth_fwhm_nm=bandwidth_nm,
                           mean_power_w=12e-3, rep_rate_hz=1e8)
        with pytest.raises(p.DomainError, match=(
                f"{cause}: the grid it needs takes the signal to "
                r"\S+ µm, outside the valid range \[0.5, 4\] µm")):
            p.default_grid(matched_config.replace(length_m=length_m), pump)

    def test_band_check_refuses_exactly_what_the_evaluation_refuses(
            self, matched_config, pump775):
        # bisect to the adjacent lengths where default_grid turns to refusal
        ok, bad = matched_config.length_m, 0.3e-3
        while (ok + bad) / 2 not in (ok, bad):
            mid = (ok + bad) / 2
            try:
                p.default_grid(matched_config.replace(length_m=mid), pump775)
                ok = mid
            except p.DomainError:
                bad = mid
        # the grids both lengths need, from a crystal with a wider valid
        # range and the same dispersion, evaluated on the real crystal
        wide = matched_config.crystal.replace(valid_range_um=(0.1, 10.0))
        for length_m, evaluates in ((ok, True), (bad, False)):
            config = matched_config.replace(length_m=length_m)
            grid = p.default_grid(config.replace(crystal=wide), pump775)
            ends = grid.detunings()[[0, -1]]
            if evaluates:
                assert p.default_grid(config, pump775) == grid
                p.phase_mismatch(config, ends[:, None], ends[None, :])
            else:
                with pytest.raises(p.DomainError, match="valid range"):
                    p.phase_mismatch(config, ends[:, None], ends[None, :])
                # the same grid built by hand is refused where it enters
                with pytest.raises(p.DomainError, match=(
                        r"grid omega_max_rad_s = \S+ rad/s takes the pump "
                        r"to \S+ µm, outside the valid range")):
                    p.compute_jsa(config, pump775, grid)

    def test_grid_is_symmetric(self, matched_config, pump775):
        grid = p.default_grid(matched_config, pump775)
        om = grid.detunings()
        assert om[0] == -om[-1]


class TestComputeJsa:
    def test_values_exactly_symmetric(self, walkoff_jsa, matched_jsa, reference_parts):
        for amplitude, parts in zip((walkoff_jsa, matched_jsa), reference_parts):
            values = _values(parts)
            assert np.array_equal(values, values.T)
            assert np.array_equal(amplitude.kernel, amplitude.kernel.T)

    def test_kernel_is_weighted_envelope_bit_for_bit(
            self, walkoff_jsa, matched_jsa, reference_designs, partial_block_jsas,
            partial_block_designs, walkoff_config, matched_config, pump740, pump775):
        # the upper triangle, mirrored, against every cell at once, zero
        # signs included: n = 512 and 256 in whole row blocks, n = 200 with
        # a partial last block
        whole_blocks = [(config, pump, p.default_grid(config, pump, n=256))
                        for config, pump in ((walkoff_config, pump740),
                                             (matched_config, pump775))]
        amplitudes = [walkoff_jsa, matched_jsa, *partial_block_jsas,
                      *(p.compute_jsa(*design) for design in whole_blocks)]
        designs = [*reference_designs, *partial_block_designs, *whole_blocks]
        for amplitude, design in zip(amplitudes, designs, strict=True):
            envelope = expression_envelope_and_half_phase(*design)[0]
            weight = amplitude.grid.step_rad_s / (2 * math.pi)
            _assert_same_bits(amplitude.kernel, envelope * weight)

    def test_parts_are_the_parts_of_values_bit_for_bit(self, reference_designs,
                                                      reference_parts,
                                                      partial_block_designs):
        designs = [reference_designs[0], *partial_block_designs]
        parts_of = [reference_parts[0],
                    *(p.jsa_parts(*design) for design in partial_block_designs)]
        for design, parts in zip(designs, parts_of):
            envelope, x = expression_envelope_and_half_phase(*design)
            values = envelope * np.exp(1j * x)
            for part, expected in zip(parts, (np.abs(values), values.real,
                                              values.imag), strict=True):
                _assert_same_bits(part, expected)
                assert not part.flags.writeable

    def test_values_carry_the_mismatch_chirp(self, reference_designs, reference_parts,
                                             partial_block_designs):
        designs = [reference_designs[1], *partial_block_designs]
        parts_of = [reference_parts[1],
                    *(p.jsa_parts(*design) for design in partial_block_designs)]
        for design, parts in zip(designs, parts_of):
            envelope, x = expression_envelope_and_half_phase(*design)
            assert np.array_equal(_values(parts), envelope * np.exp(1j * x))

    def test_support_is_pump_band_times_phase_matched_band(
            self, walkoff_jsa, reference_designs, reference_parts, pump740):
        om = walkoff_jsa.grid.detunings()
        total = om[:, None] + om[None, :]
        alpha = p.pump_spectral_amplitude(pump740, total)
        alpha_peak = p.pump_spectral_amplitude(pump740, 0.0)
        x = expression_envelope_and_half_phase(*reference_designs[0])[1]
        inside = (alpha > 0.5 * alpha_peak) & (np.abs(sinc(x)) > 0.5)
        magnitude = np.abs(_values(reference_parts[0]))
        assert inside.any()
        assert np.all(magnitude[inside] >= 0.25 * alpha_peak)
        peak = np.unravel_index(np.argmax(magnitude), magnitude.shape)
        assert inside[peak]

    def test_matched_design_peaks_at_degeneracy(self, matched_jsa, matched_config,
                                                pump775, reference_parts):
        om = matched_jsa.grid.detunings()
        diagonal = np.abs(np.diagonal(_values(reference_parts[1])))
        peak = np.argmax(diagonal)
        assert abs(om[peak]) <= matched_jsa.grid.step_rad_s
        # both hyperbola vertices, at Ω₊ = ±Ω_d with
        # Ω_d = −√2·(k_p′ − k_s′)/(2k_p″ − k_s″), sit within a fraction of
        # the pump width
        (_, kp1, kp2), (_, ks1, ks2) = matched_config.central
        omega_d = -math.sqrt(2.0) * (kp1 - ks1) / (2.0 * kp2 - ks2)
        assert abs(2 * omega_d) < 0.2 * pump775.sigma_plus_rad_s

    def test_pump_record_must_match_design(self, matched_config, pump740):
        grid = p.FrequencyGrid(n=64, omega_max_rad_s=1e13)
        with pytest.raises(p.ValidationError, match="does not match"):
            p.compute_jsa(matched_config, pump740, grid)

    def test_grid_beyond_dispersion_validity(self, matched_config, pump775):
        # n = 512 resolves the pump ridge at this extent
        grid = p.FrequencyGrid(n=512, omega_max_rad_s=9e14)
        with pytest.raises(p.DomainError, match="valid range"):
            p.compute_jsa(matched_config, pump775, grid)

    def test_rejects_grid_that_does_not_resolve_the_pump_ridge(self, matched_config,
                                                               pump775):
        # one step per standard deviation √2·σ₊ of α̃ along Ω₊: at this
        # extent n = 64 is just too coarse and n = 65 fine enough
        sig = pump775.sigma_plus_rad_s
        extent = 1.01 * 63 * math.sqrt(2.0) * sig / 2.0
        coarse = p.FrequencyGrid(n=64, omega_max_rad_s=extent)
        message = re.escape(
            f"its step h = {coarse.step_rad_s:.4g} rad/s exceeds √2·σ₊, with "
            f"σ₊ = {sig:.4g} rad/s; this extent needs at least n = 65 points")
        for assemble in (p.compute_jsa, p.jsa_parts):
            with pytest.raises(p.DomainError, match=message):
                assemble(matched_config, pump775, coarse)
        fine = p.FrequencyGrid(n=65, omega_max_rad_s=extent)
        assert p.compute_jsa(matched_config, pump775, fine).grid is fine

    def test_arrays_are_read_only(self, matched_jsa, reference_parts):
        for array in (matched_jsa.kernel, *reference_parts[1]):
            with pytest.raises(ValueError):
                array[0, 0] = 0.0

    def test_holds_one_n2_array(self, matched_config, pump775):
        n = 256
        amplitude = p.compute_jsa(matched_config, pump775,
                                  p.default_grid(matched_config, pump775, n=n))
        held = {name: getattr(amplitude, name).nbytes
                for name in amplitude.__dataclass_fields__
                if isinstance(getattr(amplitude, name), np.ndarray)}
        assert held == {"kernel": 8 * n * n}

    def test_three_sellmeier_passes_per_row_block(self, matched_config, pump775,
                                                  monkeypatch):
        # building the design evaluates its centre (2 passes); each 64-row
        # block then evaluates k_p, k_s1 and k_s2 once, and κ, the default
        # grid, the focusing and the efficiency read the centre
        calls = {"_terms": 0}
        terms = p.dispersion.GayerTwoPole._terms

        def counted(self, t_c):
            calls["_terms"] += 1
            return terms(self, t_c)
        monkeypatch.setattr(p.dispersion.GayerTwoPole, "_terms", counted)
        config = matched_config.replace()
        assert calls["_terms"] == 2
        n = 256
        p.compute_jsa(config, pump775, p.default_grid(config, pump775, n=n))
        assert calls["_terms"] == 2 + 3 * n // 64
        calls["_terms"] = 0
        p.squeezing_spectrum(config, pump775, grid_n=n)
        assert calls["_terms"] == 3 * n // 64

    def test_assembly_peak_allocation(self, matched_config, pump775):
        # the kernel plus one block of rows, whatever the grid size
        n = 1024
        grid = p.default_grid(matched_config, pump775, n=n)
        p.compute_jsa(matched_config, pump775, grid)  # warm up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            p.compute_jsa(matched_config, pump775, grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} n² doubles"

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

    def test_modes_made_on_read_equal_the_eager_expression(
            self, matched_jsa, matched_decomp, partial_block_jsas):
        pairs = [(matched_jsa, matched_decomp)]
        pairs += [(a, p.schmidt_decompose(a)) for a in partial_block_jsas]
        for amplitude, decomp in pairs:
            modes = decomp.modes
            _assert_same_bits(modes, eager_modes(amplitude.kernel, amplitude.grid))
            assert not modes.flags.writeable
            assert not decomp.u.flags.writeable

    def test_left_right_modes_agree_in_magnitude(self, matched_jsa, matched_decomp):
        u, sv, vt = np.linalg.svd(matched_jsa.kernel)
        keep = matched_decomp.s > 1e-6
        assert np.max(np.abs(np.abs(u[:, keep]) - np.abs(vt[keep].T))) < 1e-8

    def test_separable_input_is_single_mode(self):
        grid = _dg_grid(1.0, 1e12)
        decomp = p.schmidt_decompose(double_gaussian_jsa(1e12, 1.0, grid))
        assert abs(decomp.schmidt_number - 1.0) < 1e-6
        assert abs(decomp.s[0] - 1.0) < 1e-6

    def test_all_zero_input_raises(self, walkoff_jsa):
        zero = replace(walkoff_jsa, kernel=np.zeros_like(walkoff_jsa.kernel))
        with pytest.raises(p.DomainError, match="zero"):
            p.schmidt_decompose(zero)

    @pytest.mark.parametrize("scale, fault", [(1e-170, "underflows"),
                                              (1e170, "overflows")])
    def test_norm_beyond_the_float_range_raises(self, partial_block_jsas,
                                                scale, fault):
        amplitude = partial_block_jsas[0]
        extreme = replace(amplitude, kernel=amplitude.kernel * scale)
        with pytest.raises(p.DomainError, match=f"Σs² {fault} the float range"):
            p.schmidt_decompose(extreme)

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
        amplitude = double_gaussian_jsa(1e12, r_ratio, _dg_grid(r_ratio, 1e12, n=n))
        _assert_normalized(p.schmidt_decompose(amplitude))

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(design=st.sampled_from(["walkoff", "matched"]),
           n=st.integers(64, 128), dt_c=st.floats(-0.5, 0.5))
    def test_small_grid_reference_designs(self, walkoff_config, matched_config,
                                          pump740, pump775, design, n, dt_c):
        config, pump = ((walkoff_config, pump740) if design == "walkoff"
                        else (matched_config, pump775))
        config = config.replace(temperature_c=config.temperature_c + dt_c)
        grid = p.default_grid(config, pump, n=n)
        _assert_normalized(p.schmidt_decompose(p.compute_jsa(config, pump, grid)))


class TestJsaEfficiency:
    def test_matched_design(self, matched_jsa, matched_decomp):
        eta = p.jsa_efficiency(matched_decomp)
        assert abs(eta - 0.75) < 0.05

    def test_single_mode_limit(self):
        grid = _dg_grid(1.0, 1e12)
        amplitude = double_gaussian_jsa(1e12, 1.0, grid)
        decomp = p.schmidt_decompose(amplitude)
        assert_within(p.jsa_efficiency(decomp), 0.25, 0.01,
                      "η at R = 1")

    def test_highly_multimode_limit(self):
        grid = _dg_grid(50.0, 1e12, n=1024, n_sigma=4.0)
        amplitude = double_gaussian_jsa(1e12, 50.0, grid)
        decomp = p.schmidt_decompose(amplitude)
        assert abs(p.jsa_efficiency(decomp) - 1.0) < 0.05


class TestDoubleGaussian:
    def test_is_a_jsa_grid_of_kernel_and_grid(self):
        grid = _dg_grid(2.0, 1e12, n=64)
        amplitude = double_gaussian_jsa(1e12, 2.0, grid)
        assert isinstance(amplitude, p.JsaGrid)
        assert [f.name for f in dataclasses.fields(p.JsaGrid)] == ["kernel", "grid"]
        assert amplitude.grid is grid

    def test_rejects_aspect_ratio_below_one(self):
        grid = _dg_grid(1.0, 1e12)
        with pytest.raises(ValueError, match="ratio"):
            double_gaussian_jsa(1e12, 0.5, grid)
        with pytest.raises(ValueError, match="ratio"):
            double_gaussian_analytics(0.5)

    def test_analytics_limiting_cases(self):
        assert double_gaussian_analytics(1.0) == (1.0, 0.25)
        k, eta = double_gaussian_analytics(2.0)
        assert k == pytest.approx(1.25, rel=1e-15)
        assert eta == pytest.approx(4.0 / 9.0, rel=1e-15)
        _, eta_large = double_gaussian_analytics(1e4)
        assert abs(eta_large - 1.0) <= 2e-4

    def test_mode_count_at_r3(self):
        grid = _dg_grid(3.0, 2e12)
        decomp = p.schmidt_decompose(double_gaussian_jsa(2e12, 3.0, grid))
        assert_within(decomp.schmidt_number, (1 + 9) / 6, 0.01, "K at R = 3")

    def test_raw_norm_is_quarter_r(self):
        for width in (5e11, 2e12, 8e12):
            grid = _dg_grid(2.5, width)
            decomp = p.schmidt_decompose(double_gaussian_jsa(width, 2.5, grid))
            assert_within(decomp.raw_norm, 2.5 / 4, 0.01, "raw norm")

    @pytest.mark.parametrize("r_ratio", [1.0, 1.5, 2.0, 3.0, 5.0, 10.0])
    def test_oracle_equivalence(self, r_ratio):
        grid = _dg_grid(r_ratio, 1e12)
        amplitude = double_gaussian_jsa(1e12, r_ratio, grid)
        decomp = p.schmidt_decompose(amplitude)
        k_exact, eta_exact = double_gaussian_analytics(r_ratio)
        assert_within(decomp.schmidt_number, k_exact, 0.01, f"K at R={r_ratio}")
        assert_within(p.jsa_efficiency(decomp), eta_exact, 0.01,
                      f"η at R={r_ratio}")
        assert_within(decomp.raw_norm, r_ratio / 4, 0.01, f"norm at R={r_ratio}")
