"""Squeezing budget: pulse/beam quantities, efficiency chain, length scans."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c, epsilon_0, hbar

import pdcmodes as p

from conftest import assert_within

_DB_PER_R = 20.0 * math.log10(math.e)


class TestPulseDuration:
    def test_walk_off_design_value(self, pump740):
        assert_within(p.pulse_duration(pump740), 201e-15, 0.01, "τ_p at 740 nm")

    def test_matched_design_value(self, pump775):
        lam = 0.775e-6
        expected = 2 * math.log(2) * lam ** 2 / (math.pi * c * 4e-9)
        assert p.pulse_duration(pump775) == pytest.approx(expected, rel=1e-14)
        assert_within(p.pulse_duration(pump775), 221e-15, 0.01, "τ_p at 775 nm")

    def test_inverse_proportional_to_bandwidth(self, pump775):
        halved = replace(pump775, bandwidth_fwhm_nm=2.0)
        assert p.pulse_duration(halved) == 2 * p.pulse_duration(pump775)


class TestPeakPower:
    def test_reference_value(self, pump775):
        assert_within(p.peak_power(pump775), 543.0, 0.01, "P_peak")

    def test_pulse_energy(self, pump775):
        energy = pump775.mean_power_w / pump775.rep_rate_hz
        assert energy == pytest.approx(0.12e-9, rel=1e-12)

    def test_doubling_rep_rate_halves_peak_power(self, pump775):
        doubled = replace(pump775, rep_rate_hz=2e8)
        assert p.peak_power(doubled) == p.peak_power(pump775) / 2


class TestBeamWaist:
    def test_formula_with_library_index(self, matched_config):
        n_p = p.refractive_index(matched_config.crystal, "e", 0.775, 11.0)
        expected = math.sqrt(c * 0.080 / (n_p * matched_config.omega_p_rad_s))
        assert p.beam_waist(matched_config) == pytest.approx(expected, rel=1e-14)
        assert 60e-6 < p.beam_waist(matched_config) < 75e-6   # ≈ 67 µm

    def test_square_root_scaling(self, matched_config):
        quadrupled = matched_config.replace(length_m=4 * matched_config.length_m)
        assert p.beam_waist(quadrupled) == 2 * p.beam_waist(matched_config)

    def test_positive_and_finite(self, walkoff_config, matched_config):
        for config in (walkoff_config, matched_config):
            w = p.beam_waist(config)
            assert math.isfinite(w) and w > 0


class TestPdcEfficiency:
    def test_hand_evaluated_reference(self, matched_config):
        # independent evaluation of the conversion-efficiency product with
        # CODATA constants, at the reported shape efficiency
        omega_p = 2e6 * math.pi * c / 0.775
        omega_s = omega_p / 2
        n_s = p.refractive_index(matched_config.crystal, "o", 1.55, 11.0)
        expected = ((4 * 4.64e-12 * omega_s / (math.pi * c ** 2 * n_s)) ** 2
                    * omega_p * 0.080 / (2 * math.pi * epsilon_0) * 0.75)
        got = p.pdc_efficiency(matched_config, 0.75)
        assert got == pytest.approx(expected, rel=1e-12)
        assert_within(got, 3.4e-3, 0.10, "η_PDC")

    def test_linear_in_length(self, matched_config):
        doubled = matched_config.replace(length_m=2 * matched_config.length_m)
        assert p.pdc_efficiency(doubled, 0.6) == 2 * p.pdc_efficiency(matched_config, 0.6)

    def test_proportional_to_shape_efficiency(self, matched_config):
        assert p.pdc_efficiency(matched_config, 0.0) == 0.0


class TestSqueezingSpectrum:
    def test_design_point_squeezing(self, matched_squeezing):
        assert abs(matched_squeezing.s_db[0] - 12.0) < 0.5

    def test_photon_budget(self, matched_squeezing):
        assert matched_squeezing.mean_photons[0] < 4.0
        assert_within(matched_squeezing.pump_photons_per_pulse, 5e8, 0.10,
                      "pump photons per pulse")

    def test_pump_photons_formula(self, matched_squeezing, matched_config, pump775):
        expected = (pump775.mean_power_w / pump775.rep_rate_hz) \
            / (hbar * matched_config.omega_p_rad_s)
        assert matched_squeezing.pump_photons_per_pulse == pytest.approx(
            expected, rel=1e-12)

    def test_quadrupling_power_doubles_squeezing(self, matched_config, pump775,
                                                 matched_squeezing):
        strong = replace(pump775, mean_power_w=4 * pump775.mean_power_w)
        boosted = p.squeezing_spectrum(matched_config, strong)
        assert np.array_equal(boosted.r, 2 * matched_squeezing.r)
        assert np.array_equal(boosted.s_db, 2 * matched_squeezing.s_db)

    def test_chain_identity(self, matched_squeezing):
        r0 = math.sqrt(matched_squeezing.eta_pdc_per_w * matched_squeezing.p_peak_w)
        assert matched_squeezing.s_db[0] == pytest.approx(_DB_PER_R * r0, rel=1e-12)

    def test_mode_ratios_follow_schmidt_spectrum(self, matched_squeezing,
                                                 matched_decomp):
        r = matched_squeezing.r
        s = matched_decomp.s
        keep = s > 1e-6
        ratios = r[keep] / r[0]
        assert np.allclose(ratios, s[keep] / s[0], rtol=1e-12, atol=0)

    def test_gain_parameter_vector_identity(self, matched_squeezing):
        # r_n = 2·sqrt(p_b)·s_n summed over modes: p_b·Σs² = Σ(r_n/2)²
        lhs = matched_squeezing.gain_pb  # Σ s² = 1 by normalization
        rhs = np.sum((matched_squeezing.r / 2) ** 2)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_validity_flag_iff_above_12db(self, matched_config, pump775,
                                          matched_squeezing):
        assert matched_squeezing.beyond_validity == bool(matched_squeezing.s_db[0] > 12.0)
        assert not matched_squeezing.beyond_validity
        strong = replace(pump775, mean_power_w=48e-3)
        boosted = p.squeezing_spectrum(matched_config, strong)
        assert boosted.s_db[0] > 12.0
        assert boosted.beyond_validity

    def test_pump_record_must_match_design(self, matched_config, pump740):
        with pytest.raises(p.ValidationError, match="does not match"):
            p.squeezing_spectrum(matched_config, pump740)

    def test_phase_beyond_the_float_range_is_domain_error(self, walkoff_config,
                                                         pump740):
        # found by fuzzing the constructors: Δ̃·L/2 overflowed in the JSA
        # assembly, and sinc(inf) warned
        endless = walkoff_config.replace(length_m=1.1e305)
        with pytest.raises(p.DomainError, match="crystal length 1.1e\\+305 m "
                                                "is too long: its phase"):
            p.squeezing_spectrum(endless, pump740, grid_n=64)

    def test_duty_cycle_below_the_float_range_is_domain_error(self, pump740):
        # found by fuzzing the constructors: f_R·τ_p underflowed to 0, and
        # the peak power was a ZeroDivisionError
        with pytest.raises(p.DomainError, match="duty cycle f_R·τ_p that underflows"):
            p.peak_power(replace(pump740, rep_rate_hz=5e-324))

    def test_overflowing_photon_number_is_domain_error(self, matched_config,
                                                       pump775):
        # 1 kW mean power: r₀ ≈ 390, and sinh²r₀ is beyond the float range
        kilowatt = replace(pump775, mean_power_w=1e3)
        grid = p.default_grid(matched_config, kilowatt, n=64)
        with pytest.raises(p.DomainError, match="r₀ = .*S₀ = "):
            p.squeezing_spectrum(matched_config, kilowatt, grid=grid)

    def test_coupling_beyond_the_float_range_is_domain_error(self, matched_config,
                                                             pump775):
        # found by fuzzing the CLI: at d_eff = 1e200 pm/V the square of the
        # coupling was an OverflowError
        text = p.bundled_crystal_path().read_text(encoding="utf-8")
        crystal = p.load_crystal(text.replace('"d_eff_pm_per_V": 4.64',
                                              '"d_eff_pm_per_V": 1e200'))
        config = matched_config.replace(crystal=crystal)
        assert p.pdc_efficiency(config, 0.75) == math.inf
        grid = p.default_grid(config, pump775, n=64)
        with pytest.raises(p.DomainError, match="r₀ = inf .*beyond the float range"):
            p.squeezing_spectrum(config, pump775, grid=grid)


class TestLengthScan:
    def test_matched_design_grows_as_sqrt_length(self, cgvm_scan):
        s_db = {round(length * 1e3): result.s_db[0]
                for length, result in cgvm_scan}
        assert abs(s_db[40] / s_db[10] - 2.0) < 0.2
        assert abs(s_db[80] / s_db[20] - 2.0) < 0.2

    def test_walk_off_design_saturates(self, no_cgvm_scan):
        s_db = [result.s_db[0] for _, result in no_cgvm_scan]
        lengths = [round(length * 1e3) for length, _ in no_cgvm_scan]
        assert lengths == [2, 4, 8, 16]
        assert s_db[3] <= s_db[2]   # no gain from doubling past 8 mm

    def test_empty_scan(self, matched_config, pump775):
        assert p.length_scan(matched_config, pump775, []) == []

    def test_results_in_input_order(self, cgvm_scan):
        assert [round(length * 1e3) for length, _ in cgvm_scan] == [10, 20, 40, 80]

    def test_pinned_grid_is_used_for_every_point(self, matched_config, pump775):
        grid = p.FrequencyGrid(n=128, omega_max_rad_s=8e13)
        results = p.length_scan(matched_config, pump775, [20e-3, 80e-3],
                                grid=grid)
        for _, result in results:
            assert result.r.size == 128

    def test_pinned_shape_efficiency_gives_exact_sqrt_scaling(self, matched_config):
        # with η_JSA held fixed the r ∝ √L law is exact arithmetic
        eta = 0.75
        p_peak = 543.0
        r_base = math.sqrt(p.pdc_efficiency(matched_config, eta) * p_peak)
        quadrupled = matched_config.replace(length_m=4 * matched_config.length_m)
        r_long = math.sqrt(p.pdc_efficiency(quadrupled, eta) * p_peak)
        assert r_long == 2 * r_base


# The constructors' arguments: each takes a reference value unless it is
# the one that an example may break. A broken number is an edge of the
# float range, a bool of Python's or numpy's, or numeric text; the pump
# record's wavelength is the design's unless it is broken.
_NOT_NUMBERS = (True, False, np.True_, np.False_, "0.08", "11", "4")
_EDGES = (math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-300, 1e300,
          sys.float_info.max, *_NOT_NUMBERS)
_ARGUMENTS = {   # name: (reference values, broken values or None for a float)
    "pump_axis": ("e", "oz"),
    "signal_axis": ("o", "ez"),
    "pdc_type": ((None, "type-I"), ("type-0", "type-II")),
    "pump_wavelength_um": ((0.74, 0.775), None),
    "temperature_c": ((11.0, 24.5), None),
    "length_m": ((5e-3, 80e-3), None),
    "poling_period_um": ((None, 19.2), None),
    "wavelength_um": ((), None),
    "bandwidth_fwhm_nm": ((4.0, 0.4), None),
    "mean_power_w": ((12e-3,), None),
    "rep_rate_hz": ((1e8,), None),
    "n": ((64, 65), (-1, 0, 63, 10 ** 6, 64.0, 64.5)),
    "omega_max_rad_s": ((2e13,), None),
}


@st.composite
def _inputs(draw):
    broken = draw(st.sampled_from((None, *_ARGUMENTS)))
    args = {}
    for name, (reference, bad) in _ARGUMENTS.items():
        if name != broken:
            args[name] = draw(st.sampled_from(reference)) if reference else None
        else:
            args[name] = draw(st.sampled_from(bad or _EDGES))
    if args["wavelength_um"] is None:
        args["wavelength_um"] = args["pump_wavelength_um"]
    grid = {key: args.pop(key) for key in ("n", "omega_max_rad_s")}
    pump = {key: args.pop(key) for key in ("wavelength_um", "bandwidth_fwhm_nm",
                                           "mean_power_w", "rep_rate_hz")}
    return args, pump, draw(st.sampled_from([None, grid]))


class TestConstructorFuzz:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(inputs=_inputs())
    def test_a_package_error_or_a_finite_spectrum(self, crystal, inputs):
        # a PdcModesError where the arguments enter or from the pipeline at
        # n = 64, or a finite result: any other exception fails, and so
        # does any RuntimeWarning; a bool or text is not a number, so an
        # argument given one must be refused
        design, pump, grid = inputs
        values = [*design.values(), *pump.values(), *(grid or {}).values()]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                config = p.PdcConfig(crystal=crystal, **design)
                pulse = p.PumpPulse(**pump)
                grid = grid if grid is None else p.FrequencyGrid(**grid)
                result = p.squeezing_spectrum(config, pulse, grid=grid, grid_n=64)
            except p.PdcModesError:
                return
        assert not any(value is bad for value in values
                       for bad in _NOT_NUMBERS), inputs
        for name, value in vars(result).items():
            assert np.isfinite(value).all(), name
