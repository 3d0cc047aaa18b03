"""Phase matching: poling periods, mismatch, Taylor coefficients, cGVM solving."""

import importlib
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c
from scipy.optimize import brentq

import pdcmodes as p
from pdcmodes._record import FrozenInstanceError
from pdcmodes.dispersion import GayerTwoPole, _k_terms, k_double_prime, k_prime
from pdcmodes.phasematch import (_CGVM_XTOL_UM, _TEMP_XTOL_C, _brentq,
                                 _group_index_gap, _pdc_type)

from conftest import ROOM_T_C, assert_within, expression_phase_mismatch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def cgvm_config(crystal):
    """A design at the exact room-temperature matching point."""
    lam = p.solve_cgvm(crystal, "e", "o", ROOM_T_C, (1.2, 2.0))
    return p.PdcConfig(crystal=crystal, pdc_type="type-I",
                       pump_axis="e", signal_axis="o",
                       pump_wavelength_um=lam / 2.0, temperature_c=ROOM_T_C,
                       length_m=80e-3)


class TestPdcConfig:
    @pytest.mark.parametrize("design", ["walkoff_config", "matched_config"])
    def test_type_is_derived_from_the_axes(self, request, design):
        # each reference design is built with pdc_type="type-I", the type
        # its axes make; left out, the type reads None and the design is the
        # same but for that field
        config = request.getfixturevalue(design)
        assert _pdc_type(config.pump_axis, config.signal_axis) == "type-I"
        fields = {name: getattr(config, name) for name in config.__match_args__
                  if name != "pdc_type"}
        typeless = p.PdcConfig(**fields)
        assert typeless.pdc_type is None
        assert typeless != config
        assert typeless.replace(pdc_type="type-I") == config
        assert typeless.central == config.central
        assert p.poling_period(typeless) == p.poling_period(config)
        assert repr(typeless) == repr(config).replace("pdc_type='type-I')",
                                                      "pdc_type=None)")

    def test_replace_changes_the_axes_of_a_typeless_design(self, crystal,
                                                           matched_config):
        type0 = matched_config.replace(pdc_type=None).replace(signal_axis="e")
        assert type0 == p.PdcConfig(crystal=crystal, pump_axis="e", signal_axis="e",
                                    pump_wavelength_um=0.775, temperature_c=11.0,
                                    length_m=80e-3)
        assert type0.central[1] == _k_terms(crystal, "e", 1.55, 11.0)
        assert type0.replace(pdc_type="type-0").pdc_type == "type-0"
        # a given type still binds the axes
        with pytest.raises(p.DomainError,
                           match="type-I requires pump and signal on different axes"):
            matched_config.replace(signal_axis="e")

    def test_benchmark_worker_call_builds_the_reference_designs(
            self, monkeypatch, crystal, matched_config, walkoff_config):
        # the lib-modes worker still passes pdc_type="type-I" by keyword
        monkeypatch.syspath_prepend(str(PERFBENCH))
        loaded = set(sys.modules)
        try:
            child = importlib.import_module("child")
            configs = [child._inputs(p, crystal, {"design": design,
                                                  "temperature_c": t_c,
                                                  "bandwidth_fwhm_nm": 4.0})[0]
                       for design, t_c in (("matched", 11.0),
                                           ("walkoff", ROOM_T_C))]
        finally:
            for name in set(sys.modules) - loaded:
                if str(PERFBENCH) in str(getattr(sys.modules[name], "__file__", "")):
                    del sys.modules[name]
        assert configs == [matched_config, walkoff_config]
        assert list(map(repr, configs)) == [repr(matched_config),
                                            repr(walkoff_config)]

    def test_type0_needs_equal_axes(self, crystal):
        with pytest.raises(p.DomainError, match="same axis"):
            p.PdcConfig(crystal=crystal, pdc_type="type-0", pump_axis="e",
                        signal_axis="o", pump_wavelength_um=1.35,
                        temperature_c=ROOM_T_C, length_m=1e-3)

    def test_type1_needs_distinct_axes(self, crystal):
        with pytest.raises(p.DomainError, match="different axes"):
            p.PdcConfig(crystal=crystal, pdc_type="type-I", pump_axis="e",
                        signal_axis="e", pump_wavelength_um=0.775,
                        temperature_c=ROOM_T_C, length_m=1e-3)

    @pytest.mark.parametrize("t_c", [-400.0, float("nan")])
    def test_temperature_not_above_absolute_zero_rejected(self, crystal, t_c):
        # refused when the design is built, not at its first evaluation
        with pytest.raises(p.DomainError, match="not above absolute zero"):
            p.PdcConfig(crystal=crystal, pdc_type="type-I", pump_axis="e",
                        signal_axis="o", pump_wavelength_um=0.775,
                        temperature_c=t_c, length_m=1e-3)

    @pytest.mark.parametrize("design", ["walkoff_config", "matched_config"])
    def test_central_is_the_dispersion_at_the_centre(self, request, design):
        # one Sellmeier pass per photon, with the bits of each public
        # evaluation at the central wavelength
        config = request.getfixturevalue(design)
        for (n, k1, k2), axis, lam in zip(
                config.central, (config.pump_axis, config.signal_axis),
                (config.pump_wavelength_um, config.signal_wavelength_um)):
            t_c = config.temperature_c
            assert n == p.refractive_index(config.crystal, axis, lam, t_c)
            assert k1 == k_prime(config.crystal, axis, lam, t_c)
            assert k2 == k_double_prime(config.crystal, axis, lam, t_c)
            assert all(type(v) is float for v in (n, k1, k2))

    def test_central_follows_a_replaced_field(self, matched_config):
        warmer = matched_config.replace(temperature_c=40.0)
        assert warmer.central[0][0] == p.refractive_index(
            warmer.crystal, "e", warmer.pump_wavelength_um, 40.0)
        assert warmer == matched_config.replace(temperature_c=40.0)
        with pytest.raises(FrozenInstanceError):
            warmer.central = matched_config.central

    def test_designs_from_two_crystal_loads_are_equal(self, matched_config):
        # the crystal's Sellmeier forms compare by their coefficients
        again = matched_config.replace(crystal=p.load_bundled_crystal())
        assert again.crystal is not matched_config.crystal
        assert again == matched_config

    def test_centre_without_a_real_index_is_refused_when_built(self):
        # b1 = −1e-5 on axis o loads, but n² < 0 at the 1.55 µm signal at
        # 1000 °C
        text = p.bundled_crystal_path().read_text(encoding="utf-8")
        xtl = p.load_crystal(text.replace('"b1": 7.941e-7', '"b1": -1.0e-5', 1))
        with pytest.raises(p.DomainError, match=(
                r"crystal 'MgO:LN-5pct', axis 'o': n² = -\S+ is not positive "
                r"at 1.55 µm, 1000 °C")):
            p.PdcConfig(crystal=xtl, pdc_type="type-I", pump_axis="e",
                        signal_axis="o", pump_wavelength_um=0.775,
                        temperature_c=1000.0, length_m=1e-3)

    def test_signal_is_twice_pump(self, matched_config):
        assert matched_config.signal_wavelength_um == 2 * matched_config.pump_wavelength_um

    def test_rejects_nonpositive_length(self, crystal):
        with pytest.raises(p.DomainError, match="length"):
            p.PdcConfig(crystal=crystal, pdc_type="type-I", pump_axis="e",
                        signal_axis="o", pump_wavelength_um=0.775,
                        temperature_c=ROOM_T_C, length_m=0.0)

    def test_rejects_a_period_whose_grating_wavevector_overflows(self, crystal):
        # found by fuzzing the constructors: 2π/Λ was inf, and sinc(inf) warned
        with pytest.raises(p.DomainError, match=r"poling period 1e-310 µm is too "
                                                r"short: its grating wavevector"):
            p.PdcConfig(crystal=crystal, pump_axis="e", signal_axis="o",
                        pump_wavelength_um=0.775, temperature_c=ROOM_T_C,
                        length_m=1e-3, poling_period_um=1e-310)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["length_m", "poling_period_um"])
    def test_rejects_non_finite_fields_before_any_sellmeier_pass(
            self, crystal, monkeypatch, field, value):
        passes = []
        monkeypatch.setattr(p.dispersion.GayerTwoPole, "_terms",
                            lambda self, t_c: passes.append(t_c))
        fields = dict(crystal=crystal, pdc_type="type-I", pump_axis="e",
                      signal_axis="o", pump_wavelength_um=0.775,
                      temperature_c=ROOM_T_C, length_m=1e-3)
        fields[field] = value
        with pytest.raises(p.DomainError,
                           match=f"{field} must be a finite number, got {value}"):
            p.PdcConfig(**fields)
        assert passes == []

    @pytest.mark.parametrize("value", ["0.08", "11", np.True_, np.False_],
                             ids=["text", "integer_text", "np_true", "np_false"])
    @pytest.mark.parametrize("field", ["pump_wavelength_um", "temperature_c",
                                       "length_m", "poling_period_um"])
    def test_rejects_text_and_numpy_bools_before_any_sellmeier_pass(
            self, crystal, monkeypatch, field, value):
        passes = []
        monkeypatch.setattr(p.dispersion.GayerTwoPole, "_terms",
                            lambda self, t_c: passes.append(t_c))
        fields = dict(crystal=crystal, pump_axis="e", signal_axis="o",
                      pump_wavelength_um=0.775, temperature_c=ROOM_T_C,
                      length_m=1e-3)
        fields[field] = value
        with pytest.raises(p.DomainError, match=re.escape(
                f"{field} must be a finite number, got {value!r}")):
            p.PdcConfig(**fields)
        assert passes == []

    def test_accepts_numpy_ints_and_floats(self, crystal):
        fields = dict(crystal=crystal, pump_axis="e", signal_axis="o",
                      pump_wavelength_um=0.775, temperature_c=20.0,
                      length_m=1e-3, poling_period_um=19.0)
        config = p.PdcConfig(**fields)
        numpy_config = p.PdcConfig(**{
            **fields, "pump_wavelength_um": np.float64(0.775),
            "temperature_c": np.int64(20), "length_m": np.float32(0.5) * 2e-3,
            "poling_period_um": np.int32(19)})
        assert numpy_config.central == config.central
        assert p.phase_mismatch(numpy_config, 0.0, 0.0) == \
            p.phase_mismatch(config, 0.0, 0.0)


class TestPolingPeriod:
    def test_walk_off_design(self, walkoff_config):
        assert_within(p.poling_period(walkoff_config), 20.5, 0.02, "Λ at 740 nm")

    def test_matched_design(self, matched_config):
        assert_within(p.poling_period(matched_config), 19.2, 0.02, "Λ at 775 nm")

    def test_computed_period_zeroes_central_mismatch(self, walkoff_config, matched_config):
        for config in (walkoff_config, matched_config):
            assert abs(p.phase_mismatch(config, 0.0, 0.0)) < 1e-6

    def test_explicit_period_round_trip(self, matched_config):
        period = p.poling_period(matched_config)
        pinned = matched_config.replace(poling_period_um=period)
        # the µm round trip costs a few ulp, well inside the 1e-6 rad/m budget
        assert abs(p.phase_mismatch(pinned, 0.0, 0.0)) < 1e-6


class TestPhaseMismatch:
    def test_symmetric_in_arguments(self, walkoff_config, rng):
        for _ in range(100):
            om1, om2 = rng.uniform(-2e14, 2e14, size=2)
            assert (p.phase_mismatch(walkoff_config, om1, om2)
                    == p.phase_mismatch(walkoff_config, om2, om1))

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(design=st.sampled_from(["walkoff", "matched"]),
           om1=st.floats(-2e14, 2e14), om2=st.floats(-2e14, 2e14))
    def test_symmetry_is_exact_on_both_designs(self, walkoff_config,
                                               matched_config, design, om1, om2):
        config = walkoff_config if design == "walkoff" else matched_config
        assert (p.phase_mismatch(config, om1, om2)
                == p.phase_mismatch(config, om2, om1))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(design=st.sampled_from(["walkoff", "matched"]),
           t_c=st.floats(0.0, 200.0), n=st.integers(1, 48))
    def test_in_place_grid_equals_expression_bit_for_bit(
            self, walkoff_config, matched_config, pump740, pump775, design, t_c, n):
        config, pump = ((walkoff_config, pump740) if design == "walkoff"
                        else (matched_config, pump775))
        config = config.replace(temperature_c=t_c)
        om = np.linspace(-1, 1, n) * p.default_grid(config, pump).omega_max_rad_s
        assert np.array_equal(p.phase_mismatch(config, om[:, None], om[None, :]),
                              expression_phase_mismatch(config, om[:, None], om[None, :]))
        assert np.array_equal(p.phase_mismatch(config, om, om[::-1]),
                              expression_phase_mismatch(config, om, om[::-1]))
        assert p.phase_mismatch(config, float(om[0]), float(om[-1])) == \
            expression_phase_mismatch(config, float(om[0]), float(om[-1]))

    def test_broadcasting_matches_scalars(self, matched_config):
        om = np.linspace(-5e13, 5e13, 7)
        grid = p.phase_mismatch(matched_config, om[:, None], om[None, :])
        for i in (0, 3, 6):
            for j in (1, 4):
                assert grid[i, j] == p.phase_mismatch(
                    matched_config, float(om[i]), float(om[j]))

    def test_out_of_range_detuning(self, matched_config):
        with pytest.raises(p.DomainError):
            p.phase_mismatch(matched_config, 9e14, 9e14)

    def test_full_vs_taylor_within_two_percent(self, matched_config, pump775):
        # quadratic form evaluated independently from dispersion-module
        # coefficients; deviation normalized to the largest mismatch on the
        # default grid (pointwise ratios blow up near the Δ̃ = 0 manifold)
        cfg = matched_config
        dk1 = (k_prime(cfg.crystal, "e", cfg.pump_wavelength_um, cfg.temperature_c)
               - k_prime(cfg.crystal, "o", cfg.signal_wavelength_um, cfg.temperature_c))
        kp2 = k_double_prime(cfg.crystal, "e", cfg.pump_wavelength_um, cfg.temperature_c)
        ks2 = k_double_prime(cfg.crystal, "o", cfg.signal_wavelength_um, cfg.temperature_c)
        grid = p.default_grid(cfg, pump775, n=128)
        om = grid.detunings()
        om_plus = (om[:, None] + om[None, :]) / math.sqrt(2)
        om_minus = (om[:, None] - om[None, :]) / math.sqrt(2)
        taylor = (math.sqrt(2) * dk1 * om_plus
                  + (kp2 - ks2 / 2) * om_plus ** 2
                  - (ks2 / 2) * om_minus ** 2)
        full = p.phase_mismatch(cfg, om[:, None], om[None, :])
        scale = np.abs(taylor).max()
        assert np.abs(full - taylor).max() < 0.02 * scale


class TestTaylorDispersion:
    """The expansion coefficients k′ and k″ held in ``PdcConfig.central``."""

    def test_cgvm_design_has_no_group_velocity_gap(self, cgvm_config):
        (_, kp1, _), (_, ks1, _) = cgvm_config.central
        assert abs(kp1 - ks1) < 1e-14

    def test_walk_off_design_gvds(self, walkoff_config):
        (_, _, kp2), (_, _, ks2) = walkoff_config.central
        assert_within(kp2, 0.41e-24, 0.05, "k_p''")
        assert_within(ks2, 0.13e-24, 0.05, "k_s''")

    def test_walk_off_design_group_velocity_gap(self, walkoff_config):
        (_, kp1, _), (_, ks1, _) = walkoff_config.central
        # 2·τ_w/L with τ_w = 115 fs over L = 5 mm
        assert_within(kp1 - ks1, 46e-12, 0.05, "dk1")


class TestWalkoff:
    def test_walk_off_design(self, walkoff_config):
        assert_within(p.walkoff_time(walkoff_config), 115e-15, 0.05, "τ_w")

    def test_scales_linearly_in_length(self, walkoff_config):
        doubled = walkoff_config.replace(length_m=2 * walkoff_config.length_m)
        assert p.walkoff_time(doubled) == 2 * p.walkoff_time(walkoff_config)

    def test_vanishes_at_cgvm(self, cgvm_config):
        long_config = cgvm_config.replace(length_m=0.1)
        assert abs(p.walkoff_time(long_config)) < 0.1e-15


class TestSolveCgvm:
    def test_type1_room_temperature(self, crystal):
        lam = p.solve_cgvm(crystal, "e", "o", ROOM_T_C, (1.2, 2.0))
        assert abs(lam - 1.566) < 0.002

    def test_type0_room_temperature(self, crystal):
        lam = p.solve_cgvm(crystal, "e", "e", ROOM_T_C, (2.0, 3.5))
        assert abs(lam - 2.7) < 0.03

    def test_no_sign_change_raises(self, crystal):
        with pytest.raises(p.SolverError, match="no cGVM point"):
            p.solve_cgvm(crystal, "e", "o", ROOM_T_C, (1.8, 2.0))

    def test_bracket_outside_validity_raises(self, crystal):
        # pump at λ/2 = 0.25-0.3 µm is outside the crystal's validity window
        with pytest.raises(p.PdcModesError):
            p.solve_cgvm(crystal, "e", "o", ROOM_T_C, (0.5, 0.6))

    def test_stable_under_bracket_refinement(self, crystal):
        wide = p.solve_cgvm(crystal, "e", "o", ROOM_T_C, (1.2, 2.0))
        narrow = p.solve_cgvm(crystal, "e", "o", ROOM_T_C,
                              (wide - 0.01, wide + 0.01))
        assert abs(wide - narrow) < 1e-5  # 0.01 nm

    def test_group_velocities_match_at_solution(self, crystal):
        lam = p.solve_cgvm(crystal, "e", "o", ROOM_T_C, (1.2, 2.0))
        gap = (p.group_index(crystal, "e", lam / 2, ROOM_T_C)
               - p.group_index(crystal, "o", lam, ROOM_T_C))
        assert abs(gap) < 1e-9


class TestScalarPins:
    """The scalars that the golden cgvm, poling and squeeze artifacts carry,
    pinned by repr. The scalar chain runs on Python floats and ``math``, so
    they do not depend on the numpy build."""

    @pytest.mark.parametrize("design, expected", [
        ("matched", {"poling_period": "19.18729027918773",
                     "solve_cgvm": "1.5503101714570675",
                     "k_prime": ("7.53621527616029e-09", "7.536058804168351e-09"),
                     "k_double_prime": ("3.774020024054092e-25",
                                        "1.1118355839037867e-25")}),
        ("walkoff", {"poling_period": "20.45235244955018",
                     "solve_cgvm": "1.5660534592560391",
                     "k_prime": ("7.594109591453539e-09", "7.548027657266774e-09"),
                     "k_double_prime": ("4.0629889006138556e-25",
                                        "1.3266410935517546e-25")}),
    ])
    def test_reference_design_scalars(self, request, design, expected):
        config = request.getfixturevalue(f"{design}_config")
        crystal, t_c = config.crystal, config.temperature_c
        ends = (("e", config.pump_wavelength_um),
                ("o", config.signal_wavelength_um))
        assert repr(p.poling_period(config)) == expected["poling_period"]
        assert repr(p.solve_cgvm(crystal, "e", "o", t_c, (1.2, 2.0))) == \
            expected["solve_cgvm"]
        assert tuple(repr(k_prime(crystal, axis, lam, t_c))
                     for axis, lam in ends) == expected["k_prime"]
        assert tuple(repr(k_double_prime(crystal, axis, lam, t_c))
                     for axis, lam in ends) == expected["k_double_prime"]

    def test_cgvm_target_temperature(self, crystal):
        t_c = p.solve_cgvm_temperature(crystal, "e", "o", 1.55, (-20.0, 60.0))
        assert repr(t_c) == "10.724510058387285"


class TestSolveCgvmTemperature:
    def test_telecom_target(self, crystal):
        t_c = p.solve_cgvm_temperature(crystal, "e", "o", 1.55, (-20.0, 60.0))
        assert abs(t_c - 11.0) < 2.0

    def test_fixed_point_round_trip(self, crystal):
        lam = p.solve_cgvm(crystal, "e", "o", ROOM_T_C, (1.2, 2.0))
        t_c = p.solve_cgvm_temperature(crystal, "e", "o", lam, (-20.0, 60.0))
        assert abs(t_c - ROOM_T_C) < 0.1

    def test_unreachable_target_raises(self, crystal):
        with pytest.raises(p.SolverError):
            p.solve_cgvm_temperature(crystal, "e", "o", 3.0, (20.0, 30.0))

    @pytest.mark.parametrize("target", [-1.55, 0.0, -0.0, math.nan])
    def test_target_not_above_zero_is_named(self, crystal, target):
        # refused as given, not as the ±25 % wavelength bracket made from it
        with pytest.raises(p.SolverError,
                           match=f"target wavelength must be > 0 µm, got {target:g}$"):
            p.solve_cgvm_temperature(crystal, "e", "o", target, (-20.0, 60.0))

    def test_one_sellmeier_pass_per_group_index(self, crystal, monkeypatch):
        # each group index evaluates the temperature terms, and n², once
        calls = {"_terms": 0, "group_index": 0}

        def counted(owner, name):
            method = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return method(*args)
            monkeypatch.setattr(owner, name, wrapper)

        counted(GayerTwoPole, "_terms")
        counted(p.dispersion, "group_index")
        p.solve_cgvm_temperature(crystal, "e", "o", 1.55, (-20.0, 60.0))
        assert calls["group_index"] > 0
        assert calls["_terms"] == calls["group_index"]


class TestBrentSolver:
    """The in-package Brent solver against scipy's ``brentq`` as an oracle:
    the same iteration must give the same root, bit for bit."""

    @pytest.mark.parametrize("t_c", [-20.0, 0.0, 11.0, ROOM_T_C, 40.0, 60.0])
    def test_cgvm_gap_root_equals_reference(self, crystal, t_c):
        def gap(lam):
            return _group_index_gap(crystal, "e", "o", lam, t_c)

        ours = _brentq(gap, 1.2, 2.0, xtol=_CGVM_XTOL_UM)
        assert ours == brentq(gap, 1.2, 2.0, xtol=_CGVM_XTOL_UM)
        assert ours == p.solve_cgvm(crystal, "e", "o", t_c, (1.2, 2.0))

    def test_temperature_root_equals_reference(self, crystal):
        # the solve behind `cgvm --target-um 1.55` with its default brackets
        target = 1.55

        def gap(t_c):
            return p.solve_cgvm(crystal, "e", "o", t_c,
                                (0.75 * target, 1.25 * target)) - target

        ours = _brentq(gap, -20.0, 60.0, xtol=_TEMP_XTOL_C)
        assert ours == brentq(gap, -20.0, 60.0, xtol=_TEMP_XTOL_C)
        assert ours == p.solve_cgvm_temperature(crystal, "e", "o", target,
                                                (-20.0, 60.0))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(root=st.floats(-10.0, 10.0),
           slope=st.floats(0.01, 100.0),
           cubic=st.floats(0.0, 10.0),
           growth=st.floats(0.0, 1.0),
           sign=st.sampled_from([1.0, -1.0]),
           left=st.floats(1e-3, 10.0),
           right=st.floats(1e-3, 10.0),
           xtol=st.sampled_from([2e-12, 1e-9, 1e-6, 1e-3]))
    def test_smooth_bracketed_roots_equal_reference(
            self, root, slope, cubic, growth, sign, left, right, xtol):
        # every term increases through x = root, so [root − left,
        # root + right] brackets exactly one sign change
        def f(x):
            u = x - root
            return sign * (math.atan(slope * u) + cubic * u ** 3
                           + growth * math.expm1(u))

        a, b = root - left, root + right
        assert _brentq(f, a, b, xtol=xtol) == brentq(f, a, b, xtol=xtol)

    def test_iteration_cap_is_solver_error(self):
        with pytest.raises(p.SolverError, match="did not converge"):
            _brentq(lambda x: math.atan(x - 0.3), 0.0, 1.0, xtol=1e-12,
                    maxiter=3)

    def test_nan_gap_is_solver_error(self):
        with pytest.raises(p.SolverError, match="NaN"):
            _brentq(lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,
                    0.0, 1.0, xtol=1e-12)
