"""Acceptance gate: the headline numbers and properties, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL report; each criterion also asserts, so a plain pytest run fails
loudly on any miss.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.constants import c, epsilon_0, hbar

import pdcmodes as p
from pdcmodes.dispersion import k_double_prime, k_prime, wavevector_at_omega

from conftest import ROOM_T_C, double_gaussian_analytics, double_gaussian_jsa

_DB_PER_R = 20.0 * math.log10(math.e)


def _report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {status}  {label}: {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_cgvm_wavelengths(crystal):
    lam_type1 = p.solve_cgvm(crystal, "e", "o", ROOM_T_C, (1.2, 2.0))
    lam_type0 = p.solve_cgvm(crystal, "e", "e", ROOM_T_C, (2.0, 3.5))
    ok = abs(lam_type1 - 1.566) <= 0.002 and abs(lam_type0 - 2.7) <= 0.03
    _report(1, "cGVM wavelengths", ok,
            f"type-I {lam_type1:.4f} µm (1.566 ± 0.002), "
            f"type-0 {lam_type0:.3f} µm (2.7 ± 0.03)")


def test_criterion_2_temperature_tuning(crystal):
    t_c = p.solve_cgvm_temperature(crystal, "e", "o", 1.55, (-20.0, 60.0))
    ok = abs(t_c - 11.0) <= 2.0
    _report(2, "temperature tuning", ok, f"T = {t_c:.2f} °C (11 ± 2)")


def test_criterion_3_poling_periods(walkoff_config, matched_config):
    p1 = p.poling_period(walkoff_config)
    p3 = p.poling_period(matched_config)
    ok = abs(p1 - 20.5) <= 0.02 * 20.5 and abs(p3 - 19.2) <= 0.02 * 19.2
    _report(3, "poling periods", ok,
            f"{p1:.3f} µm (20.5 ± 2%), {p3:.3f} µm (19.2 ± 2%)")


def test_criterion_4_dispersion_values(crystal, walkoff_config, pump740):
    kp2 = p.gvd(crystal, "e", 0.740, ROOM_T_C)
    ks2 = p.gvd(crystal, "o", 1.480, ROOM_T_C)
    tau_w = p.walkoff_time(walkoff_config)
    tau_p = p.pulse_duration(pump740)
    ok = (abs(kp2 - 0.41) <= 0.05 * 0.41
          and abs(ks2 - 0.13) <= 0.05 * 0.13
          and abs(tau_w - 115e-15) <= 0.05 * 115e-15
          and abs(tau_p - 201e-15) <= 0.01 * 201e-15)
    _report(4, "dispersion values", ok,
            f"k_p'' = {kp2:.3f} ps²/m (0.41 ± 5%), "
            f"k_s'' = {ks2:.3f} ps²/m (0.13 ± 5%), "
            f"τ_w = {tau_w * 1e15:.1f} fs (115 ± 5%), "
            f"τ_p = {tau_p * 1e15:.1f} fs (201 ± 1%)")


def test_criterion_5_mode_counts(walkoff_decomp, matched_decomp,
                                 walkoff_k_1024, matched_k_1024):
    k1, k3 = walkoff_decomp.schmidt_number, matched_decomp.schmidt_number
    conv1 = abs(k1 - walkoff_k_1024) / walkoff_k_1024
    conv3 = abs(k3 - matched_k_1024) / matched_k_1024
    ok = (abs(k1 - 9.4) <= 0.05 * 9.4 and abs(k3 - 2.56) <= 0.05 * 2.56
          and conv1 < 0.005 and conv3 < 0.005)
    _report(5, "mode counts", ok,
            f"K = {k1:.3f} (9.4 ± 5%), K = {k3:.3f} (2.56 ± 5%); "
            f"N-doubling shifts {conv1:.2e} / {conv3:.2e} (< 0.5%)")


def test_criterion_6_shape_efficiency(matched_jsa, matched_decomp):
    eta = p.jsa_efficiency(matched_decomp)
    ok = abs(eta - 0.75) <= 0.05
    _report(6, "shape efficiency", ok, f"η_JSA = {eta:.4f} (0.75 ± 0.05)")


def test_criterion_7_squeezing_budget(matched_config, matched_squeezing):
    s_db = matched_squeezing.s_db[0]
    p_peak = matched_squeezing.p_peak_w
    eta_pdc = matched_squeezing.eta_pdc_per_w

    # independent hand evaluation of the efficiency product with CODATA
    # constants at the pipeline's own shape efficiency
    omega_p = 2e6 * math.pi * c / 0.775
    n_s = p.refractive_index(matched_config.crystal, "o", 1.55, 11.0)
    eta_oracle = ((4 * 4.64e-12 * (omega_p / 2) / (math.pi * c ** 2 * n_s)) ** 2
                  * omega_p * 0.080 / (2 * math.pi * epsilon_0)
                  * matched_squeezing.eta_jsa)

    ok = (abs(s_db - 12.0) <= 0.5
          and abs(p_peak - 543.0) <= 0.01 * 543.0
          and abs(eta_pdc - 3.4e-3) <= 0.10 * 3.4e-3
          and abs(eta_pdc - eta_oracle) <= 1e-12 * eta_oracle)
    _report(7, "squeezing budget", ok,
            f"S = {s_db:.2f} dB (12 ± 0.5), P_peak = {p_peak:.1f} W "
            f"(543 ± 1%), η_PDC = {eta_pdc:.3e} W⁻¹ (3.4e-3 ± 10%, "
            f"oracle match {abs(eta_pdc - eta_oracle) / eta_oracle:.1e})")


def test_criterion_8_length_scan_shape(cgvm_scan, no_cgvm_scan):
    s_db = {round(length * 1e3): result.s_db[0] for length, result in cgvm_scan}
    ratio_a = s_db[40] / s_db[10]
    ratio_b = s_db[80] / s_db[20]
    saturating = [result.s_db[0] for _, result in no_cgvm_scan]
    ok = (abs(ratio_a - 2.0) <= 0.2 and abs(ratio_b - 2.0) <= 0.2
          and saturating[3] <= saturating[2])
    _report(8, "length-scan shape", ok,
            f"matched S(4L)/S(L) = {ratio_a:.3f}, {ratio_b:.3f} (2 ± 10%); "
            f"walk-off S at 8/16 mm = {saturating[2]:.2f}/{saturating[3]:.2f} dB "
            "(non-increasing)")


def test_criterion_9_double_gaussian_oracle():
    worst_k = worst_eta = worst_norm = 0.0
    for r_ratio in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0):
        extent = 4.5 * r_ratio * 1e12 / math.sqrt(2.0) * 2.0
        grid = p.FrequencyGrid(n=512, omega_max_rad_s=extent)
        amplitude = double_gaussian_jsa(1e12, r_ratio, grid)
        decomp = p.schmidt_decompose(amplitude)
        k_exact, eta_exact = double_gaussian_analytics(r_ratio)
        worst_k = max(worst_k,
                      abs(decomp.schmidt_number - k_exact) / k_exact)
        worst_eta = max(worst_eta,
                        abs(p.jsa_efficiency(decomp) - eta_exact)
                        / eta_exact)
        worst_norm = max(worst_norm,
                         abs(decomp.raw_norm - r_ratio / 4) / (r_ratio / 4))
    ok = worst_k < 0.01 and worst_eta < 0.01 and worst_norm < 0.01
    _report(9, "double-Gaussian oracle", ok,
            f"worst rel. err over R ∈ {{1..10}}: K {worst_k:.2e}, "
            f"η {worst_eta:.2e}, norm {worst_norm:.2e} (< 1%)")


def test_criterion_10_property_suite(crystal, matched_config, matched_jsa,
                                     matched_decomp, matched_squeezing, pump775):
    checks = {}

    checks["Σs²=1"] = abs(np.sum(matched_decomp.s ** 2) - 1.0) < 1e-9

    weight = matched_jsa.grid.step_rad_s / (2 * math.pi)
    gram = matched_decomp.modes @ matched_decomp.modes.T * weight
    checks["orthonormal"] = np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-6

    checks["symmetry"] = all(np.array_equal(part, part.T) for part in
                             p.jsa_parts(matched_config, pump775, matched_jsa.grid))

    strong = replace(pump775, mean_power_w=4 * pump775.mean_power_w)
    boosted = p.squeezing_spectrum(matched_config, strong)
    checks["S(4P)=2S(P)"] = np.array_equal(boosted.s_db,
                                           2 * matched_squeezing.s_db)

    worst_kp = worst_kpp = 0.0
    for axis in ("o", "e"):
        for lam in np.linspace(0.55, 3.8, 15):
            omega = 2e6 * math.pi * c / lam
            h = 1e-3 * omega
            samples = [wavevector_at_omega(crystal, axis, omega + i * h,
                                           ROOM_T_C)
                       for i in (-2, -1, 0, 1, 2)]
            fd1 = (samples[0] - 8 * samples[1] + 8 * samples[3]
                   - samples[4]) / (12 * h)
            fd2 = (-samples[0] + 16 * samples[1] - 30 * samples[2]
                   + 16 * samples[3] - samples[4]) / (12 * h * h)
            worst_kp = max(worst_kp,
                           abs(k_prime(crystal, axis, float(lam), ROOM_T_C)
                               - fd1) / abs(fd1))
            worst_kpp = max(worst_kpp,
                            abs(k_double_prime(crystal, axis, float(lam),
                                               ROOM_T_C) - fd2) / abs(fd2))
    checks["k' vs FD"] = worst_kp < 1e-6
    checks["k'' vs FD"] = worst_kpp < 1e-5

    checks["sinh²r₀<4"] = matched_squeezing.mean_photons[0] < 4.0
    photons = matched_squeezing.pump_photons_per_pulse
    checks["pump photons"] = abs(photons - 5e8) <= 0.10 * 5e8

    ok = all(checks.values())
    failed = [name for name, passed in checks.items() if not passed]
    _report(10, "property suite", ok,
            ("all properties hold: " if ok else f"failed {failed}; ")
            + f"k' FD {worst_kp:.1e}, k'' FD {worst_kpp:.1e}, "
            f"photons {photons:.2e}")
