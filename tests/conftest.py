"""Shared fixtures: the bundled crystal and the two reference designs.

The two designs exercised throughout are a 5-mm crystal pumped at 740 nm at
room temperature (strong pump-signal walk-off) and an 80-mm crystal pumped
at 775 nm at 11 °C (group-velocity matched). Heavy pipeline products (JSA
grids, decompositions, length scans) are session-scoped so the suite builds
each of them once.
"""

import math

import numpy as np
import pytest

import pdcmodes as p
from pdcmodes.constants import c
from pdcmodes.jsa import sinc
from pdcmodes.phasematch import grating_wavevector

ROOM_T_C = 24.5


@pytest.fixture(scope="session")
def crystal():
    return p.load_bundled_crystal()


@pytest.fixture(scope="session")
def walkoff_config(crystal):
    return p.PdcConfig(crystal=crystal, pdc_type="type-I",
                       pump_axis="e", signal_axis="o",
                       pump_wavelength_um=0.740, temperature_c=ROOM_T_C,
                       length_m=5e-3)


@pytest.fixture(scope="session")
def matched_config(crystal):
    return p.PdcConfig(crystal=crystal, pdc_type="type-I",
                       pump_axis="e", signal_axis="o",
                       pump_wavelength_um=0.775, temperature_c=11.0,
                       length_m=80e-3)


@pytest.fixture(scope="session")
def pump740():
    return p.PumpPulse(wavelength_um=0.740, bandwidth_fwhm_nm=4.0,
                       mean_power_w=12e-3, rep_rate_hz=1e8)


@pytest.fixture(scope="session")
def pump775():
    return p.PumpPulse(wavelength_um=0.775, bandwidth_fwhm_nm=4.0,
                       mean_power_w=12e-3, rep_rate_hz=1e8)


@pytest.fixture(scope="session")
def walkoff_jsa(walkoff_config, pump740):
    grid = p.default_grid(walkoff_config, pump740)
    return p.compute_jsa(walkoff_config, pump740, grid)


@pytest.fixture(scope="session")
def matched_jsa(matched_config, pump775):
    grid = p.default_grid(matched_config, pump775)
    return p.compute_jsa(matched_config, pump775, grid)


@pytest.fixture(scope="session")
def walkoff_decomp(walkoff_jsa):
    return p.schmidt_decompose(walkoff_jsa)


@pytest.fixture(scope="session")
def matched_decomp(matched_jsa):
    return p.schmidt_decompose(matched_jsa)


def _schmidt_number_at(config, pump, n):
    grid = p.default_grid(config, pump, n=n)
    return p.schmidt_decompose(p.compute_jsa(config, pump, grid)).schmidt_number


@pytest.fixture(scope="session")
def walkoff_k_1024(walkoff_config, pump740):
    return _schmidt_number_at(walkoff_config, pump740, 1024)


@pytest.fixture(scope="session")
def matched_k_1024(matched_config, pump775):
    return _schmidt_number_at(matched_config, pump775, 1024)


@pytest.fixture(scope="session")
def cgvm_scan(matched_config, pump775):
    lengths = [10e-3, 20e-3, 40e-3, 80e-3]
    return p.length_scan(matched_config, pump775, lengths)


@pytest.fixture(scope="session")
def no_cgvm_scan(walkoff_config, pump740):
    lengths = [2e-3, 4e-3, 8e-3, 16e-3]
    return p.length_scan(walkoff_config, pump740, lengths)


@pytest.fixture(scope="session")
def matched_squeezing(matched_config, pump775):
    return p.squeezing_spectrum(matched_config, pump775)


def assert_within(value, target, rel, label=""):
    ok = abs(value - target) <= rel * abs(target)
    assert ok, f"{label}: {value!r} not within {rel:.1%} of {target!r}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


# One-expression forms of the n² evaluations. Each element must go through
# the same operations in the same order, so the library must equal these
# bit for bit.

def expression_n_squared(sell, lam_um, t_c):
    """The two-pole n² that GayerTwoPole.n takes the root of, as a single
    expression."""
    f = (t_c - sell.t_ref_c) * (t_c + sell.t_ref_c + 2.0 * 273.16)
    lam2 = lam_um * lam_um
    pole1 = (sell.a3 + sell.b3 * f) ** 2
    return (sell.a1 + sell.b1 * f
            + (sell.a2 + sell.b2 * f) / (lam2 - pole1)
            + (sell.a4 + sell.b4 * f) / (lam2 - sell.a5 ** 2)
            - sell.a6 * lam2)


def expression_n_derivatives(sell, lam_um, t_c):
    """GayerTwoPole.n_derivatives as the two-pole form wrote it for itself,
    before both forms shared one pole-sum formula: each element one
    expression in that form's operations and order."""
    f = (t_c - sell.t_ref_c) * (t_c + sell.t_ref_c + 2.0 * 273.16)
    c2, c4 = sell.a2 + sell.b2 * f, sell.a4 + sell.b4 * f
    q1, q2 = (sell.a3 + sell.b3 * f) ** 2, sell.a5 ** 2
    lam2 = lam_um * lam_um
    g = expression_n_squared(sell, lam_um, t_c)
    gp = -2.0 * lam_um * (c2 / (lam2 - q1) ** 2 + c4 / (lam2 - q2) ** 2 + sell.a6)
    gpp = (c2 * (6.0 * lam2 + 2.0 * q1) / (lam2 - q1) ** 3
           + c4 * (6.0 * lam2 + 2.0 * q2) / (lam2 - q2) ** 3
           - 2.0 * sell.a6)
    return (np.sqrt(g), gp / (2.0 * np.sqrt(g)),
            gpp / (2.0 * np.sqrt(g)) - gp * gp / (4.0 * g ** 1.5))


def expression_wavevector_at_omega(crystal, axis, omega_rad_s, t_c):
    """dispersion.wavevector_at_omega as a single expression."""
    omega = np.asarray(omega_rad_s, dtype=float)
    lam_um = 2.0e6 * np.pi * c / omega
    return np.sqrt(expression_n_squared(crystal.axis(axis), lam_um, t_c)) * omega / c


def expression_phase_mismatch(config, omega1_rad_s, omega2_rad_s):
    """phasematch.phase_mismatch as a single expression."""
    om1 = np.asarray(omega1_rad_s, dtype=float)
    om2 = np.asarray(omega2_rad_s, dtype=float)
    t_c = config.temperature_c
    kp = expression_wavevector_at_omega(
        config.crystal, config.pump_axis, config.omega_p_rad_s + (om1 + om2), t_c)
    ks1 = expression_wavevector_at_omega(
        config.crystal, config.signal_axis, config.omega_s_rad_s + om1, t_c)
    ks2 = expression_wavevector_at_omega(
        config.crystal, config.signal_axis, config.omega_s_rad_s + om2, t_c)
    return kp - (ks1 + ks2) - grating_wavevector(config)


def joined_csv(header, rows, precision):
    """cli._write_csv's file as the per-cell joiner it replaced built it:
    every float through ``format(float(v), ".<precision>g")``, every other
    cell through ``str``."""
    lines = [] if header is None else [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format(float(cell), f".{precision}g")
            if isinstance(cell, (float, np.floating)) else str(cell)
            for cell in row))
    return "\n".join(lines) + "\n"


def expression_envelope_and_half_phase(config, pump, grid):
    """α̃(Ωᵢ+Ωⱼ)·sinc(x) and x = Δ̃(Ωᵢ, Ωⱼ)·L/2 of a design's JSA on a grid,
    each as one expression of the public functions over all n² cells at
    once: the oracle for the arrays that jsa assembles from their upper
    triangle."""
    om = grid.detunings()
    x = p.phase_mismatch(config, om[:, None], om[None, :]) * (config.length_m / 2.0)
    envelope = p.pump_spectral_amplitude(pump, om[:, None] + om[None, :]) * sinc(x)
    return envelope, x


def double_gaussian_jsa(omega_p_rad_s, r_ratio, grid):
    """Analytic double-Gaussian amplitude, the oracle of the Schmidt tests,
    as a JsaGrid.

    Widths are ``omega_p_rad_s`` along Ω₊ and ``r_ratio``× that along Ω₋
    (amplitude standard deviations in the rotated frame); the Ω₊ factor is
    the normalized pump amplitude of matching width, so ``raw_norm`` of the
    decomposition equals R/4. The grid should cover at least four standard
    deviations in both rotated directions.
    """
    if r_ratio < 1.0:
        raise ValueError(f"aspect ratio must be ≥ 1, got {r_ratio}")
    om = grid.detunings()
    total = om[:, None] + om[None, :]
    diff = om[:, None] - om[None, :]
    kernel = ((math.sqrt(math.pi) / omega_p_rad_s)
              * np.exp(-total ** 2 / (4.0 * omega_p_rad_s ** 2))
              * np.exp(-diff ** 2 / (4.0 * (r_ratio * omega_p_rad_s) ** 2)))
    kernel *= grid.step_rad_s / (2.0 * math.pi)
    kernel.setflags(write=False)
    return p.JsaGrid(kernel=kernel, grid=grid)


def double_gaussian_analytics(r_ratio):
    """Closed-form (K, η) of the double Gaussian with aspect ratio R ≥ 1.

        K = (1 + R²)/(2R),   η = R²/(1 + R)²
    """
    if r_ratio < 1.0:
        raise ValueError(f"aspect ratio must be ≥ 1, got {r_ratio}")
    k = (1.0 + r_ratio ** 2) / (2.0 * r_ratio)
    eta = r_ratio ** 2 / (1.0 + r_ratio) ** 2
    return k, eta


def eager_modes(u, grid):
    """SchmidtDecomposition.modes as schmidt_decompose computed it before
    the modes were made on read: a copy of its U scaled and signed in place."""
    u = u.copy()
    u /= math.sqrt(grid.step_rad_s / (2.0 * math.pi))
    modes = u.T
    peak = np.argmax(np.abs(modes, out=np.empty(modes.shape)), axis=1)
    signs = np.sign(modes[np.arange(modes.shape[0]), peak])
    signs[signs == 0] = 1.0
    modes *= signs[:, None]
    return modes
