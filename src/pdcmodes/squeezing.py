"""Squeezing predictions from the mode structure of a PDC source.

Converts the Schmidt spectrum of a design into physical gain numbers for a
pulsed pump at optimal focusing (Rayleigh distance L/2, waist
w₀² = cL/(n_p·ω_p)). The per-watt conversion efficiency

    η_PDC = (4·d_eff·ω_s / (π·c²·n_s))² · ω_p·L/(2π·ε₀) · η_JSA

absorbs every field-normalization constant analytically, so no beam
cross-section enters; the dominant-mode squeezing parameter is
r₀ = sqrt(η_PDC·P_peak) and mode n squeezes by r_n = r₀·s_n/s₀.

The pair-generation parameter p_b = r₀²/(4·s₀²) and the dB figures
S_n = 20·r_n·log₁₀(e) are carried along, together with photon-budget
numbers. Results with S₀ above 12 dB are flagged: the underlying
no-space-ordering model stops being quantitative there, although the
formulas still evaluate.
"""

from __future__ import annotations

import math

import numpy as np

from . import jsa as _jsa
from ._record import Record
from .constants import DEFAULT_GRID_POINTS, c, epsilon_0, hbar
from .errors import DomainError
from .jsa import FrequencyGrid, PumpPulse
from .phasematch import PdcConfig

__all__ = [
    "SqueezingResult",
    "VALIDITY_LIMIT_DB",
    "pulse_duration",
    "peak_power",
    "beam_waist",
    "pdc_efficiency",
    "squeezing_spectrum",
    "length_scan",
]

VALIDITY_LIMIT_DB = 12.0

_DB_PER_R = 20.0 * math.log10(math.e)


class SqueezingResult(Record):
    """Full squeezing budget of one design point.

    ``r`` and ``s_db`` list per-mode squeezing parameters and dB figures in
    descending order; ``mean_photons[n]`` = sinh²r_n. ``beyond_validity``
    is True when the dominant mode exceeds the 12 dB model-validity bound.
    """

    eta_jsa: float
    eta_pdc_per_w: float
    p_peak_w: float
    tau_p_s: float
    waist_m: float
    gain_pb: float
    r: np.ndarray
    s_db: np.ndarray
    schmidt_number: float
    mean_photons: np.ndarray
    pump_photons_per_pulse: float
    beyond_validity: bool


def pulse_duration(pump: PumpPulse) -> float:
    """Intensity-FWHM pulse duration τ_p = 2·ln2·λ_p²/(π·c·Δλ) in seconds."""
    lam_m = pump.wavelength_um * 1e-6
    dlam_m = pump.bandwidth_fwhm_nm * 1e-9
    return 2.0 * math.log(2.0) * lam_m ** 2 / (math.pi * c * dlam_m)


def peak_power(pump: PumpPulse) -> float:
    """Peak power P_peak = P_mean/(f_R·τ_p) in watts."""
    duty = pump.rep_rate_hz * pulse_duration(pump)
    if not duty > 0:
        raise DomainError(
            f"pump rep_rate_hz = {pump.rep_rate_hz:g} gives a duty cycle "
            "f_R·τ_p that underflows the float range")
    return pump.mean_power_w / duty


def beam_waist(config: PdcConfig) -> float:
    """Optimal-focusing waist w₀ = sqrt(c·L/(n_p·ω_p)) in meters."""
    n_p = config.central[0][0]
    return math.sqrt(c * config.length_m / (n_p * config.omega_p_rad_s))


def pdc_efficiency(config: PdcConfig, eta_jsa: float) -> float:
    """Per-watt conversion efficiency η_PDC (W⁻¹) for a given shape
    efficiency; inf where it leaves the float range."""
    d_eff = config.crystal.d_eff_pm_per_v * 1e-12
    n_s = config.central[1][0]
    coupling = 4.0 * d_eff * config.omega_s_rad_s / (math.pi * c ** 2 * n_s)
    try:
        coupling **= 2
    except OverflowError:
        coupling = math.inf
    return coupling * (config.omega_p_rad_s * config.length_m
                       / (2.0 * math.pi * epsilon_0)) * eta_jsa


def squeezing_spectrum(config: PdcConfig, pump: PumpPulse,
                       grid: FrequencyGrid | None = None,
                       grid_n: int = DEFAULT_GRID_POINTS) -> SqueezingResult:
    """Run the full pipeline: JSA → Schmidt modes → per-mode squeezing.

    ``grid`` defaults to :func:`pdcmodes.jsa.default_grid` with ``grid_n``
    points per axis.
    """
    if grid is None:
        grid = _jsa.default_grid(config, pump, n=grid_n)
    amplitude = _jsa.compute_jsa(config, pump, grid)
    decomp = _jsa.schmidt_decompose(amplitude)
    eta_jsa = _jsa.jsa_efficiency(decomp)
    eta_pdc = pdc_efficiency(config, eta_jsa)
    p_peak = peak_power(pump)
    r0 = math.sqrt(eta_pdc * p_peak)
    # an overflow is reported below, as is an r₀ = inf, which inf·0 makes NaN
    with np.errstate(over="ignore", invalid="ignore"):
        r = r0 * decomp.s / decomp.s[0]
        s_db = _DB_PER_R * r
        mean_photons = np.sinh(r) ** 2
    gain_pb = r0 ** 2 / (4.0 * decomp.s[0] ** 2)
    if not np.isfinite(mean_photons).all():
        raise DomainError(
            f"squeezing r₀ = {r0:.6g} (S₀ = {s_db[0]:.6g} dB) puts the mean "
            "photon number sinh²r beyond the float range; lower the pump power")
    pulse_energy = pump.mean_power_w / pump.rep_rate_hz
    pump_photons = pulse_energy / (hbar * config.omega_p_rad_s)
    r.setflags(write=False)
    s_db.setflags(write=False)
    mean_photons.setflags(write=False)
    return SqueezingResult(
        eta_jsa=eta_jsa,
        eta_pdc_per_w=eta_pdc,
        p_peak_w=p_peak,
        tau_p_s=pulse_duration(pump),
        waist_m=beam_waist(config),
        gain_pb=gain_pb,
        r=r,
        s_db=s_db,
        schmidt_number=decomp.schmidt_number,
        mean_photons=mean_photons,
        pump_photons_per_pulse=pump_photons,
        beyond_validity=bool(s_db[0] > VALIDITY_LIMIT_DB),
    )


def length_scan(config: PdcConfig, pump: PumpPulse, lengths_m,
                grid: FrequencyGrid | None = None,
                grid_n: int = DEFAULT_GRID_POINTS) -> list[tuple[float, SqueezingResult]]:
    """Re-run the full pipeline for each crystal length, in input order.

    By default each point rebuilds the grid (its extent depends on L) along
    with the JSA, so focusing and phase matching are re-derived per length;
    passing ``grid`` pins one grid for every point instead.
    """
    results = []
    for length in lengths_m:
        point = config.replace(length_m=float(length))
        results.append((float(length),
                        squeezing_spectrum(point, pump, grid=grid,
                                           grid_n=grid_n)))
    return results
