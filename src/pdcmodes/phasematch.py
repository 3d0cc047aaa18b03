"""Quasi-phase matching and group-velocity matching for degenerate PDC.

A :class:`PdcConfig` fixes one source design: crystal, polarization axes,
pump wavelength, temperature, crystal length and (optionally) the poling
period. The signal is frequency-degenerate, centered at twice the pump
wavelength. Only first-order quasi-phase matching is modeled; the grating
wavevector sign is chosen to cancel the actual central mismatch, so the
reported poling period is always the positive 2π/|k_p0 − 2k_s0|.

``phase_mismatch`` always uses the full Sellmeier dispersion. The quadratic
Taylor expansion around the central frequencies (``taylor_dispersion`` /
``taylor_phase_mismatch``) is a separate diagnostic path and is never
substituted for the full form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import dispersion
from .constants import c
from .dispersion import CrystalModel
from .errors import DomainError, SolverError

__all__ = [
    "PdcConfig",
    "TaylorDispersion",
    "poling_period",
    "grating_wavevector",
    "phase_mismatch",
    "taylor_dispersion",
    "taylor_phase_mismatch",
    "phasematch_hyperbola",
    "walkoff_time",
    "solve_cgvm",
    "solve_cgvm_temperature",
]

PDC_TYPES = ("type-0", "type-I")

# poling periods beyond this are treated as "no finite period" (mismatch ~ 0)
_MAX_POLING_PERIOD_M = 1.0

# absolute solver tolerances (design: Brent-style bracketed refinement)
_CGVM_XTOL_UM = 1e-9
_CGVM_GTOL = 1e-9
_TEMP_XTOL_C = 1e-3

# the cGVM wavelength bracket of each trial temperature, as fractions of
# the target wavelength (±25 %)
_TEMP_WAVELENGTH_BRACKET = (0.75, 1.25)

# relative tolerance floor and iteration cap of the Brent solver
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


@dataclass(frozen=True)
class PdcConfig:
    """One collinear frequency-degenerate PDC source design.

    The signal central wavelength is 2·pump_wavelength_um by construction.
    ``poling_period_um=None`` means "use the computed first-order period".
    """

    crystal: CrystalModel
    pdc_type: str                    # "type-0" | "type-I"
    pump_axis: str
    signal_axis: str
    pump_wavelength_um: float
    temperature_c: float
    length_m: float
    poling_period_um: float | None = None

    def __post_init__(self):
        if self.pdc_type not in PDC_TYPES:
            raise DomainError(
                f"pdc_type must be one of {PDC_TYPES}, got {self.pdc_type!r}")
        if self.pdc_type == "type-0" and self.pump_axis != self.signal_axis:
            raise DomainError("type-0 requires pump and signal on the same axis")
        if self.pdc_type == "type-I" and self.pump_axis == self.signal_axis:
            raise DomainError("type-I requires pump and signal on different axes")
        self.crystal.axis(self.pump_axis)
        self.crystal.axis(self.signal_axis)
        if not self.length_m > 0:
            raise DomainError(f"crystal length must be > 0, got {self.length_m}")
        if self.poling_period_um is not None and not self.poling_period_um > 0:
            raise DomainError(
                f"poling period must be > 0 when given, got {self.poling_period_um}")
        lo, hi = self.crystal.valid_range_um
        for lam in (self.pump_wavelength_um, self.signal_wavelength_um):
            if not (lo < lam < hi):
                raise DomainError(
                    f"central wavelength {lam:g} µm outside the valid range "
                    f"[{lo:g}, {hi:g}] µm of crystal {self.crystal.name!r}")

    @property
    def signal_wavelength_um(self) -> float:
        return 2.0 * self.pump_wavelength_um

    @property
    def omega_p_rad_s(self) -> float:
        return 2.0e6 * math.pi * c / self.pump_wavelength_um

    @property
    def omega_s_rad_s(self) -> float:
        return self.omega_p_rad_s / 2.0


def _central_mismatch(config: PdcConfig) -> float:
    """k_p0 − 2·k_s0 in rad/m at the central wavelengths (signed)."""
    kp0 = dispersion.wavevector(config.crystal, config.pump_axis,
                                config.pump_wavelength_um, config.temperature_c)
    ks0 = dispersion.wavevector(config.crystal, config.signal_axis,
                                config.signal_wavelength_um, config.temperature_c)
    return kp0 - 2.0 * ks0


def poling_period(config: PdcConfig) -> float:
    """First-order poling period Λ = 2π/|k_p0 − 2k_s0| in µm.

    Raises :class:`DomainError` when the central mismatch vanishes (no
    finite first-order grating can phase-match the design).
    """
    mismatch = _central_mismatch(config)
    if abs(mismatch) < 2.0 * math.pi / _MAX_POLING_PERIOD_M:
        raise DomainError(
            "QPM order -1 impossible here: central phase mismatch is zero "
            f"within 2π rad/m for pump {config.pump_wavelength_um:g} µm at "
            f"{config.temperature_c:g} °C")
    return 2.0e6 * math.pi / abs(mismatch)


def grating_wavevector(config: PdcConfig) -> float:
    """Signed grating contribution κ (rad/m) subtracted from the mismatch.

    Equals the central mismatch exactly when the period is computed, so
    the residual mismatch vanishes at the central frequencies; for a
    user-supplied period the magnitude is 2π/Λ with the matching sign.
    """
    mismatch = _central_mismatch(config)
    if config.poling_period_um is None:
        poling_period(config)          # raise if no finite period exists
        return mismatch
    return math.copysign(2.0e6 * math.pi / config.poling_period_um, mismatch)


def phase_mismatch(config: PdcConfig, omega1_rad_s, omega2_rad_s):
    """Residual mismatch Δ̃(Ω₁, Ω₂) in rad/m with full Sellmeier dispersion.

    Ω₁, Ω₂ are signal detunings (rad/s) from the degenerate central
    frequency; broadcasting follows numpy rules, so column/row vectors
    produce the full grid. Symmetric under Ω₁ ↔ Ω₂ by construction.
    """
    om1 = np.asarray(omega1_rad_s, dtype=float)
    om2 = np.asarray(omega2_rad_s, dtype=float)
    kappa = grating_wavevector(config)
    # the pump frequency ω_p + (Ω₁ + Ω₂), built in place
    omega_p = om1 + om2
    omega_p += config.omega_p_rad_s
    delta = dispersion.wavevector_at_omega(
        config.crystal, config.pump_axis, omega_p, config.temperature_c)
    del omega_p
    ks1 = dispersion.wavevector_at_omega(
        config.crystal, config.signal_axis,
        config.omega_s_rad_s + om1, config.temperature_c)
    ks2 = dispersion.wavevector_at_omega(
        config.crystal, config.signal_axis,
        config.omega_s_rad_s + om2, config.temperature_c)
    # kp − (ks1 + ks2) − κ in place; the signal terms are summed first:
    # (ks1 + ks2) commutes exactly in floating point, so
    # Δ̃(Ω₁, Ω₂) == Δ̃(Ω₂, Ω₁) bit for bit
    delta -= ks1 + ks2
    delta -= kappa
    if np.isscalar(omega1_rad_s) and np.isscalar(omega2_rad_s):
        return float(delta)
    return delta


@dataclass(frozen=True)
class TaylorDispersion:
    """Quadratic dispersion coefficients around the central frequencies.

    dk1 = k_p′ − k_s′ (s/m); kp2, ks2 are the pump/signal GVDs (s²/m);
    omega_d = −√2·dk1/(2·kp2 − ks2) locates the phase-matching hyperbola
    vertices on the Ω₊ axis (rad/s).
    """

    dk1_s_per_m: float
    kp2_s2_per_m: float
    ks2_s2_per_m: float
    omega_d_rad_s: float


def _dk1(config: PdcConfig) -> float:
    """Group-delay mismatch dk₁ = k_p′ − k_s′ (s/m) at the central wavelengths."""
    return (dispersion.k_prime(config.crystal, config.pump_axis,
                               config.pump_wavelength_um, config.temperature_c)
            - dispersion.k_prime(config.crystal, config.signal_axis,
                                 config.signal_wavelength_um, config.temperature_c))


def taylor_dispersion(config: PdcConfig) -> TaylorDispersion:
    """Evaluate the quadratic-expansion coefficients for a design."""
    dk1 = _dk1(config)
    kp2 = dispersion.k_double_prime(config.crystal, config.pump_axis,
                                    config.pump_wavelength_um, config.temperature_c)
    ks2 = dispersion.k_double_prime(config.crystal, config.signal_axis,
                                    config.signal_wavelength_um, config.temperature_c)
    denom = 2.0 * kp2 - ks2
    if denom == 0.0 or abs(denom) < 1e-9 * max(abs(kp2), abs(ks2)):
        raise DomainError(
            "parabolic degeneracy: 2·k_p″ = k_s″, the hyperbola vertex "
            "offset is undefined for this design")
    omega_d = -math.sqrt(2.0) * dk1 / denom
    return TaylorDispersion(dk1, kp2, ks2, omega_d)


def taylor_phase_mismatch(td: TaylorDispersion, omega1_rad_s, omega2_rad_s):
    """Quadratic-form mismatch (rad/m) in rotated coordinates Ω± = (Ω₁±Ω₂)/√2."""
    om1 = np.asarray(omega1_rad_s, dtype=float)
    om2 = np.asarray(omega2_rad_s, dtype=float)
    om_plus = (om1 + om2) / math.sqrt(2.0)
    om_minus = (om1 - om2) / math.sqrt(2.0)
    delta = (math.sqrt(2.0) * td.dk1_s_per_m * om_plus
             + (td.kp2_s2_per_m - 0.5 * td.ks2_s2_per_m) * om_plus ** 2
             - 0.5 * td.ks2_s2_per_m * om_minus ** 2)
    if np.isscalar(omega1_rad_s) and np.isscalar(omega2_rad_s):
        return float(delta)
    return delta


def phasematch_hyperbola(config: PdcConfig, omega_minus_rad_s):
    """The two perfectly phase-matched Ω₊ branches at a given Ω₋ (rad/s).

    Solves the quadratic-form mismatch for Ω₊:

        Ω₊ = Ω_d ± sqrt(Ω_d² + Ω₋²/(2·k_p″/k_s″ − 1))

    valid in the normal-dispersion regime k_p″ > k_s″/2 > 0. Returns
    (lower, upper) branches; at Ω₋ = 0 these are the vertices {2Ω_d, 0}
    (in some order), symmetric about 0 when group velocities match.
    """
    td = taylor_dispersion(config)
    if td.ks2_s2_per_m <= 0 or 2.0 * td.kp2_s2_per_m / td.ks2_s2_per_m <= 1.0:
        raise DomainError(
            "hyperbola regime violated: need k_s″ > 0 and 2·k_p″/k_s″ > 1, "
            f"got k_p″ = {td.kp2_s2_per_m:.3e}, k_s″ = {td.ks2_s2_per_m:.3e} s²/m")
    om = np.asarray(omega_minus_rad_s, dtype=float)
    ratio = 2.0 * td.kp2_s2_per_m / td.ks2_s2_per_m - 1.0
    root = np.sqrt(td.omega_d_rad_s ** 2 + om ** 2 / ratio)
    lower = td.omega_d_rad_s - root
    upper = td.omega_d_rad_s + root
    if np.isscalar(omega_minus_rad_s):
        return float(lower), float(upper)
    return lower, upper


def walkoff_time(config: PdcConfig) -> float:
    """Pump-signal temporal walk-off τ_w = (k_p′ − k_s′)·L/2 in seconds."""
    return _dk1(config) * config.length_m / 2.0


def _brentq(f, a: float, b: float, xtol: float,
            maxiter: int = _BRENT_MAXITER) -> float:
    """Root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    The step-for-step iteration of the reference C implementation of
    ``brentq``: the same bracket swap, secant and inverse quadratic steps,
    stopping test |x − root| ≲ xtol + 4ε·|x| and defaults, so it returns
    the same root bit for bit (the test suite checks this against that
    implementation). ``f(a)`` and ``f(b)`` must differ in sign. Raises
    :class:`SolverError` when ``f`` returns NaN or after ``maxiter``
    iterations without convergence.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise SolverError(f"root search hit a NaN function value at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise SolverError(f"f({xpre!r}) and f({xcur!r}) have the same sign")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant interpolation
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise SolverError(
        f"root search did not converge in {maxiter} iterations (last x = {xcur!r})")


def _group_index_gap(crystal: CrystalModel, pump_axis: str, signal_axis: str,
                     lam_um: float, temperature_c: float) -> float:
    """m_pump(λ/2) − m_signal(λ): zero at complete group velocity matching."""
    return (dispersion.group_index(crystal, pump_axis, lam_um / 2.0, temperature_c)
            - dispersion.group_index(crystal, signal_axis, lam_um, temperature_c))


def solve_cgvm(crystal: CrystalModel, pump_axis: str, signal_axis: str,
               temperature_c: float, bracket_um: tuple[float, float]) -> float:
    """Signal wavelength (µm) where pump and signal group velocities match.

    The pump is taken at half the signal wavelength. Requires a sign change
    of the group-index gap over ``bracket_um``; raises :class:`SolverError`
    ("no cGVM point") otherwise rather than extrapolating.
    """
    a, b = float(bracket_um[0]), float(bracket_um[1])
    if not (0 < a < b):
        raise SolverError(f"invalid wavelength bracket [{a}, {b}] µm")
    ga = _group_index_gap(crystal, pump_axis, signal_axis, a, temperature_c)
    gb = _group_index_gap(crystal, pump_axis, signal_axis, b, temperature_c)
    if not ga * gb < 0:
        raise SolverError(
            f"no cGVM point: group-index gap does not change sign over "
            f"[{a:g}, {b:g}] µm at {temperature_c:g} °C "
            f"(gap {ga:.3e} → {gb:.3e})")
    lam = _brentq(
        lambda l: _group_index_gap(crystal, pump_axis, signal_axis, l, temperature_c),
        a, b, xtol=_CGVM_XTOL_UM)
    gap = _group_index_gap(crystal, pump_axis, signal_axis, lam, temperature_c)
    if abs(gap) > _CGVM_GTOL:
        raise SolverError(
            f"cGVM refinement did not converge: |Δm| = {abs(gap):.3e} at {lam:g} µm")
    return float(lam)


def solve_cgvm_temperature(crystal: CrystalModel, pump_axis: str,
                           signal_axis: str, target_um: float,
                           bracket_c: tuple[float, float]) -> float:
    """Temperature (°C) at which the cGVM wavelength equals ``target_um``.

    Each trial temperature re-solves the cGVM wavelength within ±25 % of
    the target. Raises :class:`SolverError` when the target is unreachable
    in the bracket.
    """
    wavelength_bracket_um = tuple(f * target_um for f in _TEMP_WAVELENGTH_BRACKET)

    def gap(t_c: float) -> float:
        return solve_cgvm(crystal, pump_axis, signal_axis, t_c,
                          wavelength_bracket_um) - target_um

    a, b = float(bracket_c[0]), float(bracket_c[1])
    if not a < b:
        raise SolverError(f"invalid temperature bracket [{a}, {b}] °C")
    ga, gb = gap(a), gap(b)
    if not ga * gb < 0:
        raise SolverError(
            f"cGVM wavelength {target_um:g} µm unreachable over "
            f"[{a:g}, {b:g}] °C (offset {ga:.3e} → {gb:.3e} µm)")
    t_c = _brentq(gap, a, b, xtol=_TEMP_XTOL_C)
    return float(t_c)
