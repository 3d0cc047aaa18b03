"""Quasi-phase matching and group-velocity matching for degenerate PDC.

A :class:`PdcConfig` fixes one source design: crystal, polarization axes,
pump wavelength, temperature, crystal length and (optionally) the poling
period. The signal is frequency-degenerate, centered at twice the pump
wavelength. Only first-order quasi-phase matching is modeled; the grating
wavevector sign is chosen to cancel the actual central mismatch, so the
reported poling period is always the positive 2π/|k_p0 − 2k_s0|.

The PDC type follows from the two polarization axes: type-0 when pump and
signal share an axis, type-I when they do not. ``phase_mismatch`` always
uses the full Sellmeier dispersion; the design's k′ and k″ at the centre
are held in ``PdcConfig.central``.
"""

from __future__ import annotations

import math
import sys

from . import dispersion
from ._record import Record
from .dispersion import CrystalModel
from .errors import DomainError, SolverError

__all__ = [
    "PdcConfig",
    "poling_period",
    "grating_wavevector",
    "phase_mismatch",
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


class PdcConfig(Record):
    """One collinear frequency-degenerate PDC source design.

    The signal central wavelength is 2·pump_wavelength_um by construction.
    ``poling_period_um=None`` means "use the computed first-order period".
    ``pdc_type`` holds what was given; ``None`` means "the type the two
    axes make", and a given type must be one of ``PDC_TYPES`` and agree
    with the axes.

    ``central``, derived when the design is built and not a field, is
    ((n, k′, k″) of the pump, (n, k′, k″) of the signal) at their central
    wavelengths, in SI, one Sellmeier pass each: a centre with no finite
    real index in the crystal's valid range refuses the design with a
    DomainError.
    """

    crystal: CrystalModel
    pump_axis: str
    signal_axis: str
    pump_wavelength_um: float
    temperature_c: float
    length_m: float
    poling_period_um: float | None = None
    pdc_type: str | None = None      # "type-0" | "type-I"

    def __post_init__(self):
        if self.pdc_type is not None and self.pdc_type not in PDC_TYPES:
            raise DomainError(
                f"pdc_type must be one of {PDC_TYPES}, got {self.pdc_type!r}")
        if self.pdc_type not in (None, _pdc_type(self.pump_axis, self.signal_axis)):
            raise DomainError(f"{self.pdc_type} requires pump and signal on "
                              + ("the same axis" if self.pdc_type == "type-0"
                                 else "different axes"))
        for name in ("pump_wavelength_um", "temperature_c", "length_m",
                     "poling_period_um"):
            value = getattr(self, name)
            if value is None and name == "poling_period_um":
                continue
            # a bool or text is not a number, as in a crystal or run-config
            # file; the range check refuses a wavelength or temperature not finite
            if not dispersion._is_real(value) or name in (
                    "length_m", "poling_period_um") and not math.isfinite(value):
                raise DomainError(f"{name} must be a finite number, got {value!r}")
        if not self.length_m > 0:
            raise DomainError(f"crystal length must be > 0, got {self.length_m}")
        if self.poling_period_um is not None and not self.poling_period_um > 0:
            raise DomainError(
                f"poling period must be > 0 when given, got {self.poling_period_um}")
        if self.poling_period_um and 2.0e6 * math.pi / self.poling_period_um == math.inf:
            raise DomainError(f"poling period {self.poling_period_um:g} µm is too "
                              "short: its grating wavevector 2π/Λ leaves the float range")
        object.__setattr__(self, "central", tuple(
            dispersion._k_terms(self.crystal, axis, lam, self.temperature_c)
            for axis, lam in ((self.pump_axis, self.pump_wavelength_um),
                              (self.signal_axis, self.signal_wavelength_um))))

    @property
    def signal_wavelength_um(self) -> float:
        return 2.0 * self.pump_wavelength_um

    @property
    def omega_p_rad_s(self) -> float:
        return dispersion._um_rad_s(self.pump_wavelength_um)

    @property
    def omega_s_rad_s(self) -> float:
        return self.omega_p_rad_s / 2.0


def _pdc_type(pump_axis: str, signal_axis: str) -> str:
    """The PDC type that the two polarization axes make: type-0 when pump
    and signal share an axis, type-I when they do not."""
    return "type-0" if pump_axis == signal_axis else "type-I"


def _central_mismatch(config: PdcConfig) -> float:
    """k_p0 − 2·k_s0 in rad/m at the central wavelengths (signed)."""
    (n_p, _, _), (n_s, _, _) = config.central
    kp0 = dispersion._wavenumber(config.pump_wavelength_um, n_p)
    ks0 = dispersion._wavenumber(config.signal_wavelength_um, n_s)
    return kp0 - 2.0 * ks0


def _period_mismatch(config: PdcConfig) -> float:
    """The central mismatch that a computed first-order period cancels; a
    DomainError when it vanishes and no finite period exists."""
    mismatch = _central_mismatch(config)
    if abs(mismatch) < 2.0 * math.pi / _MAX_POLING_PERIOD_M:
        raise DomainError(
            "QPM order -1 impossible here: central phase mismatch is zero "
            f"within 2π rad/m for pump {config.pump_wavelength_um:g} µm at "
            f"{config.temperature_c:g} °C")
    return mismatch


def poling_period(config: PdcConfig) -> float:
    """First-order poling period Λ = 2π/|k_p0 − 2k_s0| in µm.

    Raises :class:`DomainError` when the central mismatch vanishes (no
    finite first-order grating can phase-match the design).
    """
    return 2.0e6 * math.pi / abs(_period_mismatch(config))


def grating_wavevector(config: PdcConfig) -> float:
    """Signed grating contribution κ (rad/m) subtracted from the mismatch.

    Equals the central mismatch exactly when the period is computed, so
    the residual mismatch vanishes at the central frequencies; for a
    user-supplied period the magnitude is 2π/Λ with the matching sign.
    """
    if config.poling_period_um is None:
        return _period_mismatch(config)
    return math.copysign(2.0e6 * math.pi / config.poling_period_um,
                         _central_mismatch(config))


def phase_mismatch(config: PdcConfig, omega1_rad_s, omega2_rad_s):
    """Residual mismatch Δ̃(Ω₁, Ω₂) in rad/m with full Sellmeier dispersion.

    Ω₁, Ω₂ are signal detunings (rad/s) from the degenerate central
    frequency; broadcasting follows numpy rules, so column/row vectors
    produce the full grid. Symmetric under Ω₁ ↔ Ω₂ by construction.
    """
    import numpy as np
    om1 = np.asarray(omega1_rad_s, dtype=float)
    om2 = np.asarray(omega2_rad_s, dtype=float)
    kappa = grating_wavevector(config)
    crystal, t_c = config.crystal, config.temperature_c
    kp = dispersion.wavevector_at_omega(
        crystal, config.pump_axis, om1 + om2 + config.omega_p_rad_s, t_c)
    ks1 = dispersion.wavevector_at_omega(
        crystal, config.signal_axis, config.omega_s_rad_s + om1, t_c)
    ks2 = dispersion.wavevector_at_omega(
        crystal, config.signal_axis, config.omega_s_rad_s + om2, t_c)
    # (ks1 + ks2) commutes exactly in floating point, so
    # Δ̃(Ω₁, Ω₂) == Δ̃(Ω₂, Ω₁) bit for bit
    delta = kp - (ks1 + ks2) - kappa
    if np.isscalar(omega1_rad_s) and np.isscalar(omega2_rad_s):
        return float(delta)
    return delta


def walkoff_time(config: PdcConfig) -> float:
    """Pump-signal temporal walk-off τ_w = (k_p′ − k_s′)·L/2 in seconds."""
    (_, kp1, _), (_, ks1, _) = config.central
    return (kp1 - ks1) * config.length_m / 2.0


def _brentq(f, a: float, fa: float, b: float, fb: float,
            xtol: float) -> tuple[float, float]:
    """(root, f(root)) for ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    The step-for-step iteration of the reference C implementation of
    ``brentq``: the same bracket swap, secant and inverse quadratic steps,
    stopping test |x − root| ≲ xtol + 4ε·|x| and defaults, so it returns
    the same root bit for bit (the test suite checks this against that
    implementation). The caller passes ``fa = f(a)`` and ``fb = f(b)``,
    which its own bracket check has evaluated: ``fa·fb < 0``. Raises
    :class:`SolverError` when ``f`` returns NaN or after ``_BRENT_MAXITER``
    iterations without convergence.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise SolverError(f"root search hit a NaN function value at x = {x!r}")
        return fx

    xpre, xcur, fpre, fcur = float(a), float(b), float(fa), float(fb)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, fcur
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
        f"root search did not converge in {_BRENT_MAXITER} iterations (last x = {xcur!r})")


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
    lam, gap = _brentq(
        lambda l: _group_index_gap(crystal, pump_axis, signal_axis, l, temperature_c),
        a, ga, b, gb, xtol=_CGVM_XTOL_UM)
    if abs(gap) > _CGVM_GTOL:
        raise SolverError(
            f"cGVM refinement did not converge: |Δm| = {abs(gap):.3e} at {lam:g} µm")
    return lam


def solve_cgvm_temperature(crystal: CrystalModel, pump_axis: str,
                           signal_axis: str, target_um: float,
                           bracket_c: tuple[float, float]) -> float:
    """Temperature (°C) at which the cGVM wavelength equals ``target_um``.

    Each trial temperature re-solves the cGVM wavelength within ±25 % of
    the target. Raises :class:`SolverError` when the target is unreachable
    in the bracket, or is not > 0.
    """
    if not target_um > 0:
        raise SolverError(f"cGVM target wavelength must be > 0 µm, got {target_um:g}")
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
    return _brentq(gap, a, ga, b, gb, xtol=_TEMP_XTOL_C)[0]
