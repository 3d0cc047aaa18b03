"""Joint spectral amplitude on a detuning grid and its Schmidt-mode structure.

The two-photon amplitude for a degenerate source is sampled on a square,
symmetric grid of signal detunings Ω (rad/s):

    J(Ω₁, Ω₂) = α̃(Ω₁+Ω₂) · exp(iΔ̃L/2) · sinc(Δ̃L/2)

with the dimensionless gain prefactor stripped off. α̃ is the pump spectral
amplitude normalized to ∫α̃ dΩ/2π = 1 (unit time-domain peak), the unique
convention under which the double-Gaussian closed forms used as test oracles
hold. :class:`JsaGrid` holds one array, the real envelope α̃·sinc times the
quadrature weight δΩ/2π, and recomputes the complex entries above only when
they are read. The Schmidt decomposition acts on the envelope, i.e. with the
propagation chirp exp(iΔ̃L/2) removed. That chirp is a reference-plane
artifact of writing the interaction from the crystal input face; keeping it
would fold pump-dispersion phase into the mode functions and inflate the
mode count without changing any generated-light observable derived here.

Singular values are normalized to Σ s_n² = 1; the pre-normalization weight
∬|J|² dΩ₁dΩ₂/(2π)² is kept as ``raw_norm`` so shape efficiencies and gain
parameters can be reconstructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dispersion as _dispersion
from . import phasematch as _phasematch
from .constants import DEFAULT_GRID_POINTS, c
from .errors import DomainError, ValidationError
from .phasematch import PdcConfig

__all__ = [
    "PumpPulse",
    "FrequencyGrid",
    "JsaGrid",
    "SchmidtDecomposition",
    "sinc",
    "pump_spectral_amplitude",
    "default_grid",
    "compute_jsa",
    "schmidt_decompose",
    "jsa_efficiency",
    "double_gaussian_jsa",
    "double_gaussian_analytics",
]

_MIN_GRID_POINTS = 64

# Working set of the JSA → Schmidt pipeline per grid cell: the peak RSS of
# squeezing_spectrum at n = 1024 above the interpreter's own, (111 − 30) MB
# over 1024² cells. Grids whose estimate exceeds the budget are refused
# before anything is allocated.
_BYTES_PER_CELL = 77
_GRID_BUDGET_BYTES = 8 * 2 ** 30

# |sinc(x)| stays above 0.05 for |x| < 20; used to size the default grid
_SINC_SUPPORT_X = 20.0


def sinc(x):
    """sin(x)/x with the removable singularity expanded below |x| = 1e-8."""
    arr = np.asarray(x, dtype=float)
    # the mask first, so that its |x| temporary is freed before `out` exists;
    # out= keeps a 0-d result an array that can be written in place
    small = np.abs(arr) < 1e-8
    out = np.sin(arr, out=np.empty_like(arr))
    with np.errstate(invalid="ignore"):  # 0/0 at x = 0, overwritten below
        out /= arr
    tiny = arr[small]
    out[small] = 1.0 - tiny * tiny / 6.0
    if np.isscalar(x):
        return float(out)
    return out


@dataclass(frozen=True)
class PumpPulse:
    """Transform-limited Gaussian pump pulse.

    ``bandwidth_fwhm_nm`` is the FWHM of the spectral *intensity*; the
    derived ``sigma_plus_rad_s`` is the standard deviation of the intensity
    spectrum in angular frequency, which is also the amplitude width of
    the pump factor along the Ω₊ diagonal of the JSA.
    """

    wavelength_um: float
    bandwidth_fwhm_nm: float
    mean_power_w: float
    rep_rate_hz: float

    def __post_init__(self):
        for name in ("wavelength_um", "bandwidth_fwhm_nm",
                     "mean_power_w", "rep_rate_hz"):
            if not getattr(self, name) > 0:
                raise ValidationError(
                    f"pump {name} must be > 0, got {getattr(self, name)}")

    @property
    def sigma_plus_rad_s(self) -> float:
        lam_m = self.wavelength_um * 1e-6
        dlam_m = self.bandwidth_fwhm_nm * 1e-9
        return math.pi * c * dlam_m / (lam_m ** 2 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class FrequencyGrid:
    """Square detuning grid, symmetric about zero on both axes."""

    n: int
    omega_max_rad_s: float

    def __post_init__(self):
        if self.n < _MIN_GRID_POINTS:
            raise ValidationError(
                f"grid needs at least {_MIN_GRID_POINTS} points per axis, got {self.n}")
        need = self.n ** 2 * _BYTES_PER_CELL
        if need > _GRID_BUDGET_BYTES:
            raise ValidationError(
                f"a grid of {self.n} points per axis needs about "
                f"{need / 2 ** 30:.1f} GiB, above the "
                f"{_GRID_BUDGET_BYTES / 2 ** 30:g} GiB budget")
        if not self.omega_max_rad_s > 0:
            raise ValidationError(
                f"grid extent must be > 0, got {self.omega_max_rad_s}")

    @property
    def step_rad_s(self) -> float:
        return 2.0 * self.omega_max_rad_s / (self.n - 1)

    def detunings(self) -> np.ndarray:
        """The Ω samples (rad/s), identical for both axes."""
        return np.linspace(-self.omega_max_rad_s, self.omega_max_rad_s, self.n)


def pump_spectral_amplitude(pump: PumpPulse, omega_rad_s):
    """Normalized pump amplitude α̃(Ω) in seconds, ∫α̃ dΩ/2π = 1."""
    sig = pump.sigma_plus_rad_s
    om = np.asarray(omega_rad_s, dtype=float)
    # (√π/σ)·exp(−Ω²/(4σ²)) in place, in that operation order
    out = np.square(om, out=np.empty_like(om))
    np.negative(out, out=out)
    out /= 4.0 * sig ** 2
    np.exp(out, out=out)
    out *= math.sqrt(math.pi) / sig
    if np.isscalar(omega_rad_s):
        return float(out)
    return out


def default_grid(config: PdcConfig, pump: PumpPulse,
                 n: int = DEFAULT_GRID_POINTS) -> FrequencyGrid:
    """Grid sized to hold both the pump ridge and the phase-matching band.

    Per-axis extent is the larger of 4·√2·σ₊ (pump support) and
    sqrt(2·_SINC_SUPPORT_X / (k_s″·L/2))/√2, the |sinc| > 0.05 reach along
    the Ω₋ diagonal projected onto one axis. The extent is independent of
    ``n``.
    """
    sig = pump.sigma_plus_rad_s
    ks2 = _dispersion.k_double_prime(config.crystal, config.signal_axis,
                                     config.signal_wavelength_um,
                                     config.temperature_c)
    extent = 4.0 * math.sqrt(2.0) * sig
    if ks2 != 0.0:
        # |Δ̃|·L/2 ≈ (k_s″/2)Ω₋²·L/2 = _SINC_SUPPORT_X at the band edge
        omega_minus_max = math.sqrt(4.0 * _SINC_SUPPORT_X / (abs(ks2) * config.length_m))
        extent = max(extent, omega_minus_max / math.sqrt(2.0))
    return FrequencyGrid(n=n, omega_max_rad_s=extent)


@dataclass(frozen=True)
class JsaGrid:
    """Sampled two-photon amplitude, held as its Schmidt kernel.

    ``kernel[i, j]`` = α̃(Ωᵢ+Ωⱼ)·sinc(x)·δΩ/2π with x = Δ̃(Ωᵢ,Ωⱼ)·L/2, the
    chirp-free envelope with the quadrature weight folded in: the matrix
    whose singular values are the Schmidt coefficients, and the only array
    held. ``values`` is recomputed from ``config``, ``pump`` and ``grid``
    on each access, by the expressions that built the kernel.
    ``config``/``pump`` are None for synthetic amplitudes. All arrays are
    read-only.
    """

    kernel: np.ndarray
    grid: FrequencyGrid
    config: PdcConfig | None = None
    pump: PumpPulse | None = None

    @property
    def values(self) -> np.ndarray:
        """``values[i, j]`` = α̃(Ωᵢ+Ωⱼ)·exp(i·x)·sinc(x).

        Built anew on each access (16 bytes per cell), since only the
        exported grid reads it. Synthetic amplitudes carry no chirp: their
        values are the kernel over δΩ/2π.
        """
        if self.config is None:
            return _frozen((self.kernel / _weight(self.grid)).astype(complex))
        x = _half_phase(self.config, self.grid)
        return _frozen(_envelope(self.pump, self.grid, x) * np.exp(1j * x))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _weight(grid: FrequencyGrid) -> float:
    """The quadrature weight δΩ/2π of one grid step."""
    return grid.step_rad_s / (2.0 * math.pi)


def _half_phase(config: PdcConfig, grid: FrequencyGrid) -> np.ndarray:
    """x = Δ̃(Ωᵢ, Ωⱼ)·L/2 on the grid, scaled in place."""
    om = grid.detunings()
    x = _phasematch.phase_mismatch(config, om[:, None], om[None, :])
    x *= config.length_m / 2.0
    return x


def _envelope(pump: PumpPulse, grid: FrequencyGrid, x: np.ndarray) -> np.ndarray:
    """α̃(Ωᵢ+Ωⱼ)·sinc(x) as a new array."""
    om = grid.detunings()
    envelope = pump_spectral_amplitude(pump, om[:, None] + om[None, :])
    envelope *= sinc(x)
    return envelope


def compute_jsa(config: PdcConfig, pump: PumpPulse, grid: FrequencyGrid) -> JsaGrid:
    """Sample the normalized JSA for a design on a grid.

    The pump record must agree with the design's pump wavelength. Exact
    (i, j) ↔ (j, i) symmetry holds by construction: every factor is a
    function of Ωᵢ+Ωⱼ or a symmetrized sum of per-axis terms.
    """
    if not math.isclose(pump.wavelength_um, config.pump_wavelength_um,
                        rel_tol=1e-12):
        raise ValidationError(
            f"pump record wavelength {pump.wavelength_um:g} µm does not match "
            f"the design pump wavelength {config.pump_wavelength_um:g} µm")
    # x is freed once the envelope holds α̃·sinc(x); the weight goes in place
    kernel = _envelope(pump, grid, _half_phase(config, grid))
    kernel *= _weight(grid)
    return JsaGrid(kernel=_frozen(kernel), grid=grid, config=config, pump=pump)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Normalized Schmidt spectrum of a sampled JSA.

    ``s`` are singular values normalized to Σ s_n² = 1, descending.
    ``modes[n]`` samples ψ_n on the grid, orthonormal under
    Σ ψ_m ψ_n* δΩ/2π = δ_mn. ``raw_norm`` is ∬|J|² dΩ₁dΩ₂/(2π)².
    """

    s: np.ndarray
    modes: np.ndarray
    schmidt_number: float
    raw_norm: float


def schmidt_decompose(jsa: JsaGrid) -> SchmidtDecomposition:
    """Singular-value decomposition of the (chirp-free) JSA envelope.

    The decomposed matrix is ``jsa.kernel``, which has the quadrature
    weight δΩ/2π folded in, so the singular values approximate the
    continuous Schmidt coefficients and the mode functions carry the
    continuous normalization.
    """
    matrix = jsa.kernel
    if not np.all(np.isfinite(matrix)):
        raise DomainError("JSA contains non-finite entries")
    if not np.any(matrix):
        raise DomainError("JSA is identically zero; nothing to decompose")
    u, sv = np.linalg.svd(matrix)[:2]   # V† (= U up to signs) is dropped
    raw_norm = float(np.sum(sv ** 2))
    s = sv / math.sqrt(raw_norm)
    k = 1.0 / float(np.sum(s ** 4))
    u /= math.sqrt(_weight(jsa.grid))
    modes = u.T
    # deterministic sign: largest-magnitude sample of each mode is positive;
    # |modes| in C order, so that argmax along a row copies nothing
    peak = np.argmax(np.abs(modes, out=np.empty(modes.shape)), axis=1)
    signs = np.sign(modes[np.arange(modes.shape[0]), peak])
    signs[signs == 0] = 1.0
    modes *= signs[:, None]
    return SchmidtDecomposition(s=_frozen(s), modes=_frozen(modes),
                                schmidt_number=k, raw_norm=raw_norm)


def jsa_efficiency(decomp: SchmidtDecomposition) -> float:
    """Shape efficiency η = s₀²·∬|J|² dΩ₁dΩ₂/(2π)² of the dominant mode."""
    return float(decomp.s[0] ** 2 * decomp.raw_norm)


def double_gaussian_jsa(omega_p_rad_s: float, r_ratio: float,
                        grid: FrequencyGrid) -> JsaGrid:
    """Analytic double-Gaussian amplitude used as a decomposition oracle.

    Widths are ``omega_p_rad_s`` along Ω₊ and ``r_ratio``× that along Ω₋
    (amplitude standard deviations in the rotated frame); the Ω₊ factor is
    the normalized pump amplitude of matching width, so ``raw_norm`` of the
    decomposition equals R/4. The grid should cover at least four standard
    deviations in both rotated directions.
    """
    if not omega_p_rad_s > 0:
        raise DomainError(f"width must be > 0, got {omega_p_rad_s}")
    if r_ratio < 1.0:
        raise DomainError(f"aspect ratio must be ≥ 1, got {r_ratio}")
    om = grid.detunings()
    total = om[:, None] + om[None, :]
    diff = om[:, None] - om[None, :]
    kernel = ((math.sqrt(math.pi) / omega_p_rad_s)
              * np.exp(-total ** 2 / (4.0 * omega_p_rad_s ** 2))
              * np.exp(-diff ** 2 / (4.0 * (r_ratio * omega_p_rad_s) ** 2)))
    kernel *= _weight(grid)
    return JsaGrid(kernel=_frozen(kernel), grid=grid)


def double_gaussian_analytics(r_ratio: float) -> tuple[float, float]:
    """Closed-form (K, η) of the double Gaussian with aspect ratio R ≥ 1.

        K = (1 + R²)/(2R),   η = R²/(1 + R)²
    """
    if r_ratio < 1.0:
        raise DomainError(f"aspect ratio must be ≥ 1, got {r_ratio}")
    k = (1.0 + r_ratio ** 2) / (2.0 * r_ratio)
    eta = r_ratio ** 2 / (1.0 + r_ratio) ** 2
    return k, eta
