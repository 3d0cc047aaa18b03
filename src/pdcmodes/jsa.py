"""Joint spectral amplitude on a detuning grid and its Schmidt-mode structure.

The two-photon amplitude for a degenerate source is sampled on a square,
symmetric grid of signal detunings Ω (rad/s):

    J(Ω₁, Ω₂) = α̃(Ω₁+Ω₂) · exp(iΔ̃L/2) · sinc(Δ̃L/2)

with the dimensionless gain prefactor stripped off. α̃ is the pump spectral
amplitude normalized to ∫α̃ dΩ/2π = 1 (unit time-domain peak), the unique
convention under which the double-Gaussian closed forms used as test oracles
hold. :class:`JsaGrid` holds one array, the real envelope α̃·sinc times the
quadrature weight δΩ/2π; :func:`jsa_parts` gives the parts of the complex
entries above, for export. The Schmidt decomposition acts on the envelope,
i.e. with the propagation chirp exp(iΔ̃L/2) removed. That chirp is a
reference-plane artifact of writing the interaction from the crystal input
face; keeping it would fold pump-dispersion phase into the mode functions
and inflate the mode count without changing any generated-light observable
derived here.

Singular values are normalized to Σ s_n² = 1; the pre-normalization weight
∬|J|² dΩ₁dΩ₂/(2π)² is kept as ``raw_norm`` so shape efficiencies and gain
parameters can be reconstructed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import phasematch as _phasematch
from ._record import Record
from .constants import DEFAULT_GRID_POINTS, c
from .dispersion import _is_real, _um_rad_s
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
    "jsa_parts",
    "schmidt_decompose",
    "jsa_efficiency",
]

_MIN_GRID_POINTS = 64

# Working set of the JSA → Schmidt pipeline per grid cell: the peak RSS of
# squeezing_spectrum at n = 1024 above the interpreter's own, (111 − 30) MB
# over 1024² cells. Grids whose estimate exceeds the budget are refused
# before anything is allocated.
_BYTES_PER_CELL = 77
_GRID_BUDGET_BYTES = 8 * 2 ** 30

# Grid rows per block of JSA assembly: no stage of the Sellmeier → Δ̃ →
# α̃·sinc chain sees more than _BLOCK_ROWS·n cells at once, so the kernel is
# the only n² array that compute_jsa allocates. Counted in rows, so that a
# block stays a small share of the grid at every n ≥ 256; blocks of 8 to 128
# rows take the same time within noise at n = 512–2048 (2 vCPUs).
_BLOCK_ROWS = 64

# |sinc(x)| stays above 0.05 for |x| < 20; used to size the default grid
_SINC_SUPPORT_X = 20.0


def sinc(x):
    """sin(x)/x with the removable singularity expanded below |x| = 1e-8."""
    # Not one np.where expression: that form gives the same bits but builds
    # both branches over every cell; over the 1024² cells of an n = 1024 grid
    # in 64-row blocks it took 53 ms against 37 ms for this one (median of
    # 30, Intel Xeon, one thread).
    arr = np.asarray(x, dtype=float)
    # out= keeps a 0-d result an array, so that the mask can write into it
    small = np.abs(arr) < 1e-8
    out = np.sin(arr, out=np.empty_like(arr))
    with np.errstate(invalid="ignore"):  # 0/0 at x = 0, overwritten below
        out /= arr
    tiny = arr[small]
    out[small] = 1.0 - tiny * tiny / 6.0
    if np.isscalar(x):
        return float(out)
    return out


class PumpPulse(Record):
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
            value = getattr(self, name)
            if not _is_real(value) or not math.isfinite(value):
                raise ValidationError(
                    f"pump {name} must be a finite number, got {value!r}")
            if not value > 0:
                raise ValidationError(f"pump {name} must be > 0, got {value}")
        # pump_spectral_amplitude divides by 4σ₊², which must be a normal float
        try:
            scale = 4.0 * self.sigma_plus_rad_s ** 2
        except (ZeroDivisionError, OverflowError):   # λ² underflows, σ₊² overflows
            scale = math.inf
        if not sys.float_info.min <= scale < math.inf:
            raise DomainError(
                f"pump bandwidth_fwhm_nm = {self.bandwidth_fwhm_nm:g} at "
                f"{self.wavelength_um:g} µm gives a spectral width whose "
                "square leaves the float range")

    @property
    def sigma_plus_rad_s(self) -> float:
        lam_m = self.wavelength_um * 1e-6
        dlam_m = self.bandwidth_fwhm_nm * 1e-9
        return math.pi * c * dlam_m / (lam_m ** 2 * math.sqrt(2.0 * math.log(2.0)))


class FrequencyGrid(Record):
    """Square detuning grid, symmetric about zero on both axes."""

    n: int
    omega_max_rad_s: float

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValidationError(
                f"grid points per axis must be an integer, got {self.n!r}")
        if self.n < _MIN_GRID_POINTS:
            raise ValidationError(
                f"grid needs at least {_MIN_GRID_POINTS} points per axis, got {self.n}")
        need = self.n ** 2 * _BYTES_PER_CELL
        if need > _GRID_BUDGET_BYTES:
            raise ValidationError(
                f"a grid of {self.n} points per axis needs about "
                f"{need / 2 ** 30:.1f} GiB, above the "
                f"{_GRID_BUDGET_BYTES / 2 ** 30:g} GiB budget")
        if not _is_real(self.omega_max_rad_s) \
                or not math.isfinite(self.omega_max_rad_s):
            raise ValidationError(
                f"grid omega_max_rad_s must be a finite number, got "
                f"{self.omega_max_rad_s!r}")
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
    # an exponent below the float range is -inf, and exp(-inf) = 0 is the tail's value
    with np.errstate(over="ignore"):
        amplitude = np.exp(-np.square(om) / (4.0 * sig ** 2)) * (math.sqrt(math.pi) / sig)
    if np.isscalar(omega_rad_s):
        return float(amplitude)
    return amplitude


def _check_extent(config: PdcConfig, extent: float, cause: str) -> None:
    """Refuse a per-axis grid extent (rad/s) that the JSA cannot evaluate.

    The extent must stay below the signal frequency ω_s, so that every
    sampled frequency is positive, and both bands the JSA evaluates, the
    signal's ω_s ± extent and the pump's ω_p ± 2·extent, must lie in the
    crystal's valid range. ``cause`` names what set the extent; each
    ``DomainError`` message begins with it.
    """
    omega_s, omega_p = config.omega_s_rad_s, config.omega_p_rad_s
    if not extent < omega_s:
        raise DomainError(
            f"{cause} reaches {extent:.4g} rad/s from the signal frequency "
            f"ω_s = {omega_s:.4g} rad/s, past zero frequency")
    # the grid's end frequencies, with the bits of phase_mismatch's sums
    # (2·extent is exact), and their wavelengths by wavevector_at_omega's
    # conversion: an extent is refused here exactly when its evaluation
    # would leave the valid range
    lo, hi = config.crystal.valid_range_um
    for band, omegas in (("signal", (omega_s - extent, omega_s + extent)),
                         ("pump", (omega_p - 2.0 * extent, omega_p + 2.0 * extent))):
        for omega in omegas:
            lam_um = _um_rad_s(omega)
            if not lo <= lam_um <= hi:
                raise DomainError(
                    f"{cause} takes the {band} to {lam_um:.6g} µm, outside "
                    f"the valid range [{lo:g}, {hi:g}] µm of crystal "
                    f"{config.crystal.name!r}")


def default_grid(config: PdcConfig, pump: PumpPulse,
                 n: int = DEFAULT_GRID_POINTS) -> FrequencyGrid:
    """Grid sized to hold both the pump ridge and the phase-matching band.

    Per-axis extent is the larger of 4·√2·σ₊ (pump support) and
    sqrt(2·_SINC_SUPPORT_X / (k_s″·L/2))/√2, the |sinc| > 0.05 reach along
    the Ω₋ diagonal projected onto one axis. The extent is independent of
    ``n``. An extent that reaches past ω_s, or takes a band the JSA
    evaluates out of the crystal's valid range, is refused with a
    ``DomainError`` naming the crystal length or the pump bandwidth,
    whichever sets it.
    """
    pump_extent = 4.0 * math.sqrt(2.0) * pump.sigma_plus_rad_s
    extent = pump_extent
    ks2 = config.central[1][2]   # the signal's k″
    too_short = f"crystal length {config.length_m:g} m is too short"
    if ks2 != 0.0:
        # |Δ̃|·L/2 ≈ (k_s″/2)Ω₋²·L/2 = _SINC_SUPPORT_X at the band edge
        reach = abs(ks2) * config.length_m
        if not reach > 4.0 * _SINC_SUPPORT_X / sys.float_info.max:
            raise DomainError(
                f"{too_short}: its phase-matching band is beyond the float range")
        omega_minus_max = math.sqrt(4.0 * _SINC_SUPPORT_X / reach)
        extent = max(extent, omega_minus_max / math.sqrt(2.0))
    cause = (too_short if extent > pump_extent else
             f"pump bandwidth_fwhm_nm = {pump.bandwidth_fwhm_nm:g} is too wide")
    _check_extent(config, extent, f"{cause}: the grid it needs")
    return FrequencyGrid(n=n, omega_max_rad_s=extent)


# JsaGrid and SchmidtDecomposition stay dataclasses: perfbench/spans.py
# counts the bytes of a returned record's arrays through __dataclass_fields__
@dataclass(frozen=True, kw_only=True)
class JsaGrid:
    """Sampled two-photon amplitude, held as its Schmidt kernel on ``grid``.

    ``kernel[i, j]`` = α̃(Ωᵢ+Ωⱼ)·sinc(x)·δΩ/2π with x = Δ̃(Ωᵢ,Ωⱼ)·L/2, the
    chirp-free envelope with the quadrature weight folded in: the matrix
    whose singular values are the Schmidt coefficients, read-only.
    """

    kernel: np.ndarray
    grid: FrequencyGrid


def _abs_real_imag(x, envelope):
    """|J|, Re J and Im J of one block of J = α̃·sinc(x)·exp(i·x); the
    modulus is the complex one, which np.hypot of the parts is not."""
    values = envelope * np.exp(1j * x)
    return np.abs(values), values.real, values.imag


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _weight(grid: FrequencyGrid) -> float:
    """The quadrature weight δΩ/2π of one grid step."""
    return grid.step_rad_s / (2.0 * math.pi)


def _assemble(config: PdcConfig, pump: PumpPulse, grid: FrequencyGrid, parts):
    """The n × n arrays that ``parts(x, α̃(Ωᵢ+Ωⱼ)·sinc(x))`` returns blocks
    of, with x = Δ̃(Ωᵢ, Ωⱼ)·L/2, evaluated on the upper triangle only.

    Each block of ``_BLOCK_ROWS`` grid rows starts at its own diagonal and
    fills its mirror with a transposed copy. Every factor of a cell is a
    function of Ωᵢ+Ωⱼ or a commuted sum of per-axis terms, so a cell and
    its mirror have the same bits, and each array equals the one filled
    row block by row block over whole rows.

    The pump record must agree with the design's pump wavelength, the
    grid's extent must pass ``_check_extent``, and the grid step h must
    resolve the pump ridge: α̃(Ωᵢ+Ωⱼ) has the standard deviation √2·σ₊
    along Ω₊, where one grid step moves Ωᵢ+Ωⱼ by h.
    """
    if not math.isclose(pump.wavelength_um, config.pump_wavelength_um,
                        rel_tol=1e-12):
        raise ValidationError(
            f"pump record wavelength {pump.wavelength_um:g} µm does not match "
            f"the design pump wavelength {config.pump_wavelength_um:g} µm")
    _check_extent(config, grid.omega_max_rad_s,
                  f"grid omega_max_rad_s = {grid.omega_max_rad_s:g} rad/s")
    sig, step = pump.sigma_plus_rad_s, grid.step_rad_s
    if step > math.sqrt(2.0) * sig:
        ratio = 2.0 * grid.omega_max_rad_s / (math.sqrt(2.0) * sig)
        n_min = math.ceil(ratio) + 1 if ratio < math.inf else ratio
        raise DomainError(
            f"the grid does not resolve the pump ridge: its step h = "
            f"{step:.4g} rad/s exceeds √2·σ₊, with σ₊ = {sig:.4g} rad/s; "
            f"this extent needs at least n = {n_min:g} points per axis")
    om, n = grid.detunings(), grid.n
    arrays = None
    # the last, smallest block first: with the block temporaries growing,
    # a process that repeats the pipeline kept the peak RSS of the
    # full-row assembly; with them shrinking it kept about 2 MiB more heap
    for start in reversed(range(0, n, _BLOCK_ROWS)):
        rows, cols = slice(start, start + _BLOCK_ROWS), slice(start, n)
        delta = _phasematch.phase_mismatch(config, om[rows, None], om[None, cols])
        try:
            with np.errstate(over="raise"):
                x = delta * (config.length_m / 2.0)
        except FloatingPointError:
            raise DomainError(
                f"crystal length {config.length_m:g} m is too long: its phase "
                "Δ̃·L/2 on the grid leaves the float range") from None
        envelope = pump_spectral_amplitude(pump, om[rows, None] + om[None, cols]) * sinc(x)
        blocks = parts(x, envelope)
        if arrays is None:
            arrays = [np.empty((n, n)) for _ in blocks]
        for array, block in zip(arrays, blocks):
            array[rows, cols] = block
            array[cols, rows] = block.T
    return [_frozen(array) for array in arrays]


def compute_jsa(config: PdcConfig, pump: PumpPulse, grid: FrequencyGrid) -> JsaGrid:
    """Sample the normalized JSA for a design on a grid.

    The pump record must agree with the design's pump wavelength, the
    grid must stay below ω_s with its signal and pump bands in the
    crystal's valid range, and the grid step must be at most √2·σ₊, one
    step per standard deviation of the pump ridge (``DomainError``
    otherwise). Exact (i, j) ↔ (j, i) symmetry holds by construction:
    every factor is a function of Ωᵢ+Ωⱼ or a symmetrized sum of per-axis
    terms, so only the upper triangle is evaluated.
    """
    weight = _weight(grid)
    kernel, = _assemble(config, pump, grid, lambda x, envelope: (envelope * weight,))
    return JsaGrid(kernel=kernel, grid=grid)


def jsa_parts(config: PdcConfig, pump: PumpPulse,
              grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|J|, Re J and Im J of J(Ωᵢ, Ωⱼ) = α̃(Ωᵢ+Ωⱼ)·exp(i·x)·sinc(x), with
    the propagation chirp, as three read-only real n × n arrays (24 bytes
    per cell), refusing what ``compute_jsa`` refuses.

    Each part is taken from one complex block at a time, so the complex
    n × n array is never built, and each part has the bits of the part of
    that array.
    """
    return tuple(_assemble(config, pump, grid, _abs_real_imag))


@dataclass(frozen=True, kw_only=True)
class SchmidtDecomposition:
    """Normalized Schmidt spectrum of a sampled JSA.

    ``s`` are singular values normalized to Σ s_n² = 1, descending.
    ``u`` holds the kernel's left singular vectors as its columns, as
    ``np.linalg.svd`` returns them, and ``grid`` is the grid they sample.
    ``modes`` is computed from the two when it is read. ``raw_norm`` is
    ∬|J|² dΩ₁dΩ₂/(2π)².
    """

    s: np.ndarray
    u: np.ndarray
    grid: FrequencyGrid
    schmidt_number: float
    raw_norm: float

    @property
    def modes(self) -> np.ndarray:
        """``modes[n]`` samples ψ_n on the grid, orthonormal under
        Σ ψ_m ψ_n* δΩ/2π = δ_mn, its largest-magnitude sample positive.

        Built anew on each access (8 bytes per cell), so that the
        decompositions whose modes are never read (squeezing budgets,
        length scans) do not weight and sign them.
        """
        modes = (self.u / math.sqrt(_weight(self.grid))).T
        # deterministic sign: largest-magnitude sample of each mode is positive;
        # |modes| in C order, so that argmax along a row copies nothing
        peak = np.argmax(np.abs(modes, out=np.empty(modes.shape)), axis=1)
        signs = np.sign(modes[np.arange(modes.shape[0]), peak])
        signs[signs == 0] = 1.0
        modes *= signs[:, None]
        return _frozen(modes)


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
    with np.errstate(over="ignore"):   # an overflow is reported below
        raw_norm = float(np.sum(sv ** 2))
    if not sys.float_info.min <= raw_norm < math.inf:
        fault = "overflows" if raw_norm == math.inf else "underflows"
        raise DomainError(
            f"the JSA norm ∬|J|² = Σs² {fault} the float range ({raw_norm:g}): "
            "the crystal length or the pump bandwidth is too extreme")
    s = sv / math.sqrt(raw_norm)
    k = 1.0 / float(np.sum(s ** 4))
    return SchmidtDecomposition(s=_frozen(s), u=_frozen(u), grid=jsa.grid,
                                schmidt_number=k, raw_norm=raw_norm)


def jsa_efficiency(decomp: SchmidtDecomposition) -> float:
    """Shape efficiency η = s₀²·∬|J|² dΩ₁dΩ₂/(2π)² of the dominant mode."""
    return float(decomp.s[0] ** 2 * decomp.raw_norm)
