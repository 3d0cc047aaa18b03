"""Temperature-dependent crystal dispersion from Sellmeier coefficient data.

Crystals are described by data files (one YAML document per crystal) holding
per-axis Sellmeier coefficient sets; see ``load_crystal``. All evaluation is
pure: a loaded :class:`CrystalModel` is immutable and safe to share between
threads.

Units at the public boundary are the conventional ones for this domain
(wavelength in µm, temperature in °C, GVD in ps²/m); wavevector derivatives
used internally by the phase-matching and JSA modules are plain SI (s/m,
s²/m, rad/m at angular frequency rad/s).

Derivatives of k(ω) are closed-form: each functional form supplies analytic
dn/dλ and d²n/dλ², converted via

    group index  m = c·dk/dω = n − λ·dn/dλ
    GVD          k″ = d²k/dω² = λ³/(2πc²)·d²n/dλ²

so no finite-difference step tuning enters the library (a finite-difference
cross-check lives in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np
import yaml
from importlib import resources

from .constants import c
from .errors import DomainError, ValidationError

__all__ = [
    "GayerTwoPole",
    "StandardSellmeier",
    "CrystalModel",
    "load_crystal",
    "load_crystal_file",
    "load_bundled_crystal",
    "bundled_crystal_path",
    "refractive_index",
    "wavevector",
    "group_index",
    "gvd",
    "wavevector_at_omega",
    "k_prime",
    "k_double_prime",
]

UNIAXIAL_AXES = ("o", "e")
BIAXIAL_AXES = ("x", "y", "z")

_ABSOLUTE_ZERO_C = -273.15

# temperatures (°C) at which the poles and the n > 1 invariant are checked
# on load
_VALIDATION_TEMPS = (0.0, 100.0, 200.0)
_VALIDATION_SAMPLES = 64


def _finite_float(value) -> float | None:
    """``value`` as a finite float, or None when it is no such number.

    The one number rule of crystal and run-configuration files: an int, a
    float, or numeric text as ``float`` reads it, such as ``1.2e1``, which
    YAML 1.1 reads as a string. A bool is not a number here.
    """
    if isinstance(value, bool):
        return None
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if math.isfinite(number) else None


def _number(value, context: str) -> float:
    """``value`` as a finite float; anything else is a ValidationError
    naming ``context``."""
    number = _finite_float(value)
    if number is None:
        raise ValidationError(f"{context} must be a finite number, got {value!r}")
    return number


def _coefficient_list(value, context: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{context} must be a list of numbers, got {value!r}")
    return tuple(_number(v, context) for v in value)


def _require_keys(mapping: Mapping, required: tuple, context: str) -> None:
    missing = [k for k in required if k not in mapping]
    unknown = [k for k in mapping if k not in required]
    if missing:
        raise ValidationError(f"{context}: missing coefficient(s) {missing}")
    if unknown:
        raise ValidationError(f"{context}: unknown coefficient(s) {unknown}")


def _not_finite(t_c) -> DomainError:
    return DomainError(
        f"gayer_two_pole: the index is not finite at {t_c:g} °C; the "
        "crystal's coefficients do not extend to this temperature")


def _check_finite(t_c, value) -> None:
    """A DomainError unless every number in ``value`` is finite: an
    evaluation at t_c that overflows or meets a pole is no index."""
    if not (np.isfinite(value).all() if isinstance(value, np.ndarray)
            else math.isfinite(value)):
        raise _not_finite(t_c)


class GayerTwoPole:
    """Two-pole Sellmeier with a quadratic temperature parameter.

        n² = a1 + b1·f + (a2 + b2·f)/(λ² − (a3 + b3·f)²)
           + (a4 + b4·f)/(λ² − a5²) − a6·λ²,
        f  = (T − T0)·(T + T0 + 2·273.16)

    The form used by Gayer et al., Appl. Phys. B 91, 343 (2008) for
    MgO-doped congruent lithium niobate; T0 is the reference temperature
    (`t_ref_c`, 24.5 °C for that data set).
    """

    form = "gayer_two_pole"
    _KEYS = ("a1", "a2", "a3", "a4", "a5", "a6",
             "b1", "b2", "b3", "b4", "t_ref_c")

    def __init__(self, **coeffs: float):
        _require_keys(coeffs, self._KEYS, "gayer_two_pole")
        for key in self._KEYS:
            setattr(self, key, _number(coeffs[key], f"gayer_two_pole: {key}"))

    def _f(self, t_c):
        return (t_c - self.t_ref_c) * (t_c + self.t_ref_c + 2.0 * 273.16)

    def _poles_um(self, t_c):
        """The wavelengths (µm) at which n² has a pole at T = t_c."""
        return abs(self.a3 + self.b3 * self._f(t_c)), abs(self.a5)

    def _terms(self, t_c):
        """The temperature-dependent scalars at T = t_c (a scalar):
        a1 + b1·f, a2 + b2·f, (a3 + b3·f)², a4 + b4·f and a5²."""
        f = self._f(t_c)
        try:
            terms = (self.a1 + self.b1 * f, self.a2 + self.b2 * f,
                     (self.a3 + self.b3 * f) ** 2, self.a4 + self.b4 * f,
                     self.a5 ** 2)
        except OverflowError:  # a float ** 2 beyond the float range
            raise _not_finite(t_c) from None
        if not all(map(math.isfinite, terms)):
            raise _not_finite(t_c)
        return terms

    def n_squared(self, lam_um, t_c):
        c1, c2, q1, c4, q2 = self._terms(t_c)
        lam2 = np.square(lam_um)
        # an overflow or a pole is caught below as a non-finite value
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            value = c1 + c2 / (lam2 - q1) + c4 / (lam2 - q2) - self.a6 * lam2
        _check_finite(t_c, value)
        return value

    def dn2_dlam(self, lam_um, t_c):
        _, c2, q1, c4, q2 = self._terms(t_c)
        lam2 = np.square(lam_um)
        d1 = lam2 - q1
        d2 = lam2 - q2
        value = -2.0 * lam_um * (c2 / d1 ** 2 + c4 / d2 ** 2 + self.a6)
        _check_finite(t_c, value)
        return value

    def d2n2_dlam2(self, lam_um, t_c):
        _, c2, q1, c4, q2 = self._terms(t_c)
        lam2 = np.square(lam_um)
        d1 = lam2 - q1
        d2 = lam2 - q2
        value = (c2 * (6.0 * lam2 + 2.0 * q1) / d1 ** 3
                 + c4 * (6.0 * lam2 + 2.0 * q2) / d2 ** 3
                 - 2.0 * self.a6)
        _check_finite(t_c, value)
        return value

    def n(self, lam_um, t_c):
        return np.sqrt(self.n_squared(lam_um, t_c))

    def dn_dlam(self, lam_um, t_c):
        g = self.n_squared(lam_um, t_c)
        return self.dn2_dlam(lam_um, t_c) / (2.0 * np.sqrt(g))

    def d2n_dlam2(self, lam_um, t_c):
        g = self.n_squared(lam_um, t_c)
        gp = self.dn2_dlam(lam_um, t_c)
        gpp = self.d2n2_dlam2(lam_um, t_c)
        return gpp / (2.0 * np.sqrt(g)) - gp * gp / (4.0 * g ** 1.5)


class StandardSellmeier:
    """Classic pole-sum Sellmeier with an optional linear thermo-optic term.

        n²(λ) = a + Σᵢ bᵢ·λ²/(λ² − cᵢ) − d·λ²
        n(λ, T) = n(λ) + dn_dt·(T − t_ref_c)

    Suitable for user-supplied crystals whose published data come as
    B/C pole pairs plus a dn/dT coefficient.
    """

    form = "sellmeier_standard"
    _KEYS = ("a", "b", "c", "d", "dn_dt", "t_ref_c")

    def __init__(self, **coeffs: float | list):
        _require_keys(coeffs, self._KEYS, "sellmeier_standard")
        self.a = _number(coeffs["a"], "sellmeier_standard: a")
        self.b = _coefficient_list(coeffs["b"], "sellmeier_standard: b")
        self.c = _coefficient_list(coeffs["c"], "sellmeier_standard: c")
        self.d = _number(coeffs["d"], "sellmeier_standard: d")
        self.dn_dt = _number(coeffs["dn_dt"], "sellmeier_standard: dn_dt")
        self.t_ref_c = _number(coeffs["t_ref_c"], "sellmeier_standard: t_ref_c")
        if len(self.b) != len(self.c):
            raise ValidationError(
                "sellmeier_standard: b and c pole lists differ in length")

    def _poles_um(self, t_c):
        """The wavelengths (µm) at which n² has a pole: √cᵢ for each cᵢ > 0."""
        return tuple(math.sqrt(ci) for ci in self.c if ci > 0)

    def _n_lam(self, lam_um):
        lam2 = np.square(lam_um)
        g = self.a - self.d * lam2
        for bi, ci in zip(self.b, self.c):
            g = g + bi * lam2 / (lam2 - ci)
        return np.sqrt(g)

    def n(self, lam_um, t_c):
        return self._n_lam(lam_um) + self.dn_dt * (t_c - self.t_ref_c)

    def n_squared(self, lam_um, t_c):
        return np.square(self.n(lam_um, t_c))

    def dn_dlam(self, lam_um, t_c):
        lam2 = np.square(lam_um)
        gp = -2.0 * self.d * lam_um
        for bi, ci in zip(self.b, self.c):
            gp = gp + bi * (-2.0 * lam_um * ci) / (lam2 - ci) ** 2
        return gp / (2.0 * self._n_lam(lam_um))

    def d2n_dlam2(self, lam_um, t_c):
        lam2 = np.square(lam_um)
        gp = -2.0 * self.d * lam_um
        gpp = -2.0 * self.d
        for bi, ci in zip(self.b, self.c):
            den = lam2 - ci
            gp = gp + bi * (-2.0 * lam_um * ci) / den ** 2
            gpp = gpp + 2.0 * bi * ci * (3.0 * lam2 + ci) / den ** 3
        nl = self._n_lam(lam_um)
        return gpp / (2.0 * nl) - gp * gp / (4.0 * nl ** 3)


# each form gives n, n², dn/dλ and d²n/dλ² at λ in µm and T in °C
_FORMS = {cls.form: cls for cls in (GayerTwoPole, StandardSellmeier)}

# temperature-model identifiers compatible with each functional form
_TEMPERATURE_MODELS = {
    "gayer_f_parameter": ("gayer_two_pole",),
    "linear_dn_dt": ("sellmeier_standard",),
    "none": ("sellmeier_standard",),
}


@dataclass(frozen=True)
class CrystalModel:
    """A named dispersion model: per-axis Sellmeier sets plus metadata.

    Immutable after load; every operation on it is a pure function.
    """

    name: str
    crystal_class: str                     # "uniaxial" | "biaxial"
    axes: Mapping[str, GayerTwoPole | StandardSellmeier]  # "o"/"e" or "x"/"y"/"z"
    temperature_model: str
    d_eff_pm_per_v: float
    valid_range_um: tuple[float, float]
    provenance: str = field(repr=False, default="")

    def axis(self, label: str) -> GayerTwoPole | StandardSellmeier:
        try:
            return self.axes[label]
        except KeyError:
            raise DomainError(
                f"axis {label!r} not defined for crystal {self.name!r}; "
                f"available: {sorted(self.axes)}") from None


_CRYSTAL_KEYS = ("name", "class", "sellmeier", "temperature_model",
                 "d_eff_pm_per_V", "valid_range_um", "provenance")


def load_crystal(data: str | Mapping) -> CrystalModel:
    """Parse and validate one crystal document (YAML text or mapping).

    Raises :class:`ValidationError` on schema violations or on coefficient
    sets that produce a non-physical index (n ≤ 1, poles, non-finite values)
    anywhere in the declared validity range at 0–200 °C.
    """
    doc = _load_yaml(data, "crystal file") if isinstance(data, str) else data
    if not isinstance(doc, Mapping):
        raise ValidationError("crystal file must contain a single mapping")

    unknown = [k for k in doc if k not in _CRYSTAL_KEYS]
    if unknown:
        raise ValidationError(f"crystal file: unknown key(s) {unknown}")
    missing = [k for k in _CRYSTAL_KEYS if k not in doc]
    if missing:
        raise ValidationError(f"crystal file: missing key(s) {missing}")

    name = str(doc["name"])
    crystal_class = str(doc["class"])
    if crystal_class == "uniaxial":
        allowed_axes = UNIAXIAL_AXES
    elif crystal_class == "biaxial":
        allowed_axes = BIAXIAL_AXES
    else:
        raise ValidationError(
            f"crystal class must be 'uniaxial' or 'biaxial', got {crystal_class!r}")

    rng = doc["valid_range_um"]
    lo = hi = None
    if isinstance(rng, (list, tuple)) and len(rng) == 2:
        lo, hi = map(_finite_float, rng)
    if lo is None or hi is None:
        raise ValidationError(
            f"valid_range_um must be a [lo, hi] pair of finite numbers in µm, got {rng!r}")
    if not (0.0 < lo < hi):
        raise ValidationError(
            f"valid_range_um must be a non-empty positive interval, got [{lo}, {hi}]")

    d_eff = _finite_float(doc["d_eff_pm_per_V"])
    if d_eff is None or not d_eff > 0:
        raise ValidationError(
            "d_eff_pm_per_V must be a finite number > 0, "
            f"got {doc['d_eff_pm_per_V']!r}")

    t_model = str(doc["temperature_model"])
    if t_model not in _TEMPERATURE_MODELS:
        raise ValidationError(
            f"unknown temperature_model {t_model!r}; "
            f"known: {sorted(_TEMPERATURE_MODELS)}")

    blocks = doc["sellmeier"]
    if not isinstance(blocks, Mapping) or not blocks:
        raise ValidationError("sellmeier must map at least one axis to a coefficient block")
    axes: dict[str, GayerTwoPole | StandardSellmeier] = {}
    for label, block in blocks.items():
        if label not in allowed_axes:
            raise ValidationError(
                f"axis label {label!r} invalid for a {crystal_class} crystal; "
                f"allowed: {list(allowed_axes)}")
        if not isinstance(block, Mapping) or set(block) != {"form", "coefficients"}:
            raise ValidationError(
                f"sellmeier block for axis {label!r} must have exactly "
                "'form' and 'coefficients'")
        form = str(block["form"])
        if form not in _FORMS:
            raise ValidationError(
                f"unknown sellmeier form {form!r}; known: {sorted(_FORMS)}")
        if form not in _TEMPERATURE_MODELS[t_model]:
            raise ValidationError(
                f"temperature_model {t_model!r} is incompatible with form {form!r}")
        coeffs = block["coefficients"]
        if not isinstance(coeffs, Mapping) or not all(isinstance(k, str) for k in coeffs):
            raise ValidationError(
                f"coefficients for axis {label!r} must be a mapping with text keys")
        axes[label] = _FORMS[form](**coeffs)

    model = CrystalModel(
        name=name,
        crystal_class=crystal_class,
        axes=MappingProxyType(axes),
        temperature_model=t_model,
        d_eff_pm_per_v=d_eff,
        valid_range_um=(lo, hi),
        provenance=str(doc["provenance"]),
    )
    _validate_physical(model)
    return model


def _validate_physical(model: CrystalModel) -> None:
    """Check that no pole lies in the validity range and that n is real,
    finite and > 1 across it, at each of _VALIDATION_TEMPS.

    The poles are found exactly; n is checked at sampled wavelengths.
    """
    lo, hi = model.valid_range_um
    lam = np.linspace(lo, hi, _VALIDATION_SAMPLES)
    for label, sell in model.axes.items():
        for t_c in _VALIDATION_TEMPS:
            for pole in sell._poles_um(t_c):
                if lo <= pole <= hi:
                    raise ValidationError(
                        f"crystal {model.name!r}, axis {label!r}: Sellmeier "
                        f"pole at {pole:.6g} µm inside the validity range "
                        f"[{lo}, {hi}] µm at {t_c} °C")
            try:
                with np.errstate(invalid="ignore", divide="ignore"):
                    n2 = np.asarray(sell.n_squared(lam, t_c), dtype=float)
            except DomainError:  # a non-finite or overflowing evaluation
                n2 = np.array(np.inf)
            if not np.all(np.isfinite(n2)) or np.any(n2 <= 0):
                raise ValidationError(
                    f"crystal {model.name!r}, axis {label!r}: n² is not finite "
                    f"and positive across [{lo}, {hi}] µm at {t_c} °C "
                    "(pole inside the validity range?)")
            n = np.sqrt(n2)
            if np.any(n <= 1.0):
                raise ValidationError(
                    f"crystal {model.name!r}, axis {label!r}: n ≤ 1 at "
                    f"{lam[np.argmin(n)]:.4g} µm, {t_c} °C "
                    f"(min n = {n.min():.6g})")


# libyaml's parser when PyYAML was built with it, else PyYAML's own. Both
# build the same documents; libyaml parses the bundled crystal in 0.37 ms
# against 3.2 ms.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(text: str, what: str):
    """The one YAML document in ``text``; a syntax error is a ValidationError
    naming ``what``."""
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ValidationError(f"{what} is not valid YAML: {exc}") from exc


def _read_utf8(path: str | Path, what: str) -> str:
    """Text of a UTF-8 file; other bytes are a ValidationError naming it.

    I/O errors propagate as OSError.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{what} {str(path)!r} is not UTF-8 text: {exc.reason} at byte "
            f"{exc.start}") from exc


def load_crystal_file(path: str | Path) -> CrystalModel:
    """Load a crystal data file from disk (I/O errors propagate as OSError)."""
    return load_crystal(_read_utf8(path, "crystal file"))


def bundled_crystal_path() -> Path:
    """Filesystem path of the crystal file shipped with the package."""
    return Path(resources.files("pdcmodes").joinpath("data/mgoln_5pct.yaml"))


def load_bundled_crystal() -> CrystalModel:
    """Load the crystal shipped with the package, 5% MgO:LN."""
    return load_crystal(bundled_crystal_path().read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# evaluation


def _check_range(crystal: CrystalModel, lam_um, temperature_c: float,
                 strict: bool) -> None:
    """A DomainError unless every wavelength lies in the crystal's valid
    range and the temperature lies above absolute zero."""
    # "not above" so that a NaN temperature is rejected too; no upper bound,
    # since a crystal file carries no fitted temperature range
    if not temperature_c > _ABSOLUTE_ZERO_C:
        raise DomainError(
            f"temperature {temperature_c:g} °C is not above absolute zero "
            f"({_ABSOLUTE_ZERO_C:g} °C)")
    lo, hi = crystal.valid_range_um
    lam = np.asarray(lam_um, dtype=float)
    # written as "not inside" so that NaN counts as out of range
    if strict:
        bad = ~((lam > lo) & (lam < hi))
    else:
        bad = ~((lam >= lo) & (lam <= hi))
    if np.any(bad):
        offender = float(lam[bad].flat[0]) if lam.ndim else float(lam)
        raise DomainError(
            f"wavelength {offender:.6g} µm outside the valid range "
            f"[{lo:g}, {hi:g}] µm of crystal {crystal.name!r}")


def refractive_index(crystal: CrystalModel, axis: str, wavelength_um,
                     temperature_c: float):
    """Refractive index n(λ, T); λ in µm, T in °C. Scalar in, scalar out."""
    sell = crystal.axis(axis)
    _check_range(crystal, wavelength_um, temperature_c, strict=False)
    n = sell.n(wavelength_um, temperature_c)
    return float(n) if np.isscalar(wavelength_um) else n


def wavevector(crystal: CrystalModel, axis: str, wavelength_um,
               temperature_c: float):
    """Wavevector k = n·ω/c in rad/m at vacuum wavelength λ (µm)."""
    sell = crystal.axis(axis)
    _check_range(crystal, wavelength_um, temperature_c, strict=False)
    k = 2.0e6 * np.pi * sell.n(wavelength_um, temperature_c) / np.asarray(wavelength_um, dtype=float)
    return float(k) if np.isscalar(wavelength_um) else k


def wavevector_at_omega(crystal: CrystalModel, axis: str, omega_rad_s,
                        temperature_c: float):
    """Wavevector k(ω) in rad/m at angular frequency ω (rad/s, SI)."""
    omega = np.asarray(omega_rad_s, dtype=float)
    lam_um = 2.0e6 * np.pi * c / omega
    sell = crystal.axis(axis)
    _check_range(crystal, lam_um, temperature_c, strict=False)
    k = sell.n(lam_um, temperature_c) * omega / c
    return float(k) if np.isscalar(omega_rad_s) else k


def k_prime(crystal: CrystalModel, axis: str, wavelength_um,
            temperature_c: float):
    """dk/dω in s/m (inverse group velocity), closed form."""
    sell = crystal.axis(axis)
    _check_range(crystal, wavelength_um, temperature_c, strict=True)
    n = sell.n(wavelength_um, temperature_c)
    dn = sell.dn_dlam(wavelength_um, temperature_c)
    kp = (n - np.asarray(wavelength_um, dtype=float) * dn) / c
    return float(kp) if np.isscalar(wavelength_um) else kp


def k_double_prime(crystal: CrystalModel, axis: str, wavelength_um,
                   temperature_c: float):
    """d²k/dω² in s²/m (group-velocity dispersion), closed form."""
    sell = crystal.axis(axis)
    _check_range(crystal, wavelength_um, temperature_c, strict=True)
    lam_m = np.asarray(wavelength_um, dtype=float) * 1e-6
    d2n_per_m2 = sell.d2n_dlam2(wavelength_um, temperature_c) * 1e12
    kpp = lam_m ** 3 * d2n_per_m2 / (2.0 * np.pi * c ** 2)
    return float(kpp) if np.isscalar(wavelength_um) else kpp


def group_index(crystal: CrystalModel, axis: str, wavelength_um,
                temperature_c: float):
    """Group index m = c·dk/dω = n − λ·dn/dλ (dimensionless)."""
    kp = k_prime(crystal, axis, wavelength_um, temperature_c)
    return c * kp


def gvd(crystal: CrystalModel, axis: str, wavelength_um, temperature_c: float):
    """Group-velocity dispersion k″ in ps²/m."""
    return k_double_prime(crystal, axis, wavelength_um, temperature_c) * 1e24
