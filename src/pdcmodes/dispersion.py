"""Temperature-dependent crystal dispersion from Sellmeier coefficient data.

Crystals are described by data files (one YAML document per crystal) holding
per-axis Sellmeier coefficient sets; see ``load_crystal``. One reader,
``_load_yaml``, decides each file's format, the bundled crystal's too: the
stdlib ``json`` reads strict JSON, a small parser (``_read_block_mapping``)
the block mappings of numbers and words that run configurations are made
of, and PyYAML, imported only then, any other YAML text. All evaluation is
pure: a loaded :class:`CrystalModel` is immutable and safe to share between
threads.

Units at the public boundary are the conventional ones for this domain
(wavelength in µm, temperature in °C, GVD in ps²/m); wavevector derivatives
used internally by the phase-matching and JSA modules are plain SI (s/m,
s²/m, rad/m at angular frequency rad/s).

Every functional form maps its coefficients onto one pole-sum formula for
n², which gives n and the analytic dn/dλ and d²n/dλ² from one evaluation
(``n_derivatives``); the derivatives of k(ω) follow in closed form,

    group index  m = c·dk/dω = n − λ·dn/dλ
    GVD          k″ = d²k/dω² = λ³/(2πc²)·d²n/dλ²

so no finite-difference step tuning enters the library (a finite-difference
cross-check lives in the test suite).

Every evaluation takes one wavelength, a float, in Python's own arithmetic
and ``math``, so designing a source never imports numpy and gives the same
bits on every host. Only ``wavevector_at_omega`` also takes an array, since
``phase_mismatch`` samples Δ̃ over the whole JSA grid at once.
"""

from __future__ import annotations

import functools
import json
import math
import re
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from ._record import Record
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

# temperatures (°C) at which a load checks n and its λ-derivatives finite,
# and n > 1, at _VALIDATION_SAMPLES wavelengths across the validity range,
# bounds included; the poles are checked at every temperature from the
# first to the last
_VALIDATION_TEMPS = (0.0, 100.0, 200.0)
_VALIDATION_SAMPLES = 64


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: an int or a float, Python's or
    numpy's. A bool of either kind is not one, nor is text."""
    if type(value) in (int, float):
        return True
    import numbers   # numpy registers its ints and floats here, not np.bool_
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite_float(value) -> float | None:
    """``value`` as a finite float, or None when it is no such number.

    The one number rule of crystal and run-configuration files: a real
    number (see ``_is_real``), or numeric text as ``float`` reads it, such
    as ``1.2e1``, which YAML 1.1 reads as a string.
    """
    if not (isinstance(value, str) or _is_real(value)):
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


def _one_number(value) -> float:
    """``value`` as a float; anything but one real number is a TypeError."""
    if _is_real(value):
        return float(value)
    raise TypeError(f"a wavelength must be one real number, got "
                    f"{type(value).__name__}; only wavevector_at_omega takes an array")


def _sqrt(n2: float, lam_um: float, t_c) -> float:
    """√n², or a DomainError naming an n² ≤ 0, its λ and T."""
    if n2 > 0.0:
        return math.sqrt(n2)
    raise DomainError(f"n² = {n2:.6g} is not positive at {lam_um:.6g} µm, "
                      f"{t_c:g} °C: no real index")


def _not_finite(form: str, t_c) -> DomainError:
    return DomainError(
        f"{form}: the index is not finite at {t_c:g} °C; the "
        "crystal's coefficients do not extend to this temperature")


def _finite(formula):
    """A formula method ``(self, lam_um, t_c)`` whose result, or each
    element of its tuple, is finite, or else a DomainError: an evaluation
    that overflows (inf, or OverflowError) or meets a pole (inf, or
    ZeroDivisionError) is no index."""
    @functools.wraps(formula)
    def evaluate(self, lam_um, t_c):
        lam_um = _one_number(lam_um)
        try:
            value = formula(self, lam_um, t_c)
            finite = all(map(math.isfinite, value if isinstance(value, tuple)
                             else (value,)))
        except (ZeroDivisionError, OverflowError):
            finite = False
        if not finite:
            raise _not_finite(self.form, t_c)
        return value
    return evaluate


class _PoleSum:
    """The one Sellmeier formula that every functional form maps onto,
    n² = c0 + Σᵢ rᵢ/(λ² − qᵢ) − a6·λ² and n = √n² + Δn, through its
    ``_terms(t_c)``: (c0, ((rᵢ, qᵢ), …), a6, Δn) at one temperature.

    Two forms are equal when they are of one type with equal coefficients,
    so two loads of one file give equal crystals. A form is not hashable.
    """

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, key) == getattr(other, key) for key in self._KEYS)

    def _finite_terms(self, t_c):
        """``_terms(t_c)``, or a DomainError if one of them is not finite."""
        c0, poles, a6, shift = terms = self._terms(t_c)
        finite = math.isfinite(c0) and math.isfinite(a6) and math.isfinite(shift)
        for r, q in poles:   # a third of the time of all(map()) over a chain
            finite = finite and math.isfinite(r) and math.isfinite(q)
        if not finite:
            raise _not_finite(self.form, t_c)
        return terms

    @staticmethod
    def _n_squared(terms, lam2):
        """n² from the ``_terms`` and λ² (µm²), summed left to right."""
        c0, poles, a6, _ = terms
        n2 = c0
        for r, q in poles:
            n2 = n2 + r / (lam2 - q)
        return n2 - a6 * lam2

    @_finite
    def n(self, lam_um, t_c):
        terms = self._finite_terms(t_c)
        return _sqrt(self._n_squared(terms, lam_um * lam_um), lam_um, t_c) + terms[3]

    @_finite
    def n_derivatives(self, lam_um, t_c):
        """(n, dn/dλ, d²n/dλ²) from one n²: with g = n², dn/dλ = g′/2√g
        and d²n/dλ² = g″/2√g − g′²/4g^1.5, which Δn does not change."""
        _, poles, a6, shift = terms = self._finite_terms(t_c)
        lam2 = lam_um * lam_um
        g = self._n_squared(terms, lam2)
        s1 = s2 = 0.0
        for r, q in poles:
            d = lam2 - q
            s1 = s1 + r / d ** 2
            s2 = s2 + r * (6.0 * lam2 + 2.0 * q) / d ** 3
        gp = -2.0 * lam_um * (s1 + a6)
        gpp = s2 - 2.0 * a6
        n = _sqrt(g, lam_um, t_c)
        return (n + shift, gp / (2.0 * n),
                gpp / (2.0 * n) - gp * gp / (4.0 * g ** 1.5))


class GayerTwoPole(_PoleSum):
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
        """a3 + b3·f(T) and a5 at T = t_c: n² has its poles at their
        absolute values (µm)."""
        return self.a3 + self.b3 * self._f(t_c), self.a5

    def _terms(self, t_c):
        f = self._f(t_c)
        return (self.a1 + self.b1 * f,
                ((self.a2 + self.b2 * f, (self.a3 + self.b3 * f) ** 2),
                 (self.a4 + self.b4 * f, self.a5 ** 2)),
                self.a6, 0.0)


class StandardSellmeier(_PoleSum):
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
        # bᵢλ²/(λ² − cᵢ) = bᵢ + bᵢcᵢ/(λ² − cᵢ): c0 = a + Σbᵢ, rᵢ = bᵢcᵢ
        self._c0 = sum(self.b, self.a)
        self._poles = tuple((bi * ci, ci) for bi, ci in zip(self.b, self.c))

    def _poles_um(self, t_c):
        """√cᵢ for each cᵢ > 0: the wavelengths (µm) at which n² has a pole,
        at every temperature."""
        return tuple(math.sqrt(ci) for ci in self.c if ci > 0)

    def _terms(self, t_c):
        return self._c0, self._poles, self.d, self.dn_dt * (t_c - self.t_ref_c)


# the functional forms, by the name a crystal file gives them
_FORMS = {cls.form: cls for cls in (GayerTwoPole, StandardSellmeier)}

# temperature-model identifiers compatible with each functional form
_TEMPERATURE_MODELS = {
    "gayer_f_parameter": ("gayer_two_pole",),
    "linear_dn_dt": ("sellmeier_standard",),
    "none": ("sellmeier_standard",),
}


class CrystalModel(Record):
    """A named dispersion model: per-axis Sellmeier sets plus metadata.

    Immutable after load; every operation on it is a pure function.
    """

    name: str
    crystal_class: str                     # "uniaxial" | "biaxial"
    axes: Mapping[str, GayerTwoPole | StandardSellmeier]  # "o"/"e" or "x"/"y"/"z"
    temperature_model: str
    d_eff_pm_per_v: float
    valid_range_um: tuple[float, float]
    provenance: str = ""

    _hidden = ("provenance",)

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
        if t_model == "none" and axes[label].dn_dt != 0.0:
            raise ValidationError(
                f"crystal {name!r}, axis {label!r}: temperature_model 'none' "
                f"needs dn_dt = 0, got {axes[label].dn_dt:g}")

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


def _linspace(lo: float, hi: float, samples: int) -> list[float]:
    """``np.linspace(lo, hi, samples)`` as a list of floats, bit for bit:
    i·step + lo, with the last sample set to hi (``samples`` ≥ 2)."""
    step = (hi - lo) / (samples - 1)
    return [i * step + lo for i in range(samples - 1)] + [hi]


def _pole_in_range(sell, lo: float, hi: float) -> str | None:
    """How a pole of ``sell`` meets [lo, hi] µm at some temperature from the
    first to the last of _VALIDATION_TEMPS, as a message, or None.

    Each pole p(T), which n² has at |p|, is monotone in T there, as f(T)
    rises above −273.16 °C. So it meets the range exactly when |p| lies in
    [lo, hi] at an end, or its end values span [lo, hi] or [−hi, −lo].
    """
    t_a, t_b = _VALIDATION_TEMPS[0], _VALIDATION_TEMPS[-1]
    for p_a, p_b in zip(sell._poles_um(t_a), sell._poles_um(t_b)):
        for p, t_c in ((p_a, t_a), (p_b, t_b)):
            if lo <= abs(p) <= hi:
                return (f"Sellmeier pole at {abs(p):.6g} µm inside the "
                        f"validity range [{lo}, {hi}] µm at {t_c} °C")
        low, high = sorted((p_a, p_b))
        if low < lo and high > hi or low < -hi and high > -lo:
            return (f"Sellmeier pole crosses the validity range [{lo}, {hi}] "
                    f"µm between {t_a} and {t_b} °C (from {p_a:.6g} to "
                    f"{p_b:.6g} µm)")
    return None


def _validate_physical(model: CrystalModel) -> None:
    """Check that no pole meets the validity range at any temperature from
    the first to the last of _VALIDATION_TEMPS, and that n is real and > 1
    and n, dn/dλ and d²n/dλ² finite across the range at each of them.

    The poles are found exactly; n and its derivatives are checked at
    sampled wavelengths, by the one pass ``n_derivatives`` that every
    derivative evaluation makes (its n has the bits of ``n``'s).
    """
    lo, hi = model.valid_range_um
    lam = _linspace(lo, hi, _VALIDATION_SAMPLES)
    for label, sell in model.axes.items():
        where = f"crystal {model.name!r}, axis {label!r}"
        pole = _pole_in_range(sell, lo, hi)
        if pole is not None:
            raise ValidationError(f"{where}: {pole}")
        for t_c in _VALIDATION_TEMPS:
            try:
                n = [sell.n_derivatives(x, t_c)[0] for x in lam]
            except DomainError:  # an overflowing or non-real evaluation
                raise ValidationError(
                    f"{where}: n or one of its λ-derivatives is not finite "
                    f"across [{lo}, {hi}] µm at {t_c} °C (a coefficient "
                    "overflows the float range, or n² ≤ 0)") from None
            n_min = min(n)
            if not n_min > 1.0:
                raise ValidationError(
                    f"{where}: n ≤ 1 at {lam[n.index(n_min)]:.4g} µm, {t_c} °C "
                    f"(min n = {n_min:.6g})")


# The block-mapping subset of YAML that _load_yaml reads without PyYAML: a
# line is `key: value`, or `key:` opening a section whose lines are each
# indented by the same spaces and hold `key: value`; blank lines and
# comments anywhere. A key is an identifier (at most 100 characters, well
# under YAML's 1024 for a simple key); a value is a decimal int, a decimal
# float with a signed exponent, or a word that resolves to no bool or null.
# The patterns compile on first use, so a command that parses no YAML pays
# nothing for them.
_ENTRY = r"( *)([A-Za-z_][A-Za-z0-9_]{0,99}):(?: +([^ ]+))? *"
_INT = r"[-+]?(?:0|[1-9][0-9]{0,99})"
_FLOAT = r"[-+]?[0-9]{1,100}\.[0-9]{0,100}(?:[eE][-+][0-9]{1,4})?"
_WORD = r"[A-Za-z_/][A-Za-z0-9_./-]{0,99}"
# YAML 1.1's bool and null words, in any case: never a key or a word here
_NOT_TEXT = frozenset(("yes", "no", "true", "false", "on", "off", "null"))


def _plain_scalar(token: str):
    """The int, float or str that PyYAML's safe loader makes of ``token``,
    or None when it is none of the subset's values."""
    if re.fullmatch(_INT, token):
        return int(token)
    if re.fullmatch(_FLOAT, token):
        return float(token)
    if re.fullmatch(_WORD, token) and token.lower() not in _NOT_TEXT:
        return token
    return None


def _read_block_mapping(text: str) -> dict | None:
    """The mapping that PyYAML's safe loader builds from ``text``, with the
    same keys, key order and types, when ``text`` is a document of the
    subset above; None for any other text, which PyYAML parses instead.

    Anything the subset does not name is declined: tabs, carriage returns,
    quotes, flow collections, anchors, tags, block scalars, document
    markers, duplicate keys, empty sections, a ``#`` not after a space, an
    int with a leading zero, an exponent without its sign (``1e3`` is text
    to YAML 1.1), non-ASCII text, and a document with no key.
    """
    doc: dict = {}
    section = indent = None
    for line in text.split("\n"):
        content, hash_mark, comment = line.partition("#")
        if hash_mark and (content[-1:] not in ("", " ") or not (
                comment.isascii() and comment.isprintable())):
            return None
        if not content.strip(" "):
            continue
        match = re.fullmatch(_ENTRY, content)
        if match is None:
            return None
        pad, key, token = match.groups()
        value = None if token is None else _plain_scalar(token)
        if key.lower() in _NOT_TEXT or token is not None and value is None:
            return None
        if not pad:                                  # a top-level key
            if section == {} or key in doc:
                return None
            section = indent = None
            if value is None:
                value = section = {}
            doc[key] = value
        elif section is None or value is None or key in section \
                or indent not in (None, pad):
            return None
        else:
            indent = pad
            section[key] = value
    return doc if doc and section != {} else None


def _load_yaml(text: str, what: str):
    """The one document in ``text``, whose format this alone decides; a
    syntax error is a ValidationError naming ``what``. Text that opens with
    ``{`` is read by ``json`` if it is strict JSON (NaN is not). Else a
    document of the block-mapping subset, as run configs are written, is
    read by ``_read_block_mapping``, and any other by PyYAML's pure-Python
    safe loader on every build (libyaml's reads some text differently),
    imported on first use: about 15 ms of a design command. Both json and
    PyYAML recurse once per level of nesting, so a document nested past
    the recursion limit is a ValidationError too."""
    try:
        if text.lstrip()[:1] == "{":
            try:   # int("NaN") raises, so NaN and Infinity are no JSON here
                return json.loads(text, parse_constant=int)
            except ValueError:   # no JSON: the YAML readers decide
                pass
        doc = _read_block_mapping(text)
        if doc is not None:
            return doc
        import yaml
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ValidationError(f"{what} is not valid YAML: {exc}") from exc
    except RecursionError:
        raise ValidationError(f"{what} is nested too deeply to be read") from None


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
    return Path(__file__).parent / "data" / "mgoln_5pct.yaml"


def load_bundled_crystal() -> CrystalModel:
    """Load the crystal shipped with the package, 5% MgO:LN, as any file."""
    return load_crystal_file(bundled_crystal_path())


# ---------------------------------------------------------------------------
# evaluation


def _check_temperature(temperature_c: float) -> None:
    """A DomainError unless the temperature is above absolute zero, which a
    NaN is not; no upper bound, as a crystal file fits no temperature range."""
    if not temperature_c > _ABSOLUTE_ZERO_C:
        raise DomainError(
            f"temperature {temperature_c:g} °C is not above absolute zero "
            f"({_ABSOLUTE_ZERO_C:g} °C)")


def _check_range(crystal: CrystalModel, lam_um, temperature_c: float) -> float:
    """``lam_um`` as a float, once the temperature is above absolute zero
    and the wavelength lies in the crystal's valid range [lo, hi], bounds
    included; a DomainError otherwise."""
    _check_temperature(temperature_c)
    lam = _one_number(lam_um)
    lo, hi = crystal.valid_range_um
    if not lo <= lam <= hi:   # "not inside", so that NaN counts as out of range
        raise DomainError(
            f"wavelength {lam:.6g} µm outside the valid range "
            f"[{lo:g}, {hi:g}] µm of crystal {crystal.name!r}")
    return lam


def _index(crystal: CrystalModel, axis: str, wavelength_um,
           temperature_c: float, derivatives: bool = False):
    """The checked wavelength and n there, or (n, dn/dλ, d²n/dλ²) with
    ``derivatives``."""
    sell = crystal.axis(axis)
    lam = _check_range(crystal, wavelength_um, temperature_c)
    try:
        if derivatives:
            return lam, sell.n_derivatives(lam, temperature_c)
        return lam, sell.n(lam, temperature_c)
    except DomainError as exc:
        raise DomainError(
            f"crystal {crystal.name!r}, axis {axis!r}: {exc}") from None


def _um_rad_s(x):
    """2π·c/x: a vacuum wavelength (µm) as an angular frequency (rad/s), or back."""
    return 2.0e6 * math.pi * c / x


def _wavenumber(lam_um, n):
    """k = n·ω/c = 2π·n/λ in rad/m at vacuum wavelength λ (µm)."""
    return 2.0e6 * math.pi * n / lam_um


def refractive_index(crystal: CrystalModel, axis: str, wavelength_um,
                     temperature_c: float):
    """Refractive index n(λ, T); λ in µm, T in °C."""
    return _index(crystal, axis, wavelength_um, temperature_c)[1]


def wavevector(crystal: CrystalModel, axis: str, wavelength_um,
               temperature_c: float):
    """Wavevector k = n·ω/c in rad/m at vacuum wavelength λ (µm)."""
    return _wavenumber(*_index(crystal, axis, wavelength_um, temperature_c))


def wavevector_at_omega(crystal: CrystalModel, axis: str, omega_rad_s,
                        temperature_c: float):
    """Wavevector k(ω) in rad/m at angular frequency ω (rad/s, SI).

    The one evaluation that also takes an array of ω, of any shape, as
    ``phase_mismatch`` does over the JSA grid. The array gets the float
    path's operations in its order, and so its bits, and the float path
    refuses what it refuses: the first λ out of range in C order, else the
    Sellmeier terms at any λ, else the smallest n² ≤ 0 (a NaN first), else
    the first n that is not finite.
    """
    if _is_real(omega_rad_s):
        omega = float(omega_rad_s)
        # an ω = 0 has an infinite wavelength, which the range check refuses
        lam_um = _um_rad_s(omega) if omega else math.copysign(math.inf, omega)
        return _index(crystal, axis, lam_um, temperature_c)[1] * omega / c
    import numpy as np
    omega = np.asarray(omega_rad_s, dtype=float)
    sell = crystal.axis(axis)
    _check_temperature(temperature_c)
    lo, hi = crystal.valid_range_um
    with np.errstate(all="ignore"):
        lam_um = _um_rad_s(omega)
        outside = ~((lam_um >= lo) & (lam_um <= hi))   # NaN is outside too
        if outside.any():
            at = lam_um.flat[outside.argmax()]
        else:
            try:
                terms = sell._finite_terms(temperature_c)
            except (DomainError, OverflowError):   # the same at any λ
                at = lo
            else:
                n2 = sell._n_squared(terms, lam_um * lam_um)
                n = np.sqrt(n2) + terms[3]
                if not (n2 > 0.0).all():
                    at = lam_um.flat[n2.argmin()]
                elif not np.isfinite(n).all():
                    at = lam_um.flat[(~np.isfinite(n)).argmax()]
                else:
                    return n * omega / c
    _index(crystal, axis, float(at), temperature_c)
    raise AssertionError(f"the float path accepts {at!r} µm")


def _k_terms(crystal: CrystalModel, axis: str, wavelength_um,
             temperature_c: float):
    """(n, dk/dω in s/m, d²k/dω² in s²/m) from one Sellmeier pass, closed
    form; λ in µm, in the valid range."""
    lam, (n, dn, d2n) = _index(crystal, axis, wavelength_um, temperature_c,
                               derivatives=True)
    return (n, (n - lam * dn) / c,
            (lam * 1e-6) ** 3 * (d2n * 1e12) / (2.0 * math.pi * c ** 2))


def k_prime(crystal: CrystalModel, axis: str, wavelength_um,
            temperature_c: float):
    """dk/dω in s/m (inverse group velocity), closed form."""
    return _k_terms(crystal, axis, wavelength_um, temperature_c)[1]


def k_double_prime(crystal: CrystalModel, axis: str, wavelength_um,
                   temperature_c: float):
    """d²k/dω² in s²/m (group-velocity dispersion), closed form."""
    return _k_terms(crystal, axis, wavelength_um, temperature_c)[2]


def group_index(crystal: CrystalModel, axis: str, wavelength_um,
                temperature_c: float):
    """Group index m = c·dk/dω = n − λ·dn/dλ (dimensionless)."""
    return c * k_prime(crystal, axis, wavelength_um, temperature_c)


def gvd(crystal: CrystalModel, axis: str, wavelength_um, temperature_c: float):
    """Group-velocity dispersion k″ in ps²/m."""
    return k_double_prime(crystal, axis, wavelength_um, temperature_c) * 1e24
