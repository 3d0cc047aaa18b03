"""Run-configuration files for the command-line interface.

A run configuration is one YAML document whose keys carry their units
explicitly (``pump_wavelength_nm``, ``crystal_length_mm``, ...). Unknown
keys are rejected outright: silent unit mistakes are the dominant failure
mode in this domain, and a typo like ``pump_wavelength_um`` must fail loud.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from ._record import Record
from .constants import DEFAULT_GRID_POINTS
from .dispersion import (CrystalModel, _load_yaml, _number, _read_utf8,
                         load_bundled_crystal, load_crystal_file)
from .errors import ValidationError
from .phasematch import PdcConfig, _pdc_type

if TYPE_CHECKING:
    from .jsa import PumpPulse

__all__ = [
    "PdcSettings",
    "PumpSettings",
    "GridSettings",
    "OutputSettings",
    "RunConfig",
    "load_run_config",
]

_FORMATS = ("csv", "json")


def _reject_unknown(mapping: Mapping, allowed: tuple, context: str) -> None:
    unknown = [k for k in mapping if k not in allowed]
    if unknown:
        raise ValidationError(
            f"{context}: unknown key(s) {unknown}; allowed: {list(allowed)}")


def _as_number(mapping: Mapping, key: str, context: str,
               required: bool = True, default=None):
    if key not in mapping or mapping[key] is None:
        if required:
            raise ValidationError(f"{context}: missing required key {key!r}")
        return default
    return _number(mapping[key], f"{context}: {key}")


class PdcSettings(Record):
    pump_axis: str
    signal_axis: str
    pump_wavelength_nm: float
    temperature_c: float
    crystal_length_mm: float
    poling_period_um: float | None = None

    @classmethod
    def from_mapping(cls, doc: Mapping) -> "PdcSettings":
        """The ``pdc`` section; its optional ``type`` must agree with the
        one the two axes make."""
        _reject_unknown(doc, ("type", *cls._fields), "pdc")
        for key in ("pump_axis", "signal_axis"):
            if key not in doc or not isinstance(doc[key], str):
                raise ValidationError(f"pdc: missing or non-text key {key!r}")
        pdc_type = _pdc_type(doc["pump_axis"], doc["signal_axis"])
        given = doc.get("type")
        if given is not None and given != pdc_type:
            raise ValidationError(
                f"pdc: type {given!r} disagrees with pump_axis "
                f"{doc['pump_axis']!r} and signal_axis {doc['signal_axis']!r}, "
                f"which make {pdc_type!r}")
        return cls(
            pump_axis=doc["pump_axis"],
            signal_axis=doc["signal_axis"],
            pump_wavelength_nm=_as_number(doc, "pump_wavelength_nm", "pdc"),
            temperature_c=_as_number(doc, "temperature_c", "pdc"),
            crystal_length_mm=_as_number(doc, "crystal_length_mm", "pdc"),
            poling_period_um=_as_number(doc, "poling_period_um", "pdc",
                                        required=False),
        )


class PumpSettings(Record):
    bandwidth_fwhm_nm: float
    mean_power_mw: float
    repetition_rate_mhz: float

    @classmethod
    def from_mapping(cls, doc: Mapping) -> "PumpSettings":
        _reject_unknown(doc, cls._fields, "pump")
        return cls(
            bandwidth_fwhm_nm=_as_number(doc, "bandwidth_fwhm_nm", "pump"),
            mean_power_mw=_as_number(doc, "mean_power_mw", "pump"),
            repetition_rate_mhz=_as_number(doc, "repetition_rate_mhz", "pump"),
        )


class GridSettings(Record):
    points_per_axis: int = DEFAULT_GRID_POINTS
    detuning_extent_thz: float | None = None

    @classmethod
    def from_mapping(cls, doc: Mapping) -> "GridSettings":
        _reject_unknown(doc, cls._fields, "grid")
        n = doc.get("points_per_axis", cls.points_per_axis)
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValidationError(
                f"grid: points_per_axis must be an integer, got {n!r}")
        return cls(
            points_per_axis=n,
            detuning_extent_thz=_as_number(doc, "detuning_extent_thz", "grid",
                                           required=False),
        )


class OutputSettings(Record):
    directory: str = "out"
    format: str = "csv"
    precision: int = 9

    @classmethod
    def from_mapping(cls, doc: Mapping) -> "OutputSettings":
        _reject_unknown(doc, cls._fields, "output")
        fmt = doc.get("format", cls.format)
        if fmt not in _FORMATS:
            raise ValidationError(
                f"output: format must be one of {_FORMATS}, got {fmt!r}")
        precision = doc.get("precision", cls.precision)
        if not isinstance(precision, int) or isinstance(precision, bool) \
                or not 1 <= precision <= 17:
            raise ValidationError(
                f"output: precision must be an integer in [1, 17], got {precision!r}")
        directory = doc.get("directory", cls.directory)
        if not isinstance(directory, str):
            raise ValidationError(
                f"output: directory must be text, got {directory!r}")
        return cls(directory=directory, format=fmt, precision=precision)


class RunConfig(Record):
    """Validated run configuration; sections may be absent until needed."""

    crystal_file: str | None = None
    pdc: PdcSettings | None = None
    pump: PumpSettings | None = None
    grid: GridSettings = GridSettings()
    output: OutputSettings = OutputSettings()

    @classmethod
    def from_mapping(cls, doc: Mapping) -> "RunConfig":
        _reject_unknown(doc, cls._fields, "run config")
        crystal_file = doc.get("crystal_file")
        if crystal_file is not None and not isinstance(crystal_file, str):
            raise ValidationError(
                f"run config: crystal_file must be a path, got {crystal_file!r}")

        def section(key, parser, default):
            block = doc.get(key)
            if block is None:
                return default
            if not isinstance(block, Mapping):
                raise ValidationError(f"run config: {key} must be a mapping")
            return parser(block)

        return cls(
            crystal_file=crystal_file,
            pdc=section("pdc", PdcSettings.from_mapping, None),
            pump=section("pump", PumpSettings.from_mapping, None),
            grid=section("grid", GridSettings.from_mapping, GridSettings()),
            output=section("output", OutputSettings.from_mapping, OutputSettings()),
        )

    def load_crystal(self) -> CrystalModel:
        """The configured crystal, or the bundled MgO:LN when unset."""
        if self.crystal_file is None:
            return load_bundled_crystal()
        return load_crystal_file(self.crystal_file)

    def to_pdc_config(self, crystal: CrystalModel) -> PdcConfig:
        if self.pdc is None:
            raise ValidationError(
                "run config has no 'pdc' section, required by this command")
        return PdcConfig(
            crystal=crystal,
            pump_axis=self.pdc.pump_axis,
            signal_axis=self.pdc.signal_axis,
            pump_wavelength_um=self.pdc.pump_wavelength_nm * 1e-3,
            temperature_c=self.pdc.temperature_c,
            length_m=self.pdc.crystal_length_mm * 1e-3,
            poling_period_um=self.pdc.poling_period_um,
        )

    def to_pump_pulse(self) -> PumpPulse:
        if self.pdc is None or self.pump is None:
            raise ValidationError(
                "run config needs both 'pdc' and 'pump' sections for this command")
        from .jsa import PumpPulse   # the JSA layer loads only when a command needs it
        return PumpPulse(
            wavelength_um=self.pdc.pump_wavelength_nm * 1e-3,
            bandwidth_fwhm_nm=self.pump.bandwidth_fwhm_nm,
            mean_power_w=self.pump.mean_power_mw * 1e-3,
            rep_rate_hz=self.pump.repetition_rate_mhz * 1e6,
        )


def load_run_config(path: str | Path | None) -> RunConfig:
    """Load and validate a run-configuration file (None → all defaults)."""
    if path is None:
        return RunConfig()
    doc = _load_yaml(_read_utf8(path, "run config"), "run config")
    if doc is None:
        return RunConfig()
    if not isinstance(doc, Mapping):
        raise ValidationError("run config must be a mapping")
    return RunConfig.from_mapping(doc)
