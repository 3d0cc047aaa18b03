"""Frozen records: every record a caller builds behaves as a frozen
keyword-only dataclass, and none is one."""

import ast
from pathlib import Path

import pytest

import pdcmodes as p
from pdcmodes._record import FrozenInstanceError, Record
from pdcmodes.config import (GridSettings, OutputSettings, PdcSettings,
                             PumpSettings, RunConfig)

RECORD_FIELDS = {
    p.CrystalModel: ("name", "crystal_class", "axes", "temperature_model",
                     "d_eff_pm_per_v", "valid_range_um", "provenance"),
    p.PdcConfig: ("crystal", "pump_axis", "signal_axis", "pump_wavelength_um",
                  "temperature_c", "length_m", "poling_period_um", "pdc_type"),
    PdcSettings: ("pump_axis", "signal_axis", "pump_wavelength_nm",
                  "temperature_c", "crystal_length_mm", "poling_period_um"),
    PumpSettings: ("bandwidth_fwhm_nm", "mean_power_mw", "repetition_rate_mhz"),
    GridSettings: ("points_per_axis", "detuning_extent_thz"),
    OutputSettings: ("directory", "format", "precision"),
    RunConfig: ("crystal_file", "pdc", "pump", "grid", "output"),
    p.PumpPulse: ("wavelength_um", "bandwidth_fwhm_nm", "mean_power_w",
                  "rep_rate_hz"),
    p.FrequencyGrid: ("n", "omega_max_rad_s"),
    p.SqueezingResult: ("eta_jsa", "eta_pdc_per_w", "p_peak_w", "tau_p_s",
                        "waist_m", "gain_pb", "r", "s_db", "schmidt_number",
                        "mean_photons", "pump_photons_per_pulse",
                        "beyond_validity"),
}


_SETTINGS = dict(pump_axis="e", signal_axis="o", pump_wavelength_nm=775.0,
                 temperature_c=11.0, crystal_length_mm=80.0)


def _settings():
    return PdcSettings(**_SETTINGS)


def _pump_settings():
    return PumpSettings(bandwidth_fwhm_nm=4.0, mean_power_mw=12.0,
                        repetition_rate_mhz=100.0)


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_constructor_takes_the_fields_in_order(cls):
    assert cls.__match_args__ == RECORD_FIELDS[cls]


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_record_is_no_dataclass(cls):
    assert issubclass(cls, Record)
    assert not hasattr(cls, "__dataclass_fields__")


def test_only_the_jsa_layer_imports_dataclasses():
    # JsaGrid and SchmidtDecomposition stay dataclasses, because
    # perfbench/spans.py counts their arrays through __dataclass_fields__;
    # a record added to any other module is a Record
    importers = set()
    for path in sorted(Path(p.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                importers.add(path.name)
    assert importers == {"jsa.py"}


def test_defaults_are_filled_and_stay_class_attributes():
    assert GridSettings() == GridSettings(points_per_axis=512,
                                          detuning_extent_thz=None)
    assert RunConfig().grid == GridSettings()
    assert OutputSettings.format == "csv" and OutputSettings.precision == 9
    assert not hasattr(p.PdcConfig, "central")


@pytest.mark.parametrize("kwargs, message", [
    ({"pump_axis": "e"}, r"missing required argument\(s\): 'signal_axis', "
                         "'pump_wavelength_nm'"),
    ({**_SETTINGS, "colour": "red"}, "unexpected keyword argument 'colour'"),
], ids=["missing", "unknown"])
def test_bad_arguments_are_type_errors(kwargs, message):
    with pytest.raises(TypeError, match=message):
        PdcSettings(**kwargs)


def test_derived_field_is_not_an_argument(crystal, matched_config):
    with pytest.raises(TypeError, match="unexpected keyword argument 'central'"):
        p.PdcConfig(crystal=crystal, pump_axis="e", signal_axis="o",
                    pump_wavelength_um=0.775, temperature_c=11.0,
                    length_m=80e-3, central=matched_config.central)
    with pytest.raises(TypeError, match="unexpected keyword argument 'central'"):
        matched_config.replace(central=())


@pytest.mark.parametrize("record", ["config", "crystal", "settings"])
def test_assignment_and_deletion_are_refused(matched_config, record):
    value = {"config": matched_config, "crystal": matched_config.crystal,
             "settings": _settings()}[record]
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'name'"):
        value.name = "other"
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'pump_axis'"):
        del value.pump_axis
    assert issubclass(FrozenInstanceError, AttributeError)


def test_pump_pulse_is_frozen_and_replaced_anew(pump775):
    with pytest.raises(FrozenInstanceError,
                       match="cannot assign to field 'mean_power_w'"):
        pump775.mean_power_w = 1.0
    assert pump775.mean_power_w == 12e-3
    assert pump775.replace(mean_power_w=1.0).mean_power_w == 1.0
    with pytest.raises(p.ValidationError, match="pump mean_power_w must be > 0"):
        pump775.replace(mean_power_w=-1.0)
    # the repr and hash a frozen dataclass with these fields gives
    assert repr(pump775) == ("PumpPulse(wavelength_um=0.775, bandwidth_fwhm_nm="
                             "4.0, mean_power_w=0.012, rep_rate_hz=100000000.0)")
    assert hash(pump775) == hash((0.775, 4.0, 12e-3, 1e8))


def test_equality_and_hash_follow_the_compared_fields(matched_config):
    assert _settings() == _settings() and hash(_settings()) == hash(_settings())
    assert _settings() != _settings().replace(temperature_c=12.0)
    assert _settings() != RunConfig() and _settings() != ("e",)
    run = RunConfig(pdc=_settings(), pump=_pump_settings())
    assert len({run, run.replace(), RunConfig()}) == 2
    # central is derived, so it takes no part in equality
    other = matched_config.replace()
    object.__setattr__(other, "central", ())
    assert other == matched_config
    # the crystal's axes are a read-only mapping, unhashable as in a dataclass
    with pytest.raises(TypeError, match="mappingproxy"):
        hash(matched_config)


def test_repr_hides_provenance_and_central(matched_config):
    crystal = matched_config.crystal
    assert crystal.provenance
    assert repr(crystal).startswith(f"CrystalModel(name={crystal.name!r}, "
                                    "crystal_class='uniaxial', axes=")
    assert "provenance" not in repr(crystal)
    text = repr(matched_config)
    assert text.startswith(f"PdcConfig(crystal={crystal!r}, pump_axis='e', ")
    assert text.endswith("length_m=0.08, poling_period_um=None, pdc_type='type-I')")
    assert "central" not in text
    assert repr(GridSettings()) == \
        "GridSettings(points_per_axis=512, detuning_extent_thz=None)"


def test_replace_validates_and_derives_anew(matched_config):
    with pytest.raises(p.DomainError, match="crystal length must be > 0"):
        matched_config.replace(length_m=-1)
    with pytest.raises(p.DomainError, match="type-I requires"):
        matched_config.replace(signal_axis="e")
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        matched_config.replace(colour="red")
    warmer = matched_config.replace(temperature_c=40.0)
    assert warmer.central != matched_config.central
    assert warmer.replace(temperature_c=11.0).central == matched_config.central
    assert matched_config.temperature_c == 11.0


class _Point(Record):
    x: float
    label: str = ""

    _hidden = ("label",)

    def __post_init__(self):
        object.__setattr__(self, "size", abs(self.x))


def test_hidden_field_is_compared_but_not_shown(matched_config):
    assert _Point.__match_args__ == ("x", "label")
    assert repr(_Point(x=-2.0, label="a")) == "_Point(x=-2.0)"
    assert _Point(x=-2.0, label="a") != _Point(x=-2.0, label="b")
    assert _Point(x=-2.0, label="a") == _Point(label="a", x=-2.0)
    crystal = matched_config.crystal
    other = crystal.replace(provenance="elsewhere")
    assert repr(other) == repr(crystal) and other != crystal


def test_derived_attribute_is_not_a_field():
    point = _Point(x=-2.0)
    assert point.size == 2.0
    changed = _Point(x=-2.0)
    object.__setattr__(changed, "size", 3.0)
    assert changed == point and hash(changed) == hash(point)
    assert repr(changed) == repr(point) == "_Point(x=-2.0)"
    assert changed.replace().size == 2.0
    with pytest.raises(TypeError, match="unexpected keyword argument 'size'"):
        point.replace(size=1.0)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'size'"):
        point.size = 1.0


# one instance of each record class: its fixture's name, or a builder
_EXAMPLES = {
    p.CrystalModel: "crystal",
    p.PdcConfig: "matched_config",
    PdcSettings: _settings,
    PumpSettings: _pump_settings,
    GridSettings: GridSettings,
    OutputSettings: OutputSettings,
    RunConfig: lambda: RunConfig(pdc=_settings(), pump=_pump_settings()),
    p.PumpPulse: "pump775",
    p.FrequencyGrid: lambda: p.FrequencyGrid(n=64, omega_max_rad_s=2e13),
    p.JsaGrid: "matched_jsa",
    p.SchmidtDecomposition: "matched_decomp",
    p.SqueezingResult: "matched_squeezing",
    _Point: lambda: _Point(x=-2.0, label="a"),
}


@pytest.mark.parametrize("cls", _EXAMPLES, ids=lambda cls: cls.__name__)
def test_a_positional_argument_is_a_type_error(request, cls):
    # a field's name carries its unit, so no record takes a bare value
    example = _EXAMPLES[cls]
    record = request.getfixturevalue(example) if isinstance(example, str) else example()
    names = getattr(cls, "__dataclass_fields__", None) or cls.__match_args__
    fields = {name: getattr(record, name) for name in names}
    assert cls(**fields) == record
    with pytest.raises(TypeError, match="takes 1 positional argument but 2"):
        cls(fields.pop(next(iter(fields))), **fields)
