"""Frozen records: the design chain's records behave as frozen dataclasses."""

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
}


def _settings():
    return PdcSettings("e", "o", 775.0, 11.0, 80.0)


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_constructor_takes_the_fields_in_order(cls):
    assert cls.__match_args__ == RECORD_FIELDS[cls]


def test_positional_and_keyword_construction_agree(matched_config):
    args = [getattr(matched_config, name) for name in RECORD_FIELDS[p.PdcConfig]]
    assert p.PdcConfig(*args) == matched_config
    # the type left out is None, not the one the axes make
    typeless = p.PdcConfig(*args[:3], pump_wavelength_um=args[3],
                           temperature_c=args[4], length_m=args[5])
    assert typeless == matched_config.replace(pdc_type=None) != matched_config
    assert _settings() == PdcSettings(
        pump_axis="e", signal_axis="o", pump_wavelength_nm=775.0,
        temperature_c=11.0, crystal_length_mm=80.0, poling_period_um=None)


def test_defaults_are_filled_and_stay_class_attributes():
    assert GridSettings() == GridSettings(512, None)
    assert RunConfig().grid == GridSettings()
    assert OutputSettings.format == "csv" and OutputSettings.precision == 9
    assert not hasattr(p.PdcConfig, "central")


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {"pump_axis": "e"}, r"missing required argument\(s\): 'signal_axis', "
                             "'pump_wavelength_nm'"),
    (("e", "o", 775.0, 11.0, 80.0), {"colour": "red"},
     "unexpected keyword argument 'colour'"),
    (("e", "o", 775.0, 11.0, 80.0), {"pump_axis": "o"},
     "multiple values for argument 'pump_axis'"),
    (("e", "o", 775.0, 11.0, 80.0, None, 1.0), {},
     "takes 6 positional arguments but 7 were given"),
], ids=["missing", "unknown", "repeated", "too_many"])
def test_bad_arguments_are_type_errors(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        PdcSettings(*args, **kwargs)


def test_derived_field_is_not_an_argument(crystal, matched_config):
    with pytest.raises(TypeError, match="unexpected keyword argument 'central'"):
        p.PdcConfig(crystal, "e", "o", 0.775, 11.0, 80e-3,
                    central=matched_config.central)
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


def test_equality_and_hash_follow_the_compared_fields(matched_config):
    assert _settings() == _settings() and hash(_settings()) == hash(_settings())
    assert _settings() != _settings().replace(temperature_c=12.0)
    assert _settings() != RunConfig() and _settings() != ("e",)
    run = RunConfig(pdc=_settings(), pump=PumpSettings(4.0, 12.0, 100.0))
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
    assert repr(_Point(-2.0, "a")) == "_Point(x=-2.0)"
    assert _Point(-2.0, "a") != _Point(-2.0, "b")
    assert _Point(-2.0, "a") == _Point(x=-2.0, label="a")
    crystal = matched_config.crystal
    other = crystal.replace(provenance="elsewhere")
    assert repr(other) == repr(crystal) and other != crystal


def test_derived_attribute_is_not_a_field():
    point = _Point(-2.0)
    assert point.size == 2.0
    changed = _Point(-2.0)
    object.__setattr__(changed, "size", 3.0)
    assert changed == point and hash(changed) == hash(point)
    assert repr(changed) == repr(point) == "_Point(x=-2.0)"
    assert changed.replace().size == 2.0
    with pytest.raises(TypeError, match="unexpected keyword argument 'size'"):
        point.replace(size=1.0)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'size'"):
        point.size = 1.0


def test_a_field_without_a_default_cannot_follow_one_with_a_default():
    with pytest.raises(TypeError, match="_Bad: a field without a default "
                                        "follows a field with one"):
        class _Bad(Record):
            x: float = 0.0
            y: float
