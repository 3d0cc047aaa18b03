"""Run-configuration parsing: every malformed mapping is a package error."""

from hypothesis import given, settings, strategies as st

import pdcmodes as p
from pdcmodes.config import (GridSettings, OutputSettings, PdcSettings,
                             PumpSettings, RunConfig, load_run_config)

_ODD_KEYS = st.text(max_size=4) | st.integers()
_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=6) | st.sampled_from(["type-I", "e", "o", "json"]))
_VALUES = (_LEAVES | st.lists(_LEAVES, max_size=2)
           | st.dictionaries(_ODD_KEYS, _LEAVES, max_size=2))


def _section(keys):
    """A mapping shaped like one config section, with arbitrary values."""
    return st.dictionaries(st.sampled_from(keys) | _ODD_KEYS, _VALUES,
                           max_size=len(keys) + 1)


# the shape of a run config, so that generated documents reach every check
_DOCS = st.fixed_dictionaries({}, optional={
    "crystal_file": st.none() | st.text(max_size=6) | _LEAVES,
    "pdc": _section(("type", *PdcSettings.__match_args__)) | _LEAVES,
    "pump": _section(PumpSettings.__match_args__) | _LEAVES,
    "grid": _section(GridSettings.__match_args__) | _LEAVES,
    "output": _section(OutputSettings.__match_args__) | _LEAVES,
})


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(doc=_DOCS)
def test_from_mapping_raises_only_package_errors(doc):
    try:
        RunConfig.from_mapping(doc)
    except p.PdcModesError:
        pass


def test_numeric_text_is_a_number(tmp_path):
    # YAML 1.1 reads 1.2e1 (no exponent sign) as the text "1.2e1"
    path = tmp_path / "run.yaml"
    path.write_text("pump: {bandwidth_fwhm_nm: 4.0, mean_power_mw: 1.2e1, "
                    "repetition_rate_mhz: 100.0}\n", encoding="utf-8")
    assert load_run_config(path).pump.mean_power_mw == 12.0
