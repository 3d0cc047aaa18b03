"""Run-configuration parsing: every malformed mapping is a package error,
and the block-mapping reader builds what PyYAML builds or declines."""

import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import pdcmodes as p
from pdcmodes.config import (GridSettings, OutputSettings, PdcSettings,
                             PumpSettings, RunConfig, load_run_config)
from pdcmodes.dispersion import _load_yaml, _read_block_mapping

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


def test_readme_examples_run_as_written(tmp_path, capsys):
    # the library quick start prints what its comments say, and the run
    # configuration shown loads into the same design and pump
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    quick_start, = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    run_yaml, = [block for block in re.findall(r"^```yaml\n(.*?)^```", readme,
                                               re.M | re.S)
                 if block.startswith("pdc:")]
    names = {}
    exec(compile(quick_start, "README.md", "exec"), names)
    k, s_db = capsys.readouterr().out.splitlines()
    assert round(float(k), 4) == 2.5591
    assert [round(float(v), 2) for v in s_db.strip("[]").split()] == [11.85, 8.85, 5.35]
    path = tmp_path / "run.yaml"
    path.write_text(run_yaml, encoding="utf-8")
    run = load_run_config(path)
    assert run.to_pdc_config(names["crystal"]) == names["config"]
    assert run.to_pump_pulse() == names["pump"]
    # without its null lines, the example is in the block reader's subset
    in_subset = "".join(line for line in run_yaml.splitlines(keepends=True)
                        if "null" not in line)
    assert _read_block_mapping(run_yaml) is None
    assert _read_block_mapping(in_subset) == yaml.safe_load(in_subset)
    path.write_text(in_subset, encoding="utf-8")
    assert load_run_config(path) == run


# ---------------------------------------------------------------------------
# the block-mapping reader: PyYAML's document, or none

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def _typed(node):
    """``node`` with every key and value's type spelled out, and the key
    order kept: equal for two documents only when PyYAML would build both
    the same way."""
    if isinstance(node, dict):
        return [(_typed(key), _typed(value)) for key, value in node.items()]
    return type(node).__name__, repr(node)


def _pyyaml_documents(text):
    """What every available safe loader builds from ``text``, or the text
    of its error."""
    documents = []
    for loader in LOADERS:
        try:
            documents.append(_typed(yaml.load(text, Loader=loader)))
        except yaml.YAMLError as exc:
            documents.append(("error", type(exc).__name__))
    return documents


# tokens near the subset's edges: YAML 1.1 bool and null words, octal and
# sexagesimal ints, exponents without a sign, special floats, quotes, flow
# collections, anchors, tags, indicators and non-ASCII text
_TRAP_WORDS = ["yes", "Yes", "YES", "no", "No", "on", "ON", "Off", "true",
               "False", "null", "Null", "NULL", "~", "y", "n", "yEs", "nil",
               "012", "09", "0x1F", "0b11", "1_000", "1e3", "1.0e3", "1e+3",
               ".5", ".inf", "-.inf", ".nan", "1:30", "2001-12-14", "x#y",
               "'q'", '"q"', "{b: 1}", "[1, 2]", "&x", "*x", "!!str", "|",
               ">", "-", "<<", "=", "°C", "_", "a-", "1.5e+999", "-0", "-0.0"]


def _mostly(usual, odd):
    """``usual``, or one time in ten ``odd`` (not the shrinking direction)."""
    return st.integers(0, 9).flatmap(lambda i: odd if i == 9 else usual)


_KEYS = _mostly(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
                st.sampled_from(_TRAP_WORDS))
_VALUES = _mostly(st.integers(-10 ** 20, 10 ** 20).map(str)
                  | st.floats(-1e6, 1e6).map(repr)
                  | st.floats(allow_nan=False).map("{:.6e}".format)
                  | st.from_regex(r"[A-Za-z_/][A-Za-z0-9_./-]{0,8}", fullmatch=True),
                  st.sampled_from(_TRAP_WORDS))
_PADS = _mostly(st.sampled_from(["  ", "    ", " "]),
                st.sampled_from(["", "\t", "  \t", "   "]))
_SEPARATORS = _mostly(st.sampled_from([" ", "  "]), st.sampled_from(["", "\t"]))
_COMMENTS = _mostly(st.sampled_from(["", "", " # c", "  #c: d", " #"]),
                    st.sampled_from(["#x", " # °C", " #\tx", "\r", "\u2028"]))
_NOISE = _mostly(st.sampled_from(["", "  ", "# note", "  # note"]),
                 st.sampled_from(["---", "...", "- a", "\ufeffa: 1", "\t"]))


@st.composite
def _block_documents(draw):
    """Texts shaped like a block-style run config, whose keys, values,
    indents, separators and comments are each sometimes out of the subset."""
    lines = []
    for key in draw(st.lists(_KEYS, max_size=4)):
        if draw(st.booleans()):
            lines.append(f"{key}:{draw(_SEPARATORS)}{draw(_VALUES)}"
                         f"{draw(_COMMENTS)}")
            continue
        lines.append(f"{key}:{draw(_COMMENTS)}")
        pad = draw(_PADS)
        for entry in draw(st.lists(_KEYS, min_size=1, max_size=3)):
            if draw(st.integers(0, 19)) == 19:
                pad = draw(_PADS)
            lines.append(f"{pad}{entry}:{draw(_SEPARATORS)}{draw(_VALUES)}"
                         f"{draw(_COMMENTS)}")
        lines += draw(st.lists(_NOISE, max_size=1))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(text=_block_documents())
def test_block_reader_builds_what_pyyaml_builds_or_declines(text):
    document = _read_block_mapping(text)
    if document is not None:
        assert _pyyaml_documents(text) == [_typed(document)] * len(LOADERS)


# each is a document that PyYAML reads, or refuses, differently from the
# subset's reading of its text, so the reader must hand it over; the last
# four open with "{" but are no strict JSON, so json hands them over too
@pytest.mark.parametrize("text", [
    "yes: -3\n", "On: 1\n", "null: 1\n", "NULL: 1\n", "No: 1\n",
    "pdc:\n  off: 2\n", "a: x#y\n", "a: 1.0e3\n", "a: 1e3\n", "a: 012\n",
    "a:\t1\n", "pdc:\n\ta: 1\n", "a: 1\r\nb: 2\r\n", "a: 1\rb: 2\n",
    "a: 'x'\n", '"a": 1\n', "a: {b: 1}\n", "a: [1, 2]\n", "a: &x 1\nb: *x\n",
    "a: !!str 1\n", "a: |\n  text\n", "a: >\n  text\n", "---\na: 1\n",
    "a: 1\n...\n", "a: 1\na: 2\n", "pdc:\n  a: 1\n  a: 2\n", "pdc:\n",
    "pdc:\npump:\n  a: 1\n", "a: ~\n", "a: null\n", "a: yes\n", "a: Off\n",
    "a: TRUE\n", "", "# only a comment\n", "  a: 1\n", "a: 1\n  b: 2\n",
    "pdc:\n  a: 1\n   b: 2\n", "pdc:\n  a: b c\n", "a: 1:30\n",
    "a: 2001-12-14\n", "a: .inf\n", "a: # c\n", "a:1\n", "a : 1\n",
    "a: 1 # °C\n", "\ufeffa: 1\n", "a: b\u2028c: d\n", "k" * 1100 + ": 1\n",
    '{"a": NaN}\n', '{"a": -Infinity}\n', "{a: 1}\n", '{"a": 1,}\n',
], ids=lambda text: repr(text)[:24])
def test_block_reader_hands_traps_to_pyyaml(text):
    assert _read_block_mapping(text) is None
    try:
        got = ("document", _typed(_load_yaml(text, "run config")))
    except p.ValidationError as exc:
        assert str(exc).startswith("run config is not valid YAML")
        got = ("error", "")
    try:
        expected = ("document", _typed(yaml.safe_load(text)))
    except yaml.YAMLError:
        expected = ("error", "")
    assert got == expected


@pytest.mark.parametrize("text", [
    "pdc:\n  type: type-I\n  pump_axis: e\n  signal_axis: o\n"
    "  pump_wavelength_nm: 775.0\n  temperature_c: 11.2345678901\n"
    "  crystal_length_mm: 80.0\npump:\n  bandwidth_fwhm_nm: 4.1234567\n"
    "  mean_power_mw: 12.0\n  repetition_rate_mhz: 100.0\n",
    "# a design\n\npdc:   # the source\n    pump_axis: e  # extraordinary\n"
    "    crystal_length_mm: -0.0\n\n    poling_period_um: +19.25\n"
    "grid:\n  points_per_axis: 128\n  detuning_extent_thz: 1.25E+1\n"
    "crystal_file: crystals/mgoln.yaml\noutput:\n directory: o_1\n  ",
    "a: -0\nb: 1.\nc: 1.5e+999\nd: 00.5\ne: yess\nf: x-y_z./w",
], ids=["bench_design", "commented", "edges"])
def test_block_reader_reads_the_subset(text):
    document = _read_block_mapping(text)
    assert document is not None
    assert _pyyaml_documents(text) == [_typed(document)] * len(LOADERS)
