"""Command-line surface: artifacts, determinism, exit codes, schemas."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml
from hypothesis import event, given, settings, strategies as st

import pdcmodes as p
from conftest import joined_csv
from pdcmodes import cli
from pdcmodes.config import RunConfig, load_run_config

MATCHED_YAML = """\
pdc:
  type: type-I
  pump_axis: e
  signal_axis: o
  pump_wavelength_nm: 775.0
  temperature_c: 11.0
  crystal_length_mm: 80.0
pump:
  bandwidth_fwhm_nm: 4.0
  mean_power_mw: 12.0
  repetition_rate_mhz: 100.0
"""

WALKOFF_YAML = """\
pdc:
  type: type-I
  pump_axis: e
  signal_axis: o
  pump_wavelength_nm: 740.0
  temperature_c: 24.5
  crystal_length_mm: 5.0
pump:
  bandwidth_fwhm_nm: 4.0
  mean_power_mw: 12.0
  repetition_rate_mhz: 100.0
"""

# the matched design's pdc section in flow style, outside the block-mapping
# subset that is read without PyYAML
FLOW_YAML = ("pdc: {type: type-I, pump_axis: e, signal_axis: o, "
             "pump_wavelength_nm: 775.0, temperature_c: 11.0, "
             "crystal_length_mm: 80.0}\n")

CONSTANT_INDEX_YAML = """\
name: constant-index
class: uniaxial
temperature_model: none
d_eff_pm_per_V: 1.0
valid_range_um: [0.5, 4.0]
provenance: synthetic dispersionless medium
sellmeier:
  o:
    form: sellmeier_standard
    coefficients: {a: 4.84, b: [], c: [], d: 0.0, dn_dt: 0.0, t_ref_c: 20.0}
  e:
    form: sellmeier_standard
    coefficients: {a: 4.41, b: [], c: [], d: 0.0, dn_dt: 0.0, t_ref_c: 20.0}
"""


def child_env():
    """The test environment with the imported package's root first on PYTHONPATH.

    The child runs in a temporary directory, where a relative PYTHONPATH
    entry such as ``src`` no longer resolves; the absolute directory makes it
    import the same ``pdcmodes`` as this process.
    """
    env = dict(os.environ)
    package_root = str(Path(p.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(*args, cwd):
    return subprocess.run([sys.executable, "-m", "pdcmodes", *args],
                          cwd=cwd, env=child_env(), capture_output=True, text=True)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Runs the reference ops of the workloads given as the first element of the
# JSON in argv[3] through cli.main in one process, each with the extra
# arguments of its second element, and prints the artifacts that differ from
# its third (perfbench/golden.json when null), as one JSON list on the last
# line.
GOLDEN_CHILD = """\
import json, os, shutil, sys
from pathlib import Path
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import checks, ops
os.environ.update(ops.BLAS_ENV)  # the threads the hashes were recorded with
from pdcmodes import cli
workloads, extra, hashes = json.loads(sys.argv[3])
golden, problems = hashes or checks.golden(), []
for op in [op for workload in workloads for op in ops.reference_ops(workload)]:
    op_dir = Path(sys.argv[2]) / op["kind"].replace("/", "_")
    op_dir.mkdir()
    config, out = op_dir / "design.yaml", op_dir / "out"
    config.write_text(op["yaml"], encoding="utf-8")
    if cli.main([*op["args"], *extra, "--config", str(config), "--out", str(out)]) != 0:
        problems.append(op["kind"] + ": nonzero exit")
    else:
        problems += checks.compare_hashes(op["kind"], checks.sha256_files(out),
                                          golden)
    shutil.rmtree(op_dir)
print(json.dumps(problems))
"""

# sha256 of the cli-export artifacts (jsa --include-complex, CSV and JSON) at
# --grid-n 200, whose last 64-row block holds 8 rows, recorded with
# GOLDEN_BUILD before the JSA kernel was assembled from its upper triangle.
JSA_N200_HASHES = {
    "jsa/csv/matched": {
        "jsa_abs.csv": "73b4d06d1d199bded53c1a47a2cf8847f0653fa641c838eba053af198d0c8780",
        "jsa_axis_thz.csv": "a7cc654ec006241b99c1cff7e2995cb6ada1c172562cbfdd4143ec6ee4ca7a71",
        "jsa_imag.csv": "eb54c6f50b518e63b1e08f5a3ca741d851698421db783e40f63027edf523a7da",
        "jsa_meta.json": "b8a28361b0f19ebd1d37d6547adf6680b1a36c6c64cf34c708c3782f4aad5f95",
        "jsa_real.csv": "a9da5ddea4542dc9fd05408bc0c6efe0f6b0b0e4257f8707420cf0843e2fe126",
    },
    "jsa/csv/walkoff": {
        "jsa_abs.csv": "5f539de9965d627d4e65433025afd46abc113b0cb10255790f36091d2ddee56f",
        "jsa_axis_thz.csv": "bc7be8eda98100034332e62aec91316127a77d7280978c5117f3527f9f318019",
        "jsa_imag.csv": "1dd4640d799d49ee84e53f3d8eaf93adecbd757c5f5e4aa0ccc7da7dc02fc814",
        "jsa_meta.json": "eb243fd32b9e870ec28aab6cf948b2da4404b1d671036d364e3bde34cce5531a",
        "jsa_real.csv": "918f3dcd682d8ac4af682015c9ed6f4aa82e946051443d5657416fed38d3e54d",
    },
    "jsa/json/matched": {
        "jsa.json": "f417a56b5c5f3c4a06318518055cf4e44e2bf98f03129b51668de219dde3edef",
        "jsa_meta.json": "b8a28361b0f19ebd1d37d6547adf6680b1a36c6c64cf34c708c3782f4aad5f95",
    },
    "jsa/json/walkoff": {
        "jsa.json": "72914e5e546effa60db6dfe662e68f9da70bbf24b30f7f770789eb28290fc2f0",
        "jsa_meta.json": "eb243fd32b9e870ec28aab6cf948b2da4404b1d671036d364e3bde34cce5531a",
    },
}


def golden_problems(tmp_path, workloads, extra=(), hashes=None) -> list[str]:
    """GOLDEN_CHILD's list of the artifacts that differ from their hashes."""
    result = subprocess.run(
        [sys.executable, "-c", GOLDEN_CHILD, str(PERFBENCH), str(tmp_path),
         json.dumps([workloads, list(extra), hashes])],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


# The build perfbench/golden.json was recorded with. The low bits of an SVD,
# and so the spectral artifacts, can differ on another numpy or BLAS build.
GOLDEN_BUILD = "numpy 2.4.6, OpenBLAS 0.3.31"


def numpy_build() -> str:
    """The running numpy and the BLAS it was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.25 has no mode="dicts"
        return f"numpy {np.__version__}, BLAS unknown"
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"


def load_schema(name):
    path = resources.files("pdcmodes").joinpath(f"schemas/{name}")
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    (path / "matched.yaml").write_text(MATCHED_YAML, encoding="utf-8")
    (path / "walkoff.yaml").write_text(WALKOFF_YAML, encoding="utf-8")
    (path / "constant.yaml").write_text(CONSTANT_INDEX_YAML, encoding="utf-8")
    (path / "flow.yaml").write_text(FLOW_YAML, encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_child_imports_package_under_test(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", "import pdcmodes; print(pdcmodes.__file__)"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.strip()).resolve() == Path(p.__file__).resolve()


def test_import_pulls_in_no_scipy(tmp_path):
    code = ("import json, sys, pdcmodes, pdcmodes.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                            env=child_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def loaded_modules(code, cwd, package="pdcmodes"):
    """The modules of ``package`` a fresh interpreter has loaded after ``code``."""
    code += ("\nimport json, sys; print(json.dumps(sorted("
             f"m for m in sys.modules if m.split('.')[0] == {package!r})))")
    result = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                            env=child_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestLazyImports:
    def test_bundled_crystal_loads_only_the_dispersion_layer(self, tmp_path):
        code = "import pdcmodes; pdcmodes.load_bundled_crystal()"
        assert loaded_modules(code, tmp_path) == [
            "pdcmodes", "pdcmodes._record", "pdcmodes.constants",
            "pdcmodes.dispersion", "pdcmodes.errors"]

    DESIGN_COMMANDS = pytest.mark.parametrize("args", [
        ["dispersion", "--lambda-min-um", "0.6", "--lambda-max-um", "3.6",
         "--samples", "5"],
        ["cgvm", "--pump-axis", "e", "--signal-axis", "o"],
        ["poling", "--config", "matched.yaml"],
        ["poling", "--config", "flow.yaml"],
    ], ids=["dispersion", "cgvm", "poling", "poling_flow_config"])

    @DESIGN_COMMANDS
    def test_design_commands_skip_the_pipeline(self, workdir, tmp_path, args):
        code = ("from pdcmodes import cli; "
                f"assert cli.main({[*args, '--out', str(tmp_path)]!r}) == 0")
        loaded = loaded_modules(code, workdir)
        assert "pdcmodes.phasematch" in loaded
        assert "pdcmodes.jsa" not in loaded
        assert "pdcmodes.squeezing" not in loaded

    # the design chain's records are built without dataclasses, whose
    # import pulls in inspect, ast, dis and tokenize
    @DESIGN_COMMANDS
    def test_design_commands_skip_dataclasses_and_inspect(self, workdir,
                                                          tmp_path, args):
        code = ("import pdcmodes; pdcmodes.load_bundled_crystal(); "
                "from pdcmodes import cli; "
                f"assert cli.main({[*args, '--out', str(tmp_path)]!r}) == 0")
        for package in ("dataclasses", "inspect"):
            assert loaded_modules(code, workdir, package=package) == []

    # the design chain (crystal load, dispersion, cgvm, poling, and their
    # errors) runs on the stdlib; numpy loads only for the JSA pipeline
    @pytest.mark.parametrize("argv, error, numpy", [
        (["poling", "--config", "matched.yaml"], None, False),
        (["poling", "--config", "flow.yaml"], None, False),
        (["cgvm", "--pump-axis", "e", "--signal-axis", "o"], None, False),
        (["cgvm", "--pump-axis", "e", "--signal-axis", "o", "--target-um",
          "1.55"], None, False),
        (["poling", "--config", "unknown_key.yaml"], "validity", False),
        (["dispersion", "--lambda-min-um", "0.6", "--lambda-max-um", "3.6",
          "--samples", "5"], None, False),
        (["dispersion", "--lambda-min-um", "0.6", "--lambda-max-um", "3.6",
          "--temperature-c", "-400"], "domain", False),
        (["jsa", "--config", "matched.yaml", "--grid-n", "64"], None, True),
    ], ids=["poling", "poling_flow_config", "cgvm", "cgvm_target",
            "validity_error", "dispersion", "dispersion_domain_error", "jsa"])
    def test_numpy_loads_only_for_array_work(self, workdir, tmp_path, argv,
                                             error, numpy):
        (workdir / "unknown_key.yaml").write_text(
            MATCHED_YAML.replace("crystal_length_mm", "crystal_length_um"),
            encoding="utf-8")
        code = ("import contextlib, io\n"
                "from pdcmodes import cli\n"
                "err = io.StringIO()\n"
                "with contextlib.redirect_stderr(err):\n"
                f"    status = cli.main({[*argv, '--out', str(tmp_path)]!r})\n"
                f"assert status == {3 if error else 0}, err.getvalue()\n"
                f"assert err.getvalue().startswith({f'error[{error}]:' if error else ''!r})")
        assert bool(loaded_modules(code, workdir, package="numpy")) == numpy

    # a JSON file, the bundled crystal's among them, is read by the stdlib,
    # and so is a block-style run config: PyYAML loads only to parse a YAML
    # file outside that subset, such as a flow-style config or a crystal file
    @pytest.mark.parametrize("argv, yaml_loaded", [
        (None, False),
        (["cgvm", "--pump-axis", "e", "--signal-axis", "o"], False),
        (["dispersion", "--lambda-min-um", "0.6", "--lambda-max-um", "3.6",
          "--samples", "5"], False),
        (["poling", "--config", "matched.yaml"], False),
        (["poling", "--config", "flow.yaml"], True),
        (["dispersion", "--crystal", "mgoln.yaml", "--lambda-min-um", "0.6",
          "--lambda-max-um", "3.6", "--samples", "5"], True),
        (["dispersion", "--crystal", "mgoln.json", "--lambda-min-um", "0.6",
          "--lambda-max-um", "3.6", "--samples", "5"], False),
        (["poling", "--config", "matched.json"], False),
    ], ids=["bundled_crystal", "cgvm", "dispersion", "poling_config",
            "poling_flow_config", "crystal_file", "json_crystal_file",
            "json_run_config"])
    def test_yaml_loads_only_to_parse_a_yaml_file(self, workdir, tmp_path,
                                                  argv, yaml_loaded):
        text = p.bundled_crystal_path().read_text(encoding="utf-8")
        (workdir / "mgoln.json").write_text(text, encoding="utf-8")
        (workdir / "mgoln.yaml").write_text(
            yaml.safe_dump(json.loads(text), sort_keys=False), encoding="utf-8")
        (workdir / "matched.json").write_text(
            json.dumps(yaml.safe_load(MATCHED_YAML)), encoding="utf-8")
        code = "import pdcmodes; pdcmodes.load_bundled_crystal()"
        if argv is not None:
            code += ("\nfrom pdcmodes import cli\n"
                     f"assert cli.main({[*argv, '--out', str(tmp_path)]!r}) == 0")
        loaded = loaded_modules(code, workdir, package="yaml")
        assert bool(loaded) == yaml_loaded, loaded

    def test_bundled_crystal_loads_without_numpy(self, tmp_path):
        code = "import pdcmodes; pdcmodes.load_bundled_crystal()"
        assert loaded_modules(code, tmp_path, package="numpy") == []

    def test_every_public_name_resolves(self):
        for name in p.__all__:
            assert getattr(p, name) is not None, name
        namespace = {}
        exec("from pdcmodes import *", namespace)
        assert set(p.__all__) <= set(namespace)
        assert set(p.__all__) <= set(dir(p))
        assert p.squeezing_spectrum is p.squeezing.squeezing_spectrum

    def test_names_follow_a_rebinding_of_their_submodule(self, monkeypatch):
        # what perfbench/spans.py does when it installs and removes its tracer
        original = p.gvd
        monkeypatch.setattr(p.dispersion, "gvd", lambda *args: None)
        assert p.gvd is p.dispersion.gvd
        monkeypatch.undo()
        assert p.gvd is original

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            p.no_such_name
        assert not hasattr(p, "load_run_config")


class TestYamlLoaders:
    """A YAML file outside the block-mapping subset is parsed by PyYAML's
    pure-Python safe loader on every PyYAML build. libyaml's loader, where
    PyYAML has one, goes unused: it reads some text differently and words
    its errors differently, so a document or an error line would depend on
    how PyYAML was built."""

    @pytest.fixture(autouse=True)
    def libyaml_refused(self, monkeypatch):
        # a build with libyaml, whose loader fails the test when it is taken
        class Refused(yaml.SafeLoader):
            def __init__(self, stream):
                raise AssertionError("libyaml's loader was used")
        monkeypatch.setattr(yaml, "CSafeLoader", Refused, raising=False)

    @pytest.mark.parametrize("text", [None, CONSTANT_INDEX_YAML],
                             ids=["bundled", "constant_index"])
    def test_crystal_is_the_same_model(self, text):
        text = text or p.bundled_crystal_path().read_text(encoding="utf-8")
        assert p.load_crystal(text) == p.load_crystal(yaml.safe_load(text))

    def test_bundled_json_is_the_same_yaml_document(self):
        # the bundled file is JSON, which PyYAML reads as the document
        # json.loads gives, with the same types
        text = p.bundled_crystal_path().read_text(encoding="utf-8")
        document = json.loads(text)
        parsed = yaml.safe_load(text)
        assert parsed == document
        assert repr(parsed) == repr(document)

    @pytest.mark.parametrize("text", ['{"a": 1e5, "b": [1.0E+2, -0]}',
                                      ' \n\t{"a": 1e5, "b": [1.0E+2, -0]}\n'],
                             ids=["json", "leading_blanks"])
    def test_strict_json_is_read_as_json(self, text):
        # YAML 1.1 reads a number with an exponent but no dot, or no
        # exponent sign, as text; NaN and Infinity, which are no JSON, fall
        # through to it (tests/test_config.py)
        parsed = p.dispersion._load_yaml(text, "run config")
        assert repr(parsed) == repr({"a": 100000.0, "b": [100.0, 0]})

    @pytest.mark.parametrize("name", ["matched.yaml", "walkoff.yaml", "full.yaml"])
    def test_run_config_is_the_same(self, workdir, name):
        # the flow-style text goes to PyYAML, the block-style one does not,
        # and the JSON one goes to json
        (workdir / "full.yaml").write_text(
            MATCHED_YAML + "grid:\n  points_per_axis: 128\n"
            "  detuning_extent_thz: 12.5\noutput:\n  directory: o\n"
            "  format: json\n  precision: 17\n", encoding="utf-8")
        block = load_run_config(workdir / name)
        document = yaml.safe_load((workdir / name).read_text(encoding="utf-8"))
        flow = workdir / f"flow_{name}"
        flow.write_text(yaml.safe_dump(document, default_flow_style=True,
                                       sort_keys=False), encoding="utf-8")
        assert not p.dispersion._read_block_mapping(flow.read_text(encoding="utf-8"))
        assert load_run_config(flow) == block
        as_json = workdir / f"{name}.json"
        as_json.write_text(json.dumps(document, indent=2), encoding="utf-8")
        assert load_run_config(as_json) == block
        assert block.pdc is not None

    @pytest.mark.parametrize("option, what", [("--config", "run config"),
                                              ("--crystal", "crystal file")])
    @pytest.mark.parametrize("text", ["pdc: [unclosed\n", "a: b: c\n",
                                      "--- 1\n--- 2\n", "a: [1,\nb: {",
                                      "a:\t1\n", '{"pdc": [1, 2}\n',
                                      '{"pdc": {"type": "type-I",\n',
                                      '{"pdc": ' + "[" * 5000 + "]" * 5000 + "}\n",
                                      "[" * 5000 + "]" * 5000 + "\n"],
                             ids=["unclosed", "nested_colon", "two_documents",
                                  "unclosed_at_end", "tab_separator",
                                  "malformed_json", "unclosed_json",
                                  "deep_json", "deep_flow_yaml"])
    def test_malformed_yaml_is_one_validity_line(self, tmp_path, capsys,
                                                 option, what, text):
        # the line carries the pure-Python loader's text, where libyaml's
        # differs ("did not find expected node content" on "a: [1,\nb: {"),
        # and its verdict: libyaml reads "a:\t1" as {a: 1}; json and that
        # loader recurse once per level, so 5,000 levels exceed both
        try:
            yaml.safe_load(text)
        except yaml.YAMLError as exc:
            reason = f"is not valid YAML: {cli._single_line(exc)}"
        except RecursionError:
            reason = "is nested too deeply to be read"
        else:
            pytest.fail("PyYAML reads the text")
        bad = tmp_path / "bad.yaml"
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["poling", option, str(bad), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error[validity]: {what} {reason}"]
        assert captured.out == ""
        assert not out.exists()


# one cell of each kind the CLI writes; the floats include ±0, subnormals,
# ±inf, nan and ±1e308
_FLOAT_CELLS = (st.floats() | st.floats().map(np.float64)
                | st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, math.inf,
                                   -math.inf, math.nan, 1e308, -1e308]))
_TEXT_CELLS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)


@st.composite
def _tables(draw):
    """A header and rows, or rows alone (at least one, as _write_csv takes
    them), whose columns each keep one kind of cell."""
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    header = draw(st.none() | st.lists(st.text("abc_", min_size=1),
                                       min_size=len(kinds), max_size=len(kinds)))
    rows = draw(st.lists(st.tuples(*(_FLOAT_CELLS if is_float else _TEXT_CELLS
                                     for is_float in kinds)),
                         min_size=1 if header is None else 0, max_size=4))
    return header, rows


class TestWriters:
    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("writers")

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(table=_tables(), precision=st.integers(1, 17))
    def test_csv_matches_per_cell_joiner(self, out_dir, table, precision):
        header, rows = table
        path = out_dir / "table.csv"
        cli._write_csv(path, header, rows, precision)
        assert path.read_bytes() == joined_csv(header, rows, precision).encode()

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(matrix=st.lists(st.lists(_FLOAT_CELLS, min_size=3, max_size=3),
                           min_size=1, max_size=3),
           precision=st.integers(1, 17))
    def test_csv_of_a_matrix_matches_per_cell_joiner(self, out_dir, matrix,
                                                    precision):
        array = np.array(matrix, dtype=float).reshape(-1, 3)
        path = out_dir / "matrix.csv"
        cli._write_csv(path, None, array, precision)
        assert path.read_bytes() == \
            joined_csv(None, array.tolist(), precision).encode()

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(upper=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=15),
           head=st.dictionaries(st.text(max_size=3), st.integers() | st.floats(
               allow_nan=False, allow_infinity=False) | st.text(max_size=3),
               min_size=1, max_size=3))
    def test_grids_json_matches_json_dump(self, out_dir, upper, head):
        # a symmetric grid from the first k(k+1)/2 values, row by row
        k = int((math.isqrt(8 * len(upper) + 1) - 1) // 2)
        grid = np.empty((k, k))
        grid[np.triu_indices(k)] = upper[:k * (k + 1) // 2]
        grid.T[np.triu_indices(k)] = grid[np.triu_indices(k)]
        grids = {"abs": grid, "real": -grid}
        path = out_dir / "grids.json"
        cli._write_grids_json(path, head, grids)
        expected = json.dumps({**head, **{name: part.tolist() for name, part
                                          in grids.items()}},
                              indent=2, allow_nan=False) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("cells", [(0.0, math.nan), (math.inf, 1.0),
                                       (1.0, 2.0), (0.0, -0.0)],
                             ids=["nan", "inf", "asymmetric", "zero_sign"])
    def test_grids_json_refuses_non_finite_or_asymmetric(self, out_dir, cells):
        grid = np.array([[1.0, cells[0]], [cells[1], 1.0]])
        path = out_dir / "bad_grid.json"
        with pytest.raises(ValueError, match="not a finite symmetric grid"):
            cli._write_grids_json(path, {"n": 2}, {"abs": grid})
        assert not path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_failed_write_leaves_no_file(self, out_dir):
        path = out_dir / "nan.json"
        with pytest.raises(ValueError):
            cli._write_json(path, {"a": [1.0, math.nan]})
        assert not path.exists()
        assert not path.with_name(path.name + ".tmp").exists()


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, workdir):
        for out in ("det_a", "det_b"):
            result = run_cli("jsa", "--config", "matched.yaml", "--grid-n", "128",
                             "--out", out, cwd=workdir)
            assert result.returncode == 0, result.stderr
        names = sorted(f.name for f in (workdir / "det_a").iterdir())
        assert names == sorted(f.name for f in (workdir / "det_b").iterdir())
        for name in names:
            assert (workdir / "det_a" / name).read_bytes() == \
                (workdir / "det_b" / name).read_bytes(), name

    def test_dispersion_rerun_byte_identical(self, workdir):
        args = ("dispersion", "--lambda-min-um", "0.55", "--lambda-max-um",
                "3.6", "--samples", "200")
        for out in ("ddet_a", "ddet_b"):
            result = run_cli(*args, "--out", out, cwd=workdir)
            assert result.returncode == 0, result.stderr
        assert (workdir / "ddet_a" / "dispersion.csv").read_bytes() == \
            (workdir / "ddet_b" / "dispersion.csv").read_bytes()

    def test_reference_artifacts_match_benchmark_golden(self, tmp_path):
        # 16 ops: both designs of every (command, format) pair in cli-design
        # and cli-export, jsa --include-complex as CSV and JSON included
        problems = golden_problems(tmp_path, ["cli-design", "cli-export"])
        assert problems == [], (
            f"{problems}; the hashes were recorded with {GOLDEN_BUILD}, this "
            f"run used {numpy_build()}")

    def test_jsa_export_with_a_partial_row_block_matches_recorded_hashes(
            self, tmp_path):
        problems = golden_problems(tmp_path, ["cli-export"],
                                   ["--grid-n", "200"], JSA_N200_HASHES)
        assert problems == [], (
            f"{problems}; the hashes were recorded with {GOLDEN_BUILD}, this "
            f"run used {numpy_build()}")


@pytest.fixture(scope="module")
def table(workdir):
    result = run_cli("dispersion", "--lambda-min-um", "0.55",
                     "--lambda-max-um", "3.6", "--samples", "400",
                     "--out", "disp", cwd=workdir)
    assert result.returncode == 0, result.stderr
    header, rows = read_csv(workdir / "disp" / "dispersion.csv")
    assert header == ["lambda_um", "axis", "n", "group_index",
                      "gvd_ps2_per_m"]
    by_axis = {}
    for lam, axis, n, m, g in rows:
        by_axis.setdefault(axis, []).append((float(lam), float(n),
                                             float(m), float(g)))
    return {axis: np.array(vals) for axis, vals in by_axis.items()}


class TestDispersionCommand:
    def test_curve_intersections_locate_matching_points(self, table):
        lam_e, m_e = table["e"][:, 0], table["e"][:, 2]
        lam_o, m_o = table["o"][:, 0], table["o"][:, 2]
        probe = np.linspace(1.2, 2.0, 4001)
        gap = np.interp(probe / 2, lam_e, m_e) - np.interp(probe, lam_o, m_o)
        crossing = probe[np.nonzero(np.diff(np.sign(gap)))[0][0]]
        assert abs(crossing - 1.566) < 0.005
        probe0 = np.linspace(2.0, 3.5, 4001)
        gap0 = np.interp(probe0 / 2, lam_e, m_e) - np.interp(probe0, lam_e, m_e)
        crossing0 = probe0[np.nonzero(np.diff(np.sign(gap0)))[0][0]]
        assert abs(crossing0 - 2.7) < 0.04

    def test_empty_range_is_usage_error(self, workdir):
        result = run_cli("dispersion", "--lambda-min-um", "2.0",
                         "--lambda-max-um", "2.0", cwd=workdir)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error[usage]:")

    def test_samples_above_the_cap_are_usage_error(self, tmp_path, capsys,
                                                   monkeypatch):
        # refused before its wavelengths are made, let alone evaluated; the
        # cap itself is taken, tabulated here at its two ends only
        made, linspace = [], cli.disp._linspace

        def recorded(lo, hi, samples):
            made.append(samples)
            return linspace(lo, hi, samples) if samples < 1000 else [lo, hi]
        monkeypatch.setattr(cli.disp, "_linspace", recorded)
        args = ["dispersion", "--lambda-min-um", "1", "--lambda-max-um", "2"]
        out = tmp_path / "out"
        cap = cli._MAX_SAMPLES
        assert cli.main([*args, "--samples", str(cap + 1), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error[usage]: --samples must be at most {cap}, got {cap + 1}\n")
        assert captured.out == ""
        assert not out.exists() and cap + 1 not in made
        assert cli.main([*args, "--samples", str(cap), "--out", str(out)]) == 0
        assert cap in made

    @pytest.mark.parametrize("lo, hi, samples, t_c", [
        (0.6, 3.6, 400, 24.5), (0.55, 3.9, 301, 11.0), (1.0, 2.0, 2, 180.0),
        (0.5, 4.0, 5, 24.5),
    ])
    def test_rows_are_the_scalar_library_values(self, tmp_path, lo, hi,
                                                samples, t_c):
        assert cli.main(["dispersion", "--lambda-min-um", repr(lo),
                         "--lambda-max-um", repr(hi), "--samples",
                         str(samples), "--temperature-c", repr(t_c),
                         "--format", "json", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "dispersion.json").read_text())
        crystal = p.load_bundled_crystal()
        lam = np.linspace(lo, hi, samples).tolist()
        expected = [
            [x, axis, p.refractive_index(crystal, axis, x, t_c),
             p.group_index(crystal, axis, x, t_c), p.gvd(crystal, axis, x, t_c)]
            for axis in ("e", "o") for x in lam]
        assert payload["rows"] == expected

    @pytest.mark.parametrize("spelling", ["-1e1", "-1E+1", "-1.0e1", "-.1e2",
                                          "-100e-1"])
    def test_exponent_form_negative_is_the_same_number(self, tmp_path,
                                                       spelling):
        # argparse alone reads -1e1 as an option, not as the value of
        # --temperature-c
        args = ["dispersion", "--lambda-min-um", "0.6", "--lambda-max-um",
                "3.6", "--samples", "20", "--temperature-c"]
        for value, out in (("-10", "plain"), (spelling, "exponent")):
            assert cli.main([*args, value, "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "exponent" / "dispersion.csv").read_bytes() == \
            (tmp_path / "plain" / "dispersion.csv").read_bytes()

    def test_one_derivative_pass_per_cell(self, tmp_path, monkeypatch):
        # beyond the load check, a cell's n, group index and GVD share one
        # pass of the temperature terms
        calls = {"_terms": 0}
        terms = p.dispersion.GayerTwoPole._terms

        def counted(self, t_c):
            calls["_terms"] += 1
            return terms(self, t_c)
        monkeypatch.setattr(p.dispersion.GayerTwoPole, "_terms", counted)
        p.load_bundled_crystal()
        load_check = calls["_terms"]
        calls["_terms"] = 0
        assert cli.main(["dispersion", "--lambda-min-um", "0.6",
                         "--lambda-max-um", "3.6", "--samples", "400",
                         "--out", str(tmp_path)]) == 0
        assert calls["_terms"] == load_check + 2 * 400

    def test_json_format_validates(self, workdir):
        result = run_cli("dispersion", "--lambda-min-um", "1.0",
                         "--lambda-max-um", "2.0", "--samples", "10",
                         "--format", "json", "--out", "dispj", cwd=workdir)
        assert result.returncode == 0, result.stderr
        payload = json.loads((workdir / "dispj" / "dispersion.json").read_text())
        jsonschema.validate(payload, load_schema("table.schema.json"))


class TestCgvmCommand:
    def test_type1_report(self, workdir):
        result = run_cli("cgvm", "--pump-axis", "e", "--signal-axis", "o",
                         "--target-um", "1.55", "--out", "cgvm_report", cwd=workdir)
        assert result.returncode == 0, result.stderr
        payload = json.loads((workdir / "cgvm_report" / "cgvm.json").read_text())
        jsonschema.validate(payload, load_schema("cgvm.schema.json"))
        assert abs(payload["cgvm_wavelength_um"] - 1.566) < 0.002
        assert abs(payload["solved_temperature_c"] - 11.0) < 2.0
        assert "cgvm_wavelength_um = " in result.stdout

    @pytest.mark.parametrize("args, message", [
        (("--bracket-um", "1.8", "2.0"), "no cGVM point"),
        (("--target-um", "-1.55"),
         "cGVM target wavelength must be > 0 µm, got -1.55"),
    ], ids=["no_crossing_bracket", "negative_target"])
    def test_unsolvable_design_is_one_solver_line(self, workdir, tmp_path,
                                                  args, message):
        out = tmp_path / "out"
        result = run_cli("cgvm", "--pump-axis", "e", "--signal-axis", "o",
                         *args, "--out", str(out), cwd=workdir)
        assert result.returncode == 4, result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("error[solver]: ") and message in line, line
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, args, unwritable, kind, code", [
        ("cgvm", ("--target-um", "5.0"), False, "domain", 3),
        ("cgvm", ("--target-um", "1.55"), True, "io", 5),
        ("poling", (), True, "io", 5),
    ], ids=["cgvm_target_outside_range", "cgvm_unwritable_out",
            "poling_unwritable_out"])
    def test_failure_after_the_solve_prints_no_result(
            self, workdir, tmp_path, capsys, command, args, unwritable, kind,
            code):
        # the result lines go to stdout only once every solve and the
        # write have succeeded; an --out below a file cannot be made
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out" if unwritable else tmp_path / "out"
        design = (("--pump-axis", "e", "--signal-axis", "o") if command == "cgvm"
                  else ("--config", str(workdir / "matched.yaml")))
        assert cli.main([command, *design, *args, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error[{kind}]: "), line
        assert not out.exists() and not (tmp_path / "out").exists()

    def test_bracket_reaching_the_range_bound_solves(self, workdir):
        # at a 1.0 µm bracket end the pump's k′ is taken at the 0.5 µm bound
        result = run_cli("cgvm", "--pump-axis", "e", "--signal-axis", "o",
                         "--bracket-um", "1.0", "2.0", "--out", "cgvm_bound",
                         cwd=workdir)
        assert result.returncode == 0, result.stderr
        payload = json.loads((workdir / "cgvm_bound" / "cgvm.json").read_text())
        assert abs(payload["cgvm_wavelength_um"] - 1.566) < 0.002

    def test_constant_index_crystal_has_no_matching_point(self, workdir):
        result = run_cli("cgvm", "--crystal", "constant.yaml",
                         "--pump-axis", "e", "--signal-axis", "o", cwd=workdir)
        assert result.returncode == 4, result.stderr
        assert "no cGVM point" in result.stderr


class TestPolingCommand:
    def test_period_values(self, workdir):
        for config, expected in (("matched.yaml", 19.2), ("walkoff.yaml", 20.5)):
            out = f"poling_{config.split('.')[0]}"
            result = run_cli("poling", "--config", config, "--out", out,
                             cwd=workdir)
            assert result.returncode == 0, result.stderr
            payload = json.loads((workdir / out / "poling.json").read_text())
            jsonschema.validate(payload, load_schema("poling.schema.json"))
            assert abs(payload["poling_period_um"] - expected) < 0.02 * expected


@pytest.fixture(scope="module")
def jsa_artifacts(workdir):
    result = run_cli("jsa", "--config", "matched.yaml", "--include-complex",
                     "--out", "jsa_matched", cwd=workdir)
    assert result.returncode == 0, result.stderr
    return workdir / "jsa_matched"


class TestJsaCommand:
    def test_metadata_values(self, jsa_artifacts):
        artifacts = jsa_artifacts
        meta = json.loads((artifacts / "jsa_meta.json").read_text())
        jsonschema.validate(meta, load_schema("jsa_meta.schema.json"))
        assert abs(meta["schmidt_number"] - 2.56) < 0.05 * 2.56
        assert abs(meta["eta_jsa"] - 0.75) < 0.05
        assert abs(meta["poling_period_um"] - 19.2) < 0.02 * 19.2
        assert meta["grid_n"] == 512

    def test_grid_file_shape(self, jsa_artifacts):
        artifacts = jsa_artifacts
        with open(artifacts / "jsa_abs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 512
        assert all(len(row) == 512 for row in rows)
        axis = (artifacts / "jsa_axis_thz.csv").read_text().strip().splitlines()
        assert axis[0] == "f_thz"
        assert len(axis) == 513

    def test_axis_in_linear_terahertz(self, jsa_artifacts):
        artifacts = jsa_artifacts
        axis = np.loadtxt(artifacts / "jsa_axis_thz.csv", skiprows=1)
        assert 180.0 < axis[0] < axis[-1] < 210.0   # brackets 193.4 THz

    def test_complex_parts_reconstruct_magnitude(self, jsa_artifacts):
        artifacts = jsa_artifacts
        mag = np.loadtxt(artifacts / "jsa_abs.csv", delimiter=",")
        re = np.loadtxt(artifacts / "jsa_real.csv", delimiter=",")
        im = np.loadtxt(artifacts / "jsa_imag.csv", delimiter=",")
        assert np.allclose(np.hypot(re, im), mag, rtol=1e-6, atol=1e-20)

    def test_walk_off_design_mode_count(self, workdir):
        result = run_cli("jsa", "--config", "walkoff.yaml", "--out", "jsa_walkoff",
                         cwd=workdir)
        assert result.returncode == 0, result.stderr
        meta = json.loads((workdir / "jsa_walkoff" / "jsa_meta.json").read_text())
        assert abs(meta["schmidt_number"] - 9.4) < 0.05 * 9.4


@pytest.fixture(scope="module")
def modes_artifacts(workdir):
    result = run_cli("modes", "--config", "matched.yaml", "--modes", "4",
                     "--out", "modes_out", cwd=workdir)
    assert result.returncode == 0, result.stderr
    return workdir / "modes_out"


class TestModesCommand:
    def test_mode_sign_changes(self, modes_artifacts):
        artifacts = modes_artifacts
        for n in range(3):
            data = np.loadtxt(artifacts / f"mode_{n}.csv", delimiter=",",
                              skiprows=1)
            re = data[:, 1]
            significant = np.abs(re) > 1e-3 * np.abs(re).max()
            signs = np.sign(re[significant])
            assert int(np.sum(signs[1:] != signs[:-1])) == n

    def test_singular_values_complete(self, modes_artifacts):
        artifacts = modes_artifacts
        meta = json.loads((artifacts / "modes_meta.json").read_text())
        jsonschema.validate(meta, load_schema("modes_meta.schema.json"))
        assert abs(sum(v * v for v in meta["s"]) - 1.0) < 1e-9

    def test_exported_modes_orthogonal(self, modes_artifacts):
        artifacts = modes_artifacts
        m0 = np.loadtxt(artifacts / "mode_0.csv", delimiter=",", skiprows=1)
        m1 = np.loadtxt(artifacts / "mode_1.csv", delimiter=",", skiprows=1)
        # full-span step estimate: adjacent 9-digit frequencies quantize too
        # coarsely for a 1e-6 norm check
        step = 2 * math.pi * (m0[-1, 0] - m0[0, 0]) / (len(m0) - 1) * 1e12
        overlap = np.sum(m0[:, 1] * m1[:, 1] + m0[:, 2] * m1[:, 2]) \
            * step / (2 * math.pi)
        norm = np.sum(m0[:, 1] ** 2 + m0[:, 2] ** 2) * step / (2 * math.pi)
        assert abs(norm - 1.0) < 1e-6
        assert abs(overlap) < 1e-6

    def test_json_modes_are_real(self, workdir):
        result = run_cli("modes", "--config", "matched.yaml", "--modes", "2",
                         "--grid-n", "128", "--format", "json",
                         "--out", "modes_json", cwd=workdir)
        assert result.returncode == 0, result.stderr
        for n in range(2):
            payload = json.loads((workdir / "modes_json" / f"mode_{n}.json").read_text())
            assert payload["columns"] == ["f_thz", "re_psi", "im_psi", "abs_psi"]
            assert len(payload["rows"]) == 128
            for _, re_psi, im_psi, abs_psi in payload["rows"]:
                assert im_psi == 0.0 and math.copysign(1.0, im_psi) == 1.0
                assert abs_psi == abs(re_psi)

    def test_too_many_modes_is_domain_error(self, workdir):
        result = run_cli("modes", "--config", "matched.yaml", "--modes", "999",
                         "--grid-n", "128", cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("error[domain]:")

    def test_too_many_modes_is_refused_before_the_decomposition(
            self, workdir, tmp_path, capsys, monkeypatch):
        # the kernel is n × n, so its rank is the grid's points per axis
        def refuse(*args):
            raise AssertionError("the JSA pipeline ran")
        for name in ("compute_jsa", "schmidt_decompose"):
            monkeypatch.setattr(p.jsa, name, refuse)
        out = tmp_path / "out"
        assert cli.main(["modes", "--config", str(workdir / "matched.yaml"),
                         "--modes", "129", "--grid-n", "128",
                         "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error[domain]: requested 129 modes but the decomposition has "
            "rank 128"]
        assert captured.out == "" and not out.exists()


class TestSqueezeAndScan:
    def test_design_point(self, workdir):
        result = run_cli("squeeze", "--config", "matched.yaml", "--out", "sq",
                         cwd=workdir)
        assert result.returncode == 0, result.stderr
        payload = json.loads((workdir / "sq" / "squeeze.json").read_text())
        jsonschema.validate(payload, load_schema("squeeze.schema.json"))
        assert abs(payload["s_db"][0] - 12.0) < 0.5
        assert payload["beyond_validity"] is False

    def test_scan_single_length_matches_squeeze(self, workdir):
        result = run_cli("scan", "--config", "matched.yaml", "--lengths-mm", "80",
                         "--out", "scan80", cwd=workdir)
        assert result.returncode == 0, result.stderr
        header, rows = read_csv(workdir / "scan80" / "scan.csv")
        assert header == ["l_mm", "k", "eta_jsa", "eta_pdc_per_w", "r0",
                          "s_db", "validity_flag"]
        assert len(rows) == 1
        payload = json.loads((workdir / "sq" / "squeeze.json").read_text())
        assert float(rows[0][5]) == pytest.approx(payload["s_db"][0], rel=1e-8)
        assert rows[0][6] == "false"

    def test_walk_off_scan_saturates_past_8mm(self, workdir):
        result = run_cli("scan", "--config", "walkoff.yaml", "--lengths-mm",
                         "2", "4", "8", "16", "--grid-n", "256",
                         "--out", "scan_walkoff", cwd=workdir)
        assert result.returncode == 0, result.stderr
        _, rows = read_csv(workdir / "scan_walkoff" / "scan.csv")
        s_db = [float(row[5]) for row in rows]
        assert s_db[3] <= s_db[2]

    def test_scan_json_validates(self, workdir):
        result = run_cli("scan", "--config", "matched.yaml", "--lengths-mm", "20",
                         "--grid-n", "128", "--format", "json",
                         "--out", "scanj", cwd=workdir)
        assert result.returncode == 0, result.stderr
        payload = json.loads((workdir / "scanj" / "scan.json").read_text())
        jsonschema.validate(payload, load_schema("table.schema.json"))

    def test_jsa_json_validates(self, workdir):
        for extra, parts in (((), {"abs"}),
                             (("--include-complex",), {"abs", "real", "imag"})):
            result = run_cli("jsa", "--config", "matched.yaml", "--grid-n", "64",
                             "--format", "json", *extra, "--out", "jsaj",
                             cwd=workdir)
            assert result.returncode == 0, result.stderr
            payload = json.loads((workdir / "jsaj" / "jsa.json").read_text())
            jsonschema.validate(payload, load_schema("jsa_full.schema.json"))
            assert parts == {"abs", "real", "imag"} & set(payload)
            assert all(len(payload[name]) == 64 for name in parts)

    def test_grid_extent_override(self, workdir):
        override = MATCHED_YAML + ("grid:\n  points_per_axis: 128\n"
                                   "  detuning_extent_thz: 15.0\n")
        (workdir / "override.yaml").write_text(override, encoding="utf-8")
        result = run_cli("jsa", "--config", "override.yaml", "--out", "jsao",
                         cwd=workdir)
        assert result.returncode == 0, result.stderr
        meta = json.loads((workdir / "jsao" / "jsa_meta.json").read_text())
        assert meta["grid_n"] == 128
        assert meta["detuning_extent_thz"] == pytest.approx(15.0, rel=1e-12)
        axis = np.loadtxt(workdir / "jsao" / "jsa_axis_thz.csv", skiprows=1)
        assert axis[-1] - axis[0] == pytest.approx(30.0, rel=1e-6)

    def test_scan_on_pinned_grid_matches_squeeze(self, workdir):
        # detuning_extent_thz pins one grid for every length of the scan
        (workdir / "pinned.yaml").write_text(
            MATCHED_YAML + "grid:\n  points_per_axis: 128\n"
                           "  detuning_extent_thz: 15.0\n", encoding="utf-8")
        scan = run_cli("scan", "--config", "pinned.yaml", "--lengths-mm", "20",
                       "80", "--out", "scan_pinned", cwd=workdir)
        squeeze = run_cli("squeeze", "--config", "pinned.yaml", "--out",
                          "sq_pinned", cwd=workdir)
        assert scan.returncode == 0, scan.stderr
        assert squeeze.returncode == 0, squeeze.stderr
        _, rows = read_csv(workdir / "scan_pinned" / "scan.csv")
        payload = json.loads((workdir / "sq_pinned" / "squeeze.json").read_text())
        expected = [payload["schmidt_number"], payload["eta_jsa"],
                    payload["eta_pdc_per_w"], payload["r"][0], payload["s_db"][0]]
        assert rows[1][0] == "80"
        assert rows[1][1:6] == [format(v, ".9g") for v in expected]
        assert rows[0][1:6] != rows[1][1:6]


class TestFlagPrecedence:
    """--crystal, --grid-n, --format and --out each take precedence over the
    run configuration's key when given; the keys of the other flags hold."""

    @pytest.mark.parametrize("flags, expected", [
        ((), {}),
        (("--crystal", "flag.yaml"), {"crystal": "flag-crystal"}),
        (("--grid-n", "64"), {"grid_n": 64}),
        (("--format", "csv"), {"format": "csv"}),
        (("--out", "flag_out"), {"out": "flag_out"}),
    ], ids=["none", "crystal", "grid_n", "format", "out"])
    def test_given_flag_wins(self, tmp_path, monkeypatch, flags, expected):
        crystal = p.bundled_crystal_path().read_text(encoding="utf-8")
        for name in ("config", "flag"):
            (tmp_path / f"{name}.yaml").write_text(
                crystal.replace('"name": "MgO:LN-5pct"', f'"name": "{name}-crystal"', 1),
                encoding="utf-8")
        (tmp_path / "run.yaml").write_text(
            MATCHED_YAML + "crystal_file: config.yaml\n"
                           "grid:\n  points_per_axis: 80\n"
                           "output:\n  format: json\n  directory: config_out\n",
            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["jsa", "--config", "run.yaml", *flags]) == 0
        want = {"crystal": "config-crystal", "grid_n": 80, "format": "json",
                "out": "config_out", **expected}
        assert sorted(d.name for d in tmp_path.iterdir() if d.is_dir()) == \
            [want["out"]]
        files = {"json": ["jsa.json", "jsa_meta.json"],
                 "csv": ["jsa_abs.csv", "jsa_axis_thz.csv", "jsa_meta.json"]}
        out = tmp_path / want["out"]
        assert sorted(f.name for f in out.iterdir()) == files[want["format"]]
        meta = json.loads((out / "jsa_meta.json").read_text(encoding="utf-8"))
        assert (meta["crystal"], meta["grid_n"]) == (want["crystal"],
                                                     want["grid_n"])


def _same_cell(text, value) -> bool:
    """A CSV cell at precision 17 carries the JSON cell ``value``."""
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, str):
        return text == value
    return float(text) == value


class TestTableFormats:
    @pytest.mark.parametrize("args, stems", [
        (("dispersion", "--lambda-min-um", "0.6", "--lambda-max-um", "3.6",
          "--samples", "50"), ["dispersion"]),
        (("modes", "--grid-n", "64"), [f"mode_{n}" for n in range(4)]),
        (("scan", "--grid-n", "64", "--lengths-mm", "10", "80"), ["scan"]),
    ], ids=["dispersion", "modes", "scan"])
    def test_json_and_csv_carry_equal_rows(self, tmp_path, monkeypatch, args,
                                           stems):
        (tmp_path / "run.yaml").write_text(
            MATCHED_YAML + "output:\n  precision: 17\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        for fmt in ("csv", "json"):
            assert cli.main([*args, "--config", "run.yaml", "--format", fmt,
                             "--out", fmt]) == 0
        for stem in stems:
            header, rows = read_csv(tmp_path / "csv" / f"{stem}.csv")
            table = json.loads((tmp_path / "json" / f"{stem}.json").read_text(
                encoding="utf-8"))
            assert table["columns"] == header
            assert len(table["rows"]) == len(rows) > 0
            for text_row, row in zip(rows, table["rows"]):
                assert len(text_row) == len(row)
                assert all(map(_same_cell, text_row, row)), (text_row, row)


class TestErrorPaths:
    def test_unknown_config_key_is_validity_error(self, workdir):
        bad = workdir / "bad.yaml"
        bad.write_text(MATCHED_YAML.replace("pump_wavelength_nm",
                                         "pump_wavelength_um"),
                       encoding="utf-8")
        result = run_cli("poling", "--config", "bad.yaml", cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("error[validity]:")
        assert "pump_wavelength_um" in result.stderr

    @pytest.mark.parametrize("edit, kind", [
        (("  type: type-I\n", ""), None),
        (("type: type-I", "type: null"), None),
        (("type: type-I", "type: type-0"), "type 'type-0'"),
        (("type: type-I", "type: type-II"), "type 'type-II'"),
        (("type: type-I", "type: 0"), "type 0"),
    ], ids=["absent", "null", "type0", "unknown", "number"])
    def test_pdc_type_is_derived_from_the_axes(self, tmp_path, monkeypatch,
                                               capsys, edit, kind):
        # a given type must agree with the axes; one line names both
        (tmp_path / "given.yaml").write_text(MATCHED_YAML, encoding="utf-8")
        (tmp_path / "edited.yaml").write_text(MATCHED_YAML.replace(*edit),
                                             encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["poling", "--config", "given.yaml", "--out", "given"]) == 0
        capsys.readouterr()
        status = cli.main(["poling", "--config", "edited.yaml", "--out", "edited"])
        lines = capsys.readouterr().err.splitlines()
        if kind is None:
            assert status == 0, lines
            assert (tmp_path / "edited" / "poling.json").read_bytes() == \
                (tmp_path / "given" / "poling.json").read_bytes()
            return
        assert status == 3
        assert lines == [f"error[validity]: pdc: {kind} disagrees with pump_axis "
                         "'e' and signal_axis 'o', which make 'type-I'"]
        assert not (tmp_path / "edited").exists()

    def test_missing_crystal_file_is_io_error(self, workdir):
        result = run_cli("poling", "--config", "matched.yaml", "--crystal",
                         "missing.yaml", cwd=workdir)
        assert result.returncode == 5, result.stderr
        assert result.stderr.startswith("error[io]:")

    def test_explicit_crystal_file_matches_bundled(self, workdir, tmp_path):
        copied = workdir / "mgoln_copy.yaml"
        copied.write_text(p.bundled_crystal_path().read_text(encoding="utf-8"),
                          encoding="utf-8")
        bundled = run_cli("poling", "--config", "matched.yaml", "--out", "pb",
                          cwd=workdir)
        explicit = run_cli("poling", "--config", "matched.yaml", "--crystal",
                           "mgoln_copy.yaml", "--out", "pe", cwd=workdir)
        assert bundled.returncode == 0, bundled.stderr
        assert explicit.returncode == 0, explicit.stderr
        assert (workdir / "pb" / "poling.json").read_text() == \
            (workdir / "pe" / "poling.json").read_text()

    @pytest.mark.parametrize("old, bad", [
        ("temperature_c: 11.0", "temperature_c: .nan"),
        ("crystal_length_mm: 80.0", "crystal_length_mm: .inf"),
        ("mean_power_mw: 12.0", "mean_power_mw: true"),
        ("mean_power_mw: 12.0", 'mean_power_mw: "abc"'),
    ], ids=["nan_temperature", "inf_length", "bool_power", "text_power"])
    def test_non_finite_config_number_is_validity_error(self, workdir, old, bad):
        (workdir / "nonfinite.yaml").write_text(MATCHED_YAML.replace(old, bad),
                                               encoding="utf-8")
        result = run_cli("squeeze", "--config", "nonfinite.yaml", "--grid-n",
                         "64", "--out", "nonfinite", cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("error[validity]:"), result.stderr
        assert bad.split(":")[0] in result.stderr
        assert "Warning" not in result.stderr

    def test_infinite_grid_extent_is_one_validity_line(self, workdir, tmp_path):
        # 1e300 THz is a finite number, but its 2π·1e12 rad/s is not
        (workdir / "wide.yaml").write_text(
            MATCHED_YAML + "grid:\n  detuning_extent_thz: 1.0e+300\n",
            encoding="utf-8")
        out = tmp_path / "out"
        result = run_cli("squeeze", "--config", "wide.yaml", "--grid-n", "64",
                         "--out", str(out), cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr.splitlines() == [
            "error[validity]: grid omega_max_rad_s must be a finite number, got inf"]
        assert not out.exists()

    TINY_LENGTH = ("crystal_length_mm: 80.0", "crystal_length_mm: 1.0e-300")
    PUMP_END = "repetition_rate_mhz: 100.0\n"
    PINNED_150 = (PUMP_END, PUMP_END + "grid:\n  detuning_extent_thz: 150\n")
    PINNED_250 = (PUMP_END, PUMP_END + "grid:\n  detuning_extent_thz: 250\n")

    @pytest.mark.parametrize("args, edit, message", [
        (("scan", "--lengths-mm", "1e-300"), None,
         "crystal length 1e-303 m is too short"),
        (("scan", "--lengths-mm", "-1e1"), None,
         "crystal length must be > 0, got -0.01"),
        (("dispersion", "--lambda-min-um", "0.4999", "--lambda-max-um", "4.0"),
         None, "wavelength 0.4999 µm outside the valid range [0.5, 4] µm"),
        (("squeeze",), TINY_LENGTH,
         "crystal length 1e-303 m is too short"),
        (("modes",), TINY_LENGTH,
         "crystal length 1e-303 m is too short"),
        (("jsa",), TINY_LENGTH,
         "crystal length 1e-303 m is too short"),
        (("scan", "--lengths-mm", "1e300"), None,
         "the JSA norm ∬|J|² = Σs² underflows the float range"),
        (("squeeze",), ("bandwidth_fwhm_nm: 4.0", "bandwidth_fwhm_nm: 1.0e-300"),
         "pump bandwidth_fwhm_nm = 1e-300 at 0.775 µm"),
        (("squeeze",), ("bandwidth_fwhm_nm: 4.0", "bandwidth_fwhm_nm: 1.0e-160"),
         "the grid does not resolve the pump ridge: its step h = "),
        (("squeeze",), ("bandwidth_fwhm_nm: 4.0", "bandwidth_fwhm_nm: 0.01"),
         "the grid does not resolve the pump ridge: its step h = "),
        (("scan", "--lengths-mm", "1e-5"), None,
         "crystal length 1e-08 m is too short: the grid it needs reaches"),
        (("scan", "--lengths-mm", "0.3"), None,
         "crystal length 0.0003 m is too short: the grid it needs takes the "
         "signal to 15.6748 µm, outside the valid range [0.5, 4] µm"),
        (("squeeze",), ("bandwidth_fwhm_nm: 4.0", "bandwidth_fwhm_nm: 100.0"),
         "pump bandwidth_fwhm_nm = 100 is too wide: the grid it needs takes "
         "the signal to 4.07824 µm, outside the valid range [0.5, 4] µm"),
        # a pinned extent is refused by name before the ridge check, which
        # would ask for a larger n that cannot help
        (("squeeze",), PINNED_150,
         "grid detuning_extent_thz = 150 THz takes the signal to 6.90535 µm, "
         "outside the valid range [0.5, 4] µm"),
        (("scan", "--lengths-mm", "10", "80"), PINNED_150,
         "grid detuning_extent_thz = 150 THz takes the signal to 6.90535 µm, "
         "outside the valid range [0.5, 4] µm"),
        (("squeeze",), (PUMP_END, PUMP_END + "grid:\n  detuning_extent_thz: 110\n"),
         "grid detuning_extent_thz = 110 THz takes the pump to 0.494031 µm, "
         "outside the valid range [0.5, 4] µm"),
        (("squeeze",), PINNED_250,
         "grid detuning_extent_thz = 250 THz reaches 1.571e+15 rad/s from the "
         "signal frequency ω_s = 1.215e+15 rad/s, past zero frequency"),
        (("scan", "--lengths-mm", "10", "80"), PINNED_250,
         "grid detuning_extent_thz = 250 THz reaches 1.571e+15 rad/s from the "
         "signal frequency ω_s = 1.215e+15 rad/s, past zero frequency"),
    ], ids=["tiny_length_scan", "negative_length_scan",
            "wavelength_below_valid_range", "tiny_length_squeeze", "tiny_length_modes",
            "tiny_length_jsa", "huge_length_scan", "tiny_bandwidth",
            "narrow_bandwidth", "unresolved_pump_ridge", "band_past_signal",
            "band_outside_valid_range", "pump_band_outside_valid_range",
            "pinned_band_squeeze", "pinned_band_scan", "pinned_pump_band",
            "pinned_past_signal_squeeze", "pinned_past_signal_scan"])
    def test_extreme_length_or_bandwidth_is_one_domain_line(
            self, tmp_path, monkeypatch, capsys, args, edit, message):
        # k_s″·L underflows, the band reaches past ω_s, Σs² of the kernel
        # underflows, 4σ₊² underflows, or the grid step exceeds √2·σ₊ (so
        # the kernel, at most √(2π)/2π per cell, cannot make Σs² overflow):
        # each is refused with its reason, before any warning
        text = MATCHED_YAML.replace(*edit) if edit else MATCHED_YAML
        (tmp_path / "run.yaml").write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = cli.main([*args, "--config", "run.yaml", "--grid-n", "64",
                               "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert status == 3, lines
        assert [str(w.message) for w in caught] == []
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"error[domain]: {message}"), lines
        assert not out.exists()

    def test_pinned_extent_check_refuses_exactly_what_the_evaluation_refuses(
            self, matched_config):
        # bisect to the adjacent extents where the pinned grid turns to
        # refusal: the pump band's 0.5 µm end, on the matched design
        run = RunConfig.from_mapping(yaml.safe_load(MATCHED_YAML))

        def pinned(thz):
            grid = run.grid.replace(points_per_axis=64, detuning_extent_thz=thz)
            return cli._pinned_grid(run.replace(grid=grid), matched_config)

        ok, bad = 15.0, 110.0
        while (ok + bad) / 2 not in (ok, bad):
            mid = (ok + bad) / 2
            try:
                pinned(mid)
                ok = mid
            except p.DomainError:
                bad = mid
        for thz, evaluates in ((ok, True), (bad, False)):
            ends = p.FrequencyGrid(n=64, omega_max_rad_s=2.0 * math.pi * thz
                                   * 1e12).detunings()[[0, -1]]
            if evaluates:
                assert pinned(thz).detunings()[[0, -1]].tolist() == ends.tolist()
                p.phase_mismatch(matched_config, ends[:, None], ends[None, :])
            else:
                with pytest.raises(p.DomainError, match="valid range"):
                    p.phase_mismatch(matched_config, ends[:, None], ends[None, :])

    @pytest.mark.parametrize("args", [
        ("dispersion", "--lambda-min-um", "1.0", "--lambda-max-um", "nan"),
        ("cgvm", "--pump-axis", "e", "--signal-axis", "o", "--temperature-c", "nan"),
        ("cgvm", "--pump-axis", "e", "--signal-axis", "o", "--target-um", "nan"),
        ("cgvm", "--pump-axis", "e", "--signal-axis", "o", "--bracket-um", "1.2", "inf"),
        ("scan", "--config", "matched.yaml", "--lengths-mm", "10", "nan"),
        ("cgvm", "--pump-axis", "e", "--signal-axis", "o", "--temperature-c", "-inf"),
        ("cgvm", "--pump-axis", "e", "--signal-axis", "o", "--temperature-c",
         "-Infinity"),
        ("cgvm", "--pump-axis", "e", "--signal-axis", "o", "--temperature-c", "-nan"),
    ], ids=["lambda_max", "temperature", "target", "bracket", "lengths",
            "minus_inf", "minus_infinity", "minus_nan"])
    def test_non_finite_option_is_usage_error(self, workdir, tmp_path, args):
        # a dash-led value too reaches the finite check, not argparse
        option = next(a for a in reversed(args) if a.startswith("--"))
        out = tmp_path / "out"
        result = run_cli(*args, "--out", str(out), cwd=workdir)
        assert result.returncode == 2, result.stderr
        assert result.stderr.splitlines() == [
            f"error[usage]: {option} must be a finite number, "
            f"got {float(args[-1])}"]
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (("dispersion", "--lambda-min-um", "1", "--lambda-max-um", "2",
          "--samples", "abc"), "argument --samples: invalid int value: 'abc'"),
        (("bogus",), "argument command: invalid choice: 'bogus'"),
        (("dispersion", "--lambda-min-um", "1"),
         "the following arguments are required: --lambda-max-um"),
        (("dispersion", "--lambda-min-um", "1", "--lambda-max-um", "2",
          "--format", "xml"), "argument --format: invalid choice: 'xml'"),
        (("dispersion", "--lambda-min-um", "--lambda-max-um", "2"),
         "argument --lambda-min-um: expected one argument"),
    ], ids=["bad_int", "unknown_command", "missing_option", "bad_format",
            "option_for_a_value"])
    def test_argparse_error_is_one_usage_line(self, tmp_path, capsys, args,
                                              message):
        out = tmp_path / "out"
        assert cli.main([*args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"error[usage]: {message}"), captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("args", [("--version",), ("dispersion", "--help")])
    def test_help_and_version_exit_zero(self, capsys, args):
        with pytest.raises(SystemExit) as info:
            cli.main(list(args))
        assert info.value.code == 0
        assert capsys.readouterr().out

    def test_non_utf8_config_is_validity_error(self, workdir, tmp_path):
        (workdir / "latin1.yaml").write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        result = run_cli("poling", "--config", "latin1.yaml", "--out", str(out),
                         cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("error[validity]:"), result.stderr
        assert "latin1.yaml" in result.stderr
        assert not out.exists()

    def test_oversized_grid_is_validity_error(self, workdir, tmp_path):
        # refused from the memory estimate, before any array is allocated
        out = tmp_path / "out"
        result = run_cli("squeeze", "--config", "matched.yaml", "--grid-n",
                         "200000", "--out", str(out), cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("error[validity]:"), result.stderr
        assert "GiB budget" in result.stderr
        assert not out.exists()

    def test_text_crystal_coefficient_is_validity_error(self, workdir):
        crystal = p.bundled_crystal_path().read_text(encoding="utf-8")
        (workdir / "text_coeff.yaml").write_text(
            crystal.replace('"a1": 5.653', '"a1": x', 1), encoding="utf-8")
        result = run_cli("poling", "--config", "matched.yaml", "--crystal",
                         "text_coeff.yaml", cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("error[validity]:"), result.stderr
        assert "a1" in result.stderr

    @pytest.mark.parametrize("old, bad", [
        ('"a1": 5.653', '"a1": 5.653, 1: 2.0'),
        ('"a3": 0.2091', '"a3": 1.0e+200'),
    ], ids=["integer_key", "overflowing_coefficient"])
    def test_malformed_crystal_coefficients_are_validity_errors(
            self, workdir, tmp_path, old, bad):
        crystal = p.bundled_crystal_path().read_text(encoding="utf-8")
        assert old in crystal
        path = tmp_path / "crystal.yaml"
        path.write_text(crystal.replace(old, bad, 1), encoding="utf-8")
        out = tmp_path / "out"
        result = run_cli("cgvm", "--pump-axis", "e", "--signal-axis", "o",
                         "--crystal", str(path), "--out", str(out), cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("error[validity]:"), result.stderr
        assert not out.exists()

    def test_high_temperature_overflow_is_domain_error(self, workdir, tmp_path):
        # the bundled crystal at 1e155 °C: (a3 + b3·f)² overflows
        out = tmp_path / "out"
        result = run_cli("dispersion", "--lambda-min-um", "0.6",
                         "--lambda-max-um", "3.6", "--temperature-c", "1e155",
                         "--out", str(out), cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("error[domain]:"), result.stderr
        assert "1e+155 °C" in result.stderr
        assert not out.exists()

    def test_crystal_without_finite_derivatives_is_validity_error(
            self, workdir, tmp_path):
        # a3 = 1e153 with b3 = 1e148 on both axes keeps the pole above the
        # range and n finite at 0–200 °C, but dn/dλ and d²n/dλ² overflow,
        # so the crystal is refused at load
        crystal = p.bundled_crystal_path().read_text(encoding="utf-8")
        for old, new in (('"a3": 0.2091', '"a3": 1.0e+153'),
                         ('"b3": -4.641e-9', '"b3": 1.0e+148'),
                         ('"a3": 0.2020', '"a3": 1.0e+153'),
                         ('"b3": 6.113e-8', '"b3": 1.0e+148')):
            assert old in crystal
            crystal = crystal.replace(old, new, 1)
        path = tmp_path / "crystal.yaml"
        path.write_text(crystal, encoding="utf-8")
        out = tmp_path / "out"
        result = run_cli("dispersion", "--crystal", str(path), "--lambda-min-um",
                         "0.6", "--lambda-max-um", "3.6", "--out", str(out),
                         cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith(
            "error[validity]: crystal 'MgO:LN-5pct', axis 'o': n or one of its "
            "λ-derivatives is not finite"), result.stderr
        assert not out.exists()

    def test_negative_n_squared_is_domain_error(self, workdir, tmp_path):
        # b1 = −1e-5 on axis o loads (n > 1 at 0–200 °C), but n² < 0 at
        # 1000 °C: one error line naming the crystal, the axis, the first
        # wavelength and the temperature, no numpy warning and no table of NaN
        crystal = p.bundled_crystal_path().read_text(encoding="utf-8")
        assert '"b1": 7.941e-7' in crystal
        path = tmp_path / "crystal.yaml"
        path.write_text(crystal.replace('"b1": 7.941e-7', '"b1": -1.0e-5', 1),
                        encoding="utf-8")
        out = tmp_path / "out"
        result = run_cli("dispersion", "--crystal", str(path), "--lambda-min-um",
                         "0.6", "--lambda-max-um", "3.6", "--samples", "3",
                         "--axes", "o", "--temperature-c", "1000", "--out",
                         str(out), cwd=workdir)
        assert result.returncode == 3, result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines == [
            "error[domain]: crystal 'MgO:LN-5pct', axis 'o': n² = -9.89072 "
            "is not positive at 0.6 µm, 1000 °C: no real index"]
        assert not out.exists()

    def test_none_temperature_model_with_dn_dt_is_validity_error(
            self, workdir, tmp_path):
        # a crystal whose index does not depend on T cannot carry dn/dT
        path = tmp_path / "crystal.yaml"
        path.write_text(CONSTANT_INDEX_YAML.replace(
            "d: 0.0, dn_dt: 0.0", "d: 0.0, dn_dt: 0.001", 1), encoding="utf-8")
        out = tmp_path / "out"
        result = run_cli("dispersion", "--crystal", str(path), "--lambda-min-um",
                         "1.0", "--lambda-max-um", "2.0", "--out", str(out),
                         cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr == (
            "error[validity]: crystal 'constant-index', axis 'o': "
            "temperature_model 'none' needs dn_dt = 0, got 0.001\n")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("dispersion", "--lambda-min-um", "1.0", "--lambda-max-um", "2.0"),
        ("cgvm", "--pump-axis", "e", "--signal-axis", "o"),
    ], ids=["dispersion", "cgvm"])
    def test_temperature_below_absolute_zero_is_domain_error(self, workdir,
                                                             tmp_path, args):
        out = tmp_path / "out"
        result = run_cli(*args, "--temperature-c", "-400", "--out", str(out),
                         cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr.splitlines() == [
            "error[domain]: temperature -400 °C is not above absolute zero "
            "(-273.15 °C)"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [("squeeze",), ("scan", "--lengths-mm", "80")],
                             ids=["squeeze", "scan"])
    def test_overflowing_squeezing_is_domain_error(self, workdir, tmp_path,
                                                   command):
        (workdir / "kilowatt.yaml").write_text(
            MATCHED_YAML.replace("mean_power_mw: 12.0", "mean_power_mw: 1000000.0"),
            encoding="utf-8")
        out = tmp_path / "out"
        result = run_cli(*command, "--config", "kilowatt.yaml", "--grid-n", "64",
                         "--out", str(out), cwd=workdir)
        assert result.returncode == 3, result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error[domain]: squeezing r₀ = "), result.stderr
        assert "S₀ = " in lines[0]
        assert not out.exists()

    def test_overflowing_coefficient_names_the_overflow(self, workdir, tmp_path):
        # no pole lies in the range, so the error does not suggest one
        crystal = p.bundled_crystal_path().read_text(encoding="utf-8")
        path = tmp_path / "crystal.yaml"
        path.write_text(crystal.replace('"a3": 0.2091', '"a3": 1.0e+200', 1),
                        encoding="utf-8")
        result = run_cli("cgvm", "--pump-axis", "e", "--signal-axis", "o",
                         "--crystal", str(path), "--out", str(tmp_path / "out"),
                         cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr == (
            "error[validity]: crystal 'MgO:LN-5pct', axis 'o': n or one of "
            "its λ-derivatives is not finite across [0.5, 4.0] µm at 0.0 °C (a "
            "coefficient overflows the float range, or n² ≤ 0)\n")

    def test_narrow_pole_crystal_is_validity_error(self, workdir, tmp_path):
        # a pole at 1.52 µm narrow enough to pass between sampled wavelengths
        (tmp_path / "narrow.yaml").write_text(CONSTANT_INDEX_YAML.replace(
            "{a: 4.84, b: [], c: []", "{a: 4.0, b: [1.0e-3], c: [2.3104]"),
            encoding="utf-8")
        out = tmp_path / "out"
        result = run_cli("dispersion", "--crystal", str(tmp_path / "narrow.yaml"),
                         "--lambda-min-um", "1.5199", "--lambda-max-um",
                         "1.52001", "--samples", "3", "--axes", "o", "--format",
                         "json", "--out", str(out), cwd=workdir)
        assert result.returncode == 3, result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error[validity]:"), result.stderr
        assert "axis 'o': Sellmeier pole at 1.52 µm" in lines[0]
        assert not out.exists()

    def test_domain_error_from_bad_wavelength(self, workdir):
        bad = workdir / "uv.yaml"
        bad.write_text(MATCHED_YAML.replace("775.0", "300.0"), encoding="utf-8")
        result = run_cli("poling", "--config", "uv.yaml", cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("error[domain]:")


# ---------------------------------------------------------------------------
# the CLI contract under fuzzed argv, run configurations and crystal files


# the documented exit code of each error kind
_ERROR_CODES = {"usage": 2, "domain": 3, "validity": 3, "solver": 4, "io": 5}

# the schema of each JSON artifact by file name; any other is a table
_ARTIFACT_SCHEMAS = {
    "cgvm.json": "cgvm.schema.json", "poling.json": "poling.schema.json",
    "jsa.json": "jsa_full.schema.json", "jsa_meta.json": "jsa_meta.schema.json",
    "modes_meta.json": "modes_meta.schema.json",
    "squeeze.json": "squeeze.schema.json"}


# the edges of the float range, for every numeric input: zero of either
# sign, the smallest subnormal, ±1e±300 and an exponent-form negative,
# spelled so that a float option and a YAML 1.1 float both read them
_EXTREMES = [format(x, ".1e") for x in (0.0, -0.0, 5e-324, -5e-324, 1e-300,
                                        -1e-300, 1e300, -1e300, -10.0)]


def _option_floats(plausible):
    """Text of a float option: in or near ``plausible`` (lo, hi), an
    extreme, or a value the CLI must refuse, each a third of the time."""
    return (st.floats(*plausible).map(repr) | st.sampled_from(_EXTREMES)
            | st.sampled_from(["0", "-1", "1e-300", "1e300", "nan", "inf",
                               "-inf", "abc"]))


_WAVELENGTHS = _option_floats((0.3, 4.5))
_TEMPERATURES = _option_floats((-300.0, 400.0)) | st.sampled_from(["1e155", "3000"])
_AXES = st.sampled_from(["o", "e", "x", "O"])

# what a run configuration value may be mutated to, as YAML text; a
# numeric key takes an extreme half of the time
_YAML_TOKENS = st.sampled_from([
    "0", "-1.0", "1.0e-300", "1.0e-320", "1.0e+300", ".nan", ".inf", "abc",
    "null", "yes", "[]", "1e3", "0x10", "'12'", "e", "o", "type-0", "json",
    "xml", "64"])
_RUN_KEYS = {
    "pdc": ("type", "pump_axis", "signal_axis", "pump_wavelength_nm",
            "temperature_c", "crystal_length_mm", "poling_period_um"),
    "pump": ("bandwidth_fwhm_nm", "mean_power_mw", "repetition_rate_mhz"),
    "grid": ("points_per_axis", "detuning_extent_thz"),
    "output": ("format", "precision"),
}
_NUMERIC_KEYS = [(name, key) for name, keys in _RUN_KEYS.items() for key in keys
                 if key not in ("type", "pump_axis", "signal_axis", "format")]


def _yaml_text(doc, flow=False) -> str:
    """``doc``, sections of texts, as a YAML run configuration."""
    if flow:
        return "".join(f"{name}: {{{', '.join(f'{k}: {v}' for k, v in s.items())}}}\n"
                       for name, s in doc.items())
    return "".join(f"{name}:\n" + "".join(f"  {k}: {v}\n" for k, v in s.items())
                   for name, s in doc.items())


def _design_doc(text) -> dict:
    """The sections of a reference design's YAML, each value as its text."""
    return {name: {key: str(value) for key, value in section.items()}
            for name, section in yaml.safe_load(text).items()}


@st.composite
def _run_config_text(draw):
    """One of the two reference designs, in block or flow style; in about
    half of them up to three values are changed, or a key or a section
    removed, or an unknown key added."""
    doc = _design_doc(draw(st.sampled_from([MATCHED_YAML, WALKOFF_YAML])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        name = draw(st.sampled_from(sorted(_RUN_KEYS)))
        key = draw(st.sampled_from(_RUN_KEYS[name]))
        values = (st.sampled_from(_EXTREMES) | _YAML_TOKENS
                  if (name, key) in _NUMERIC_KEYS else _YAML_TOKENS)
        doc.setdefault(name, {})[key] = draw(values)
    if draw(st.sampled_from([False, False, False, True])):
        name = draw(st.sampled_from(sorted(doc)))
        edit = draw(st.sampled_from(["drop section", "drop key", "unknown key"]))
        if edit == "drop section":
            del doc[name]
        elif edit == "drop key" and doc[name]:
            del doc[name][draw(st.sampled_from(sorted(doc[name])))]
        elif edit == "unknown key":
            doc[name]["pump_wavelength_um"] = "0.775"
    return _yaml_text(doc, flow=draw(st.booleans()))


@st.composite
def _crystal_doc(draw):
    """The bundled crystal with one coefficient, bound or field scaled by
    up to 10 %, or set to a value that may break it."""
    root = json.loads(p.bundled_crystal_path().read_text(encoding="utf-8"))
    target = draw(st.sampled_from(["coefficient", "valid_range_um",
                                   "d_eff_pm_per_V", "temperature_model"]))
    if target == "coefficient":
        axis = draw(st.sampled_from(["o", "e"]))
        holder = root["sellmeier"][axis]["coefficients"]
        key = draw(st.sampled_from(sorted(holder)))
    elif target == "valid_range_um":
        holder, key = root[target], draw(st.integers(0, 1))
    else:
        holder, key = root, target
    old = holder[key]
    scaled = st.floats(0.9, 1.1).map(
        lambda scale: old * scale if isinstance(old, float) else old)
    holder[key] = draw(scaled | st.sampled_from(
        [0.0, 1e200, -1e-5, None, "abc", [], math.nan]
        + [float(x) for x in _EXTREMES]))
    return root


@st.composite
def _argv(draw):
    """A command line of any subcommand, every size input bounded: up to
    300 samples, four lengths, a grid of 64 points per axis."""
    command = draw(st.sampled_from(
        ["dispersion", "cgvm", "poling", "jsa", "modes", "squeeze", "scan"]))
    argv = [command]
    sometimes = st.sampled_from([False, False, True])
    if command == "dispersion":
        lo = draw(st.floats(0.5, 3.9))
        span = st.tuples(st.just(repr(lo)), st.floats(lo + 0.05, 4.0).map(repr))
        argv += [x for pair in zip(("--lambda-min-um", "--lambda-max-um"), draw(
            span | st.tuples(_WAVELENGTHS, _WAVELENGTHS))) for x in pair]
        if draw(st.booleans()):
            argv += ["--samples", str(draw(st.integers(2, 300) | st.sampled_from(
                [-1, 1, cli._MAX_SAMPLES + 1])))]
        if draw(st.booleans()):
            argv += ["--axes", draw(st.sampled_from(["o", "e", "e,o", "x"]))]
    elif command == "cgvm":
        argv += ["--pump-axis", draw(_AXES), "--signal-axis", draw(_AXES)]
        if draw(sometimes):
            argv += ["--bracket-um", draw(_WAVELENGTHS), draw(_WAVELENGTHS)]
        if draw(sometimes):
            argv += ["--target-um", draw(_WAVELENGTHS)]
    elif command == "modes" and draw(st.booleans()):
        argv += ["--modes", str(draw(st.integers(-1, 6)))]
    elif command == "jsa" and draw(st.booleans()):
        argv += ["--include-complex"]
    elif command == "scan":
        argv += ["--lengths-mm", *draw(st.lists(
            _option_floats((0.1, 100.0)), min_size=1, max_size=4))]
    if command in ("dispersion", "cgvm") and draw(sometimes):
        argv += ["--temperature-c", draw(_TEMPERATURES)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    return argv + ["--grid-n", "64"]


def _finite_json(path):
    def refuse(name):
        raise AssertionError(f"{path.name} holds {name}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def _is_float(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _check_contract(argv, config, crystal):
    """Run ``argv`` with the run configuration text ``config`` and the crystal
    document ``crystal`` (each None to leave it out): it writes artifacts
    that validate and hold only finite numbers, or prints one error line of
    a documented kind and exit code and writes nothing. Returns which of
    the two it was."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if config is not None:
            (tmp / "run.yaml").write_text(config, encoding="utf-8")
            argv = [*argv, "--config", str(tmp / "run.yaml")]
        if crystal is not None:
            (tmp / "crystal.yaml").write_text(json.dumps(crystal), encoding="utf-8")
            argv = [*argv, "--crystal", str(tmp / "crystal.yaml")]
        out = tmp / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, stderr.getvalue()
            kind = lines[0].partition("]")[0].removeprefix("error[")
            assert lines[0].startswith(f"error[{kind}]: "), lines[0]
            assert _ERROR_CODES.get(kind) == code, lines[0]
            assert not out.exists(), lines[0]
            if " expected " in lines[0] or "unrecognized arguments" in lines[0]:
                # argparse took an argument for an option where a value
                # belongs, which only one that float() cannot read may cause
                assert any(arg[:1] == "-" and arg[1:2] != "-" and not _is_float(arg)
                           for arg in argv), (lines[0], argv)
            return f"{argv[0]}: error[{kind}]"
        assert stderr.getvalue() == ""
        artifacts = sorted(out.iterdir())
        assert artifacts
        for path in artifacts:
            if path.suffix == ".json":
                schema = _ARTIFACT_SCHEMAS.get(path.name, "table.schema.json")
                jsonschema.validate(_finite_json(path), load_schema(schema))
            else:
                assert path.suffix == ".csv", path.name
                cells = path.read_text(encoding="utf-8").replace("\n", ",")
                for cell in cells.split(","):
                    try:
                        number = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(number), f"{path.name}: {cell}"
        return f"{argv[0]}: written"


# every numeric input, by a command that reads it: each numeric key of the
# matched design's run configuration, read by squeeze, and each float
# option, whose value takes the place of the "{}"
_CGVM = ("cgvm", "--pump-axis", "e", "--signal-axis", "o")
_NUMERIC_INPUTS = [pytest.param(("squeeze",), key, id=".".join(key))
                   for key in _NUMERIC_KEYS] + [
    pytest.param(argv, None, id=name) for name, argv in {
        "lambda_min": ("dispersion", "--lambda-min-um", "{}",
                       "--lambda-max-um", "3.6"),
        "lambda_max": ("dispersion", "--lambda-min-um", "0.6",
                       "--lambda-max-um", "{}"),
        "dispersion_temperature": ("dispersion", "--lambda-min-um", "0.6",
                                   "--lambda-max-um", "3.6",
                                   "--temperature-c", "{}"),
        "cgvm_temperature": (*_CGVM, "--temperature-c", "{}"),
        "bracket_lo": (*_CGVM, "--bracket-um", "{}", "2.0"),
        "bracket_hi": (*_CGVM, "--bracket-um", "1.2", "{}"),
        "target": (*_CGVM, "--target-um", "{}"),
        "temperature_bracket_lo": (*_CGVM, "--target-um", "1.55",
                                   "--temperature-bracket-c", "{}", "60"),
        "temperature_bracket_hi": (*_CGVM, "--target-um", "1.55",
                                   "--temperature-bracket-c", "-20", "{}"),
        "lengths": ("scan", "--lengths-mm", "{}"),
    }.items()]


class TestContractFuzz:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(argv=_argv(), config=st.sampled_from([True] * 5 + [False]).flatmap(
               lambda given: _run_config_text() if given else st.none()),
           crystal=st.sampled_from([False] * 3 + [True]).flatmap(
               lambda given: _crystal_doc() if given else st.none()))
    def test_success_with_valid_artifacts_or_one_error_line(self, argv, config,
                                                            crystal):
        event(_check_contract(argv, config, crystal))

    # each extreme at each numeric input once, the rest the matched design
    @pytest.mark.parametrize("extreme", _EXTREMES)
    @pytest.mark.parametrize("argv, key", _NUMERIC_INPUTS)
    def test_each_numeric_extreme_is_a_result_or_one_error_line(self, argv,
                                                                key, extreme):
        doc = _design_doc(MATCHED_YAML)
        if key is not None:
            doc.setdefault(key[0], {})[key[1]] = extreme
        _check_contract([arg.replace("{}", extreme) for arg in argv]
                        + ["--grid-n", "64"], _yaml_text(doc), None)
