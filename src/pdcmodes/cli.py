"""Command-line interface: every pipeline stage as a deterministic artifact.

Subcommands: ``dispersion``, ``cgvm``, ``poling``, ``jsa``, ``modes``,
``squeeze``, ``scan``. Identical inputs produce byte-identical outputs:
floats are written with a fixed number of significant digits in CSV and
full double precision in JSON, row ordering is fixed, and files are written
atomically (temp file + rename).

Exit codes: 0 success, 2 usage, 3 domain/validity, 4 solver failure, 5 I/O.
Every error path prints a single line ``error[<kind>]: <message>``.

Only the commands that run the JSA pipeline (jsa, modes, squeeze, scan)
import the JSA and squeezing layers and numpy. The design commands
(dispersion, cgvm, poling) evaluate the crystal at one wavelength at a time
and run on the stdlib; PyYAML loads only for a ``--config`` or ``--crystal``
file outside the block-mapping subset that ``dispersion._load_yaml`` reads
itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from . import dispersion as disp
from . import phasematch as pm
from .config import _FORMATS, OutputSettings, RunConfig, load_run_config
from .constants import DEFAULT_GRID_POINTS, c
from .errors import DomainError, SolverError, ValidationError

if TYPE_CHECKING:
    import numpy as np

    from .jsa import FrequencyGrid
    from .squeezing import SqueezingResult

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# deterministic writers


def _fmt(value: float, precision: int) -> str:
    return format(float(value), f".{precision}g")


def _flag(value: bool) -> str:
    return "true" if value else "false"


@contextmanager
def _atomic_open(path: Path):
    """A text file that appears at ``path`` only once the block completes.

    It is written under a temporary name and renamed into place; a block
    that raises leaves neither file behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str] | None, rows, precision: int) -> None:
    """Stream rows of floats and text to a CSV file.

    One template formats every row: ``%.<precision>g`` for each cell that is
    a float in the first row, ``%s`` for the others, so a column keeps the
    kind of its first cell. A matrix may be passed as ``rows`` directly;
    without a header there must be at least one row.
    """
    with _atomic_open(path) as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        template = None
        for row in rows:
            if template is None:
                template = ",".join(f"%.{precision}g" if isinstance(cell, float)
                                    else "%s" for cell in row) + "\n"
            fh.write(template % tuple(row))


def _write_json(path: Path, payload) -> None:
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_grids_json(path: Path, head: dict, grids: dict) -> None:
    """``_write_json(path, {**head, **grids})``'s text for the symmetric
    real n × n arrays in ``grids``, written row by row.

    The json module encodes an indented document in pure Python, one float
    at a time. Here each row is joined by hand, and the text of each cell,
    ``float.__repr__`` as json writes it, is made once and reused for its
    mirror cell. A grid that is not finite, or not symmetric bit for bit,
    is refused, as ``allow_nan=False`` refuses a non-finite value.
    """
    import numpy as np
    with _atomic_open(path) as fh:
        fh.write(json.dumps(head, indent=2, allow_nan=False)[:-2])  # no "\n}"
        for name, grid in grids.items():
            bits = grid.view(np.uint64)
            if not (np.isfinite(grid).all() and np.array_equal(bits, bits.T)):
                raise ValueError(f"{name}: not a finite symmetric grid")
            fh.write(f",\n  {json.dumps(name)}: [")
            text = np.empty(grid.shape, dtype=object)
            opening = "\n    [\n      "
            for i, row in enumerate(grid):
                text[i, i:] = list(map(float.__repr__, row[i:].tolist()))
                text[i + 1:, i] = text[i, i + 1:]
                fh.write(opening + ",\n      ".join(text[i].tolist()))
                opening = "\n    ],\n    [\n      "
            fh.write("\n    ]\n  ]")
        fh.write("\n}\n")


def _write_table(out_dir: Path, stem: str, header: list[str], rows,
                 output: OutputSettings, **extra) -> None:
    """``<stem>.csv``, or ``<stem>.json`` as ``{"columns", **extra, "rows"}``,
    in the run's output format."""
    if output.format == "csv":
        _write_csv(out_dir / f"{stem}.csv", header, rows, output.precision)
    else:
        _write_json(out_dir / f"{stem}.json",
                    {"columns": header, **extra, "rows": [list(r) for r in rows]})


def _thz(omega_rad_s):
    import numpy as np
    return np.asarray(omega_rad_s) / (2.0 * math.pi * 1e12)


# ---------------------------------------------------------------------------
# pipeline helpers shared by the jsa/modes/squeeze/scan commands


def _pinned_grid(run: RunConfig, config) -> FrequencyGrid | None:
    """The grid that ``detuning_extent_thz`` fixes, or None when it is unset;
    an extent the design cannot evaluate is refused by that name."""
    from .jsa import FrequencyGrid, _check_extent
    extent = run.grid.detuning_extent_thz
    if extent is None:
        return None
    grid = FrequencyGrid(n=run.grid.points_per_axis,
                         omega_max_rad_s=2.0 * math.pi * extent * 1e12)
    _check_extent(config, grid.omega_max_rad_s,
                  f"grid detuning_extent_thz = {extent:g} THz")
    return grid


def _design(run: RunConfig, crystal):
    """The configured design, its pump pulse and its grid."""
    from .jsa import default_grid
    config = run.to_pdc_config(crystal)
    pump = run.to_pump_pulse()
    grid = _pinned_grid(run, config) or default_grid(
        config, pump, n=run.grid.points_per_axis)
    return config, pump, grid


def _temperature_c(args, run: RunConfig) -> float:
    """``--temperature-c``, else the configured temperature, else 24.5 °C."""
    if args.temperature_c is not None:
        return args.temperature_c
    return run.pdc.temperature_c if run.pdc is not None else 24.5


def _signal_axis_thz(config, grid) -> np.ndarray:
    """Absolute linear frequencies f_i = (ω_s + Ω_i)/2π of the grid axes."""
    return _thz(config.omega_s_rad_s + grid.detunings())


# ---------------------------------------------------------------------------
# subcommands


# The most wavelengths that ``dispersion`` tabulates. Its rows are held in
# memory until they are written, about 190 B each per axis, so a table at
# the cap takes about 20 MB per axis; a count far above it would exhaust
# the memory instead of ending in an error line.
_MAX_SAMPLES = 100_000


def _cmd_dispersion(args, run: RunConfig, crystal, out_dir: Path) -> int:
    if args.lambda_max_um <= args.lambda_min_um:
        raise UsageError("--lambda-max-um must exceed --lambda-min-um")
    if args.samples < 2:
        raise UsageError("--samples must be at least 2")
    if args.samples > _MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {_MAX_SAMPLES}, "
                         f"got {args.samples}")
    axes = args.axes.split(",") if args.axes else sorted(crystal.axes)
    t_c = _temperature_c(args, run)
    lam = disp._linspace(args.lambda_min_um, args.lambda_max_um, args.samples)
    rows = []
    for axis in axes:
        # n, group index c·k′ and GVD k″ from one Sellmeier pass per λ
        for x in lam:
            n, kp, kpp = disp._k_terms(crystal, axis, x, t_c)
            rows.append((x, axis, n, c * kp, kpp * 1e24))
    header = ["lambda_um", "axis", "n", "group_index", "gvd_ps2_per_m"]
    _write_table(out_dir, "dispersion", header, rows, run.output,
                 temperature_c=t_c, crystal=crystal.name)
    print(f"dispersion table: {len(rows)} rows, axes {','.join(axes)}, "
          f"T = {_fmt(t_c, run.output.precision)} C")
    return 0


def _cmd_cgvm(args, run: RunConfig, crystal, out_dir: Path) -> int:
    t_c = _temperature_c(args, run)
    lam_cgvm = pm.solve_cgvm(crystal, args.pump_axis, args.signal_axis, t_c,
                             tuple(args.bracket_um))
    config = pm.PdcConfig(
        crystal=crystal, pump_axis=args.pump_axis, signal_axis=args.signal_axis,
        pump_wavelength_um=lam_cgvm / 2.0, temperature_c=t_c, length_m=1e-3)
    period = pm.poling_period(config)
    payload = {
        "crystal": crystal.name,
        "pump_axis": args.pump_axis,
        "signal_axis": args.signal_axis,
        "temperature_c": t_c,
        "cgvm_wavelength_um": lam_cgvm,
        "pump_wavelength_um": lam_cgvm / 2.0,
        "poling_period_um": period,
    }
    precision = run.output.precision
    print(f"cgvm_wavelength_um = {_fmt(lam_cgvm, precision)}")
    print(f"poling_period_um = {_fmt(period, precision)}")
    if args.target_um is not None:
        t_solved = pm.solve_cgvm_temperature(
            crystal, args.pump_axis, args.signal_axis, args.target_um,
            tuple(args.temperature_bracket_c))
        payload["target_um"] = args.target_um
        payload["solved_temperature_c"] = t_solved
        print(f"solved_temperature_c = {_fmt(t_solved, precision)}")
    _write_json(out_dir / "cgvm.json", payload)
    return 0


def _cmd_poling(args, run: RunConfig, crystal, out_dir: Path) -> int:
    config = run.to_pdc_config(crystal)
    period = pm.poling_period(config)
    payload = {
        "crystal": crystal.name,
        "pump_wavelength_um": config.pump_wavelength_um,
        "temperature_c": config.temperature_c,
        "poling_period_um": period,
    }
    print(f"poling_period_um = {_fmt(period, run.output.precision)}")
    _write_json(out_dir / "poling.json", payload)
    return 0


def _run_pipeline(run: RunConfig, crystal):
    """``_design``'s design, pump pulse and grid, and the Schmidt
    decomposition of the JSA they give."""
    from .jsa import compute_jsa, schmidt_decompose
    config, pump, grid = _design(run, crystal)
    return config, pump, grid, schmidt_decompose(compute_jsa(config, pump, grid))


def _design_fields(config) -> dict:
    """The design as the jsa and squeeze artifacts both record it; the
    poling period is the given one (always > 0), else the computed one."""
    return {
        "crystal": config.crystal.name,
        "pump_wavelength_um": config.pump_wavelength_um,
        "temperature_c": config.temperature_c,
        "crystal_length_mm": config.length_m * 1e3,
        "poling_period_um": config.poling_period_um or pm.poling_period(config),
    }


def _jsa_meta(config, grid, decomp, eta) -> dict:
    return {
        **_design_fields(config),
        "grid_n": grid.n,
        "detuning_extent_thz": float(_thz(grid.omega_max_rad_s)),
        "schmidt_number": decomp.schmidt_number,
        "eta_jsa": eta,
        "raw_norm": decomp.raw_norm,
    }


def _cmd_jsa(args, run: RunConfig, crystal, out_dir: Path) -> int:
    from .jsa import jsa_efficiency, jsa_parts
    config, pump, grid, decomp = _run_pipeline(run, crystal)
    eta = jsa_efficiency(decomp)
    meta = _jsa_meta(config, grid, decomp, eta)
    f_thz = _signal_axis_thz(config, grid)
    precision = run.output.precision
    grids = dict(zip(("abs", "real", "imag"), jsa_parts(config, pump, grid)))
    if not args.include_complex:
        del grids["real"], grids["imag"]
    if run.output.format == "csv":
        _write_csv(out_dir / "jsa_axis_thz.csv", ["f_thz"],
                   ([v] for v in f_thz.tolist()), precision)
        for name, part in grids.items():
            _write_csv(out_dir / f"jsa_{name}.csv", None, part, precision)
    else:
        _write_grids_json(out_dir / "jsa.json",
                          {**meta, "f_thz": f_thz.tolist()}, grids)
    _write_json(out_dir / "jsa_meta.json", meta)
    print(f"schmidt_number = {_fmt(decomp.schmidt_number, precision)}")
    print(f"eta_jsa = {_fmt(eta, precision)}")
    return 0


def _cmd_modes(args, run: RunConfig, crystal, out_dir: Path) -> int:
    import numpy as np
    if args.modes < 1:
        raise UsageError("--modes must be at least 1")
    config, _, grid, decomp = _run_pipeline(run, crystal)
    if args.modes > decomp.s.size:
        raise DomainError(
            f"requested {args.modes} modes but the decomposition has rank "
            f"{decomp.s.size}")
    f_thz = _signal_axis_thz(config, grid)
    meta = {
        "crystal": config.crystal.name,
        "schmidt_number": decomp.schmidt_number,
        "n_modes_exported": args.modes,
        "s": decomp.s.tolist(),
    }
    header = ["f_thz", "re_psi", "im_psi", "abs_psi"]
    zeros = [0.0] * f_thz.size       # the modes are real
    for n, mode in enumerate(decomp.modes[:args.modes]):
        rows = zip(f_thz.tolist(), mode.tolist(), zeros, np.abs(mode).tolist())
        _write_table(out_dir, f"mode_{n}", header, rows, run.output)
    _write_json(out_dir / "modes_meta.json", meta)
    print(f"exported {args.modes} modes; "
          f"s = {[_fmt(v, 6) for v in decomp.s[:args.modes]]}")
    return 0


def _squeeze_payload(config, result: SqueezingResult) -> dict:
    return {
        **_design_fields(config),
        "schmidt_number": result.schmidt_number,
        "eta_jsa": result.eta_jsa,
        "eta_pdc_per_w": result.eta_pdc_per_w,
        "p_peak_w": result.p_peak_w,
        "tau_p_fs": result.tau_p_s * 1e15,
        "waist_um": result.waist_m * 1e6,
        "gain_pb": result.gain_pb,
        "r": result.r.tolist(),
        "s_db": result.s_db.tolist(),
        "mean_photons": result.mean_photons.tolist(),
        "pump_photons_per_pulse": result.pump_photons_per_pulse,
        "beyond_validity": result.beyond_validity,
    }


def _cmd_squeeze(args, run: RunConfig, crystal, out_dir: Path) -> int:
    from .squeezing import squeezing_spectrum
    config, pump, grid = _design(run, crystal)
    result = squeezing_spectrum(config, pump, grid=grid)
    _write_json(out_dir / "squeeze.json", _squeeze_payload(config, result))
    precision = run.output.precision
    print(f"s_db_0 = {_fmt(result.s_db[0], precision)}")
    print(f"schmidt_number = {_fmt(result.schmidt_number, precision)}")
    print(f"eta_jsa = {_fmt(result.eta_jsa, precision)}")
    print(f"beyond_validity = {_flag(result.beyond_validity)}")
    return 0


def _cmd_scan(args, run: RunConfig, crystal, out_dir: Path) -> int:
    from .squeezing import length_scan
    config = run.to_pdc_config(crystal)
    pump = run.to_pump_pulse()
    lengths_m = [l * 1e-3 for l in args.lengths_mm]
    results = length_scan(config, pump, lengths_m, grid=_pinned_grid(run, config),
                          grid_n=run.grid.points_per_axis)
    header = ["l_mm", "k", "eta_jsa", "eta_pdc_per_w", "r0", "s_db",
              "validity_flag"]
    rows = []
    for length_m, result in results:
        rows.append((length_m * 1e3, result.schmidt_number, result.eta_jsa,
                     result.eta_pdc_per_w, float(result.r[0]),
                     float(result.s_db[0]), result.beyond_validity))
    if run.output.format == "csv":   # CSV spells the validity flag true/false
        rows = [(*row[:-1], _flag(row[-1])) for row in rows]
    _write_table(out_dir, "scan", header, rows, run.output)
    for row in rows:
        print(f"L = {_fmt(row[0], 6)} mm: s_db = {_fmt(row[5], 6)}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


class UsageError(Exception):
    """Command-line usage problem, found by argparse or after it."""


class _Parser(argparse.ArgumentParser):
    """An argument parser, and each of its subcommands' parsers, whose
    errors raise UsageError, so that they print one line like every other
    error; ``--help`` and ``--version`` still print and exit 0."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--crystal", metavar="FILE",
                        help="crystal data file (default: bundled 5%% MgO:LN)")
    common.add_argument("--config", metavar="FILE",
                        help="run configuration file (YAML)")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default from config, else 'out')")
    common.add_argument("--format", choices=_FORMATS,
                        help="tabular output format (default from config, else csv)")
    common.add_argument("--grid-n", type=int, metavar="N",
                        help="grid points per axis (default from config, else "
                             f"{DEFAULT_GRID_POINTS})")

    parser = _Parser(
        prog="pdcmodes",
        description="Degenerate pulsed PDC: dispersion, phase matching, "
                    "JSA/Schmidt modes, and squeezing budgets.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", parents=[common],
                       help="tabulate n, group index and GVD over a wavelength range")
    p.add_argument("--lambda-min-um", type=float, required=True)
    p.add_argument("--lambda-max-um", type=float, required=True)
    p.add_argument("--samples", type=int, default=301)
    p.add_argument("--axes", help="comma-separated axis labels (default: all)")
    p.add_argument("--temperature-c", type=float, default=None)
    p.set_defaults(handler=_cmd_dispersion)

    p = sub.add_parser("cgvm", parents=[common],
                       help="solve the complete group-velocity-matching point")
    p.add_argument("--pump-axis", required=True)
    p.add_argument("--signal-axis", required=True)
    p.add_argument("--temperature-c", type=float, default=None)
    p.add_argument("--bracket-um", type=float, nargs=2, default=(1.2, 2.0),
                   metavar=("LO", "HI"))
    p.add_argument("--target-um", type=float, default=None,
                   help="also solve the temperature that moves the cGVM "
                        "wavelength to this target")
    p.add_argument("--temperature-bracket-c", type=float, nargs=2,
                   default=(-20.0, 60.0), metavar=("LO", "HI"))
    p.set_defaults(handler=_cmd_cgvm)

    p = sub.add_parser("poling", parents=[common],
                       help="first-order poling period for the configured design")
    p.set_defaults(handler=_cmd_poling)

    p = sub.add_parser("jsa", parents=[common],
                       help="export the joint spectral amplitude grid")
    p.add_argument("--include-complex", action="store_true",
                   help="also export real/imaginary parts")
    p.set_defaults(handler=_cmd_jsa)

    p = sub.add_parser("modes", parents=[common],
                       help="export the leading Schmidt modes")
    p.add_argument("--modes", type=int, default=4, metavar="N")
    p.set_defaults(handler=_cmd_modes)

    p = sub.add_parser("squeeze", parents=[common],
                       help="full squeezing budget for the configured design")
    p.set_defaults(handler=_cmd_squeeze)

    p = sub.add_parser("scan", parents=[common],
                       help="squeezing versus crystal length")
    p.add_argument("--lengths-mm", type=float, nargs="+", required=True)
    p.set_defaults(handler=_cmd_scan)

    return parser


def _merge_run_config(args) -> RunConfig:
    """The run configuration, with each flag that is given taking precedence."""
    def given(**flags):
        return {key: value for key, value in flags.items() if value is not None}

    run = load_run_config(args.config)
    return run.replace(**given(crystal_file=args.crystal),
                       grid=run.grid.replace(**given(points_per_axis=args.grid_n)),
                       output=run.output.replace(**given(format=args.format,
                                                         directory=args.out)))


def _check_finite(args) -> None:
    """Reject nan/inf in float options, which argparse's float() accepts."""
    for dest, value in vars(args).items():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise UsageError(f"--{dest.replace('_', '-')} must be a "
                                 f"finite number, got {item}")


def _single_line(message: str) -> str:
    return " ".join(str(message).split())


# the kind and exit code of each error a command reports, in matching order
_EXIT_CODES = {
    UsageError: ("usage", 2),
    DomainError: ("domain", 3),
    ValidationError: ("validity", 3),
    SolverError: ("solver", 4),
    OSError: ("io", 5),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_finite(args)
        run = _merge_run_config(args)
        return args.handler(args, run, run.load_crystal(),
                            Path(run.output.directory))
    except tuple(_EXIT_CODES) as exc:
        kind, code = next(entry for cls, entry in _EXIT_CODES.items()
                          if isinstance(exc, cls))
        print(f"error[{kind}]: {_single_line(exc)}", file=sys.stderr)
        return code
