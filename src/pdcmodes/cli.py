"""Command-line interface: every pipeline stage as a deterministic artifact.

Subcommands: ``dispersion``, ``cgvm``, ``poling``, ``jsa``, ``modes``,
``squeeze``, ``scan``. Identical inputs produce byte-identical outputs:
floats are written with a fixed number of significant digits in CSV and
full double precision in JSON, row ordering is fixed, and files are written
atomically (temp file + rename).

Exit codes: 0 success, 2 usage, 3 domain/validity, 4 solver failure, 5 I/O.
Every error path prints a single line ``error[<kind>]: <message>``.

Only the commands that run the JSA pipeline (jsa, modes, squeeze, scan)
import the JSA and squeezing layers, so dispersion, cgvm and poling start
without them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from . import dispersion as disp
from . import phasematch as pm
from .config import _FORMATS, RunConfig, load_run_config
from .constants import DEFAULT_GRID_POINTS
from .errors import DomainError, SolverError, ValidationError

if TYPE_CHECKING:
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
    kind of its first cell. A matrix may be passed as ``rows`` directly.
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
        if header is None and template is None:   # an empty file still ends a line
            fh.write("\n")


def _write_json(path: Path, payload) -> None:
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _thz(omega_rad_s):
    return np.asarray(omega_rad_s) / (2.0 * math.pi * 1e12)


# ---------------------------------------------------------------------------
# pipeline helpers shared by the jsa/modes/squeeze/scan commands


def _pinned_grid(run: RunConfig) -> FrequencyGrid | None:
    """The grid that ``detuning_extent_thz`` fixes, or None when it is unset."""
    from .jsa import FrequencyGrid
    extent = run.grid.detuning_extent_thz
    if extent is None:
        return None
    return FrequencyGrid(n=run.grid.points_per_axis,
                         omega_max_rad_s=2.0 * math.pi * extent * 1e12)


def _design(run: RunConfig):
    """The configured design, its pump pulse and its grid."""
    from .jsa import default_grid
    crystal = run.load_crystal()
    config = run.to_pdc_config(crystal)
    pump = run.to_pump_pulse()
    grid = _pinned_grid(run) or default_grid(
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


def _cmd_dispersion(args, run: RunConfig, out_dir: Path) -> int:
    crystal = run.load_crystal()
    if args.lambda_max_um <= args.lambda_min_um:
        raise UsageError("--lambda-max-um must exceed --lambda-min-um")
    if args.samples < 2:
        raise UsageError("--samples must be at least 2")
    axes = args.axes.split(",") if args.axes else sorted(crystal.axes)
    t_c = _temperature_c(args, run)
    lam = np.linspace(args.lambda_min_um, args.lambda_max_um, args.samples)
    rows = []
    for axis in axes:
        n = disp.refractive_index(crystal, axis, lam, t_c)
        m = disp.group_index(crystal, axis, lam, t_c)
        g = disp.gvd(crystal, axis, lam, t_c)
        for i in range(lam.size):
            rows.append((float(lam[i]), axis, float(n[i]), float(m[i]), float(g[i])))
    header = ["lambda_um", "axis", "n", "group_index", "gvd_ps2_per_m"]
    precision = run.output.precision
    if run.output.format == "csv":
        _write_csv(out_dir / "dispersion.csv", header, rows, precision)
    else:
        _write_json(out_dir / "dispersion.json",
                    {"columns": header,
                     "temperature_c": t_c,
                     "crystal": crystal.name,
                     "rows": [list(r) for r in rows]})
    print(f"dispersion table: {len(rows)} rows, axes {','.join(axes)}, "
          f"T = {_fmt(t_c, precision)} C")
    return 0


def _cmd_cgvm(args, run: RunConfig, out_dir: Path) -> int:
    crystal = run.load_crystal()
    t_c = _temperature_c(args, run)
    lam_cgvm = pm.solve_cgvm(crystal, args.pump_axis, args.signal_axis, t_c,
                             tuple(args.bracket_um))
    pdc_type = "type-0" if args.pump_axis == args.signal_axis else "type-I"
    config = pm.PdcConfig(
        crystal=crystal, pdc_type=pdc_type,
        pump_axis=args.pump_axis, signal_axis=args.signal_axis,
        pump_wavelength_um=lam_cgvm / 2.0, temperature_c=t_c,
        length_m=1e-3)
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


def _cmd_poling(args, run: RunConfig, out_dir: Path) -> int:
    crystal = run.load_crystal()
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


def _run_pipeline(run: RunConfig):
    from .jsa import compute_jsa, schmidt_decompose
    config, pump, grid = _design(run)
    amplitude = compute_jsa(config, pump, grid)
    decomp = schmidt_decompose(amplitude)
    return config, grid, amplitude, decomp


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


def _cmd_jsa(args, run: RunConfig, out_dir: Path) -> int:
    from .jsa import jsa_efficiency
    config, grid, amplitude, decomp = _run_pipeline(run)
    eta = jsa_efficiency(decomp)
    meta = _jsa_meta(config, grid, decomp, eta)
    f_thz = _signal_axis_thz(config, grid)
    precision = run.output.precision
    values = amplitude.values
    magnitude = np.abs(values)
    if run.output.format == "csv":
        _write_csv(out_dir / "jsa_abs.csv", None, magnitude, precision)
        _write_csv(out_dir / "jsa_axis_thz.csv", ["f_thz"],
                   ([v] for v in f_thz.tolist()), precision)
        if args.include_complex:
            _write_csv(out_dir / "jsa_real.csv", None, values.real, precision)
            _write_csv(out_dir / "jsa_imag.csv", None, values.imag, precision)
        _write_json(out_dir / "jsa_meta.json", meta)
    else:
        payload = dict(meta)
        payload["f_thz"] = f_thz.tolist()
        payload["abs"] = magnitude.tolist()
        if args.include_complex:
            payload["real"] = values.real.tolist()
            payload["imag"] = values.imag.tolist()
        _write_json(out_dir / "jsa.json", payload)
        _write_json(out_dir / "jsa_meta.json", meta)
    print(f"schmidt_number = {_fmt(decomp.schmidt_number, precision)}")
    print(f"eta_jsa = {_fmt(eta, precision)}")
    return 0


def _cmd_modes(args, run: RunConfig, out_dir: Path) -> int:
    if args.modes < 1:
        raise UsageError("--modes must be at least 1")
    config, grid, _, decomp = _run_pipeline(run)
    if args.modes > decomp.s.size:
        raise DomainError(
            f"requested {args.modes} modes but the decomposition has rank "
            f"{decomp.s.size}")
    f_thz = _signal_axis_thz(config, grid)
    precision = run.output.precision
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
        if run.output.format == "csv":
            _write_csv(out_dir / f"mode_{n}.csv", header, rows, precision)
        else:
            _write_json(out_dir / f"mode_{n}.json",
                        {"columns": header, "rows": [list(r) for r in rows]})
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


def _cmd_squeeze(args, run: RunConfig, out_dir: Path) -> int:
    from .squeezing import squeezing_spectrum
    config, pump, grid = _design(run)
    result = squeezing_spectrum(config, pump, grid=grid)
    _write_json(out_dir / "squeeze.json", _squeeze_payload(config, result))
    precision = run.output.precision
    print(f"s_db_0 = {_fmt(result.s_db[0], precision)}")
    print(f"schmidt_number = {_fmt(result.schmidt_number, precision)}")
    print(f"eta_jsa = {_fmt(result.eta_jsa, precision)}")
    print(f"beyond_validity = {_flag(result.beyond_validity)}")
    return 0


def _cmd_scan(args, run: RunConfig, out_dir: Path) -> int:
    from .squeezing import length_scan
    if not args.lengths_mm:
        raise UsageError("--lengths-mm needs at least one length")
    crystal = run.load_crystal()
    config = run.to_pdc_config(crystal)
    pump = run.to_pump_pulse()
    lengths_m = [l * 1e-3 for l in args.lengths_mm]
    results = length_scan(config, pump, lengths_m, grid=_pinned_grid(run),
                          grid_n=run.grid.points_per_axis)
    header = ["l_mm", "k", "eta_jsa", "eta_pdc_per_w", "r0", "s_db",
              "validity_flag"]
    rows = []
    for length_m, result in results:
        rows.append((length_m * 1e3, result.schmidt_number, result.eta_jsa,
                     result.eta_pdc_per_w, float(result.r[0]),
                     float(result.s_db[0]), result.beyond_validity))
    precision = run.output.precision
    if run.output.format == "csv":
        _write_csv(out_dir / "scan.csv", header,
                   [(*row[:-1], _flag(row[-1])) for row in rows], precision)
    else:
        _write_json(out_dir / "scan.json",
                    {"columns": header, "rows": [list(row) for row in rows]})
    for row in rows:
        print(f"L = {_fmt(row[0], 6)} mm: s_db = {_fmt(row[5], 6)}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


class UsageError(Exception):
    """Command-line usage problem detected after argparse."""


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

    parser = argparse.ArgumentParser(
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
    run = load_run_config(args.config)
    if args.crystal is not None:
        run = replace(run, crystal_file=args.crystal)
    if args.grid_n is not None:
        run = replace(run, grid=replace(run.grid, points_per_axis=args.grid_n))
    if args.format is not None or args.out is not None:
        out = run.output
        if args.format is not None:
            out = replace(out, format=args.format)
        if args.out is not None:
            out = replace(out, directory=args.out)
        run = replace(run, output=out)
    return run


def _check_finite(args) -> None:
    """Reject nan/inf in float options, which argparse's float() accepts."""
    for dest, value in vars(args).items():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise UsageError(f"--{dest.replace('_', '-')} must be a "
                                 f"finite number, got {item}")


def _single_line(message: str) -> str:
    return " ".join(str(message).split())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_finite(args)
        run = _merge_run_config(args)
        out_dir = Path(run.output.directory)
        return args.handler(args, run, out_dir)
    except UsageError as exc:
        print(f"error[usage]: {_single_line(exc)}", file=sys.stderr)
        return 2
    except (DomainError, ValidationError) as exc:
        kind = "domain" if isinstance(exc, DomainError) else "validity"
        print(f"error[{kind}]: {_single_line(exc)}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error[solver]: {_single_line(exc)}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error[io]: {_single_line(exc)}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
