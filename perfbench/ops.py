"""Workloads: seeded op streams and the closed-loop runner for CLI ops.

An op is a dict holding every input the program receives: the run-config
YAML text, the subcommand arguments and the artifacts it must leave. Ops are
issued in whole cycles; each cycle is a seed-shuffled permutation of the
workload's op kinds, so every cycle has the same mix of kinds. The seed also
jitters each op's inputs (temperature ±0.5 °C, pump bandwidth ±5 %, cGVM
target in [1.54, 1.56] µm), and no op repeats an earlier op's inputs.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

# The two reference designs of tests/conftest.py.
DESIGNS = {
    "matched": {"pump_wavelength_nm": 775.0, "temperature_c": 11.0,
                "crystal_length_mm": 80.0},
    "walkoff": {"pump_wavelength_nm": 740.0, "temperature_c": 24.5,
                "crystal_length_mm": 5.0},
}
PUMP = {"bandwidth_fwhm_nm": 4.0, "mean_power_mw": 12.0,
        "repetition_rate_mhz": 100.0}
CGVM_TARGET_UM = 1.55
LIB_GRID_N = 1024

# Every child runs its BLAS and OpenMP pools on one thread. With the default
# of one thread per core an op spreads over both cores of a 2-vCPU host, and
# a busy process on the other core stretched its wall time by about half;
# on one thread it did not move. One thread also stops idle OpenBLAS workers
# from spinning, so cpu_s_per_op counts only work.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

# The yardstick (see yardstick()) and its wall time on a quiet 2-vCPU host.
# A shared host runs at changing speed: the same op took 0.57 s in one
# minute and 1.0 s in the next, CPU time included, and whole runs landed in
# slow phases. Timed metrics are therefore reported in yardstick units:
# each time times YARDSTICK_NOMINAL_S over the mean of the yardstick runs
# around it (run.Gauge). Raw times are printed and recorded as well.
YARDSTICK_CODE = "import numpy, scipy.optimize, scipy.constants, yaml"
YARDSTICK_NOMINAL_S = 0.52
# lib-modes ops are numpy work in a warm process, which slow phases slowed
# less than they slowed imports, so they have a yardstick of their own: an
# SVD-sized numpy job in the worker (child.py), with its nominal time.
LIB_YARDSTICK_N = 640
LIB_YARDSTICK_NOMINAL_S = 0.14

# (command, format) pairs of each workload; every pair runs on both designs
WORKLOADS = {
    "cli-design": [("dispersion", "csv"), ("cgvm", "csv"), ("poling", "csv"),
                   ("squeeze", "csv"), ("modes", "csv"), ("scan", "csv")],
    "cli-export": [("jsa", "csv"), ("jsa", "json")],
    "lib-modes": [("squeezing_spectrum", "none")],
}

_ARGS = {
    "dispersion": ["--lambda-min-um", "0.6", "--lambda-max-um", "3.6",
                   "--samples", "400"],
    "cgvm": ["--pump-axis", "e", "--signal-axis", "o"],
    "poling": [],
    "squeeze": [],
    "modes": ["--modes", "4"],
    "scan": ["--lengths-mm", "10", "20", "40", "80"],
    "jsa": ["--include-complex"],
}

_ARTIFACTS = {
    ("dispersion", "csv"): ["dispersion.csv"],
    ("cgvm", "csv"): ["cgvm.json"],
    ("poling", "csv"): ["poling.json"],
    ("squeeze", "csv"): ["squeeze.json"],
    ("modes", "csv"): ["mode_0.csv", "mode_1.csv", "mode_2.csv", "mode_3.csv",
                       "modes_meta.json"],
    ("scan", "csv"): ["scan.csv"],
    ("jsa", "csv"): ["jsa_abs.csv", "jsa_axis_thz.csv", "jsa_real.csv",
                     "jsa_imag.csv", "jsa_meta.json"],
    ("jsa", "json"): ["jsa.json", "jsa_meta.json"],
}


def design_yaml(design: str, temperature_c: float, bandwidth_nm: float) -> str:
    d = DESIGNS[design]
    return (
        "pdc:\n"
        "  type: type-I\n"
        "  pump_axis: e\n"
        "  signal_axis: o\n"
        f"  pump_wavelength_nm: {d['pump_wavelength_nm']!r}\n"
        f"  temperature_c: {temperature_c!r}\n"
        f"  crystal_length_mm: {d['crystal_length_mm']!r}\n"
        "pump:\n"
        f"  bandwidth_fwhm_nm: {bandwidth_nm!r}\n"
        f"  mean_power_mw: {PUMP['mean_power_mw']!r}\n"
        f"  repetition_rate_mhz: {PUMP['repetition_rate_mhz']!r}\n")


def make_op(command: str, fmt: str, design: str, temperature_c: float,
            bandwidth_nm: float, target_um: float) -> dict:
    args = [command, *_ARGS.get(command, [])]
    if command == "cgvm":
        args += ["--target-um", repr(target_um)]
    if fmt == "json":
        args += ["--format", "json"]
    return {
        "kind": f"{command}/{fmt}/{design}",
        "command": command,
        "format": fmt,
        "design": design,
        "temperature_c": temperature_c,
        "bandwidth_fwhm_nm": bandwidth_nm,
        "target_um": target_um,
        "yaml": design_yaml(design, temperature_c, bandwidth_nm),
        "args": args,
        "expect": list(_ARTIFACTS.get((command, fmt), [])),
    }


def reference_ops(workload: str) -> list[dict]:
    """One op of every kind at the exact reference inputs."""
    return [make_op(cmd, fmt, design, DESIGNS[design]["temperature_c"],
                    PUMP["bandwidth_fwhm_nm"], CGVM_TARGET_UM)
            for cmd, fmt in WORKLOADS[workload] for design in DESIGNS]


def gate_ops(workload: str, seed: int) -> list[dict]:
    """The reference ops one run's correctness gate checks: every (command,
    format) pair once, on a design that alternates with the pair and the
    seed, so that runs with consecutive seeds cover every reference op."""
    refs, n = reference_ops(workload), len(DESIGNS)
    return [refs[i * n + (i + seed) % n] for i in range(len(WORKLOADS[workload]))]


class OpStream:
    """Seeded source of whole, shuffled cycles of jittered ops."""

    def __init__(self, workload: str, seed: int):
        self.kinds = [(cmd, fmt, design) for cmd, fmt in WORKLOADS[workload]
                      for design in DESIGNS]
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen: set[tuple] = set()

    def _jittered(self, cmd: str, fmt: str, design: str) -> dict:
        while True:
            t_c = DESIGNS[design]["temperature_c"] + self.rng.uniform(-0.5, 0.5)
            bw = PUMP["bandwidth_fwhm_nm"] * (1.0 + self.rng.uniform(-0.05, 0.05))
            target = self.rng.uniform(1.54, 1.56)
            key = (cmd, fmt, design, t_c, bw, target)
            if key not in self.seen:
                self.seen.add(key)
                return make_op(cmd, fmt, design, t_c, bw, target)

    def cycle(self) -> list[dict]:
        order = self.kinds[:]
        self.rng.shuffle(order)
        return [self._jittered(*kind) for kind in order]


# ---------------------------------------------------------------------------
# running one CLI op in a fresh process


class Context:
    """Where and how CLI children run: the package source and a work dir."""

    def __init__(self, src: Path, work: Path):
        self.src = src
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ) | BLAS_ENV
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else []))
        self._count = 0

    def close(self) -> None:
        """Delete the work dir, and its parent once no other run uses it."""
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def new_dir(self, stem: str) -> Path:
        self._count += 1
        path = self.work / f"{stem}{self._count}"
        path.mkdir(parents=True)
        return path


def spawn(cmd: list[str], ctx: Context, cwd: Path, log: Path):
    """Run a child to completion; wall time and its own rusage."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=ctx.env, stdout=out,
                                stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def yardstick(ctx: Context) -> float:
    """Wall time of one fresh interpreter importing what pdcmodes imports,
    but not pdcmodes: a fixed job that no change to the package can speed up
    or slow down, timed next to the ops to gauge the host's current speed."""
    log = ctx.work / "yardstick.log"
    rc, wall, _ = spawn([sys.executable, "-c", YARDSTICK_CODE], ctx, ctx.work, log)
    if rc != 0:
        raise RuntimeError(f"yardstick failed: {log.read_text()}")
    return wall


def _last_line(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_cli_op(op: dict, ctx: Context, traced: bool = False,
               alloc: bool = False) -> dict:
    """Run one op as ``python -m pdcmodes`` (or through the tracing shim),
    check its artifacts, and delete them. Timing covers the child only."""
    op_dir = ctx.new_dir("op")
    out_dir = op_dir / "out"
    config = op_dir / "design.yaml"
    config.write_text(op["yaml"], encoding="utf-8")
    argv = [*op["args"], "--config", str(config), "--out", str(out_dir)]
    spans_file = op_dir / "spans.json"
    if traced or alloc:
        cmd = [sys.executable, str(CHILD), "cli", str(spans_file)]
        cmd += ["--alloc"] if alloc else []
        cmd += ["--", *argv]
    else:
        cmd = [sys.executable, "-m", "pdcmodes", *argv]
    rc, wall, usage = spawn(cmd, ctx, op_dir, op_dir / "log.txt")
    result = {
        "kind": op["kind"],
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "traced": traced,
    }
    if rc != 0:
        result["reason"] = f"exit {rc}: {_last_line(op_dir / 'log.txt')}"
    else:
        result["reason"] = checks.check_artifacts(out_dir, op["expect"])
    result["ok"] = result["reason"] is None
    files = [p for p in out_dir.iterdir() if p.is_file()] if out_dir.is_dir() else []
    result["files_written"] = len(files)
    result["bytes_written"] = sum(p.stat().st_size for p in files)
    if (traced or alloc) and spans_file.is_file():
        result["trace"] = checks.load_json(spans_file)
    shutil.rmtree(op_dir)
    return result
