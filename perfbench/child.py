"""Child-process entry points of the benchmark.

    child.py cli SPANS_OUT [--alloc] -- ARGS...   one CLI op through the tracer
    child.py gate REPLY_JSON -- ARGS... [-- ARGS...]
                                                  reference CLI ops, in-process
    child.py worker                               the lib-modes worker

``cli`` runs ``pdcmodes.cli.main(ARGS)`` with every layer wrapped by the
tracer (or, with ``--alloc``, under tracemalloc alone) and writes the spans
to SPANS_OUT. ``worker`` reads one JSON request per line on stdin and
answers one JSON line per request on stdout.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import statistics
import sys
import time
import tracemalloc

import ops
import spans
from metrics import SWEEP_N

SWEEP_BUDGET_S = 1.0     # repeat a sweep point up to five times within this
SWEEP_REPS = 5


def _run_main(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:            # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2


def traced_cli(spans_out: str, alloc: bool, argv: list[str]) -> int:
    import pdcmodes.cli as cli
    tracer = spans.Tracer()
    if alloc:
        tracemalloc.start()
    else:
        tracer.install()
    rc = _run_main(cli, argv)
    record = tracer.export()
    if alloc:
        record["counters"]["cli.peak_alloc_mb"] = (
            tracemalloc.get_traced_memory()[1] / spans.MB)
        tracemalloc.stop()
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    import pdcmodes
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
            "pdcmodes_file": pdcmodes.__file__}


def gate(reply_path: str, argvs: list[list[str]]) -> int:
    import pdcmodes.cli as cli
    rcs = [_run_main(cli, argv) for argv in argvs]
    with open(reply_path, "w", encoding="utf-8") as fh:
        json.dump({"rcs": rcs, "env": environment()}, fh)
    return 0


# ---------------------------------------------------------------------------
# lib-modes worker


def _inputs(p, crystal, op: dict):
    design = ops.DESIGNS[op["design"]]
    lam_um = design["pump_wavelength_nm"] * 1e-3
    config = p.PdcConfig(crystal=crystal, pdc_type="type-I", pump_axis="e",
                         signal_axis="o", pump_wavelength_um=lam_um,
                         temperature_c=op["temperature_c"],
                         length_m=design["crystal_length_mm"] * 1e-3)
    pump = p.PumpPulse(wavelength_um=lam_um,
                       bandwidth_fwhm_nm=op["bandwidth_fwhm_nm"],
                       mean_power_w=ops.PUMP["mean_power_mw"] * 1e-3,
                       rep_rate_hz=ops.PUMP["repetition_rate_mhz"] * 1e6)
    return config, pump


def _invariants(result) -> str | None:
    """Finite numbers, K ≥ 1, 0 < η ≤ 1, and Σs² = 1 within 1e-12.

    r_n is proportional to s_n, so (Σr²)²/Σr⁴ = (Σs²)²·K; it matches the
    reported K within 2e-12 exactly when Σs² = 1 within 1e-12.
    """
    import numpy as np
    scalars = (result.eta_jsa, result.eta_pdc_per_w, result.schmidt_number,
               result.p_peak_w, result.gain_pb)
    arrays = (result.r, result.s_db, result.mean_photons)
    if not (all(map(math.isfinite, scalars))
            and all(bool(np.all(np.isfinite(a))) for a in arrays)):
        return "non-finite result"
    if not result.schmidt_number >= 1.0:
        return f"Schmidt number {result.schmidt_number!r} < 1"
    if not 0.0 < result.eta_jsa <= 1.0:
        return f"eta_jsa {result.eta_jsa!r} outside (0, 1]"
    r2 = [x * x for x in result.r.tolist()]
    k_from_r = math.fsum(r2) ** 2 / math.fsum(x * x for x in r2)
    if abs(k_from_r / result.schmidt_number - 1.0) > 2.0 * 1e-12:
        return f"sum of s^2 off by {k_from_r / result.schmidt_number - 1.0:.3e} (x2)"
    return None


def _lib_gate(p, crystal) -> dict:
    values, problems = {}, []
    for op in ops.reference_ops("lib-modes"):
        config, pump = _inputs(p, crystal, op)
        result = p.squeezing_spectrum(config, pump)
        values[op["design"]] = {"schmidt_number": result.schmidt_number,
                                "eta_jsa": result.eta_jsa,
                                "s_db_0": float(result.s_db[0])}
        reason = _invariants(result)
        if reason:
            problems.append(f"{op['design']}: {reason}")
    return {"values": values, "problems": problems}


def _lib_op(p, crystal, op: dict, traced: bool, tracer: spans.Tracer) -> dict:
    config, pump = _inputs(p, crystal, op)
    if traced:
        tracer.reset()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        result = p.squeezing_spectrum(config, pump, grid_n=ops.LIB_GRID_N)
        reason = None
    except Exception as exc:             # a failed op is counted, not fatal
        result, reason = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    if traced:
        tracer.uninstall()
    reply = {"wall_s": wall,
             "cpu_s": (after.ru_utime - before.ru_utime)
                      + (after.ru_stime - before.ru_stime),
             "reason": reason or _invariants(result)}
    if traced:
        reply["trace"] = tracer.export()
    return reply


def _sweep(p, crystal, tracer: spans.Tracer) -> dict:
    """Traced compute_jsa + schmidt_decompose on the matched design per n."""
    op = ops.reference_ops("lib-modes")[0]
    config, pump = _inputs(p, crystal, op)
    metrics = {}
    for n in SWEEP_N:
        samples, spent = [], 0.0
        while len(samples) < SWEEP_REPS and (not samples or spent < SWEEP_BUDGET_S):
            tracer.reset()
            tracer.install()
            start = time.perf_counter()
            amplitude = p.compute_jsa(config, pump, p.default_grid(config, pump, n=n))
            p.schmidt_decompose(amplitude)
            spent += time.perf_counter() - start
            tracer.uninstall()
            del amplitude
            own = spans.aggregate(tracer.spans)["name_self_s"]
            samples.append((own.get("jsa.compute_jsa", 0.0),
                            own.get("jsa.schmidt_decompose", 0.0),
                            tracer.counters["jsa.array_bytes"]))
        for i, key in enumerate(("jsa.compute_jsa.self_s", "jsa.schmidt_decompose.self_s",
                                 "jsa.array_bytes")):
            metrics[f"{key}.n{n}"] = statistics.median(s[i] for s in samples)
    return metrics


def _yardstick() -> dict:
    """The lib-modes yardstick (see ops.py): a fixed numpy job shaped like
    an op, an elementwise sinc envelope on a grid and its SVD, that no
    change to pdcmodes can speed up or slow down."""
    import numpy
    x = numpy.linspace(-8.0, 8.0, ops.LIB_YARDSTICK_N)
    start = time.perf_counter()
    envelope = (numpy.exp(-numpy.add.outer(x, x) ** 2 / 32.0)
                * numpy.sinc(numpy.subtract.outer(x, x)))
    numpy.linalg.svd(envelope)
    return {"wall_s": time.perf_counter() - start}


def worker() -> int:
    channel = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)                        # stray prints cannot corrupt replies
    sys.stdout = sys.stderr
    import pdcmodes as p
    crystal = p.load_bundled_crystal()
    tracer = spans.Tracer()

    def send(obj) -> None:
        channel.write(json.dumps(obj) + "\n")

    send({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line)
        cmd = msg["cmd"]
        if cmd == "exit":
            break
        if cmd == "env":
            send(environment())
        elif cmd == "gate":
            send(_lib_gate(p, crystal))
        elif cmd == "op":
            send(_lib_op(p, crystal, msg["op"], msg.get("traced", False), tracer))
        elif cmd == "sweep":
            send(_sweep(p, crystal, tracer))
        elif cmd == "yardstick":
            send(_yardstick())
        else:
            send({"error": f"unknown command {cmd!r}"})
    return 0


def _split_argvs(rest: list[str]) -> list[list[str]]:
    argvs: list[list[str]] = []
    for token in rest:
        if token == "--":
            argvs.append([])
        else:
            argvs[-1].append(token)
    return argvs


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        alloc = argv[2] == "--alloc"
        return traced_cli(argv[1], alloc, _split_argvs(argv[2 + alloc:])[0])
    if mode == "gate":
        return gate(argv[1], _split_argvs(argv[2:]))
    if mode == "worker":
        return worker()
    print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
