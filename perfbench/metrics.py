"""Metric definitions and the arithmetic that turns op records into them."""

from __future__ import annotations

import statistics
from collections import defaultdict

import spans as spanlib

# End-to-end metrics, as a user of the CLI or the library sees them. Times
# are in yardstick units (see ops.YARDSTICK_NOMINAL_S): seconds on a host
# where the yardstick takes its nominal time.
E2E = {
    "setup_s": "s",          # fresh interpreter: import pdcmodes + load_bundled_crystal()
    "op_p50_s": "s",         # median op wall time
    "op_tail_s": "s",        # highest percentile with >= 10 samples beyond it
    "ops_per_s": "1/s",      # ops completed / summed op wall time
    "cpu_s_per_op": "s",     # user + system CPU per op
    "peak_rss_mb": "MB",     # peak RSS of the hungriest op kind (see peak_rss)
}

SWEEP_KEYS = ("jsa.compute_jsa.self_s", "jsa.schmidt_decompose.self_s",
              "jsa.array_bytes")
SWEEP_N = (256, 512, 1024, 2048)

# Per-layer metrics of the traced run. Counts and times are per traced op.
PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_optimize_s": "s",
    "import.scipy_constants_s": "s",
    "import.numpy_s": "s",
    "import.yaml_s": "s",
    "process.startup_s": "s",
    "config.calls": "count",
    "config.self_s": "s",
    "dispersion.calls": "count",
    "dispersion.self_s": "s",
    "dispersion.points": "count",
    "phasematch.calls": "count",
    "phasematch.self_s": "s",
    "phasematch.solver_gap_evals": "count",
    "jsa.compute_jsa.self_s": "s",
    "jsa.schmidt_decompose.self_s": "s",
    "jsa.grid_cells": "count",
    "jsa.array_bytes": "B",
    "jsa.peak_alloc_mb": "MB",
    "jsa.useful_mode_frac": "ratio",
    "squeezing.calls": "count",
    "squeezing.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "cli.files_written": "count",
    "cli.write_mb_per_s": "MB/s",       # bytes written per second of cli self time
    "cli.peak_alloc_mb": "MB",
    "trace.overhead_frac": "ratio",
    **{f"{key}.n{n}": ("B" if key.endswith("bytes") else "s")
       for key in SWEEP_KEYS for n in SWEEP_N},
}

IMPORT_MODULES = {"pdcmodes": "import.total_s",
                  "scipy.optimize": "import.scipy_optimize_s",
                  "scipy.constants": "import.scipy_constants_s",
                  "numpy": "import.numpy_s",
                  "yaml": "import.yaml_s"}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that has
    at least ten samples beyond it. With fewer than eleven samples no
    percentile qualifies, and the maximum is reported at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss(results: list[dict]) -> float:
    """Largest per-kind median of the ops' peak RSS. The plain maximum over
    ops jumped between runs: now and then one scan op peaked 5 MB above all
    others of its kind."""
    by_kind: dict[str, list[float]] = defaultdict(list)
    for r in results:
        by_kind[r["kind"]].append(r["rss_mb"])
    return max(statistics.median(v) for v in by_kind.values())


def e2e(setup: list[dict], results: list[dict], peak_rss_mb: float) -> dict:
    """End-to-end metrics from the set-up samples and the ops; an op that
    killed its worker counts as failed but has no time. A time is multiplied
    by its record's host-speed ``scale`` when it has one."""
    timed = [r for r in results if not r.get("fatal")]
    scales = [r.get("scale", 1.0) for r in timed]
    walls = [r["wall_s"] * k for r, k in zip(timed, scales)]
    value, pct, count = tail(walls)
    return {
        "setup_s": statistics.median(r["wall_s"] * r.get("scale", 1.0) for r in setup),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": value,
        "op_tail_pct": pct,
        "op_count": count,
        "ops_per_s": len(walls) / sum(walls),
        "cpu_s_per_op": sum(r["cpu_s"] * k for r, k in zip(timed, scales)) / len(timed),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": sum(not r["ok"] for r in results) / len(results),
        "setup_raw_s": statistics.median(r["wall_s"] for r in setup),
        "op_p50_raw_s": statistics.median(r["wall_s"] for r in timed),
    }


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of the modules in IMPORT_MODULES from the stderr
    of ``python -X importtime``; a module that was not imported reads 0."""
    found = dict.fromkeys(IMPORT_MODULES.values(), 0.0)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        key = IMPORT_MODULES.get(parts[2].strip())
        if key is not None:
            found[key] = int(parts[1]) / 1e6
    return found


def solver_gap_evals(spans) -> int:
    """``dispersion.group_index`` spans with a ``phasematch.solve_cgvm*``
    ancestor."""
    count = 0
    for name, _, _, _, parent in spans:
        if name != "dispersion.group_index":
            continue
        while parent is not None:
            if spans[parent][0].startswith("phasematch.solve_cgvm"):
                count += 1
                break
            parent = spans[parent][4]
    return count


def layers(traced: list[dict], untraced: list[dict], startup_s: float | None,
           imports: dict, sweep: dict, probes: list[dict]) -> dict:
    """Per-layer metrics from the traced ops and the traced-run extras.

    ``startup_s`` is the lib-modes worker's start-up time; for CLI ops
    (None) process start-up is each traced op's wall time minus its root
    spans, i.e. interpreter start, imports and exit.
    """
    n = len(traced)
    self_s: dict[str, float] = defaultdict(float)
    names: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    startup = gap_evals = layer_sum = 0.0
    peak_jsa = 0.0
    for r in traced:
        record = r.get("trace", {})
        agg = spanlib.aggregate(record.get("spans", []))
        for layer, t in agg["layer_self_s"].items():
            self_s[layer] += t
        for name, t in agg["name_self_s"].items():
            names[name] += t
        for key, value in record.get("counters", {}).items():
            counters[key] += value
        peak_jsa = max(peak_jsa, record.get("counters", {}).get("jsa.peak_alloc_mb", 0.0))
        startup += r["wall_s"] - sum(agg["root_s"].values())
        layer_sum += sum(agg["layer_self_s"].values())
        gap_evals += solver_gap_evals(record.get("spans", []))
    everything = traced + untraced
    bytes_written = sum(r.get("bytes_written", 0) for r in everything)
    traced_bytes = sum(r.get("bytes_written", 0) for r in traced)
    out = dict(imports)
    out["process.startup_s"] = startup / n if startup_s is None else startup_s
    for layer in ("config", "dispersion", "phasematch", "squeezing"):
        out[f"{layer}.calls"] = counters[f"{layer}.calls"] / n
        out[f"{layer}.self_s"] = self_s[layer] / n
    out["dispersion.points"] = counters["dispersion.points"] / n
    out["phasematch.solver_gap_evals"] = gap_evals / n
    out["jsa.compute_jsa.self_s"] = names["jsa.compute_jsa"] / n
    out["jsa.schmidt_decompose.self_s"] = names["jsa.schmidt_decompose"] / n
    out["jsa.grid_cells"] = counters["jsa.grid_cells"] / n
    out["jsa.array_bytes"] = counters["jsa.array_bytes"] / n
    out["jsa.peak_alloc_mb"] = peak_jsa
    computed = counters["jsa.computed_modes"]
    out["jsa.useful_mode_frac"] = counters["jsa.useful_modes"] / computed if computed else 0.0
    out["cli.self_s"] = self_s["cli"] / n
    out["cli.bytes_written"] = bytes_written / len(everything)
    out["cli.files_written"] = sum(r.get("files_written", 0) for r in everything) / len(everything)
    out["cli.write_mb_per_s"] = (traced_bytes / spanlib.MB / self_s["cli"]
                                 if self_s["cli"] else 0.0)
    out["cli.peak_alloc_mb"] = max(
        (p.get("trace", {}).get("counters", {}).get("cli.peak_alloc_mb", 0.0)
         for p in probes), default=0.0)
    untraced_wall = sum(r["wall_s"] for r in untraced) / len(untraced)
    out["trace.overhead_frac"] = sum(r["wall_s"] for r in traced) / n / untraced_wall - 1.0
    out.update(sweep)
    # not metrics: the check that layer self times account for an op
    out["layer_sum_s"] = (layer_sum + (startup if startup_s is None else 0.0)) / n
    out["untraced_op_s"] = untraced_wall
    return out
