"""pdcmodes benchmark: three workloads driven by one closed-loop client.

    python3 perfbench/run.py --workload {cli-design,cli-export,lib-modes,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout: the package under test is always the
checkout's ``src/pdcmodes``. One op is in flight at a time. Ops are issued
in whole seed-shuffled cycles (see ops.py) for at most about ``--seconds``,
and at least MIN_OPS ops.

Each run first measures set-up (a fresh interpreter importing pdcmodes and
loading the bundled crystal, several times) and passes an untimed
correctness gate at the exact reference inputs: CLI artifacts must match the
sha256 hashes in golden.json, and the library's K, η_JSA and S₀ must meet
the acceptance values. Every timed op is then checked for invariants
(checks.py). With ``--trace 0`` the run prints the end-to-end metrics, its
times scaled by the yardstick runs around them (see ops.py); with
``--trace 1`` it alternates untraced and traced cycles and prints the
per-layer metrics instead (see metrics.py). The last line of standard
output is one JSON object; the exit code is 1 when any output was wrong and
2 when there is no package source to benchmark. Full records, including the
environment and every span, go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import metrics
import ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The tail is the highest percentile with ten samples beyond it; from 21
# ops on it lies above the median (with 12 ops it was the 17th percentile).
MIN_OPS = 21
SETUP_REPS = 5
IMPORTTIME_REPS = 3
SETUP_CODE = "import pdcmodes; pdcmodes.load_bundled_crystal()"


class Worker:
    """The lib-modes worker process: one JSON request and reply per line."""

    def __init__(self, ctx: ops.Context):
        self.log = open(ctx.new_dir("worker") / "log.txt", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ops.CHILD), "worker"], cwd=ctx.work,
            env=ctx.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, text=True)
        self._read()
        self.startup_s = time.perf_counter() - start
        self.peak_rss_mb = None

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("lib-modes worker exited unexpectedly")
        return json.loads(line)

    def call(self, **msg) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "exit"}) + "\n")
                self.proc.stdin.close()
            except (BrokenPipeError, ValueError):
                self.proc.kill()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6
            self.proc.stdout.close()
        self.log.close()


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Gauge:
    """Host-speed scale of timed jobs (see ops.py): a yardstick runs once
    before the first job and after every EVERY-th; the jobs in between get
    the yardstick's nominal time over the mean of the two runs around them.

    Every second job rather than every job leaves more of a run to the
    jobs; scales tracked the host about as well either way."""

    EVERY = 2

    def __init__(self, measure, nominal_s: float):
        self.measure = measure
        self.nominal_s = nominal_s
        self.samples = [measure()]
        self.pending: list[dict] = []

    def add(self, job: dict) -> None:
        self.pending.append(job)
        if len(self.pending) == self.EVERY:
            self.flush()

    def flush(self) -> None:
        """Scale the jobs added since the last yardstick run."""
        if not self.pending:
            return
        self.samples.append(self.measure())
        scale = 2 * self.nominal_s / sum(self.samples[-2:])
        for job in self.pending:
            job["scale"] = scale
        self.pending = []


def measure_setup(ctx: ops.Context, gauge: Gauge | None) -> list[dict]:
    """Set-up samples: each one's wall time and, with a gauge, its scale."""
    samples = []
    for _ in range(SETUP_REPS):
        rc, wall, _ = ops.spawn([sys.executable, "-c", SETUP_CODE], ctx,
                                ctx.work, ctx.work / "setup.log")
        if rc != 0:
            raise RuntimeError(f"set-up probe failed: {(ctx.work / 'setup.log').read_text()}")
        samples.append({"wall_s": wall})
        if gauge is not None:
            gauge.add(samples[-1])
    if gauge is not None:
        gauge.flush()
    return samples


def measure_imports(ctx: ops.Context) -> dict:
    runs = []
    for _ in range(IMPORTTIME_REPS):
        log = ctx.work / "importtime.log"
        ops.spawn([sys.executable, "-X", "importtime", "-c", "import pdcmodes"],
                  ctx, ctx.work, log)
        runs.append(metrics.parse_importtime(log.read_text()))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def reference_artifacts(refs: list[dict], ctx: ops.Context) -> tuple[list[str], dict, dict]:
    """Run reference ops in one process; return the invariant failures, the
    child's environment and each op's sha256s."""
    gate_dir = ctx.new_dir("gate")
    argv = [sys.executable, str(ops.CHILD), "gate", str(gate_dir / "reply.json")]
    for i, op in enumerate(refs):
        config = gate_dir / f"{i}.yaml"
        config.write_text(op["yaml"], encoding="utf-8")
        argv += ["--", *op["args"], "--config", str(config),
                 "--out", str(gate_dir / f"out{i}")]
    rc, _, _ = ops.spawn(argv, ctx, gate_dir, gate_dir / "log.txt")
    if rc != 0:
        return [f"gate: process exited {rc}"], {}, {}
    reply = checks.load_json(gate_dir / "reply.json")
    problems, hashes = [], {}
    for i, (op, op_rc) in enumerate(zip(refs, reply["rcs"])):
        out = gate_dir / f"out{i}"
        reason = f"exit {op_rc}" if op_rc else checks.check_artifacts(out, op["expect"])
        if reason:
            problems.append(f"{op['kind']}: {reason}")
        hashes[op["kind"]] = checks.sha256_files(out) if out.is_dir() else {}
    shutil.rmtree(gate_dir)
    return problems, reply["env"], hashes


def cli_gate(workload: str, seed: int, ctx: ops.Context) -> tuple[list[str], dict]:
    """Reference artifacts against the recorded golden hashes."""
    problems, env, hashes = reference_artifacts(ops.gate_ops(workload, seed), ctx)
    want = checks.golden()
    for kind, got in hashes.items():
        problems += checks.compare_hashes(kind, got, want)
    return problems, env


def min_cycles(workload: str, trace: bool) -> int:
    """Fewest whole cycles in a run: at least MIN_OPS ops, and one untraced
    and one traced cycle when traced."""
    per_cycle = len(ops.WORKLOADS[workload]) * len(ops.DESIGNS)
    return max(-(-MIN_OPS // per_cycle), 2 if trace else 1)


def run_cycles(stream: ops.OpStream, seconds: float, least: int, trace: bool,
               run_op, gauge: Gauge | None) -> list[dict]:
    """Run whole cycles while one more, as long as the last, would end
    within ``seconds``; traced runs alternate untraced and traced cycles and
    end on a traced one.

    The deadline holds the run time, not the op count, so a slow phase of a
    shared host costs samples instead of stretching the run. With a gauge,
    each op gets the host-speed scale of its time.
    """
    results: list[dict] = []
    start = time.perf_counter()
    index = 0
    last = 0.0
    fatal = False
    while not fatal and (index < least or (trace and index % 2 == 1)
                         or time.perf_counter() - start + last <= seconds):
        traced = trace and index % 2 == 1
        began = time.perf_counter()
        for op in stream.cycle():
            result = run_op(op, traced)
            result["inputs"] = {k: op[k] for k in ("temperature_c", "bandwidth_fwhm_nm",
                                                   "target_um")}
            results.append(result)
            if gauge is not None:
                gauge.add(result)
            fatal = bool(result.get("fatal"))
            if fatal:
                break
        last = time.perf_counter() - began
        index += 1
    if gauge is not None:
        gauge.flush()
    return results


def run_workload(workload: str, args, ctx: ops.Context) -> dict:
    report = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "commit": git_commit(ROOT), "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)), "gate_problems": []}
    worker = None
    try:
        report["setup"] = measure_setup(ctx, None if args.trace else Gauge(
            lambda: ops.yardstick(ctx), ops.YARDSTICK_NOMINAL_S))
        if workload == "lib-modes":
            worker = Worker(ctx)
            report["env"] = worker.call(cmd="env")
            gate = worker.call(cmd="gate")
            problems = gate["problems"] + checks.compare_acceptance(gate["values"])
            report["reference"] = gate["values"]
            report["gate_ops"] = len(gate["values"])

            def run_op(op, traced):
                try:
                    reply = worker.call(cmd="op", op=op, traced=traced)
                except RuntimeError as exc:
                    reply = {"wall_s": 0.0, "cpu_s": 0.0, "reason": str(exc), "fatal": True}
                reply.update(kind=op["kind"], traced=traced, ok=reply["reason"] is None)
                return reply
        else:
            problems, report["env"] = cli_gate(workload, args.seed, ctx)
            report["gate_ops"] = len(ops.WORKLOADS[workload])

            def run_op(op, traced):
                return ops.run_cli_op(op, ctx, traced=traced)
        report["gate_problems"] = problems
        if problems:
            return report
        gauge = None
        if not args.trace:
            gauge = (Gauge(lambda: worker.call(cmd="yardstick")["wall_s"],
                           ops.LIB_YARDSTICK_NOMINAL_S) if worker is not None else
                     Gauge(lambda: ops.yardstick(ctx), ops.YARDSTICK_NOMINAL_S))
            report["yardstick_s"] = gauge.samples
            report["yardstick_nominal_s"] = gauge.nominal_s
        report["ops"] = run_cycles(ops.OpStream(workload, args.seed), args.seconds,
                                   min_cycles(workload, bool(args.trace)),
                                   bool(args.trace), run_op, gauge)
        if worker is not None:
            report["worker_startup_s"] = worker.startup_s
            worker.close()
            report["peak_rss_mb"] = worker.peak_rss_mb
        else:
            report["peak_rss_mb"] = metrics.peak_rss(report["ops"])
        if args.trace:
            report["probes"] = ([] if workload == "lib-modes" else
                                alloc_probes(workload, args.seed, ctx))
            report["imports"] = measure_imports(ctx)
            sweeper = Worker(ctx)
            try:
                report["sweep"] = sweeper.call(cmd="sweep")
            finally:
                sweeper.close()
    except RuntimeError as exc:
        report["gate_problems"].append(f"harness: {exc}")
        report.pop("ops", None)
    finally:
        if worker is not None:
            worker.close()
    return report


def alloc_probes(workload: str, seed: int, ctx: ops.Context) -> list[dict]:
    """One tracemalloc probe per command and format of the workload, untimed."""
    stream = ops.OpStream(workload, seed + 1)
    probes, seen = [], set()
    for op in stream.cycle():
        if (op["command"], op["format"]) in seen:
            continue
        seen.add((op["command"], op["format"]))
        probes.append(ops.run_cli_op(op, ctx, alloc=True))
    return probes


def summarize(report: dict) -> None:
    """Attach the metric values and the verdict to a finished report."""
    results = report.get("ops", [])
    # a gate problem reads "<reference op>: <reason>"; count failed ops, not reasons
    gate_failed = len({p.split(":", 1)[0] for p in report["gate_problems"]})
    report["attempted"] = len(results) or max(report.get("gate_ops", 1), gate_failed)
    report["failed"] = (sum(not r["ok"] for r in results) if results
                        else max(gate_failed, 1))
    report["correct"] = not report["gate_problems"] and bool(results) and report["failed"] == 0
    timed = [r for r in results if not r.get("fatal")]
    traced = [r for r in timed if r["traced"]]
    untraced = [r for r in timed if not r["traced"]]
    if not timed or (report["trace"] and not (traced and untraced)):
        report["metrics"] = {}
    elif report["trace"]:
        report["metrics"] = metrics.layers(
            traced, untraced, report.get("worker_startup_s"), report["imports"],
            report["sweep"], report["probes"])
    else:
        report["metrics"] = metrics.e2e(report["setup"], results, report["peak_rss_mb"])
        report["metrics"]["yardstick_s"] = statistics.median(report["yardstick_s"])
        report["metrics"]["yardstick_nominal_s"] = report["yardstick_nominal_s"]


def print_e2e(reports: list[dict]) -> None:
    cols = [*metrics.E2E, "failed_frac"]
    units = {**metrics.E2E, "failed_frac": "ratio"}
    print("workload     " + " ".join(f"{c + ' (' + units[c] + ')':>20}" for c in cols)
          + "   tail at")
    for rep in reports:
        m = rep["metrics"]
        if not m:
            print(f"{rep['workload']:<12} no timed ops: {'; '.join(rep['gate_problems'])}")
            continue
        print(f"{rep['workload']:<12} " + " ".join(f"{m[c]:>20.6g}" for c in cols)
              + f"   p{m['op_tail_pct']:.1f} of {m['op_count']} ops")
    for rep in reports:
        m = rep["metrics"]
        if m:
            print(f"{rep['workload']} unscaled: setup_s {m['setup_raw_s']:.6g} s, "
                  f"op_p50_s {m['op_p50_raw_s']:.6g} s; yardstick median "
                  f"{m['yardstick_s']:.6g} s (nominal {m['yardstick_nominal_s']} s)")


def print_layers(reports: list[dict]) -> None:
    for rep in reports:
        m = rep["metrics"]
        print(f"per-layer metrics, {rep['workload']} (per traced op):")
        for name, unit in metrics.PER_LAYER.items():
            if name in m:
                print(f"  {name:<36} {m[name]:>14.6g} {unit}")
        if m:
            print(f"  layer self times + start-up = {m['layer_sum_s']:.4f} s/op; "
                  f"untraced op = {m['untraced_op_s']:.4f} s/op "
                  f"(difference {m['layer_sum_s'] / m['untraced_op_s'] - 1:+.2%}, "
                  f"trace overhead {m['trace.overhead_frac']:+.2%})")
        missing = sorted({name for r in rep.get("ops", []) if r.get("trace")
                          for name in r["trace"].get("missing", [])})
        if missing:
            print(f"  traced names missing from the package: {', '.join(missing)}")


def write_record(report: dict) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    (out / name).write_text(json.dumps(report, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*ops.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pdcmodes" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'pdcmodes'}; "
              "run inside a checkout of the repository", file=sys.stderr)
        return 2
    ctx = ops.Context(src, ROOT / ".bench_work" / str(os.getpid()))
    workloads = list(ops.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    try:
        for workload in workloads:
            report = run_workload(workload, args, ctx)
            summarize(report)
            write_record(report)
            reports.append(report)
    finally:
        ctx.close()

    env = reports[0].get("env", {})
    print("env: " + json.dumps({k: reports[0][k] for k in ("commit", "nproc", "affinity")}
                               | env | {"seed": args.seed}))
    for rep in reports:
        for problem in rep["gate_problems"]:
            print(f"gate failed [{rep['workload']}]: {problem}")
        for r in rep.get("ops", []):
            if not r["ok"]:
                print(f"op failed [{rep['workload']}] {r['kind']}: {r['reason']}")
    (print_layers if args.trace else print_e2e)(reports)

    names = metrics.PER_LAYER if args.trace else metrics.E2E
    single = len(reports) == 1

    def key(rep, name):
        return name if single else f"{rep['workload']}.{name}"
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {key(rep, name): {"value": rep["metrics"][name], "unit": unit}
                    for rep in reports if rep["metrics"]
                    for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
