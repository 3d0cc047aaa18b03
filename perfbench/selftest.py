"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They check the harness's own arithmetic and bookkeeping, not pdcmodes, and
are kept out of the repository's pytest suite on purpose (the file name
does not match ``test_*.py``). Two tests start one short CLI process each.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import metrics
import ops
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORK.mkdir(exist_ok=True)
sys.path.insert(0, str(ROOT / "src"))


class PercentileRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct, count = metrics.tail([float(x) for x in range(20, 0, -1)])
        self.assertEqual((value, pct, count), (10.0, 50.0, 20))

    def test_smallest_sample_count_with_a_percentile(self):
        value, pct, count = metrics.tail([float(x) for x in range(1, 12)])
        self.assertEqual((value, count), (1.0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_highest_qualifying_percentile(self):
        values = [float(x) for x in range(1, 101)]
        value, pct, count = metrics.tail(values)
        self.assertEqual((value, pct, count), (90.0, 90.0, 100))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_too_few_samples_reports_the_maximum(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))


class SelfTime(unittest.TestCase):
    # root [0, 10] ← b [1, 4], c [5, 9] ← d [6, 7]
    SPANS = [["cli.main", "cli", 0.0, 10.0, None],
             ["config.load_run_config", "config", 1.0, 4.0, 0],
             ["squeezing.squeezing_spectrum", "squeezing", 5.0, 9.0, 0],
             ["jsa.compute_jsa", "jsa", 6.0, 7.0, 2]]

    def test_self_times(self):
        self.assertEqual(spans.self_times(self.SPANS), [3.0, 3.0, 3.0, 1.0])

    def test_self_times_sum_to_root(self):
        agg = spans.aggregate(self.SPANS)
        self.assertEqual(sum(agg["layer_self_s"].values()), agg["root_s"]["cli.main"])
        self.assertEqual(agg["layer_self_s"], {"cli": 3.0, "config": 3.0,
                                               "squeezing": 3.0, "jsa": 1.0})

    def test_same_layer_nesting(self):
        nested = [["dispersion.group_index", "dispersion", 0.0, 5.0, None],
                  ["dispersion.k_prime", "dispersion", 1.0, 4.0, 0]]
        self.assertEqual(spans.aggregate(nested)["layer_self_s"], {"dispersion": 5.0})

    def test_solver_gap_evals_need_a_solver_ancestor(self):
        trace = [["phasematch.solve_cgvm", "phasematch", 0.0, 9.0, None],
                 ["dispersion.group_index", "dispersion", 1.0, 2.0, 0],
                 ["dispersion.group_index", "dispersion", 2.0, 3.0, 0],
                 ["dispersion.group_index", "dispersion", 10.0, 11.0, None]]
        self.assertEqual(metrics.solver_gap_evals(trace), 2)


class Tracer(unittest.TestCase):
    def test_rebinds_names_imported_by_value(self):
        import pdcmodes.cli
        import pdcmodes.config
        original = pdcmodes.config.load_run_config
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(pdcmodes.cli.load_run_config, original)
            self.assertIs(pdcmodes.cli.load_run_config, pdcmodes.config.load_run_config)
            self.assertIsNot(pdcmodes.config.load_bundled_crystal.__wrapped__, None)
            pdcmodes.cli.load_run_config(None)
        finally:
            tracer.uninstall()
        self.assertIs(pdcmodes.cli.load_run_config, original)
        self.assertEqual([s[0] for s in tracer.spans], ["config.load_run_config"])
        self.assertEqual(tracer.counters["config.calls"], 1)

    def test_missing_name_is_reported(self):
        import pdcmodes.jsa
        saved = pdcmodes.jsa.__all__
        pdcmodes.jsa.__all__ = [*saved, "no_such_function"]
        tracer = spans.Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
            pdcmodes.jsa.__all__ = saved
        self.assertEqual(tracer.missing, ["jsa.no_such_function"])


class FailedOps(unittest.TestCase):
    def setUp(self):
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
        self.ctx = ops.Context(ROOT / "src", self.work)

    def tearDown(self):
        self.ctx.close()

    def test_malformed_config_and_missing_artifact_fail_one_op_each(self):
        malformed, missing = (next(op for op in ops.reference_ops("cli-design")
                                   if op["command"] == "poling") for _ in range(2))
        malformed["yaml"] = "pdc:\n  type: type-I\n"
        missing["expect"].append("absent.json")
        results = [ops.run_cli_op(op, self.ctx) for op in (malformed, missing)]
        self.assertTrue(results[0]["reason"].startswith("exit 3"), results[0]["reason"])
        self.assertEqual(results[1]["reason"], "missing artifact absent.json")
        summary = metrics.e2e([{"wall_s": 1.0}], results, 1.0)
        self.assertEqual(summary["failed_frac"], 1.0)
        self.assertEqual(sum(not r["ok"] for r in results), 2)


class ArtifactChecks(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_non_finite_csv_cell(self):
        (self.dir / "a.csv").write_text("1,2\nnan,3\n")
        self.assertIn("non-finite", checks.check_artifacts(self.dir, ["a.csv"]))

    def test_schmidt_number_below_one(self):
        (self.dir / "scan.csv").write_text("l_mm,k\n10,0.5\n")
        self.assertIn("Schmidt number", checks.check_artifacts(self.dir, ["scan.csv"]))

    def test_unnormalized_spectrum(self):
        (self.dir / "m.json").write_text(json.dumps({"schmidt_number": 2.0,
                                                     "s": [0.8, 0.6 + 1e-9]}))
        self.assertIn("sum of s^2", checks.check_artifacts(self.dir, ["m.json"]))

    def test_valid_artifacts(self):
        (self.dir / "m.json").write_text(json.dumps({"schmidt_number": 2.0,
                                                     "s": [0.8, 0.6]}))
        (self.dir / "d.csv").write_text("lambda_um,axis,n\n0.6,o,2.2\n")
        self.assertIsNone(checks.check_artifacts(self.dir, ["m.json", "d.csv"]))


class Workloads(unittest.TestCase):
    def test_seed_fixes_the_ops(self):
        a, b = ops.OpStream("cli-design", 7), ops.OpStream("cli-design", 7)
        self.assertEqual(a.cycle() + a.cycle(), b.cycle() + b.cycle())

    def test_cycles_hold_every_kind_and_never_repeat_inputs(self):
        stream = ops.OpStream("cli-design", 3)
        seen = set()
        for _ in range(5):
            cycle = stream.cycle()
            self.assertEqual(sorted(op["kind"] for op in cycle),
                             sorted(op["kind"] for op in ops.reference_ops("cli-design")))
            for op in cycle:
                key = (op["kind"], op["yaml"], tuple(op["args"]))
                self.assertNotIn(key, seen)
                seen.add(key)
                base = ops.DESIGNS[op["design"]]["temperature_c"]
                self.assertLessEqual(abs(op["temperature_c"] - base), 0.5)
                self.assertLessEqual(abs(op["bandwidth_fwhm_nm"] / 4.0 - 1.0), 0.05)
                self.assertTrue(1.54 <= op["target_um"] <= 1.56)


class Definitions(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, metrics.E2E)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.PER_LAYER)
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(ops.WORKLOADS))

    def test_importtime_parsing(self):
        text = ("import time: self [us] | cumulative | imported package\n"
                "import time:       120 |        300 |   yaml\n"
                "import time:       853 |     751592 | pdcmodes\n")
        found = metrics.parse_importtime(text)
        self.assertEqual(found["import.total_s"], 0.751592)
        self.assertEqual(found["import.yaml_s"], 0.0003)
        self.assertEqual(found["import.scipy_optimize_s"], 0.0)


def tearDownModule():
    try:
        WORK.rmdir()
    except OSError:
        pass                            # a benchmark run is using it


if __name__ == "__main__":
    unittest.main()
