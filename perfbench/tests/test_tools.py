"""Tests of the benchmark's Python side: parsing the program's report,
building the result line, the spread statistics, and the shape of
BENCHMARK.json. Run with: python3 -m unittest discover perfbench/tests
(or python3 perfbench/selftest.py, which also runs the C++ checks)."""

import contextlib
import io
import json
import os
import re
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run as bench  # noqa: E402
import steady  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "wal.syncs_per_mutation", "unit": "count", "better": "lower"},
        {"name": "result_cache.hit_ratio", "unit": "ratio", "better": "higher"},
    ],
}


def report(**metrics):
    return {
        "workload": "serve_journeys", "correct": True, "attempted": 10,
        "failed": 0, "gate_checked": 2, "mismatches": 0,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
        "roles": {"primary": "journey"},
        "tails": {}, "errors": [],
    }


class ParseReport(unittest.TestCase):
    def test_takes_the_last_nonempty_line(self):
        r = bench.parse_report('noise\n{"x": 1}\n' + json.dumps(report()) + "\n\n")
        self.assertEqual(r["attempted"], 10)

    def test_rejects_non_json_and_missing_keys(self):
        with self.assertRaises(bench.BenchError):
            bench.parse_report("not json\n")
        with self.assertRaises(bench.BenchError):
            bench.parse_report('{"correct": true}\n')
        with self.assertRaises(bench.BenchError):
            bench.parse_report("")


class ResultLine(unittest.TestCase):
    def test_end_to_end_metrics_in_spec_order(self):
        result, missing = bench.result_line(
            report(setup_s=(0.5, "s"), ops_per_s=(100.25, "1/s"), extra=(1, "us")),
            SPEC, trace=False)
        self.assertEqual(list(result["metrics"]), ["setup_s", "ops_per_s"])
        self.assertEqual(result["metrics"]["ops_per_s"], {"value": 100.25, "unit": "1/s"})
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(missing, [])

    def test_missing_end_to_end_metric_is_an_error(self):
        with self.assertRaises(bench.BenchError):
            bench.result_line(report(setup_s=(0.5, "s")), SPEC, trace=False)

    def test_unexercised_layer_reads_zero_and_is_named(self):
        result, missing = bench.result_line(
            report(**{"result_cache.hit_ratio": (0.7, "ratio")}), SPEC, trace=True)
        self.assertEqual(result["metrics"]["wal.syncs_per_mutation"]["value"], 0)
        self.assertEqual(missing, ["wal.syncs_per_mutation"])

    def test_unit_mismatch_and_non_finite_values_are_errors(self):
        with self.assertRaises(bench.BenchError):
            bench.result_line(report(setup_s=(0.5, "ms"), ops_per_s=(1, "1/s")),
                              SPEC, trace=False)
        with self.assertRaises(bench.BenchError):
            bench.result_line(report(setup_s=(float("inf"), "s"), ops_per_s=(1, "1/s")),
                              SPEC, trace=False)
        with self.assertRaises(bench.BenchError):
            bench.result_line(report(setup_s=(None, "s"), ops_per_s=(1, "1/s")),
                              SPEC, trace=False)

    def test_failed_ops_are_carried(self):
        r = report(setup_s=(0.5, "s"), ops_per_s=(1, "1/s"))
        r.update(correct=False, failed=3)
        result, _ = bench.result_line(r, SPEC, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 3)


class ParseOutput(unittest.TestCase):
    def test_round_trip_of_printed_output(self):
        r = report(setup_s=(0.5, "s"), ops_per_s=(1.5, "1/s"))
        result, missing = bench.result_line(r, SPEC, trace=False)
        lines = list(bench.summary_lines(r, missing))
        lines.append(bench.DETAIL_PREFIX + json.dumps({"exact": {"wal.syncs": 9}}))
        lines.append(json.dumps(result))
        detail, parsed = bench.parse_output("\n".join(lines) + "\n")
        self.assertEqual(detail["exact"]["wal.syncs"], 9)
        self.assertEqual(parsed, result)
        self.assertTrue(any("ops_per_s = 1.5 1/s" in ln for ln in lines))


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3]
        med, q1, q3, share = steady.spread(values)
        want_q1, _, want_q3 = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (want_q1, want_q3))
        self.assertAlmostEqual(share, (want_q3 - want_q1) / statistics.median(values))
        self.assertEqual(med, statistics.median(values))

    def test_verdicts(self):
        self.assertEqual(steady.verdict(0.02, 0.1), "steady")
        self.assertEqual(steady.verdict(0.05, 0.1), "within")
        self.assertEqual(steady.verdict(0.2, 0.1), "TOO WIDE")

    def test_setup_s_is_held_to_its_bound(self):
        runs = [{"result": {"metrics": {
            "setup_s": {"value": v, "unit": "s"},
            "ops_per_s": {"value": 100.0, "unit": "1/s"}}}}
            for v in (0.3, 0.5, 0.3, 0.5, 0.3, 0.5, 0.3, 0.5)]
        with contextlib.redirect_stdout(io.StringIO()):
            wide = steady.report_spread(runs, SPEC)
        self.assertEqual(wide, 1)

    def test_median_shift_counts_both_ways(self):
        self.assertEqual(steady.shift_verdict(0.05, 0.1), "ok")
        self.assertEqual(steady.shift_verdict(-0.05, 0.1), "ok")
        self.assertEqual(steady.shift_verdict(-0.3, 0.1), "DISAGREE")
        self.assertEqual(steady.shift_verdict(0.3, 0.1), "DISAGREE")


class BenchmarkJson(unittest.TestCase):
    """BENCHMARK.json keeps the shape and limits its format fixes."""

    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            self.spec = json.load(f)

    def test_keys_and_limits(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertIn(w["name"], bench.WORKLOADS)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], unit)
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], unit)

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))

    def test_command_stays_inside_paths(self):
        s = self.spec
        self.assertEqual(s["paths"], ["perfbench"])
        for arg in s["command"][1:]:
            self.assertFalse(arg.startswith("/") or ".." in arg)
            if "/" in arg:
                self.assertTrue(any(arg.startswith(p + "/") for p in s["paths"]))


if __name__ == "__main__":
    unittest.main()
