#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. Builds the benchmark program (and the
repository's tvg library it links) with CMake under the build directory
(``$CARGO_TARGET_DIR``, default ``.bench_build``), runs one seeded
workload, checks the program's report and prints, as the last line of
standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the ``end_to_end`` ones of BENCHMARK.json, with ``--trace 1`` the
``per_layer`` ones. The line before it, prefixed ``perfbench-detail``,
carries the exact counts, the tail percentiles with their sample counts,
per-class op counts and the run's settings.

Exit status: 0 when the run passed its correctness gate with no failed
op, 1 when it did not (the result line is still printed), 2 when the
benchmark could not build or run (no result line).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_journeys", "analytics_sweep", "live_schedule")
RUN_TIMEOUT_S = 170
DETAIL_PREFIX = "perfbench-detail "


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def build(root, target="perfbench_run"):
    """Configures (once) and builds `target`; returns the binary's path."""
    out = build_dir(root)
    cache = os.path.join(out, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", target])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    binary = os.path.join(out, target)
    if not os.path.exists(binary):
        raise BenchError(f"build produced no {binary}")
    return binary


def parse_report(stdout):
    """The program's report: the last non-empty line of its output."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("benchmark program printed no report")
    try:
        report = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"report is not JSON: {e}") from e
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in report:
            raise BenchError(f"report lacks {key!r}")
    return report


def result_line(report, spec, trace):
    """The benchmark's result object for one run.

    Every metric BENCHMARK.json lists for the mode is included. An
    end-to-end metric the program did not report is an error. A per-layer
    metric of a layer this workload does not exercise (say the WAL in
    serve_journeys) is reported as 0 and named in ``not_exercised``.
    """
    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for m in names:
        got = report["metrics"].get(m["name"])
        if got is None or got.get("value") is None:
            if not trace:
                raise BenchError(f"program did not report {m['name']}")
            missing.append(m["name"])
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            continue
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"{m['name']} is not a finite number")
        if got.get("unit") != m["unit"]:
            raise BenchError(f"{m['name']} has unit {got.get('unit')!r}, "
                             f"BENCHMARK.json says {m['unit']!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    if result["attempted"] < 1:
        raise BenchError("program attempted no ops")
    return result, missing


def parse_output(stdout):
    """Splits run.py's own output into (detail, result) dicts."""
    detail = None
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    for ln in lines:
        if ln.startswith(DETAIL_PREFIX):
            detail = json.loads(ln[len(DETAIL_PREFIX):])
    if not lines:
        raise BenchError("no output")
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise BenchError(f"result line lacks {key!r}")
    return detail, result


def summary_lines(report, missing):
    yield (f"workload {report.get('workload')}: correct={report['correct']} "
           f"attempted={report['attempted']} failed={report['failed']} "
           f"oracle checks={report.get('gate_checked', 0)} "
           f"mismatches={report.get('mismatches', 0)}")
    for role, op_class in sorted(report.get("roles", {}).items()):
        yield f"  {role} = {op_class}"
    tails = report.get("tails", {})
    for name, m in sorted(report["metrics"].items()):
        extra = ""
        if name in tails:
            t = tails[name]
            extra = (f"  (p{t['quantile'] * 100:g} of {t['samples']} samples, "
                     f"{t['beyond']} beyond)")
        yield f"  {name} = {m['value']:.6g} {m['unit']}{extra}"
    for name in missing:
        yield f"  {name} = 0 (layer not exercised by this workload)"
    for err in report.get("errors", []):
        yield f"  error: {err}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    try:
        spec = load_spec(root)
        binary = build(root)
        out_dir = os.path.join(build_dir(root), "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=root, capture_output=True,
                                  text=True, timeout=RUN_TIMEOUT_S,
                                  check=False)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"program exceeded {RUN_TIMEOUT_S} s") from e
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"program exited with {proc.returncode}")
        report = parse_report(proc.stdout)
        result, missing = result_line(report, spec, args.trace == 1)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    for line in summary_lines(report, missing):
        print(line)
    print(f"  program wall time {time.monotonic() - started:.1f} s")
    detail = {k: report.get(k) for k in ("workload", "roles", "tails", "classes",
                                         "exact", "inexact", "config", "spans",
                                         "gate_checked", "mismatches",
                                         "errors")}
    detail["seed"] = args.seed
    detail["trace"] = args.trace
    detail["not_exercised"] = missing
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
