#!/usr/bin/env python3
"""Steadiness and replay checks for the repo benchmark.

Run from the repository root:

  # N runs of a workload, one seed each; per end-to-end metric: median,
  # quartiles and spread (Q3 - Q1) / median against the metric's bound.
  python3 perfbench/steady.py spread --workload live_schedule --runs 10 \
      [--seed0 1] [--seconds 10] [--save runs.json]

  # Compare the medians of two saved sets of runs against the bounds:
  # a shift either way beyond a metric's bound fails, so two sets of the
  # same code must agree. The shift is signed, positive = worse.
  python3 perfbench/steady.py compare first.json second.json

  # Run one seed twice and require every exact count to repeat.
  python3 perfbench/steady.py replay --workload live_schedule --seed 7

A spread below a third of the bound is reported "steady", below the
bound "within", otherwise "TOO WIDE" (exit status 1). Every end-to-end
metric, setup_s included, is held to its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402  (run.py beside this file)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    detail, result = bench.parse_output(proc.stdout)
    return detail, result


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(share, bound):
    if share < bound / 3:
        return "steady"
    return "within" if share <= bound else "TOO WIDE"


def cmd_spread(args, spec):
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        detail, result = run_once(args.workload, seed, args.seconds)
        runs.append({"seed": seed, "result": result, "detail": detail})
        ok = result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={ok} attempted={result['attempted']}",
              flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "runs": runs}, f, indent=1)
    wide = report_spread(runs, spec)
    bad = sum(1 for r in runs
              if not r["result"]["correct"] or r["result"]["failed"])
    if bad:
        print(f"{bad} run(s) failed their correctness gate")
    return 1 if wide or bad else 0


def report_spread(runs, spec):
    wide = 0
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med, q1, q3, share = spread(values)
        v = verdict(share, m["bound"])
        wide += v == "TOO WIDE"
        print(f"{m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{share:>8.4f} {m['bound']:>6}  {v}")
    return wide


def shift_verdict(shift, bound):
    """Verdict on a median shift: a shift either way counts."""
    return "ok" if abs(shift) <= bound else "DISAGREE"


def cmd_compare(args, spec):
    sets = []
    for path in (args.first, args.second):
        with open(path, encoding="utf-8") as f:
            sets.append(json.load(f))
    bad = 0
    print(f"{'metric':<20} {'median 1':>12} {'median 2':>12} {'shift':>8} "
          f"{'bound':>6}  verdict (shift > 0 is worse)")
    for m in spec["end_to_end"]:
        meds = [statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                  for r in s["runs"]) for s in sets]
        shift = (meds[1] - meds[0]) / meds[0]
        if m["better"] == "higher":
            shift = -shift
        v = shift_verdict(shift, m["bound"])
        bad += v != "ok"
        print(f"{m['name']:<20} {meds[0]:>12.6g} {meds[1]:>12.6g} "
              f"{shift:>8.4f} {m['bound']:>6}  {v}")
    return 1 if bad else 0


def cmd_replay(args, _spec):
    first, r1 = run_once(args.workload, args.seed, args.seconds)
    second, r2 = run_once(args.workload, args.seed, args.seconds)
    differ = 0
    print(f"exact counts of {args.workload} at seed {args.seed} "
          "(must repeat exactly):")
    for name in sorted(set(first["exact"]) | set(second["exact"])):
        a = first["exact"].get(name)
        b = second["exact"].get(name)
        same = a == b
        differ += not same
        print(f"  {name:<32} {a!s:>14} {b!s:>14}  {'same' if same else 'DIFFERENT'}")
    for name in ("attempted", "failed"):
        same = r1[name] == r2[name]
        differ += not same
        print(f"  {name:<32} {r1[name]!s:>14} {r2[name]!s:>14}  "
              f"{'same' if same else 'DIFFERENT'}")
    print("not exact (thread timing decides them; reported, never compared):")
    for name in sorted(first["inexact"]):
        print(f"  {name:<32} {first['inexact'][name]!s:>14} "
              f"{second['inexact'].get(name)!s:>14}")
    if not first["inexact"]:
        print("  (none in this workload)")
    return 1 if differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--seed0", type=int, default=1)
    sp.add_argument("--seconds", type=int)
    sp.add_argument("--save")
    cp = sub.add_parser("compare")
    cp.add_argument("first")
    cp.add_argument("second")
    rp = sub.add_parser("replay")
    rp.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    rp.add_argument("--seed", type=int, default=1)
    rp.add_argument("--seconds", type=int)
    args = ap.parse_args(argv)
    spec = bench.load_spec(os.getcwd())
    if getattr(args, "seconds", None) is None and args.cmd != "compare":
        args.seconds = spec["run_seconds"]
    return {"spread": cmd_spread, "compare": cmd_compare,
            "replay": cmd_replay}[args.cmd](args, spec)


if __name__ == "__main__":
    sys.exit(main())
