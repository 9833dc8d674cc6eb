#!/usr/bin/env python3
"""Runs the benchmark's own tests from the repository root:

    python3 perfbench/selftest.py

Builds and runs perfbench_selftest (tail-percentile rule, nearest-rank
percentiles, span self time) and then the Python tests of the output
parsing, the spread statistics and BENCHMARK.json's shape.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402


def main():
    binary = bench.build(os.getcwd(), target="perfbench_selftest")
    if subprocess.run([binary], check=False).returncode != 0:
        return 1
    suite = unittest.defaultTestLoader.discover(os.path.join(HERE, "tests"))
    result = unittest.TextTestRunner(verbosity=1).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
