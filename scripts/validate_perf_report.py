#!/usr/bin/env python3
"""Validates the JSON emitted by bench/perf_report (schema
hedra-perf-report-v3; the v1 and v2 schemas of the committed baselines are
still accepted).  CI runs `perf_report --quick --out <file>` and then this
script, so the benchmark harness can't silently rot.

Usage: validate_perf_report.py <report.json> [--expect-benchmarks N]
                               [--require-kernel NAME]...

--require-kernel fails the validation unless a benchmark with that exact
name is present — CI uses it to pin the kernels a PR promises (e.g. the
fig12_sweep taskset kernel) in both the quick run and the committed
baseline.

From v3 on, every exact-solver kernel (name starting "bnb_") must carry
an "unproven" counter: a budget-exhausting instance spends the whole node
budget, so a bnb time means little without the count of instances left
unproven.
"""

import json
import sys

# v1 reports are single-threaded by construction; v2 (PR 6) replaces the
# "single_threaded" flag with the worker-thread count used by the parallel
# kernels plus the machine's hardware concurrency.  v3 keeps the v2 keys
# and requires the bnb counters below.
REQUIRED_TOP = {
    "hedra-perf-report-v1": {"schema", "quick", "single_threaded",
                             "benchmarks"},
    "hedra-perf-report-v2": {"schema", "quick", "jobs",
                             "hardware_concurrency", "benchmarks"},
    "hedra-perf-report-v3": {"schema", "quick", "jobs",
                             "hardware_concurrency", "benchmarks"},
}
REQUIRED_BENCH = {"name", "unit", "value", "iterations"}
KNOWN_UNITS = {"ms", "us_per_sim", "us_per_dag", "us_per_decision"}
BNB_PREFIX = "bnb_"
BNB_REQUIRED_COUNTERS = {"unproven"}
BNB_COUNTER_SCHEMAS = {"hedra-perf-report-v3"}


def fail(message: str) -> None:
    print(f"validate_perf_report: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    if len(sys.argv) < 2:
        fail("usage: validate_perf_report.py <report.json>")
    path = sys.argv[1]
    expected = None
    if "--expect-benchmarks" in sys.argv:
        expected = int(sys.argv[sys.argv.index("--expect-benchmarks") + 1])
    required = [
        sys.argv[i + 1]
        for i, arg in enumerate(sys.argv)
        if arg == "--require-kernel"
    ]

    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)

    schema = report.get("schema")
    if schema not in REQUIRED_TOP:
        fail(f"unexpected schema {schema!r}")
    missing = REQUIRED_TOP[schema] - report.keys()
    if missing:
        fail(f"missing top-level keys: {sorted(missing)}")
    if not isinstance(report["quick"], bool):
        fail("'quick' must be a boolean")
    if schema == "hedra-perf-report-v1":
        if report["single_threaded"] is not True:
            fail("v1 perf reports must be measured single-threaded")
    else:
        for key in ("jobs", "hardware_concurrency"):
            if not isinstance(report[key], int) or report[key] < 1:
                fail(f"{key!r} must be a positive integer")

    benchmarks = report["benchmarks"]
    if not isinstance(benchmarks, list) or not benchmarks:
        fail("'benchmarks' must be a non-empty list")
    names = set()
    for bench in benchmarks:
        missing = REQUIRED_BENCH - bench.keys()
        if missing:
            fail(f"benchmark {bench.get('name', '?')!r} missing {sorted(missing)}")
        if bench["name"] in names:
            fail(f"duplicate benchmark name {bench['name']!r}")
        names.add(bench["name"])
        if bench["unit"] not in KNOWN_UNITS:
            fail(f"benchmark {bench['name']!r} has unknown unit {bench['unit']!r}")
        if not isinstance(bench["value"], (int, float)) or bench["value"] < 0:
            fail(f"benchmark {bench['name']!r} has invalid value {bench['value']!r}")
        if not isinstance(bench["iterations"], int) or bench["iterations"] < 1:
            fail(f"benchmark {bench['name']!r} has invalid iterations")
        for key, value in bench.get("counters", {}).items():
            if not isinstance(value, (int, float)):
                fail(f"benchmark {bench['name']!r} counter {key!r} not numeric")
        if bench["name"].startswith(BNB_PREFIX) and schema in BNB_COUNTER_SCHEMAS:
            missing = BNB_REQUIRED_COUNTERS - bench.get("counters", {}).keys()
            if missing:
                fail(f"benchmark {bench['name']!r} missing counters {sorted(missing)}")
    if expected is not None and len(benchmarks) != expected:
        fail(f"expected {expected} benchmarks, found {len(benchmarks)}")
    for kernel in required:
        if kernel not in names:
            fail(f"required kernel {kernel!r} is missing")

    print(f"validate_perf_report: OK ({len(benchmarks)} benchmarks)")


if __name__ == "__main__":
    main()
