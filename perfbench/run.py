#!/usr/bin/env python3
"""Runs one workload of the hedra benchmark and prints its result.

    python3 perfbench/run.py --workload admit-host-1k --seed 71 --seconds 20 --trace 0

Run from the root of a checkout.  The first run configures and builds
libhedra, admissiond and the benchmark binary hedra_bench (perfbench/src,
perfbench/CMakeLists.txt) in $CARGO_TARGET_DIR, or .bench_build when it is
unset; later runs only rebuild what changed.  hedra_bench generates the
workload's inputs from the seed, measures for --seconds, checks the
program's outputs and writes a details file with the machine fingerprint.  This wrapper then
compares the checked outputs with the values recorded for the default and
held-out seeds in perfbench/expected.json and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1 (a layer the workload does not run reads
0).  Exits non-zero without a result when the build or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("admit-host-1k", "admit-contended", "sweep", "exact-fig7")
RUN_TIMEOUT_S = 170.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir: Path) -> None:
    """Configures (once) and builds hedra_bench and the daemon."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(build_dir), "--parallel", jobs,
                  "--target", "hedra_bench", "admissiond"])
    # The compiler's temporary files stay inside the checkout too.
    tmp_dir = build_dir / "tmp"
    tmp_dir.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)} (log: {log_path})")


def run_bench(cmd: list[str], timeout_s: float) -> str:
    """Runs hedra_bench in its own process group, so that a timeout also
    stops the daemons it started; returns its stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"hedra_bench exceeded {timeout_s:.0f} s")
    if proc.returncode != 0:
        fail(f"hedra_bench exited with status {proc.returncode}")
    return out


def check_expected(workload: str, seed: int, details: dict, result: dict) -> list[str]:
    """Compares the run's checked outputs with the recorded ones, when this
    seed has a record.  Returns the differences found."""
    record = json.loads((HERE / "expected.json").read_text())["workloads"][workload]
    expected = record["recorded"].get(str(seed))
    if expected is None:
        return []
    problems = []
    for key, want in expected.items():
        got = details.get(key)
        if key == "makespans":
            # A change may add proofs, never alter one.
            if len(got) != len(want):
                problems.append("makespans: corpus size changed")
                continue
            altered = [i for i, (g, w) in enumerate(zip(got, want)) if g >= 0 and w >= 0 and g != w]
            if altered:
                problems.append(f"makespans: proven makespan altered at instances {altered[:10]}")
        elif got != want:
            problems.append(f"{key}: got {got!r}, recorded {want!r}")
    if problems:
        result["failed"] += 1
        result["attempted"] += 1
    return problems


def select_metrics(result: dict, trace: bool) -> dict:
    """The metrics of BENCHMARK.json for this mode, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    selected = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"metric {name} measured in {measured[name]['unit']}, declared {unit}")
            selected[name] = measured[name]
        elif trace:
            selected[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not measured")
    return selected


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build(build_dir)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = build_dir / "work" / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    details_path = build_dir / "results" / f"{tag}.json"
    details_path.parent.mkdir(parents=True, exist_ok=True)
    details_path.unlink(missing_ok=True)
    cmd = [str(build_dir / "hedra_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--admissiond", str(build_dir / "admissiond"),
           "--work-dir", str(work_dir), "--details", str(details_path)]
    timeout_s = max(RUN_TIMEOUT_S - (time.monotonic() - started), 30.0)
    out = run_bench(cmd, timeout_s)
    lines = out.strip().splitlines()
    if not lines:
        fail("hedra_bench printed no result")
    result = json.loads(lines[-1])
    details = json.loads(details_path.read_text())
    # Keep the traced run's span exports next to its details file.
    for name in ("spans.json", "daemon_trace1.json"):
        if (work_dir / name).exists():
            shutil.copyfile(work_dir / name, details_path.with_name(f"{tag}-{name}"))
    shutil.rmtree(work_dir, ignore_errors=True)

    problems = check_expected(args.workload, args.seed, details, result)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result["correct"] = bool(result["correct"]) and not problems
    print(json.dumps({"fingerprint": details["fingerprint"], "details": str(details_path)}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": select_metrics(result, bool(args.trace))}))


if __name__ == "__main__":
    main()
