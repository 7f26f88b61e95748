#!/usr/bin/env python3
"""Same-machine A/B comparison of two hedra revisions on the perfbench workloads.

    python3 scripts/ab.py --base HEAD --change . --workload admit-contended \\
        --seed 73 --seed 74 --pairs 5 --seconds 10 --out-dir /tmp/hedra-ab

Each side is a git revision, checked out with `git archive` into its own
directory under --out-dir, or the path of an existing checkout (`.` is the
working tree, uncommitted edits included).  Each side builds perfbench in
its own build directory.  For every workload and seed the script then runs
`perfbench/run.py --trace 0` in pairs of one base and one change run, the
side that runs first alternating from pair to pair so that machine drift
favours neither.  It prints, for each end-to-end metric of BENCHMARK.json,
the median and q1-q3 of both sides, the change of the medians, and in how
many pairs the change was better.  A pair whose two runs report different machine
fingerprints is refused, naming the field that differs, and counts for
nothing.  Every run's result is written to <out-dir>/ab.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("admit-host-1k", "admit-contended", "sweep", "exact-fig7")
DEFAULT_SEEDS = {"admit-host-1k": 71, "admit-contended": 73, "sweep": 42, "exact-fig7": 42}


def fail(message: str) -> None:
    print(f"ab: {message}", file=sys.stderr)
    sys.exit(1)


def checkout(spec: str, label: str, out_dir: Path) -> Path:
    """The source tree of one side: an existing directory as it is, or a
    fresh `git archive` export of the revision `spec`."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    tree = out_dir / f"{label}-src"
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    with tempfile.TemporaryFile() as archive:
        if subprocess.run(["git", "-C", str(ROOT), "archive", spec], stdout=archive).returncode:
            fail(f"git archive {spec} failed")
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(tree, filter="data")
    return tree


def build(tree: Path, build_dir: Path) -> None:
    """Configures and builds hedra_bench and admissiond, as perfbench/run.py
    does on its first run, so that no timed run pays for the build."""
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(tree / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(build_dir), "--parallel", jobs,
                  "--target", "hedra_bench", "admissiond"])
    with open(build_dir / "ab-build.log", "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"build failed in {build_dir} (see ab-build.log)")


def run_once(tree: Path, build_dir: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; returns its fingerprint and result."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        fail(f"perfbench failed in {tree}: {proc.stderr.strip()[-400:]}")
    return {"fingerprint": json.loads(lines[-2])["fingerprint"], "result": json.loads(lines[-1])}


def fingerprint_difference(a: dict, b: dict) -> str | None:
    """The first fingerprint field whose values differ, or None."""
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
    return None


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def report(workload: str, seed: int, pairs: list[tuple[dict, dict]], metrics: list[dict]) -> None:
    print(f"\n{workload} seed {seed}: {len(pairs)} pair(s)")
    for label, index in (("base", 0), ("change", 1)):
        results = [pair[index]["result"] for pair in pairs]
        correct = all(r["correct"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"  {label}: correct {str(correct).lower()}, failed {failed}")
    if not pairs:
        return
    print(f"  {'metric':<16} {'base median (q1-q3)':>28} {'change median (q1-q3)':>28}"
          f" {'delta':>8} {'wins':>6}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [p[0]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p[1]["result"]["metrics"][name]["value"] for p in pairs]
        bm, bq1, bq3 = spread(base)
        cm, cq1, cq3 = spread(change)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        delta = f"{(cm - bm) / bm * 100:+.1f}%" if bm else "n/a"
        print(f"  {name:<16} {f'{bm:.4g} ({bq1:.4g}-{bq3:.4g})':>28}"
              f" {f'{cm:.4g} ({cq1:.4g}-{cq3:.4g})':>28} {delta:>8}"
              f" {f'{wins}/{len(pairs)}':>6}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision or checkout directory")
    parser.add_argument("--change", required=True, help="git revision or checkout directory")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", action="append", type=int,
                        help="repeatable; default: each workload's default seed")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = []
    for label, spec in (("base", args.base), ("change", args.change)):
        tree = checkout(spec, label, args.out_dir)
        build_dir = (args.out_dir / f"{label}-build").resolve()
        build(tree, build_dir)
        sides.append((tree, build_dir))

    log = []
    for workload in args.workload or WORKLOADS:
        for seed in args.seed or [DEFAULT_SEEDS[workload]]:
            pairs = []
            for i in range(args.pairs):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                runs = {side: run_once(*sides[side], workload, seed, args.seconds)
                        for side in order}
                pair = (runs[0], runs[1])
                log.append({"workload": workload, "seed": seed, "pair": i,
                            "base": pair[0], "change": pair[1]})
                difference = fingerprint_difference(pair[0]["fingerprint"],
                                                    pair[1]["fingerprint"])
                if difference is not None:
                    print(f"ab: {workload} seed {seed} pair {i} refused: fingerprint {difference}",
                          file=sys.stderr)
                    continue
                pairs.append(pair)
            report(workload, seed, pairs, metrics)
    (args.out_dir / "ab.json").write_text(json.dumps(log, indent=1) + "\n")


if __name__ == "__main__":
    main()
