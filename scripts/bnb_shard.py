#!/usr/bin/env python3
"""Shard a bnb_batch run across processes and merge the per-shard JSON.

The bnb_batch CLI regenerates the full instance batch from the seed in
every process and solves only `index % shard_count == shard_index`, so
shards need no coordination: this driver just launches one process per
shard (typically one per core or per machine), waits, and merges the
shard files into one document covering the whole batch.

Usage:
  # Run 4 shards locally and merge:
  scripts/bnb_shard.py run --binary build/bnb_batch \\
      --shards 4 --count 40 --m 2 --min-nodes 3 --max-nodes 20 \\
      --seed 42 --out batch.json

  # Merge shard files produced elsewhere (e.g. one per fleet job):
  scripts/bnb_shard.py merge shard_*.json --out batch.json

Merging verifies the shards agree on the batch definition and together
cover every instance index exactly once.

Uses only the Python standard library.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMA = "hedra-bnb-batch-v1"
MERGED_SCHEMA = "hedra-bnb-batch-merged-v1"
BATCH_KEYS = ("m", "min_nodes", "max_nodes", "ratio", "count", "seed")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def load_shard(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: {exc}")
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: expected schema {SCHEMA!r}, got {doc.get('schema')!r}")
    for key in BATCH_KEYS + ("shard_index", "shard_count", "instances"):
        if key not in doc:
            fail(f"{path}: missing key {key!r}")
    return doc


def merge_shards(docs: list[dict]) -> dict:
    base = docs[0]
    for doc in docs[1:]:
        for key in BATCH_KEYS:
            if doc[key] != base[key]:
                fail(
                    f"shards disagree on {key!r}: "
                    f"{base[key]!r} vs {doc[key]!r}"
                )
        if doc["shard_count"] != base["shard_count"]:
            fail("shards disagree on shard_count")

    seen_shards = set()
    instances: dict[int, dict] = {}
    for doc in docs:
        shard = doc["shard_index"]
        if shard in seen_shards:
            fail(f"duplicate shard_index {shard}")
        seen_shards.add(shard)
        for row in doc["instances"]:
            index = row["index"]
            if index in instances:
                fail(f"instance {index} appears in more than one shard")
            if index % doc["shard_count"] != shard:
                fail(f"instance {index} does not belong to shard {shard}")
            instances[index] = row

    expected = set(range(base["count"]))
    missing = sorted(expected - instances.keys())
    if missing:
        fail(f"batch incomplete: missing instances {missing}")
    extra = sorted(instances.keys() - expected)
    if extra:
        fail(f"unexpected instance indices {extra}")

    merged = {key: base[key] for key in BATCH_KEYS}
    merged["schema"] = MERGED_SCHEMA
    merged["solver"] = base.get("solver", {})
    merged["shard_count"] = base["shard_count"]
    merged["instances"] = [instances[i] for i in sorted(instances)]
    return merged


def summarize(merged: dict) -> str:
    rows = merged["instances"]
    proven = sum(1 for r in rows if r["proven"])
    nodes = sum(r["nodes_explored"] for r in rows)
    ms = sum(r["ms"] for r in rows)
    return (
        f"{len(rows)} instances (m={merged['m']}, "
        f"n in [{merged['min_nodes']}, {merged['max_nodes']}], "
        f"seed {merged['seed']}): {proven} proven optimal, "
        f"{nodes} nodes explored, {ms / 1000.0:.1f} s solver time"
    )


def write_merged(docs: list[dict], out: str | None) -> None:
    merged = merge_shards(docs)
    text = json.dumps(merged, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
        print(f"merged result written to {out}", file=sys.stderr)
    else:
        print(text, end="")
    print(summarize(merged), file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> None:
    binary = Path(args.binary)
    if not binary.exists():
        fail(f"bnb_batch binary not found at {binary}")
    with tempfile.TemporaryDirectory(prefix="bnb_shard_") as tmp:
        shard_files = []
        procs = []
        for shard in range(args.shards):
            shard_file = Path(tmp) / f"shard_{shard}.json"
            shard_files.append(shard_file)
            cmd = [
                str(binary),
                "--m", str(args.m),
                "--min-nodes", str(args.min_nodes),
                "--max-nodes", str(args.max_nodes),
                "--ratio", str(args.ratio),
                "--count", str(args.count),
                "--seed", str(args.seed),
                "--solver-nodes", str(args.solver_nodes),
                "--time-limit", str(args.time_limit),
                "--shard-index", str(shard),
                "--shard-count", str(args.shards),
                "--out", str(shard_file),
            ]
            procs.append(subprocess.Popen(cmd))
        failures = [
            shard for shard, proc in enumerate(procs) if proc.wait() != 0
        ]
        if failures:
            fail(f"shard processes failed: {failures}")
        write_merged([load_shard(path) for path in shard_files], args.out)


def cmd_merge(args: argparse.Namespace) -> None:
    if not args.files:
        fail("no shard files given")
    write_merged([load_shard(Path(f)) for f in args.files], args.out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="launch shard processes and merge")
    run.add_argument("--binary", default="build/bnb_batch",
                     help="path to the bnb_batch executable")
    run.add_argument("--shards", type=int, default=2,
                     help="number of shard processes")
    run.add_argument("--m", type=int, default=2)
    run.add_argument("--min-nodes", type=int, default=3)
    run.add_argument("--max-nodes", type=int, default=20)
    run.add_argument("--ratio", type=float, default=0.35)
    run.add_argument("--count", type=int, default=40)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--solver-nodes", type=int, default=5_000_000)
    run.add_argument("--time-limit", type=float, default=300.0)
    run.add_argument("--out", default=None,
                     help="merged JSON path (default: stdout)")
    run.set_defaults(func=cmd_run)

    merge = sub.add_parser("merge", help="merge existing shard JSON files")
    merge.add_argument("files", nargs="*", help="per-shard JSON files")
    merge.add_argument("--out", default=None,
                       help="merged JSON path (default: stdout)")
    merge.set_defaults(func=cmd_merge)

    args = parser.parse_args()
    if args.command == "run" and args.shards <= 0:
        fail("--shards must be positive")
    args.func(args)


if __name__ == "__main__":
    main()
