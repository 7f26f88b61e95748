#!/usr/bin/env python3
"""Diffs the example and figure programs' output against the committed goldens.

Usage: check_example_goldens.py --bin-dir <dir> --golden-dir <dir>
                                [--suite examples|figures|daemon]

The examples suite (the default; goldens in tests/golden/examples) runs,
from <bin-dir>:
  - `quickstart`, whose stdout must equal quickstart.out;
  - `paper_figures --out <tmp>`, whose stdout (with <tmp> written as OUT)
    must equal paper_figures.out, and each .dot file it writes must equal
    the golden of the same name;
  - `dag_tool --file paper.dag --m 2 --transformed <tmp>/transformed.dag
    --dot <tmp>/transformed.dot` on the paper's running example, whose
    stdout (OUT again) and both files must equal dag_tool.out,
    transformed.dag and transformed.dot.

These cover the transformed graph G' as a dag file and as DOT, the G_par
highlight and Figure 3's re-routing counters.

The figures suite (goldens in tests/golden/figures) runs each FIGURES
entry at --jobs 1 and compares its stdout with <program>.out, so the
fig6-fig12 tables stay byte-identical across refactors.

The daemon suite (goldens in tests/golden) pipes admissiond_session.txt
through `admissiond` once per DAEMON platform and compares its stdout,
with the STATUS queue depth masked as ` queue=_`, with the golden named
there.

The goldens are the output of the implementation they pin; regenerate
them only for an intended behaviour change, by running the same commands
and copying the files.
Exits 1 and prints a unified diff for every mismatch.
"""

import argparse
import difflib
import pathlib
import re
import subprocess
import sys
import tempfile

# (program, arguments) of the figures suite; small sizes keep all seven
# runs well under a second.
FIGURES = [
    ("fig6_transform_impact", ["--dags", "20"]),
    ("fig7_accuracy_vs_ilp", ["--dags", "2", "--time-limit", "1000",
                              "--solver-nodes", "20000"]),
    ("fig8_scenarios", ["--dags", "20"]),
    ("fig9_hom_vs_het", ["--dags", "20"]),
    ("fig10_multi_device", ["--dags", "10"]),
    ("fig11_units", ["--dags", "10"]),
    ("fig12_taskset", ["--quick"]),
]

# (platform, golden) of the daemon suite.  The second platform's speedup
# has a prime numerator above 2^20, so every decision of that session runs
# in exact arithmetic rather than on scaled integers.
DAEMON = [
    ("8:acc*2", "admissiond_session.out"),
    ("8:acc*2@1.048583", "admissiond_session_exact.out"),
]


def run(cmd, out_dir=None, stdin=None):
    """stdout of `cmd` fed `stdin`, with the scratch directory (if any)
    written as OUT."""
    result = subprocess.run(cmd, input=stdin, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise SystemExit(f"{cmd[0]} exited with {result.returncode}")
    return result.stdout if out_dir is None else result.stdout.replace(str(out_dir), "OUT")


def compare(name, got, golden_dir):
    """Unified diff of `got` against golden `name`; empty when equal."""
    want = (golden_dir / name).read_text()
    if got == want:
        return []
    return list(difflib.unified_diff(want.splitlines(True), got.splitlines(True),
                                     f"golden/{name}", f"actual/{name}"))


def check_figures(bins, golden):
    """Diffs of every FIGURES program's stdout against its golden."""
    diffs = []
    for name, args in FIGURES:
        diffs += compare(f"{name}.out", run([bins / name, *args, "--jobs", "1"]), golden)
    return diffs


def check_daemon(bins, golden):
    """Diffs of the committed daemon session on every DAEMON platform."""
    session = (golden / "admissiond_session.txt").read_text()
    diffs = []
    for platform, name in DAEMON:
        stdout = run([bins / "admissiond", "--platform", platform], stdin=session)
        diffs += compare(name, re.sub(r" queue=[0-9]*", " queue=_", stdout), golden)
    return diffs


def check_examples(bins, golden):
    """Diffs of quickstart, paper_figures and dag_tool against their goldens."""
    diffs = []
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        diffs += compare("quickstart.out", run([bins / "quickstart"], out), golden)

        figures = out / "figures"
        figures.mkdir()
        stdout = run([bins / "paper_figures", "--out", str(figures)], figures)
        diffs += compare("paper_figures.out", stdout, golden)
        dots = sorted(p.name for p in figures.glob("*.dot"))
        expected = sorted(p.name for p in golden.glob("fig*.dot"))
        if dots != expected:
            diffs.append(f"paper_figures wrote {dots}, goldens are {expected}\n")
        for name in dots:
            diffs += compare(name, (figures / name).read_text(), golden)

        tool = out / "dag_tool"
        tool.mkdir()
        stdout = run([bins / "dag_tool", "--file", str(golden / "paper.dag"), "--m", "2",
                      "--transformed", str(tool / "transformed.dag"),
                      "--dot", str(tool / "transformed.dot")], tool)
        diffs += compare("dag_tool.out", stdout, golden)
        for name in ("transformed.dag", "transformed.dot"):
            diffs += compare(name, (tool / name).read_text(), golden)
    return diffs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", required=True, type=pathlib.Path)
    parser.add_argument("--golden-dir", required=True, type=pathlib.Path)
    parser.add_argument("--suite", choices=("examples", "figures", "daemon"),
                        default="examples")
    args = parser.parse_args()

    check = {"examples": check_examples, "figures": check_figures,
             "daemon": check_daemon}[args.suite]
    diffs = check(args.bin_dir, args.golden_dir)
    if diffs:
        sys.stdout.writelines(diffs)
        return 1
    print(f"{args.suite} goldens match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
