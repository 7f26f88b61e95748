#!/usr/bin/env python3
"""Diffs the example programs' output against the committed goldens.

Usage: check_example_goldens.py --bin-dir <dir> --golden-dir <dir>

Runs, from <bin-dir>:
  - `quickstart`, whose stdout must equal quickstart.out;
  - `paper_figures --out <tmp>`, whose stdout (with <tmp> written as OUT)
    must equal paper_figures.out, and each .dot file it writes must equal
    the golden of the same name;
  - `dag_tool --file paper.dag --m 2 --transformed <tmp>/transformed.dag
    --dot <tmp>/transformed.dot` on the paper's running example, whose
    stdout (OUT again) and both files must equal dag_tool.out,
    transformed.dag and transformed.dot.

These cover the transformed graph G' as a dag file and as DOT, the G_par
highlight and Figure 3's re-routing counters.  The goldens are the output
of the implementation they pin; regenerate them only for an intended
behaviour change, by running the same commands and copying the files.
Exits 1 and prints a unified diff for every mismatch.
"""

import argparse
import difflib
import pathlib
import subprocess
import sys
import tempfile


def run(cmd, out_dir):
    """stdout of `cmd`, with the scratch directory written as OUT."""
    result = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise SystemExit(f"{cmd[0]} exited with {result.returncode}")
    return result.stdout.replace(str(out_dir), "OUT")


def compare(name, got, golden_dir):
    """Unified diff of `got` against golden `name`; empty when equal."""
    want = (golden_dir / name).read_text()
    if got == want:
        return []
    return list(difflib.unified_diff(want.splitlines(True), got.splitlines(True),
                                     f"golden/{name}", f"actual/{name}"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", required=True, type=pathlib.Path)
    parser.add_argument("--golden-dir", required=True, type=pathlib.Path)
    args = parser.parse_args()
    bins = args.bin_dir
    golden = args.golden_dir

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

    if diffs:
        sys.stdout.writelines(diffs)
        return 1
    print("example goldens match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
