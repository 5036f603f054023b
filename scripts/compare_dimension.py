#!/usr/bin/env python3
"""Byte comparison of two windim_cli builds on the dimension path.

    python3 scripts/compare_dimension.py OLD_CLI NEW_CLI

Runs `windim_cli dimension SPEC --trace-out=FILE` with both binaries on

  - examples/specs/canada.net and canada4.net under every solver name
    the new binary lists (`windim_cli solvers`), and
  - the dimension-batch specs of perfbench/workloads.py for seeds 1
    and 101 (135 each: 45 of 12, 24 and 48 classes),

and reports every difference in exit code, stdout and search trace,
one line each.  Prints a summary line and exits 0 when the two builds
agree on every run, 1 otherwise.  A change that is meant to keep every
output byte (a kernel rewrite, a refactor) should report none.
"""

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

BATCH_SEEDS = (1, 101)
BATCH_PER_SIZE = 45  # what a 30 s dimension-batch run uses


def solver_names(cli):
    """Registry names from the `windim_cli solvers` table."""
    out = subprocess.run([cli, "solvers"], capture_output=True, text=True,
                         check=True).stdout
    names = []
    for line in out.splitlines()[2:]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells and cells[0]:
            names.append(cells[0])
    return names


def run(cli, spec, extra, trace):
    """(exit code, stdout, trace bytes) of one dimension run."""
    if os.path.exists(trace):
        os.remove(trace)
    proc = subprocess.run([cli, "dimension", spec, *extra,
                           f"--trace-out={trace}"],
                          capture_output=True, timeout=600)
    body = None
    if os.path.exists(trace):
        with open(trace, "rb") as f:
            body = f.read()
    return proc.returncode, proc.stdout, body


def first_diff_line(a, b):
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(a_lines, b_lines)):
        if x != y:
            return i + 1
    return min(len(a_lines), len(b_lines)) + 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_cli")
    parser.add_argument("new_cli")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for name in ("canada.net", "canada4.net"):
            spec = os.path.join(ROOT, "examples", "specs", name)
            for solver in solver_names(args.new_cli):
                cases.append((f"{name} --solver={solver}", spec,
                              [f"--solver={solver}"]))
        for seed in BATCH_SEEDS:
            specs = workloads.batch_specs(seed, BATCH_PER_SIZE)
            for label, texts in specs.items():
                for i, text in enumerate(texts):
                    spec = os.path.join(tmp, f"s{seed}-{label}-{i}.net")
                    with open(spec, "w") as f:
                        f.write(text)
                    cases.append((f"seed {seed} {label}[{i}]", spec, []))

        differences = 0
        succeeded = 0
        trace = os.path.join(tmp, "trace.jsonl")
        for label, spec, extra in cases:
            old = run(args.old_cli, spec, extra, trace)
            new = run(args.new_cli, spec, extra, trace)
            succeeded += old[0] == 0 and new[0] == 0
            found = []
            if old[0] != new[0]:
                found.append(f"exit code {old[0]} vs {new[0]}")
            if old[1] != new[1]:
                found.append("stdout differs at line "
                             f"{first_diff_line(old[1], new[1])}")
            if old[2] != new[2]:
                if old[2] is None or new[2] is None:
                    found.append("trace written by only one build")
                else:
                    found.append("trace differs at line "
                                 f"{first_diff_line(old[2], new[2])}")
            for what in found:
                print(f"DIFF {label}: {what}")
            differences += len(found)

    print(f"compared {len(cases)} runs ({succeeded} exited 0 in both): "
          f"{differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
