#!/usr/bin/env python3
"""Summaries and comparisons of windim benchmark results.

A result file holds the standard output of one perfbench/run.py run
(its last two lines are the report and the result).

    python3 perfbench/compare.py spread RESULT...
    python3 perfbench/compare.py diff --base RESULT... --head RESULT...

`spread` prints, per workload and metric, the median over the runs and
the distance between the first and third quartiles as a share of it,
next to the metric's bound.  `diff` prints the head median against the
base median.  Both refuse results whose machine fingerprints differ.
"""

import argparse
import collections
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402

MACHINE = ("nproc", "cpu_model", "compiler", "build_type")
BOUNDS = {name: bound for name, _, _, bound in catalog.END_TO_END}


class CompareError(Exception):
    pass


def load(path):
    with open(path) as f:
        lines = f.read().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_machines(runs):
    machines = {tuple(report["fingerprint"][k] for k in MACHINE)
                for report, _ in runs}
    if len(machines) > 1:
        raise CompareError(f"results come from different machines: "
                           f"{sorted(machines)}")


def spread(runs):
    """{(workload, metric): {"median", "iqr_share", "n"}}."""
    check_machines(runs)
    values = collections.defaultdict(list)
    for report, result in runs:
        for name, metric in result["metrics"].items():
            values[(report["workload"], name)].append(metric["value"])
    out = {}
    for key, vals in values.items():
        median = statistics.median(vals)
        iqr = 0.0
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            iqr = q[2] - q[0]
        out[key] = {"median": median,
                    "iqr_share": iqr / median if median else 0.0,
                    "n": len(vals)}
    return out


def diff(base, head):
    """{(workload, metric): {"base", "head", "change"}}."""
    check_machines(base + head)
    b, h = spread(base), spread(head)
    return {key: {"base": b[key]["median"], "head": h[key]["median"],
                  "change": (h[key]["median"] / b[key]["median"] - 1.0
                             if b[key]["median"] else 0.0)}
            for key in sorted(b) if key in h}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("results", nargs="+")
    p_diff = sub.add_parser("diff")
    p_diff.add_argument("--base", nargs="+", required=True)
    p_diff.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    try:
        if args.cmd == "spread":
            for (workload, name), row in sorted(
                    spread([load(p) for p in args.results]).items()):
                bound = BOUNDS.get(name)
                flag = "" if bound is None or row["iqr_share"] <= bound / 3 \
                    else "  (over a third of its bound)"
                print(f"{workload:16} {name:24} median {row['median']:14.6g}"
                      f"  iqr/median {row['iqr_share']:.4f}"
                      f"  bound {bound}  n={row['n']}{flag}")
        else:
            for (workload, name), row in diff(
                    [load(p) for p in args.base],
                    [load(p) for p in args.head]).items():
                print(f"{workload:16} {name:24} base {row['base']:14.6g}"
                      f"  head {row['head']:14.6g}  {row['change']:+.2%}")
    except CompareError as e:
        print(f"compare: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
