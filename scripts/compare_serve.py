#!/usr/bin/env python3
"""Reply comparison of two windim_cli builds over `serve --stdio`.

    python3 scripts/compare_serve.py OLD_CLI NEW_CLI

Streams one session through `windim_cli serve --stdio --threads=1` of
each binary:

  - the request pools of the interactive and pipelined-mix workloads of
    perfbench/workloads.py for seeds 1 and 101, and
  - evaluates of one cached spec re-sent with only its formatting
    changed (blank lines, indentation, a comment), then in its original
    text again, so one entry is reached through its canonical key and
    then through its exact-text alias;
  - one line per op and per error class one session can reach: every
    dimension objective, pareto, scenario, fuzz-replay, the stats,
    trace, metrics and dump ops, and a final shutdown; parse_error,
    invalid_request, invalid_spec, unknown_solver, deadline_exceeded
    and payload_too_large, plus requests with two faults, which pin the
    order the checks run in; then, after the dump, an evaluate whose
    population lattice is past the exact solvers' cap (overflow) and a
    dimension whose deadline expired before its first evaluation
    (deadline_exceeded).  (shutting_down needs a second connection;
    budget_exhausted and internal have no cheap deterministic trigger.)

One worker thread makes the session serial, so the stats, trace,
metrics and dump replies see the same history in both builds.  Those
four are compared after masking measured times: histogram sums, maxima
and bucket counts, span and digest times, and the windowed rates and
quantiles.  Every other reply is compared byte for byte.  Prints one
DIFF line per differing reply and a summary line; exits 0 when the two
builds agree on every reply, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

SEEDS = (1, 101)
MEASURED_OPS = ("stats", "trace", "metrics", "dump")
# Keys whose values move with the wall clock wherever they appear in
# those replies: histogram snapshots, trace spans, flight digests and the
# sliding-window rows of stats.
MEASURED_KEYS = {"sum", "max_observed", "counts", "start_us", "total_us",
                 "dur_us", "end_us", "latency_us", "rate_10s", "rate_60s",
                 "errors_60s", "p50_us_10s", "p99_us_10s", "p50_us_60s",
                 "p99_us_60s", "slo_breaches_60s", "slo_burn_60s"}
SPEC = ("node A\nnode B\nnode C\nchannel A B 50\nchannel B C 50\n"
        "class east rate 20 path A B C\nclass west rate 10 path C B\n")
MAX_REQUEST_BYTES = 1 << 20  # the daemon's default cap
# SPEC with only its formatting changed: each canonicalizes to SPEC.
REFORMATTED_SPECS = (
    ("blank lines", SPEC.replace("\nchannel A B", "\n\n\nchannel A B")
     + "\n"),
    ("indentation", "".join("  " + row + "\n"
                            for row in SPEC.splitlines())),
    ("a comment", "# three nodes, two classes\n" + SPEC),
)


def line(**fields):
    return json.dumps(fields, separators=(",", ":"))


def op_lines():
    """(label, line) for every op and every reachable error class."""
    with open(os.path.join(ROOT, "tests", "corpus",
                           "fcfs-closed-36-heuristic-envelope.corpus")) as f:
        entry = f.read()
    cases = [
        ("evaluate", line(op="evaluate", spec=SPEC, windows=[3, 2], id=1)),
    ]
    cases += [(f"evaluate, spec with {how}",
               line(op="evaluate", spec=text, windows=[3, 2], id=30 + i))
              for i, (how, text) in enumerate(REFORMATTED_SPECS)]
    cases += [
        ("evaluate, spec as first sent",
         line(op="evaluate", spec=SPEC, windows=[3, 2], id=33)),
        ("dimension power", line(op="dimension", spec=SPEC, id=2)),
        ("dimension gpower", line(op="dimension", spec=SPEC,
                                  objective="gpower", power_exponent=2,
                                  id=3)),
        ("dimension delaycap", line(op="dimension", spec=SPEC,
                                    objective="delaycap", max_delay=0.1,
                                    id=4)),
        ("dimension alpha-fair", line(op="dimension", spec=SPEC,
                                      objective="alpha-fair", alpha=2,
                                      id=5)),
        ("dimension power-fair-constrained",
         line(op="dimension", spec=SPEC, objective="power-fair-constrained",
              min_fairness=0.9, id=6)),
        ("pareto", line(op="pareto", spec=SPEC, points=4, alpha="inf",
                        id=7)),
        ("scenario", line(op="scenario", spec=SPEC, policies=["static"],
                          scenarios=["stationary"], sim_time=20, seed=3,
                          jobs=1, id=8)),
        ("fuzz-replay", line(op="fuzz-replay", entry=entry, no_ctmc=True,
                             id=9)),
        ("parse_error", "this is not json"),
        ("invalid_request", line(op="transmogrify", id=10)),
        ("invalid_spec", line(op="evaluate", spec="garbage here",
                              windows=[1], id=11)),
        ("unknown_solver", line(op="evaluate", spec=SPEC, windows=[1, 1],
                                solver="nope", id=12)),
        ("deadline_exceeded", line(op="evaluate", spec=SPEC,
                                   windows=[3, 2], deadline_ms=1e-6,
                                   id=13)),
        ("payload_too_large",
         line(op="evaluate", junk="x" * MAX_REQUEST_BYTES, id=14)),
        # A request with two faults gets the first of spec, solver,
        # windows or objective, deadline.
        ("spec before solver", line(op="evaluate", spec="garbage here",
                                    windows=[1], solver="nope", id=15)),
        ("solver before windows", line(op="evaluate", spec=SPEC,
                                       windows=[1], solver="nope", id=16)),
        ("solver before objective", line(op="dimension", spec=SPEC,
                                         objective="delaycap",
                                         solver="nope", id=17)),
        ("windows before deadline", line(op="evaluate", spec=SPEC,
                                         windows=[1], deadline_ms=1e-6,
                                         id=18)),
        ("objective before deadline", line(op="dimension", spec=SPEC,
                                           objective="delaycap",
                                           deadline_ms=1e-6, id=19)),
    ]
    cases += [(op, line(op=op, id=40 + i))
              for i, op in enumerate(MEASURED_OPS)]
    # After the measured ops, so those compare the same history with a
    # build that answers these two differently.
    cases += [
        ("overflow", line(op="evaluate", spec=SPEC, windows=[100000, 100000],
                          solver="exact-mva", id=20)),
        ("dimension deadline_exceeded", line(op="dimension", spec=SPEC,
                                             deadline_ms=1e-6, id=21)),
    ]
    cases.append(("shutdown", line(op="shutdown", id=50)))
    return cases


def session():
    """(label, line, measured) for the whole session, in send order."""
    out = []
    for seed in SEEDS:
        for plan in (workloads.interactive_plan(seed),
                     workloads.pipelined_mix_plan(seed)):
            for i, text in enumerate(plan.pool):
                out.append((f"seed {seed} {plan.name}[{i}]", text,
                            not plan.pure[i]))
    for label, text in op_lines():
        out.append((label, text, label in MEASURED_OPS))
    return out


def mask_exposition(text):
    """OpenMetrics text with bucket, sum and windowed gauge values
    replaced; counters, gauges and histogram counts stay."""
    lines = []
    for row in text.split("\n"):
        name = row.split("{")[0].split(" ")[0]
        if not row.startswith("#") and (
                name.endswith(("_bucket", "_sum")) or
                name.startswith("windim_serve_window_")):
            row = row.rsplit(" ", 1)[0] + " <time>"
        lines.append(row)
    return "\n".join(lines)


def mask(value):
    if isinstance(value, list):
        return [mask(v) for v in value]
    if not isinstance(value, dict):
        return value
    out = {}
    for key, v in value.items():
        if key in MEASURED_KEYS:
            out[key] = "<time>"
        elif key == "exposition":
            out[key] = mask_exposition(v)
        else:
            out[key] = mask(v)
    return out


def replies(cli, data):
    proc = subprocess.run([cli, "serve", "--stdio", "--threads=1"],
                          input=data, capture_output=True, timeout=1800)
    return proc.returncode, proc.stdout.split(b"\n")[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_cli")
    parser.add_argument("new_cli")
    args = parser.parse_args()

    cases = session()
    data = "".join(text + "\n" for _, text, _ in cases).encode()
    old_code, old = replies(args.old_cli, data)
    new_code, new = replies(args.new_cli, data)

    differences = 0
    if old_code != new_code:
        print(f"DIFF exit code {old_code} vs {new_code}")
        differences += 1
    for what, got in (("old", old), ("new", new)):
        if len(got) != len(cases):
            print(f"DIFF {what} build wrote {len(got)} replies to "
                  f"{len(cases)} requests")
            differences += 1
    masked = 0
    for (label, _, measured), a, b in zip(cases, old, new):
        if measured:
            masked += 1
            a = json.dumps(mask(json.loads(a)))
            b = json.dumps(mask(json.loads(b)))
        if a != b:
            print(f"DIFF {label}: replies differ"
                  f"{' after masking measured times' if measured else ''}")
            differences += 1

    print(f"compared {min(len(old), len(new))} replies to {len(cases)} "
          f"requests ({masked} with measured times masked): "
          f"{differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
