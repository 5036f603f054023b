#!/usr/bin/env python3
"""Scripted fault-injection session against a live `windim serve` daemon.

Usage: serve_smoke.py PATH_TO_WINDIM_CLI

Boots the daemon on a Unix-domain socket (with a small request-size cap
so the oversized-payload path is reachable), then drives one client
session through every reply class the protocol defines:

  1. a well-formed evaluate        -> ok reply with the evaluation body;
  2. non-JSON garbage              -> parse_error, null id, daemon alive;
  3. an unknown op                 -> invalid_request with the id echoed;
  4. an unknown solver             -> unknown_solver listing the registry;
  5. an oversized request line     -> payload_too_large, never parsed;
     the same for an unterminated line sent past the cap in several
     writes: answered before any newline arrives, the rest of the line
     is dropped, and the connection keeps serving;
  6. an already-expired deadline   -> deadline_exceeded;
  7. a pareto scan                 -> ok reply with a sorted non-empty
                                      front and the alpha-fair reference;
  8. a malformed pareto alpha      -> invalid_request naming the lawful
                                      values;
  9. an unreachable fairness floor -> ok reply with an EMPTY front and
                                      the infeasible run counted;
 10. a pareto expired deadline     -> deadline_exceeded (refused whole,
                                      never a truncated front);
 11. a stats probe                 -> ok reply carrying serve/cache
                                      counters that match the session,
                                      plus the PR 10 sliding-window
                                      rates and quantiles;
 12. a metrics scrape             -> the exposition parses as
                                      OpenMetrics (tiny parser below:
                                      TYPE comments, labeled samples,
                                      cumulative le buckets, # EOF) and
                                      carries the windim_serve_window_*
                                      gauges;
 13. a trace drain                -> real spans (parse/cache_lookup/
                                      workspace_lease/solve) from the
                                      session's evaluates;
 14. a flight dump op             -> digests covering the whole session,
                                      faults included;
 15. SIGUSR1                      -> the daemon writes the flight JSONL
                                      and the OpenMetrics file to their
                                      configured paths, WITHOUT dying;
 16. a SECOND concurrent connection evaluating successfully while the
     first stays open (connections share one server);
 17. SIGTERM                      -> graceful drain, exit code 0, the
                                      socket unlinked, and the
                                      --metrics-out final snapshot
                                      written as valid JSON.

Exits nonzero (with a diagnostic on stderr) on the first violation.
ctest runs it as serve_smoke_socket; the serve-smoke CI job also runs
it under ASan+UBSan so every one of those paths is leak- and
UB-checked.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

SPEC = "node A\nnode B\nnode C\nchannel A B 50\nchannel B C 50\n" \
       "class east rate 20 path A B C\nclass west rate 10 path C B\n"


def fail(msg):
    sys.stderr.write("serve_smoke: FAIL: %s\n" % msg)
    sys.exit(1)


def connect(path, deadline=10.0):
    end = time.time() + deadline
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            sock.settimeout(30.0)
            return sock
        except OSError:
            sock.close()
            if time.time() > end:
                fail("cannot connect to %s" % path)
            time.sleep(0.05)


def roundtrip(sock, rfile, request):
    line = request if isinstance(request, str) else json.dumps(request)
    sock.sendall(line.encode() + b"\n")
    reply = rfile.readline()
    if not reply:
        fail("connection closed instead of replying to: %r" % line[:80])
    try:
        return json.loads(reply)
    except ValueError:
        fail("reply is not JSON: %r" % reply[:120])


def expect_error(reply, code, what):
    if reply.get("ok") is not False or reply.get("error", {}).get("code") != code:
        fail("%s: wanted error %s, got %s" % (what, code, reply))


SAMPLE_RE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})? (\S+)$')


def parse_openmetrics(text, what):
    """Tiny OpenMetrics text parser: returns ({family: type}, [samples]).

    Checks the grammar this repo emits: `# TYPE name counter|gauge|
    histogram` comments, `name[{labels}] value` samples, a final `# EOF`
    line, and cumulative (monotone) `le` bucket counts per histogram.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        fail("%s: exposition does not end with # EOF" % what)
    families = {}
    samples = []
    for line in lines[:-1]:
        if line.startswith("#"):
            parts = line.split(" ")
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                       "histogram"):
                    fail("%s: malformed TYPE comment: %r" % (what, line))
                if parts[2] in families:
                    fail("%s: duplicate family %s" % (what, parts[2]))
                families[parts[2]] = parts[3]
            continue
        m = SAMPLE_RE.match(line)
        if m is None:
            fail("%s: unparseable sample line: %r" % (what, line))
        try:
            value = float(m.group(3).replace("+Inf", "inf"))
        except ValueError:
            fail("%s: non-numeric sample value: %r" % (what, line))
        samples.append((m.group(1), m.group(2) or "", value))
    for name, mtype in families.items():
        if mtype != "histogram":
            continue
        buckets = [(labels, v) for (n, labels, v) in samples
                   if n == name + "_bucket"]
        if not buckets or 'le="+Inf"' not in buckets[-1][0]:
            fail("%s: histogram %s lacks an le=\"+Inf\" bucket" % (what, name))
        previous = 0.0
        for labels, v in buckets:
            if v < previous:
                fail("%s: %s buckets not cumulative at %s" %
                     (what, name, labels))
            previous = v
    return families, samples


def main():
    if len(sys.argv) != 2:
        fail("usage: serve_smoke.py PATH_TO_WINDIM_CLI")
    cli = sys.argv[1]
    workdir = tempfile.mkdtemp(prefix="windim-serve-")
    sock_path = os.path.join(workdir, "smoke.sock")
    flight_path = os.path.join(workdir, "flight.jsonl")
    expo_path = os.path.join(workdir, "metrics.prom")
    metrics_out = os.path.join(workdir, "final-metrics.json")
    daemon = subprocess.Popen(
        [cli, "serve", "--socket=%s" % sock_path, "--max-request-bytes=4096",
         "--flight-out=%s" % flight_path, "--metrics-listen=%s" % expo_path,
         "--metrics-out=%s" % metrics_out],
        stdout=subprocess.PIPE, text=True)
    try:
        ready = daemon.stdout.readline()
        if "listening" not in ready:
            fail("daemon did not announce the socket: %r" % ready)

        sock = connect(sock_path)
        rfile = sock.makefile("r")

        # 1. Well-formed evaluate.
        r = roundtrip(sock, rfile, {"op": "evaluate", "spec": SPEC,
                                    "windows": [3, 2], "id": 1})
        if r.get("ok") is not True or r.get("id") != 1:
            fail("evaluate: %s" % r)
        if "throughput" not in r.get("result", {}):
            fail("evaluate reply carries no throughput: %s" % r)

        # 2. Non-JSON garbage: typed parse_error, daemon stays alive.
        expect_error(roundtrip(sock, rfile, "this is not json"),
                     "parse_error", "garbage line")

        # 3. Unknown op, id echoed back.
        r = roundtrip(sock, rfile, {"op": "transmogrify", "id": 3})
        expect_error(r, "invalid_request", "unknown op")
        if r.get("id") != 3:
            fail("unknown op lost the id echo: %s" % r)

        # 4. Unknown solver names the registry.
        r = roundtrip(sock, rfile, {"op": "evaluate", "spec": SPEC,
                                    "windows": [1, 1], "solver": "nope",
                                    "id": 4})
        expect_error(r, "unknown_solver", "unknown solver")
        if "available" not in r["error"]["message"]:
            fail("unknown_solver does not list solvers: %s" % r)

        # 5. Oversized line is refused unparsed (cap is 4096 bytes).
        expect_error(
            roundtrip(sock, rfile,
                      '{"op":"evaluate","junk":"%s"}' % ("x" * 8192)),
            "payload_too_large", "oversized line")

        # 5b. An unterminated line past the cap is answered without
        # waiting for its newline (the daemon's buffer stays bounded);
        # the rest of that line is discarded, and the next request on
        # the same connection gets its own answer.
        for _ in range(4):
            sock.sendall(b"x" * 2048)
        try:
            reply = rfile.readline()
        except socket.timeout:
            fail("no reply to an unterminated over-cap line")
        expect_error(json.loads(reply), "payload_too_large",
                     "unterminated over-cap line")
        sock.sendall(b"x" * 2048 + b"\n")  # the line's tail and its end
        r = roundtrip(sock, rfile, {"op": "evaluate", "spec": SPEC,
                                    "windows": [3, 2], "id": 55})
        if r.get("ok") is not True or r.get("id") != 55:
            fail("request after a discarded over-cap line: %s" % r)

        # 6. Already-expired deadline cancels cooperatively.
        expect_error(roundtrip(sock, rfile,
                               {"op": "evaluate", "spec": SPEC,
                                "windows": [3, 2], "deadline_ms": 1e-6,
                                "id": 6}),
                     "deadline_exceeded", "expired deadline")

        # 7. Pareto scan: sorted non-empty front + alpha-fair reference.
        r = roundtrip(sock, rfile, {"op": "pareto", "spec": SPEC,
                                    "points": 5, "alpha": "inf", "id": 70})
        if r.get("ok") is not True:
            fail("pareto: %s" % r)
        points = r["result"]["points"]
        if not points:
            fail("pareto front is empty: %s" % r["result"])
        fairness = [p["fairness"] for p in points]
        if fairness != sorted(fairness):
            fail("pareto front not sorted by fairness: %s" % fairness)
        if r["result"].get("alpha_fair", {}).get("alpha") != "inf":
            fail("pareto lost the alpha-fair reference: %s" % r["result"])

        # 8. Malformed alpha: typed invalid_request naming the domain.
        r = roundtrip(sock, rfile, {"op": "pareto", "spec": SPEC,
                                    "alpha": 0.5, "id": 71})
        expect_error(r, "invalid_request", "malformed alpha")
        if "alpha" not in r["error"]["message"]:
            fail("alpha error does not name the field: %s" % r)

        # 9. Unreachable fairness floor: empty front, never a silently
        # relaxed scan.
        r = roundtrip(sock, rfile, {"op": "pareto", "spec": SPEC,
                                    "min_fairness": 0.9999, "id": 72})
        if r.get("ok") is not True:
            fail("infeasible-floor pareto should still reply ok: %s" % r)
        if r["result"]["points"] or r["result"]["infeasible_runs"] < 1:
            fail("unreachable floor was relaxed: %s" % r["result"])

        # 10. Expired pareto deadline: the whole scan is refused — a
        # truncated front must never masquerade as the curve.
        expect_error(roundtrip(sock, rfile,
                               {"op": "pareto", "spec": SPEC,
                                "deadline_ms": 1e-6, "id": 73}),
                     "deadline_exceeded", "pareto expired deadline")

        # 11. Stats reflect the session so far.
        r = roundtrip(sock, rfile, {"op": "stats", "id": 7})
        if r.get("ok") is not True:
            fail("stats: %s" % r)
        serve_stats = r["result"]["serve"]
        if serve_stats["errors"] < 6:
            fail("stats missed the injected faults: %s" % serve_stats)
        if serve_stats["by_op"].get("pareto", 0) < 1:
            fail("stats did not count the pareto scans: %s" % serve_stats)
        if r["result"]["cache"]["entries"] < 1:
            fail("stats shows an empty model cache: %s" % r["result"])
        window = r["result"]["window"]
        if window.get("enabled") is not True:
            fail("live plane disabled by default: %s" % window)
        evaluate_window = window["by_op"]["evaluate"]
        if evaluate_window["rate_60s"] <= 0:
            fail("windowed evaluate rate is zero mid-session: %s" %
                 evaluate_window)
        if evaluate_window["p99_us_60s"] < evaluate_window["p50_us_60s"]:
            fail("windowed quantiles inverted: %s" % evaluate_window)

        # 12. Scrape-and-parse: the metrics op returns an OpenMetrics
        # exposition the tiny parser accepts, with the windowed gauges.
        r = roundtrip(sock, rfile, {"op": "metrics", "id": 9})
        if r.get("ok") is not True:
            fail("metrics: %s" % r)
        if not r["result"]["content_type"].startswith(
                "application/openmetrics-text"):
            fail("metrics content_type: %s" % r["result"]["content_type"])
        families, samples = parse_openmetrics(
            r["result"]["exposition"], "metrics op")
        if families.get("windim_serve_window_rate_10s") != "gauge":
            fail("exposition lacks the windowed rate gauge: %s" %
                 sorted(families))
        if "histogram" not in families.values():
            fail("exposition carries no histogram family")
        window_ops = [labels for (name, labels, _) in samples
                      if name == "windim_serve_window_rate_10s"]
        if 'op="evaluate"' not in "".join(window_ops) or \
                'op="all"' not in "".join(window_ops):
            fail("windowed gauges missing op rows: %s" % window_ops)

        # 13. Trace drain: real spans from the session's evaluates.
        r = roundtrip(sock, rfile, {"op": "trace", "id": 10})
        if r.get("ok") is not True:
            fail("trace: %s" % r)
        traces = r["result"]["traces"]
        if not traces:
            fail("trace drain returned nothing after a full session")
        spans = [s["name"] for t in traces if t["op"] == "evaluate"
                 for s in t["spans"]]
        for stage in ("parse", "cache_lookup", "workspace_lease", "solve"):
            if stage not in spans:
                fail("evaluate traces lack a %s span: %s" % (stage, spans))

        # 14. The dump op returns the whole session's digests, faults
        # included, oldest first.
        r = roundtrip(sock, rfile, {"op": "dump", "id": 11})
        if r.get("ok") is not True:
            fail("dump: %s" % r)
        digests = r["result"]["digests"]
        outcomes = set(d["outcome"] for d in digests)
        if "ok" not in outcomes or "parse_error" not in outcomes:
            fail("flight digests missed a reply class: %s" % outcomes)
        seqs = [d["seq"] for d in digests]
        if seqs != sorted(seqs):
            fail("flight digests out of order: %s" % seqs)

        # 15. SIGUSR1: live dumps written to the configured paths, the
        # daemon keeps serving.  The accept loop notices the latch
        # within its 200 ms poll timeout.
        daemon.send_signal(signal.SIGUSR1)
        deadline = time.time() + 10.0
        while not (os.path.exists(flight_path) and os.path.exists(expo_path)):
            if time.time() > deadline:
                fail("SIGUSR1 produced no dump files within 10 s")
            time.sleep(0.05)
        time.sleep(0.2)  # let both writes complete
        with open(flight_path) as f:
            flight_lines = [ln for ln in f.read().split("\n") if ln]
        if not flight_lines:
            fail("SIGUSR1 flight dump is empty")
        for ln in flight_lines:
            digest = json.loads(ln)
            if "seq" not in digest or "outcome" not in digest:
                fail("flight JSONL line lacks digest fields: %r" % ln)
        with open(expo_path) as f:
            parse_openmetrics(f.read(), "SIGUSR1 exposition")
        r = roundtrip(sock, rfile, {"op": "stats", "id": 12})
        if r.get("ok") is not True:
            fail("daemon died after SIGUSR1: %s" % r)

        # 16. A second concurrent connection shares the server (and its
        # warm cache) while the first stays open.
        sock2 = connect(sock_path)
        rfile2 = sock2.makefile("r")
        r = roundtrip(sock2, rfile2, {"op": "evaluate", "spec": SPEC,
                                      "windows": [3, 2], "id": 8})
        if r.get("ok") is not True:
            fail("second connection evaluate: %s" % r)
        rfile2.close()
        sock2.close()
        rfile.close()
        sock.close()

        # 17. Graceful SIGTERM drain: exit 0, socket unlinked, final
        # metrics snapshot written.
        daemon.send_signal(signal.SIGTERM)
        code = daemon.wait(timeout=30)
        if code != 0:
            fail("daemon exited %d after SIGTERM" % code)
        if os.path.exists(sock_path):
            fail("socket not unlinked after drain")
        if not os.path.exists(metrics_out):
            fail("--metrics-out wrote no final snapshot")
        with open(metrics_out) as f:
            final = json.load(f)
        if not final:
            fail("final metrics snapshot is empty")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    print("serve_smoke: PASS")


if __name__ == "__main__":
    main()
