#!/usr/bin/env python3
"""The windim benchmark.

Run from the root of a windim checkout:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 30 \\
        --trace 0

It builds windim_cli and the in-process probe (perfbench/probe.cpp)
into .bench_build/, generates the workload's inputs from --seed
(perfbench/workloads.py), drives the real binaries, checks every output
against the in-process reference, and prints two JSON lines: a report
(machine fingerprint, failures, sample counts, tails, the driver's own
CPU share, per-size dimension times) and, last, the result object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 times the workload with nothing extra attached and prints the
end-to-end metrics; --trace 1 runs it again with the daemon's trace
buffer drained (or the CLI's metrics registry on), times every layer's
entry point in process, and prints the per-layer metrics, including the
tracing overhead.  perfbench/catalog.py lists every metric and what it
should move.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import workloads  # noqa: E402

BUILD = ".bench_build"
CMAKE_DIR = os.path.join(BUILD, "cmake")
CLI = os.path.join(CMAKE_DIR, "windim", "apps", "windim_cli")
PROBE = os.path.join(CMAKE_DIR, "perfbench_probe")
RUN_DIR = os.path.join(BUILD, "run")
SOCKET = os.path.join(RUN_DIR, "windim.sock")

SETUP_REPEATS = 3
DAEMON_THREADS = 2
DRAIN_TIMEOUT_S = 20.0
# A failed operation counts as missing any latency limit: it enters the
# latency samples at this value.
FAILED_S = DRAIN_TIMEOUT_S
TRACE_DRAIN_INTERVAL_S = 0.05
CLI_REPEATS = 3       # windim_cli runs per spec behind cli.process_ms
LAYER_SAMPLES = 400   # in-process samples per request-path layer
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------- build


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("no windim sources next to perfbench/ "
                         "(run from the root of a windim checkout)")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", "perfbench", "-B", CMAKE_DIR,
                          *generator, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", CMAKE_DIR, "--target", "windim_cli",
                      "perfbench_probe", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(see {BUILD}/build.log)")


def fingerprint():
    cache = {}
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            key, sep, value = line.rstrip("\n").partition("=")
            if sep:
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        compiler = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "apps", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                digest.update(top.encode() + f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


# --------------------------------------------------------------- stats


def percentile(values, pct):
    """Nearest-rank percentile of `values` (need not be sorted)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_pct(n):
    """Highest percentile of TAIL_LADDER with >= 10 of n samples beyond."""
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def summarize(values):
    """(median, tail, tail percentile, n) of a timing.  Below 20 samples
    no percentile has ten beyond it, and the tail is the median."""
    n = len(values)
    pct = tail_pct(n)
    mid = statistics.median(values) if n else 0.0
    return mid, percentile(values, pct) if pct > 50.0 else mid, pct, n


def add_timing(metrics, report, name, unit, values):
    """NAME (median), NAME.tail and NAME.n of a timing."""
    mid, tail, pct, n = summarize(values)
    metrics[name] = {"value": mid, "unit": unit}
    metrics[name + ".tail"] = {"value": tail, "unit": unit}
    metrics[name + ".n"] = {"value": n, "unit": "count"}
    report.setdefault("tail_pct", {})[name] = pct


def ratio(num, den):
    return num / den if den else 0.0


# ------------------------------------------------------------- probes


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def reference_replies(lines):
    """In-process Server::handle_line reply to every line, as bytes."""
    src = os.path.join(RUN_DIR, "reference.ndjson")
    dst = os.path.join(RUN_DIR, "reference.out")
    write_lines(src, lines)
    subprocess.run([PROBE, "replies", src, dst], check=True, timeout=170)
    with open(dst, "rb") as f:
        replies = f.read().split(b"\n")[:-1]
    if len(replies) != len(lines):
        raise BenchError("probe replies: wrong line count")
    return replies


def probe_dimension(paths, slices=3):
    """{spec path: in-process dimension result}, `slices` probes at once."""
    groups = [paths[i::slices] for i in range(slices)]
    procs = [subprocess.Popen([PROBE, "dimension", *g],
                              stdout=subprocess.PIPE, text=True)
             for g in groups if g]
    out = {}
    try:
        for group, proc in zip([g for g in groups if g], procs):
            stdout, _ = proc.communicate(timeout=170)
            if proc.returncode != 0:
                raise BenchError("probe dimension failed")
            for path, line in zip(group, stdout.splitlines()):
                out[path] = json.loads(line)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return out


def probe_layers(lines):
    src = os.path.join(RUN_DIR, "layers.ndjson")
    write_lines(src, lines)
    reps = max(3, -(-LAYER_SAMPLES // len(lines)))
    proc = subprocess.run([PROBE, "layers", str(reps), src],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"probe layers failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


# --------------------------------------------------------------- serve


class Daemon:
    """One `windim_cli serve --socket` process."""

    def __init__(self):
        if os.path.exists(SOCKET):
            os.unlink(SOCKET)
        self.stderr = open(os.path.join(RUN_DIR, "daemon.log"), "ab")
        self.proc = subprocess.Popen(
            [CLI, "serve", f"--socket={SOCKET}",
             f"--threads={DAEMON_THREADS}"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.stderr)
        give_up = time.perf_counter() + 10.0
        while True:
            try:
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                probe.connect(SOCKET)
                probe.close()
                return
            except OSError:
                probe.close()
            if self.proc.poll() is not None or time.perf_counter() > give_up:
                self.stop()
                raise BenchError("daemon did not start")
            time.sleep(0.001)

    def request(self, line):
        """One request on a fresh connection; returns the reply bytes."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(30)
            s.connect(SOCKET)
            s.sendall(line.encode() + b"\n")
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(1 << 16)
                if not chunk:
                    break
                buf += chunk
        return buf.rstrip(b"\n")

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.request('{"op":"shutdown","id":"bench"}')
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.stderr.close()


class Client:
    def __init__(self, stream=None):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(SOCKET)
        self.buf = b""
        self.pending = collections.deque()  # (pool index, send time)
        self.stream = stream

    def lines(self, data):
        self.buf += data
        while True:
            nl = self.buf.find(b"\n")
            if nl < 0:
                return
            line, self.buf = self.buf[:nl], self.buf[nl + 1:]
            yield line


class Checker:
    """Checks replies against the in-process reference; counts failures."""

    def __init__(self, plan, refs):
        self.plan = plan
        self.refs = refs
        self.failures = collections.Counter()
        self.stats_replies = []

    def check(self, idx, reply):
        if self.plan.pure[idx]:
            if reply == self.refs[idx]:
                return True
            kind = "error_reply" if b'"ok":false' in reply else "mismatch"
        else:
            try:
                body = json.loads(reply)
            except ValueError:
                body = {}
            if body.get("ok") is True:
                self.stats_replies.append(body["result"])
                return True
            kind = "error_reply"
        self.failures[kind] += 1
        return False


class TraceTap(Client):
    """Side connection that drains the daemon's request-trace buffer."""

    def __init__(self):
        super().__init__()
        self.waiting = False
        self.next_at = 0.0
        self.queue_us = []
        self.requests = 0
        self.dropped = []

    def tick(self, now):
        if not self.waiting and now >= self.next_at:
            self.sock.sendall(b'{"op":"trace","id":"tap"}\n')
            self.waiting = True

    def on_reply(self, line, now):
        self.waiting = False
        self.next_at = now + TRACE_DRAIN_INTERVAL_S
        result = json.loads(line)["result"]
        self.dropped.append(result["dropped"])
        for trace in result["traces"]:
            if trace["op"] in ("trace", "shutdown"):
                continue
            self.requests += 1
            self.queue_us.append(sum(s["dur_us"] for s in trace["spans"]
                                     if s["name"] == "queue"))


class LoopResult:
    def __init__(self):
        self.latency_s = []       # every request; failures at FAILED_S
        self.rtt_by_idx = []      # (pool index, seconds) of correct replies
        self.attempted = 0
        self.failed = 0
        self.ok_in_window = 0
        self.last_ok = 0.0        # seconds from start to the last of those
        self.cpu_share = 0.0


def closed_loop(plan, checker, seconds, tap=None):
    """Each of plan.connections keeps plan.window requests in flight,
    sending the next as soon as a reply comes back, for `seconds`."""
    pool = [line.encode() + b"\n" for line in plan.pool]
    sel = selectors.DefaultSelector()
    clients = [Client(plan.stream(c)) for c in range(plan.connections)]
    for c in clients:
        sel.register(c.sock, selectors.EVENT_READ, c)
    if tap is not None:
        sel.register(tap.sock, selectors.EVENT_READ, tap)
    res = LoopResult()

    def fill(c):
        while len(c.pending) < plan.window:
            idx = next(c.stream)
            c.pending.append((idx, time.perf_counter()))
            c.sock.sendall(pool[idx])
            res.attempted += 1

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    for c in clients:
        fill(c)
    while True:
        now = time.perf_counter()
        busy = [c for c in clients if c.pending]
        if not busy and (tap is None or not tap.waiting or now > deadline + 1):
            break
        if now > deadline + DRAIN_TIMEOUT_S:
            for c in busy:
                checker.failures["timeout"] += len(c.pending)
                res.failed += len(c.pending)
                res.latency_s += [FAILED_S] * len(c.pending)
                c.pending.clear()
            break
        if tap is not None and now < deadline:
            tap.tick(now)
        for key, _ in sel.select(timeout=0.05):
            peer = key.data
            try:
                data = peer.sock.recv(1 << 16)
            except OSError:
                data = b""
            got = time.perf_counter()
            if peer is tap:
                for line in tap.lines(data):
                    tap.on_reply(line, got)
                continue
            if not data:
                sel.unregister(peer.sock)
                checker.failures["disconnect"] += len(peer.pending)
                res.failed += len(peer.pending)
                res.latency_s += [FAILED_S] * len(peer.pending)
                peer.pending.clear()
                continue
            for line in peer.lines(data):
                idx, sent = peer.pending.popleft()
                if checker.check(idx, line):
                    res.latency_s.append(got - sent)
                    res.rtt_by_idx.append((idx, got - sent))
                    if got <= deadline:
                        res.ok_in_window += 1
                        res.last_ok = got - t0
                else:
                    res.latency_s.append(FAILED_S)
                    res.failed += 1
            if got < deadline:
                fill(peer)
    res.cpu_share = (time.process_time() - cpu0) / \
        max(1e-9, time.perf_counter() - t0)
    for c in clients:
        c.sock.close()
    if tap is not None:
        sel.unregister(tap.sock)
    sel.close()
    return res


def warm_up(plan, checker):
    """Sends every warm-up line once on one connection, pipelined;
    returns the number of failed replies."""
    client = Client()
    client.sock.settimeout(60)
    client.sock.sendall(b"".join(plan.pool[i].encode() + b"\n"
                                 for i in plan.warmup))
    failed = 0
    todo = collections.deque(plan.warmup)
    while todo:
        data = client.sock.recv(1 << 16)
        if not data:
            raise BenchError("daemon closed the warm-up connection")
        for line in client.lines(data):
            failed += not checker.check(todo.popleft(), line)
    client.sock.close()
    return failed


def start_warm(plan, checker):
    """Launches SETUP_REPEATS daemons, each to the end of its warm-up,
    keeping the last; returns (daemon, setup seconds, warm-up failures,
    warm-up requests)."""
    setup, failed, daemon = [], 0, None
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        daemon = Daemon()
        try:
            failed += warm_up(plan, checker)
        except Exception:
            daemon.stop()
            raise
        setup.append(time.perf_counter() - t0)
        if k + 1 < SETUP_REPEATS:
            daemon.stop()
    return daemon, setup, failed, SETUP_REPEATS * len(plan.warmup)


def cache_counts(stats):
    cache = stats["cache"]
    return cache["hits"], cache["misses"], cache["evictions"]


def end_to_end(latency_s, throughput, setup, cpu_share):
    """(metrics, report) of a timed run."""
    lat_us = [s * 1e6 for s in latency_s]
    p99 = percentile(lat_us, 99.0)
    metrics = {
        "latency_p50_us": {"value": statistics.median(lat_us), "unit": "us"},
        "latency_p99_us": {"value": p99, "unit": "us"},
        "throughput_rps": {"value": throughput, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    report = {
        "latency_samples": len(lat_us),
        "latency_beyond_p99": sum(1 for v in lat_us if v > p99),
        "driver_cpu_share": round(cpu_share, 4),
        "driver_saturated": cpu_share > 0.5,
    }
    if cpu_share > 0.5:
        log(f"driver was {cpu_share:.0%} busy: throughput_rps measures the "
            "driver, not windim")
    return metrics, report


def miss_share(checker):
    """Cache miss share between the first and last stats reply the
    stream carried (pipelined-mix sends one per ten requests)."""
    report = {}
    if len(checker.stats_replies) >= 2:
        h0, m0, _ = cache_counts(checker.stats_replies[0])
        h1, m1, _ = cache_counts(checker.stats_replies[-1])
        report["cache_miss_share"] = ratio(m1 - m0, (h1 - h0) + (m1 - m0))
        report["cache_lookups"] = (h1 - h0) + (m1 - m0)
    return report


def traced_session(plan, checker, daemon, seconds):
    """Half the time untraced, half with the trace buffer drained; then
    the request path's layers in process.  Returns (metrics, report,
    the untraced and traced LoopResults, and the layer samples)."""
    base = closed_loop(plan, checker, seconds / 2.0)
    before = json.loads(daemon.request('{"op":"stats","id":"b"}'))
    tap = TraceTap()
    try:
        res = closed_loop(plan, checker, seconds / 2.0, tap)
    finally:
        tap.sock.close()
    after = json.loads(daemon.request('{"op":"stats","id":"a"}'))
    daemon.stop()
    metrics, report = {}, {}
    layers = probe_layers(plan.pool)
    handle = layers.pop("handle_us_by_line")
    add_timing(metrics, report, "serve.transport_us", "us",
               [rtt * 1e6 - handle[idx] for idx, rtt in base.rtt_by_idx])
    for name in ("serve.handle_us", "serve.protocol.parse_us",
                 "serve.cache.lookup_us", "serve.cache.compile_us",
                 "serve.workspace_lease_us"):
        add_timing(metrics, report, name, "us", layers[name])
    h0, m0, e0 = cache_counts(before["result"])
    h1, m1, e1 = cache_counts(after["result"])
    hits, misses, evictions = h1 - h0, m1 - m0, e1 - e0
    metrics["serve.cache.hit_ratio"] = {"value": ratio(hits, hits + misses),
                                        "unit": "ratio"}
    metrics["serve.cache.lookups"] = {"value": hits + misses,
                                      "unit": "count"}
    metrics["serve.cache.evictions"] = {"value": evictions, "unit": "count"}
    add_timing(metrics, report, "serve.queue_wait_us", "us", tap.queue_us)
    metrics["serve.trace.requests"] = {"value": tap.requests,
                                       "unit": "count"}
    dropped = tap.dropped[-1] - tap.dropped[0] if tap.dropped else 0
    metrics["serve.trace.dropped"] = {"value": dropped, "unit": "count"}
    return metrics, report, base, res, layers


def run_serve(plan, seconds, trace):
    checker = Checker(plan, reference_replies(plan.pool))
    daemon, setup, failed, attempted = start_warm(plan, checker)
    try:
        if not trace:
            res = closed_loop(plan, checker, seconds)
        else:
            metrics, report, base, res, layers = traced_session(
                plan, checker, daemon, seconds)
    finally:
        daemon.stop()
    if not trace:
        metrics, report = end_to_end(
            res.latency_s, ratio(res.ok_in_window, res.last_ok), setup,
            res.cpu_share)
        report.update(miss_share(checker))
        return (attempted + res.attempted, failed + res.failed,
                checker.failures, metrics, report)

    base_p50 = statistics.median(base.latency_s)
    metrics["trace.overhead_share"] = {
        "value": statistics.median(res.latency_s) / base_p50 - 1.0,
        "unit": "ratio"}
    metrics["driver.cpu_share"] = {"value": res.cpu_share, "unit": "ratio"}
    # Front end, search and solver on this workload's own topologies.
    a, f = front_end_layers(metrics, report,
                            write_specs(plan.specs[:8], "serve"), layers)
    return (attempted + base.attempted + res.attempted + a,
            failed + base.failed + res.failed + f, checker.failures,
            metrics, report)


def solver_layers(metrics, report, layers):
    add_timing(metrics, report, "solver.solve_us", "us",
               layers["solver.solve_us"])
    add_timing(metrics, report, "solver.ns_per_cell_iter", "ns",
               layers["solver.ns_per_cell_iter"])
    iterations = layers["solver.iterations"]
    solves = len(iterations)
    metrics["solver.solves"] = {"value": solves, "unit": "count"}
    metrics["solver.iterations_per_solve"] = {
        "value": ratio(sum(iterations), solves), "unit": "count"}
    metrics["solver.sigma_refresh_ratio"] = {
        "value": ratio(sum(layers["solver.sigma_refreshes"]),
                       sum(iterations)), "unit": "ratio"}
    metrics["solver.unconverged_share"] = {
        "value": ratio(solves - sum(layers["solver.converged"]), solves),
        "unit": "ratio"}


# --------------------------------------------------------------- batch


def write_specs(specs, prefix):
    paths = []
    for i, spec in enumerate(specs):
        path = os.path.join(RUN_DIR, f"{prefix}-{i}.net")
        with open(path, "w") as f:
            f.write(spec)
        paths.append(path)
    return paths


def run_cli(path, *extra):
    """(wall seconds, exit code, printed optimum) of one dimension run."""
    t0 = time.perf_counter()
    proc = subprocess.run([CLI, "dimension", path, *extra],
                          capture_output=True, text=True, timeout=170)
    wall = time.perf_counter() - t0
    windows = None
    for line in proc.stdout.splitlines():
        if line.startswith("windows:"):
            windows = line.split(":", 1)[1].strip()
    return wall, proc.returncode, windows


def front_end_layers(metrics, report, paths, layers, inproc=None):
    """cli.*, windim.*, search.* and solver.* over `paths`: in-process
    dimension runs, and windim_cli dimension runs minus their
    in-process parse, compile and search time.  Returns (attempted,
    failed) of the optimum checks."""
    inproc = inproc or probe_dimension(paths)
    process_ms, self_ms, failed = [], [], 0
    for path in paths:
        ref = inproc[path]
        inside_ms = (ref["parse_us"] + ref["compile_us"] +
                     ref["dimension_us"]) / 1e3
        for _ in range(CLI_REPEATS):
            wall, code, windows = run_cli(path)
            failed += code != 0 or windows != ref["windows"]
            process_ms.append(wall * 1e3 - inside_ms)
        self_ms.append((ref["dimension_us"] - ref["solve_us"]) / 1e3)
    add_timing(metrics, report, "cli.parse_us", "us", layers["cli.parse_us"])
    add_timing(metrics, report, "windim.compile_us", "us",
               layers["windim.compile_us"])
    add_timing(metrics, report, "cli.process_ms", "ms", process_ms)
    add_timing(metrics, report, "search.self_ms", "ms", self_ms)
    evaluations = sum(inproc[p]["evaluations"] for p in paths)
    probes = evaluations + sum(inproc[p]["cache_hits"] for p in paths)
    metrics["search.runs"] = {"value": len(paths), "unit": "count"}
    metrics["search.evaluations"] = {"value": evaluations, "unit": "count"}
    metrics["search.probes"] = {"value": probes, "unit": "count"}
    metrics["search.memo_hit_ratio"] = {
        "value": ratio(probes - evaluations, probes), "unit": "ratio"}
    solver_layers(metrics, report, layers)
    return CLI_REPEATS * len(paths), failed


def run_batch(seed, seconds, trace):
    per_size = max(2, seconds + seconds // 2)
    if trace:
        per_size = max(2, per_size // 4)
    specs = workloads.batch_specs(seed, per_size)
    order = [(label, i) for i in range(per_size) for label in specs]

    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        paths = {label: write_specs(specs[label], label) for label in specs}
        run_cli(paths["c12"][0])
        setup.append(time.perf_counter() - t0)

    failures = collections.Counter()
    walls = collections.defaultdict(list)
    results = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for label, i in order:
        wall, code, windows = run_cli(paths[label][i])
        walls[label].append(wall)
        results.append((label, i, wall, code, windows))
    timed = time.perf_counter() - t0
    cpu_share = (time.process_time() - cpu0) / timed
    traced = []
    if trace:
        metrics_out = os.path.join(RUN_DIR, "metrics.json")
        for label, i in order:
            traced.append(run_cli(paths[label][i],
                                  f"--metrics-out={metrics_out}")[0])

    all_paths = [paths[label][i] for label, i in order]
    inproc = probe_dimension(all_paths)
    latency_s = []
    for label, i, wall, code, windows in results:
        ok = code == 0 and windows == inproc[paths[label][i]]["windows"]
        if not ok:
            failures["exit_code" if code else "wrong_optimum"] += 1
        latency_s.append(wall if ok else FAILED_S)
    failed = sum(failures.values())
    attempted = len(results)
    if not trace:
        metrics, report = end_to_end(latency_s, (attempted - failed) / timed,
                                     setup, cpu_share)
        report["specs_per_size"] = per_size
        for label in specs:
            mid, tail, pct, n = summarize([w * 1e3 for w in walls[label]])
            report["dimension_ms." + label] = {
                "value": mid, "unit": "ms", "tail": tail, "tail_pct": pct,
                "n": n}
        return attempted, failed, failures, metrics, report

    # The request path on this workload's specs: one evaluate per spec
    # at its hop-count windows, over the socket and in process.
    lines = [workloads.evaluate_line(spec, workloads.spec_hops(spec), n)
             for n, spec in enumerate(s for label in specs
                                      for s in specs[label])]
    plan = workloads.ServePlan(
        "dimension-batch", seed, 1, 1, lines, [True] * len(lines),
        [], list(range(len(lines))),
        lambda rng: rng.randint(0, len(lines) - 1))
    checker = Checker(plan, reference_replies(lines))
    daemon, _, warm_failed, warm_attempted = start_warm(plan, checker)
    try:
        metrics, report, base, res, layers = traced_session(
            plan, checker, daemon, 4.0)
    finally:
        daemon.stop()
    attempted += warm_attempted + base.attempted + res.attempted
    failed += warm_failed + base.failed + res.failed
    failures.update(checker.failures)
    metrics["trace.overhead_share"] = {
        "value": sum(traced) / sum(r[2] for r in results) - 1.0,
        "unit": "ratio"}
    metrics["driver.cpu_share"] = {"value": cpu_share, "unit": "ratio"}
    a, f = front_end_layers(metrics, report, all_paths[:9], layers, inproc)
    return attempted + a, failed + f, failures, metrics, report


# ---------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        build()
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        os.makedirs(RUN_DIR)
        if args.workload == "dimension-batch":
            outcome = run_batch(args.seed, args.seconds, args.trace)
        else:
            plan = (workloads.interactive_plan(args.seed)
                    if args.workload == "interactive"
                    else workloads.pipelined_mix_plan(args.seed))
            outcome = run_serve(plan, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        log(f"error: {e}")
        return 1
    attempted, failed, failures, metrics, report = outcome
    wanted = ([name for name, _, _ in catalog.per_layer()] if args.trace
              else [name for name, _, _, _ in catalog.END_TO_END])
    missing = [name for name in wanted if name not in metrics]
    if missing:
        log(f"error: metrics not measured: {missing}")
        return 1
    report.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(),
        "error_share": ratio(failed, attempted),
        "failures": dict(failures),
    })
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
