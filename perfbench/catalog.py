"""Every metric the windim benchmark prints, with the end-to-end metric
and workload each per-layer metric should move.

BENCHMARK.json lists the same names, units and directions (its schema
has no room for the mapping, so it lives here); test_perfbench.py keeps
the two in step.
"""

WORKLOADS = {
    "interactive":
        "2 connections, one evaluate in flight each, all cache hits: "
        "transport and per-request overhead are nearly the whole round "
        "trip",
    "pipelined-mix":
        "4 connections x 8 in flight, 8 evaluate/1 dimension/1 stats per "
        "10, 96 topologies > 64-entry cache: throughput, worker queue and "
        "miss/compile path",
    "dimension-batch":
        "sequential windim_cli dimension runs on 12/24/48-class specs: "
        "solver and pattern search do nearly all the work, the daemon "
        "none",
}

# name, unit, better, bound (share of the parent's median).  Every
# workload prints all four.  An operation is one request on the serve
# workloads and one windim_cli dimension process on dimension-batch:
#   latency_p50_us  median time from send to reply (or process wall time)
#   latency_p99_us  99th percentile of it; a failed operation counts as
#                   missing any limit
#   throughput_rps  correct operations completed per second
#   setup_s         serve: daemon launch to the end of the cache-filling
#                   warm-up; dimension-batch: writing the specs plus the
#                   first, untimed run; median of 3 either way
# On the shared 4-vCPU host the benchmark was sized on, the same
# CPU-bound run drifts 10-15% from one minute to the next, so the bounds
# sit at the 0.25 cap.
END_TO_END = [
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p99_us", "us", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
]

# Timings are printed three ways: NAME (median), NAME.tail (the highest
# of p99.9/p99/p90/p75 with at least ten samples beyond it, else the
# median) and NAME.n
# (sample count).
TIMINGS = [
    ("serve.transport_us", "us",
     "latency_p50_us/latency_p99_us on interactive, throughput_rps on "
     "pipelined-mix; unchanged on dimension-batch"),
    ("serve.handle_us", "us",
     "latency_p50_us on interactive once transport stops dominating; "
     "throughput_rps on pipelined-mix"),
    ("serve.protocol.parse_us", "us",
     "latency_p50_us on interactive; throughput_rps on pipelined-mix"),
    ("serve.cache.lookup_us", "us",
     "latency_p50_us on interactive; throughput_rps on pipelined-mix"),
    ("serve.workspace_lease_us", "us",
     "latency_p50_us on interactive; throughput_rps on pipelined-mix"),
    ("serve.cache.compile_us", "us",
     "latency_p99_us and throughput_rps on pipelined-mix"),
    ("serve.queue_wait_us", "us", "latency_p99_us on pipelined-mix"),
    ("cli.parse_us", "us",
     "latency_p50_us on dimension-batch (dimension_ms.c12)"),
    ("windim.compile_us", "us",
     "latency_p50_us on dimension-batch (dimension_ms.c12)"),
    ("cli.process_ms", "ms",
     "latency_p50_us on dimension-batch (dimension_ms.c12)"),
    ("search.self_ms", "ms",
     "latency_p50_us/latency_p99_us/throughput_rps on dimension-batch "
     "(dimension_ms.c24, dimension_ms.c48)"),
    ("solver.solve_us", "us",
     "throughput_rps and latency_p99_us on dimension-batch "
     "(dimension_ms.c48) first; a small share of latency_p50_us on "
     "interactive"),
    ("solver.ns_per_cell_iter", "ns",
     "throughput_rps on dimension-batch (dimension_ms.c48)"),
]

# Counts and ratios: name, unit, better, what it should move.  Every
# ratio is printed next to its base.
SCALARS = [
    ("serve.cache.hit_ratio", "ratio", "higher",
     "latency_p99_us and throughput_rps on pipelined-mix (1.0 on "
     "interactive); base serve.cache.lookups"),
    ("serve.cache.lookups", "count", "higher",
     "base of serve.cache.hit_ratio"),
    ("serve.cache.evictions", "count", "lower",
     "latency_p99_us and throughput_rps on pipelined-mix"),
    ("serve.trace.requests", "count", "higher",
     "base of serve.queue_wait_us and serve.trace.dropped"),
    ("serve.trace.dropped", "count", "lower",
     "completeness of serve.queue_wait_us"),
    ("search.runs", "count", "higher", "base of the search.* counts"),
    ("search.evaluations", "count", "lower",
     "throughput_rps and latency on dimension-batch"),
    ("search.probes", "count", "lower", "base of search.memo_hit_ratio"),
    ("search.memo_hit_ratio", "ratio", "higher",
     "throughput_rps on dimension-batch"),
    ("solver.solves", "count", "higher",
     "base of the solver.* ratios"),
    ("solver.iterations_per_solve", "count", "lower",
     "throughput_rps on dimension-batch"),
    ("solver.sigma_refresh_ratio", "ratio", "lower",
     "throughput_rps on dimension-batch; base solver iterations"),
    ("solver.unconverged_share", "ratio", "lower",
     "correctness of every optimum; base solver.solves"),
    ("driver.cpu_share", "ratio", "lower",
     "over 0.5 means throughput_rps measures the driver, not windim"),
    ("trace.overhead_share", "ratio", "lower",
     "tracing cost: traced over untraced latency_p50_us (serve) or wall "
     "time (dimension-batch), minus 1"),
]


def per_layer():
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for name, unit, _ in TIMINGS:
        out.append((name, unit, "lower"))
        out.append((name + ".tail", unit, "lower"))
        out.append((name + ".n", "count", "higher"))
    for name, unit, better, _ in SCALARS:
        out.append((name, unit, better))
    return out
