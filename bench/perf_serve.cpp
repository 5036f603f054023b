// Acceptance benchmark for the `windim serve` daemon: drive one Server
// with a mixed NDJSON request stream — 2-class and 4-class chains plus
// a long cyclic (24-hop forward + reverse, the large-cyclic fixture
// shape) topology, evaluates interleaved with dimension searches and
// periodic stats probes — from several client threads, exactly the way
// concurrent connections batch onto the worker pool in production.
//
// Measured:
//   - sustained requests/second (median over --reps timed passes after
//     one warm-up pass that fills the model cache);
//   - per-request latency percentiles (p50 / p99, microseconds,
//     aggregated over every timed pass);
//   - cache hit rate and the server's error counter;
//   - the live observability plane's own cost, ns per request
//     (live_plane_ns_per_request: the latency windows, the span clock
//     reads and the flight record), a per-unit row of the baseline.
//
// Gates (exit 1 on violation):
//   - throughput >= 1000 req/s on the mixed stream;
//   - zero error replies (every request in the stream is well-formed);
//   - the live plane costs < 2% of the per-request CPU time.
//
// The result's keys are serve_-prefixed so it merges into the shared
// bench/baselines/BENCH_perf.json; the flags and the baseline check
// (perf_serve_checks) are bench/baseline.h's.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baseline.h"
#include "obs/json.h"
#include "obs/window.h"
#include "serve/flight.h"
#include "serve/server.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  windim::obs::JsonWriter::append_escaped(out, s);
  return out;
}

/// A line topology of `channels` hops with a forward class over the
/// full path and a reverse class back over the same hops — the closed
/// cycle every request stream below exercises at three sizes.
std::string chain_spec(int channels, double rate) {
  std::string spec;
  for (int i = 0; i <= channels; ++i) {
    spec += "node N" + std::to_string(i) + "\n";
  }
  for (int i = 0; i < channels; ++i) {
    spec += "channel N" + std::to_string(i) + " N" + std::to_string(i + 1) +
            " 50\n";
  }
  std::string path;
  for (int i = 0; i <= channels; ++i) path += " N" + std::to_string(i);
  spec += "class fwd rate " + std::to_string(rate) + " path" + path + "\n";
  std::string reverse;
  for (int i = channels; i >= 0; --i) reverse += " N" + std::to_string(i);
  spec += "class back rate " + std::to_string(rate / 2.0) + " path" +
          reverse + "\n";
  return spec;
}

/// Four classes over a 4-hop chain: both directions of the full path
/// plus both directions of the inner 2-hop segment.
std::string four_class_spec() {
  std::string spec;
  for (int i = 0; i <= 4; ++i) spec += "node N" + std::to_string(i) + "\n";
  for (int i = 0; i < 4; ++i) {
    spec += "channel N" + std::to_string(i) + " N" + std::to_string(i + 1) +
            " 60\n";
  }
  spec += "class c0 rate 12 path N0 N1 N2 N3 N4\n";
  spec += "class c1 rate 8 path N4 N3 N2 N1 N0\n";
  spec += "class c2 rate 10 path N1 N2 N3\n";
  spec += "class c3 rate 6 path N3 N2 N1\n";
  return spec;
}

/// The mixed request stream, ids 0..n-1: per 10-request block, one
/// dimension search, one large-cyclic evaluate, one stats probe, and
/// seven small evaluates alternating the 2- and 4-class models with
/// varying windows (so the cache serves four distinct topologies).
std::vector<std::string> request_lines(int n) {
  const std::string s2a = json_escape(chain_spec(2, 20.0));
  const std::string s2b = json_escape(chain_spec(3, 15.0));
  const std::string s4 = json_escape(four_class_spec());
  const std::string big = json_escape(chain_spec(24, 2.0));
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::string id = ",\"id\":" + std::to_string(i) + "}";
    switch (i % 10) {
      case 0:
        lines.push_back("{\"op\":\"dimension\",\"spec\":\"" + s2a +
                        "\",\"max_window\":6" + id);
        break;
      case 5:
        lines.push_back("{\"op\":\"evaluate\",\"spec\":\"" + big +
                        "\",\"windows\":[" + std::to_string(2 + i % 3) +
                        ",2]" + id);
        break;
      case 9:
        lines.push_back("{\"op\":\"stats\"" + id);
        break;
      default:
        if (i % 2 == 0) {
          lines.push_back("{\"op\":\"evaluate\",\"spec\":\"" + s4 +
                          "\",\"windows\":[" + std::to_string(1 + i % 4) +
                          ",2,1,3]" + id);
        } else {
          lines.push_back("{\"op\":\"evaluate\",\"spec\":\"" +
                          (i % 4 == 1 ? s2a : s2b) + "\",\"windows\":[" +
                          std::to_string(1 + i % 4) + "," +
                          std::to_string(1 + i % 2) + "]" + id);
        }
        break;
    }
  }
  return lines;
}

/// One pass of the stream: `clients` threads issue disjoint strided
/// slices against the shared server, recording per-request latencies.
/// Returns the pass wall time in seconds.
double run_pass(windim::serve::Server& server,
                const std::vector<std::string>& lines, int clients,
                std::vector<double>* latencies_us) {
  std::vector<std::vector<double>> per_client(
      static_cast<std::size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([c, clients, &lines, &server, &per_client]() {
        std::vector<double>& lat = per_client[static_cast<std::size_t>(c)];
        for (std::size_t i = static_cast<std::size_t>(c); i < lines.size();
             i += static_cast<std::size_t>(clients)) {
          const auto r0 = std::chrono::steady_clock::now();
          const windim::serve::Server::Reply reply =
              server.handle_line(lines[i]);
          const auto r1 = std::chrono::steady_clock::now();
          if (reply.json.empty()) std::abort();  // contract: never empty
          lat.push_back(
              std::chrono::duration<double, std::micro>(r1 - r0).count());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (latencies_us != nullptr) {
    for (const std::vector<double>& lat : per_client) {
      latencies_us->insert(latencies_us->end(), lat.begin(), lat.end());
    }
  }
  return std::chrono::duration<double>(t1 - t0).count();
}

double percentile(std::vector<double>& sorted_in_place, double p) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const double rank =
      p * static_cast<double>(sorted_in_place.size() - 1) / 100.0;
  const std::size_t idx = static_cast<std::size_t>(std::llround(rank));
  return sorted_in_place[std::min(idx, sorted_in_place.size() - 1)];
}

/// Direct measurement of the live observability plane's per-request
/// work, as Server::handle_line and finish_request do it: the span
/// clock reads, the per-op and aggregate latency-window updates and the
/// flight record (with the strings and span vector a real request
/// carries).  Measuring the instrumentation itself — instead of
/// differencing two noisy end-to-end timings — is what makes the cost
/// stable; perf_dimension's guard_cost_ns() sets the precedent.  The
/// cost is the fastest batch of a fastest_ms window, per request.
double live_plane_ns_per_request() {
  windim::obs::WindowClock* clock = &windim::obs::steady_window_clock();
  windim::obs::WindowHistogram op_latency(clock);
  windim::obs::WindowHistogram all_latency(clock);
  windim::serve::FlightRecorder flight(
      windim::serve::Server::kFlightCapacity);

  constexpr int kBatch = 1024;
  std::uint64_t seq = 0;
  std::uint64_t sink = 0;
  const double batch_ms = windim::bench::fastest_ms({[&] {
    for (int i = 0; i < kBatch; ++i) {
      // Span timing: four stages, a start and an end read each.
      for (int r = 0; r < 8; ++r) sink += clock->now_us();
      windim::serve::RequestTrace trace;
      trace.seq = ++seq;
      trace.id = "42";
      trace.op = "evaluate";
      trace.outcome = "ok";
      trace.topology_hash = sink;
      trace.spans = {{"parse", 0, 1},
                     {"cache_lookup", 1, 1},
                     {"workspace_lease", 2, 1},
                     {"solve", 3, 1}};
      op_latency.observe(50.0);
      all_latency.observe(50.0);
      flight.record(std::move(trace));
    }
  }})[0];
  if (sink == 42) std::abort();  // keep the clock reads observable
  return batch_ms * 1e6 / kBatch;
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 600;
  int clients = 4;
  windim::bench::PerfRun run("perf_serve", 5);
  if (const std::optional<int> rc = run.parse(
          argc, argv, {{"--requests", &requests}, {"--clients", &clients}})) {
    return *rc;
  }
  const int reps = run.reps();
  requests = std::max(requests, 10);  // every op of a 10-request block

  const std::vector<std::string> lines = request_lines(requests);

  windim::serve::ServeOptions options;
  options.threads = clients;
  options.enable_metrics = true;
  windim::serve::Server server(options);

  // Warm-up pass: compiles all four topologies into the cache and grows
  // the workspace pool to its high-water mark, so the timed passes see
  // the steady daemon state.
  (void)run_pass(server, lines, clients, nullptr);

  std::vector<double> pass_seconds;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(requests) *
                       static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    pass_seconds.push_back(run_pass(server, lines, clients, &latencies_us));
  }
  std::sort(pass_seconds.begin(), pass_seconds.end());
  const double median_seconds = pass_seconds[pass_seconds.size() / 2];
  const double requests_per_sec =
      static_cast<double>(requests) / median_seconds;

  // Live-plane cost as a fraction of the per-request CPU time the
  // stream actually consumed (clients threads each busy for the pass).
  const double live_ns = live_plane_ns_per_request();
  const double request_cpu_ns = static_cast<double>(clients) * 1e9 /
                                std::max(requests_per_sec, 1.0);
  const double window_overhead_pct = 100.0 * live_ns / request_cpu_ns;
  const double p50_us = percentile(latencies_us, 50.0);
  const double p99_us = percentile(latencies_us, 99.0);

  const windim::serve::ServeCounters counters = server.counters();
  const windim::serve::CacheStats cache = server.cache_stats();
  const double hit_rate =
      cache.hits + cache.misses > 0
          ? static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses)
          : 0.0;
  const bool error_free = counters.errors == 0;

  std::printf(
      "mixed serve stream: %d requests x %d reps, %d client threads\n"
      "  throughput %10.1f req/s   (median pass %.3f ms)\n"
      "  live plane %10.3f %% overhead (%.0f ns/request of %.0f ns "
      "request CPU)\n"
      "  latency    p50 %8.1f us   p99 %8.1f us\n"
      "  cache      %llu hits / %llu misses (hit rate %.4f), %llu entries\n"
      "  counters   %llu requests, %llu ok, %llu errors\n",
      requests, reps, clients, requests_per_sec, median_seconds * 1e3,
      window_overhead_pct, live_ns, request_cpu_ns,
      p50_us, p99_us, static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses), hit_rate,
      static_cast<unsigned long long>(cache.entries),
      static_cast<unsigned long long>(counters.requests),
      static_cast<unsigned long long>(counters.ok),
      static_cast<unsigned long long>(counters.errors));

  bool pass = true;
  if (requests_per_sec < 1000.0) {
    std::printf("FAIL: throughput below 1000 req/s\n");
    pass = false;
  }
  if (!error_free) {
    std::printf("FAIL: the well-formed stream produced error replies\n");
    pass = false;
  }
  if (window_overhead_pct >= 2.0) {
    std::printf("FAIL: live plane costs %.3f%% of serve throughput "
                "(budget < 2%%)\n",
                window_overhead_pct);
    pass = false;
  }
  if (pass) std::printf("PASS\n");

  windim::obs::JsonWriter& w = run.json();
  w.key("serve_requests");
  w.value(requests);
  w.key("serve_reps");
  w.value(reps);
  w.key("serve_clients");
  w.value(clients);
  w.key("serve_requests_per_sec");
  w.value(requests_per_sec);
  w.key("serve_window_overhead_pct");
  w.value(window_overhead_pct);
  w.key("serve_live_plane_ns_per_request");
  w.value(live_ns);
  w.key("serve_p50_us");
  w.value(p50_us);
  w.key("serve_p99_us");
  w.value(p99_us);
  w.key("serve_cache_hit_rate");
  w.value(hit_rate);
  w.key("serve_cache_entries");
  w.value(static_cast<double>(cache.entries));
  w.key("serve_errors");
  w.value(static_cast<double>(counters.errors));
  w.key("serve_error_free");
  w.value(error_free);
  w.key("serve_pass");
  w.value(pass);
  return run.finish(pass, windim::bench::perf_serve_checks());
}
