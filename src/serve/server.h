// The `windim serve` daemon: a long-lived request-batching front end
// over the compile-once/solve-many engine.
//
// One Server owns the LRU model cache, the worker pool and a shared
// WorkspacePool; concurrent requests batch onto the worker pool with
// per-request workspace leases, so the warm-path
// allocation guarantees of the engine survive intact under a mixed
// request stream.
//
// Requests enter through one thread-safe entry point, handle_line(), and
// every transport runs one connection loop around it, serve_connection(),
// over a pair of file descriptors: --stdio runs it on fds 0 and 1, and
// serve_unix() runs it on each accepted Unix-domain socket.  The loop
// preserves REQUEST ORDER per connection while letting requests execute
// concurrently: up to ServeOptions::max_inflight lines are read ahead
// onto the worker pool, and replies are written strictly FIFO as soon
// as the oldest one is ready.
//
// Robustness contract (the fault-injection suite pins all of it):
//   - no request, however malformed, kills the process — every failure
//     maps to a typed error reply (serve/protocol.h);
//   - request lines and reply bodies are size-capped;
//   - per-request deadlines cancel cooperatively (util/cancel.h):
//     mid-solve expiry unwinds via util::CancelledError into a
//     deadline_exceeded reply;
//   - after shutdown is accepted, in-flight requests drain and every
//     later request is answered with shutting_down.
//
// Live observability (DESIGN.md §14) rides the same entry point: every
// request is traced through its stages (queue -> parse -> cache lookup
// -> workspace lease -> solve) on an injectable clock, lands as one
// record in the flight recorder, and feeds per-op sliding-window
// latency sketches, whose counts are the windowed request rates.  The
// `trace`, `metrics` and `dump` ops (and SIGUSR1 under serve_unix) read
// that state without stopping the daemon.  Windowed values live
// OUTSIDE the cumulative obs::MetricsRegistry, so the byte-stable
// snapshot contract of the PR 4/5 metrics survives untouched.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/expo.h"
#include "obs/metrics.h"
#include "obs/window.h"
#include "serve/cache.h"
#include "serve/flight.h"
#include "serve/protocol.h"
#include "solver/workspace.h"
#include "util/thread_pool.h"

namespace windim::serve {

struct ServeOptions {
  /// Worker threads executing requests; 0 or negative = hardware
  /// concurrency.
  int threads = 0;
  /// Compiled-model LRU capacity (entries).
  std::size_t cache_capacity = 64;
  /// A request line longer than this is answered with
  /// payload_too_large and never parsed.
  std::size_t max_request_bytes = 1u << 20;   // 1 MiB
  /// A reply body larger than this is replaced by payload_too_large.
  std::size_t max_response_bytes = 8u << 20;  // 8 MiB
  /// Deadline applied to requests that do not carry their own
  /// deadline_ms; 0 = none.
  double default_deadline_ms = 0.0;
  /// Per-connection pipelining depth: lines read ahead of the oldest
  /// unwritten reply.
  std::size_t max_inflight = 64;
  /// Turn the global obs::MetricsRegistry on so the windim.serve.*
  /// latency histograms (and the engine's PR 4/5 instrumentation)
  /// accumulate and surface through the `stats` op.
  bool enable_metrics = true;
  /// Live-plane clock; null = the process-wide steady clock.  Tests
  /// inject obs::ManualWindowClock / obs::SteppingWindowClock so every
  /// windowed value and span duration is a pure function of the
  /// request stream.
  obs::WindowClock* clock = nullptr;
  /// Master switch for the live plane: sliding-window rates/quantiles,
  /// SLO burn tracking, stage spans and the `trace` op.  The flight
  /// recorder stays on regardless — the black box must cover exactly
  /// the flights nobody expected to crash.
  bool enable_window = true;
  /// When set, SIGUSR1 under serve_unix writes the OpenMetrics
  /// exposition to this path (stdio-free scrape).
  std::string expo_path;
  /// When set, the flight recorder dumps its JSONL here on SIGUSR1, on
  /// the `dump` op, and on any internal-error reply (fault dump).
  std::string flight_path;
};

/// Aggregate request counters (always on, independent of the metrics
/// registry switch).
struct ServeCounters {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  /// Parsed requests per op, indexed by Op.
  std::array<std::uint64_t, kNumOps> by_op{};
};

class Server {
 public:
  /// Requests the flight recorder keeps: what `dump` lists and how far
  /// back `trace` reaches.
  static constexpr std::size_t kFlightCapacity = 512;

  explicit Server(ServeOptions options = {});

  struct Reply {
    std::string json;       // one reply line, no trailing newline
    bool shutdown = false;  // this request asked the server to drain
  };

  /// Executes one request line end to end and renders the reply.
  /// Thread-safe; never throws.  A well-formed evaluate / dimension /
  /// fuzz-replay reply is a pure function of the line (no wall-clock
  /// content), which is what the byte-identity suites pin.
  [[nodiscard]] Reply handle_line(const std::string& line);

  /// One NDJSON connection: reads request lines from `in_fd` and
  /// writes one reply line per request to `out_fd`, in request order,
  /// pipelining up to max_inflight requests onto the worker pool.
  ///   - The loop polls `in_fd` and the connection's eventfd, which each
  ///     pool task pokes once its reply is set, so a reply is written
  ///     as soon as it and every earlier one are ready: a client that
  ///     waits for each reply sees the daemon's own time, not a poll
  ///     timeout.  If eventfd fails, replies flush at the next input or
  ///     within one 50 ms poll.
  ///   - A line longer than max_request_bytes is answered
  ///     payload_too_large as soon as that many bytes have arrived; the
  ///     rest of it is dropped as it comes in.
  ///   - A last line without a newline is answered at end of input.
  ///   - The loop notices the drain (a shutdown op, or SIGTERM/SIGINT
  ///     under serve_unix) at its next input or wake, and a quiet
  ///     connection within one 50 ms poll; input it has not read by
  ///     then is not answered.
  /// Reading stops at end of input, at the drain, once a shutdown reply
  /// is written or once a reply cannot be written; requests already in
  /// flight still finish.  Returns 0, or 1 when a reply could not be
  /// written.  Neither fd is closed.
  int serve_connection(int in_fd, int out_fd);

  /// Unix-domain-socket accept loop at `path` (unlinked and rebound on
  /// start).  Each connection runs serve_connection() on its own thread.
  /// Returns after a graceful drain triggered by either a shutdown op
  /// or SIGTERM/SIGINT.  Throws std::system_error, naming the path and
  /// the reason, when the socket cannot be set up.  `on_ready`, when
  /// set, runs once the socket is listening (the smoke harness
  /// synchronizes on it).
  void serve_unix(const std::string& path,
                  const std::function<void()>& on_ready = nullptr);

  [[nodiscard]] ServeCounters counters() const;
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  /// Current OpenMetrics text exposition: the cumulative registry
  /// snapshot plus (when the live plane is on) the windowed
  /// windim_serve_window_* gauges, one row per op.
  [[nodiscard]] std::string exposition();
  /// The last kFlightCapacity request records.
  [[nodiscard]] const FlightRecorder& flight() const noexcept {
    return flight_;
  }
  /// SIGUSR1 entry: writes the exposition to expo_path and the flight
  /// JSONL to flight_path (whichever are configured).
  void write_live_dumps();
  [[nodiscard]] bool shutting_down() const noexcept {
    return shutting_down_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const ServeOptions& options() const noexcept {
    return options_;
  }

 private:
  /// Per-op live-plane state: windowed error and SLO-breach counts and
  /// a windowed latency sketch, whose count is the request count.
  /// windows_[kNumOps] is the all-ops aggregate.
  struct OpWindow {
    obs::WindowCounter errors;
    obs::WindowCounter slo_breaches;
    obs::WindowHistogram latency_us;

    explicit OpWindow(obs::WindowClock* clock)
        : errors(clock), slo_breaches(clock), latency_us(clock) {}
  };

  /// handle_line with the transport's enqueue timestamp: the gap to the
  /// worker pickup becomes the request's "queue" span, and windowed
  /// latency covers the full client-visible interval.
  [[nodiscard]] Reply handle_line(const std::string& line,
                                  std::uint64_t enqueued_at_us);
  [[nodiscard]] Reply execute(const Request& request, RequestTrace& trace,
                              bool& ok, ErrorCode& code);
  /// The opening of every model-backed op: the cached compile of the
  /// request's spec (a "cache_lookup" span) and, when the request names
  /// a solver, the check that the registry has it.
  [[nodiscard]] std::shared_ptr<const CachedModel> lookup_model(
      const Request& request, RequestTrace& trace);
  [[nodiscard]] std::string run_evaluate(const Request& request,
                                         RequestTrace& trace);
  [[nodiscard]] std::string run_dimension(const Request& request,
                                          RequestTrace& trace);
  [[nodiscard]] std::string run_pareto(const Request& request,
                                       RequestTrace& trace);
  [[nodiscard]] std::string run_scenario(const Request& request,
                                         RequestTrace& trace);
  [[nodiscard]] std::string run_fuzz_replay(const Request& request,
                                            RequestTrace& trace);
  [[nodiscard]] std::string run_stats(const Request& request);
  [[nodiscard]] std::string run_trace(const Request& request);
  [[nodiscard]] std::string run_metrics(const Request& request);
  [[nodiscard]] std::string run_dump(const Request& request);

  /// Every reply path funnels through here: windowed latency, SLO
  /// accounting, the flight record, fault dump.
  void finish_request(const std::optional<Op>& op, RequestTrace&& trace,
                      std::uint64_t t0_us, double deadline_ms, bool ok,
                      ErrorCode code);
  /// Clock for stage spans; null when the live plane is off (spans are
  /// skipped entirely, no clock reads on the hot path).
  [[nodiscard]] obs::WindowClock* span_clock() const noexcept {
    return options_.enable_window ? clock_ : nullptr;
  }
  void append_window_gauges(std::vector<obs::ExpoGauge>& out);

  ServeOptions options_;
  util::ThreadPool pool_;
  ModelCache cache_;
  solver::WorkspacePool workspaces_;
  std::atomic<bool> shutting_down_{false};

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> op_counts_[kNumOps] = {};  // indexed by Op
  std::atomic<std::uint64_t> slo_breach_totals_[kNumOps] = {};

  obs::WindowClock* clock_;
  FlightRecorder flight_;
  std::vector<std::unique_ptr<OpWindow>> windows_;  // kNumOps + 1 entries
  std::atomic<std::uint64_t> next_seq_{0};

  /// windim.serve.latency_us.<op> per op, indexed by Op; shutdown's
  /// slot is a default handle, which records nothing.
  std::array<obs::Histogram, kNumOps> latency_;
};

}  // namespace windim::serve
