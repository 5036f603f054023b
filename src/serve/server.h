// The `windim serve` daemon: a long-lived request-batching front end
// over the compile-once/solve-many engine.
//
// One Server owns the LRU model cache, the worker pool, one chain-block
// sweep pool and a shared WorkspacePool; concurrent requests batch onto
// the worker pool with per-request workspace leases, so the warm-path
// allocation guarantees of the engine survive intact under a mixed
// request stream.
//
// Transport is pluggable around one thread-safe entry point,
// handle_line(): serve_stream() speaks NDJSON over any istream/ostream
// pair (the --stdio mode the conformance and concurrency tests drive),
// serve_unix() accepts connections on a Unix-domain socket with a
// graceful SIGTERM drain.  Both preserve REQUEST ORDER per connection
// while letting requests execute concurrently: a bounded deque of
// futures pipelines up to ServeOptions::max_inflight lines and replies
// are written strictly FIFO.
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
// -> workspace lease -> solve) on an injectable clock, lands a digest
// in the flight recorder, and feeds per-op sliding-window rates and
// latency quantiles.  The `trace`, `metrics` and `dump` ops (and
// SIGUSR1 under serve_unix) read that state without stopping the
// daemon.  Windowed values live OUTSIDE the cumulative
// obs::MetricsRegistry, so the byte-stable snapshot contract of the
// PR 4/5 metrics survives untouched.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
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
  /// SLO burn tracking and request traces.  The flight recorder stays
  /// on regardless — the black box must cover exactly the flights
  /// nobody expected to crash.
  bool enable_window = true;
  /// Trace-buffer ring size (requests whose span lists the `trace` op
  /// can still drain).
  std::size_t trace_capacity = 256;
  /// Flight-recorder ring size (last-N request digests).
  std::size_t flight_capacity = 512;
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
  std::uint64_t evaluate = 0;
  std::uint64_t dimension = 0;
  std::uint64_t pareto = 0;
  std::uint64_t scenario = 0;
  std::uint64_t fuzz_replay = 0;
  std::uint64_t stats = 0;
  std::uint64_t shutdown = 0;
  std::uint64_t trace = 0;
  std::uint64_t metrics = 0;
  std::uint64_t dump = 0;
};

class Server {
 public:
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

  /// NDJSON loop over a stream pair: reads lines from `in`, writes one
  /// reply line per request to `out` in request order, pipelining up to
  /// max_inflight requests onto the worker pool.  Returns 0 on a clean
  /// drain (EOF or shutdown op), and stops reading — but drains what is
  /// in flight — when a shutdown reply reaches the front of the queue.
  int serve_stream(std::istream& in, std::ostream& out);

  /// Unix-domain-socket accept loop at `path` (unlinked+rebound on
  /// start).  Each connection runs the serve_stream discipline on its
  /// own thread.  Returns 0 after a graceful drain triggered by either
  /// a shutdown op or SIGTERM/SIGINT; non-zero only for socket setup
  /// failures.  `on_ready`, when set, runs once the socket is
  /// listening (the smoke harness synchronizes on it).
  int serve_unix(const std::string& path,
                 const std::function<void()>& on_ready = nullptr);

  [[nodiscard]] ServeCounters counters() const;
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  /// Current OpenMetrics text exposition: the cumulative registry
  /// snapshot plus (when the live plane is on) the windowed
  /// windim_serve_window_* gauges, one row per op.
  [[nodiscard]] std::string exposition();
  [[nodiscard]] const FlightRecorder& flight() const noexcept {
    return flight_;
  }
  [[nodiscard]] TraceBuffer& traces() noexcept { return traces_; }
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
  /// What one intake poll produced.  kIdle lets a transport with a
  /// bounded read (the Unix socket) hand control back so finished
  /// replies flush while the client is quiet — a blocking transport
  /// (serve_stream) simply never returns it.
  enum class ReadResult { kLine, kIdle, kEof };

  /// The generic bounded-pipelining pump behind serve_stream/serve_unix:
  /// `next_line` yields the next request line, `write_line` emits one
  /// reply line.  Completed replies are written (strictly FIFO) as soon
  /// as they are ready, not only when the pipeline fills or the input
  /// ends.  Returns true when the loop ended because of a shutdown op
  /// (vs. plain EOF).
  bool pump(const std::function<ReadResult(std::string&)>& next_line,
            const std::function<void(const std::string&)>& write_line);

  /// Per-op live-plane state: windowed request/error/SLO-breach rates
  /// and a windowed latency sketch.  windows_[kNumOps] is the all-ops
  /// aggregate.
  struct OpWindow {
    obs::WindowCounter requests;
    obs::WindowCounter errors;
    obs::WindowCounter slo_breaches;
    obs::WindowHistogram latency_us;

    explicit OpWindow(obs::WindowClock* clock)
        : requests(clock),
          errors(clock),
          slo_breaches(clock),
          latency_us(clock) {}
  };

  /// handle_line with the transport's enqueue timestamp: the gap to the
  /// worker pickup becomes the request's "queue" span, and windowed
  /// latency covers the full client-visible interval.
  [[nodiscard]] Reply handle_line(const std::string& line,
                                  std::uint64_t enqueued_at_us);
  [[nodiscard]] Reply execute(const Request& request, RequestTrace& trace,
                              bool& ok, ErrorCode& code);
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

  /// Every reply path funnels through here: flight digest, windowed
  /// rates/latency, SLO accounting, trace push, fault dump.
  void finish_request(const std::optional<Op>& op, RequestTrace&& trace,
                      std::uint64_t t0_us, double deadline_ms, bool ok,
                      ErrorCode code);
  /// Clock for stage spans; null when the live plane is off (spans are
  /// skipped entirely, no clock reads on the hot path).
  [[nodiscard]] obs::WindowClock* span_clock() const noexcept {
    return options_.enable_window ? clock_ : nullptr;
  }
  void append_window_gauges(std::vector<obs::ExpoGauge>& out);

  /// The shared sweep pool for a request that asks for parallel
  /// chain-block sweeps (solver_threads > 1), else null.
  [[nodiscard]] util::ThreadPool* sweep_pool(const Request& request) {
    return request.solver_threads > 1 ? &sweep_pool_ : nullptr;
  }

  ServeOptions options_;
  util::ThreadPool pool_;
  /// One chain-block sweep pool for every request, sized to the
  /// hardware: a request's solver_threads only switches it on, so no
  /// request can make the daemon spawn threads.
  util::ThreadPool sweep_pool_;
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
  TraceBuffer traces_;
  std::vector<std::unique_ptr<OpWindow>> windows_;  // kNumOps + 1 entries
  std::atomic<std::uint64_t> next_seq_{0};

  obs::Histogram latency_evaluate_;
  obs::Histogram latency_dimension_;
  obs::Histogram latency_pareto_;
  obs::Histogram latency_scenario_;
  obs::Histogram latency_fuzz_replay_;
  obs::Histogram latency_stats_;
  obs::Histogram latency_trace_;
  obs::Histogram latency_metrics_;
  obs::Histogram latency_dump_;
};

}  // namespace windim::serve
