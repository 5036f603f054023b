// Hierarchical span tracing in Chrome trace-event format.
//
// Spans cover the engine's macro phases — compile, search, probe,
// solve, iterate, oracle-check — and load directly into Perfetto or
// chrome://tracing (`windim_cli ... --trace-spans-out=FILE`).  Two kinds
// of span feed one tracer:
//
//   - REAL spans (Scope): RAII, measured with steady_clock on the
//     calling thread, nested through a thread-local span stack.  An
//     observed dimensioning run opens them only on its one calling
//     thread (the compile/search/explore phases), so their COUNT and
//     ORDER follow the sequential search.
//   - SYNTHESIZED spans (emit on an add_track() track): rebuilt after
//     the fact from deterministic data — an observed run renders the
//     probe -> solve -> iterate subtree of every probe from its probe
//     record (obs/probe.h, render_replay_spans) onto a virtual "replay"
//     track with a running cursor timestamp.  This is what makes the
//     whole trace of a run byte-identical from run to run once
//     timestamps and durations are normalized (the golden pins of
//     tests/golden/check.sh hold it).
//
// Budget (DESIGN.md §8/§9): every entry point first checks one relaxed
// atomic enabled flag; a disabled tracer does no clock reads, no
// allocation and no locking.  Thread/track ids are ordinals assigned in
// first-use order (the first thread to emit — the main thread in every
// CLI flow — is 0), never raw OS ids.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

namespace windim::obs {

struct SpanArg {
  std::string key;
  std::variant<double, std::int64_t, bool, std::string> value;
};

struct SpanEvent {
  std::string name;
  std::string cat = "windim";
  double ts_us = 0.0;   // relative to the tracer epoch
  double dur_us = 0.0;
  std::uint64_t track = 0;  // thread/track ordinal
  int depth = 0;            // nesting depth at emission (0 = root)
  std::vector<SpanArg> args;
};

class SpanTracer {
 public:
  explicit SpanTracer(std::size_t capacity_per_track = 1 << 16);
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// The process-wide tracer the built-in instrumentation records to
  /// (off by default, like MetricsRegistry::global()).
  [[nodiscard]] static SpanTracer& global();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// RAII real-time span on the calling thread.  All operations are
  /// no-ops when the tracer is null or disabled at construction.
  class Scope {
   public:
    Scope(SpanTracer* tracer, std::string_view name,
          std::string_view cat = "windim");
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void arg(std::string_view key, double v);
    void arg(std::string_view key, std::int64_t v);
    void arg(std::string_view key, int v) { arg(key, std::int64_t{v}); }
    void arg(std::string_view key, bool v);
    void arg(std::string_view key, std::string_view v);

   private:
    SpanTracer* tracer_ = nullptr;  // null when disarmed
    SpanEvent event_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Registers a named virtual track for synthesized events; returns
  /// its ordinal (shared id space with real threads).  Returns 0 when
  /// disabled — emitting on track 0 while disabled is a no-op anyway.
  [[nodiscard]] std::uint64_t add_track(std::string_view name);

  /// Appends a fully-built (synthesized) event; no-op when disabled.
  void emit(SpanEvent event);

  [[nodiscard]] std::vector<SpanEvent> events() const;
  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] std::uint64_t dropped() const;
  void clear();

  /// {"traceEvents":[...]} — thread_name metadata first, then complete
  /// ("ph":"X") events grouped by track in append order.  Loadable in
  /// Perfetto / chrome://tracing.
  [[nodiscard]] std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  friend class Scope;

  [[nodiscard]] std::uint64_t thread_ordinal_locked();
  [[nodiscard]] double now_us() const;
  void append_locked(SpanEvent&& event);

  std::atomic<bool> enabled_{false};
  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::vector<SpanEvent> events_;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
  std::unordered_map<std::thread::id, std::uint64_t> thread_ordinals_;
  std::vector<std::pair<std::uint64_t, std::string>> track_names_;
  std::uint64_t next_track_ = 0;
};

}  // namespace windim::obs
