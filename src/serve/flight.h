// The daemon's black box: one request record per request, kept in one
// ring (DESIGN.md §14).
//
// Every request the daemon answers, successful or not, leaves one
// RequestTrace in the FlightRecorder: its op, id, topology hash,
// latency, outcome (the error-taxonomy code) and, while the live plane
// is on, its stage spans (queue -> parse -> cache lookup -> workspace
// lease -> solve) timed live on the injected clock.  Every view of the
// ring is a renderer over the same records:
//
//   - the `trace` serve op DRAINS it: it returns the records no earlier
//     `trace` returned, oldest first, and advances a drain cursor, so
//     one slow request can be explained end to end while the daemon
//     keeps running;
//   - on a fault, on SIGUSR1 and on the `dump` op the whole ring is
//     written out as JSONL digests, drained records included — the
//     post-mortem record of what the daemon was doing when things went
//     wrong.
//
// The ring is mutex-guarded (one push per request, far off the solve
// hot path) and allocation-bounded: its storage is sized at
// construction and records are overwritten in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace windim::obs {
class JsonWriter;
}

namespace windim::serve {

/// One stage of a request's lifecycle; times are microseconds on the
/// serve clock, start relative to the clock epoch.
struct RequestSpan {
  std::string name;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
};

/// One request's end-to-end record.
struct RequestTrace {
  std::uint64_t seq = 0;       // monotone per server
  std::string id;              // rendered request id ("null" if absent)
  std::string op;              // op string ("unknown" pre-parse)
  std::uint64_t topology_hash = 0;  // 0 when the request names no model
  std::uint64_t start_us = 0;  // intake time on the serve clock
  std::uint64_t total_us = 0;  // client-visible latency
  std::string outcome;         // "ok" or the ErrorCode string
  std::vector<RequestSpan> spans;  // empty while the live plane is off
};

/// Preallocated last-N record ring with a drain cursor.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  void record(RequestTrace trace);
  /// The records not yet drained, oldest first, at most `max` of them
  /// (0 = all); advances the cursor past them.  They stay in the ring.
  [[nodiscard]] std::vector<RequestTrace> drain(std::size_t max = 0);
  /// Oldest-first copy of the live ring, drained records included.
  [[nodiscard]] std::vector<RequestTrace> snapshot() const;
  /// One digest object per line, oldest first, fixed field order.
  [[nodiscard]] std::string to_jsonl() const;
  /// Writes to_jsonl() to `path`; false on I/O failure.
  bool dump(const std::string& path) const;

  [[nodiscard]] std::uint64_t total() const;
  /// Records in the ring not yet drained.
  [[nodiscard]] std::size_t buffered() const;
  /// Records overwritten before any drain returned them.
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<RequestTrace> ring_;
  std::uint64_t total_ = 0;    // ring_[total_ % capacity_] is next slot
  std::uint64_t drained_ = 0;  // records before this one never drain
  std::uint64_t dropped_ = 0;
};

/// Fixed-field-order digest of one record (shared by to_jsonl and the
/// `dump` op's reply renderer): seq, end_us (start_us + total_us), op,
/// id, topology_hash, latency_us, ok, outcome.
void write_digest_fields(obs::JsonWriter& w, const RequestTrace& t);

}  // namespace windim::serve
