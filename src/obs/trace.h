// Structured search trace: one record per pattern-search probe, in the
// order the search makes them.
//
// Determinism contract (DESIGN.md §8): the search is sequential and each
// objective value is a pure function of the window vector, so the trace
// of a run — including `cache_hit` ("this point was already probed
// earlier in the run") and the warm-start `anchor` — is a function of
// the problem and options alone, byte-identical on any machine.  The
// JSONL keeps a constant `"thread":0` field so existing readers of the
// format see no change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace windim::obs {

struct TraceRecord {
  std::uint64_t step = 0;          // 0-based probe index
  std::vector<int> windows;        // the probed window vector
  double objective = 0.0;          // F: the search objective value
  /// Full objective vector of the probe (search/objective.h); [F] for
  /// scalar objectives, larger for the fairness/utility family.
  std::vector<double> objective_vector;
  /// Total constraint slack (<= 0 means feasible; scalar objectives
  /// always 0).
  double violation = 0.0;
  double power = 0.0;              // P: network power at this point
  std::string solver;              // registry solver name
  bool cache_hit = false;          // point already probed in this run
  std::vector<int> anchor;         // warm-start anchor windows ([] = cold)
};

/// Bounded ring of TraceRecords; drop-oldest on overflow.  Appends are
/// mutex-guarded so a reader on another thread sees whole records.
class SearchTrace {
 public:
  explicit SearchTrace(std::size_t capacity = 1 << 16);

  void append(TraceRecord record);
  void clear();

  /// Records in append order (oldest surviving first).
  [[nodiscard]] std::vector<TraceRecord> records() const;
  [[nodiscard]] std::uint64_t total_appended() const;
  /// Records evicted by ring overflow.
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// One JSON object per line, fixed field order:
  /// {"step":..,"windows":[..],"F":..,"obj":[..],"viol":..,"P":..,
  ///  "solver":"..","cache_hit":..,"anchor":[..],"thread":0}\n
  [[nodiscard]] std::string to_jsonl() const;
  /// Returns false (and leaves no partial file behind the caller's
  /// expectations) if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  // index of the oldest record once full
  std::uint64_t total_ = 0;
};

}  // namespace windim::obs
