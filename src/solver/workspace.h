// Per-thread reusable solve arena.
//
// Every solver::Solver::solve call scratch-allocates from a Workspace
// instead of the heap: a monotonic bump arena that is rewound at the
// start of each solve and only grows until it has seen the largest
// solve of the run.  After that warm-up, repeated evaluations in
// pattern_search / dimension_windows perform ZERO heap allocations —
// the property the perf-baseline CI job asserts through the instrumented
// counters below.
//
// Lifecycle contract:
//   - A Workspace belongs to one thread at a time (no internal locking).
//   - Solver::solve(model, population, ws) calls ws.reset() on entry;
//     the spans inside the previously returned Solution are therefore
//     INVALID once the same workspace is reused.  Copy out anything
//     that must outlive the next solve.
//   - Frame saves/restores the bump pointer for scratch that dies
//     before the solve returns (e.g. the heuristic's per-chain
//     single-chain subproblem).
//
// Instrumentation: heap_allocations() counts the arena block
// allocations this workspace ever performed; the static
// total_heap_allocations() aggregates across all workspaces, which is
// what bench_perf_dimension samples around its timed region to prove
// the warm path allocation-free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "qn/compiled_model.h"
#include "qn/network.h"
#include "util/cancel.h"

namespace windim::mva {
struct ApproxMvaOptions;  // mva/approx.h
struct MvaWarmStart;
}  // namespace windim::mva

namespace windim::obs {
class ConvergenceRecorder;  // obs/convergence.h
}  // namespace windim::obs

namespace windim::solver {

/// Optional per-solve inputs the uniform Solver interface cannot carry
/// in its signature.  Solvers read the hints they understand and ignore
/// the rest; the engine clears/sets them around each solve.
struct SolveHints {
  /// Heuristic MVA: seed the fixed point from a nearby converged state,
  /// packed over the model's visited cells (mva/approx.h).
  const mva::MvaWarmStart* warm_start = nullptr;
  /// Heuristic MVA / Schweitzer: iteration options (tolerance, damping,
  /// sigma refresh threshold...).  Null = solver defaults.
  const mva::ApproxMvaOptions* mva = nullptr;
  /// Per-iteration telemetry sink for THIS solve (obs/convergence.h).
  /// Iterative solvers stream begin/record/end into it; for solvers
  /// that stream nothing, solve_profiled records a summary
  /// (iterations == 1, empty ring).  Owned by the caller; must outlive
  /// the solve.  Null (the default) disables all recording.
  obs::ConvergenceRecorder* convergence = nullptr;
  /// State-space cap for enumerating solvers (product form); 0 = the
  /// solver's own default.  Exceeding it throws std::runtime_error,
  /// which applicability-probing callers treat as "skip".
  std::size_t max_states = 0;
  /// Cooperative stop signal (util/cancel.h).  Iterative solvers poll
  /// it once per sweep and throw util::CancelledError when it has
  /// expired — a mid-solve abort has no partial Solution worth
  /// returning.  Borrowed, must outlive the solve; null disables the
  /// polling.  This is a caller-owned hint: the evaluation engine
  /// preserves it across its per-solve hint resets.
  const util::CancelToken* cancel = nullptr;
};

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Rewinds the arena to empty, keeping every block's capacity.
  void reset() noexcept {
    block_ = 0;
    offset_ = 0;
  }

  /// Uninitialized scratch spans; valid until the next reset().  Byte
  /// sizes go through an overflow-checked multiply: a count that would
  /// wrap std::size_t throws qn::OverflowError instead of leasing a
  /// silently undersized block.
  [[nodiscard]] std::span<double> doubles(std::size_t n) {
    return {static_cast<double*>(
                raw(checked_bytes(n, sizeof(double)), alignof(double))),
            n};
  }
  [[nodiscard]] std::span<int> ints(std::size_t n) {
    return {static_cast<int*>(raw(checked_bytes(n, sizeof(int)), alignof(int))),
            n};
  }
  /// Zero-filled variants.
  [[nodiscard]] std::span<double> zeroed_doubles(std::size_t n) {
    auto s = doubles(n);
    for (double& x : s) x = 0.0;
    return s;
  }

  /// Scoped save/restore of the bump pointer for short-lived scratch.
  class Frame {
   public:
    explicit Frame(Workspace& ws) noexcept
        : ws_(ws), block_(ws.block_), offset_(ws.offset_) {}
    ~Frame() noexcept {
      ws_.block_ = block_;
      ws_.offset_ = offset_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Workspace& ws_;
    std::size_t block_;
    std::size_t offset_;
  };

  /// A mutable copy of `model.source()` with its closed-chain
  /// populations set to `population`, cached per compiled model: the
  /// copy is made once per (workspace, model) pair, after which only
  /// the populations are rewritten.  Lets legacy solver entry points
  /// participate in compile-once/solve-many without re-deriving the
  /// model every call.
  [[nodiscard]] qn::NetworkModel& scratch_model(
      const qn::CompiledModel& model, std::span<const int> population);

  // --- instrumentation --------------------------------------------------
  [[nodiscard]] std::size_t heap_allocations() const noexcept {
    return heap_allocations_;
  }
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }
  /// Arena block allocations across every Workspace of the process.
  [[nodiscard]] static std::uint64_t total_heap_allocations() noexcept {
    return global_heap_allocations_.load(std::memory_order_relaxed);
  }

  SolveHints hints;

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* raw(std::size_t bytes, std::size_t align);
  /// count * element_size with overflow detection (qn::OverflowError).
  static std::size_t checked_bytes(std::size_t count,
                                   std::size_t element_size);

  std::vector<Block> blocks_;
  std::size_t block_ = 0;   // current block index
  std::size_t offset_ = 0;  // bump offset inside blocks_[block_]
  std::size_t heap_allocations_ = 0;

  std::uint64_t scratch_key_ = 0;  // CompiledModel::id(); 0 = none yet
  std::optional<qn::NetworkModel> scratch_model_;

  static std::atomic<std::uint64_t> global_heap_allocations_;
};

/// A mutex-guarded pool of workspaces shared across worker threads and
/// across engine runs: pass one WorkspacePool to repeated
/// dimension_windows calls (see DimensionOptions::workspaces) and the
/// warm arenas survive thread churn, keeping even multi-run benchmarks
/// allocation-free after the first run.
class WorkspacePool {
 public:
  WorkspacePool() = default;

  /// RAII checkout; returns the workspace on destruction.
  class Lease {
   public:
    Lease(WorkspacePool& pool, Workspace* ws) noexcept
        : pool_(&pool), ws_(ws) {}
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    [[nodiscard]] Workspace& operator*() const noexcept { return *ws_; }
    [[nodiscard]] Workspace* operator->() const noexcept { return ws_; }

   private:
    WorkspacePool* pool_;
    Workspace* ws_;
  };

  [[nodiscard]] Lease acquire();

  /// Sum of heap_allocations() over all workspaces ever created here.
  [[nodiscard]] std::size_t heap_allocations() const;

 private:
  friend class Lease;
  void release(Workspace* ws);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Workspace>> all_;
  std::vector<Workspace*> idle_;
};

}  // namespace windim::solver
