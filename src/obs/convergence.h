// Per-iteration solver telemetry: what a fixed-point solve actually did
// on its way to (or past) convergence.
//
// PR 4's solver metrics count solves and iterations in aggregate; this
// recorder keeps the shape of each individual solve — the residual
// sequence, per-chain signed deltas, damping and wall time per sweep —
// and classifies the outcome:
//
//   converged    residual fell below tolerance on a consistent iterate.
//   stagnated    the iteration stopped making progress.  Includes the
//                insidious cold-start case the PR 2 corpus worst case
//                pinned (delay-dominated single chain, 48.7% error):
//                the sigma estimate swallows the whole queue, the first
//                sweep reproduces the initialization exactly, and the
//                solver reports "converged" after one iteration having
//                never left its starting point.
//   oscillating  the per-chain deltas keep flipping sign (a limit cycle
//                of the damped map).
//   diverged     the residual grew over the recorded window.
//
// ConvergenceRecorder observes ONE solve.  Iterative solvers stream
// begin/record/end into it through SolveHints::convergence; callers of
// non-iterative solvers record a summary (iterations == 1, empty sample
// ring — the contract pinned by convergence_test).  A recorder belongs
// to one thread for the duration of the solve.  An observed dimensioning
// run keeps each fresh evaluation's finished SolveRecord in its probe
// record (obs/probe.h), whose renderers export the per-solve JSONL and
// the derived windim.convergence.* metrics.
//
// The sample ring is preallocated at begin_solve and never grows during
// the iteration; when a solve outlives the ring, the oldest sweeps are
// dropped (first/min/max/final residuals still cover every sweep).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace windim::obs {

enum class ConvergenceClass { kConverged, kStagnated, kOscillating, kDiverged };

[[nodiscard]] std::string_view to_string(ConvergenceClass c) noexcept;

/// Per-chain deltas are tracked for the first kMaxTrackedChains chains;
/// the max-residual stream always covers every chain.
inline constexpr int kMaxTrackedChains = 8;

struct IterationSample {
  std::uint64_t iteration = 0;  // 1-based sweep index
  /// The solver's stopping criterion this sweep (e.g. the APL CRIT
  /// crit/scale of the heuristic).
  double max_residual = 0.0;
  double damping = 1.0;
  /// Wall time of this sweep (since the previous sample), microseconds.
  double wall_us = 0.0;
  /// Signed relative per-chain deltas (tracked chains only).
  std::array<double, kMaxTrackedChains> chain_delta{};
};

struct SolveRecord {
  std::string solver;
  int num_chains = 0;
  int tracked_chains = 0;  // min(num_chains, kMaxTrackedChains)
  bool warm_started = false;
  int iterations = 0;
  bool converged = false;
  ConvergenceClass classification = ConvergenceClass::kConverged;
  /// Residual envelope over EVERY recorded sweep (not just the ring).
  double first_residual = 0.0;
  double final_residual = 0.0;
  double min_residual = 0.0;
  double max_residual = 0.0;
  double wall_us = 0.0;           // whole solve
  std::uint64_t samples_seen = 0;  // sweeps streamed (>= samples.size())
  /// Surviving ring contents, oldest first.
  std::vector<IterationSample> samples;
};

/// Classifies a finished record from its residual stream; see the file
/// comment for the rules.  Exposed for tests.
[[nodiscard]] ConvergenceClass classify(const SolveRecord& record) noexcept;

class ConvergenceRecorder {
 public:
  explicit ConvergenceRecorder(std::size_t ring_capacity = 128);

  // --- solver-side streaming (iterative solvers) ------------------------
  /// Starts recording a solve; discards any unfinished previous state.
  void begin_solve(std::string_view solver, int num_chains,
                   bool warm_started);
  /// Stages chain `chain`'s signed relative delta for the current sweep;
  /// chains >= kMaxTrackedChains are ignored.  Call before
  /// record_iteration.
  void record_chain(int chain, double signed_relative_delta) noexcept;
  /// Commits one sweep: the solver's stopping-criterion residual, the
  /// damping in effect, and (internally) the sweep's wall time.
  void record_iteration(double max_residual, double damping);
  /// Finalizes the record and classifies it.
  void end_solve(int iterations, bool converged);

  // --- caller-side summary (non-iterative solvers) ----------------------
  /// Records a solve that streamed nothing: empty ring, classification
  /// from `converged` alone.  Solver::solve_profiled calls this with
  /// iterations = 1 for every solver that did not stream.
  void record_summary(std::string_view solver, int iterations,
                      bool converged);

  /// Forgets any previous record without reclassifying; solve_profiled
  /// calls this on entry so a reused recorder always reflects the LAST
  /// solve.
  void reset() noexcept {
    recording_ = false;
    finished_ = false;
  }

  /// True once end_solve/record_summary produced a finished record.
  [[nodiscard]] bool has_record() const noexcept { return finished_; }
  [[nodiscard]] const SolveRecord& record() const noexcept { return record_; }
  [[nodiscard]] SolveRecord take_record();
  [[nodiscard]] std::size_t ring_capacity() const noexcept {
    return ring_capacity_;
  }

 private:
  void reset_ring();

  const std::size_t ring_capacity_;
  SolveRecord record_;
  bool recording_ = false;
  bool finished_ = false;
  std::size_t head_ = 0;  // oldest ring slot once full
  std::array<double, kMaxTrackedChains> staged_{};
  std::chrono::steady_clock::time_point solve_start_;
  std::chrono::steady_clock::time_point sweep_start_;
};

}  // namespace windim::obs
