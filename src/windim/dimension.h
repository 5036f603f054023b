// The WINDIM algorithm (thesis 4.4): dimension end-to-end windows to
// maximize network power.
//
// Wires the pattern search (src/search) to the window-evaluation engine
// (WindowProblem): the objective is F(E) = 1/P(E), the initial point is
// Kleinrock's hop-count vector (E_r = number of hops of chain r, thesis
// 4.4/4.6), and the search runs over integer windows bounded below by 1.
//
// A run is sequential: one memoized Hooke-Jeeves search on the calling
// thread, each evaluation warm-started from the nearest base point
// accepted so far.  F(E) is therefore a pure function of E and the
// options, and every trace, log and counter of a run is identical on
// any machine.  Each solve is serial too (solver/heuristic_mva.cc).
//
// Observation is one switch and one record: an observed run
// (DimensionOptions::observe) returns one obs::ProbeRecord per resolved
// probe in DimensionResult::probes, and the search trace, convergence
// log, replay spans and windim.convergence.* counters are renderers
// over that record (obs/probe.h).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/probe.h"
#include "search/pattern_search.h"
#include "solver/workspace.h"
#include "windim/objectives.h"
#include "windim/problem.h"

namespace windim::core {

/// What the search maximizes — the objective registry of
/// windim/objectives.h (kPower, kGeneralizedPower,
/// kThroughputUnderDelayCap, kAlphaFair, kPowerFairConstrained).
using DimensionObjective = ObjectiveKind;

struct DimensionOptions {
  /// Registry name of the evaluation solver (solver::SolverRegistry).
  /// Unknown names are rejected with std::invalid_argument listing the
  /// available solvers.
  std::string solver = "heuristic-mva";
  mva::ApproxMvaOptions mva;
  DimensionObjective objective = DimensionObjective::kPower;
  /// Exponent alpha for kGeneralizedPower.
  double power_exponent = 1.0;
  /// Delay cap (seconds) for kThroughputUnderDelayCap; optional extra
  /// mean-delay cap (0 = off) for kPowerFairConstrained.
  double max_delay = 0.0;
  /// Fairness aversion for kAlphaFair: 0 (max throughput), 1
  /// (proportional fair), 2 (TCP-fair) or +infinity (max-min).
  double alpha = 1.0;
  /// Jain-fairness floor in [0, 1] for kPowerFairConstrained (binding)
  /// and kAlphaFair (optional, 0 = off).
  double min_fairness = 0.0;
  /// Optional per-chain delay caps (seconds) for kPowerFairConstrained;
  /// empty = none, else one positive cap per class.
  std::vector<double> chain_delay_caps;
  /// Empty = Kleinrock hop-count initialization.
  std::vector<int> initial_windows;
  /// Inclusive window bounds for the search box.
  int min_window = 1;
  int max_window = 64;
  /// Pattern-search step schedule (see search::PatternSearchOptions).
  std::vector<int> initial_step;
  int max_step_reductions = 4;
  /// Seed each heuristic-MVA evaluation from the converged state of the
  /// nearest already-accepted base point (fewer fixed-point iterations
  /// for the neighboring probes pattern search generates).  Only
  /// solvers whose traits support warm starts use this.
  bool warm_start = true;
  /// Budget of fresh objective evaluations for the whole run.  On
  /// exhaustion the search returns its best point so far with
  /// DimensionResult::budget_exhausted set instead of throwing.
  std::size_t max_evaluations = 1'000'000;
  /// Optional shared workspace pool.  A caller-owned pool keeps the
  /// warm arenas alive across runs (zero allocations per evaluation
  /// after the first run — what bench_perf_dimension's allocation gate
  /// measures).  Null = a pool private to this run.
  solver::WorkspacePool* workspaces = nullptr;
  /// Observe the run: fill DimensionResult::probes, open the real
  /// "search"/"explore" spans and render the "replay" track into
  /// obs::SpanTracer::global() (both no-ops while that tracer is
  /// disabled), and add the run's windim.convergence.* counters to the
  /// global metrics registry (a no-op while it is disabled).  Off (the
  /// default), the run does no observation bookkeeping at all.
  bool observe = false;
  /// Cooperative deadline/cancellation token (util/cancel.h), polled
  /// before every probe and once per MVA sweep.  On
  /// expiry the search returns its best point so far with
  /// DimensionResult::cancelled set (same graceful unwind as budget
  /// exhaustion); a token that expires mid-solve aborts that solve via
  /// util::CancelledError, which propagates to the caller.  Null (the
  /// default) disables all polling.
  const util::CancelToken* cancel = nullptr;
};

struct DimensionResult {
  std::vector<int> optimal_windows;
  Evaluation evaluation;  // metrics at the optimum
  /// Full objective vector at the optimum (windim/objectives.h); a
  /// one-element [F] for the thesis scalars.
  std::vector<double> objective_vector;
  /// Total constraint slack at the optimum (<= 0 means the constraints
  /// hold; always 0 for the unconstrained scalars).
  double violation = 0.0;
  /// False when no window setting satisfied the objective's constraints
  /// (e.g. a delay cap below the minimum achievable delay); in that case
  /// `optimal_windows` is just the search's start and must not be used.
  bool feasible = true;
  /// True when the evaluation budget ran out before the pattern search
  /// finished; `optimal_windows` is then the best point found so far
  /// rather than a converged optimum.
  bool budget_exhausted = false;
  /// True when DimensionOptions::cancel expired mid-search;
  /// `optimal_windows` is the best point found before the stop.
  bool cancelled = false;
  std::size_t objective_evaluations = 0;
  std::size_t cache_hits = 0;
  /// Base-point trajectory of the pattern search (diagnostics).
  std::vector<std::pair<std::vector<int>, double>> base_points;
  /// One record per resolved probe, in probe order, when
  /// DimensionOptions::observe is set (empty otherwise); a fresh
  /// evaluation's record carries its SolveRecord.
  std::vector<obs::ProbeRecord> probes;
};

/// Runs WINDIM on `problem`.  Throws std::invalid_argument on malformed
/// options (e.g. initial windows outside the bounds).
[[nodiscard]] DimensionResult dimension_windows(
    const WindowProblem& problem, const DimensionOptions& options = {});

}  // namespace windim::core
