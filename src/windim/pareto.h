// Pareto-front dimensioning: the power/fairness trade-off curve of a
// window-dimensioning problem.
//
// Maximizing network power alone (thesis 4.4) can starve long-route
// chains — the 1/P optimum is often unfair in Jain's sense.  This
// driver sweeps the trade-off with an epsilon-constraint scan: a grid
// of Jain-fairness floors spanning [fairness at the unconstrained power
// optimum, 1], one constrained solve (ObjectiveKind::
// kPowerFairConstrained) per floor, each warm-started from the previous
// floor's optimum.  Feasible optima pass a dominance filter (maximize
// power AND fairness) and the surviving points form a deterministic
// front: the scan order, the per-solve trajectories, and therefore the
// byte-exact serialized front are pure functions of the problem and
// options, and every point records the initial windows that reproduce it with a
// single constrained dimension_windows call.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "search/exhaustive.h"
#include "windim/dimension.h"

namespace windim::core {

struct ParetoOptions {
  /// Per-solve engine configuration (solver, bounds, budget,
  /// workspaces, cancel...).  `base.objective`, `base.min_fairness` and
  /// `base.initial_windows` are overridden by the scan; everything else
  /// applies to every solve.
  DimensionOptions base;
  /// Fairness floors to scan (>= 2).  More floors = a denser front at
  /// linear cost.
  int num_points = 9;
  /// Lowest floor of the scan.  Negative (the default) anchors it at
  /// the fairness of the unconstrained power optimum — floors below
  /// that would all rediscover the same point.  A caller-set floor is
  /// honored verbatim, even above max_fairness_floor or the achievable
  /// maximum; an unreachable floor collapses the scan to one
  /// (infeasible) run and the front comes back empty.
  double min_fairness_floor = -1.0;
  /// Highest floor of the scan.  The default stops just short of exact
  /// Jain equality, which only perfectly symmetric traffic achieves.
  double max_fairness_floor = 0.999;
};

/// One non-dominated (power, fairness) point.
struct ParetoPoint {
  std::vector<int> windows;
  double power = 0.0;
  double fairness = 0.0;
  double throughput = 0.0;
  double mean_delay = 0.0;
  /// The epsilon-constraint (Jain floor) whose solve produced the point.
  double fairness_floor = 0.0;
  /// The warm-start seed of that solve: dimension_windows with
  /// objective kPowerFairConstrained, min_fairness = fairness_floor and
  /// initial_windows = this vector reproduces `windows` exactly.
  std::vector<int> initial_windows;
  Evaluation evaluation;
};

struct ParetoFront {
  /// Non-dominated points, sorted by ascending fairness (power strictly
  /// descends along the sorted front after the dominance filter).
  std::vector<ParetoPoint> points;
  std::size_t runs = 0;             // constrained solves executed
  std::size_t infeasible_runs = 0;  // floors no window setting met
  std::size_t dominated_dropped = 0;
  bool budget_exhausted = false;  // any solve ran out of budget
  bool cancelled = false;         // deadline expired mid-scan
};

/// Runs the epsilon-constraint scan.  Throws std::invalid_argument on
/// malformed options (num_points < 2, floors outside [0, 1], or any
/// error dimension_windows raises for `base`).
[[nodiscard]] ParetoFront pareto_front(const WindowProblem& problem,
                                       const ParetoOptions& options = {});

/// Deterministic one-line JSON of a front:
/// {"points":[{"windows":[..],"power":..,"fairness":..,"throughput":..,
///  "mean_delay":..,"floor":..,"initial":[..]},...],"runs":..,
///  "infeasible_runs":..,"dominated_dropped":..,"budget_exhausted":..,
///  "cancelled":..}
[[nodiscard]] std::string to_json(const ParetoFront& front);

/// Balanced-job-bounds box pruning (mva/bounds.h) for exhaustive
/// enumeration over window boxes: returns a search::BoxPrune that
/// discards a box when even the optimistic power upper bound —
/// per-chain isolated balanced-job throughput at the box's top corner
/// over the no-queueing route delay — cannot beat the incumbent's
/// 1/P objective.  Sound for kPower (isolated-chain analysis is
/// optimistic in a closed multichain network), so the pruned
/// enumeration returns the same optimum as the full sweep.
[[nodiscard]] search::BoxPrune balanced_job_power_prune(
    const WindowProblem& problem);

/// Sibling prune for max-throughput objective vectors (kAlphaFair with
/// alpha = 0, where objectives[0] = -total throughput): discards a box
/// when the sum of per-chain isolated balanced-job throughput upper
/// bounds at its top corner cannot beat the incumbent's total
/// throughput.  Typically much sharper than the power bound on
/// fixtures whose route demands are small relative to source service —
/// the power bound's 1/d_r factor overshoots there (and may never
/// fire) while the throughput sum stays tight.
[[nodiscard]] search::BoxPrune balanced_job_throughput_prune(
    const WindowProblem& problem);

}  // namespace windim::core
