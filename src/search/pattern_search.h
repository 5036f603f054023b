// Integer Hooke-Jeeves pattern search (thesis 4.3; APL program WINDIM).
//
// Direct search over integer vectors, minimizing a black-box objective:
// exploratory moves perturb one coordinate at a time by the current step;
// a successful exploration is followed by accelerating pattern moves that
// repeat the combined displacement; failures halve the step until the
// configured number of reductions is exhausted.  Because the thesis
// dimensions *integer* windows, steps are integers and halving saturates
// at 1 ("since we are interested only in integral window settings ...
// the Pattern Search suffices").
//
// The search is sequential.  Objective evaluations are memoized in a
// memo private to one search (the APL FLOC/FCT pair): the search
// revisits points freely and each is evaluated at most once, in
// trajectory order, on the calling thread.  The objective is therefore
// never called concurrently, and every hook below fires in the order
// the search makes its decisions.
//
// Budget exhaustion is not an error: when the evaluation budget runs out
// mid-search the best point found so far is returned with
// `budget_exhausted == true` instead of throwing.
//
// The search keeps no observation record of its own.  `on_probe`
// reports each resolved probe in order (dimension_windows builds its
// probe record from it, obs/probe.h), and the vector entry point's
// optional span tracer times the exploratory moves.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "search/objective.h"
#include "util/cancel.h"

namespace windim::obs {
class SpanTracer;  // obs/span.h
}  // namespace windim::obs

namespace windim::search {

/// Scalar objective to minimize; must be defined on every in-bounds
/// point.  The scalar entry point is a shim over the vector-valued
/// substrate below — same trajectory, bit-for-bit.
using Objective = std::function<double(const Point&)>;

struct PatternSearchOptions {
  /// Initial per-coordinate step sizes; empty means all ones.
  Point initial_step;
  /// Number of step halvings before termination (the APL KMAX).  With
  /// integer saturation at 1, further halvings re-run the exploration at
  /// step 1 and stop when it fails.
  int max_step_reductions = 4;
  /// Inclusive bounds; empty vectors mean unbounded.  Window dimensioning
  /// uses lower bounds of 1 (a window of 0 closes the virtual channel).
  Point lower_bound;
  Point upper_bound;
  /// Safety valve on fresh objective evaluations.
  std::size_t max_evaluations = 1'000'000;
  /// Invoked for the initial point and for every newly accepted base
  /// point, in trajectory order (the warm-start engine registers its
  /// MVA anchors from it; see windim/dimension.cc).
  std::function<void(const Point&, double)> on_new_base;
  /// Invoked for every probe that resolves to a value, in search order:
  /// `step` is the 0-based probe index, `revisit` is true when the memo
  /// already held the point (a cache hit).  Budget-exhausted probes
  /// resolve to no value and are not reported.
  std::function<void(std::size_t step, const Point&, double value,
                     bool revisit)>
      on_probe;
  /// Cooperative stop signal (util/cancel.h), polled before every
  /// probe.  Once expired, the search stops accepting probes and
  /// returns its best point so far with PatternSearchResult::cancelled
  /// set — the same graceful unwind as budget exhaustion, so a deadline
  /// never loses the work already done.  Null (the default) disables
  /// the polling entirely.
  const util::CancelToken* cancel = nullptr;
};

struct PatternSearchResult {
  Point best;
  double best_value = 0.0;
  std::size_t evaluations = 0;  // fresh (uncached) objective calls
  std::size_t cache_hits = 0;
  /// Probes refused because the budget was spent (the search stops at
  /// the first one, so this is 0 or 1).
  std::size_t exhausted_probes = 0;
  int step_reductions = 0;
  /// True when the evaluation budget ran out before the search
  /// terminated on its own; `best` is then the best point found so far
  /// (never worse than the initial point).  If the budget did not even
  /// cover the initial evaluation, `best_value` is +infinity.
  bool budget_exhausted = false;
  /// True when options.cancel expired mid-search; `best` is the best
  /// point found before the stop (budget_exhausted stays false unless
  /// the budget independently ran out first).
  bool cancelled = false;
  /// Successive base points (including the initial one), for diagnostics
  /// and tests of the ridge-following behaviour.
  std::vector<std::pair<Point, double>> base_points;
};

/// Minimizes `objective` from `initial`.  Throws std::invalid_argument on
/// dimension mismatches or an out-of-bounds initial point.
[[nodiscard]] PatternSearchResult pattern_search(
    const Objective& objective, Point initial,
    const PatternSearchOptions& options = {});

// ----------------------------------------------------------------------
// Vector-valued substrate (search/objective.h): the search compares
// full evaluations — objective vector + feasibility — through a
// pluggable strict ordering.  The scalar pattern_search above is a
// shim over this entry point with scalar_comparator(); the Hooke-
// Jeeves trajectory logic is shared, so the shim is bit-for-bit the
// historical behavior.

struct VectorSearchOptions {
  /// See the PatternSearchOptions fields of the same names.
  Point initial_step;
  int max_step_reductions = 4;
  Point lower_bound;
  Point upper_bound;
  std::size_t max_evaluations = 1'000'000;
  /// Strict "a beats b" ordering; null means scalar_comparator().
  Comparator better;
  /// Trajectory hooks over full evaluations (same order as the scalar
  /// hooks).
  std::function<void(const Point&, const VectorEval&)> on_new_base;
  std::function<void(std::size_t step, const Point&, const VectorEval&,
                     bool revisit)>
      on_probe;
  /// Optional span tracer (obs/span.h): each exploratory move opens a
  /// real "explore" span on the calling thread.  Null skips all
  /// tracing; dimension_windows sets it only on observed runs.
  obs::SpanTracer* spans = nullptr;
  const util::CancelToken* cancel = nullptr;
};

struct VectorSearchResult {
  Point best;
  /// Full evaluation at `best`; empty objectives when the budget did
  /// not even cover the initial point.
  VectorEval best_eval;
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;
  std::size_t exhausted_probes = 0;
  int step_reductions = 0;
  bool budget_exhausted = false;
  bool cancelled = false;
  std::vector<std::pair<Point, VectorEval>> base_points;
};

/// Minimizes the vector objective from `initial` under options.better.
/// Throws std::invalid_argument on dimension mismatches or an
/// out-of-bounds initial point.
[[nodiscard]] VectorSearchResult vector_pattern_search(
    const VectorObjective& objective, Point initial,
    const VectorSearchOptions& options = {});

}  // namespace windim::search
