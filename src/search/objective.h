// Vector-valued, constraint-aware objective substrate for the integer
// searches (pattern search, exhaustive enumeration).
//
// The thesis dimensions windows against a single scalar (1/power), but
// fairness- and utility-aware dimensioning needs more: an evaluation is
// an *objective vector* plus a feasibility verdict, and "better" is a
// pluggable strict ordering over full evaluations.  The orderings
// provided here:
//
//   - scalar_comparator(): compares objectives[0] with `<` and nothing
//     else — the thesis-exact shim.  A scalar objective wrapped into a
//     one-element vector behaves bit-for-bit like the historical
//     `double f(Point)` search, including the +inf-encodes-infeasible
//     convention (the shim never consults `violation`).
//   - lexicographic_comparator(): feasibility first (any feasible
//     evaluation beats any infeasible one; two infeasible evaluations
//     rank by smaller constraint violation), then the objective vector
//     lexicographically.  This is the ordering the constrained and
//     alpha-fair window objectives search under: an infeasible region
//     still has gradient (decreasing violation), so the pattern search
//     can walk back into the feasible set instead of stalling on a
//     plateau of +inf.
//   - weighted_sum_comparator(w): feasibility first, then the
//     scalarization sum_i w_i * objectives[i].
//
// All orderings are strict ("a is better than b"); equality under the
// ordering keeps the incumbent, so a search trajectory is a function of
// the evaluations alone.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

namespace windim::search {

using Point = std::vector<int>;

/// One full evaluation of a point: an objective vector (meaning fixed
/// by the caller's comparator) plus the total constraint violation.
/// `violation <= 0` means feasible; a positive value ranks infeasible
/// points against each other (smaller is closer to the feasible set).
/// Scalar searches store one-element vectors with violation 0 — the
/// thesis-exact shim.
struct VectorEval {
  std::vector<double> objectives;
  double violation = 0.0;

  [[nodiscard]] bool feasible() const noexcept { return violation <= 0.0; }

  /// Wraps a legacy scalar objective value (the +inf-encodes-infeasible
  /// convention travels inside objectives[0], untouched).
  [[nodiscard]] static VectorEval scalar(double value) {
    return VectorEval{{value}, 0.0};
  }
  /// objectives[0], or +infinity when nothing was evaluated.
  [[nodiscard]] double scalar_value() const noexcept {
    return objectives.empty() ? std::numeric_limits<double>::infinity()
                              : objectives[0];
  }
};

struct PointHash {
  std::size_t operator()(const Point& p) const noexcept {
    std::size_t h = 0x9e3779b97f4a7c15ull;
    for (int v : p) {
      h ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
    }
    return h;
  }
};

using VectorObjective = std::function<VectorEval(const Point&)>;

/// Strict "a is better than b" ordering over full evaluations.
using Comparator =
    std::function<bool(const VectorEval&, const VectorEval&)>;

/// The historical scalar reading of an evaluation: objectives[0], or
/// +infinity for an empty vector (nothing was evaluated).
[[nodiscard]] inline double scalarize(const VectorEval& e) noexcept {
  return e.objectives.empty() ? std::numeric_limits<double>::infinity()
                              : e.objectives[0];
}

/// Thesis-exact shim: strict `<` on objectives[0], violation ignored.
[[nodiscard]] Comparator scalar_comparator();

/// Feasibility-first, then objectives compared lexicographically.
[[nodiscard]] Comparator lexicographic_comparator();

/// Feasibility-first, then the weighted sum of the objective vector
/// (missing components weigh 0).  Throws std::invalid_argument on an
/// empty weight vector.
[[nodiscard]] Comparator weighted_sum_comparator(std::vector<double> weights);

}  // namespace windim::search
