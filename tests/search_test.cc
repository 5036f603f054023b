#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include "search/exhaustive.h"
#include "search/pattern_search.h"

namespace windim::search {
namespace {

double quadratic(const Point& p, const Point& target) {
  double f = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double d = p[i] - target[i];
    f += d * d;
  }
  return f;
}

TEST(PatternSearchTest, FindsQuadraticMinimumFromAfar) {
  const Point target{7, -3};
  const PatternSearchResult r = pattern_search(
      [&](const Point& p) { return quadratic(p, target); }, {0, 0});
  EXPECT_EQ(r.best, target);
  EXPECT_DOUBLE_EQ(r.best_value, 0.0);
}

TEST(PatternSearchTest, PatternMovesAccelerateAlongDiagonals) {
  // A far-away optimum reachable along a diagonal: pattern moves should
  // need far fewer evaluations than the ~4 * distance of plain
  // coordinate descent.
  const Point target{30, 30};
  const PatternSearchResult r = pattern_search(
      [&](const Point& p) { return quadratic(p, target); }, {0, 0});
  EXPECT_EQ(r.best, target);
  EXPECT_LT(r.evaluations, 100u);
  EXPECT_GE(r.base_points.size(), 3u);
}

TEST(PatternSearchTest, MemoizesRepeatedEvaluations) {
  std::size_t calls = 0;
  const Point target{3, 3};
  const Objective f = [&](const Point& p) {
    ++calls;
    return quadratic(p, target);
  };
  const PatternSearchResult r = pattern_search(f, {1, 1});
  EXPECT_EQ(r.evaluations, calls);
  // The search revisits points; some must have been served from cache.
  EXPECT_GT(r.cache_hits, 0u);
}

TEST(PatternSearchTest, RespectsBounds) {
  PatternSearchOptions options;
  options.lower_bound = {1, 1};
  options.upper_bound = {4, 4};
  // Unconstrained optimum at (0, 0): must stop at the boundary.
  const PatternSearchResult r = pattern_search(
      [&](const Point& p) { return quadratic(p, {0, 0}); }, {3, 3}, options);
  EXPECT_EQ(r.best, (Point{1, 1}));
}

TEST(PatternSearchTest, LargerStepsHalveDownToOne) {
  PatternSearchOptions options;
  options.initial_step = {4, 4};
  const Point target{5, 9};
  const PatternSearchResult r = pattern_search(
      [&](const Point& p) { return quadratic(p, target); }, {0, 0}, options);
  EXPECT_EQ(r.best, target);
  EXPECT_GT(r.step_reductions, 0);
}

TEST(PatternSearchTest, RidgeFollowingDownDiagonalValley) {
  // Diagonal valley f = (x - y)^2 + ((x + y)/10)^2 sloping toward the
  // origin.  The search must descend the valley (large objective
  // reduction) and use diagonal pattern moves (consecutive base points
  // changing both coordinates) rather than pure coordinate descent.
  const Objective f = [](const Point& p) {
    const double x = p[0], y = p[1];
    return (x - y) * (x - y) + (x + y) * (x + y) / 100.0;
  };
  const PatternSearchResult r = pattern_search(f, {40, 38});
  EXPECT_LE(r.best_value, 1.0);
  EXPECT_LE(f(r.best), f({40, 38}) / 50.0);
  bool diagonal_step = false;
  for (std::size_t i = 1; i < r.base_points.size(); ++i) {
    const Point& a = r.base_points[i - 1].first;
    const Point& b = r.base_points[i].first;
    if (a[0] != b[0] && a[1] != b[1]) diagonal_step = true;
  }
  EXPECT_TRUE(diagonal_step);
}

TEST(PatternSearchTest, InitialPointAlreadyOptimal) {
  const PatternSearchResult r = pattern_search(
      [&](const Point& p) { return quadratic(p, {2, 2}); }, {2, 2});
  EXPECT_EQ(r.best, (Point{2, 2}));
  // Only the local exploration around the optimum is evaluated.
  EXPECT_LE(r.evaluations, 5u);
}

TEST(PatternSearchTest, OneDimensional) {
  const PatternSearchResult r = pattern_search(
      [](const Point& p) { return std::abs(p[0] - 13.0); }, {0});
  EXPECT_EQ(r.best, (Point{13}));
}

TEST(PatternSearchTest, FourDimensional) {
  const Point target{2, 5, 1, 7};
  const PatternSearchResult r = pattern_search(
      [&](const Point& p) { return quadratic(p, target); }, {4, 4, 4, 4});
  EXPECT_EQ(r.best, target);
}

TEST(PatternSearchTest, BudgetExhaustionReturnsPartialResult) {
  PatternSearchOptions options;
  options.max_evaluations = 3;
  const PatternSearchResult r = pattern_search(
      [](const Point& p) { return quadratic(p, {50, 50}); }, {0, 0}, options);
  EXPECT_TRUE(r.budget_exhausted);
  // Fresh evaluations spend the budget; the first refused probe ends
  // the search.
  EXPECT_EQ(r.evaluations, 3u);
  EXPECT_EQ(r.exhausted_probes, 1u);
  // Best-so-far is never worse than the initial point.
  EXPECT_LE(r.best_value, quadratic({0, 0}, {50, 50}));
  EXPECT_FALSE(r.base_points.empty());
}

TEST(PatternSearchTest, BudgetTooSmallForInitialPoint) {
  PatternSearchOptions options;
  options.max_evaluations = 0;
  const PatternSearchResult r = pattern_search(
      [](const Point& p) { return quadratic(p, {50, 50}); }, {4, 4}, options);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.exhausted_probes, 1u);
  EXPECT_EQ(r.best, (Point{4, 4}));
  EXPECT_TRUE(std::isinf(r.best_value));
}

TEST(PatternSearchTest, AmpleBudgetNeverReportsExhaustion) {
  const PatternSearchResult r = pattern_search(
      [](const Point& p) { return quadratic(p, {5, 5}); }, {0, 0});
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_EQ(r.exhausted_probes, 0u);
}

TEST(PatternSearchTest, UnitStepsReportNoStepReductions) {
  // With all steps already at 1, halving is impossible: the search must
  // terminate without counting a phantom reduction.
  const PatternSearchResult r = pattern_search(
      [](const Point& p) { return quadratic(p, {6, 2}); }, {0, 0});
  EXPECT_EQ(r.step_reductions, 0);
}

TEST(PatternSearchTest, OnNewBaseFiresInTrajectoryOrder) {
  std::vector<Point> anchors;
  PatternSearchOptions options;
  options.on_new_base = [&](const Point& p, double) { anchors.push_back(p); };
  const PatternSearchResult r = pattern_search(
      [](const Point& p) { return quadratic(p, {9, 9}); }, {0, 0}, options);
  ASSERT_EQ(anchors.size(), r.base_points.size());
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    EXPECT_EQ(anchors[i], r.base_points[i].first);
  }
}

TEST(PatternSearchTest, OnProbeStreamIndexesProbesAndMarksRevisits) {
  struct Probe {
    std::size_t step;
    Point point;
    double value;
    bool revisit;
  };
  const Point target{11, -4};
  std::vector<Probe> probes;
  PatternSearchOptions options;
  options.on_probe = [&](std::size_t step, const Point& p, double v,
                         bool revisit) {
    probes.push_back({step, p, v, revisit});
  };
  (void)pattern_search([&](const Point& p) { return quadratic(p, target); },
                       {0, 0}, options);

  // Probe indices are consecutive from zero, every point in bounds, and
  // `revisit` means exactly "seen earlier in this stream".
  ASSERT_FALSE(probes.empty());
  std::set<Point> seen;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(probes[i].step, i);
    EXPECT_DOUBLE_EQ(probes[i].value, quadratic(probes[i].point, target));
    EXPECT_EQ(probes[i].revisit, !seen.insert(probes[i].point).second);
  }
  EXPECT_FALSE(probes.front().revisit);
  const auto revisits =
      std::count_if(probes.begin(), probes.end(),
                    [](const Probe& p) { return p.revisit; });
  EXPECT_GT(revisits, 0);  // Hooke-Jeeves revisits points by construction
}

TEST(PatternSearchTest, OnProbeCountsReconcileWithResultTotals) {
  std::size_t probes = 0;
  std::size_t revisits = 0;
  PatternSearchOptions options;
  options.on_probe = [&](std::size_t, const Point&, double, bool revisit) {
    ++probes;
    if (revisit) ++revisits;
  };
  const PatternSearchResult r = pattern_search(
      [](const Point& p) { return quadratic(p, {5, 8}); }, {0, 0}, options);
  EXPECT_EQ(probes, r.evaluations + r.cache_hits);
  EXPECT_EQ(revisits, r.cache_hits);
}

TEST(PatternSearchTest, RejectsMalformedInput) {
  const Objective f = [](const Point&) { return 0.0; };
  EXPECT_THROW((void)pattern_search(f, {}), std::invalid_argument);
  PatternSearchOptions bad_step;
  bad_step.initial_step = {0};
  EXPECT_THROW((void)pattern_search(f, {1}, bad_step), std::invalid_argument);
  PatternSearchOptions bad_bounds;
  bad_bounds.lower_bound = {0, 0};
  EXPECT_THROW((void)pattern_search(f, {1}, bad_bounds),
               std::invalid_argument);
  PatternSearchOptions oob;
  oob.lower_bound = {5};
  EXPECT_THROW((void)pattern_search(f, {1}, oob), std::invalid_argument);
}

// ----------------------------------------------------------------- exhaustive

TEST(ExhaustiveTest, FindsGlobalMinimum) {
  const ExhaustiveResult r = exhaustive_search(
      [](const Point& p) {
        return quadratic(p, {3, 2});
      },
      {1, 1}, {5, 5});
  EXPECT_EQ(r.best, (Point{3, 2}));
  EXPECT_EQ(r.evaluations, 25u);
}

TEST(ExhaustiveTest, SurfaceCoversWholeBox) {
  const ExhaustiveResult r = exhaustive_search(
      [](const Point& p) { return static_cast<double>(p[0] + p[1]); },
      {0, 0}, {2, 3}, /*keep_surface=*/true);
  EXPECT_EQ(r.surface.size(), 12u);
  std::set<Point> points;
  for (const auto& [p, v] : r.surface) points.insert(p);
  EXPECT_EQ(points.size(), 12u);
}

TEST(ExhaustiveTest, AgreesWithPatternSearchOnConvexObjective) {
  const Objective f = [](const Point& p) { return quadratic(p, {4, 6}); };
  const ExhaustiveResult ex = exhaustive_search(f, {1, 1}, {8, 8});
  PatternSearchOptions options;
  options.lower_bound = {1, 1};
  options.upper_bound = {8, 8};
  const PatternSearchResult ps = pattern_search(f, {1, 1}, options);
  EXPECT_EQ(ex.best, ps.best);
  EXPECT_LT(ps.evaluations, ex.evaluations);
}

TEST(ExhaustiveTest, RejectsEmptyBox) {
  const Objective f = [](const Point&) { return 0.0; };
  EXPECT_THROW((void)exhaustive_search(f, {2}, {1}), std::invalid_argument);
  EXPECT_THROW((void)exhaustive_search(f, {}, {}), std::invalid_argument);
}

TEST(ComparatorTest, ScalarComparatorIgnoresViolation) {
  const Comparator better = scalar_comparator();
  const VectorEval lo{{1.0}, 5.0};  // infeasible but smaller objective
  const VectorEval hi{{2.0}, 0.0};
  EXPECT_TRUE(better(lo, hi));
  EXPECT_FALSE(better(hi, lo));
  // Equality keeps the incumbent: neither beats the other.
  EXPECT_FALSE(better(lo, lo));
}

TEST(ComparatorTest, LexicographicRanksFeasibilityFirst) {
  const Comparator better = lexicographic_comparator();
  const VectorEval feasible{{9.0, 9.0}, 0.0};
  const VectorEval infeasible{{1.0, 1.0}, 0.5};
  const VectorEval worse_infeasible{{1.0, 1.0}, 2.0};
  EXPECT_TRUE(better(feasible, infeasible));
  EXPECT_FALSE(better(infeasible, feasible));
  // Two infeasible evaluations rank by smaller violation — the search
  // can walk downhill in constraint slack back into the feasible set.
  EXPECT_TRUE(better(infeasible, worse_infeasible));
  // Two feasible evaluations rank lexicographically.
  const VectorEval tied_first{{9.0, 1.0}, 0.0};
  EXPECT_TRUE(better(tied_first, feasible));
  EXPECT_FALSE(better(feasible, feasible));
}

TEST(ComparatorTest, WeightedSumScalarizesAfterFeasibility) {
  const Comparator better = weighted_sum_comparator({1.0, 10.0});
  const VectorEval a{{5.0, 0.0}, 0.0};  // sum 5
  const VectorEval b{{0.0, 1.0}, 0.0};  // sum 10
  EXPECT_TRUE(better(a, b));
  const VectorEval infeasible{{-100.0, -100.0}, 1.0};
  EXPECT_TRUE(better(b, infeasible));
  EXPECT_THROW((void)weighted_sum_comparator({}), std::invalid_argument);
}

TEST(VectorSearchTest, ScalarShimIsBitForBitThePatternSearch) {
  // The historical scalar search and the vector substrate under the
  // scalar comparator must agree on everything observable: optimum,
  // value, evaluation count and the full base-point trajectory.
  const Objective f = [](const Point& p) { return quadratic(p, {6, 2}); };
  PatternSearchOptions so;
  so.lower_bound = {0, 0};
  so.upper_bound = {9, 9};
  const PatternSearchResult scalar = pattern_search(f, {1, 8}, so);

  VectorSearchOptions vo;
  vo.lower_bound = {0, 0};
  vo.upper_bound = {9, 9};
  const VectorSearchResult vec = vector_pattern_search(
      [&](const Point& p) { return VectorEval::scalar(f(p)); }, {1, 8}, vo);

  EXPECT_EQ(vec.best, scalar.best);
  EXPECT_EQ(scalarize(vec.best_eval), scalar.best_value);
  EXPECT_EQ(vec.evaluations, scalar.evaluations);
  ASSERT_EQ(vec.base_points.size(), scalar.base_points.size());
  for (std::size_t i = 0; i < vec.base_points.size(); ++i) {
    EXPECT_EQ(vec.base_points[i].first, scalar.base_points[i].first);
    EXPECT_EQ(scalarize(vec.base_points[i].second),
              scalar.base_points[i].second);
  }
}

TEST(VectorSearchTest, ExhaustiveShimIsBitForBitTheEnumeration) {
  const Objective f = [](const Point& p) { return quadratic(p, {2, 4}); };
  const ExhaustiveResult scalar = exhaustive_search(f, {1, 1}, {5, 5});
  const VectorExhaustiveResult vec = vector_exhaustive_search(
      [&](const Point& p) { return VectorEval::scalar(f(p)); }, {1, 1},
      {5, 5});
  EXPECT_EQ(vec.best, scalar.best);
  EXPECT_EQ(scalarize(vec.best_eval), scalar.best_value);
  EXPECT_EQ(vec.evaluations, scalar.evaluations);
  EXPECT_EQ(vec.pruned, 0u);
}

TEST(VectorSearchTest, LexicographicSearchWalksBackIntoFeasibleRegion) {
  // Feasible set: p[0] >= 5.  Violation decreases toward it, so the
  // constrained search escapes an infeasible start instead of stalling
  // on a plateau of +inf the way the scalar encoding would.
  const VectorObjective f = [](const Point& p) {
    VectorEval e;
    e.objectives = {quadratic(p, {7, 3})};
    e.violation = std::max(0.0, 5.0 - static_cast<double>(p[0]));
    return e;
  };
  VectorSearchOptions vo;
  vo.lower_bound = {0, 0};
  vo.upper_bound = {9, 9};
  vo.better = lexicographic_comparator();
  const VectorSearchResult r = vector_pattern_search(f, {0, 0}, vo);
  EXPECT_EQ(r.best, (Point{7, 3}));
  EXPECT_TRUE(r.best_eval.feasible());
}

TEST(VectorSearchTest, BoxPruneSkipsLatticeAndKeepsOptimum) {
  // Objective p[0] + p[1] over [0,4]^2; the sound optimistic bound of a
  // sub-box is the value at its lower corner, so boxes whose lower
  // corner already loses to the incumbent are skipped wholesale.
  const VectorObjective f = [](const Point& p) {
    return VectorEval::scalar(static_cast<double>(p[0] + p[1]));
  };
  const VectorExhaustiveResult full =
      vector_exhaustive_search(f, {0, 0}, {4, 4});
  VectorExhaustiveOptions options;
  options.prune = [](const Point& box_lower, const Point&,
                     const VectorEval& incumbent) {
    double bound = 0.0;
    for (int v : box_lower) bound += v;
    return bound > incumbent.objectives[0];
  };
  const VectorExhaustiveResult pruned =
      vector_exhaustive_search(f, {0, 0}, {4, 4}, options);
  EXPECT_EQ(pruned.best, full.best);
  EXPECT_GT(pruned.pruned, 0u);
  EXPECT_EQ(pruned.evaluations + pruned.pruned, full.evaluations);
}

}  // namespace
}  // namespace windim::search
