// Pareto-front dimensioning (windim/pareto.h): front shape and
// determinism on the 4-class Canadian fixture, seed reproducibility,
// explicit-floor semantics, option validation, and the balanced-job
// box prunes for exhaustive enumeration.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "search/exhaustive.h"
#include "windim/windim.h"

namespace windim::core {
namespace {

WindowProblem four_class_problem() {
  return WindowProblem(net::canada_topology(),
                       net::four_class_traffic(6.0, 6.0, 6.0, 12.0));
}

WindowProblem two_class_problem(double s1 = 20.0, double s2 = 20.0) {
  return WindowProblem(net::canada_topology(),
                       net::two_class_traffic(s1, s2));
}

TEST(ParetoFrontTest, FourClassFrontIsNonDominatedAndSorted) {
  const WindowProblem problem = four_class_problem();
  const ParetoFront front = pareto_front(problem);
  ASSERT_GE(front.points.size(), 5u);
  EXPECT_FALSE(front.cancelled);
  EXPECT_GE(front.runs, front.points.size());
  for (std::size_t i = 1; i < front.points.size(); ++i) {
    // Sorted by ascending fairness; power strictly descends along the
    // sorted front (otherwise a point would be dominated).
    EXPECT_LT(front.points[i - 1].fairness, front.points[i].fairness);
    EXPECT_GT(front.points[i - 1].power, front.points[i].power);
  }
  for (const ParetoPoint& p : front.points) {
    EXPECT_GT(p.power, 0.0);
    EXPECT_GT(p.throughput, 0.0);
    EXPECT_GE(p.fairness, 0.0);
    EXPECT_LE(p.fairness, 1.0);
    EXPECT_DOUBLE_EQ(p.power, p.evaluation.power);
  }
}

TEST(ParetoFrontTest, EveryPointReproducesFromItsRecordedSeed) {
  const WindowProblem problem = four_class_problem();
  const ParetoFront front = pareto_front(problem);
  for (const ParetoPoint& p : front.points) {
    DimensionOptions opts;
    opts.objective = DimensionObjective::kPowerFairConstrained;
    opts.min_fairness = p.fairness_floor;
    opts.initial_windows = p.initial_windows;
    const DimensionResult r = dimension_windows(problem, opts);
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.optimal_windows, p.windows);
  }
}

TEST(ParetoFrontTest, ExplicitReachableFloorBoundsTheScan) {
  // The 4-class fixture's achievable Jain maximum sits near 0.51, so
  // 0.45 cuts off the unconstrained anchor (fairness ~0.43) without
  // emptying the scan.
  ParetoOptions options;
  options.min_fairness_floor = 0.45;
  const ParetoFront front = pareto_front(four_class_problem(), options);
  ASSERT_FALSE(front.points.empty());
  for (const ParetoPoint& p : front.points) {
    EXPECT_GE(p.fairness, 0.45);
    EXPECT_GE(p.fairness_floor, 0.45);
  }
}

TEST(ParetoFrontTest, UnreachableFloorYieldsEmptyFrontNotRelaxedScan) {
  // A floor above the achievable Jain maximum must come back as
  // infeasible runs and an empty front — never as a silently widened
  // scan.  The collapsed bracket also dedupes to a single solve.
  ParetoOptions options;
  options.min_fairness_floor = 0.9999;
  const ParetoFront front = pareto_front(two_class_problem(10.0, 30.0),
                                         options);
  EXPECT_TRUE(front.points.empty());
  EXPECT_EQ(front.runs, 1u);
  EXPECT_EQ(front.infeasible_runs, 1u);
}

TEST(ParetoFrontTest, RejectsMalformedOptions) {
  const WindowProblem problem = two_class_problem();
  ParetoOptions options;
  options.num_points = 1;
  EXPECT_THROW((void)pareto_front(problem, options), std::invalid_argument);
  options = {};
  options.max_fairness_floor = 1.5;
  EXPECT_THROW((void)pareto_front(problem, options), std::invalid_argument);
  options = {};
  options.min_fairness_floor = 1.5;
  EXPECT_THROW((void)pareto_front(problem, options), std::invalid_argument);
  options = {};
  options.min_fairness_floor = std::nan("");
  EXPECT_THROW((void)pareto_front(problem, options), std::invalid_argument);
}

TEST(ParetoFrontTest, ToJsonIsOneDeterministicLine) {
  const ParetoFront front = pareto_front(four_class_problem());
  const std::string json = to_json(front);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"points\":["), std::string::npos);
  EXPECT_NE(json.find("\"runs\":"), std::string::npos);
  EXPECT_EQ(json, to_json(front));
}

// ---------------------------------------------------------------------
// Balanced-job box prunes over exhaustive enumeration.

TEST(ParetoPruneTest, ThroughputPruneSkipsBoxesAndKeepsOptimum) {
  const WindowProblem problem = four_class_problem();
  ObjectiveSpec spec;
  spec.kind = ObjectiveKind::kAlphaFair;
  spec.alpha = 0.0;  // total throughput: objectives[0] = -sum(lambda)
  const search::VectorObjective objective = [&](const search::Point& p) {
    return objective_vector(problem.evaluate(p), spec);
  };
  const search::Point lower(4, 1);
  const search::Point upper(4, 5);
  const search::VectorExhaustiveResult full =
      search::vector_exhaustive_search(objective, lower, upper);
  search::VectorExhaustiveOptions options;
  options.prune = balanced_job_throughput_prune(problem);
  const search::VectorExhaustiveResult pruned =
      search::vector_exhaustive_search(objective, lower, upper, options);
  EXPECT_EQ(pruned.best, full.best);
  EXPECT_EQ(pruned.best_eval.objectives, full.best_eval.objectives);
  EXPECT_GT(pruned.pruned, 0u);
  EXPECT_EQ(pruned.evaluations + pruned.pruned, full.evaluations);
}

TEST(ParetoPruneTest, PowerPruneIsSoundOnTheLattice) {
  // The power bound's 1/route-demand factor overshoots the Canadian
  // fixture's short routes, so it may legitimately prune nothing here —
  // the contract under test is soundness: the optimum never changes.
  const WindowProblem problem = two_class_problem();
  const ObjectiveSpec spec;  // kPower
  const search::VectorObjective objective = [&](const search::Point& p) {
    return objective_vector(problem.evaluate(p), spec);
  };
  const search::Point lower(2, 1);
  const search::Point upper(2, 6);
  const search::VectorExhaustiveResult full =
      search::vector_exhaustive_search(objective, lower, upper);
  search::VectorExhaustiveOptions options;
  options.prune = balanced_job_power_prune(problem);
  const search::VectorExhaustiveResult pruned =
      search::vector_exhaustive_search(objective, lower, upper, options);
  EXPECT_EQ(pruned.best, full.best);
  EXPECT_EQ(pruned.evaluations + pruned.pruned, full.evaluations);
}

}  // namespace
}  // namespace windim::core
