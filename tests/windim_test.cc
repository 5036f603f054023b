#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "search/exhaustive.h"
#include "windim/windim.h"

namespace windim::core {
namespace {

WindowProblem two_class_problem(double s1 = 20.0, double s2 = 20.0) {
  return WindowProblem(net::canada_topology(),
                       net::two_class_traffic(s1, s2));
}

TEST(WindowProblemTest, BuildsClosedChainModel) {
  const WindowProblem p = two_class_problem();
  EXPECT_EQ(p.num_classes(), 2);
  EXPECT_EQ(p.hops(0), 4);
  EXPECT_EQ(p.hops(1), 4);
  EXPECT_EQ(p.kleinrock_windows(), (std::vector<int>{4, 4}));

  const qn::CyclicNetwork net = p.network({3, 5});
  // 7 channel queues + 2 source queues = 9 stations (thesis Fig 4.6).
  EXPECT_EQ(net.stations.size(), 9u);
  EXPECT_EQ(net.chains.size(), 2u);
  EXPECT_EQ(net.chains[0].population, 3);
  EXPECT_EQ(net.chains[1].population, 5);
  // Route = 4 hops + the reentrant source queue.
  EXPECT_EQ(net.chains[0].route.size(), 5u);
  EXPECT_EQ(net.chains[0].route.back(), p.source_station(0));
}

TEST(WindowProblemTest, ServiceTimesFromCapacities) {
  const WindowProblem p = two_class_problem(25.0, 10.0);
  const qn::CyclicNetwork net = p.network({1, 1});
  // 1000 bits / 50 kbit/s = 0.02 s on the trunk channels.
  for (std::size_t k = 0; k + 1 < net.chains[0].route.size(); ++k) {
    EXPECT_NEAR(net.chains[0].service_times[k], 0.02, 1e-12);
  }
  // Source queue = 1/S_r.
  EXPECT_NEAR(net.chains[0].service_times.back(), 1.0 / 25.0, 1e-12);
  EXPECT_NEAR(net.chains[1].service_times.back(), 1.0 / 10.0, 1e-12);
}

TEST(WindowProblemTest, EvaluateProducesConsistentMetrics) {
  const WindowProblem p = two_class_problem();
  const Evaluation ev = p.evaluate({4, 4});
  EXPECT_GT(ev.throughput, 0.0);
  EXPECT_GT(ev.mean_delay, 0.0);
  EXPECT_NEAR(ev.power, ev.throughput / ev.mean_delay, 1e-9);
  EXPECT_NEAR(ev.throughput, ev.class_throughput[0] + ev.class_throughput[1],
              1e-9);
  EXPECT_TRUE(ev.converged);
  // Throughput cannot exceed the offered load.
  EXPECT_LE(ev.class_throughput[0], 20.0 + 1e-6);
  EXPECT_LE(ev.class_throughput[1], 20.0 + 1e-6);
}

TEST(WindowProblemTest, SymmetricLoadsGiveSymmetricEvaluation) {
  const WindowProblem p = two_class_problem(18.0, 18.0);
  const Evaluation ev = p.evaluate({4, 4});
  EXPECT_NEAR(ev.class_throughput[0], ev.class_throughput[1], 1e-6);
  EXPECT_NEAR(ev.class_delay[0], ev.class_delay[1], 1e-6);
}

TEST(WindowProblemTest, EvaluatorsAgreeReasonably) {
  const WindowProblem p = two_class_problem();
  const Evaluation heuristic = p.evaluate({3, 3}, "heuristic-mva");
  const Evaluation exact_mva = p.evaluate({3, 3}, "exact-mva");
  const Evaluation convolution = p.evaluate({3, 3}, "convolution");
  // The two exact engines agree to solver precision.
  EXPECT_NEAR(exact_mva.power, convolution.power, 1e-6 * exact_mva.power);
  // The heuristic is within a few percent (thesis 4.2).
  EXPECT_NEAR(heuristic.power, exact_mva.power, 0.05 * exact_mva.power);
}

TEST(WindowProblemTest, ThroughputIncreasesWithWindow) {
  const WindowProblem p = two_class_problem();
  double previous = 0.0;
  for (int e = 1; e <= 8; ++e) {
    const Evaluation ev = p.evaluate({e, e}, "convolution");
    EXPECT_GT(ev.throughput, previous);
    previous = ev.throughput;
  }
}

TEST(WindowProblemTest, DelayIncreasesWithWindow) {
  const WindowProblem p = two_class_problem();
  double previous = 0.0;
  for (int e = 1; e <= 8; ++e) {
    const Evaluation ev = p.evaluate({e, e}, "convolution");
    EXPECT_GT(ev.mean_delay, previous);
    previous = ev.mean_delay;
  }
}

TEST(WindowProblemTest, ZeroWindowClosesChannel) {
  const WindowProblem p = two_class_problem();
  const Evaluation ev = p.evaluate({0, 3}, "convolution");
  EXPECT_DOUBLE_EQ(ev.class_throughput[0], 0.0);
  EXPECT_GT(ev.class_throughput[1], 0.0);
}

TEST(WindowProblemTest, RejectsMalformedInput) {
  const WindowProblem p = two_class_problem();
  EXPECT_THROW((void)p.evaluate({1}), std::invalid_argument);
  EXPECT_THROW((void)p.evaluate({-1, 1}), std::invalid_argument);
  EXPECT_THROW((void)p.evaluate({1, 1}, "no-such-solver"),
               std::invalid_argument);
  EXPECT_THROW(WindowProblem(net::canada_topology(), {}),
               std::invalid_argument);
  EXPECT_THROW(
      WindowProblem(net::canada_topology(), net::two_class_traffic(0.0, 1.0)),
      std::invalid_argument);
}

// ------------------------------------------------------------------- windim

TEST(DimensionTest, MatchesExhaustiveOptimumTwoClass) {
  const WindowProblem p = two_class_problem();
  const DimensionResult result = dimension_windows(p);

  const search::Objective objective = [&](const search::Point& e) {
    const Evaluation ev = p.evaluate(e);
    return ev.power > 0.0 ? 1.0 / ev.power
                          : std::numeric_limits<double>::infinity();
  };
  const search::ExhaustiveResult exhaustive =
      search::exhaustive_search(objective, {1, 1}, {10, 10});
  EXPECT_NEAR(result.evaluation.power, 1.0 / exhaustive.best_value,
              1e-6 / exhaustive.best_value);
  EXPECT_EQ(result.optimal_windows, exhaustive.best);
}

TEST(DimensionTest, SymmetricLoadsGiveSymmetricPower) {
  // Thesis Table 4.7: symmetric loadings yield symmetric optima (the
  // power surface is symmetric, so ties may pick either orientation).
  const DimensionResult r = dimension_windows(two_class_problem(25.0, 25.0));
  const WindowProblem p = two_class_problem(25.0, 25.0);
  const std::vector<int> mirrored{r.optimal_windows[1],
                                  r.optimal_windows[0]};
  const Evaluation at_mirror = p.evaluate(mirrored);
  EXPECT_NEAR(at_mirror.power, r.evaluation.power,
              1e-6 * r.evaluation.power);
}

TEST(DimensionTest, HigherLoadShrinksWindowsAndGrowsPower) {
  // Thesis Table 4.7's headline shape.
  const DimensionResult light = dimension_windows(two_class_problem(12, 13));
  const DimensionResult heavy = dimension_windows(two_class_problem(75, 75));
  EXPECT_LE(heavy.optimal_windows[0], light.optimal_windows[0]);
  EXPECT_LE(heavy.optimal_windows[1], light.optimal_windows[1]);
  EXPECT_GT(heavy.evaluation.power, light.evaluation.power);
}

TEST(DimensionTest, RespectsBounds) {
  DimensionOptions options;
  options.min_window = 3;
  options.max_window = 5;
  const DimensionResult r =
      dimension_windows(two_class_problem(75.0, 75.0), options);
  for (int e : r.optimal_windows) {
    EXPECT_GE(e, 3);
    EXPECT_LE(e, 5);
  }
}

TEST(DimensionTest, CustomInitialWindows) {
  DimensionOptions options;
  options.initial_windows = {8, 8};
  const DimensionResult custom =
      dimension_windows(two_class_problem(), options);
  const DimensionResult standard = dimension_windows(two_class_problem());
  // Different starting points, same optimum (surface is well behaved).
  EXPECT_EQ(custom.optimal_windows, standard.optimal_windows);
}

TEST(DimensionTest, ExactEvaluatorWorksOnSmallBox) {
  DimensionOptions options;
  options.solver = "convolution";
  options.max_window = 6;
  const DimensionResult r =
      dimension_windows(two_class_problem(), options);
  EXPECT_GT(r.evaluation.power, 0.0);
  EXPECT_GE(r.optimal_windows[0], 1);
}

TEST(DimensionTest, FourClassDimensioningRuns) {
  const WindowProblem p(net::canada_topology(),
                        net::four_class_traffic(6.0, 6.0, 6.0, 12.0));
  EXPECT_EQ(p.kleinrock_windows(), (std::vector<int>{4, 4, 3, 1}));
  const DimensionResult r = dimension_windows(p);
  EXPECT_EQ(r.optimal_windows.size(), 4u);
  // Thesis Table 4.12: the searched optimum beats the hop-count rule.
  const Evaluation hop_rule = p.evaluate({4, 4, 3, 1});
  EXPECT_GE(r.evaluation.power, hop_rule.power - 1e-9);
}

TEST(DimensionTest, RejectsBadOptions) {
  DimensionOptions bad;
  bad.min_window = 0;
  EXPECT_THROW((void)dimension_windows(two_class_problem(), bad),
               std::invalid_argument);
  DimensionOptions empty;
  empty.min_window = 5;
  empty.max_window = 4;
  EXPECT_THROW((void)dimension_windows(two_class_problem(), empty),
               std::invalid_argument);
  DimensionOptions mismatch;
  mismatch.initial_windows = {1, 2, 3};
  EXPECT_THROW((void)dimension_windows(two_class_problem(), mismatch),
               std::invalid_argument);
  DimensionOptions unknown;
  unknown.solver = "no-such-solver";
  EXPECT_THROW((void)dimension_windows(two_class_problem(), unknown),
               std::invalid_argument);
}

TEST(DimensionTest, LinearizerEvaluatorAgreesWithExact) {
  const WindowProblem p = two_class_problem();
  const Evaluation lin = p.evaluate({3, 3}, "linearizer");
  const Evaluation exact = p.evaluate({3, 3}, "exact-mva");
  EXPECT_NEAR(lin.power, exact.power, 0.01 * exact.power);
}

TEST(DimensionTest, GeneralizedPowerShiftsTheOptimum) {
  // alpha > 1 weights throughput more, so the optimal windows cannot
  // shrink; alpha < 1 weights delay more, so they cannot grow.
  const WindowProblem p = two_class_problem(20.0, 20.0);
  DimensionOptions plain;
  DimensionOptions throughput_heavy;
  throughput_heavy.objective = DimensionObjective::kGeneralizedPower;
  throughput_heavy.power_exponent = 3.0;
  DimensionOptions delay_heavy;
  delay_heavy.objective = DimensionObjective::kGeneralizedPower;
  delay_heavy.power_exponent = 0.4;

  const DimensionResult base = dimension_windows(p, plain);
  const DimensionResult big = dimension_windows(p, throughput_heavy);
  const DimensionResult small = dimension_windows(p, delay_heavy);
  for (int r = 0; r < 2; ++r) {
    EXPECT_GE(big.optimal_windows[static_cast<std::size_t>(r)],
              base.optimal_windows[static_cast<std::size_t>(r)]);
    EXPECT_LE(small.optimal_windows[static_cast<std::size_t>(r)],
              base.optimal_windows[static_cast<std::size_t>(r)]);
  }
  // alpha = 1 reduces exactly to the plain power objective.
  DimensionOptions alpha_one;
  alpha_one.objective = DimensionObjective::kGeneralizedPower;
  alpha_one.power_exponent = 1.0;
  const DimensionResult same = dimension_windows(p, alpha_one);
  EXPECT_EQ(same.optimal_windows, base.optimal_windows);
}

TEST(DimensionTest, DelayCapMaximizesThroughputWithinCap) {
  const WindowProblem p = two_class_problem(25.0, 25.0);
  DimensionOptions capped;
  capped.objective = DimensionObjective::kThroughputUnderDelayCap;
  capped.max_delay = 0.150;  // seconds
  const DimensionResult r = dimension_windows(p, capped);
  EXPECT_LE(r.evaluation.mean_delay, 0.150 + 1e-9);
  // Any larger symmetric window must violate the cap or lose throughput.
  const std::vector<int> bigger{r.optimal_windows[0] + 1,
                                r.optimal_windows[1] + 1};
  const Evaluation at_bigger = p.evaluate(bigger);
  EXPECT_TRUE(at_bigger.mean_delay > 0.150 ||
              at_bigger.throughput <= r.evaluation.throughput + 1e-9);
  // A looser cap can only increase the achievable throughput.
  DimensionOptions loose = capped;
  loose.max_delay = 0.5;
  const DimensionResult r2 = dimension_windows(p, loose);
  EXPECT_GE(r2.evaluation.throughput, r.evaluation.throughput - 1e-9);
}

TEST(DimensionTest, ImpossibleDelayCapReportsInfeasible) {
  const WindowProblem p = two_class_problem(25.0, 25.0);
  DimensionOptions impossible;
  impossible.objective = DimensionObjective::kThroughputUnderDelayCap;
  impossible.max_delay = 0.001;  // far below any achievable delay
  const DimensionResult r = dimension_windows(p, impossible);
  EXPECT_FALSE(r.feasible);
  DimensionOptions possible = impossible;
  possible.max_delay = 0.3;
  EXPECT_TRUE(dimension_windows(p, possible).feasible);
}

TEST(DimensionTest, ObjectiveOptionValidation) {
  const WindowProblem p = two_class_problem();
  DimensionOptions bad_alpha;
  bad_alpha.objective = DimensionObjective::kGeneralizedPower;
  bad_alpha.power_exponent = 0.0;
  EXPECT_THROW((void)dimension_windows(p, bad_alpha), std::invalid_argument);
  DimensionOptions bad_cap;
  bad_cap.objective = DimensionObjective::kThroughputUnderDelayCap;
  bad_cap.max_delay = 0.0;
  EXPECT_THROW((void)dimension_windows(p, bad_cap), std::invalid_argument);
}

}  // namespace
}  // namespace windim::core
