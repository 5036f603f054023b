// Reproduction regression suite: pins the qualitative claims of every
// thesis table/figure (the statements EXPERIMENTS.md makes).  These are
// the tests that fail if a solver change silently breaks the paper
// reproduction, even when all unit-level invariants still hold.
#include <gtest/gtest.h>

#include <cmath>

#include "windim/windim.h"

namespace windim {
namespace {

core::WindowProblem two_class(double s1, double s2) {
  return core::WindowProblem(net::canada_topology(),
                             net::two_class_traffic(s1, s2));
}

// ------------------------------------------------------------- Table 4.7

TEST(ReproductionTest, Table47_WindowsShrinkAndPowerGrowsWithLoad) {
  std::vector<int> previous_windows{99, 99};
  double previous_power = 0.0;
  for (double s : {12.5, 20.0, 37.5, 75.0}) {
    const core::DimensionResult r = core::dimension_windows(two_class(s, s));
    EXPECT_LE(r.optimal_windows[0], previous_windows[0]) << "S=" << s;
    EXPECT_LE(r.optimal_windows[1], previous_windows[1]) << "S=" << s;
    EXPECT_GT(r.evaluation.power, previous_power) << "S=" << s;
    previous_windows = r.optimal_windows;
    previous_power = r.evaluation.power;
  }
}

TEST(ReproductionTest, Table47_SymmetricLoadsSymmetricOptima) {
  for (double s : {15.5, 25.0, 50.0}) {
    const core::DimensionResult r = core::dimension_windows(two_class(s, s));
    // Mirror ties allowed: the mirrored setting must achieve the same
    // power.
    const core::WindowProblem p = two_class(s, s);
    const std::vector<int> mirrored{r.optimal_windows[1],
                                    r.optimal_windows[0]};
    EXPECT_NEAR(p.evaluate(mirrored).power, r.evaluation.power,
                1e-6 * r.evaluation.power)
        << "S=" << s;
  }
}

TEST(ReproductionTest, Table47_PowerBand) {
  // Loose numeric pins (heuristic evaluator): the reproduction lands in
  // these bands today; a solver regression that moves power by >10%
  // trips them.
  EXPECT_NEAR(core::dimension_windows(two_class(12.0, 13.0)).evaluation.power,
              177.5, 10.0);
  EXPECT_NEAR(core::dimension_windows(two_class(75.0, 75.0)).evaluation.power,
              222.3, 11.0);
}

// ------------------------------------------------------------- Table 4.8

TEST(ReproductionTest, Table48_ImbalanceDegradesPowerButNotWindows) {
  const core::DimensionResult balanced =
      core::dimension_windows(two_class(12.0, 13.0));
  const core::DimensionResult skewed =
      core::dimension_windows(two_class(5.0, 20.0));
  EXPECT_LT(skewed.evaluation.power, balanced.evaluation.power);
  // Optimal windows move at most one unit per class.
  for (int r = 0; r < 2; ++r) {
    EXPECT_LE(std::abs(skewed.optimal_windows[static_cast<std::size_t>(r)] -
                       balanced.optimal_windows[static_cast<std::size_t>(r)]),
              1);
  }
}

// --------------------------------------------------------------- Fig 4.9

TEST(ReproductionTest, Fig49_LargeWindowsPeakEarlyThenAreDominated) {
  // At S >= 25 the small windows dominate the large ones ...
  for (double s : {25.0, 50.0, 100.0}) {
    const core::WindowProblem p = two_class(s, s);
    const double small = p.evaluate({2, 2}).power;
    const double large = p.evaluate({7, 7}).power;
    EXPECT_GT(small, large) << "S=" << s;
  }
  // ... while at light load the large window is harmless (plateau).
  const core::WindowProblem light = two_class(5.0, 5.0);
  EXPECT_NEAR(light.evaluate({7, 7}).power, light.evaluate({4, 4}).power,
              0.02 * light.evaluate({4, 4}).power);
}

TEST(ReproductionTest, Fig49_SmallWindowCurveMonotone) {
  // E = (1,1): power rises monotonically to its plateau.
  double previous = 0.0;
  for (double s : {2.5, 10.0, 25.0, 50.0, 100.0}) {
    const double power = two_class(s, s).evaluate({1, 1}).power;
    EXPECT_GT(power, previous);
    previous = power;
  }
}

// ------------------------------------------------------------- Table 4.12

TEST(ReproductionTest, Table412_HopCountRuleClearlySuboptimal) {
  const struct {
    double s[4];
    double min_ratio;  // P_op / P_4431 lower pin
  } rows[] = {
      {{6.0, 6.0, 6.0, 12.0}, 1.10},
      {{12.5, 12.5, 12.5, 25.0}, 1.40},
      {{20.0, 20.0, 20.0, 40.0}, 1.75},
  };
  for (const auto& row : rows) {
    const core::WindowProblem p(
        net::canada_topology(),
        net::four_class_traffic(row.s[0], row.s[1], row.s[2], row.s[3]));
    const core::DimensionResult dim = core::dimension_windows(p);
    const core::Evaluation hop = p.evaluate({4, 4, 3, 1});
    EXPECT_GT(dim.evaluation.power / hop.power, row.min_ratio)
        << "row S4=" << row.s[3];
  }
}

TEST(ReproductionTest, Table412_BalancedRatesMaximizePower) {
  // At total 62.5: the thesis's capacity-proportional row beats the
  // skewed rows.
  auto optimal_power = [](double s1, double s2, double s3, double s4) {
    const core::WindowProblem p(net::canada_topology(),
                                net::four_class_traffic(s1, s2, s3, s4));
    return core::dimension_windows(p).evaluation.power;
  };
  const double balanced = optimal_power(12.5, 12.5, 12.5, 25.0);
  const double mixed = optimal_power(21.24, 9.86, 18.85, 12.55);
  const double skewed = optimal_power(33.59, 1.70, 24.15, 3.06);
  EXPECT_GT(balanced, mixed);
  EXPECT_GT(mixed, skewed);
}

// ------------------------------------------------------ Kleinrock (4.6)

TEST(ReproductionTest, KleinrockIsolatedChainOptimumNearHopCount) {
  for (int hops : {3, 5, 7}) {
    net::Topology topo;
    std::vector<std::string> path;
    for (int n = 0; n <= hops; ++n) {
      topo.add_node("n" + std::to_string(n));
      path.push_back("n" + std::to_string(n));
      if (n > 0) {
        topo.add_channel("n" + std::to_string(n - 1),
                         "n" + std::to_string(n), 50.0);
      }
    }
    net::TrafficClass tc;
    tc.name = "chain";
    tc.path = path;
    tc.arrival_rate = 30.0;
    const core::WindowProblem p(topo, {tc});
    int best = 1;
    double best_power = -1.0;
    for (int e = 1; e <= 2 * hops + 2; ++e) {
      const double power =
          p.evaluate({e}, "convolution").power;
      if (power > best_power) {
        best_power = power;
        best = e;
      }
    }
    EXPECT_LE(std::abs(best - hops), 1) << "hops=" << hops;
  }
}

// ------------------------------------------------- heuristic quality (A1)

TEST(ReproductionTest, HeuristicPowerWithinThreePercentOnGrid) {
  const core::WindowProblem p = two_class(20.0, 20.0);
  for (int e1 = 1; e1 <= 5; ++e1) {
    for (int e2 = 1; e2 <= 5; ++e2) {
      const double h = p.evaluate({e1, e2}).power;
      const double x =
          p.evaluate({e1, e2}, "convolution").power;
      EXPECT_LT(std::abs(h - x) / x, 0.03) << "(" << e1 << "," << e2 << ")";
    }
  }
}

}  // namespace
}  // namespace windim
