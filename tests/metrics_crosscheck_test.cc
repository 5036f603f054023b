// Accounting crosschecks: run dimension_windows with the global metrics
// registry enabled and assert the engine's bookkeeping is internally
// consistent — evaluations == cache misses, hits + misses == probes
// (modulo budget-exhausted probes, reported separately), budget
// consumed == misses — on the thesis fixtures, also when the evaluation
// budget runs out.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/examples.h"
#include "obs/metrics.h"
#include "windim/dimension.h"
#include "windim/problem.h"

namespace windim {
namespace {

class MetricsCrosscheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::global().reset();
    obs::MetricsRegistry::global().set_enabled(true);
  }
  void TearDown() override {
    obs::MetricsRegistry::global().set_enabled(false);
    obs::MetricsRegistry::global().reset();
  }
};

void expect_consistent_accounting(const core::DimensionResult& result,
                                  const obs::MetricsSnapshot& snap) {
  const std::uint64_t probes = snap.counter_or("search.probes");
  const std::uint64_t hits = snap.counter_or("search.cache_hits");
  const std::uint64_t misses = snap.counter_or("search.cache_misses");
  const std::uint64_t evaluations = snap.counter_or("search.evaluations");
  const std::uint64_t budget = snap.counter_or("search.budget_consumed");
  const std::uint64_t exhausted =
      snap.counter_or("search.budget_exhausted_probes");

  // The tentpole invariants.
  EXPECT_EQ(evaluations, misses);
  EXPECT_EQ(hits + misses + exhausted, probes);
  EXPECT_EQ(budget, misses);

  // Engine-level counters agree with the registry's view.
  EXPECT_EQ(result.objective_evaluations, misses);
  EXPECT_EQ(result.cache_hits, hits);
  EXPECT_EQ(snap.counter_or("search.base_points"),
            result.base_points.size());
  EXPECT_EQ(snap.counter_or("search.runs"), 1u);
  EXPECT_GT(probes, 0u);

  // The per-solver profiling hook saw every fresh evaluation (each one
  // is exactly one registry solve; revisits are served from the memo).
  EXPECT_EQ(snap.counter_or("solver.heuristic-mva.solves"), misses);
  const obs::HistogramSnapshot* latency =
      snap.histogram("solver.heuristic-mva.solve_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, misses);
  EXPECT_GT(snap.gauge_or("solver.heuristic-mva.arena_hwm_bytes"), 0.0);

  // Derived gauges reflect the reported optimum.
  EXPECT_DOUBLE_EQ(snap.gauge_or("windim.power"), result.evaluation.power);
  EXPECT_DOUBLE_EQ(snap.gauge_or("windim.fairness"),
                   result.evaluation.fairness);
}

TEST_F(MetricsCrosscheckTest, TwoClassFixture) {
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  const core::DimensionResult result = dimension_windows(problem);
  expect_consistent_accounting(result,
                               obs::MetricsRegistry::global().snapshot());
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot().counter_or(
                "search.budget_exhausted_probes"),
            0u);
}

TEST_F(MetricsCrosscheckTest, FourClassFixture) {
  const core::WindowProblem problem(
      net::canada_topology(), net::four_class_traffic(6.0, 6.0, 6.0, 12.0));
  const core::DimensionResult result = dimension_windows(problem);
  expect_consistent_accounting(result,
                               obs::MetricsRegistry::global().snapshot());
}

TEST_F(MetricsCrosscheckTest, InvariantsHoldUnderBudgetExhaustion) {
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  core::DimensionOptions options;
  options.max_evaluations = 4;
  const core::DimensionResult result = dimension_windows(problem, options);
  ASSERT_TRUE(result.budget_exhausted);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("search.evaluations"), 4u);
  EXPECT_EQ(snap.counter_or("search.budget_consumed"), 4u);
  EXPECT_GT(snap.counter_or("search.budget_exhausted_probes"), 0u);
  EXPECT_EQ(snap.counter_or("search.cache_hits") +
                snap.counter_or("search.cache_misses") +
                snap.counter_or("search.budget_exhausted_probes"),
            snap.counter_or("search.probes"));
}

TEST_F(MetricsCrosscheckTest, DisabledRegistryStaysEmpty) {
  obs::MetricsRegistry::global().set_enabled(false);
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  (void)dimension_windows(problem);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("search.runs"), 0u);
  EXPECT_EQ(snap.counter_or("search.probes"), 0u);
  EXPECT_EQ(snap.counter_or("solver.heuristic-mva.solves"), 0u);
}

}  // namespace
}  // namespace windim
