// Tests for the warm-started window evaluation engine: the thread pool,
// warm-started heuristic MVA, and the dimensioning determinism /
// budget-exhaustion guarantees.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "mva/approx.h"
#include "net/examples.h"
#include "qn/cyclic.h"
#include "sweep_fixture.h"
#include "util/thread_pool.h"
#include "windim/dimension.h"
#include "windim/problem.h"

namespace windim {
namespace {

// ---------------------------------------------------------------- thread pool

TEST(ThreadPoolTest, RunsSubmittedJobs) {
  util::ThreadPool pool(2);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  bool ran = false;
  pool.submit([&] { ran = true; }).get();
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, RunBatchWaitsForAllJobs) {
  util::ThreadPool pool(3);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 20; ++i) jobs.push_back([&] { ++count; });
  pool.run_batch(std::move(jobs));
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, RunBatchPropagatesJobException) {
  util::ThreadPool pool(2);
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> jobs;
  jobs.push_back([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 8; ++i) jobs.push_back([&] { ++completed; });
  EXPECT_THROW(pool.run_batch(std::move(jobs)), std::runtime_error);
  // Every non-throwing job still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 8);
}

TEST(ThreadPoolTest, ResolveThreadCountCapsAtHardware) {
  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(util::resolve_thread_count(0), hw);
  EXPECT_EQ(util::resolve_thread_count(-3), hw);
  EXPECT_EQ(util::resolve_thread_count(1), 1u);
  EXPECT_LE(util::resolve_thread_count(1024), hw);
}

// ------------------------------------------------------------ warm-start MVA

qn::NetworkModel four_class_model(const std::vector<int>& windows) {
  const core::WindowProblem problem(
      net::canada_topology(), net::four_class_traffic(6.0, 6.0, 6.0, 12.0));
  return problem.network(windows).to_model();
}

TEST(WarmStartMvaTest, WarmSolutionMatchesColdWithinTolerance) {
  mva::ApproxMvaOptions options;
  const qn::NetworkModel base = four_class_model({4, 4, 3, 1});
  const mva::MvaSolution cold_base = mva::solve_approx_mva(base, options);
  ASSERT_TRUE(cold_base.converged);

  mva::MvaWarmStart seed;
  seed.lambda = cold_base.chain_throughput;
  seed.number = cold_base.mean_queue;
  seed.sigma = cold_base.sigma;

  // Neighboring window settings, as generated by the pattern search.
  const std::vector<std::vector<int>> neighbors = {
      {5, 4, 3, 1}, {3, 4, 3, 1}, {4, 5, 3, 1}, {4, 4, 2, 1}, {4, 4, 3, 2}};
  for (const std::vector<int>& w : neighbors) {
    const qn::NetworkModel model = four_class_model(w);
    const mva::MvaSolution cold = mva::solve_approx_mva(model, options);
    const mva::MvaSolution warm = mva::solve_approx_mva(model, options, &seed);
    ASSERT_TRUE(cold.converged);
    ASSERT_TRUE(warm.converged);
    for (std::size_t r = 0; r < cold.chain_throughput.size(); ++r) {
      EXPECT_NEAR(warm.chain_throughput[r], cold.chain_throughput[r],
                  50.0 * options.tolerance *
                      std::max(1.0, cold.chain_throughput[r]))
          << "chain " << r << " windows " << ::testing::PrintToString(w);
    }
    // The lazy sigma refresh is what makes warm starts cheap: most warm
    // sweeps must reuse the seeded sigma.
    EXPECT_EQ(cold.sigma_refreshes, cold.iterations);
    EXPECT_LT(warm.sigma_refreshes, warm.iterations);
  }
}

TEST(WarmStartMvaTest, MismatchedWarmStateThrows) {
  const qn::NetworkModel model = four_class_model({4, 4, 3, 1});
  mva::MvaWarmStart bad;
  bad.lambda = {1.0};  // wrong chain count
  bad.number.assign(4, 0.0);
  EXPECT_THROW((void)mva::solve_approx_mva(model, {}, &bad),
               std::invalid_argument);
}

TEST(WarmStartMvaTest, ZeroCycleTimeChainIsRejected) {
  // A populated chain whose demands are all zero has no finite fixed
  // point: lambda would seed at +inf.  Must throw, not diverge.
  qn::CyclicNetwork net;
  qn::Station s;
  s.name = "ch";
  s.discipline = qn::Discipline::kFcfs;
  net.stations.push_back(s);
  qn::CyclicChain chain;
  chain.name = "degenerate";
  chain.population = 3;
  chain.route = {0};
  chain.service_times = {0.0};
  net.chains.push_back(chain);
  EXPECT_THROW((void)mva::solve_approx_mva(net.to_model(), {}),
               qn::ModelError);
}

// ------------------------------------------------------- dimensioning engine

core::WindowProblem two_class_problem() {
  return core::WindowProblem(net::canada_topology(),
                             net::two_class_traffic(20.0, 20.0));
}

core::WindowProblem four_class_problem() {
  return core::WindowProblem(net::canada_topology(),
                             net::four_class_traffic(6.0, 6.0, 6.0, 12.0));
}

void expect_same_result(const core::DimensionResult& a,
                        const core::DimensionResult& b) {
  EXPECT_EQ(a.optimal_windows, b.optimal_windows);
  EXPECT_EQ(a.base_points, b.base_points);
  EXPECT_NEAR(a.evaluation.power, b.evaluation.power,
              1e-9 * std::max(1.0, std::abs(a.evaluation.power)));
}

TEST(DimensionEngineTest, SweepPoolRunMatchesSerial) {
  // Chain-block-parallel sweeps are the one parallel axis of a run; on a
  // model past the block threshold they must not move any result bit.
  const core::WindowProblem problem = test::sweep_problem();
  const core::DimensionResult serial =
      dimension_windows(problem, test::sweep_options(nullptr));
  util::ThreadPool pool(4);
  const core::DimensionResult pooled =
      dimension_windows(problem, test::sweep_options(&pool));
  expect_same_result(serial, pooled);
  EXPECT_EQ(serial.evaluation.power, pooled.evaluation.power);
  EXPECT_EQ(serial.objective_evaluations, pooled.objective_evaluations);
  EXPECT_EQ(serial.cache_hits, pooled.cache_hits);
  EXPECT_EQ(serial.objective_evaluations, test::kSweepEvaluations);
}

TEST(DimensionEngineTest, WarmStartMatchesColdStart) {
  const core::WindowProblem problem = four_class_problem();
  core::DimensionOptions cold;
  cold.warm_start = false;
  core::DimensionOptions warm;
  warm.warm_start = true;
  const core::DimensionResult cold_result = dimension_windows(problem, cold);
  const core::DimensionResult warm_result = dimension_windows(problem, warm);
  EXPECT_EQ(cold_result.optimal_windows, warm_result.optimal_windows);
  EXPECT_NEAR(cold_result.evaluation.power, warm_result.evaluation.power,
              1e-4 * std::max(1.0, cold_result.evaluation.power));
  // The warm run must actually skip sigma work at the optimum's
  // neighborhood (it re-reports the cached best-point evaluation).
  EXPECT_LE(warm_result.evaluation.sigma_refreshes,
            warm_result.evaluation.iterations);
}

TEST(DimensionEngineTest, BudgetExhaustionReturnsBestSoFar) {
  const core::WindowProblem problem = two_class_problem();
  core::DimensionOptions unlimited;
  const core::DimensionResult full = dimension_windows(problem, unlimited);
  ASSERT_FALSE(full.budget_exhausted);

  core::DimensionOptions capped;
  capped.max_evaluations = 4;
  const core::DimensionResult partial = dimension_windows(problem, capped);
  EXPECT_TRUE(partial.budget_exhausted);
  EXPECT_LE(partial.objective_evaluations, 4u);
  EXPECT_TRUE(partial.feasible);
  // The partial result carries a real evaluation of its best point.
  EXPECT_EQ(partial.evaluation.windows, partial.optimal_windows);
  EXPECT_GT(partial.evaluation.power, 0.0);
}

TEST(DimensionEngineTest, BestPointEvaluationIsReusedNotRecomputed) {
  const core::WindowProblem problem = two_class_problem();
  const core::DimensionResult result = dimension_windows(problem);
  // The reported evaluation comes from the run's store: it is the full
  // metrics of the optimum, not a placeholder.
  EXPECT_EQ(result.evaluation.windows, result.optimal_windows);
  EXPECT_GT(result.evaluation.throughput, 0.0);
  EXPECT_GT(result.evaluation.iterations, 0);
  const core::Evaluation direct =
      problem.evaluate(result.optimal_windows);
  EXPECT_NEAR(result.evaluation.power, direct.power,
              1e-4 * std::max(1.0, direct.power));
}

}  // namespace
}  // namespace windim
