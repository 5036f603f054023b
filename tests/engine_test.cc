// Tests for the warm-started window evaluation engine: the thread pool,
// warm-started heuristic MVA, the dimensioning determinism /
// budget-exhaustion guarantees, and the packed warm-start format.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "mva/approx.h"
#include "net/examples.h"
#include "net/generators.h"
#include "obs/probe.h"
#include "qn/compiled_model.h"
#include "qn/cyclic.h"
#include "search/pattern_search.h"
#include "solver/registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "windim/dimension.h"
#include "windim/objectives.h"
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

  // Neighboring window settings, as generated by the pattern search.
  const std::vector<std::vector<int>> neighbors = {
      {5, 4, 3, 1}, {3, 4, 3, 1}, {4, 5, 3, 1}, {4, 4, 2, 1}, {4, 4, 3, 2}};
  for (const std::vector<int>& w : neighbors) {
    const qn::NetworkModel model = four_class_model(w);
    const mva::MvaSolution cold = mva::solve_approx_mva(model, options);
    const mva::MvaSolution warm =
        mva::solve_approx_mva(model, options, &cold_base);
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
  mva::MvaSolution bad;
  bad.chain_throughput = {1.0};  // wrong chain count
  bad.mean_queue.assign(4, 0.0);
  EXPECT_THROW((void)mva::solve_approx_mva(model, {}, &bad),
               std::invalid_argument);
}

TEST(WarmStartMvaTest, OffRouteSeedEntriesAreIgnored) {
  // A dense seed's queue and sigma entries off the chains' routes carry
  // no state: the reference solver ignores them and returns exactly the
  // solve of the clean seed.  (The kernel's packed seed has no such
  // entries.)
  const qn::NetworkModel base = four_class_model({4, 4, 3, 1});
  const mva::MvaSolution clean = mva::solve_approx_mva(base, {});
  mva::MvaSolution dirty = clean;
  const int num_chains = base.num_chains();
  int off_route = 0;
  for (int n = 0; n < base.num_stations(); ++n) {
    for (int r = 0; r < num_chains; ++r) {
      if (base.visits(r, n)) continue;
      const std::size_t idx = static_cast<std::size_t>(n) * num_chains + r;
      dirty.mean_queue[idx] = 5.0;
      dirty.sigma[idx] = 0.7;
      ++off_route;
    }
  }
  ASSERT_GT(off_route, 0);

  const qn::NetworkModel model = four_class_model({5, 4, 3, 1});
  const mva::MvaSolution from_clean = mva::solve_approx_mva(model, {}, &clean);
  const mva::MvaSolution from_dirty = mva::solve_approx_mva(model, {}, &dirty);
  EXPECT_EQ(from_dirty.chain_throughput, from_clean.chain_throughput);
  EXPECT_EQ(from_dirty.mean_queue, from_clean.mean_queue);
  EXPECT_EQ(from_dirty.sigma, from_clean.sigma);
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

// ------------------------------------------------ packed warm-start format

TEST(PackedWarmStartTest, KernelRejectsSeedsNotPackedOverTheVisitedCells) {
  // The kernel's seed holds N and sigma per visited cell.  A seed of any
  // other length, a dense N x R one included, is rejected.
  const qn::CompiledModel compiled =
      qn::CompiledModel::compile(four_class_model({4, 4, 3, 1}));
  const std::vector<int> population(compiled.base_populations().begin(),
                                    compiled.base_populations().end());
  const solver::Solver& kernel =
      solver::SolverRegistry::instance().require("heuristic-mva");
  const auto vec = [](std::span<const double> s) {
    return std::vector<double>(s.begin(), s.end());
  };
  solver::Workspace ws;
  const solver::Solution cold = kernel.solve(compiled, population, ws);
  const std::vector<double> lambda = vec(cold.chain_throughput);
  const std::vector<double> dense_number = vec(cold.mean_queue);
  const std::vector<double> dense_sigma = vec(cold.sigma);
  const std::size_t visited = compiled.visited_cell_count();
  ASSERT_LT(visited, dense_number.size());
  const std::vector<double> cells(visited, 0.5);

  const std::vector<mva::MvaWarmStart> bad = {
      {lambda, dense_number, dense_sigma},
      {lambda, dense_number, {}},
      {lambda, cells, dense_sigma},
      {lambda, std::vector<double>(visited + 1, 0.5), {}},
      {{1.0}, cells, cells},
  };
  for (const mva::MvaWarmStart& seed : bad) {
    ws.hints.warm_start = &seed;
    EXPECT_THROW((void)kernel.solve(compiled, population, ws),
                 std::invalid_argument);
  }
  const mva::MvaWarmStart packed{lambda, cells, cells};
  ws.hints.warm_start = &packed;
  EXPECT_NO_THROW((void)kernel.solve(compiled, population, ws));
}

TEST(PackedWarmStartTest, EvaluateWithGathersTheSolutionAtTheVisitedCells) {
  // final_state holds the R throughputs, then N and sigma at the
  // visited cells: entry k is the Solution's value at cell_index()[k].
  const core::WindowProblem problem(
      net::canada_topology(), net::four_class_traffic(6.0, 6.0, 6.0, 12.0));
  const std::vector<int> windows = {4, 4, 3, 1};
  const solver::SolverRegistry& registry = solver::SolverRegistry::instance();
  const solver::Solver& kernel = registry.require("heuristic-mva");
  solver::Workspace ws;
  mva::MvaWarmStart state;
  (void)problem.evaluate_with(windows, kernel, ws, nullptr, nullptr, &state);
  const qn::CompiledModel& model = problem.compiled();
  const solver::Solution sol = kernel.solve(model, windows, ws);

  const std::size_t visited = model.visited_cell_count();
  ASSERT_EQ(state.lambda.size(), static_cast<std::size_t>(model.num_chains()));
  ASSERT_EQ(state.number.size(), visited);
  ASSERT_EQ(state.sigma.size(), visited);
  for (std::size_t r = 0; r < state.lambda.size(); ++r) {
    EXPECT_EQ(state.lambda[r], sol.chain_throughput[r]) << "chain " << r;
  }
  for (std::size_t k = 0; k < visited; ++k) {
    const std::size_t i = model.cell_index()[k];
    EXPECT_EQ(state.number[k], sol.mean_queue[i]) << "cell " << k;
    EXPECT_EQ(state.sigma[k], sol.sigma[i]) << "cell " << k;
  }

  // A solver without a warm start leaves it empty.
  (void)problem.evaluate_with(windows, registry.require("exact-mva"), ws,
                              nullptr, nullptr, &state);
  EXPECT_TRUE(state.lambda.empty());
  EXPECT_TRUE(state.number.empty());
  EXPECT_TRUE(state.sigma.empty());
}

/// One resolved probe of a search: what the search saw, bit for bit.
struct Probe {
  std::vector<int> windows;
  std::vector<double> objectives;
  bool revisit = false;
  bool operator==(const Probe&) const = default;
};

/// WINDIM spelled out: every evaluation keeps its converged
/// MvaWarmStart, and each solve is seeded from the nearest accepted
/// base point (L1 distance, earliest anchor on ties) — the rule of
/// dimension_windows, without its EvaluationStore.
struct ExplicitRun {
  search::VectorSearchResult result;
  std::vector<Probe> probes;
};

ExplicitRun explicit_anchor_run(const core::WindowProblem& problem,
                                const core::DimensionOptions& options) {
  const core::ObjectiveSpec spec;  // power, like the default options
  const solver::Solver& solver =
      solver::SolverRegistry::instance().require(options.solver);
  std::map<std::vector<int>, mva::MvaWarmStart> states;
  std::vector<std::vector<int>> anchors;  // accepted base points, in order
  solver::Workspace ws;
  ExplicitRun run;

  const search::VectorObjective objective = [&](const search::Point& e) {
    const mva::MvaWarmStart* seed = nullptr;
    long best_distance = 0;
    for (const std::vector<int>& a : anchors) {
      long distance = 0;
      for (std::size_t i = 0; i < e.size(); ++i) {
        distance += std::labs(static_cast<long>(e[i]) - a[i]);
      }
      if (seed == nullptr || distance < best_distance) {
        seed = &states.at(a);
        best_distance = distance;
      }
    }
    mva::MvaWarmStart final_state;
    const core::Evaluation ev = problem.evaluate_with(
        e, solver, ws, &options.mva, seed, &final_state);
    states.emplace(e, std::move(final_state));
    return core::objective_vector(ev, spec);
  };

  search::VectorSearchOptions ps;
  ps.better = core::objective_comparator(spec);
  const std::size_t classes = static_cast<std::size_t>(problem.num_classes());
  ps.lower_bound.assign(classes, options.min_window);
  ps.upper_bound.assign(classes, options.max_window);
  ps.max_step_reductions = options.max_step_reductions;
  ps.max_evaluations = options.max_evaluations;
  ps.on_new_base = [&](const search::Point& p, const search::VectorEval&) {
    anchors.push_back(p);
  };
  ps.on_probe = [&](std::size_t, const search::Point& p,
                    const search::VectorEval& eval, bool revisit) {
    run.probes.push_back({p, eval.objectives, revisit});
  };
  std::vector<int> initial = problem.kleinrock_windows();
  for (int& w : initial) {
    w = std::clamp(w, options.min_window, options.max_window);
  }
  run.result = search::vector_pattern_search(objective, initial, ps);
  return run;
}

TEST(PackedWarmStartTest, DimensionMatchesExplicitAnchorRunBitForBit) {
  // dimension_windows's EvaluationStore applies the nearest-anchor rule
  // and hands each anchor's stored state straight to the next solve.
  // It must see the same probes, values and optimum as a search that
  // spells that rule out over a plain map of states.
  util::Rng rng(5);
  const net::Topology topology =
      net::random_topology(16, 8, 50.0, 100.0, rng);
  const core::WindowProblem problem(
      topology, net::random_traffic(topology, 48, 0.25, 1.0, rng));
  for (const char* solver : {"heuristic-mva", "schweitzer-mva"}) {
    SCOPED_TRACE(solver);
    core::DimensionOptions options;
    options.solver = solver;
    options.observe = true;
    const core::DimensionResult engine = dimension_windows(problem, options);
    const ExplicitRun reference = explicit_anchor_run(problem, options);

    std::vector<Probe> probes;
    for (const obs::ProbeRecord& rec : engine.probes) {
      probes.push_back({rec.windows, rec.objective_vector, rec.cache_hit});
    }
    ASSERT_GT(reference.probes.size(), 100u);
    EXPECT_EQ(probes, reference.probes);
    EXPECT_EQ(engine.optimal_windows, reference.result.best);
    EXPECT_EQ(engine.objective_vector, reference.result.best_eval.objectives);
    EXPECT_EQ(engine.objective_evaluations, reference.result.evaluations);
    EXPECT_EQ(engine.cache_hits, reference.result.cache_hits);
    ASSERT_EQ(engine.base_points.size(), reference.result.base_points.size());
    for (std::size_t i = 0; i < engine.base_points.size(); ++i) {
      EXPECT_EQ(engine.base_points[i].first,
                reference.result.base_points[i].first);
      EXPECT_EQ(engine.base_points[i].second,
                search::scalarize(reference.result.base_points[i].second));
    }
  }
}

}  // namespace
}  // namespace windim
