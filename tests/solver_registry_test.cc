// The solver registry and workspace contracts of the
// compile-once/solve-many engine: name/alias resolution, the
// unknown-name error listing available solvers, the zero-allocation
// warm path, warm-start hints, the product-form state-cap hint, and the
// scratch-model cache being keyed by compilation id (not address).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "mva/approx.h"
#include "obs/metrics.h"
#include "qn/compiled_model.h"
#include "qn/network.h"
#include "solver/registry.h"
#include "solver/solver.h"
#include "solver/workspace.h"

namespace windim {
namespace {

qn::Station fcfs(const std::string& name) {
  qn::Station s;
  s.name = name;
  s.discipline = qn::Discipline::kFcfs;
  return s;
}

/// Two-chain, three-station closed model; `scale` stretches every
/// service time so distinct instances have distinct solutions.
qn::NetworkModel two_chain_model(double scale = 1.0) {
  qn::NetworkModel m;
  for (int n = 0; n < 3; ++n) m.add_station(fcfs("q" + std::to_string(n)));
  qn::Chain a;
  a.type = qn::ChainType::kClosed;
  a.population = 3;
  a.visits = {{0, 1.0, 0.04 * scale}, {1, 1.0, 0.05 * scale}};
  m.add_chain(std::move(a));
  qn::Chain b;
  b.type = qn::ChainType::kClosed;
  b.population = 2;
  b.visits = {{1, 1.0, 0.05 * scale}, {2, 1.0, 0.09 * scale}};
  m.add_chain(std::move(b));
  return m;
}

TEST(SolverRegistry, ListsEveryCanonicalSolverName) {
  const std::vector<std::string> names =
      solver::SolverRegistry::instance().names();
  const std::vector<std::string> expected = {
      "convolution",    "buzen",      "recal",  "tree-convolution",
      "product-form",   "exact-mva",  "heuristic-mva",
      "schweitzer-mva", "linearizer", "bounds", "semiclosed",
      "auto"};
  EXPECT_EQ(names, expected);
  for (const std::string& name : names) {
    const solver::Solver* s = solver::SolverRegistry::instance().find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->name(), name);
  }
}

TEST(SolverRegistry, AliasesResolveToTheCanonicalSolver) {
  const auto& reg = solver::SolverRegistry::instance();
  EXPECT_EQ(reg.find("heuristic"), reg.find("heuristic-mva"));
  EXPECT_EQ(reg.find("schweitzer"), reg.find("schweitzer-mva"));
}

TEST(SolverRegistry, RequireOnUnknownNameListsAvailableSolvers) {
  const auto& reg = solver::SolverRegistry::instance();
  EXPECT_EQ(reg.find("no-such-solver"), nullptr);
  try {
    (void)reg.require("no-such-solver");
    FAIL() << "require() accepted an unknown name";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown solver 'no-such-solver'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("available solvers:"), std::string::npos) << what;
    EXPECT_NE(what.find("convolution"), std::string::npos) << what;
    EXPECT_NE(what.find("heuristic-mva"), std::string::npos) << what;
  }
}

/// The shrink-amplified heuristic worst case (see
/// tests/corpus/disciplines-187-heuristic.corpus and
/// mva_accuracy_test.cc): a delay-dominated single chain on which the
/// thesis sigma policy lands ~49% high.
qn::NetworkModel delay_dominated_model() {
  qn::NetworkModel m;
  qn::Station is1, is2;
  is1.name = "q1";
  is1.discipline = qn::Discipline::kInfiniteServer;
  is2.name = "q2";
  is2.discipline = qn::Discipline::kInfiniteServer;
  m.add_station(std::move(is1));
  m.add_station(std::move(is2));
  m.add_station(fcfs("q3"));
  qn::Chain c;
  c.name = "c0";
  c.type = qn::ChainType::kClosed;
  c.population = 2;
  c.visits = {{0, 1.0, 0.1}, {1, 1.0, 0.03}, {2, 1.0, 0.3}};
  m.add_chain(std::move(c));
  return m;
}

TEST(SolverRegistry, AutoRoutesDelayDominatedSingleChainToExactMva) {
  const auto& reg = solver::SolverRegistry::instance();
  const qn::CompiledModel compiled =
      qn::CompiledModel::compile(delay_dominated_model());
  // Shape check: 0.13 of a 0.43 s cycle at IS stations (~30%), above
  // the 25% routing threshold.
  EXPECT_EQ(&reg.route(compiled), reg.find("exact-mva"));

  const solver::PopulationVector population = {2};
  solver::Workspace ws;
  const solver::Solution exact =
      reg.require("exact-mva").solve(compiled, population, ws);
  const double exact_lambda = exact.chain_throughput[0];
  ASSERT_GT(exact_lambda, 0.0);

  solver::Workspace auto_ws;
  const solver::Solution routed =
      reg.require("auto").solve(compiled, population, auto_ws);
  EXPECT_TRUE(routed.converged);
  EXPECT_NEAR(routed.chain_throughput[0], exact_lambda,
              1e-9 * exact_lambda);
}

TEST(SolverRegistry, ExplicitHeuristicNameBypassesTheRouting) {
  // --solver=heuristic-mva must keep the raw thesis iteration reachable
  // (and therefore keep exhibiting its known ~49% worst-case error on
  // the delay-dominated shape): the routing is a dispatch-time default,
  // not a change to any solver.
  const auto& reg = solver::SolverRegistry::instance();
  const qn::CompiledModel compiled =
      qn::CompiledModel::compile(delay_dominated_model());
  const solver::PopulationVector population = {2};
  solver::Workspace ws;
  const double exact_lambda =
      reg.require("exact-mva").solve(compiled, population, ws)
          .chain_throughput[0];
  solver::Workspace hws;
  const solver::Solution heuristic =
      reg.require("heuristic-mva").solve(compiled, population, hws);
  ASSERT_TRUE(heuristic.converged);
  const double err =
      std::abs(heuristic.chain_throughput[0] - exact_lambda) / exact_lambda;
  EXPECT_GT(err, 0.40) << "heuristic improved: revisit auto-routing";
  EXPECT_LT(err, 0.60);
}

TEST(SolverRegistry, AutoKeepsTheHeuristicForMultichainAndLowDelayShapes) {
  const auto& reg = solver::SolverRegistry::instance();
  // Multichain: always the heuristic.
  const qn::CompiledModel multi = qn::CompiledModel::compile(two_chain_model());
  EXPECT_EQ(&reg.route(multi), reg.find("heuristic-mva"));
  // Single chain but queueing-dominated (no IS time at all).
  qn::NetworkModel m;
  m.add_station(fcfs("q0"));
  m.add_station(fcfs("q1"));
  qn::Chain c;
  c.type = qn::ChainType::kClosed;
  c.population = 3;
  c.visits = {{0, 1.0, 0.1}, {1, 1.0, 0.2}};
  m.add_chain(std::move(c));
  const qn::CompiledModel queueing = qn::CompiledModel::compile(m);
  EXPECT_EQ(&reg.route(queueing), reg.find("heuristic-mva"));
}

TEST(SolverRegistry, WarmSolvesPerformZeroArenaAllocations) {
  const qn::CompiledModel compiled =
      qn::CompiledModel::compile(two_chain_model());
  const solver::PopulationVector population = {3, 2};
  for (const char* name : {"heuristic-mva", "convolution", "exact-mva"}) {
    const solver::Solver& s =
        solver::SolverRegistry::instance().require(name);
    solver::Workspace ws;
    (void)s.solve(compiled, population, ws);  // warm-up: arena grows
    const std::size_t warm = ws.heap_allocations();
    for (int i = 0; i < 10; ++i) (void)s.solve(compiled, population, ws);
    EXPECT_EQ(ws.heap_allocations(), warm)
        << name << " allocated on the warm path";
  }
}

TEST(SolverRegistry, OversizedScratchRequestsThrowTypedOverflowError) {
  // A count whose byte size wraps std::size_t must surface as the typed
  // error, not as a silently undersized lease (the large-N overflow
  // class: 64-bit cell counts flowing into arena byte math).
  solver::Workspace ws;
  EXPECT_THROW((void)ws.doubles(SIZE_MAX / 4), qn::OverflowError);
  EXPECT_THROW((void)ws.ints(SIZE_MAX / 2), qn::OverflowError);
  // OverflowError is a ModelError: existing catch sites stay valid.
  EXPECT_THROW((void)ws.doubles(SIZE_MAX / 4), qn::ModelError);
  // The workspace stays usable after a rejected request.
  const std::span<double> ok = ws.doubles(8);
  EXPECT_EQ(ok.size(), 8u);
}

TEST(SolverRegistry, WarmStartHintReachesTheSameFixedPoint) {
  const qn::CompiledModel compiled =
      qn::CompiledModel::compile(two_chain_model());
  const solver::PopulationVector population = {3, 2};
  const solver::Solver& s =
      solver::SolverRegistry::instance().require("heuristic-mva");
  ASSERT_TRUE(s.traits().supports_warm_start);

  solver::Workspace ws;
  const solver::Solution cold = s.solve(compiled, population, ws);
  mva::MvaWarmStart state;
  state.lambda.assign(cold.chain_throughput.begin(),
                      cold.chain_throughput.end());
  for (const std::size_t i : compiled.cell_index()) {
    state.number.push_back(cold.mean_queue[i]);
    state.sigma.push_back(cold.sigma[i]);
  }
  const int cold_iterations = cold.iterations;

  solver::Workspace warm_ws;
  warm_ws.hints.warm_start = &state;
  const solver::Solution warm = s.solve(compiled, population, warm_ws);
  ASSERT_EQ(warm.chain_throughput.size(), state.lambda.size());
  for (std::size_t r = 0; r < state.lambda.size(); ++r) {
    EXPECT_NEAR(warm.chain_throughput[r], state.lambda[r], 1e-8);
  }
  // Seeded from the converged state, the fixed point is re-verified in
  // far fewer sweeps than the cold transient.
  EXPECT_LT(warm.iterations, cold_iterations);
}

TEST(SolverRegistry, MaxStatesHintCapsProductFormEnumeration) {
  const qn::CompiledModel compiled =
      qn::CompiledModel::compile(two_chain_model());
  const solver::PopulationVector population = {3, 2};
  const solver::Solver& s =
      solver::SolverRegistry::instance().require("product-form");
  solver::Workspace ws;
  EXPECT_NO_THROW((void)s.solve(compiled, population, ws));
  ws.hints.max_states = 1;
  EXPECT_THROW((void)s.solve(compiled, population, ws), std::runtime_error);
}

TEST(SolverRegistry, ProfilingHooksReportFixedPointTripCount) {
  // Hand-solved fixture: two disjoint single-station chains, one
  // customer each.  The initializer already sits on the fixed point —
  // all of chain r's population at its only station, lambda_r = 1/d_r;
  // sweep 1 then computes sigma = 1, seen = max(0, 1 - 1) = 0, time =
  // d_r, lambda_r = 1/d_r again, so CRIT is exactly 0 and the loop
  // trips exactly once.
  qn::NetworkModel m;
  m.add_station(fcfs("qa"));
  m.add_station(fcfs("qb"));
  qn::Chain a;
  a.type = qn::ChainType::kClosed;
  a.population = 1;
  a.visits = {{0, 1.0, 0.1}};
  m.add_chain(std::move(a));
  qn::Chain b;
  b.type = qn::ChainType::kClosed;
  b.population = 1;
  b.visits = {{1, 1.0, 0.05}};
  m.add_chain(std::move(b));
  const qn::CompiledModel compiled = qn::CompiledModel::compile(m);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);
  const solver::Solver& s =
      solver::SolverRegistry::instance().require("heuristic-mva");
  solver::Workspace ws;
  const solver::Solution sol = s.solve_profiled(compiled, {1, 1}, ws);
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.iterations, 1);
  EXPECT_DOUBLE_EQ(sol.chain_throughput[0], 10.0);
  EXPECT_DOUBLE_EQ(sol.chain_throughput[1], 20.0);

  obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("solver.heuristic-mva.solves"), 1u);
  EXPECT_EQ(snap.counter_or("solver.heuristic-mva.iterations"), 1u);
  const obs::HistogramSnapshot* latency =
      snap.histogram("solver.heuristic-mva.solve_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 1u);
  EXPECT_GT(snap.gauge_or("solver.heuristic-mva.arena_hwm_bytes"), 0.0);

  // A coupled model with a real transient: the counter accumulates the
  // reported trip count, so it must equal 1 + the second solve's
  // iterations.
  const qn::CompiledModel coupled =
      qn::CompiledModel::compile(two_chain_model());
  const solver::Solution coupled_sol =
      s.solve_profiled(coupled, {3, 2}, ws);
  EXPECT_GT(coupled_sol.iterations, 1);
  snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("solver.heuristic-mva.solves"), 2u);
  EXPECT_EQ(snap.counter_or("solver.heuristic-mva.iterations"),
            1u + static_cast<std::uint64_t>(coupled_sol.iterations));
  reg.set_enabled(false);
  reg.reset();
}

TEST(SolverRegistry, SolveProfiledIsAPassThroughWhenDisabled) {
  ASSERT_FALSE(obs::MetricsRegistry::global().enabled());
  const qn::CompiledModel compiled =
      qn::CompiledModel::compile(two_chain_model());
  const solver::Solver& s =
      solver::SolverRegistry::instance().require("heuristic-mva");
  solver::Workspace plain_ws;
  solver::Workspace profiled_ws;
  const solver::Solution plain = s.solve(compiled, {3, 2}, plain_ws);
  const solver::Solution profiled =
      s.solve_profiled(compiled, {3, 2}, profiled_ws);
  ASSERT_EQ(plain.chain_throughput.size(), profiled.chain_throughput.size());
  for (std::size_t r = 0; r < plain.chain_throughput.size(); ++r) {
    EXPECT_EQ(plain.chain_throughput[r], profiled.chain_throughput[r]);
  }
  EXPECT_EQ(plain.iterations, profiled.iterations);
  // Nothing was recorded.
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot().counter_or(
                "solver.heuristic-mva.solves"),
            0u);
}

TEST(SolverRegistry, ScratchModelCacheIsKeyedByCompilationIdNotAddress) {
  // Regression: the per-workspace scratch NetworkModel used to be keyed
  // on the CompiledModel's address.  Successive compiled models often
  // reuse the same address, so a warm workspace would keep solving a
  // *stale* model with only the populations rewritten.  Compilation ids
  // are process-unique, so recompiling — even at the same address —
  // must invalidate the cache.
  const solver::Solver& s =
      solver::SolverRegistry::instance().require("convolution");
  const solver::PopulationVector population = {3, 2};
  solver::Workspace ws;
  auto throughput_of = [&](double scale, solver::Workspace& w) {
    const qn::CompiledModel compiled =
        qn::CompiledModel::compile(two_chain_model(scale));
    const solver::Solution sol = s.solve(compiled, population, w);
    return std::vector<double>(sol.chain_throughput.begin(),
                               sol.chain_throughput.end());
  };  // compiled model destroyed here; the next one may reuse its address

  const std::vector<double> a_warm = throughput_of(1.0, ws);
  const std::vector<double> b_warm = throughput_of(2.0, ws);
  solver::Workspace fresh_a;
  solver::Workspace fresh_b;
  EXPECT_EQ(a_warm, throughput_of(1.0, fresh_a));
  EXPECT_EQ(b_warm, throughput_of(2.0, fresh_b));
  ASSERT_EQ(a_warm.size(), b_warm.size());
  EXPECT_NE(a_warm, b_warm);  // the two models genuinely differ
}

}  // namespace
}  // namespace windim
