// Per-iteration convergence telemetry: the classify() rules (including
// the PR 2 corpus worst case, which "converges" at iteration 1 without
// ever leaving its initialization and must be reported STAGNATED, not
// converged), the recorder's ring/envelope contract, the summary path
// for non-iterative solvers (iterations == 1, empty ring), the
// convergence renderers over an observed run's probe record, the
// per-run windim.convergence.* counters, and the monotone-or-classified
// property of every record a real dimensioning run produces.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "mva/approx.h"
#include "net/examples.h"
#include "obs/convergence.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "qn/compiled_model.h"
#include "qn/network.h"
#include "solver/registry.h"
#include "solver/solver.h"
#include "solver/workspace.h"
#include "windim/windim.h"

namespace windim {
namespace {

using obs::ConvergenceClass;
using obs::ConvergenceRecorder;
using obs::IterationSample;
using obs::SolveRecord;

qn::Station station(const std::string& name, qn::Discipline d) {
  qn::Station s;
  s.name = name;
  s.discipline = d;
  return s;
}

/// The PR 2 differential-fuzz worst case, reduced: a delay-dominated
/// single chain whose sigma estimate swallows the entire queue, so the
/// heuristic's first sweep reproduces the balanced initialization
/// exactly and the fixed point "converges" having never moved.
qn::NetworkModel delay_dominated_single_chain() {
  qn::NetworkModel m;
  const int d1 =
      m.add_station(station("d1", qn::Discipline::kInfiniteServer));
  const int d2 =
      m.add_station(station("d2", qn::Discipline::kInfiniteServer));
  const int q = m.add_station(station("q", qn::Discipline::kFcfs));
  qn::Chain c;
  c.type = qn::ChainType::kClosed;
  c.population = 2;
  c.visits = {{d1, 1.0, 0.1}, {d2, 1.0, 0.03}, {q, 1.0, 0.3}};
  m.add_chain(std::move(c));
  return m;
}

SolveRecord streamed_record(const std::vector<double>& residuals,
                            bool converged, bool warm = false) {
  SolveRecord r;
  r.solver = "test";
  r.num_chains = 1;
  r.tracked_chains = 1;
  r.warm_started = warm;
  r.converged = converged;
  r.iterations = static_cast<int>(residuals.size());
  r.samples_seen = residuals.size();
  r.first_residual = residuals.empty() ? 0.0 : residuals.front();
  r.final_residual = residuals.empty() ? 0.0 : residuals.back();
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    IterationSample s;
    s.iteration = i + 1;
    s.max_residual = residuals[i];
    s.chain_delta[0] = residuals[i];
    r.samples.push_back(s);
  }
  return r;
}

// ---------------------------------------------------------------------
// classify()

TEST(ConvergenceClassify, EmptyStreamTrustsTheConvergedFlag) {
  SolveRecord summary;
  summary.samples_seen = 0;
  summary.converged = true;
  EXPECT_EQ(obs::classify(summary), ConvergenceClass::kConverged);
  summary.converged = false;
  EXPECT_EQ(obs::classify(summary), ConvergenceClass::kDiverged);
}

TEST(ConvergenceClassify, MonotoneDecreaseIsConverged) {
  const SolveRecord r =
      streamed_record({1e-2, 1e-4, 1e-7, 1e-11}, /*converged=*/true);
  EXPECT_EQ(obs::classify(r), ConvergenceClass::kConverged);
}

TEST(ConvergenceClassify, ColdOneSweepConvergenceIsStagnation) {
  // The stagnation trap: converged on the very first cold sweep means
  // the initialization was already a fixed point of the approximate
  // map — the solver never produced information.
  const SolveRecord cold = streamed_record({0.0}, /*converged=*/true);
  EXPECT_EQ(obs::classify(cold), ConvergenceClass::kStagnated);
}

TEST(ConvergenceClassify, WarmOneSweepConvergenceIsLegitimate) {
  // A warm start converging immediately near its seed is the whole
  // point of warm starting.
  const SolveRecord warm =
      streamed_record({1e-12}, /*converged=*/true, /*warm=*/true);
  EXPECT_EQ(obs::classify(warm), ConvergenceClass::kConverged);
}

TEST(ConvergenceClassify, GrowingResidualIsDivergence) {
  const SolveRecord r =
      streamed_record({1e-3, 1e-2, 1e-1, 1.0, 10.0}, /*converged=*/false);
  EXPECT_EQ(obs::classify(r), ConvergenceClass::kDiverged);
}

TEST(ConvergenceClassify, SignFlippingDeltasAreOscillation) {
  // Alternating signed chain deltas with a flat magnitude: a limit
  // cycle of the damped map, not drift.
  const SolveRecord r = streamed_record({1e-2, -1e-2, 1e-2, -1e-2, 1e-2, -1e-2},
                                        /*converged=*/false);
  EXPECT_EQ(obs::classify(r), ConvergenceClass::kOscillating);
}

TEST(ConvergenceClassify, FlatResidualAboveToleranceIsStagnation) {
  const SolveRecord r = streamed_record({1e-3, 9e-4, 9e-4, 9e-4, 9e-4, 9e-4},
                                        /*converged=*/false);
  EXPECT_EQ(obs::classify(r), ConvergenceClass::kStagnated);
}

// ---------------------------------------------------------------------
// ConvergenceRecorder

TEST(ConvergenceRecorder, StreamsEnvelopeAndRing) {
  ConvergenceRecorder rec;
  rec.begin_solve("unit", 2, /*warm_started=*/false);
  const std::vector<double> residuals = {0.5, 0.1, 0.02, 1e-6};
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    rec.record_chain(0, residuals[i]);
    rec.record_chain(1, -residuals[i] / 2.0);
    rec.record_iteration(residuals[i], 0.9);
  }
  rec.end_solve(static_cast<int>(residuals.size()), /*converged=*/true);
  ASSERT_TRUE(rec.has_record());
  const SolveRecord& r = rec.record();
  EXPECT_EQ(r.solver, "unit");
  EXPECT_EQ(r.num_chains, 2);
  EXPECT_EQ(r.tracked_chains, 2);
  EXPECT_EQ(r.iterations, 4);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.classification, ConvergenceClass::kConverged);
  EXPECT_EQ(r.samples_seen, 4u);
  ASSERT_EQ(r.samples.size(), 4u);
  EXPECT_DOUBLE_EQ(r.first_residual, 0.5);
  EXPECT_DOUBLE_EQ(r.final_residual, 1e-6);
  EXPECT_DOUBLE_EQ(r.min_residual, 1e-6);
  EXPECT_DOUBLE_EQ(r.max_residual, 0.5);
  EXPECT_EQ(r.samples.front().iteration, 1u);
  EXPECT_DOUBLE_EQ(r.samples.front().chain_delta[1], -0.25);
  EXPECT_DOUBLE_EQ(r.samples.back().max_residual, 1e-6);
  EXPECT_DOUBLE_EQ(r.samples.back().damping, 0.9);
}

TEST(ConvergenceRecorder, RingDropsOldestButEnvelopeCoversEverySweep) {
  ConvergenceRecorder rec(/*ring_capacity=*/4);
  rec.begin_solve("unit", 1, false);
  for (int i = 1; i <= 10; ++i) {
    rec.record_chain(0, 1.0 / i);
    rec.record_iteration(1.0 / i, 1.0);
  }
  rec.end_solve(10, true);
  const SolveRecord& r = rec.record();
  EXPECT_EQ(r.samples_seen, 10u);
  ASSERT_EQ(r.samples.size(), 4u);
  // Oldest first: sweeps 7..10 survive.
  EXPECT_EQ(r.samples.front().iteration, 7u);
  EXPECT_EQ(r.samples.back().iteration, 10u);
  // The envelope still covers the dropped sweeps.
  EXPECT_DOUBLE_EQ(r.first_residual, 1.0);
  EXPECT_DOUBLE_EQ(r.max_residual, 1.0);
  EXPECT_DOUBLE_EQ(r.final_residual, 0.1);
}

TEST(ConvergenceRecorder, ResetForgetsTheFinishedRecord) {
  ConvergenceRecorder rec;
  rec.record_summary("unit", 1, true);
  ASSERT_TRUE(rec.has_record());
  rec.reset();
  EXPECT_FALSE(rec.has_record());
}

// ---------------------------------------------------------------------
// Solver integration

TEST(ConvergenceSolvers, HeuristicStreamsPerIterationResiduals) {
  // Two chains contending at a shared FCFS station (equal service mean
  // there, per product form) so the fixed point genuinely iterates.
  qn::NetworkModel m;
  const int a = m.add_station(station("a", qn::Discipline::kFcfs));
  const int shared = m.add_station(station("shared", qn::Discipline::kFcfs));
  const int b = m.add_station(station("b", qn::Discipline::kFcfs));
  qn::Chain c1;
  c1.type = qn::ChainType::kClosed;
  c1.population = 4;
  c1.visits = {{a, 1.0, 0.08}, {shared, 1.0, 0.05}};
  m.add_chain(std::move(c1));
  qn::Chain c2;
  c2.type = qn::ChainType::kClosed;
  c2.population = 3;
  c2.visits = {{shared, 1.0, 0.05}, {b, 1.0, 0.11}};
  m.add_chain(std::move(c2));

  const qn::CompiledModel cm = qn::CompiledModel::compile(m);
  const solver::Solver& s =
      solver::SolverRegistry::instance().require("heuristic-mva");
  solver::Workspace ws;
  ConvergenceRecorder rec;
  ws.hints.convergence = &rec;
  const solver::Solution sol = s.solve_profiled(cm, {4, 3}, ws);
  ASSERT_TRUE(rec.has_record());
  const SolveRecord& r = rec.record();
  EXPECT_EQ(r.solver, "heuristic-mva");
  EXPECT_EQ(r.iterations, sol.iterations);
  EXPECT_GT(sol.iterations, 1);
  EXPECT_EQ(r.samples_seen, static_cast<std::uint64_t>(sol.iterations));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.classification, ConvergenceClass::kConverged);
  // The stream ends at the stopping criterion.
  EXPECT_LT(r.final_residual, 1e-9);
  EXPECT_GT(r.first_residual, r.final_residual);
}

TEST(ConvergenceSolvers, WorstCaseColdSolveIsClassifiedStagnated) {
  // PR 2 corpus worst case (48.7% throughput error vs exact): the
  // heuristic reports converged after ONE cold sweep with residual 0 —
  // it never left the balanced initialization.  The observatory must
  // call that stagnation, not convergence.
  const qn::CompiledModel cm =
      qn::CompiledModel::compile(delay_dominated_single_chain());
  const solver::Solver& s =
      solver::SolverRegistry::instance().require("heuristic-mva");
  solver::Workspace ws;
  ConvergenceRecorder rec;
  ws.hints.convergence = &rec;
  const solver::Solution sol = s.solve_profiled(cm, {2}, ws);
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.iterations, 1);
  ASSERT_TRUE(rec.has_record());
  const SolveRecord& r = rec.record();
  EXPECT_EQ(r.samples_seen, 1u);
  EXPECT_FALSE(r.warm_started);
  EXPECT_DOUBLE_EQ(r.final_residual, 0.0);
  EXPECT_EQ(r.classification, ConvergenceClass::kStagnated);
}

TEST(ConvergenceSolvers, ExactSolversReportSummaryWithEmptyRing) {
  // Non-iterative solvers stream nothing; solve_profiled records the
  // summary contract: iterations == 1, empty sample ring, converged.
  const qn::CompiledModel cm =
      qn::CompiledModel::compile(delay_dominated_single_chain());
  for (const char* name : {"recal", "convolution", "exact-mva"}) {
    const solver::Solver& s =
        solver::SolverRegistry::instance().require(name);
    solver::Workspace ws;
    ConvergenceRecorder rec;
    ws.hints.convergence = &rec;
    (void)s.solve_profiled(cm, {2}, ws);
    ASSERT_TRUE(rec.has_record()) << name;
    const SolveRecord& r = rec.record();
    EXPECT_EQ(r.solver, name);
    EXPECT_EQ(r.iterations, 1) << name;
    EXPECT_TRUE(r.converged) << name;
    EXPECT_EQ(r.samples_seen, 0u) << name;
    EXPECT_TRUE(r.samples.empty()) << name;
    EXPECT_EQ(r.classification, ConvergenceClass::kConverged) << name;
  }
}

TEST(ConvergenceSolvers, ApproxMvaEntryPointStreamsThroughOptions) {
  ConvergenceRecorder rec;
  mva::ApproxMvaOptions options;
  options.convergence = &rec;
  const mva::MvaSolution sol =
      mva::solve_approx_mva(delay_dominated_single_chain(), options);
  EXPECT_TRUE(sol.converged);
  ASSERT_TRUE(rec.has_record());
  EXPECT_EQ(rec.record().solver, "approx-mva");
  EXPECT_EQ(rec.record().classification, ConvergenceClass::kStagnated);
}

// ---------------------------------------------------------------------
// Convergence renderers over an observed dimensioning run

TEST(ConvergenceRecords, DimensioningRunIsMonotoneOrClassified) {
  // Thesis fixture end-to-end: every solve the engine performs must
  // either be a genuinely converged record (residual fell over the
  // stream) or carry a non-converged classification explaining why
  // not.  A record claiming kConverged whose residual stream rose is
  // the bug this harness exists to catch.
  const core::WindowProblem problem(net::canada_topology(),
                                    net::four_class_traffic(6, 6, 6, 12));
  core::DimensionOptions options;
  options.observe = true;
  const core::DimensionResult result =
      core::dimension_windows(problem, options);
  EXPECT_FALSE(result.optimal_windows.empty());

  std::vector<SolveRecord> records;
  for (const obs::ProbeRecord& p : result.probes) {
    if (p.solve) records.push_back(*p.solve);
  }
  // Exactly one record per fresh evaluation; revisits record nothing.
  EXPECT_EQ(records.size(), result.objective_evaluations);
  for (const SolveRecord& r : records) {
    EXPECT_EQ(r.classification, obs::classify(r));
    if (r.classification == ConvergenceClass::kConverged &&
        r.samples_seen > 1) {
      // Monotone in the envelope sense: the solve ended at its minimum
      // residual, below where it started.
      EXPECT_LE(r.final_residual, r.first_residual);
      EXPECT_DOUBLE_EQ(r.final_residual, r.min_residual);
    } else {
      EXPECT_NE(r.classification, ConvergenceClass::kConverged);
    }
  }

  // The JSONL export is one valid JSON object per solve, in order.
  const std::string jsonl = obs::convergence_jsonl(result.probes);
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const auto parsed = obs::parse_json(jsonl.substr(start, end - start));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->is_object());
    ASSERT_LT(lines, records.size());
    EXPECT_EQ(parsed->string_or("solver", ""), records[lines].solver);
    EXPECT_EQ(parsed->number_or("iterations", -1.0),
              records[lines].iterations);
    EXPECT_NE(parsed->find("class"), nullptr);
    EXPECT_NE(parsed->find("samples"), nullptr);
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, records.size());
}

/// Runs `run` with the global metrics registry on and returns how much
/// each named counter grew during it.
template <typename Run>
auto counter_growth(Run&& run) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  obs::MetricsSnapshot before = reg.snapshot();
  run();
  obs::MetricsSnapshot after = reg.snapshot();
  reg.set_enabled(false);
  return [before = std::move(before),
          after = std::move(after)](const char* name) {
    return after.counter_or(name) - before.counter_or(name);
  };
}

TEST(ConvergenceRecords, ExportMetricsCountsOnlyTheGivenSolves) {
  std::vector<obs::ProbeRecord> probes(3);
  probes[0].solve = streamed_record({1e-2, 1e-6}, true);
  probes[0].solve->classification = obs::classify(*probes[0].solve);
  probes[1].cache_hit = true;  // a revisit: no solve, counts nothing
  probes[2].solve = streamed_record({0.0}, true);
  probes[2].solve->classification = obs::classify(*probes[2].solve);
  const auto added =
      counter_growth([&] { obs::export_convergence_metrics(probes); });
  EXPECT_EQ(added("windim.convergence.solves"), 2u);
  EXPECT_EQ(added("windim.convergence.converged"), 1u);
  EXPECT_EQ(added("windim.convergence.stagnated"), 1u);
  EXPECT_EQ(added("windim.convergence.oscillating"), 0u);
  EXPECT_EQ(added("windim.convergence.diverged"), 0u);
  EXPECT_EQ(added("windim.convergence.iterations"), 3u);
}

// ---------------------------------------------------------------------
// Per-run windim.convergence.* counters

TEST(ConvergenceRecords, ObservedParetoScanCountsEachSolveOnce) {
  // Every solve of the scan is one fresh evaluation of one of its runs,
  // so the two counters move together.  A log shared by the scan's runs
  // and exported after each of them counted 1425 solves here.
  const core::WindowProblem problem(net::canada_topology(),
                                    net::four_class_traffic(6, 6, 6, 12));
  core::ParetoOptions options;
  options.base.observe = true;
  const auto added =
      counter_growth([&] { (void)core::pareto_front(problem, options); });
  EXPECT_EQ(added("search.evaluations"), 228u);
  EXPECT_EQ(added("windim.convergence.solves"),
            added("search.evaluations"));
}

TEST(ConvergenceRecords, ConsecutiveObservedRunsCountOnlyTheirOwnSolves) {
  const core::WindowProblem problem(net::canada_topology(),
                                    net::four_class_traffic(6, 6, 6, 12));
  core::DimensionOptions options;
  options.observe = true;
  for (int run = 0; run < 2; ++run) {
    core::DimensionResult result;
    const auto added = counter_growth(
        [&] { result = core::dimension_windows(problem, options); });
    EXPECT_GT(result.objective_evaluations, 0u);
    EXPECT_EQ(added("windim.convergence.solves"),
              result.objective_evaluations)
        << "run " << run;
  }
}

}  // namespace
}  // namespace windim
