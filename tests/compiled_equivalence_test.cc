// Equivalence suite for the compile-once/solve-many port: every
// registry solver must reproduce its legacy entry point to 1e-12 —
// throughputs, queue lengths and (where exposed) utilizations — on
//   - every committed fuzz-corpus instance (tests/corpus), and
//   - a broad sweep of verify::gen instances across all families.
// Instances a legacy solver rejects must be rejected by the ported
// solver too (consistent applicability), so trait-driven callers see
// the same domain through either path.
//
// The heuristic-MVA check is the load-bearing one: the native arena
// kernel (solver/heuristic_mva.cc) re-implements the fixed point
// rather than wrapping it, and this suite pins it to the legacy
// arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exact/buzen.h"
#include "exact/convolution.h"
#include "exact/product_form.h"
#include "exact/recal.h"
#include "exact/semiclosed.h"
#include "exact/tree_convolution.h"
#include "mva/approx.h"
#include "mva/bounds.h"
#include "mva/exact_multichain.h"
#include "mva/linearizer.h"
#include "qn/compiled_model.h"
#include "solver/registry.h"
#include "solver/workspace.h"
#include "util/thread_pool.h"
#include "verify/corpus.h"
#include "verify/gen.h"

namespace windim {
namespace {

constexpr double kTol = 1e-12;

void expect_span_near(std::span<const double> got,
                      const std::vector<double>& want, const char* solver,
                      const char* what, const std::string& instance) {
  ASSERT_EQ(got.size(), want.size())
      << solver << " " << what << " size mismatch on " << instance;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double scale = std::max(1.0, std::fabs(want[i]));
    EXPECT_NEAR(got[i], want[i], kTol * scale)
        << solver << " " << what << "[" << i << "] on " << instance;
  }
}

/// Runs the legacy entry point and the registry solver on the same
/// instance.  If the legacy solver rejects it, the ported solver must
/// reject it too; otherwise `check(solution, legacy_result)` compares.
template <typename LegacyFn, typename CheckFn>
void compare(const char* name, const qn::CompiledModel& compiled,
             const std::vector<int>& population, solver::Workspace& ws,
             const std::string& instance, LegacyFn legacy, CheckFn check) {
  const solver::Solver& s = solver::SolverRegistry::instance().require(name);
  std::optional<decltype(legacy())> ref;
  try {
    ref.emplace(legacy());
  } catch (const std::exception&) {
    EXPECT_THROW((void)s.solve(compiled, population, ws), std::exception)
        << name << " accepted an instance the legacy solver rejects: "
        << instance;
    return;
  }
  solver::Solution sol;
  try {
    sol = s.solve(compiled, population, ws);
  } catch (const std::exception& e) {
    ADD_FAILURE() << name
                  << " rejected an instance the legacy solver accepts: "
                  << instance << " (" << e.what() << ")";
    return;
  }
  check(sol, *ref);
}

void check_instance(const verify::Instance& inst, solver::Workspace& ws) {
  const std::string id = inst.name.empty() ? "<unnamed>" : inst.name;
  const qn::NetworkModel& m = inst.model;

  qn::CompileOptions copt;
  for (const exact::SemiclosedChainSpec& spec : inst.semiclosed) {
    copt.semiclosed_arrival_rate.push_back(spec.arrival_rate);
    copt.semiclosed_min_population.push_back(spec.min_population);
  }
  const qn::CompiledModel compiled = qn::CompiledModel::compile(m, copt);
  const std::vector<int> population(compiled.base_populations().begin(),
                                    compiled.base_populations().end());

  compare(
      "convolution", compiled, population, ws, id,
      [&] { return exact::solve_convolution(m); },
      [&](const solver::Solution& s, const exact::ConvolutionResult& r) {
        expect_span_near(s.chain_throughput, r.chain_throughput,
                         "convolution", "throughput", id);
        expect_span_near(s.mean_queue, r.mean_queue, "convolution", "queue",
                         id);
        expect_span_near(s.mean_time, r.mean_time, "convolution", "time", id);
        expect_span_near(s.station_utilization, r.station_utilization,
                         "convolution", "utilization", id);
      });

  compare(
      "exact-mva", compiled, population, ws, id,
      [&] { return mva::solve_exact_multichain(m); },
      [&](const solver::Solution& s, const mva::MvaSolution& r) {
        expect_span_near(s.chain_throughput, r.chain_throughput, "exact-mva",
                         "throughput", id);
        expect_span_near(s.mean_queue, r.mean_queue, "exact-mva", "queue", id);
      });

  compare(
      "recal", compiled, population, ws, id,
      [&] { return exact::solve_recal(m); },
      [&](const solver::Solution& s, const exact::RecalResult& r) {
        expect_span_near(s.chain_throughput, r.chain_throughput, "recal",
                         "throughput", id);
        expect_span_near(s.mean_queue, r.mean_queue, "recal", "queue", id);
      });

  compare(
      "tree-convolution", compiled, population, ws, id,
      [&] { return exact::solve_tree_convolution(m); },
      [&](const solver::Solution& s, const exact::TreeConvolutionResult& r) {
        expect_span_near(s.chain_throughput, r.chain_throughput,
                         "tree-convolution", "throughput", id);
      });

  compare(
      "product-form", compiled, population, ws, id,
      [&] { return exact::solve_product_form(m); },
      [&](const solver::Solution& s, const exact::ProductFormResult& r) {
        expect_span_near(s.chain_throughput, r.chain_throughput,
                         "product-form", "throughput", id);
        expect_span_near(s.mean_queue, r.mean_queue, "product-form", "queue",
                         id);
      });

  compare(
      "buzen", compiled, population, ws, id,
      [&] { return exact::solve_buzen(m); },
      [&](const solver::Solution& s, const exact::BuzenResult& r) {
        ASSERT_EQ(s.chain_throughput.size(), 1u) << "buzen on " << id;
        EXPECT_NEAR(s.chain_throughput[0], r.throughput,
                    kTol * std::max(1.0, std::fabs(r.throughput)))
            << "buzen throughput on " << id;
        expect_span_near(s.mean_queue, r.mean_number, "buzen", "queue", id);
        expect_span_near(s.station_utilization, r.utilization, "buzen",
                         "utilization", id);
      });

  for (const mva::SigmaPolicy policy :
       {mva::SigmaPolicy::kChanSingleChain, mva::SigmaPolicy::kSchweitzerBard}) {
    const char* name = policy == mva::SigmaPolicy::kChanSingleChain
                           ? "heuristic-mva"
                           : "schweitzer-mva";
    compare(
        name, compiled, population, ws, id,
        [&] {
          mva::ApproxMvaOptions options;
          options.sigma = policy;
          return mva::solve_approx_mva(m, options);
        },
        [&](const solver::Solution& s, const mva::MvaSolution& r) {
          expect_span_near(s.chain_throughput, r.chain_throughput, name,
                           "throughput", id);
          expect_span_near(s.mean_queue, r.mean_queue, name, "queue", id);
          expect_span_near(s.sigma, r.sigma, name, "sigma", id);
          EXPECT_EQ(s.iterations, r.iterations) << name << " on " << id;
          EXPECT_EQ(s.converged, r.converged) << name << " on " << id;
        });
  }

  compare(
      "linearizer", compiled, population, ws, id,
      [&] { return mva::solve_linearizer(m); },
      [&](const solver::Solution& s, const mva::MvaSolution& r) {
        expect_span_near(s.chain_throughput, r.chain_throughput, "linearizer",
                         "throughput", id);
        expect_span_near(s.mean_queue, r.mean_queue, "linearizer", "queue",
                         id);
      });

  compare(
      "bounds", compiled, population, ws, id,
      [&] { return mva::balanced_job_bounds(m); },
      [&](const solver::Solution& s, const mva::ChainBounds& b) {
        ASSERT_EQ(s.chain_throughput.size(), 1u) << "bounds on " << id;
        EXPECT_NEAR(s.chain_throughput[0], b.throughput_upper,
                    kTol * std::max(1.0, std::fabs(b.throughput_upper)))
            << "bounds throughput_upper on " << id;
      });

  if (!inst.semiclosed.empty()) {
    // The registry solver reads arrival rates / lower bounds from the
    // compiled metadata and the population vector as the upper bounds.
    std::vector<int> upper;
    for (const exact::SemiclosedChainSpec& spec : inst.semiclosed) {
      upper.push_back(spec.max_population);
    }
    compare(
        "semiclosed", compiled, upper, ws, id,
        [&] { return exact::solve_semiclosed(m, inst.semiclosed); },
        [&](const solver::Solution& s, const exact::SemiclosedResult& r) {
          expect_span_near(s.chain_throughput, r.carried_throughput,
                           "semiclosed", "carried throughput", id);
          expect_span_near(s.mean_queue, r.mean_queue, "semiclosed", "queue",
                           id);
        });
  }
}

TEST(CompiledEquivalence, CommittedCorpusInstancesMatchLegacySolvers) {
  const std::vector<std::string> files =
      verify::list_corpus_files(WINDIM_TEST_CORPUS_DIR);
  ASSERT_FALSE(files.empty()) << "no corpus at " WINDIM_TEST_CORPUS_DIR;
  solver::Workspace ws;
  for (const std::string& path : files) {
    const verify::CorpusEntry entry = verify::load_corpus_file(path);
    check_instance(entry.instance, ws);
  }
}

/// Continental-scale fixtures: only the MVA sweep solvers run (the
/// exact lattice solvers are hopeless at 1k+ chains), compared
/// bit-for-bit against the legacy scalar sweep — the guarantee that the
/// SoA/hoisted kernel restructuring changed the memory layout and the
/// asymptotics, not one bit of the arithmetic.
void check_large_cyclic(int chains, std::uint64_t seed) {
  verify::GenOptions opt;
  opt.large_chains = chains;
  const verify::Instance inst =
      verify::generate(verify::Family::kLargeCyclic, seed, opt);
  const std::string id = inst.name + "-" + std::to_string(chains);
  const qn::NetworkModel& m = inst.model;
  const qn::CompiledModel compiled = qn::CompiledModel::compile(m);
  ASSERT_EQ(compiled.num_chains(), chains);
  const std::vector<int> population(compiled.base_populations().begin(),
                                    compiled.base_populations().end());
  solver::Workspace ws;
  for (const mva::SigmaPolicy policy :
       {mva::SigmaPolicy::kChanSingleChain,
        mva::SigmaPolicy::kSchweitzerBard}) {
    const char* name = policy == mva::SigmaPolicy::kChanSingleChain
                           ? "heuristic-mva"
                           : "schweitzer-mva";
    compare(
        name, compiled, population, ws, id,
        [&] {
          mva::ApproxMvaOptions options;
          options.sigma = policy;
          return mva::solve_approx_mva(m, options);
        },
        [&](const solver::Solution& s, const mva::MvaSolution& r) {
          EXPECT_TRUE(s.converged) << name << " on " << id;
          EXPECT_EQ(s.iterations, r.iterations) << name << " on " << id;
          EXPECT_EQ(s.converged, r.converged) << name << " on " << id;
          // Bit-for-bit, not near: operation order is part of the
          // kernel's contract with the legacy sweep.
          ASSERT_EQ(s.chain_throughput.size(), r.chain_throughput.size());
          for (std::size_t i = 0; i < r.chain_throughput.size(); ++i) {
            ASSERT_EQ(s.chain_throughput[i], r.chain_throughput[i])
                << name << " throughput[" << i << "] on " << id;
          }
          ASSERT_EQ(s.mean_queue.size(), r.mean_queue.size());
          for (std::size_t i = 0; i < r.mean_queue.size(); ++i) {
            ASSERT_EQ(s.mean_queue[i], r.mean_queue[i])
                << name << " queue[" << i << "] on " << id;
          }
        });
  }
}

TEST(CompiledEquivalence, LargeCyclic1kMatchesLegacySweepBitForBit) {
  check_large_cyclic(1000, 1);
}

TEST(CompiledEquivalence, LargeCyclic10kMatchesLegacySweepBitForBit) {
  check_large_cyclic(10000, 1);
}

TEST(CompiledEquivalence, WarmStartWithIdleChainsMatchesLegacyBitForBit) {
  // The kernel sweeps only the cells on each chain's route; the legacy
  // solver sweeps every cell.  They must agree bit for bit on the path
  // WINDIM runs most — a sigma-seeded warm start with lazy refreshes —
  // and with idle (population 0) chains, whose cells stay zero.
  verify::GenOptions opt;
  opt.large_chains = 1000;
  qn::NetworkModel model =
      verify::generate(verify::Family::kLargeCyclic, 1, opt).model;
  for (int r = 0; r < model.num_chains(); r += 7) model.set_population(r, 0);
  const mva::ApproxMvaOptions options;
  const mva::MvaSolution cold = mva::solve_approx_mva(model, options);
  // A neighbouring window setting, as the pattern search probes it.
  for (const int r : {1, 100, 500, 998}) {
    model.set_population(r, model.chain(r).population + 1);
  }
  const mva::MvaSolution legacy = mva::solve_approx_mva(model, options, &cold);

  const qn::CompiledModel compiled = qn::CompiledModel::compile(model);
  // The kernel's seed: the same state at the visited cells.
  mva::MvaWarmStart seed{cold.chain_throughput, {}, {}};
  for (const std::size_t i : compiled.cell_index()) {
    seed.number.push_back(cold.mean_queue[i]);
    seed.sigma.push_back(cold.sigma[i]);
  }
  const std::vector<int> population(compiled.base_populations().begin(),
                                    compiled.base_populations().end());
  solver::Workspace ws;
  ws.hints.warm_start = &seed;
  const solver::Solution kernel =
      solver::SolverRegistry::instance().require("heuristic-mva").solve(
          compiled, population, ws);

  EXPECT_EQ(kernel.iterations, legacy.iterations);
  EXPECT_EQ(kernel.sigma_refreshes, legacy.sigma_refreshes);
  EXPECT_LT(kernel.sigma_refreshes, kernel.iterations);
  EXPECT_EQ(kernel.converged, legacy.converged);
  ASSERT_EQ(kernel.chain_throughput.size(), legacy.chain_throughput.size());
  for (std::size_t i = 0; i < legacy.chain_throughput.size(); ++i) {
    ASSERT_EQ(kernel.chain_throughput[i], legacy.chain_throughput[i])
        << "throughput[" << i << "]";
  }
  ASSERT_EQ(kernel.mean_queue.size(), legacy.mean_queue.size());
  for (std::size_t i = 0; i < legacy.mean_queue.size(); ++i) {
    ASSERT_EQ(kernel.mean_queue[i], legacy.mean_queue[i]) << "queue[" << i << "]";
  }
  ASSERT_EQ(kernel.sigma.size(), legacy.sigma.size());
  for (std::size_t i = 0; i < legacy.sigma.size(); ++i) {
    ASSERT_EQ(kernel.sigma[i], legacy.sigma[i]) << "sigma[" << i << "]";
  }
}

TEST(CompiledEquivalence, ChainBlockPoolSweepIsBitIdenticalToSerial) {
  // Serial-replay determinism of the parallel STEP 2 dispatch: any pool
  // size must give EXACTLY the serial results (same blocks, same
  // per-chain arithmetic, disjoint writes).
  verify::GenOptions opt;
  opt.large_chains = 1000;
  const verify::Instance inst =
      verify::generate(verify::Family::kLargeCyclic, 7, opt);
  const qn::CompiledModel compiled = qn::CompiledModel::compile(inst.model);
  const std::vector<int> population(compiled.base_populations().begin(),
                                    compiled.base_populations().end());
  const solver::Solver& s =
      solver::SolverRegistry::instance().require("heuristic-mva");

  solver::Workspace serial_ws;
  const solver::Solution serial = s.solve(compiled, population, serial_ws);

  for (const std::size_t threads : {2u, 5u}) {
    util::ThreadPool pool(threads);
    solver::Workspace pool_ws;
    pool_ws.hints.pool = &pool;
    const solver::Solution parallel = s.solve(compiled, population, pool_ws);
    EXPECT_EQ(parallel.iterations, serial.iterations) << threads;
    EXPECT_EQ(parallel.converged, serial.converged) << threads;
    ASSERT_EQ(parallel.chain_throughput.size(),
              serial.chain_throughput.size());
    for (std::size_t i = 0; i < serial.chain_throughput.size(); ++i) {
      ASSERT_EQ(parallel.chain_throughput[i], serial.chain_throughput[i])
          << "throughput[" << i << "] with " << threads << " threads";
    }
    ASSERT_EQ(parallel.mean_queue.size(), serial.mean_queue.size());
    for (std::size_t i = 0; i < serial.mean_queue.size(); ++i) {
      ASSERT_EQ(parallel.mean_queue[i], serial.mean_queue[i])
          << "queue[" << i << "] with " << threads << " threads";
    }
    ASSERT_EQ(parallel.sigma.size(), serial.sigma.size());
    for (std::size_t i = 0; i < serial.sigma.size(); ++i) {
      ASSERT_EQ(parallel.sigma[i], serial.sigma[i])
          << "sigma[" << i << "] with " << threads << " threads";
    }
  }
}

TEST(CompiledEquivalence, GeneratedInstancesMatchLegacySolvers) {
  // ~30 seeds per family x 7 families: > 200 generated instances, the
  // same generator the fuzz harness uses.  One shared workspace across
  // all of them also exercises the scratch-model cache invalidation
  // (every instance compiles to a fresh CompiledModel::id()).
  solver::Workspace ws;
  int checked = 0;
  for (const verify::Family family : verify::all_families()) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      const verify::Instance inst = verify::generate(family, seed);
      check_instance(inst, ws);
      ++checked;
    }
  }
  EXPECT_GE(checked, 200);
}

}  // namespace
}  // namespace windim
