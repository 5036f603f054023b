// P1: microbenchmarks of the solver kernels (google-benchmark).
//
// Tracks the cost of the primitives everything else is built from:
// Buzen convolution, single-chain MVA, the full WINDIM dimensioning
// run, the brute-force product form (for scale), the CTMC oracle — and
// a registry sweep that times every solver::Solver through the uniform
// CompiledModel/Workspace interface (registered dynamically from
// SolverRegistry, so new solvers get a benchmark for free).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "exact/buzen.h"
#include "obs/metrics.h"
#include "exact/product_form.h"
#include "markov/closed_ctmc.h"
#include "mva/approx.h"
#include "mva/single_chain.h"
#include "net/examples.h"
#include "search/pattern_search.h"
#include "solver/registry.h"
#include "solver/workspace.h"
#include "windim/windim.h"

namespace {

using namespace windim;

qn::Station fcfs(const std::string& name) {
  qn::Station s;
  s.name = name;
  s.discipline = qn::Discipline::kFcfs;
  return s;
}

qn::NetworkModel single_chain_cycle(int stations, int population) {
  qn::NetworkModel m;
  qn::Chain c;
  c.type = qn::ChainType::kClosed;
  c.population = population;
  for (int n = 0; n < stations; ++n) {
    const int idx = m.add_station(fcfs("q" + std::to_string(n)));
    c.visits.push_back({idx, 1.0, 0.02 + 0.01 * (n % 5)});
  }
  m.add_chain(std::move(c));
  return m;
}

void BM_BuzenConvolution(benchmark::State& state) {
  const qn::NetworkModel m = single_chain_cycle(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::solve_buzen(m));
  }
}
BENCHMARK(BM_BuzenConvolution)->Args({5, 10})->Args({10, 50})->Args({20, 100});

void BM_BuzenLogDomain(benchmark::State& state) {
  const qn::NetworkModel m = single_chain_cycle(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::solve_buzen_log(m));
  }
}
BENCHMARK(BM_BuzenLogDomain)->Args({5, 10})->Args({10, 50});

void BM_SingleChainMva(benchmark::State& state) {
  const qn::NetworkModel m = single_chain_cycle(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mva::solve_single_chain(m));
  }
}
BENCHMARK(BM_SingleChainMva)->Args({5, 10})->Args({10, 50})->Args({20, 100});

void BM_ProductFormBruteForce(benchmark::State& state) {
  const qn::NetworkModel m =
      single_chain_cycle(5, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::solve_product_form(m));
  }
}
BENCHMARK(BM_ProductFormBruteForce)->Arg(6)->Arg(10);

void BM_CtmcOracle(benchmark::State& state) {
  qn::CyclicNetwork net;
  net.stations = {fcfs("a"), fcfs("b"), fcfs("c")};
  net.chains = {{"c1", {0, 1}, {0.08, 0.05}, static_cast<int>(state.range(0))},
                {"c2", {1, 2}, {0.05, 0.11}, static_cast<int>(state.range(0))}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::solve_closed_ctmc(net));
  }
}
BENCHMARK(BM_CtmcOracle)->Arg(3)->Arg(6);

void BM_PowerEvaluationHeuristic(benchmark::State& state) {
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.evaluate({4, 4}));
  }
}
BENCHMARK(BM_PowerEvaluationHeuristic);

void BM_PowerEvaluationLegacyRebuild(benchmark::State& state) {
  // The pre-CompiledModel per-evaluation cost: copy the cyclic network,
  // build a NetworkModel and run the heap-allocating legacy heuristic.
  // Compare against BM_PowerEvaluationHeuristic (compiled + arena) for
  // the per-evaluation win of compile-once/solve-many.
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  for (auto _ : state) {
    const qn::NetworkModel m = problem.network({4, 4}).to_model();
    benchmark::DoNotOptimize(mva::solve_approx_mva(m));
  }
}
BENCHMARK(BM_PowerEvaluationLegacyRebuild);

void BM_FullWindimTwoClass(benchmark::State& state) {
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::dimension_windows(problem));
  }
}
BENCHMARK(BM_FullWindimTwoClass);

void BM_FullWindimFourClass(benchmark::State& state) {
  const core::WindowProblem problem(
      net::canada_topology(), net::four_class_traffic(6.0, 6.0, 6.0, 12.0));
  // range(0): warm start on/off.  0 is the pre-engine cold-start
  // baseline; see also bench_perf_dimension for the headline comparison.
  core::DimensionOptions options;
  options.warm_start = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::dimension_windows(problem, options));
  }
}
BENCHMARK(BM_FullWindimFourClass)->Arg(0)->Arg(1);

// Times `Solver::solve_profiled` on a warm workspace: the steady-state
// cost a dimensioning run pays per evaluation (arena already at its
// high-water mark, zero heap allocations).  With --metrics-out the
// global registry is enabled, so the sweep doubles as a profiling-hook
// exerciser and the per-solver counters land in the exported snapshot.
void BM_RegistrySolver(benchmark::State& state, const solver::Solver* s,
                       const qn::CompiledModel* model,
                       solver::PopulationVector population) {
  solver::Workspace ws;
  (void)s->solve_profiled(*model, population, ws);  // warm the arena
  for (auto _ : state) {
    benchmark::DoNotOptimize(s->solve_profiled(*model, population, ws));
  }
}

// One benchmark per registry solver, on the fixture its traits accept:
// single-chain solvers get a 10-station cycle at population 20, the
// rest get the two-class thesis network at windows (4,4) — the
// semiclosed view for semiclosed_view solvers.  Solvers that reject
// their fixture outright (runtime_error on the probe) are skipped.
void RegisterRegistrySolverBenchmarks() {
  static const core::WindowProblem problem(net::canada_topology(),
                                           net::two_class_traffic(20.0, 20.0));
  static const qn::CompiledModel single =
      qn::CompiledModel::compile(single_chain_cycle(10, 20));
  for (const solver::Solver* s : solver::SolverRegistry::instance().solvers()) {
    const solver::Traits traits = s->traits();
    const qn::CompiledModel* model =
        traits.requires_single_chain ? &single
        : traits.semiclosed_view     ? &problem.compiled_semiclosed()
                                     : &problem.compiled();
    solver::PopulationVector population =
        traits.requires_single_chain ? solver::PopulationVector{20}
                                     : solver::PopulationVector{4, 4};
    try {
      solver::Workspace probe;
      (void)s->solve(*model, population, probe);
    } catch (const std::exception&) {
      continue;
    }
    benchmark::RegisterBenchmark(
        ("BM_RegistrySolver/" + std::string(s->name())).c_str(),
        BM_RegistrySolver, s, model, std::move(population));
  }
}

void BM_PatternSearchQuadratic(benchmark::State& state) {
  const search::Objective f = [](const search::Point& p) {
    double v = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double d = p[i] - 17.0;
      v += d * d;
    }
    return v;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        search::pattern_search(f, search::Point(4, 0)));
  }
}
BENCHMARK(BM_PatternSearchQuadratic);

}  // namespace

// Custom main (vs BENCHMARK_MAIN): the registry sweep registers its
// benchmarks at runtime, one per SolverRegistry entry.  --metrics-out
// is ours, not google-benchmark's: strip it from argv before
// Initialize, enable the global registry for the run, and write the
// merged snapshot as JSON afterwards.
int main(int argc, char** argv) {
  std::string metrics_out;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  RegisterRegistrySolverBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!metrics_out.empty()) {
    windim::obs::MetricsRegistry::global().set_enabled(true);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_out.empty()) {
    const std::string json =
        windim::obs::MetricsRegistry::global().snapshot().to_json() + "\n";
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  return 0;
}
