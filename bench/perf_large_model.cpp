// Acceptance benchmark for the continental-scale packed sweep kernel:
// solve generated large-cyclic fixtures (1k and 10k chains, seed 1)
// with the registry's heuristic-mva — its state packed over the visited
// (station, chain) cells, flat hoisted sweeps and a warm Workspace
// arena — for a fixed number of sweeps (tolerance 0), and price it per
// unit of its work: ns per visited cell per sweep, from the fastest
// solve of each fixture over one shared one-second window
// (bench/baseline.h fastest_ms).
//
// Gates (exit 1 on violation):
//   - the kernel costs at most kMaxNsPerVisitedCell per visited cell
//     per sweep at both sizes, on any host;
//   - the kernel returns the chain throughputs of the dense reference
//     mva::solve_approx_mva over the same sweeps, bit for bit
//     (compiled_equivalence_test pins the same identity on small
//     models);
//   - the timed kernel calls perform ZERO workspace arena allocations.
//
// --trace-spans-out=PATH writes a Chrome-trace span file covering the
// timed phases (the CI perf job uploads it); the other
// flags and the baseline check are bench/baseline.h's.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline.h"
#include "mva/approx.h"
#include "obs/json.h"
#include "obs/span.h"
#include "qn/compiled_model.h"
#include "solver/registry.h"
#include "solver/solver.h"
#include "solver/workspace.h"
#include "verify/gen.h"

namespace {

using windim::bench::median_ms;
using windim::qn::CompiledModel;

// Hard ceiling on the kernel's ns per visited cell per sweep.  A 4-vCPU
// host measures ~17 ns at 1k chains and ~29 ns at 10k; 100 ns passes a
// runner up to ~3.4x slower and fails a kernel 5x slower than the 10k
// figure.
constexpr double kMaxNsPerVisitedCell = 100.0;

// One generated fixture with a warm workspace for the kernel.
struct Fixture {
  Fixture(int chains, const windim::mva::ApproxMvaOptions& options)
      : chains(chains),
        inst(windim::verify::generate(windim::verify::Family::kLargeCyclic,
                                      1, gen_options(chains))),
        compiled(CompiledModel::compile(inst.model)),
        population(compiled.base_populations().begin(),
                   compiled.base_populations().end()) {
    ws.hints.mva = &options;
    for (int r = 0; r < compiled.num_chains(); ++r) {
      visited_cells += compiled.stations_of(r).size();
    }
    // Also grows the arena to its high-water mark.
    const windim::solver::Solution sol = solve();
    lambda.assign(sol.chain_throughput.begin(), sol.chain_throughput.end());
  }

  static windim::verify::GenOptions gen_options(int chains) {
    windim::verify::GenOptions gen;
    gen.large_chains = chains;
    return gen;
  }

  windim::solver::Solution solve() {
    return kernel.solve(compiled, population, ws);
  }

  const windim::solver::Solver& kernel =
      windim::solver::SolverRegistry::instance().require("heuristic-mva");
  int chains;
  windim::verify::Instance inst;
  CompiledModel compiled;
  std::vector<int> population;
  windim::solver::Workspace ws;
  std::size_t visited_cells = 0;
  std::vector<double> lambda;  // the kernel's throughputs
};

struct SizeResult {
  double kernel_ms = 0.0;
  double ns_per_visited_cell = 0.0;  // fastest solve, per sweep
  double max_rel_diff = 0.0;         // vs the dense reference
  bool bit_identical = false;
};

// The median solve over `reps` and the comparison with the dense
// reference.
SizeResult measure(Fixture& f, int reps,
                   const windim::mva::ApproxMvaOptions& options) {
  windim::obs::SpanTracer::Scope span(&windim::obs::SpanTracer::global(),
                                      "bench.large_model", "bench");
  span.arg("chains", f.chains);
  SizeResult out;
  {
    windim::obs::SpanTracer::Scope s(&windim::obs::SpanTracer::global(),
                                     "bench.kernel_solve", "bench");
    s.arg("chains", f.chains);
    out.kernel_ms = median_ms(reps, [&] { (void)f.solve(); });
    s.arg("median_ms", out.kernel_ms);
  }

  std::vector<double> dense_lambda;
  {
    windim::obs::SpanTracer::Scope s(&windim::obs::SpanTracer::global(),
                                     "bench.dense_solve", "bench");
    s.arg("chains", f.chains);
    dense_lambda =
        windim::mva::solve_approx_mva(f.inst.model, options).chain_throughput;
  }
  out.bit_identical = f.lambda == dense_lambda;
  for (std::size_t r = 0; r < dense_lambda.size(); ++r) {
    const double denom = std::max(1e-300, std::abs(dense_lambda[r]));
    out.max_rel_diff = std::max(
        out.max_rel_diff, std::abs(f.lambda[r] - dense_lambda[r]) / denom);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int sweeps = 10;
  std::string spans_path;
  windim::bench::PerfRun run("perf_large_model", 5);
  if (const std::optional<int> rc = run.parse(
          argc, argv, {{"--sweeps", &sweeps}, {"--trace-spans-out", &spans_path}})) {
    return *rc;
  }
  const int reps = run.reps();

  if (!spans_path.empty()) {
    windim::obs::SpanTracer::global().set_enabled(true);
  }

  // A fixed sweep count: the cost per sweep is the measurement.
  windim::mva::ApproxMvaOptions options;
  options.max_iterations = sweeps;
  options.tolerance = 0.0;
  Fixture small(1000, options);
  Fixture large(10000, options);

  const std::uint64_t allocs_before =
      windim::solver::Workspace::total_heap_allocations();
  SizeResult r1k = measure(small, reps, options);
  SizeResult r10k = measure(large, reps, options);
  {
    windim::obs::SpanTracer::Scope s(&windim::obs::SpanTracer::global(),
                                     "bench.per_unit_window", "bench");
    const std::vector<double> fastest = windim::bench::fastest_ms(
        {[&] { (void)small.solve(); }, [&] { (void)large.solve(); }});
    r1k.ns_per_visited_cell =
        fastest[0] * 1e6 / static_cast<double>(small.visited_cells * sweeps);
    r10k.ns_per_visited_cell =
        fastest[1] * 1e6 / static_cast<double>(large.visited_cells * sweeps);
  }
  const std::uint64_t warm_allocations =
      windim::solver::Workspace::total_heap_allocations() - allocs_before;

  std::printf("large-cyclic fixtures, %d fixed sweeps, heuristic-MVA\n\n",
              sweeps);
  for (const auto& [f, r] : {std::pair{&small, r1k}, std::pair{&large, r10k}}) {
    std::printf(
        "%6d chains: kernel %8.3f ms   %.2f ns per visited cell per sweep "
        "(%zu visited cells)   max rel diff vs dense %.2e\n",
        f->chains, r.kernel_ms, r.ns_per_visited_cell, f->visited_cells,
        r.max_rel_diff);
  }

  const bool bit_identical = r1k.bit_identical && r10k.bit_identical;

  bool pass = true;
  for (const auto& [f, r] : {std::pair{&small, r1k}, std::pair{&large, r10k}}) {
    if (r.ns_per_visited_cell > kMaxNsPerVisitedCell) {
      std::printf("FAIL: %d chains: %.2f ns per visited cell per sweep is "
                  "over the %.0f ns ceiling\n",
                  f->chains, r.ns_per_visited_cell, kMaxNsPerVisitedCell);
      pass = false;
    }
  }
  if (!bit_identical) {
    std::printf("FAIL: the kernel differs from the dense reference\n");
    pass = false;
  }
  if (warm_allocations != 0) {
    std::printf("FAIL: warm kernel calls performed arena allocations\n");
    pass = false;
  }
  if (pass) std::printf("PASS\n");

  windim::obs::JsonWriter& w = run.json();
  w.key("large_sweeps");
  w.value(sweeps);
  w.key("large_reps");
  w.value(reps);
  w.key("large_kernel_1k_ms");
  w.value(r1k.kernel_ms);
  w.key("large_kernel_10k_ms");
  w.value(r10k.kernel_ms);
  w.key("large_ns_per_visited_cell_1k");
  w.value(r1k.ns_per_visited_cell);
  w.key("large_ns_per_visited_cell_10k");
  w.value(r10k.ns_per_visited_cell);
  w.key("large_max_rel_diff");
  w.value(std::max(r1k.max_rel_diff, r10k.max_rel_diff));
  w.key("large_warm_workspace_allocations");
  w.value(warm_allocations);
  w.key("large_bit_identical");
  w.value(bit_identical);
  w.key("large_pass");
  w.value(pass);

  if (!spans_path.empty() &&
      !windim::obs::SpanTracer::global().write_json(spans_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  return run.finish(pass, windim::bench::perf_large_model_checks());
}
