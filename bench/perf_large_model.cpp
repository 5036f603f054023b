// Acceptance benchmark for the continental-scale SoA sweep kernels:
// solve generated large-cyclic fixtures (1k and 10k chains, seed 1)
// with
//
//   (a) pre-PR scalar path — a faithful reconstruction of the
//       O(N*R^2) heuristic sweep before the busy[]/total[] hoists
//       (every chain re-sums the other chains' utilization and queue
//       lengths at every station), kept here because the engine no
//       longer has that path;
//   (b) SoA kernel        — the registry's heuristic-mva over the
//       station-major CompiledModel slab, with hoisted sweeps over the
//       visited (chain, station) cells only and a warm Workspace arena.
//
// Both run the SAME fixed number of sweeps (tolerance 0), so the
// comparison is per-sweep work, not convergence luck.  The kernel's
// absolute cost is also reported per unit of its work: ns per visited
// cell per sweep (informational; no gate reads it).
//
// Gates (exit 1 on violation):
//   - the 10k-chain kernel is at least 3x faster than the scalar path;
//   - both paths agree on the solved window statistics (max relative
//     throughput difference < 1e-6 — the hoists reassociate the
//     other-chain sums, so agreement is near-exact, not bitwise);
//   - the timed kernel reps perform ZERO workspace arena allocations.
//
// --json=PATH writes the measurements; --check compares them against
// --baseline-in (scale-free metrics); --trace-spans-out=PATH writes a
// Chrome-trace span file covering the timed phases (the CI
// perf-large-model job uploads it).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
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

using windim::qn::CompiledModel;

// --- pre-PR scalar path ---------------------------------------------------
//
// The heuristic sweep exactly as it ran before the station-major hoists
// (see git history of solver/heuristic_mva.cc): STEP 2 re-sums
// rho_other over all other chains per (chain, station) and STEP 3
// re-sums the total queue per (chain, station), making every sweep
// O(N*R^2).  Cold std::vector storage, Chan sigma policy, no warm
// start — the configuration the speedup claim is measured against.
std::vector<double> scalar_solve(const CompiledModel& model,
                                 const std::vector<int>& population,
                                 const windim::mva::ApproxMvaOptions& options) {
  const int num_stations = model.num_stations();
  const int num_chains = model.num_chains();
  const std::size_t cells =
      static_cast<std::size_t>(num_stations) * num_chains;
  std::vector<double> number(cells, 0.0);
  std::vector<double> time(cells, 0.0);
  std::vector<double> lambda(static_cast<std::size_t>(num_chains), 0.0);
  std::vector<double> sigma(cells, 0.0);
  std::vector<double> lambda_prev(static_cast<std::size_t>(num_chains));
  std::vector<double> sub_demand(static_cast<std::size_t>(num_stations));
  std::vector<int> sub_station(static_cast<std::size_t>(num_stations));
  std::vector<int> sub_delay(static_cast<std::size_t>(num_stations));
  std::vector<double> sc_number_prev(static_cast<std::size_t>(num_stations));
  std::vector<double> sc_number_cur(static_cast<std::size_t>(num_stations));
  std::vector<double> sc_time(static_cast<std::size_t>(num_stations));

  // STEP 1: balanced initialization.
  for (int r = 0; r < num_chains; ++r) {
    const int pop = population[static_cast<std::size_t>(r)];
    const std::span<const int> stations = model.stations_of(r);
    if (pop == 0 || stations.empty()) continue;
    double cycle = 0.0;
    for (int n : stations) cycle += model.demand(r, n);
    const double share =
        static_cast<double>(pop) / static_cast<double>(stations.size());
    for (int n : stations) {
      number[static_cast<std::size_t>(n) * num_chains + r] = share;
    }
    lambda[static_cast<std::size_t>(r)] = pop / cycle;
  }
  std::copy(lambda.begin(), lambda.end(), lambda_prev.begin());

  for (int iteration = 1; iteration <= options.max_iterations; ++iteration) {
    // STEP 2: sigma via the isolated single-chain subproblem, with the
    // O(R) other-chain utilization re-sum per visited station.
    for (int r = 0; r < num_chains; ++r) {
      const int pop = population[static_cast<std::size_t>(r)];
      if (pop == 0) continue;
      std::size_t sub_size = 0;
      for (int n = 0; n < num_stations; ++n) {
        const double d = model.demand(r, n);
        if (d <= 0.0) continue;
        double rho_other = 0.0;
        for (int j = 0; j < num_chains; ++j) {
          if (j == r) continue;
          rho_other +=
              lambda[static_cast<std::size_t>(j)] * model.demand(j, n);
        }
        rho_other = std::clamp(rho_other, 0.0, options.utilization_clamp);
        const bool delay = model.is_delay(n);
        sub_demand[sub_size] = delay ? d : d / (1.0 - rho_other);
        sub_delay[sub_size] = delay ? 1 : 0;
        sub_station[sub_size] = n;
        ++sub_size;
      }
      for (std::size_t k = 0; k < sub_size; ++k) sc_number_prev[k] = 0.0;
      for (int k = 1; k <= pop; ++k) {
        double cycle_time = 0.0;
        for (std::size_t i = 0; i < sub_size; ++i) {
          sc_time[i] = sub_delay[i] != 0
                           ? sub_demand[i]
                           : sub_demand[i] * (1.0 + sc_number_prev[i]);
          cycle_time += sc_time[i];
        }
        const double sc_lambda = k / cycle_time;
        for (std::size_t i = 0; i < sub_size; ++i) {
          sc_number_cur[i] = sc_lambda * sc_time[i];
        }
        if (k < pop) {
          std::swap_ranges(sc_number_prev.begin(),
                           sc_number_prev.begin() + sub_size,
                           sc_number_cur.begin());
        }
      }
      for (std::size_t i = 0; i < sub_size; ++i) {
        const double increment = sc_number_cur[i] - sc_number_prev[i];
        sigma[static_cast<std::size_t>(sub_station[i]) * num_chains + r] =
            std::clamp(increment, 0.0, 1.0);
      }
    }

    // STEP 3: queueing times, with the O(R) total-queue re-sum.
    for (int r = 0; r < num_chains; ++r) {
      if (population[static_cast<std::size_t>(r)] == 0) continue;
      for (int n = 0; n < num_stations; ++n) {
        const double d = model.demand(r, n);
        if (d <= 0.0) {
          time[static_cast<std::size_t>(n) * num_chains + r] = 0.0;
          continue;
        }
        if (model.is_delay(n)) {
          time[static_cast<std::size_t>(n) * num_chains + r] = d;
          continue;
        }
        double others = 0.0;
        for (int j = 0; j < num_chains; ++j) {
          others += number[static_cast<std::size_t>(n) * num_chains + j];
        }
        const double seen = std::max(
            0.0,
            others - sigma[static_cast<std::size_t>(n) * num_chains + r]);
        time[static_cast<std::size_t>(n) * num_chains + r] = d * (1.0 + seen);
      }
    }

    // STEP 4: chain throughputs.
    for (int r = 0; r < num_chains; ++r) {
      const int pop = population[static_cast<std::size_t>(r)];
      if (pop == 0) {
        lambda[static_cast<std::size_t>(r)] = 0.0;
        continue;
      }
      double cycle = 0.0;
      for (int n = 0; n < num_stations; ++n) {
        cycle += time[static_cast<std::size_t>(n) * num_chains + r];
      }
      lambda[static_cast<std::size_t>(r)] = pop / cycle;
    }

    // STEP 5: queue lengths.
    for (int r = 0; r < num_chains; ++r) {
      for (int n = 0; n < num_stations; ++n) {
        const std::size_t idx = static_cast<std::size_t>(n) * num_chains + r;
        const double updated = lambda[static_cast<std::size_t>(r)] * time[idx];
        number[idx] =
            options.damping * updated + (1.0 - options.damping) * number[idx];
      }
    }

    // STEP 6: CRIT (irrelevant at tolerance 0 — fixed sweep count).
    double crit = 0.0;
    double scale = 1.0;
    for (int r = 0; r < num_chains; ++r) {
      crit = std::max(crit, std::abs(lambda[static_cast<std::size_t>(r)] -
                                     lambda_prev[static_cast<std::size_t>(r)]));
      scale = std::max(scale, std::abs(lambda[static_cast<std::size_t>(r)]));
    }
    std::copy(lambda.begin(), lambda.end(), lambda_prev.begin());
    if (crit / scale < options.tolerance) break;
  }
  return lambda;
}

template <typename Run>
double median_ms(int reps, const Run& run) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    times.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct SizeResult {
  int chains = 0;
  std::size_t visited_cells = 0;  // (chain, station) pairs on a route
  double scalar_ms = 0.0;
  double kernel_ms = 0.0;
  double ns_per_visited_cell = 0.0;  // kernel, per sweep
  double speedup = 0.0;
  double max_rel_diff = 0.0;
  std::uint64_t warm_allocations = 0;
};

SizeResult run_size(int chains, int sweeps, int reps) {
  windim::obs::SpanTracer::Scope span(&windim::obs::SpanTracer::global(),
                                      "bench.large_model", "bench");
  span.arg("chains", chains);

  windim::verify::GenOptions gen_opt;
  gen_opt.large_chains = chains;
  const windim::verify::Instance inst = windim::verify::generate(
      windim::verify::Family::kLargeCyclic, 1, gen_opt);
  const CompiledModel compiled = CompiledModel::compile(inst.model);
  const std::vector<int> population(compiled.base_populations().begin(),
                                    compiled.base_populations().end());

  // Fixed sweep count for both paths: per-sweep cost is the claim.
  windim::mva::ApproxMvaOptions options;
  options.max_iterations = sweeps;
  options.tolerance = 0.0;

  const windim::solver::Solver& kernel =
      windim::solver::SolverRegistry::instance().require("heuristic-mva");
  windim::solver::Workspace ws;
  ws.hints.mva = &options;

  // Warm-up: grow the arena to this model's high-water mark.
  std::vector<double> kernel_lambda;
  {
    const windim::solver::Solution sol = kernel.solve(compiled, population, ws);
    kernel_lambda.assign(sol.chain_throughput.begin(),
                         sol.chain_throughput.end());
  }

  SizeResult out;
  out.chains = chains;
  for (int r = 0; r < compiled.num_chains(); ++r) {
    out.visited_cells += compiled.stations_of(r).size();
  }
  const std::uint64_t allocs_before =
      windim::solver::Workspace::total_heap_allocations();
  {
    windim::obs::SpanTracer::Scope s(&windim::obs::SpanTracer::global(),
                                     "bench.kernel_solve", "bench");
    s.arg("chains", chains);
    out.kernel_ms = median_ms(
        reps, [&] { (void)kernel.solve(compiled, population, ws); });
    s.arg("median_ms", out.kernel_ms);
  }
  out.warm_allocations =
      windim::solver::Workspace::total_heap_allocations() - allocs_before;
  out.ns_per_visited_cell =
      out.kernel_ms * 1e6 /
      (static_cast<double>(out.visited_cells) * static_cast<double>(sweeps));

  std::vector<double> scalar_lambda;
  {
    windim::obs::SpanTracer::Scope s(&windim::obs::SpanTracer::global(),
                                     "bench.scalar_solve", "bench");
    s.arg("chains", chains);
    // The scalar path is O(N*R^2) per sweep — a single rep is minutes
    // of arithmetic at 10k chains; its median over noise is not the
    // bottleneck of the comparison.
    out.scalar_ms = median_ms(
        1, [&] { scalar_lambda = scalar_solve(compiled, population, options); });
    s.arg("median_ms", out.scalar_ms);
  }
  out.speedup = out.scalar_ms / out.kernel_ms;

  for (std::size_t r = 0; r < scalar_lambda.size(); ++r) {
    const double denom = std::max(1e-300, std::abs(scalar_lambda[r]));
    out.max_rel_diff = std::max(
        out.max_rel_diff, std::abs(kernel_lambda[r] - scalar_lambda[r]) / denom);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  int sweeps = 10;
  std::string json_path;
  std::string baseline_in;
  std::string baseline_out;
  std::string spans_path;
  bool check = false;
  double tolerance_pct = 25.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--reps=", 7) == 0) {
      reps = std::atoi(arg + 7);
      if (reps < 1) reps = 1;
    } else if (std::strncmp(arg, "--sweeps=", 9) == 0) {
      sweeps = std::atoi(arg + 9);
      if (sweeps < 1) sweeps = 1;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--baseline-in=", 14) == 0) {
      baseline_in = arg + 14;
    } else if (std::strncmp(arg, "--baseline-out=", 15) == 0) {
      baseline_out = arg + 15;
    } else if (std::strncmp(arg, "--trace-spans-out=", 18) == 0) {
      spans_path = arg + 18;
    } else if (std::strcmp(arg, "--check") == 0) {
      check = true;
    } else if (std::strncmp(arg, "--tolerance-pct=", 16) == 0) {
      tolerance_pct = std::atof(arg + 16);
    } else {
      std::fprintf(
          stderr,
          "usage: bench_perf_large_model [--reps=N] [--sweeps=N]\n"
          "           [--json=PATH] [--trace-spans-out=PATH]\n"
          "           [--baseline-in=PATH] [--baseline-out=PATH]\n"
          "           [--check] [--tolerance-pct=P]\n"
          "--check compares the fresh measurements against the\n"
          "--baseline-in JSON (scale-free metrics only) and fails on\n"
          "any regression beyond the tolerance (default 25%%).\n");
      return 2;
    }
  }
  if (check && baseline_in.empty()) {
    std::fprintf(stderr, "error: --check requires --baseline-in=PATH\n");
    return 2;
  }

  if (!spans_path.empty()) {
    windim::obs::SpanTracer::global().set_enabled(true);
  }

  const SizeResult r1k = run_size(1000, sweeps, reps);
  const SizeResult r10k = run_size(10000, sweeps, reps);

  std::printf("large-cyclic fixtures, %d fixed sweeps, heuristic-MVA\n\n",
              sweeps);
  for (const SizeResult& r : {r1k, r10k}) {
    std::printf(
        "%6d chains: scalar %10.3f ms   kernel %8.3f ms   "
        "speedup %7.1fx   max rel diff %.2e\n",
        r.chains, r.scalar_ms, r.kernel_ms, r.speedup, r.max_rel_diff);
    std::printf(
        "              kernel %.2f ns per visited cell per sweep "
        "(%zu visited cells)\n",
        r.ns_per_visited_cell, r.visited_cells);
  }

  const bool identical_windows =
      r1k.max_rel_diff < 1e-6 && r10k.max_rel_diff < 1e-6;
  const std::uint64_t warm_allocations =
      r1k.warm_allocations + r10k.warm_allocations;

  bool pass = true;
  if (r10k.speedup < 3.0) {
    std::printf("FAIL: 10k-chain speedup below 3x\n");
    pass = false;
  }
  if (!identical_windows) {
    std::printf("FAIL: scalar and kernel paths disagree on the solution\n");
    pass = false;
  }
  if (warm_allocations != 0) {
    std::printf("FAIL: warm kernel reps performed arena allocations\n");
    pass = false;
  }
  if (pass) std::printf("PASS\n");

  windim::obs::JsonWriter w;
  {
    w.begin_object();
    w.key("benchmark");
    w.value("perf_large_model");
    w.key("large_sweeps");
    w.value(sweeps);
    w.key("large_reps");
    w.value(reps);
    w.key("large_scalar_1k_ms");
    w.value(r1k.scalar_ms);
    w.key("large_kernel_1k_ms");
    w.value(r1k.kernel_ms);
    w.key("large_speedup_1k");
    w.value(r1k.speedup);
    w.key("large_scalar_10k_ms");
    w.value(r10k.scalar_ms);
    w.key("large_kernel_10k_ms");
    w.value(r10k.kernel_ms);
    w.key("large_speedup_10k");
    w.value(r10k.speedup);
    w.key("large_ns_per_visited_cell_1k");
    w.value(r1k.ns_per_visited_cell);
    w.key("large_ns_per_visited_cell_10k");
    w.value(r10k.ns_per_visited_cell);
    w.key("large_max_rel_diff");
    w.value(std::max(r1k.max_rel_diff, r10k.max_rel_diff));
    w.key("large_warm_workspace_allocations");
    w.value(warm_allocations);
    w.key("large_identical_windows");
    w.value(identical_windows);
    w.key("large_pass");
    w.value(pass);
    w.end_object();
  }
  const std::string json = w.str();

  if (!json_path.empty() && !windim::bench::save_file(json_path, json)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (!baseline_out.empty() &&
      !windim::bench::save_file(baseline_out, json)) {
    std::fprintf(stderr, "error: cannot write %s\n", baseline_out.c_str());
    return 1;
  }
  if (!spans_path.empty() &&
      !windim::obs::SpanTracer::global().write_json(spans_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", spans_path.c_str());
    return 1;
  }

  if (check) {
    const std::optional<std::string> baseline =
        windim::bench::load_file(baseline_in);
    if (!baseline.has_value()) {
      std::fprintf(stderr, "error: cannot read baseline %s\n",
                   baseline_in.c_str());
      return 1;
    }
    const windim::bench::BaselineReport report = windim::bench::compare_baseline(
        *baseline, json, windim::bench::perf_large_model_checks(tolerance_pct));
    std::printf("\nbaseline check vs %s (tolerance %.0f%%):\n%s",
                baseline_in.c_str(), tolerance_pct, report.render().c_str());
    if (!report.ok()) pass = false;
  }
  return pass ? 0 : 1;
}
