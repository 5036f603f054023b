// Acceptance benchmark for the dynamic-traffic scenario matrix (PR 9):
// the full policies x scenarios grid over the 2-class Canadian fixture,
// plus the determinism and reproducibility contracts that make the
// scorecard usable as a regression fixture.
//
// Measured:
//   - grid wall time (median over --reps, trend inspection only —
//     machine-bound, no cross-machine check);
//   - cell count of the full default grid;
//   - byte-identity of the rendered scorecard across worker counts
//     (1 vs 8);
//   - scorecard reproducibility from the recorded base seed;
//   - the stationary/static cell's simulated power as a fraction of the
//     analytic optimum (the oracle cell of the matrix).
//
// Gates (exit 1 on violation):
//   - the default grid carries every registered policy and scenario;
//   - scorecards are byte-identical across worker counts;
//   - a rerun from the same seed reproduces the scorecard, a different
//     seed does not;
//   - the stationary/static power lands within 50% of the analytic
//     optimum (the tight envelope lives in sim_vs_exact_test.cc).
//
// The result's keys are scenario_-prefixed so it merges into the shared
// bench/baselines/BENCH_perf.json; the flags and the baseline check
// (perf_scenario_checks) are bench/baseline.h's.
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "baseline.h"
#include "control/matrix.h"
#include "control/registry.h"
#include "control/scenario.h"
#include "net/examples.h"
#include "obs/json.h"

using namespace windim;

namespace {

control::MatrixOptions grid_options(int jobs) {
  control::MatrixOptions options;
  options.sim_time = 120.0;
  options.warmup = 12.0;
  options.seed = 29;
  options.jobs = jobs;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PerfRun run("perf_scenario", 3);
  if (const std::optional<int> rc = run.parse(argc, argv)) return *rc;
  const int reps = run.reps();

  const net::Topology topo = net::canada_topology();
  const auto classes = net::two_class_traffic(25.0, 25.0);

  // Timed full grids on the worker pool (the production configuration).
  control::MatrixResult matrix;
  const double median_grid_ms = bench::median_ms(reps, [&] {
    matrix = control::run_matrix(topo, classes, grid_options(8));
  });

  const std::size_t expected_cells =
      control::policy_names().size() * control::scenario_names().size();
  const bool full_grid = matrix.cells.size() == expected_cells;

  // Determinism: the scorecard must be byte-identical whether the cells
  // ran serially or on 8 workers.
  const std::string parallel_card = control::render_scorecard(matrix);
  const std::string serial_card = control::render_scorecard(
      control::run_matrix(topo, classes, grid_options(1)));
  const bool deterministic = parallel_card == serial_card;

  // Reproducibility: the same base seed rebuilds the scorecard; a
  // different one must not.
  const bool reproducible =
      control::render_scorecard(
          control::run_matrix(topo, classes, grid_options(8))) ==
      parallel_card;
  control::MatrixOptions reseeded = grid_options(8);
  reseeded.seed = 30;
  const bool seed_sensitive =
      control::render_scorecard(
          control::run_matrix(topo, classes, reseeded)) != parallel_card;

  // The oracle cell: stationary traffic under the static optimum must
  // sit near the analytic power the matrix dimensioned against.
  double stationary_power_ratio = 0.0;
  for (std::size_t s = 0; s < matrix.scenarios.size(); ++s) {
    for (std::size_t p = 0; p < matrix.policies.size(); ++p) {
      if (matrix.scenarios[s] == "stationary" &&
          matrix.policies[p] == "static") {
        const control::MatrixCell& cell =
            matrix.cells[s * matrix.policies.size() + p];
        stationary_power_ratio =
            matrix.static_power > 0.0 ? cell.power / matrix.static_power
                                      : 0.0;
      }
    }
  }
  const bool oracle_close =
      std::abs(stationary_power_ratio - 1.0) <= 0.5;

  std::printf(
      "scenario matrix: canada_topology/two_class_traffic(25,25), %d reps\n"
      "  grid       %10.3f ms (median), %zu cells (%zu policies x %zu "
      "scenarios)\n"
      "  identity   deterministic=%s reproducible=%s seed_sensitive=%s\n"
      "  oracle     stationary/static power = %.3f x analytic optimum\n",
      reps, median_grid_ms, matrix.cells.size(), matrix.policies.size(),
      matrix.scenarios.size(), deterministic ? "yes" : "NO",
      reproducible ? "yes" : "NO", seed_sensitive ? "yes" : "NO",
      stationary_power_ratio);

  bool pass = true;
  if (!full_grid) {
    std::printf("FAIL: the default grid does not cover the registries\n");
    pass = false;
  }
  if (!deterministic) {
    std::printf("FAIL: scorecard differs across worker counts\n");
    pass = false;
  }
  if (!reproducible || !seed_sensitive) {
    std::printf("FAIL: scorecard is not a pure function of the seed\n");
    pass = false;
  }
  if (!oracle_close) {
    std::printf("FAIL: stationary/static cell far from the analytic "
                "optimum\n");
    pass = false;
  }
  if (pass) std::printf("PASS\n");

  obs::JsonWriter& w = run.json();
  w.key("scenario_reps");
  w.value(reps);
  w.key("scenario_grid_ms");
  w.value(median_grid_ms);
  w.key("scenario_cells");
  w.value(static_cast<std::uint64_t>(matrix.cells.size()));
  w.key("scenario_deterministic");
  w.value(deterministic);
  w.key("scenario_reproducible");
  w.value(reproducible && seed_sensitive);
  w.key("scenario_stationary_power_ratio");
  w.value(stationary_power_ratio);
  w.key("scenario_pass");
  w.value(pass);
  return run.finish(pass, bench::perf_scenario_checks());
}
