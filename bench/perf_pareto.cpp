// Acceptance benchmark for the Pareto-front dimensioning mode (PR 8):
// the epsilon-constraint scan over the 4-class Canadian fixture, the
// determinism and reproducibility contracts of the front, and the
// balanced-job-bounds pruning of exhaustive enumeration.
//
// Measured:
//   - scan wall time (median over --reps, recorded for trend inspection
//     only — machine-bound, no cross-machine check);
//   - front size, constrained solves, infeasible floors;
//   - byte-identity of the serialized front across repeated scans
//     (a scan is a pure function of the problem and options);
//   - per-point reproducibility: one constrained dimension_windows call
//     from each point's recorded seed must land on the same windows;
//   - pruned fraction of the exhaustive lattice under
//     balanced_job_power_prune, with optimum identity vs the unpruned
//     sweep.
//
// Gates (exit 1 on violation):
//   - front carries >= 5 non-dominated points;
//   - serialized fronts are byte-identical across repeated scans;
//   - every point reproduces from its seed;
//   - the pruned exhaustive sweep prunes a nonzero part of the lattice
//     and returns the unpruned optimum.
//
// The result's keys are pareto_-prefixed so it merges into the shared
// bench/baselines/BENCH_perf.json; the flags and the baseline check
// (perf_pareto_checks) are bench/baseline.h's.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "baseline.h"
#include "obs/json.h"
#include "windim/windim.h"

using namespace windim;

namespace {

core::WindowProblem canadian_problem() {
  return core::WindowProblem(net::canada_topology(),
                             net::four_class_traffic(6, 6, 6, 12));
}

core::ParetoFront run_scan(const core::WindowProblem& problem) {
  return core::pareto_front(problem, core::ParetoOptions{});
}

}  // namespace

int main(int argc, char** argv) {
  bench::PerfRun run("perf_pareto", 5);
  if (const std::optional<int> rc = run.parse(argc, argv)) return *rc;
  const int reps = run.reps();

  const core::WindowProblem problem = canadian_problem();

  // Timed scans.
  core::ParetoFront front;
  const double median_scan_ms =
      bench::median_ms(reps, [&] { front = run_scan(problem); });

  // Determinism: a fresh scan serializes to the same bytes.
  const bool deterministic =
      core::to_json(front) == core::to_json(run_scan(problem));

  // Reproducibility: each point's recorded seed + floor rebuilds it
  // with one constrained solve.
  bool reproducible = true;
  for (const core::ParetoPoint& p : front.points) {
    core::DimensionOptions opts;
    opts.objective = core::DimensionObjective::kPowerFairConstrained;
    opts.min_fairness = p.fairness_floor;
    opts.initial_windows = p.initial_windows;
    const core::DimensionResult r = core::dimension_windows(problem, opts);
    if (r.optimal_windows != p.windows) reproducible = false;
  }

  // Balanced-job-bounds pruning over the [1,6]^4 lattice under the
  // alpha = 0 (total-throughput) objective: identical optimum, strictly
  // less work.  The throughput bound is the sharp one on this fixture —
  // the power bound is equally sound but its 1/route-demand factor
  // overshoots the Canadian fixture's short routes and never fires.
  const int num_classes = problem.num_classes();
  const search::Point lower(static_cast<std::size_t>(num_classes), 1);
  const search::Point upper(static_cast<std::size_t>(num_classes), 6);
  core::ObjectiveSpec throughput_spec;
  throughput_spec.kind = core::ObjectiveKind::kAlphaFair;
  throughput_spec.alpha = 0.0;
  const search::VectorObjective objective = [&](const search::Point& p) {
    return core::objective_vector(problem.evaluate(p), throughput_spec);
  };
  const search::VectorExhaustiveResult full =
      search::vector_exhaustive_search(objective, lower, upper);
  search::VectorExhaustiveOptions pruned_opts;
  pruned_opts.prune = core::balanced_job_throughput_prune(problem);
  const search::VectorExhaustiveResult pruned =
      search::vector_exhaustive_search(objective, lower, upper, pruned_opts);
  const std::size_t lattice = full.evaluations;
  const double prune_fraction =
      lattice > 0 ? static_cast<double>(pruned.pruned) /
                        static_cast<double>(lattice)
                  : 0.0;
  const bool prune_identical = pruned.best == full.best;

  std::printf(
      "pareto scan: canada_topology/four_class_traffic(6,6,6,12), %d reps\n"
      "  scan       %10.3f ms (median), %zu solves, %zu infeasible\n"
      "  front      %zu non-dominated points, %zu dominated dropped\n"
      "  identity   deterministic=%s reproducible=%s\n"
      "  prune      %zu of %zu lattice points skipped (%.1f%%), "
      "identical=%s\n",
      reps, median_scan_ms, front.runs, front.infeasible_runs,
      front.points.size(), front.dominated_dropped,
      deterministic ? "yes" : "NO", reproducible ? "yes" : "NO",
      pruned.pruned, lattice, 100.0 * prune_fraction,
      prune_identical ? "yes" : "NO");

  bool pass = true;
  if (front.points.size() < 5) {
    std::printf("FAIL: front carries fewer than 5 non-dominated points\n");
    pass = false;
  }
  if (!deterministic) {
    std::printf("FAIL: serialized front differs across repeated scans\n");
    pass = false;
  }
  if (!reproducible) {
    std::printf("FAIL: a front point does not reproduce from its seed\n");
    pass = false;
  }
  if (pruned.pruned == 0) {
    std::printf("FAIL: the balanced-job bound pruned nothing\n");
    pass = false;
  }
  if (!prune_identical) {
    std::printf("FAIL: pruning changed the exhaustive optimum\n");
    pass = false;
  }
  if (pass) std::printf("PASS\n");

  obs::JsonWriter& w = run.json();
  w.key("pareto_reps");
  w.value(reps);
  w.key("pareto_scan_ms");
  w.value(median_scan_ms);
  w.key("pareto_front_points");
  w.value(static_cast<std::uint64_t>(front.points.size()));
  w.key("pareto_runs");
  w.value(static_cast<std::uint64_t>(front.runs));
  w.key("pareto_infeasible_runs");
  w.value(static_cast<std::uint64_t>(front.infeasible_runs));
  w.key("pareto_deterministic");
  w.value(deterministic);
  w.key("pareto_reproducible");
  w.value(reproducible);
  w.key("pareto_prune_lattice");
  w.value(static_cast<std::uint64_t>(lattice));
  w.key("pareto_prune_pruned");
  w.value(static_cast<std::uint64_t>(pruned.pruned));
  w.key("pareto_prune_fraction");
  w.value(prune_fraction);
  w.key("pareto_prune_identical");
  w.value(prune_identical);
  w.key("pareto_pass");
  w.value(pass);
  return run.finish(pass, bench::perf_pareto_checks());
}
