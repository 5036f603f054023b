// Acceptance benchmark for the compile-once/solve-many engine:
// dimension the 4-class thesis network (Fig 4.10 traffic) with the
// heuristic-MVA evaluator in two serial configurations
//
//   (a) serial cold-start    — compiled engine, no warm start
//   (b) compiled engine      — warm start over the problem's
//       CompiledModel, with a persistent WorkspacePool so the arenas
//       stay warm across runs
//
// and once more as (b) with metrics and an observed run, and price the
// engine per unit of work: µs per evaluation of (b), from its fastest
// search over a one-second window (bench/baseline.h fastest_ms).
//
// Gates (exit 1 on violation):
//   - all configurations find the identical optimal window vector
//     (including the run with metrics + tracing enabled);
//   - (b) costs at most kMaxUsPerEvaluation per evaluation on any host;
//   - the timed reps of (b) perform ZERO Workspace arena allocations
//     (solver::Workspace::total_heap_allocations() is flat);
//   - the disabled-instrumentation guard costs < 2% of an evaluation
//     (measured directly as ns per handle op, scaled by a generous
//     crossings-per-evaluation bound), and the disabled runs record
//     nothing into the global registry.
//
// Flags and the baseline check are bench/baseline.h's; --reps=N is the
// rep count (odd; the median is reported).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline.h"
#include "net/examples.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "solver/workspace.h"
#include "windim/dimension.h"
#include "windim/problem.h"

namespace {

using windim::bench::median_ms;
using windim::core::DimensionOptions;
using windim::core::DimensionResult;
using windim::core::WindowProblem;

// Hard ceiling on the compiled engine's cost per canada4 evaluation.
// A 4-vCPU host measures ~6.8 µs; 25 µs passes a runner up to ~3.7x
// slower and fails an engine 5x slower than that.
constexpr double kMaxUsPerEvaluation = 25.0;

// Direct measurement of the disabled-instrumentation guard: every
// handle operation starts with one relaxed atomic load of the enabled
// flag and bails.  Measuring the guard itself (instead of differencing
// two noisy end-to-end timings) makes the <2% overhead gate stable.
// Must run while the global registry is disabled.
double guard_cost_ns() {
  windim::obs::MetricsRegistry& reg = windim::obs::MetricsRegistry::global();
  const windim::obs::Counter c = reg.counter("bench.guard_probe");
  const windim::obs::Histogram h = reg.histogram("bench.guard_probe_us");
  constexpr int kOps = 1 << 21;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    c.add(1);
    h.observe(static_cast<double>(i));
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         (2.0 * kOps);
}

void print_result(const char* label, double ms, const std::vector<int>& w,
                  double power, std::size_t evals) {
  std::printf("%-24s %8.3f ms   evals=%-4zu windows=(", label, ms, evals);
  for (std::size_t i = 0; i < w.size(); ++i) {
    std::printf("%s%d", i ? "," : "", w[i]);
  }
  std::printf(")  power=%.4f\n", power);
}

}  // namespace

int main(int argc, char** argv) {
  windim::bench::PerfRun run("perf_dimension", 15);
  if (const std::optional<int> rc = run.parse(argc, argv)) return *rc;
  const int reps = run.reps();

  const WindowProblem problem(windim::net::canada_topology(),
                              windim::net::four_class_traffic(6, 6, 6, 12));

  DimensionOptions cold;
  cold.warm_start = false;

  windim::solver::WorkspacePool workspaces;
  DimensionOptions engine;
  engine.warm_start = true;
  engine.workspaces = &workspaces;

  // Warm-up: page in code, grow the persistent pool's arenas to the
  // run's high-water mark (the one-time cost the allocation gate
  // excludes by design).
  (void)windim::core::dimension_windows(problem, cold);
  (void)windim::core::dimension_windows(problem, engine);

  DimensionResult cold_result;
  const double cold_ms = median_ms(reps, [&] {
    cold_result = windim::core::dimension_windows(problem, cold);
  });

  const double guard_ns = guard_cost_ns();

  // Allocation gate: the timed compiled-engine reps must not grow any
  // workspace arena (nor copy any scratch model) anywhere in the process.
  const std::uint64_t allocs_before =
      windim::solver::Workspace::total_heap_allocations();
  DimensionResult engine_result;
  const double engine_ms = median_ms(reps, [&] {
    engine_result = windim::core::dimension_windows(problem, engine);
  });
  const double fastest_engine_ms = windim::bench::fastest_ms({[&] {
    (void)windim::core::dimension_windows(problem, engine);
  }})[0];
  const std::uint64_t warm_allocations =
      windim::solver::Workspace::total_heap_allocations() - allocs_before;

  // Everything so far ran with the registry disabled; it must be empty.
  const windim::obs::MetricsSnapshot disabled_snapshot =
      windim::obs::MetricsRegistry::global().snapshot();
  const bool disabled_clean =
      disabled_snapshot.counter_or("search.runs") == 0 &&
      disabled_snapshot.counter_or("search.probes") == 0 &&
      disabled_snapshot.counter_or("solver.heuristic-mva.solves") == 0;

  // Fully instrumented run: metrics on and the run observed (one probe
  // record per probe, with each fresh solve's convergence record).
  // Reported as an informational overhead figure; the windows must not
  // change.
  windim::obs::MetricsRegistry::global().set_enabled(true);
  DimensionOptions instrumented = engine;
  instrumented.observe = true;
  DimensionResult instrumented_result;
  const double instrumented_ms = median_ms(reps, [&] {
    instrumented_result =
        windim::core::dimension_windows(problem, instrumented);
  });
  windim::obs::MetricsRegistry::global().set_enabled(false);
  const std::size_t trace_records = instrumented_result.probes.size();

  std::printf("4-class thesis network, heuristic-MVA, %d reps (median)\n\n",
              reps);
  print_result("serial cold-start", cold_ms, cold_result.optimal_windows,
               cold_result.evaluation.power,
               cold_result.objective_evaluations);
  print_result("compiled engine", engine_ms, engine_result.optimal_windows,
               engine_result.evaluation.power,
               engine_result.objective_evaluations);
  print_result("engine + metrics/trace", instrumented_ms,
               instrumented_result.optimal_windows,
               instrumented_result.evaluation.power,
               instrumented_result.objective_evaluations);

  const bool same_windows =
      cold_result.optimal_windows == engine_result.optimal_windows &&
      instrumented_result.optimal_windows == engine_result.optimal_windows;
  const double speedup_vs_cold = cold_ms / engine_ms;
  const std::size_t evaluations =
      std::max<std::size_t>(engine_result.objective_evaluations, 1);
  const double us_per_evaluation =
      fastest_engine_ms * 1e3 / static_cast<double>(evaluations);

  // Disabled-guard overhead as a fraction of one evaluation: the warm
  // path crosses the guard once per solve; budget 8 crossings per
  // evaluation for headroom (hooks added later must stay under it).
  constexpr double kGuardCrossingsPerEvaluation = 8.0;
  const double eval_ns = engine_ms * 1e6 / static_cast<double>(evaluations);
  const double obs_disabled_overhead_pct =
      100.0 * kGuardCrossingsPerEvaluation * guard_ns / eval_ns;
  const double obs_enabled_overhead_pct =
      100.0 * (instrumented_ms - engine_ms) / engine_ms;

  std::printf(
      "\ncompiled engine: %.2f us per evaluation (%zu evaluations, "
      "ceiling %.0f us)\n"
      "speedup vs serial cold    %.2fx\n"
      "warm-path workspace allocations: %llu\n"
      "disabled guard: %.2f ns/op -> %.4f%% of an evaluation\n"
      "enabled metrics+trace overhead: %.2f%% (informational), "
      "%zu trace records\n"
      "identical windows: %s\n",
      us_per_evaluation, evaluations, kMaxUsPerEvaluation, speedup_vs_cold,
      static_cast<unsigned long long>(warm_allocations), guard_ns,
      obs_disabled_overhead_pct, obs_enabled_overhead_pct, trace_records,
      same_windows ? "yes" : "NO");

  bool pass = true;
  if (!same_windows) {
    std::printf("FAIL: configurations disagree on the optimal windows\n");
    pass = false;
  }
  if (us_per_evaluation > kMaxUsPerEvaluation) {
    std::printf("FAIL: %.2f us per evaluation is over the %.0f us ceiling\n",
                us_per_evaluation, kMaxUsPerEvaluation);
    pass = false;
  }
  if (warm_allocations != 0) {
    std::printf("FAIL: warm path performed workspace arena allocations\n");
    pass = false;
  }
  if (obs_disabled_overhead_pct >= 2.0) {
    std::printf("FAIL: disabled instrumentation guard costs >= 2%%\n");
    pass = false;
  }
  if (!disabled_clean) {
    std::printf("FAIL: disabled runs recorded metrics\n");
    pass = false;
  }
  if (trace_records == 0) {
    std::printf("FAIL: instrumented run produced an empty search trace\n");
    pass = false;
  }
  if (pass) std::printf("PASS\n");

  windim::obs::JsonWriter& w = run.json();
  w.key("network");
  w.value("canada_topology/four_class_traffic(6,6,6,12)");
  w.key("evaluator");
  w.value("heuristic-mva");
  w.key("reps");
  w.value(reps);
  w.key("serial_cold_ms");
  w.value(cold_ms);
  w.key("engine_ms");
  w.value(engine_ms);
  w.key("instrumented_ms");
  w.value(instrumented_ms);
  w.key("evaluations");
  w.value(static_cast<std::uint64_t>(evaluations));
  w.key("us_per_evaluation");
  w.value(us_per_evaluation);
  w.key("speedup_vs_cold");
  w.value(speedup_vs_cold);
  w.key("warm_workspace_allocations");
  w.value(static_cast<std::uint64_t>(warm_allocations));
  w.key("guard_ns_per_op");
  w.value(guard_ns);
  w.key("obs_disabled_overhead_pct");
  w.value(obs_disabled_overhead_pct);
  w.key("obs_enabled_overhead_pct");
  w.value(obs_enabled_overhead_pct);
  w.key("trace_records");
  w.value(static_cast<std::uint64_t>(trace_records));
  w.key("identical_windows");
  w.value(same_windows);
  w.key("pass");
  w.value(pass);
  return run.finish(pass, windim::bench::perf_dimension_checks());
}
