// Acceptance benchmark for the compile-once/solve-many engine:
// dimension the 4-class thesis network (Fig 4.10 traffic) with the
// heuristic-MVA evaluator and compare three serial configurations
//
//   (a) serial cold-start    — compiled engine, no warm start
//   (b) legacy baseline      — warm start, but every evaluation rebuilds
//       the NetworkModel and runs the legacy heap-allocating
//       solve_approx_mva entry point (the engine's per-evaluation cost
//       before CompiledModel/Workspace existed; reconstructed here
//       because the engine no longer has that path)
//   (c) compiled engine      — warm start over the problem's
//       CompiledModel, with a persistent WorkspacePool so the arenas
//       stay warm across runs
//
// Gates (exit 1 on violation):
//   - all configurations find the identical optimal window vector
//     (including the run with metrics + tracing enabled);
//   - (c) is at least 1.3x faster than the legacy baseline (b);
//   - the timed reps of (c) perform ZERO Workspace arena allocations
//     (solver::Workspace::total_heap_allocations() is flat);
//   - the disabled-instrumentation guard costs < 2% of an evaluation
//     (measured directly as ns per handle op, scaled by a generous
//     crossings-per-evaluation bound), and the disabled runs record
//     nothing into the global registry.
//
// --json=PATH writes the measurements as a JSON object (the CI
// perf-smoke job uploads it as the BENCH_perf.json artifact);
// --reps=N overrides the rep count (odd; median is reported).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline.h"
#include "mva/approx.h"
#include "net/examples.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "qn/network.h"
#include "search/pattern_search.h"
#include "solver/workspace.h"
#include "windim/dimension.h"
#include "windim/problem.h"

namespace {

using windim::core::DimensionOptions;
using windim::core::DimensionResult;
using windim::core::Evaluation;
using windim::core::WindowProblem;

// --- Legacy baseline: the pre-CompiledModel per-evaluation path ----------
//
// Same search machinery as dimension_windows (memoized serial pattern
// search, warm-start anchors on the base-point stream), but the objective
// pays the pre-CompiledModel cost: copy the cyclic network, build a
// NetworkModel, and solve through the legacy vector-allocating entry
// point.

Evaluation legacy_evaluate(const WindowProblem& problem,
                           const std::vector<int>& windows,
                           const windim::mva::MvaWarmStart* seed,
                           windim::mva::MvaWarmStart* state) {
  const windim::qn::NetworkModel model = problem.network(windows).to_model();
  const windim::mva::MvaSolution sol =
      windim::mva::solve_approx_mva(model, {}, seed);
  if (state != nullptr) {
    state->lambda = sol.chain_throughput;
    state->number = sol.mean_queue;
    state->sigma = sol.sigma;
  }

  Evaluation ev;
  ev.windows = windows;
  ev.iterations = sol.iterations;
  ev.converged = sol.converged;
  ev.class_throughput = sol.chain_throughput;
  const int num_chains = problem.num_classes();
  ev.class_delay.assign(static_cast<std::size_t>(num_chains), 0.0);
  double total_rate = 0.0;
  double total_number = 0.0;
  for (int r = 0; r < num_chains; ++r) {
    const double rate = sol.chain_throughput[static_cast<std::size_t>(r)];
    total_rate += rate;
    double number_r = 0.0;
    for (int n = 0; n < model.num_stations(); ++n) {
      if (n == problem.source_station(r)) continue;
      number_r += sol.mean_queue[static_cast<std::size_t>(n) * num_chains + r];
    }
    total_number += number_r;
    ev.class_delay[static_cast<std::size_t>(r)] =
        rate > 0.0 ? number_r / rate : 0.0;
  }
  ev.throughput = total_rate;
  ev.mean_delay = total_rate > 0.0 ? total_number / total_rate : 0.0;
  ev.power = ev.mean_delay > 0.0 ? ev.throughput / ev.mean_delay : 0.0;
  return ev;
}

// Trimmed copy of the engine's EvaluationStore: converged states keyed by
// window vector, anchors registered in trajectory order.
class LegacyStore {
 public:
  void insert(const std::vector<int>& windows, windim::mva::MvaWarmStart s) {
    states_.emplace(windows, std::move(s));
  }

  void add_anchor(const std::vector<int>& windows) {
    const auto it = states_.find(windows);
    if (it == states_.end() || it->second.lambda.empty()) return;
    anchors_.push_back(&*it);  // node pointers survive rehashing
  }

  [[nodiscard]] std::optional<windim::mva::MvaWarmStart> nearest_anchor(
      const std::vector<int>& windows) const {
    const Node* best = nullptr;
    long best_distance = 0;
    for (const Node* a : anchors_) {
      long distance = 0;
      for (std::size_t i = 0; i < windows.size(); ++i) {
        distance +=
            std::labs(static_cast<long>(windows[i]) - a->first[i]);
      }
      if (best == nullptr || distance < best_distance) {
        best = a;
        best_distance = distance;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->second;
  }

 private:
  using Node = std::pair<const std::vector<int>, windim::mva::MvaWarmStart>;
  std::unordered_map<std::vector<int>, windim::mva::MvaWarmStart,
                     windim::search::PointHash>
      states_;
  std::vector<const Node*> anchors_;
};

struct LegacyResult {
  std::vector<int> optimal_windows;
  double power = 0.0;
  std::size_t objective_evaluations = 0;
};

LegacyResult legacy_dimension(const WindowProblem& problem) {
  LegacyStore store;

  const windim::search::Objective objective =
      [&](const windim::search::Point& e) {
        const std::optional<windim::mva::MvaWarmStart> seed =
            store.nearest_anchor(e);
        windim::mva::MvaWarmStart state;
        const Evaluation ev =
            legacy_evaluate(problem, e, seed ? &*seed : nullptr, &state);
        store.insert(e, std::move(state));
        return ev.power > 0.0 ? 1.0 / ev.power
                              : std::numeric_limits<double>::infinity();
      };

  const int num_classes = problem.num_classes();
  windim::search::PatternSearchOptions ps;
  ps.lower_bound.assign(static_cast<std::size_t>(num_classes), 1);
  ps.upper_bound.assign(static_cast<std::size_t>(num_classes), 64);
  ps.on_new_base = [&](const windim::search::Point& p, double) {
    store.add_anchor(p);
  };

  const windim::search::PatternSearchResult r = windim::search::pattern_search(
      objective, problem.kleinrock_windows(), ps);
  LegacyResult result;
  result.optimal_windows = r.best;
  result.power = r.best_value > 0.0 ? 1.0 / r.best_value : 0.0;
  result.objective_evaluations = r.evaluations;
  return result;
}

// --- timing harness -------------------------------------------------------

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
  int reps = 15;
  std::string json_path;
  std::string baseline_in;
  std::string baseline_out;
  bool check = false;
  bool check_wall = false;
  double tolerance_pct = 25.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--reps=", 7) == 0) {
      reps = std::atoi(arg + 7);
      if (reps < 1) reps = 1;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--baseline-in=", 14) == 0) {
      baseline_in = arg + 14;
    } else if (std::strncmp(arg, "--baseline-out=", 15) == 0) {
      baseline_out = arg + 15;
    } else if (std::strcmp(arg, "--check") == 0) {
      check = true;
    } else if (std::strcmp(arg, "--check-wall") == 0) {
      // Same-machine selftest only: also compare wall-clock times.
      check = true;
      check_wall = true;
    } else if (std::strncmp(arg, "--tolerance-pct=", 16) == 0) {
      tolerance_pct = std::atof(arg + 16);
    } else {
      std::fprintf(
          stderr,
          "usage: bench_perf_dimension [--reps=N] [--json=PATH]\n"
          "           [--baseline-in=PATH] [--baseline-out=PATH]\n"
          "           [--check] [--check-wall] [--tolerance-pct=P]\n"
          "--check compares the fresh measurements against the\n"
          "--baseline-in JSON (scale-free metrics only; --check-wall adds\n"
          "wall-clock times for same-machine runs) and fails on any\n"
          "regression beyond the tolerance (default 25%%).\n");
      return 2;
    }
  }
  if (check && baseline_in.empty()) {
    std::fprintf(stderr, "error: --check requires --baseline-in=PATH\n");
    return 2;
  }

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
  (void)legacy_dimension(problem);
  (void)windim::core::dimension_windows(problem, engine);

  DimensionResult cold_result;
  const double cold_ms = median_ms(reps, [&] {
    cold_result = windim::core::dimension_windows(problem, cold);
  });

  LegacyResult legacy_result;
  const double legacy_ms =
      median_ms(reps, [&] { legacy_result = legacy_dimension(problem); });

  const double guard_ns = guard_cost_ns();

  // Allocation gate: the timed compiled-engine reps must not grow any
  // workspace arena (nor copy any scratch model) anywhere in the process.
  const std::uint64_t allocs_before =
      windim::solver::Workspace::total_heap_allocations();
  DimensionResult engine_result;
  const double engine_ms = median_ms(reps, [&] {
    engine_result = windim::core::dimension_windows(problem, engine);
  });
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
  print_result("PR 1 baseline (legacy)", legacy_ms,
               legacy_result.optimal_windows, legacy_result.power,
               legacy_result.objective_evaluations);
  print_result("compiled engine", engine_ms, engine_result.optimal_windows,
               engine_result.evaluation.power,
               engine_result.objective_evaluations);
  print_result("engine + metrics/trace", instrumented_ms,
               instrumented_result.optimal_windows,
               instrumented_result.evaluation.power,
               instrumented_result.objective_evaluations);

  const bool same_windows =
      cold_result.optimal_windows == engine_result.optimal_windows &&
      legacy_result.optimal_windows == engine_result.optimal_windows &&
      instrumented_result.optimal_windows == engine_result.optimal_windows;
  const double speedup_vs_pr1 = legacy_ms / engine_ms;
  const double speedup_vs_cold = cold_ms / engine_ms;

  // Disabled-guard overhead as a fraction of one evaluation: the warm
  // path crosses the guard once per solve; budget 8 crossings per
  // evaluation for headroom (hooks added later must stay under it).
  constexpr double kGuardCrossingsPerEvaluation = 8.0;
  const double eval_ns =
      engine_ms * 1e6 /
      static_cast<double>(std::max<std::size_t>(
          engine_result.objective_evaluations, 1));
  const double obs_disabled_overhead_pct =
      100.0 * kGuardCrossingsPerEvaluation * guard_ns / eval_ns;
  const double obs_enabled_overhead_pct =
      100.0 * (instrumented_ms - engine_ms) / engine_ms;

  std::printf(
      "\nspeedup vs PR 1 baseline  %.2fx\n"
      "speedup vs serial cold    %.2fx\n"
      "warm-path workspace allocations: %llu\n"
      "disabled guard: %.2f ns/op -> %.4f%% of an evaluation\n"
      "enabled metrics+trace overhead: %.2f%% (informational), "
      "%zu trace records\n"
      "identical windows: %s\n",
      speedup_vs_pr1, speedup_vs_cold,
      static_cast<unsigned long long>(warm_allocations), guard_ns,
      obs_disabled_overhead_pct, obs_enabled_overhead_pct, trace_records,
      same_windows ? "yes" : "NO");

  bool pass = true;
  if (!same_windows) {
    std::printf("FAIL: configurations disagree on the optimal windows\n");
    pass = false;
  }
  if (speedup_vs_pr1 < 1.3) {
    std::printf("FAIL: speedup vs the PR 1 baseline below 1.3x\n");
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

  windim::obs::JsonWriter w;
  {
    w.begin_object();
    w.key("benchmark");
    w.value("perf_dimension");
    w.key("network");
    w.value("canada_topology/four_class_traffic(6,6,6,12)");
    w.key("evaluator");
    w.value("heuristic-mva");
    w.key("reps");
    w.value(reps);
    w.key("serial_cold_ms");
    w.value(cold_ms);
    w.key("pr1_baseline_ms");
    w.value(legacy_ms);
    w.key("engine_ms");
    w.value(engine_ms);
    w.key("instrumented_ms");
    w.value(instrumented_ms);
    w.key("speedup_vs_pr1");
    w.value(speedup_vs_pr1);
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

  if (check) {
    const std::optional<std::string> baseline =
        windim::bench::load_file(baseline_in);
    if (!baseline.has_value()) {
      std::fprintf(stderr, "error: cannot read baseline %s\n",
                   baseline_in.c_str());
      return 1;
    }
    std::vector<windim::bench::CheckSpec> checks =
        windim::bench::perf_dimension_checks(tolerance_pct);
    if (check_wall) {
      std::vector<windim::bench::CheckSpec> wall =
          windim::bench::wall_clock_checks(tolerance_pct);
      checks.insert(checks.end(), wall.begin(), wall.end());
    }
    const windim::bench::BaselineReport report =
        windim::bench::compare_baseline(*baseline, json, checks);
    std::printf("\nbaseline check vs %s (tolerance %.0f%%):\n%s",
                baseline_in.c_str(), tolerance_pct,
                report.render().c_str());
    if (!report.ok()) pass = false;
  }
  return pass ? 0 : 1;
}
