// Perf-baseline regression harness for the bench_perf_* binaries.
//
// A baseline is simply a committed copy of a benchmark's --json output
// (bench/baselines/BENCH_perf.json); a later run compares its fresh
// JSON against that file metric by metric and fails on regression.
// Noise handling is layered:
//
//   - the benchmark itself reports median-of-reps times, so single-rep
//     outliers never reach the comparison;
//   - the DEFAULT check set is scale-free (speedup ratios, overhead
//     percentages, allocation counts) — valid across machines of
//     different absolute speed, which is what lets the committed
//     baseline gate CI runners;
//   - wall-clock metrics (engine_ms ...) are a separate opt-in set for
//     same-machine comparisons only;
//   - each check carries a tolerance (percent of the baseline value)
//     and a floor that keeps tiny denominators from amplifying noise
//     into spurious relative regressions.
//
// The comparison is pure string -> report (no filesystem), so tests can
// drive it with synthetic JSON; load_file is the thin I/O wrapper the
// benchmarks use.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace windim::bench {

/// Which direction of change is a regression.
enum class Direction {
  kHigherIsBetter,  // speedups: regression = current below baseline
  kLowerIsBetter,   // times, overheads, counts: regression = above
};

struct CheckSpec {
  std::string metric;  // JSON key in the benchmark's --json object
  Direction direction = Direction::kLowerIsBetter;
  /// Allowed adverse drift, in percent of the (floored) baseline value.
  double tolerance_pct = 25.0;
  /// The baseline value is clamped up to this before the relative
  /// comparison, so near-zero baselines (a 0.03% guard overhead) do not
  /// turn measurement noise into huge relative "regressions".
  double floor = 0.0;
};

struct MetricComparison {
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  /// Adverse drift in percent of the floored baseline (positive =
  /// moved in the regression direction).
  double drift_pct = 0.0;
  bool ok = true;
};

struct BaselineReport {
  std::vector<MetricComparison> comparisons;
  /// Structural problems: unreadable/malformed JSON, missing metrics.
  /// Any error fails the report.
  std::vector<std::string> errors;

  [[nodiscard]] bool ok() const;
  /// Human-readable summary, one line per comparison plus errors.
  [[nodiscard]] std::string render() const;
};

/// The scale-free default checks for bench_perf_dimension --check:
/// speedup_vs_pr1, obs_disabled_overhead_pct,
/// warm_workspace_allocations (exact), identical_windows and pass
/// (exact).  `tolerance_pct` applies to the ratio metrics.
[[nodiscard]] std::vector<CheckSpec> perf_dimension_checks(
    double tolerance_pct = 25.0);

/// The scale-free default checks for bench_perf_large_model --check:
/// large_speedup_10k / large_speedup_1k (ratio metrics under
/// `tolerance_pct`), large_warm_workspace_allocations,
/// large_identical_windows and large_pass (exact).  The keys are
/// prefixed so both benchmarks can share one merged baseline object.
[[nodiscard]] std::vector<CheckSpec> perf_large_model_checks(
    double tolerance_pct = 25.0);

/// The scale-free default checks for bench_perf_serve --check: the
/// cache hit rate (ratio metric under `tolerance_pct`, floored at 0.1)
/// plus the exact serve_error_free and serve_pass gates — the absolute
/// requests/second figure is machine-bound and gated by the benchmark
/// itself (>= 1000 req/s), not by the committed baseline.
[[nodiscard]] std::vector<CheckSpec> perf_serve_checks(
    double tolerance_pct = 25.0);

/// The scale-free default checks for bench_perf_pareto --check: the
/// front size, repeat-scan determinism, seed reproducibility and
/// prune/optimum-identity gates are exact; the pruned lattice fraction
/// is a ratio metric under `tolerance_pct` (floored at 0.05 so a small
/// absolute wobble on a thin prune cannot explode relatively).
[[nodiscard]] std::vector<CheckSpec> perf_pareto_checks(
    double tolerance_pct = 25.0);

/// The scale-free default checks for bench_perf_scenario --check: the
/// cell count, worker-count determinism and seed reproducibility gates
/// are exact; the stationary/static power ratio vs the analytic optimum
/// is a ratio metric under `tolerance_pct` (floored at 0.5 — it sits
/// near 1.0 by construction).
[[nodiscard]] std::vector<CheckSpec> perf_scenario_checks(
    double tolerance_pct = 25.0);

/// Same-machine wall-clock checks (opt-in): serial_cold_ms,
/// pr1_baseline_ms, engine_ms, instrumented_ms.
[[nodiscard]] std::vector<CheckSpec> wall_clock_checks(
    double tolerance_pct = 25.0);

/// Compares one benchmark JSON object against a baseline JSON object.
/// Booleans count as 1/0 so pass/identical_windows can be checked like
/// any numeric metric.
[[nodiscard]] BaselineReport compare_baseline(
    const std::string& baseline_json, const std::string& current_json,
    const std::vector<CheckSpec>& checks);

/// Reads a whole file; nullopt (with no diagnostics — the caller owns
/// the error message) when it cannot be opened.
[[nodiscard]] std::optional<std::string> load_file(const std::string& path);

/// Writes `body` (plus a trailing newline when missing) to `path`.
[[nodiscard]] bool save_file(const std::string& path,
                             const std::string& body);

}  // namespace windim::bench
