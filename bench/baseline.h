// The shared harness of the bench_perf_* binaries and their baseline
// check.
//
// Every bench_perf_* binary takes the same four flags (--reps=N,
// --json=PATH, --baseline-in=PATH, --check), stamps its JSON result
// with the machine's fingerprint (nproc, CPU model, compiler, build
// type) and, with --check, compares that result metric by metric
// against a committed baseline: bench/baselines/BENCH_perf.json, the
// five benches' --json objects merged into one.  PerfRun does all of
// that; a bench keeps only its own flags and measurements.
//
// The checks come in two kinds:
//
//   - scale-free metrics (overhead percentages, allocation counts,
//     identity and pass flags) hold on any machine and are always
//     compared;
//   - per-unit costs (µs per evaluation, ns per visited cell per sweep)
//     are absolute, so they are compared only when this run's
//     fingerprint equals the baseline's and are reported `skipped`
//     otherwise.  Each of them also has a hard ceiling inside its bench
//     that holds on any host.
//
// Noise handling: the benches report times as medians over reps and
// per-unit costs as the fastest call of a window (fastest_ms), and each
// check carries a tolerance (percent of the baseline value) and a floor
// that keeps tiny denominators from amplifying noise into spurious
// relative regressions.
//
// compare_baseline is pure string -> report (no filesystem), so tests
// drive it with synthetic JSON.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"

namespace windim::bench {

/// Which direction of change is a regression.
enum class Direction {
  kHigherIsBetter,  // flags: regression = current below baseline
  kLowerIsBetter,   // costs, overheads, counts: regression = above
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
  /// An absolute cost of this machine: compared only when the current
  /// and baseline fingerprints are equal.
  bool per_unit = false;
};

struct MetricComparison {
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  /// Adverse drift in percent of the floored baseline (positive =
  /// moved in the regression direction).
  double drift_pct = 0.0;
  bool ok = true;
  /// A per-unit row under a different fingerprint: not compared.
  bool skipped = false;
};

struct BaselineReport {
  std::vector<MetricComparison> comparisons;
  /// Structural problems: unreadable/malformed JSON, a missing metric or
  /// fingerprint.  Any error fails the report.
  std::vector<std::string> errors;
  /// The two fingerprints, one line each ("" when absent).
  std::string baseline_fingerprint;
  std::string current_fingerprint;

  [[nodiscard]] bool ok() const;
  /// Human-readable summary, one line per comparison plus errors.
  [[nodiscard]] std::string render() const;
};

/// bench_perf_dimension: obs_disabled_overhead_pct (floored at 0.5 pp),
/// warm_workspace_allocations, identical_windows and pass (exact), and
/// the per-unit us_per_evaluation.
[[nodiscard]] std::vector<CheckSpec> perf_dimension_checks();

/// bench_perf_large_model: large_warm_workspace_allocations,
/// large_bit_identical and large_pass (exact), and the per-unit
/// large_ns_per_visited_cell_{1k,10k}.  The keys are prefixed so the
/// five benches share one merged baseline object.
[[nodiscard]] std::vector<CheckSpec> perf_large_model_checks();

/// bench_perf_serve: the cache hit rate (floored at 0.1), the exact
/// serve_error_free and serve_pass gates, and the per-unit
/// serve_live_plane_ns_per_request.  Requests per second and the live
/// plane's share of a request are gated by the bench itself (>= 1000
/// req/s, < 2%).
[[nodiscard]] std::vector<CheckSpec> perf_serve_checks();

/// bench_perf_pareto: the front size, repeat-scan determinism, seed
/// reproducibility and prune-identity gates are exact; the pruned
/// lattice fraction drifts within tolerance (floored at 0.05).
[[nodiscard]] std::vector<CheckSpec> perf_pareto_checks();

/// bench_perf_scenario: the cell count, worker-count determinism and
/// seed reproducibility gates are exact; the stationary/static power
/// ratio vs the analytic optimum drifts within tolerance (floored at
/// 0.5 — it sits near 1.0 by construction).
[[nodiscard]] std::vector<CheckSpec> perf_scenario_checks();

/// Compares one benchmark JSON object against a baseline JSON object.
/// Booleans count as 1/0 so pass flags are checked like any numeric
/// metric.  Both objects must carry a fingerprint; per-unit checks are
/// compared only when the two fingerprints are equal.
[[nodiscard]] BaselineReport compare_baseline(
    const std::string& baseline_json, const std::string& current_json,
    const std::vector<CheckSpec>& checks);

/// Reads a whole file; nullopt (with no diagnostics — the caller owns
/// the error message) when it cannot be opened.
[[nodiscard]] std::optional<std::string> load_file(const std::string& path);

/// Writes `body` (plus a trailing newline when missing) to `path`.
[[nodiscard]] bool save_file(const std::string& path,
                             const std::string& body);

/// Median wall time, in milliseconds, of `reps` calls of `run`.
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

/// The fastest call of each of `runs`, in milliseconds, over a window
/// of at least one second.  The window is made of rounds, each on the
/// next CPU the thread may run on, and a round is a 100 ms slice of
/// back-to-back calls of each run in turn, so every call but a slice's
/// first finds its data in cache.  The per-unit costs are gated on it.
/// Other tenants of a shared host slow one core at a time by ~1.5x for
/// seconds: on a 4-vCPU host the median of a short run moved by up to
/// 60% from run to run, and a one-second window on one core still read
/// 30-45% slow in about one run in four, while in a trace rotating over
/// the four cores every 100 ms some core ran at the quiet cost in
/// every 400 ms.
[[nodiscard]] std::vector<double> fastest_ms(
    const std::vector<std::function<void()>>& runs);

/// One run of a bench_perf_* binary: its flags, its JSON result and its
/// baseline check.
class PerfRun {
 public:
  /// A bench's own `--name=VALUE` flag: a count (an integer >= 1) or a
  /// path, written through the pointer when given.
  struct Flag {
    Flag(const char* name, int* count) : name(name), count(count) {}
    Flag(const char* name, std::string* path) : name(name), path(path) {}
    const char* name;  // "--sweeps"
    int* count = nullptr;
    std::string* path = nullptr;
  };

  /// `benchmark` names the bench in its JSON ("perf_dimension");
  /// `default_reps` is its rep count without --reps.
  PerfRun(std::string benchmark, int default_reps);

  /// Parses --reps=N, --json=PATH, --baseline-in=PATH, --check and the
  /// bench's `own` flags.  Returns nullopt to run the bench, or 2 after
  /// printing the problem: an unknown flag, a malformed value (naming
  /// the flag) or --check without --baseline-in.
  [[nodiscard]] std::optional<int> parse(int argc, char** argv,
                                         const std::vector<Flag>& own = {});

  [[nodiscard]] int reps() const noexcept { return reps_; }

  /// The result object, already holding "benchmark" and this machine's
  /// "fingerprint" (nproc, cpu_model from the `model name` line of
  /// /proc/cpuinfo, compiler as __VERSION__, build_type as the CMake
  /// configuration); the bench adds its measurements.
  [[nodiscard]] obs::JsonWriter& json() noexcept { return json_; }

  /// Closes the result, prints the fingerprint, writes --json and, with
  /// --check, compares against --baseline-in under `checks` and prints
  /// the report.  Returns the exit code: 0 when `pass` and the check
  /// hold, 1 otherwise.
  [[nodiscard]] int finish(bool pass, const std::vector<CheckSpec>& checks);

 private:
  std::string benchmark_;
  int reps_;
  std::string json_path_;
  std::string baseline_in_;
  bool check_ = false;
  obs::JsonWriter json_;
};

}  // namespace windim::bench
