#include "baseline.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.h"

namespace windim::bench {
namespace {

// Numeric read that also accepts booleans (pass / identical_windows)
// as 1/0, so every gate in the benchmark JSON is checkable.
std::optional<double> metric_value(const obs::JsonValue& root,
                                   const std::string& key) {
  const obs::JsonValue* v = root.find(key);
  if (v == nullptr) {
    return std::nullopt;
  }
  if (v->kind == obs::JsonValue::Kind::kNumber) {
    return v->number;
  }
  if (v->kind == obs::JsonValue::Kind::kBool) {
    return v->boolean ? 1.0 : 0.0;
  }
  return std::nullopt;
}

}  // namespace

bool BaselineReport::ok() const {
  if (!errors.empty()) {
    return false;
  }
  return std::all_of(comparisons.begin(), comparisons.end(),
                     [](const MetricComparison& c) { return c.ok; });
}

std::string BaselineReport::render() const {
  std::ostringstream out;
  for (const MetricComparison& c : comparisons) {
    out << (c.ok ? "  ok   " : "  FAIL ") << c.metric << ": baseline "
        << c.baseline << " -> current " << c.current;
    if (c.drift_pct > 0.0) {
      out << " (" << c.drift_pct << "% worse)";
    }
    out << '\n';
  }
  for (const std::string& e : errors) {
    out << "  ERROR " << e << '\n';
  }
  out << (ok() ? "baseline check PASSED" : "baseline check FAILED") << '\n';
  return out.str();
}

std::vector<CheckSpec> perf_dimension_checks(double tolerance_pct) {
  // Scale-free only: ratios and counts hold across machines of
  // different absolute speed.  The overhead percentage gets a 0.5pp
  // floor — a 0.02% -> 0.05% wobble is noise, not a regression — and
  // the exact gates (allocations, window identity, overall pass) get
  // zero tolerance.
  return {
      {"speedup_vs_pr1", Direction::kHigherIsBetter, tolerance_pct, 0.0},
      {"obs_disabled_overhead_pct", Direction::kLowerIsBetter, tolerance_pct,
       0.5},
      {"warm_workspace_allocations", Direction::kLowerIsBetter, 0.0, 0.0},
      {"identical_windows", Direction::kHigherIsBetter, 0.0, 0.0},
      {"pass", Direction::kHigherIsBetter, 0.0, 0.0},
  };
}

std::vector<CheckSpec> perf_large_model_checks(double tolerance_pct) {
  // Same philosophy as perf_dimension_checks: speedup ratios drift
  // within tolerance, the allocation / solution-identity / pass gates
  // are exact.  The 10k ratio is the acceptance headline (>= 3x is the
  // benchmark's own hard gate; the baseline check additionally pins
  // the measured margin).
  return {
      {"large_speedup_10k", Direction::kHigherIsBetter, tolerance_pct, 0.0},
      {"large_speedup_1k", Direction::kHigherIsBetter, tolerance_pct, 0.0},
      {"large_warm_workspace_allocations", Direction::kLowerIsBetter, 0.0,
       0.0},
      {"large_identical_windows", Direction::kHigherIsBetter, 0.0, 0.0},
      {"large_pass", Direction::kHigherIsBetter, 0.0, 0.0},
  };
}

std::vector<CheckSpec> perf_serve_checks(double tolerance_pct) {
  // The daemon's own hard gate (>= 1000 req/s) folds into serve_pass;
  // the committed baseline additionally pins that the cache keeps
  // absorbing repeat topologies and that the well-formed stream stays
  // error-free.  serve_requests_per_sec / serve_p99_us are recorded in
  // the JSON for trend inspection but are machine-bound, so they carry
  // no cross-machine check.
  // serve_window_overhead_pct prices the live observability plane
  // (sliding windows + trace buffer) against a window-off control run;
  // the benchmark hard-fails at 2%, and the baseline check bounds drift
  // below that (floored at 2.0 so a near-zero committed overhead cannot
  // turn scheduler noise into a huge relative regression).
  return {
      {"serve_cache_hit_rate", Direction::kHigherIsBetter, tolerance_pct,
       0.1},
      {"serve_window_overhead_pct", Direction::kLowerIsBetter, tolerance_pct,
       2.0},
      {"serve_error_free", Direction::kHigherIsBetter, 0.0, 0.0},
      {"serve_pass", Direction::kHigherIsBetter, 0.0, 0.0},
  };
}

std::vector<CheckSpec> perf_pareto_checks(double tolerance_pct) {
  // The front's identity gates are deterministic by construction
  // (sequential search, fixed scan order), so they carry zero
  // tolerance; only the pruned-lattice fraction is allowed to drift —
  // it moves when the evaluator or the balanced-job bounds are
  // legitimately tightened or relaxed.
  return {
      {"pareto_front_points", Direction::kHigherIsBetter, 0.0, 0.0},
      {"pareto_deterministic", Direction::kHigherIsBetter, 0.0, 0.0},
      {"pareto_reproducible", Direction::kHigherIsBetter, 0.0, 0.0},
      {"pareto_prune_fraction", Direction::kHigherIsBetter, tolerance_pct,
       0.05},
      {"pareto_prune_identical", Direction::kHigherIsBetter, 0.0, 0.0},
      {"pareto_pass", Direction::kHigherIsBetter, 0.0, 0.0},
  };
}

std::vector<CheckSpec> perf_scenario_checks(double tolerance_pct) {
  // The scorecard identity gates are deterministic by construction
  // (per-cell seeding, preallocated slots, fixed render order), so they
  // carry zero tolerance; only the stationary-cell power ratio is
  // allowed statistical drift around 1.0.
  return {
      {"scenario_cells", Direction::kHigherIsBetter, 0.0, 0.0},
      {"scenario_deterministic", Direction::kHigherIsBetter, 0.0, 0.0},
      {"scenario_reproducible", Direction::kHigherIsBetter, 0.0, 0.0},
      {"scenario_stationary_power_ratio", Direction::kHigherIsBetter,
       tolerance_pct, 0.5},
      {"scenario_pass", Direction::kHigherIsBetter, 0.0, 0.0},
  };
}

std::vector<CheckSpec> wall_clock_checks(double tolerance_pct) {
  // Millisecond floors keep sub-millisecond phases from flagging on
  // scheduler jitter.  Same-machine comparisons only.
  return {
      {"serial_cold_ms", Direction::kLowerIsBetter, tolerance_pct, 1.0},
      {"pr1_baseline_ms", Direction::kLowerIsBetter, tolerance_pct, 1.0},
      {"engine_ms", Direction::kLowerIsBetter, tolerance_pct, 1.0},
      {"instrumented_ms", Direction::kLowerIsBetter, tolerance_pct, 1.0},
  };
}

BaselineReport compare_baseline(const std::string& baseline_json,
                                const std::string& current_json,
                                const std::vector<CheckSpec>& checks) {
  BaselineReport report;
  const std::optional<obs::JsonValue> base = obs::parse_json(baseline_json);
  if (!base.has_value() || !base->is_object()) {
    report.errors.push_back("baseline is not a valid JSON object");
    return report;
  }
  const std::optional<obs::JsonValue> cur = obs::parse_json(current_json);
  if (!cur.has_value() || !cur->is_object()) {
    report.errors.push_back("current result is not a valid JSON object");
    return report;
  }
  for (const CheckSpec& spec : checks) {
    const std::optional<double> b = metric_value(*base, spec.metric);
    const std::optional<double> c = metric_value(*cur, spec.metric);
    if (!b.has_value()) {
      report.errors.push_back("baseline missing metric: " + spec.metric);
      continue;
    }
    if (!c.has_value()) {
      report.errors.push_back("current result missing metric: " +
                              spec.metric);
      continue;
    }
    MetricComparison cmp;
    cmp.metric = spec.metric;
    cmp.baseline = *b;
    cmp.current = *c;
    // Adverse movement in the metric's regression direction, measured
    // against the floored baseline so near-zero denominators cannot
    // amplify noise.  A zero floored baseline degenerates to an exact
    // comparison: any adverse movement at all fails.
    const double adverse = spec.direction == Direction::kLowerIsBetter
                               ? cmp.current - cmp.baseline
                               : cmp.baseline - cmp.current;
    const double denom = std::max(std::abs(cmp.baseline), spec.floor);
    if (adverse > 0.0) {
      cmp.drift_pct =
          denom > 0.0 ? 100.0 * adverse / denom
                      : std::numeric_limits<double>::infinity();
      cmp.ok = cmp.drift_pct <= spec.tolerance_pct;
    }
    report.comparisons.push_back(std::move(cmp));
  }
  return report;
}

std::optional<std::string> load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream body;
  body << in.rdbuf();
  return std::move(body).str();
}

bool save_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << body;
  if (body.empty() || body.back() != '\n') {
    out << '\n';
  }
  return out.good();
}

}  // namespace windim::bench
