#include "baseline.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

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

// The "fingerprint" member of a result as one line, or nullopt when it
// is missing or lacks one of its four fields.  Two results come from
// the same machine exactly when these lines are equal.
std::optional<std::string> fingerprint_line(const obs::JsonValue& root) {
  const obs::JsonValue* fp = root.find("fingerprint");
  const obs::JsonValue* nproc = fp != nullptr ? fp->find("nproc") : nullptr;
  if (nproc == nullptr || !nproc->is_number()) return std::nullopt;
  std::string line =
      "nproc " + std::to_string(static_cast<long>(nproc->number));
  for (const char* key : {"cpu_model", "compiler", "build_type"}) {
    const obs::JsonValue* v = fp->find(key);
    if (v == nullptr || v->kind != obs::JsonValue::Kind::kString) {
      return std::nullopt;
    }
    line += std::string(", ") + key + " '" + v->string + "'";
  }
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(" \t", colon + 1));
      }
    }
  }
  return "unknown";
}

void write_fingerprint(obs::JsonWriter& w) {
  w.key("fingerprint");
  w.begin_object();
  w.key("nproc");
  w.value(static_cast<int>(std::thread::hardware_concurrency()));
  w.key("cpu_model");
  w.value(cpu_model());
  w.key("compiler");
  w.value(__VERSION__);
  w.key("build_type");
  w.value(WINDIM_BUILD_TYPE);
  w.end_object();
}

/// The whole of `text` as a count >= 1, or nullopt.
std::optional<int> parse_count(const std::string& text) {
  int value = 0;
  const char* const last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last || value < 1) return std::nullopt;
  return value;
}

// Pins the calling thread to one CPU of the set it may run on, the
// next one at each next(), and gives it the whole set back when
// destroyed.  Without an affinity interface it does nothing.
class CpuRotation {
 public:
  CpuRotation() {
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
#endif
  }
  ~CpuRotation() { pin(cpus_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (!cpus_.empty()) pin({cpus_[next_++ % cpus_.size()]});
  }

 private:
  // Restricts the calling thread to `cpus`; nothing when empty.
  static void pin(const std::vector<int>& cpus) {
#ifdef __linux__
    if (cpus.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
#endif
  }

  std::vector<int> cpus_;  // the allowed set at construction
  std::size_t next_ = 0;
};

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
  out << "  this run: " << current_fingerprint << '\n'
      << "  baseline: " << baseline_fingerprint << '\n';
  for (const MetricComparison& c : comparisons) {
    if (c.skipped) {
      out << "  skipped " << c.metric << ": baseline " << c.baseline
          << ", current " << c.current << " (another machine)\n";
      continue;
    }
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

std::vector<CheckSpec> perf_dimension_checks() {
  // The overhead percentage gets a 0.5pp floor — a 0.02% -> 0.05%
  // wobble is noise, not a regression — and the exact gates
  // (allocations, window identity, overall pass) get zero tolerance.
  return {
      {"obs_disabled_overhead_pct", Direction::kLowerIsBetter, 25.0, 0.5},
      {"warm_workspace_allocations", Direction::kLowerIsBetter, 0.0, 0.0},
      {"identical_windows", Direction::kHigherIsBetter, 0.0, 0.0},
      {"pass", Direction::kHigherIsBetter, 0.0, 0.0},
      {"us_per_evaluation", Direction::kLowerIsBetter, 25.0, 0.0, true},
  };
}

std::vector<CheckSpec> perf_large_model_checks() {
  return {
      {"large_warm_workspace_allocations", Direction::kLowerIsBetter, 0.0,
       0.0},
      {"large_bit_identical", Direction::kHigherIsBetter, 0.0, 0.0},
      {"large_pass", Direction::kHigherIsBetter, 0.0, 0.0},
      {"large_ns_per_visited_cell_1k", Direction::kLowerIsBetter, 25.0, 0.0,
       true},
      {"large_ns_per_visited_cell_10k", Direction::kLowerIsBetter, 25.0, 0.0,
       true},
  };
}

std::vector<CheckSpec> perf_serve_checks() {
  // The daemon's own hard gate (>= 1000 req/s) folds into serve_pass;
  // the committed baseline additionally pins that the cache keeps
  // absorbing repeat topologies and that the well-formed stream stays
  // error-free.  serve_requests_per_sec / serve_p99_us are recorded in
  // the JSON for trend inspection but are machine-bound, so they carry
  // no check.
  // The live observability plane is priced per request, an absolute
  // cost of this machine; serve_window_overhead_pct divides it by the
  // per-request CPU time, which shrinks on a faster host, so it keeps
  // only the bench's own < 2% budget and no baseline row.
  return {
      {"serve_cache_hit_rate", Direction::kHigherIsBetter, 25.0, 0.1},
      {"serve_error_free", Direction::kHigherIsBetter, 0.0, 0.0},
      {"serve_pass", Direction::kHigherIsBetter, 0.0, 0.0},
      {"serve_live_plane_ns_per_request", Direction::kLowerIsBetter, 25.0,
       0.0, true},
  };
}

std::vector<CheckSpec> perf_pareto_checks() {
  // The front's identity gates are deterministic by construction
  // (sequential search, fixed scan order), so they carry zero
  // tolerance; only the pruned-lattice fraction is allowed to drift —
  // it moves when the evaluator or the balanced-job bounds are
  // legitimately tightened or relaxed.
  return {
      {"pareto_front_points", Direction::kHigherIsBetter, 0.0, 0.0},
      {"pareto_deterministic", Direction::kHigherIsBetter, 0.0, 0.0},
      {"pareto_reproducible", Direction::kHigherIsBetter, 0.0, 0.0},
      {"pareto_prune_fraction", Direction::kHigherIsBetter, 25.0, 0.05},
      {"pareto_prune_identical", Direction::kHigherIsBetter, 0.0, 0.0},
      {"pareto_pass", Direction::kHigherIsBetter, 0.0, 0.0},
  };
}

std::vector<CheckSpec> perf_scenario_checks() {
  // The scorecard identity gates are deterministic by construction
  // (per-cell seeding, preallocated slots, fixed render order), so they
  // carry zero tolerance; only the stationary-cell power ratio is
  // allowed statistical drift around 1.0.
  return {
      {"scenario_cells", Direction::kHigherIsBetter, 0.0, 0.0},
      {"scenario_deterministic", Direction::kHigherIsBetter, 0.0, 0.0},
      {"scenario_reproducible", Direction::kHigherIsBetter, 0.0, 0.0},
      {"scenario_stationary_power_ratio", Direction::kHigherIsBetter, 25.0,
       0.5},
      {"scenario_pass", Direction::kHigherIsBetter, 0.0, 0.0},
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
  const std::optional<std::string> base_fp = fingerprint_line(*base);
  const std::optional<std::string> cur_fp = fingerprint_line(*cur);
  if (!base_fp.has_value()) {
    report.errors.push_back("baseline has no complete fingerprint");
  }
  if (!cur_fp.has_value()) {
    report.errors.push_back("current result has no complete fingerprint");
  }
  report.baseline_fingerprint = base_fp.value_or("");
  report.current_fingerprint = cur_fp.value_or("");
  const bool same_machine = base_fp.has_value() && base_fp == cur_fp;
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
    cmp.skipped = spec.per_unit && !same_machine;
    // Adverse movement in the metric's regression direction, measured
    // against the floored baseline so near-zero denominators cannot
    // amplify noise.  A zero floored baseline degenerates to an exact
    // comparison: any adverse movement at all fails.
    const double adverse = spec.direction == Direction::kLowerIsBetter
                               ? cmp.current - cmp.baseline
                               : cmp.baseline - cmp.current;
    const double denom = std::max(std::abs(cmp.baseline), spec.floor);
    if (!cmp.skipped && adverse > 0.0) {
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

std::vector<double> fastest_ms(
    const std::vector<std::function<void()>>& runs) {
  std::vector<double> fastest(runs.size(),
                              std::numeric_limits<double>::infinity());
  CpuRotation cpus;
  for (double spent_ms = 0.0; !runs.empty() && spent_ms < 1000.0;) {
    cpus.next();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      for (double slice_ms = 0.0; slice_ms < 100.0;) {
        const auto t0 = std::chrono::steady_clock::now();
        runs[i]();
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        fastest[i] = std::min(fastest[i], ms);
        slice_ms += ms;
        spent_ms += ms;
      }
    }
  }
  return fastest;
}

PerfRun::PerfRun(std::string benchmark, int default_reps)
    : benchmark_(std::move(benchmark)), reps_(default_reps) {
  json_.begin_object();
  json_.key("benchmark");
  json_.value(benchmark_);
  write_fingerprint(json_);
}

std::optional<int> PerfRun::parse(int argc, char** argv,
                                  const std::vector<Flag>& own) {
  std::vector<Flag> flags = own;
  flags.emplace_back("--reps", &reps_);
  flags.emplace_back("--json", &json_path_);
  flags.emplace_back("--baseline-in", &baseline_in_);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check_ = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const auto flag =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
          return eq != std::string::npos && arg.compare(0, eq, f.name) == 0;
        });
    if (flag == flags.end()) {
      std::string usage = "usage: bench_" + benchmark_ +
                          " [--reps=N] [--json=PATH] [--baseline-in=PATH] "
                          "[--check]";
      for (const Flag& f : own) {
        usage += std::string(" [") + f.name + (f.count ? "=N]" : "=PATH]");
      }
      std::fprintf(stderr,
                   "%s\n--check compares this run against the --baseline-in "
                   "JSON and fails on a regression.\n",
                   usage.c_str());
      return 2;
    }
    const std::string value = arg.substr(eq + 1);
    if (flag->path != nullptr) {
      *flag->path = value;
    } else if (const std::optional<int> n = parse_count(value)) {
      *flag->count = *n;
    } else {
      std::fprintf(stderr, "error: %s expects an integer >= 1, got '%s'\n",
                   flag->name, value.c_str());
      return 2;
    }
  }
  if (check_ && baseline_in_.empty()) {
    std::fprintf(stderr, "error: --check requires --baseline-in=PATH\n");
    return 2;
  }
  return std::nullopt;
}

int PerfRun::finish(bool pass, const std::vector<CheckSpec>& checks) {
  json_.end_object();
  const std::string& result = json_.str();
  if (!json_path_.empty() && !save_file(json_path_, result)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path_.c_str());
    return 1;
  }
  if (!check_) {
    const std::optional<obs::JsonValue> doc = obs::parse_json(result);
    std::printf("\nfingerprint: %s\n",
                fingerprint_line(*doc).value_or("?").c_str());
    return pass ? 0 : 1;
  }
  const std::optional<std::string> baseline = load_file(baseline_in_);
  if (!baseline.has_value()) {
    std::fprintf(stderr, "error: cannot read baseline %s\n",
                 baseline_in_.c_str());
    return 1;
  }
  const BaselineReport report = compare_baseline(*baseline, result, checks);
  std::printf("\nbaseline check vs %s:\n%s", baseline_in_.c_str(),
              report.render().c_str());
  return pass && report.ok() ? 0 : 1;
}

}  // namespace windim::bench
