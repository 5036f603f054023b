// windim_cli - dimension, evaluate and simulate window flow control for
// a network described in the text spec format (see src/cli/spec.h).
//
//   windim_cli dimension <spec-file> [--solver=NAME] [--max-window=N]
//                        [--objective=power|gpower=A|delaycap=T] [--csv]
//   windim_cli evaluate  <spec-file> E1 E2 ... [--solver=NAME]
//   windim_cli simulate  <spec-file> E1 E2 ... [--time=S] [--seed=N]
//                        [--buffers=K] [--permits=P] [--reverse-acks]
//                        [--reps=N]
//   windim_cli sweep     <spec-file> [--loads=0.5,1,1.5,2] [--solver=NAME]
//   windim_cli capacity  <spec-file> --budget=KBPS [--rule=sqrt|prop]
//   windim_cli serve     --socket=PATH | --stdio [--threads=N]
//   windim_cli solvers
//
// Solver names come from the solver registry (windim_cli solvers lists
// them); --evaluator is accepted as a compatibility alias of --solver.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "cli/spec.h"
#include "control/matrix.h"
#include "control/registry.h"
#include "control/scenario.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/span.h"
#include "serve/server.h"
#include "sim/msgnet_sim.h"
#include "sim/replicate.h"
#include "solver/registry.h"
#include "solver/workspace.h"
#include "util/table.h"
#include "verify/corpus.h"
#include "verify/fuzz.h"
#include "windim/windim.h"

namespace {

using namespace windim;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  windim_cli dimension <spec> [--solver=NAME] [--max-window=N]\n"
      "                       [--objective=power|gpower=A|delaycap=T|\n"
      "                        alpha-fair|power-fair-constrained] [--csv]\n"
      "                       [--alpha=0|1|2|inf] [--min-fairness=F]\n"
      "                       [--max-delay=T]\n"
      "                       [--pareto-out=FILE] [--pareto-points=N]\n"
      "                       [--max-evals=N] [--cold-start]\n"
      "                       [--metrics-out=FILE] [--trace-out=FILE]\n"
      "                       [--trace-spans-out=FILE] "
      "[--convergence-out=FILE]\n"
      "  windim_cli evaluate  <spec> E1 E2 ... [--solver=NAME]\n"
      "  windim_cli simulate  <spec> E1 E2 ... [--time=S] [--seed=N]\n"
      "                       [--buffers=K] [--permits=P] [--reverse-acks]\n"
      "                       [--reps=N]\n"
      "  windim_cli sweep     <spec> [--loads=0.5,1,1.5,2] [--solver=NAME]\n"
      "  windim_cli scenario  <spec> [--policies=A,B] [--scenarios=A,B]\n"
      "                       [--time=S] [--warmup=S] [--seed=N] "
      "[--jobs=N]\n"
      "                       [--max-window=N] [--solver=NAME]\n"
      "                       [--tracking-period=S] "
      "[--ramp=T:F,T:F,...]\n"
      "                       [--scorecard-out=FILE] [--metrics-out=FILE]\n"
      "                       [--trace-spans-out=FILE]\n"
      "  windim_cli capacity  <spec> --budget=KBPS [--rule=sqrt|prop]\n"
      "  windim_cli serve     --socket=PATH | --stdio [--threads=N]\n"
      "                       [--cache-size=N] [--max-request-bytes=N]\n"
      "                       [--default-deadline-ms=MS] [--no-window]\n"
      "                       [--metrics-out=FILE] [--metrics-listen=FILE]\n"
      "                       [--flight-out=FILE]\n"
      "  windim_cli solvers\n"
      "  windim_cli fuzz      [--seeds=N] [--family=NAME,...] [--jobs=N]\n"
      "                       [--solver=NAME,...] [--time-budget=SECONDS]\n"
      "                       [--base-seed=N] [--corpus-out=DIR]\n"
      "                       [--replay=DIR|FILE] [--sim] [--no-shrink]\n"
      "                       [--no-ctmc] [--quiet] [--metrics-out=FILE]\n"
      "                       [--trace-spans-out=FILE]\n"
      "solvers: see `windim_cli solvers` (--evaluator = alias of "
      "--solver)\n"
      "fuzz families: fcfs-closed disciplines queue-dependent semiclosed\n"
      "               mixed cyclic windim (default: all); large-cyclic\n"
      "               (1k+ chains) must be requested by name\n");
  return 2;
}

/// Resolves a --solver/--evaluator name against the registry; prints
/// the registry's available-solver error on unknown names.
const solver::Solver* resolve_solver(const std::string& name) {
  try {
    return &solver::SolverRegistry::instance().require(name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return nullptr;
  }
}

/// Bad usage found while parsing the command line: main() prints it and
/// exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The whole of `text` as a T, or a UsageError naming `what` (the flag
/// or argument) when any of it does not parse or the value does not fit.
template <typename T>
T parse_number(const std::string& text, const std::string& what) {
  T value{};
  const char* const last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error == std::errc::result_out_of_range) {
    throw UsageError(what + " value '" + text + "' is out of range");
  }
  if (error != std::errc() || end != last) {
    const char* expected = std::is_floating_point_v<T> ? "a number"
                           : std::is_unsigned_v<T> ? "a non-negative integer"
                                                   : "an integer";
    throw UsageError(what + " expects " + expected + ", got '" + text + "'");
  }
  return value;
}

/// parse_number for a count that must be at least 1.
int parse_count(const std::string& text, const std::string& what) {
  const int value = parse_number<int>(text, what);
  if (value < 1) throw UsageError(what + " must be >= 1");
  return value;
}

/// parse_number for a simulated duration: positive and finite, so the
/// run ends.
double parse_duration(const std::string& text, const std::string& what) {
  const double value = parse_number<double>(text, what);
  if (!(value > 0.0 && std::isfinite(value))) {
    throw UsageError(what + " must be a positive duration in seconds");
  }
  return value;
}

/// "--key=value" matcher; returns the value part.
std::optional<std::string> flag_value(const std::string& arg,
                                      const char* key) {
  const std::string prefix = std::string("--") + key + "=";
  if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  return std::nullopt;
}

/// Writes `body` to `path`; prints the error and returns false when the
/// file cannot be written.
bool write_text(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return false;
  }
  return true;
}

/// Writes the global metrics snapshot as one JSON object.
bool write_metrics_json(const std::string& path) {
  return write_text(
      path, obs::MetricsRegistry::global().snapshot().to_json() + '\n');
}

std::optional<cli::NetworkSpec> load_spec(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path);
    return std::nullopt;
  }
  try {
    return cli::parse_network_spec(in);
  } catch (const cli::SpecError& e) {
    std::fprintf(stderr, "error: %s: %s\n", path, e.what());
    return std::nullopt;
  }
}

void print_evaluation(const core::Evaluation& ev,
                      const std::vector<net::TrafficClass>& classes) {
  std::printf("windows:    %s\n", util::format_window(ev.windows).c_str());
  std::printf("throughput: %.3f msg/s\n", ev.throughput);
  std::printf("delay:      %.4f s\n", ev.mean_delay);
  std::printf("power:      %.2f\n", ev.power);
  std::printf("fairness:   %.4f\n", ev.fairness);
  for (std::size_t r = 0; r < classes.size(); ++r) {
    std::printf("  %-12s window %d  throughput %8.3f msg/s  delay %7.2f ms\n",
                classes[r].name.c_str(), ev.windows[r],
                ev.class_throughput[r], ev.class_delay[r] * 1000.0);
  }
}

int cmd_dimension(const cli::NetworkSpec& spec,
                  const std::vector<std::string>& args) {
  core::DimensionOptions options;
  bool csv = false;
  std::string metrics_out;
  std::string trace_out;
  std::string spans_out;
  std::string convergence_out;
  std::string pareto_out;
  int pareto_points = 9;
  for (const std::string& arg : args) {
    if (auto v = flag_value(arg, "solver")) {
      if (resolve_solver(*v) == nullptr) return 2;
      options.solver = *v;
    } else if (auto v = flag_value(arg, "evaluator")) {
      // Compatibility alias: evaluator names are registry names.
      if (resolve_solver(*v) == nullptr) return 2;
      options.solver = *v;
    } else if (auto v = flag_value(arg, "max-window")) {
      options.max_window = parse_count(*v, "--max-window");
    } else if (auto v = flag_value(arg, "objective")) {
      if (*v == "power") {
        options.objective = core::DimensionObjective::kPower;
      } else if (v->rfind("gpower=", 0) == 0) {
        options.objective = core::DimensionObjective::kGeneralizedPower;
        options.power_exponent =
            parse_number<double>(v->substr(7), "--objective=gpower");
      } else if (v->rfind("delaycap=", 0) == 0) {
        options.objective =
            core::DimensionObjective::kThroughputUnderDelayCap;
        options.max_delay =
            parse_number<double>(v->substr(9), "--objective=delaycap");
        if (!(options.max_delay > 0.0)) {
          std::fprintf(stderr,
                       "error: --objective=delaycap requires a positive "
                       "delay cap in seconds (got '%s')\n",
                       v->substr(9).c_str());
          return 2;
        }
      } else if (*v == "alpha-fair") {
        options.objective = core::DimensionObjective::kAlphaFair;
      } else if (*v == "power-fair-constrained") {
        options.objective =
            core::DimensionObjective::kPowerFairConstrained;
      } else {
        std::fprintf(stderr,
                     "error: unknown objective '%s' (power, gpower=A, "
                     "delaycap=T, alpha-fair, power-fair-constrained)\n",
                     v->c_str());
        return 2;
      }
    } else if (auto v = flag_value(arg, "alpha")) {
      if (*v == "inf") {
        options.alpha = std::numeric_limits<double>::infinity();
      } else {
        options.alpha = parse_number<double>(*v, "--alpha");
      }
      if (!(options.alpha == 0.0 || options.alpha == 1.0 ||
            options.alpha == 2.0 || std::isinf(options.alpha))) {
        std::fprintf(stderr, "error: --alpha must be 0, 1, 2 or inf\n");
        return 2;
      }
    } else if (auto v = flag_value(arg, "min-fairness")) {
      options.min_fairness = parse_number<double>(*v, "--min-fairness");
      if (std::isnan(options.min_fairness) || options.min_fairness < 0.0 ||
          options.min_fairness > 1.0) {
        std::fprintf(stderr, "error: --min-fairness must be in [0, 1]\n");
        return 2;
      }
    } else if (auto v = flag_value(arg, "max-delay")) {
      options.max_delay = parse_number<double>(*v, "--max-delay");
      if (!(options.max_delay > 0.0)) {
        std::fprintf(stderr,
                     "error: --max-delay must be a positive delay cap in "
                     "seconds (got '%s')\n",
                     v->c_str());
        return 2;
      }
    } else if (auto v = flag_value(arg, "pareto-out")) {
      pareto_out = *v;
    } else if (auto v = flag_value(arg, "pareto-points")) {
      pareto_points = parse_number<int>(*v, "--pareto-points");
      if (pareto_points < 2) {
        std::fprintf(stderr, "error: --pareto-points must be >= 2\n");
        return 2;
      }
    } else if (auto v = flag_value(arg, "max-evals")) {
      options.max_evaluations = parse_number<std::size_t>(*v, "--max-evals");
    } else if (arg == "--cold-start") {
      options.warm_start = false;
    } else if (arg == "--csv") {
      csv = true;
    } else if (auto v = flag_value(arg, "metrics-out")) {
      metrics_out = *v;
    } else if (auto v = flag_value(arg, "trace-out")) {
      trace_out = *v;
    } else if (auto v = flag_value(arg, "trace-spans-out")) {
      spans_out = *v;
    } else if (auto v = flag_value(arg, "convergence-out")) {
      convergence_out = *v;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }

  // The observation outputs render one run's probe record; a Pareto
  // scan is many runs, so they are refused before anything is solved.
  if (!pareto_out.empty()) {
    bool rejected = false;
    for (const auto& [flag, path] :
         {std::pair{"--trace-out", &trace_out},
          std::pair{"--convergence-out", &convergence_out},
          std::pair{"--trace-spans-out", &spans_out}}) {
      if (path->empty()) continue;
      std::fprintf(stderr, "error: %s cannot be combined with --pareto-out\n",
                   flag);
      rejected = true;
    }
    if (rejected) return 2;
  }

  if (!metrics_out.empty()) obs::MetricsRegistry::global().set_enabled(true);
  obs::SpanTracer& spans = obs::SpanTracer::global();
  if (!spans_out.empty()) spans.set_enabled(true);
  options.observe =
      !trace_out.empty() || !convergence_out.empty() || !spans_out.empty();

  if (!pareto_out.empty()) {
    // Pareto mode: sweep the power/fairness trade-off instead of a
    // single solve; the single-solve flags (solver, bounds, sweep
    // pool, budget) configure every solve of the scan.
    core::ParetoOptions popts;
    popts.base = options;
    popts.num_points = pareto_points;
    // An explicit --min-fairness becomes the lowest floor of the scan
    // (the default anchors it at the unconstrained optimum's fairness).
    if (options.min_fairness > 0.0) {
      popts.min_fairness_floor = options.min_fairness;
    }
    const core::WindowProblem problem(spec.topology, spec.classes);
    const core::ParetoFront front = core::pareto_front(problem, popts);
    if (!write_text(pareto_out, core::to_json(front) + '\n')) return 1;
    if (!metrics_out.empty() && !write_metrics_json(metrics_out)) return 1;
    if (front.cancelled) {
      std::fprintf(stderr, "warning: pareto scan cancelled mid-sweep\n");
    }
    if (front.budget_exhausted) {
      std::fprintf(stderr,
                   "warning: evaluation budget exhausted during the scan\n");
    }
    util::TextTable table(
        {"floor", "fairness", "power", "throughput", "delay_ms", "windows"});
    for (const core::ParetoPoint& p : front.points) {
      table.begin_row()
          .add(p.fairness_floor, 4)
          .add(p.fairness, 4)
          .add(p.power, 2)
          .add(p.throughput, 3)
          .add(p.mean_delay * 1000.0, 2)
          .add(util::format_window(p.windows));
    }
    std::printf("%s", table.render().c_str());
    std::printf(
        "pareto:     %zu points (%zu solves, %zu infeasible, %zu "
        "dominated)\n",
        front.points.size(), front.runs, front.infeasible_runs,
        front.dominated_dropped);
    return 0;
  }

  core::DimensionResult result;
  {
    // Root span covering the whole command; compile covers the
    // compile-once model construction the search amortizes.
    obs::SpanTracer::Scope dim_span(&spans, "dimension");
    std::optional<core::WindowProblem> problem;
    {
      obs::SpanTracer::Scope compile_span(&spans, "compile");
      compile_span.arg("classes",
                       static_cast<std::int64_t>(spec.classes.size()));
      problem.emplace(spec.topology, spec.classes);
    }
    result = core::dimension_windows(*problem, options);
  }
  if (!spans_out.empty()) {
    spans.set_enabled(false);
    if (!spans.write_json(spans_out)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", spans_out.c_str());
      return 1;
    }
  }
  if (!convergence_out.empty() &&
      !write_text(convergence_out, obs::convergence_jsonl(result.probes))) {
    return 1;
  }
  if (!trace_out.empty() &&
      !write_text(trace_out, obs::search_trace_jsonl(result.probes))) {
    return 1;
  }
  if (!metrics_out.empty() && !write_metrics_json(metrics_out)) return 1;
  if (result.budget_exhausted) {
    std::fprintf(stderr,
                 "warning: evaluation budget exhausted after %zu "
                 "evaluations; reporting best point found so far\n",
                 result.objective_evaluations);
  }
  if (result.evaluation.class_throughput.empty()) {
    // The budget did not even cover the initial point: there is no
    // evaluation to report.
    std::fprintf(stderr,
                 "error: evaluation budget too small to evaluate the "
                 "initial point\n");
    return 1;
  }

  if (csv) {
    util::TextTable table({"class", "window", "throughput", "delay_ms"});
    for (std::size_t r = 0; r < spec.classes.size(); ++r) {
      table.begin_row()
          .add(spec.classes[r].name)
          .add(result.optimal_windows[r])
          .add(result.evaluation.class_throughput[r], 3)
          .add(result.evaluation.class_delay[r] * 1000.0, 2);
    }
    std::printf("%s", table.render_csv().c_str());
    return 0;
  }
  std::printf("evaluator:  %s\n", options.solver.c_str());
  print_evaluation(result.evaluation, spec.classes);
  std::printf("search:     %zu evaluations (+%zu cached)\n",
              result.objective_evaluations, result.cache_hits);
  return 0;
}

std::optional<std::vector<int>> parse_windows(
    const std::vector<std::string>& args, std::size_t count,
    std::vector<std::string>& remaining) {
  std::vector<int> windows;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      remaining.push_back(arg);
      continue;
    }
    windows.push_back(parse_number<int>(
        arg, "window " + std::to_string(windows.size() + 1)));
  }
  if (windows.size() != count) {
    std::fprintf(stderr, "error: expected %zu windows, got %zu\n", count,
                 windows.size());
    return std::nullopt;
  }
  return windows;
}

int cmd_evaluate(const cli::NetworkSpec& spec,
                 const std::vector<std::string>& args) {
  std::vector<std::string> flags;
  const auto windows = parse_windows(args, spec.classes.size(), flags);
  if (!windows) return 2;
  std::string solver_name = "heuristic-mva";
  for (const std::string& arg : flags) {
    if (auto v = flag_value(arg, "solver")) {
      solver_name = *v;
    } else if (auto v = flag_value(arg, "evaluator")) {
      solver_name = *v;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  const solver::Solver* solver = resolve_solver(solver_name);
  if (solver == nullptr) return 2;
  const core::WindowProblem problem(spec.topology, spec.classes);
  solver::Workspace ws;
  std::printf("evaluator:  %s\n", std::string(solver->name()).c_str());
  print_evaluation(problem.evaluate_with(*windows, *solver, ws),
                   spec.classes);
  return 0;
}

int cmd_simulate(const cli::NetworkSpec& spec,
                 const std::vector<std::string>& args) {
  std::vector<std::string> flags;
  const auto windows = parse_windows(args, spec.classes.size(), flags);
  if (!windows) return 2;
  sim::MsgNetOptions options;
  options.windows = *windows;
  options.sim_time = 600.0;
  options.warmup = 60.0;
  int replications = 1;
  for (const std::string& arg : flags) {
    if (auto v = flag_value(arg, "time")) {
      options.sim_time = parse_duration(*v, "--time");
      options.warmup = options.sim_time / 10.0;
    } else if (auto v = flag_value(arg, "seed")) {
      options.seed = parse_number<std::uint64_t>(*v, "--seed");
    } else if (auto v = flag_value(arg, "buffers")) {
      options.node_buffer_limit.assign(
          static_cast<std::size_t>(spec.topology.num_nodes()),
          parse_number<int>(*v, "--buffers"));
    } else if (auto v = flag_value(arg, "permits")) {
      options.isarithmic_permits = parse_number<int>(*v, "--permits");
    } else if (arg == "--reverse-acks") {
      options.ack_mode = sim::AckMode::kReversePath;
    } else if (auto v = flag_value(arg, "reps")) {
      replications = parse_count(*v, "--reps");
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (replications > 1) {
    const sim::ReplicatedResult rep = sim::run_replications(
        spec.topology, spec.classes, options, replications);
    std::printf("%d replications of %.0f s each:\n", replications,
                options.sim_time);
    std::printf("delivered:  %.3f +- %.3f msg/s\n", rep.delivered_rate.mean,
                rep.delivered_rate.half_width);
    std::printf("net delay:  %.4f +- %.4f s\n",
                rep.mean_network_delay.mean,
                rep.mean_network_delay.half_width);
    std::printf("power:      %.2f +- %.2f\n", rep.power.mean,
                rep.power.half_width);
    return 0;
  }
  const sim::MsgNetResult r =
      sim::simulate_msgnet(spec.topology, spec.classes, options);
  std::printf("simulated %.0f s (warmup %.0f s), seed %llu\n",
              options.sim_time, options.warmup,
              static_cast<unsigned long long>(options.seed));
  std::printf("delivered:  %.3f msg/s\n", r.delivered_rate);
  std::printf("net delay:  %.4f s\n", r.mean_network_delay);
  std::printf("power:      %.2f\n", r.power);
  std::printf("in network: %.2f msgs (time average)\n", r.mean_in_network);
  for (std::size_t k = 0; k < spec.classes.size(); ++k) {
    const sim::MsgNetClassStats& s = r.per_class[k];
    std::printf("  %-12s offered %7.2f  delivered %7.2f  dropped %6.2f  "
                "delay %7.2f ms\n",
                spec.classes[k].name.c_str(), s.offered_rate,
                s.delivered_rate, s.dropped_rate,
                s.mean_network_delay * 1000.0);
  }
  return 0;
}

/// Splits a comma-separated value list ("a,b,c") into tokens.
std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    const std::string token = value.substr(pos, comma - pos);
    if (!token.empty()) tokens.push_back(token);
    pos = comma + 1;
  }
  return tokens;
}

int cmd_scenario(const cli::NetworkSpec& spec,
                 const std::vector<std::string>& args) {
  control::MatrixOptions options;
  std::string scorecard_out;
  std::string metrics_out;
  std::string spans_out;
  for (const std::string& arg : args) {
    if (auto v = flag_value(arg, "policies")) {
      options.policies = split_csv(*v);
      for (const std::string& name : options.policies) {
        if (!control::is_policy(name)) {
          std::fprintf(stderr, "error: %s\n",
                       control::unknown_policy_message(name).c_str());
          return 2;
        }
      }
    } else if (auto v = flag_value(arg, "scenarios")) {
      options.scenarios = split_csv(*v);
      for (const std::string& name : options.scenarios) {
        if (!control::is_scenario(name)) {
          std::fprintf(stderr, "error: %s\n",
                       control::unknown_scenario_message(name).c_str());
          return 2;
        }
      }
    } else if (auto v = flag_value(arg, "time")) {
      options.sim_time = parse_duration(*v, "--time");
      options.warmup = options.sim_time / 10.0;
    } else if (auto v = flag_value(arg, "warmup")) {
      options.warmup = parse_number<double>(*v, "--warmup");
      if (options.warmup < 0.0) {
        std::fprintf(
            stderr,
            "error: --warmup must be a non-negative duration in seconds\n");
        return 2;
      }
    } else if (auto v = flag_value(arg, "seed")) {
      options.seed = parse_number<std::uint64_t>(*v, "--seed");
    } else if (auto v = flag_value(arg, "jobs")) {
      options.jobs = parse_number<int>(*v, "--jobs");
    } else if (auto v = flag_value(arg, "max-window")) {
      options.max_window = parse_count(*v, "--max-window");
    } else if (auto v = flag_value(arg, "solver")) {
      if (resolve_solver(*v) == nullptr) return 2;
      options.solver = *v;
    } else if (auto v = flag_value(arg, "tracking-period")) {
      options.tracking_period =
          parse_number<double>(*v, "--tracking-period");
      if (!(options.tracking_period > 0.0)) {
        std::fprintf(stderr,
                     "error: --tracking-period must be a positive duration "
                     "in seconds\n");
        return 2;
      }
    } else if (auto v = flag_value(arg, "ramp")) {
      // T:FACTOR[,T:FACTOR...] — a custom piecewise-linear load
      // profile replacing the built-in ramp scenario.
      for (const std::string& token : split_csv(*v)) {
        const std::size_t colon = token.find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= token.size()) {
          std::fprintf(stderr,
                       "error: --ramp expects T:FACTOR[,T:FACTOR...]\n");
          return 2;
        }
        sim::RateBreakpoint bp;
        bp.time = parse_number<double>(token.substr(0, colon), "--ramp");
        bp.factor = parse_number<double>(token.substr(colon + 1), "--ramp");
        options.custom_ramp.points.push_back(bp);
      }
      // Rejects out-of-order breakpoints and negative factors up
      // front, before any cell runs.
      try {
        options.custom_ramp.validate();
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    } else if (auto v = flag_value(arg, "scorecard-out")) {
      scorecard_out = *v;
    } else if (auto v = flag_value(arg, "metrics-out")) {
      metrics_out = *v;
    } else if (auto v = flag_value(arg, "trace-spans-out")) {
      spans_out = *v;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (!metrics_out.empty()) obs::MetricsRegistry::global().set_enabled(true);
  if (!spans_out.empty()) obs::SpanTracer::global().set_enabled(true);

  const control::MatrixResult result =
      control::run_matrix(spec.topology, spec.classes, options);

  std::printf("static WINDIM optimum: %s  power %.2f  delay %.4f s\n",
              util::format_window(result.static_windows).c_str(),
              result.static_power, result.static_delay);
  std::printf("matrix: %zu scenarios x %zu policies, %.0f s each, seed "
              "%llu\n",
              result.scenarios.size(), result.policies.size(),
              result.sim_time,
              static_cast<unsigned long long>(result.seed));
  util::TextTable table({"scenario", "policy", "power", "delay(ms)",
                         "p99(ms)", "loss", "fairness"});
  for (const control::MatrixCell& cell : result.cells) {
    table.begin_row()
        .add(cell.scenario)
        .add(cell.policy)
        .add(cell.power, 2)
        .add(cell.mean_delay * 1000.0, 2)
        .add(cell.p99_delay * 1000.0, 2)
        .add(cell.loss, 4)
        .add(cell.fairness, 4);
  }
  std::printf("%s", table.render().c_str());

  if (!scorecard_out.empty()) {
    std::ofstream out(scorecard_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   scorecard_out.c_str());
      return 1;
    }
    out << control::render_scorecard(result);
    if (!out) return 1;
    std::printf("scorecard:  %s\n", scorecard_out.c_str());
  }
  if (!metrics_out.empty() && !write_metrics_json(metrics_out)) return 1;
  if (!spans_out.empty() &&
      !obs::SpanTracer::global().write_json(spans_out)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", spans_out.c_str());
    return 1;
  }
  return 0;
}

int cmd_sweep(const cli::NetworkSpec& spec,
              const std::vector<std::string>& args) {
  std::vector<double> factors{0.5, 1.0, 1.5, 2.0};
  core::DimensionOptions options;
  for (const std::string& arg : args) {
    if (auto v = flag_value(arg, "loads")) {
      factors.clear();
      std::size_t pos = 0;
      while (pos < v->size()) {
        std::size_t comma = v->find(',', pos);
        if (comma == std::string::npos) comma = v->size();
        factors.push_back(
            parse_number<double>(v->substr(pos, comma - pos), "--loads"));
        pos = comma + 1;
      }
    } else if (auto v = flag_value(arg, "solver")) {
      if (resolve_solver(*v) == nullptr) return 2;
      options.solver = *v;
    } else if (auto v = flag_value(arg, "evaluator")) {
      if (resolve_solver(*v) == nullptr) return 2;
      options.solver = *v;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  util::TextTable table(
      {"load factor", "E_opt", "throughput", "delay(ms)", "power"});
  for (double f : factors) {
    auto classes = spec.classes;
    for (auto& tc : classes) tc.arrival_rate *= f;
    const core::WindowProblem problem(spec.topology, classes);
    const core::DimensionResult r = core::dimension_windows(problem, options);
    table.begin_row()
        .add(f, 2)
        .add_window(r.optimal_windows)
        .add(r.evaluation.throughput, 2)
        .add(r.evaluation.mean_delay * 1000.0, 1)
        .add(r.evaluation.power, 1);
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_capacity(const cli::NetworkSpec& spec,
                 const std::vector<std::string>& args) {
  double budget = -1.0;
  bool sqrt_rule = true;
  for (const std::string& arg : args) {
    if (auto v = flag_value(arg, "budget")) {
      budget = parse_number<double>(*v, "--budget");
    } else if (auto v = flag_value(arg, "rule")) {
      if (*v == "sqrt") {
        sqrt_rule = true;
      } else if (*v == "prop") {
        sqrt_rule = false;
      } else {
        std::fprintf(stderr, "error: unknown rule '%s'\n", v->c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (budget <= 0.0) {
    std::fprintf(stderr, "error: --budget=KBPS is required\n");
    return 2;
  }
  const core::CapacityAssignment a =
      sqrt_rule
          ? core::assign_capacities_sqrt(spec.topology, spec.classes, budget)
          : core::assign_capacities_proportional(spec.topology, spec.classes,
                                                 budget);
  util::TextTable table({"channel", "load (kbit/s)", "capacity (kbit/s)"});
  for (int c = 0; c < spec.topology.num_channels(); ++c) {
    table.begin_row()
        .add(spec.topology.channel(c).name)
        .add(a.load_kbps[static_cast<std::size_t>(c)], 2)
        .add(a.capacity_kbps[static_cast<std::size_t>(c)], 2);
  }
  std::printf("%s", table.render().c_str());
  std::printf("predicted open-network delay: %.2f ms\n",
              a.mean_delay * 1000.0);
  return 0;
}

int cmd_fuzz(const std::vector<std::string>& args) {
  verify::FuzzOptions options;
  options.seeds = 100;
  std::string replay_path;
  std::string metrics_out;
  std::string spans_out;
  bool quiet = false;
  for (const std::string& arg : args) {
    if (auto v = flag_value(arg, "seeds")) {
      options.seeds = parse_number<int>(*v, "--seeds");
    } else if (auto v = flag_value(arg, "family")) {
      // Comma-separated family tokens; "all" = every family.
      std::size_t pos = 0;
      while (pos <= v->size()) {
        std::size_t comma = v->find(',', pos);
        if (comma == std::string::npos) comma = v->size();
        const std::string token = v->substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty()) continue;
        if (token == "all") {
          options.families.clear();
          continue;
        }
        const auto family = verify::family_from_string(token);
        if (!family) {
          std::fprintf(stderr, "error: unknown family '%s'\n", token.c_str());
          return 2;
        }
        options.families.push_back(*family);
      }
    } else if (auto v = flag_value(arg, "solver")) {
      // Comma-separated registry names restricting the solver-pair and
      // envelope oracles; "all" = no restriction.
      std::size_t pos = 0;
      while (pos <= v->size()) {
        std::size_t comma = v->find(',', pos);
        if (comma == std::string::npos) comma = v->size();
        const std::string token = v->substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty()) continue;
        if (token == "all") {
          options.oracle.solvers.clear();
          continue;
        }
        if (resolve_solver(token) == nullptr) return 2;
        options.oracle.solvers.push_back(token);
      }
    } else if (auto v = flag_value(arg, "time-budget")) {
      options.time_budget_seconds =
          parse_number<double>(*v, "--time-budget");
    } else if (auto v = flag_value(arg, "jobs")) {
      options.jobs = parse_number<int>(*v, "--jobs");
    } else if (auto v = flag_value(arg, "base-seed")) {
      options.base_seed = parse_number<std::uint64_t>(*v, "--base-seed");
    } else if (auto v = flag_value(arg, "corpus-out")) {
      options.corpus_dir = *v;
    } else if (auto v = flag_value(arg, "replay")) {
      replay_path = *v;
    } else if (arg == "--sim") {
      options.oracle.with_simulation = true;
    } else if (arg == "--no-shrink") {
      options.shrink_failures = false;
    } else if (arg == "--no-ctmc") {
      options.oracle.with_ctmc = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (auto v = flag_value(arg, "metrics-out")) {
      metrics_out = *v;
    } else if (auto v = flag_value(arg, "trace-spans-out")) {
      spans_out = *v;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (!metrics_out.empty()) obs::MetricsRegistry::global().set_enabled(true);
  if (!spans_out.empty()) obs::SpanTracer::global().set_enabled(true);
  verify::FuzzReport report;
  if (!replay_path.empty()) {
    const std::vector<std::string> files =
        verify::list_corpus_files(replay_path);
    if (files.empty()) {
      std::fprintf(stderr, "error: no corpus files under '%s'\n",
                   replay_path.c_str());
      return 2;
    }
    report = verify::replay_corpus(files, options);
  } else {
    report = verify::run_fuzz(options);
  }
  if (!spans_out.empty()) {
    obs::SpanTracer::global().set_enabled(false);
    if (!obs::SpanTracer::global().write_json(spans_out)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", spans_out.c_str());
      return 1;
    }
  }
  if (!metrics_out.empty() && !write_metrics_json(metrics_out)) return 1;
  if (!quiet) {
    std::printf("%s", verify::to_json(report).c_str());
  }
  if (report.unexpected_passes > 0) {
    std::fprintf(stderr,
                 "note: %d corpus entr%s no longer fail%s the annotated "
                 "oracle; consider removing them\n",
                 report.unexpected_passes,
                 report.unexpected_passes == 1 ? "y" : "ies",
                 report.unexpected_passes == 1 ? "s" : "");
  }
  return report.ok() ? 0 : 1;
}

int cmd_serve(const std::vector<std::string>& args) {
  serve::ServeOptions options;
  std::string socket_path;
  std::string metrics_out;
  bool stdio = false;
  for (const std::string& arg : args) {
    if (auto v = flag_value(arg, "socket")) {
      socket_path = *v;
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (auto v = flag_value(arg, "metrics-out")) {
      // Flag parity with dimension/fuzz/scenario: one cumulative
      // registry snapshot on graceful shutdown.
      metrics_out = *v;
    } else if (auto v = flag_value(arg, "metrics-listen")) {
      // SIGUSR1 scrape target: the live OpenMetrics exposition lands
      // here without touching the daemon's stdio.
      options.expo_path = *v;
    } else if (auto v = flag_value(arg, "flight-out")) {
      options.flight_path = *v;
    } else if (arg == "--no-window") {
      options.enable_window = false;
    } else if (auto v = flag_value(arg, "threads")) {
      options.threads = parse_number<int>(*v, "--threads");
    } else if (auto v = flag_value(arg, "cache-size")) {
      options.cache_capacity =
          static_cast<std::size_t>(parse_count(*v, "--cache-size"));
    } else if (auto v = flag_value(arg, "max-request-bytes")) {
      const auto n = parse_number<long long>(*v, "--max-request-bytes");
      if (n <= 0) {
        std::fprintf(stderr, "error: --max-request-bytes must be >= 1\n");
        return 2;
      }
      options.max_request_bytes = static_cast<std::size_t>(n);
    } else if (auto v = flag_value(arg, "default-deadline-ms")) {
      options.default_deadline_ms =
          parse_number<double>(*v, "--default-deadline-ms");
      if (options.default_deadline_ms < 0.0) {
        std::fprintf(stderr, "error: --default-deadline-ms must be >= 0\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (stdio == !socket_path.empty()) {
    std::fprintf(stderr,
                 "error: serve needs exactly one of --socket=PATH or "
                 "--stdio\n");
    return 2;
  }
  serve::Server server(options);
  int rc = 0;
  if (stdio) {
    rc = server.serve_connection(0, 1);
  } else {
    try {
      server.serve_unix(socket_path, [&socket_path]() {
        // Readiness line the smoke harness synchronizes on.
        std::printf("listening %s\n", socket_path.c_str());
        std::fflush(stdout);
      });
    } catch (const std::system_error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  if (!metrics_out.empty() && !write_metrics_json(metrics_out)) return 1;
  return rc;
}

int cmd_solvers() {
  util::TextTable table({"name", "kind", "chains", "queue lengths", "notes"});
  for (const solver::Solver* s : solver::SolverRegistry::instance().solvers()) {
    const solver::Traits t = s->traits();
    std::string notes;
    if (t.semiclosed_view) notes += "semiclosed view; ";
    if (t.supports_queue_dependent) notes += "queue-dependent; ";
    if (t.supports_warm_start) notes += "warm start; ";
    if (!notes.empty()) notes.resize(notes.size() - 2);
    table.begin_row()
        .add(std::string(s->name()))
        .add(t.exact ? "exact" : t.iterative ? "iterative" : "bound")
        .add(t.requires_single_chain ? "single" : "multi")
        .add(t.has_queue_lengths ? "yes" : "no")
        .add(notes);
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "fuzz") {
      // fuzz takes no spec file: every instance is generated or
      // replayed from the corpus.
      return cmd_fuzz(std::vector<std::string>(argv + 2, argv + argc));
    }
    if (command == "serve") {
      // serve takes no spec file: models arrive inside requests.
      return cmd_serve(std::vector<std::string>(argv + 2, argv + argc));
    }
    if (command == "solvers") return cmd_solvers();
    if (argc < 3) return usage();
    const auto spec = load_spec(argv[2]);
    if (!spec) return 1;
    std::vector<std::string> args(argv + 3, argv + argc);
    if (command == "dimension") return cmd_dimension(*spec, args);
    if (command == "evaluate") return cmd_evaluate(*spec, args);
    if (command == "simulate") return cmd_simulate(*spec, args);
    if (command == "sweep") return cmd_sweep(*spec, args);
    if (command == "scenario") return cmd_scenario(*spec, args);
    if (command == "capacity") return cmd_capacity(*spec, args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
