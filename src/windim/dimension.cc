#include "windim/dimension.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/convergence.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/span.h"
#include "solver/registry.h"

namespace windim::core {
namespace {

/// Every full Evaluation of the run, shared between the objective, the
/// warm-start seeding, the probe hook and the final best-point read —
/// the search memoizes objective *values*, this store keeps the
/// *evaluations* so nothing is ever recomputed.
class EvaluationStore {
 public:
  struct Entry {
    Evaluation evaluation;
    /// Converged solver state, packed over the visited cells of the
    /// compiled view solved; empty unless the run warm-starts.
    mva::MvaWarmStart state;
    const Entry* anchor = nullptr;  // warm-start seed (null = cold)
  };

  void insert(const std::vector<int>& windows, Entry entry) {
    evaluations_.emplace(windows, std::move(entry));
  }

  [[nodiscard]] const Entry* find(const std::vector<int>& windows) const {
    const auto it = evaluations_.find(windows);
    return it == evaluations_.end() ? nullptr : &it->second;
  }

  /// Registers `windows` as a warm-start anchor.  Anchors are the
  /// accepted base points of the pattern search, in trajectory order.
  void add_anchor(const std::vector<int>& windows) {
    const Entry* entry = find(windows);
    if (entry == nullptr || entry->state.lambda.empty()) return;
    anchors_.push_back(entry);  // node pointers survive rehashing
  }

  /// The anchor nearest to `windows` (L1 distance, earliest-registered
  /// anchor on ties); null before any anchor.
  [[nodiscard]] const Entry* nearest_anchor(
      const std::vector<int>& windows) const {
    const Entry* best = nullptr;
    long best_distance = 0;
    for (const Entry* a : anchors_) {
      long distance = 0;
      for (std::size_t i = 0; i < windows.size(); ++i) {
        distance += std::labs(static_cast<long>(windows[i]) -
                              a->evaluation.windows[i]);
      }
      if (best == nullptr || distance < best_distance) {
        best = a;
        best_distance = distance;
      }
    }
    return best;
  }

 private:
  std::unordered_map<std::vector<int>, Entry, search::PointHash>
      evaluations_;
  std::vector<const Entry*> anchors_;
};

/// The ObjectiveSpec a run's options describe (windim/objectives.h owns
/// the value/comparator semantics).
ObjectiveSpec objective_spec(const DimensionOptions& options) {
  ObjectiveSpec spec;
  spec.kind = options.objective;
  spec.power_exponent = options.power_exponent;
  spec.max_delay = options.max_delay;
  spec.alpha = options.alpha;
  spec.min_fairness = options.min_fairness;
  spec.chain_delay_caps = options.chain_delay_caps;
  return spec;
}

}  // namespace

DimensionResult dimension_windows(const WindowProblem& problem,
                                  const DimensionOptions& options) {
  const int num_classes = problem.num_classes();
  if (options.min_window < 1) {
    throw std::invalid_argument(
        "dimension_windows: min_window must be >= 1 (a window of 0 closes "
        "the virtual channel)");
  }
  if (options.max_window < options.min_window) {
    throw std::invalid_argument("dimension_windows: empty window box");
  }

  // Default start: Kleinrock's hop counts for the power objectives; the
  // all-minimum corner (lowest-delay point, always feasible if anything
  // is) for the delay-capped objective.
  std::vector<int> initial =
      !options.initial_windows.empty() ? options.initial_windows
      : options.objective == DimensionObjective::kThroughputUnderDelayCap
          ? std::vector<int>(static_cast<std::size_t>(num_classes),
                             options.min_window)
          : problem.kleinrock_windows();
  if (static_cast<int>(initial.size()) != num_classes) {
    throw std::invalid_argument(
        "dimension_windows: initial window vector size mismatch");
  }
  for (int& e : initial) {
    e = std::clamp(e, options.min_window, options.max_window);
  }

  const ObjectiveSpec spec = objective_spec(options);
  validate(spec, num_classes);

  // The run-wide engine state: one evaluation store, one registry
  // solver and one workspace pool (caller's, if provided, so warm arenas
  // survive across runs).  The memo and budget live in the search.
  EvaluationStore store;
  const solver::Solver& solver =
      solver::SolverRegistry::instance().require(options.solver);
  solver::WorkspacePool local_workspaces;
  solver::WorkspacePool& workspaces = options.workspaces != nullptr
                                          ? *options.workspaces
                                          : local_workspaces;

  const bool warm =
      options.warm_start && solver.traits().supports_warm_start;
  // An observed run records every fresh solve.  The finished record
  // waits here for the probe hook, which the search calls right after
  // the objective returns.
  std::optional<obs::SolveRecord> pending_solve;
  const search::VectorObjective objective = [&](const search::Point& e) {
    EvaluationStore::Entry entry;
    const EvaluationStore::Entry* anchor =
        warm ? store.nearest_anchor(e) : nullptr;
    entry.anchor = anchor;
    auto ws = workspaces.acquire();
    // A caller-owned hint evaluate_with preserves across its reset.
    ws->hints.cancel = options.cancel;
    // One recorder per evaluation (recorders are single-solve).
    std::optional<obs::ConvergenceRecorder> recorder;
    if (options.observe) recorder.emplace();
    entry.evaluation = problem.evaluate_with(
        e, solver, *ws, &options.mva, anchor ? &anchor->state : nullptr,
        warm ? &entry.state : nullptr, recorder ? &*recorder : nullptr);
    search::VectorEval value = objective_vector(entry.evaluation, spec);
    if (recorder && recorder->has_record()) {
      pending_solve = recorder->take_record();
    }
    store.insert(e, std::move(entry));
    return value;
  };

  search::VectorSearchOptions ps;
  ps.better = objective_comparator(spec);
  ps.lower_bound.assign(static_cast<std::size_t>(num_classes),
                        options.min_window);
  ps.upper_bound.assign(static_cast<std::size_t>(num_classes),
                        options.max_window);
  ps.max_step_reductions = options.max_step_reductions;
  ps.max_evaluations = options.max_evaluations;
  if (!options.initial_step.empty()) {
    ps.initial_step = options.initial_step;
  }
  ps.cancel = options.cancel;
  if (warm) {
    ps.on_new_base = [&](const search::Point& p, const search::VectorEval&) {
      store.add_anchor(p);
    };
  }
  const std::string solver_name(solver.name());
  // Only an observed run records spans: the real search/explore scopes
  // here, and the replay track rendered from the probes at the end.  The
  // track is registered up front so track ids follow the order in which
  // the run's spans begin.
  obs::SpanTracer* const spans =
      options.observe ? &obs::SpanTracer::global() : nullptr;
  ps.spans = spans;
  const bool replay_on = spans != nullptr && spans->enabled();
  const std::uint64_t replay_track =
      replay_on ? spans->add_track("replay") : 0;
  std::vector<obs::ProbeRecord> probes;
  if (options.observe) {
    ps.on_probe = [&](std::size_t step, const search::Point& p,
                      const search::VectorEval& eval, bool revisit) {
      // Every resolved probe's point is in the store: a fresh one was
      // inserted by the objective call that just returned.
      const EvaluationStore::Entry& entry = *store.find(p);
      obs::ProbeRecord& rec = probes.emplace_back();
      rec.step = step;
      rec.windows = p;
      rec.objective = search::scalarize(eval);
      rec.objective_vector = eval.objectives;
      rec.violation = eval.violation;
      rec.power = entry.evaluation.power;
      rec.solver = solver_name;
      rec.cache_hit = revisit;
      // A revisit evaluates nothing: no anchor, no solve.
      if (!revisit) {
        if (entry.anchor != nullptr) {
          rec.anchor = entry.anchor->evaluation.windows;
        }
        rec.solve = std::exchange(pending_solve, std::nullopt);
      }
    };
  }

  search::VectorSearchResult ps_result;
  {
    obs::SpanTracer::Scope search_span(spans, "search");
    search_span.arg("solver", solver_name);
    ps_result =
        search::vector_pattern_search(objective, std::move(initial), ps);
    search_span.arg("evaluations",
                    static_cast<std::int64_t>(ps_result.evaluations));
    search_span.arg("base_points",
                    static_cast<std::int64_t>(ps_result.base_points.size()));
  }

  DimensionResult result;
  result.feasible = std::isfinite(search::scalarize(ps_result.best_eval)) &&
                    ps_result.best_eval.feasible();
  result.budget_exhausted = ps_result.budget_exhausted;
  result.cancelled = ps_result.cancelled;
  result.optimal_windows = ps_result.best;
  result.objective_vector = ps_result.best_eval.objectives;
  result.violation = ps_result.best_eval.violation;
  // The best point was already evaluated inside the objective; reuse it
  // rather than re-running the evaluator.  (The store can only miss when
  // the budget did not even cover the initial point.)
  if (const EvaluationStore::Entry* cached = store.find(ps_result.best)) {
    result.evaluation = cached->evaluation;
  } else {
    result.evaluation.windows = ps_result.best;
  }
  result.objective_evaluations = ps_result.evaluations;
  result.cache_hits = ps_result.cache_hits;
  result.base_points.reserve(ps_result.base_points.size());
  for (const auto& [p, f] : ps_result.base_points) {
    result.base_points.emplace_back(p, search::scalarize(f));
  }

  // Run-level accounting into the global registry (off by default; the
  // guard keeps the disabled path free of registration work).  Counter
  // pairs like evaluations/budget_consumed are intentionally redundant:
  // the crosscheck tests assert their equality to catch double-count
  // bugs in the engine.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.counter("search.runs").add();
    reg.counter(std::string("search.objective.") + to_string(spec.kind) +
                ".runs")
        .add();
    reg.gauge("windim.violation").record_max(result.violation);
    reg.counter("search.probes").add(ps_result.evaluations +
                                     ps_result.cache_hits +
                                     ps_result.exhausted_probes);
    reg.counter("search.cache_hits").add(ps_result.cache_hits);
    reg.counter("search.cache_misses").add(ps_result.evaluations);
    reg.counter("search.evaluations").add(ps_result.evaluations);
    reg.counter("search.budget_consumed").add(ps_result.evaluations);
    reg.counter("search.budget_exhausted_probes").add(
        ps_result.exhausted_probes);
    reg.counter("search.base_points").add(ps_result.base_points.size());
    reg.gauge("windim.throughput").record_max(result.evaluation.throughput);
    reg.gauge("windim.delay").record_max(result.evaluation.mean_delay);
    reg.gauge("windim.power").record_max(result.evaluation.power);
    reg.gauge("windim.fairness").record_max(result.evaluation.fairness);
    const std::size_t reported_chains =
        std::min<std::size_t>(result.evaluation.class_throughput.size(), 16);
    for (std::size_t r = 0; r < reported_chains; ++r) {
      const std::string prefix = "windim.chain." + std::to_string(r);
      reg.gauge(prefix + ".throughput")
          .record_max(result.evaluation.class_throughput[r]);
      if (r < result.evaluation.class_delay.size()) {
        reg.gauge(prefix + ".delay")
            .record_max(result.evaluation.class_delay[r]);
      }
    }
  }
  if (options.observe) {
    if (replay_on) obs::render_replay_spans(probes, *spans, replay_track);
    obs::export_convergence_metrics(probes);
    result.probes = std::move(probes);
  }
  return result;
}

}  // namespace windim::core
