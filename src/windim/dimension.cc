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
#include "obs/span.h"
#include "obs/trace.h"
#include "solver/registry.h"

namespace windim::core {
namespace {

/// Packs converged warm-start states down to the cells a heuristic-MVA
/// solve can make nonzero.  Off a chain's route its demand is 0, so its
/// queue N and sigma stay exactly 0 through every solve (DESIGN.md §5,
/// §10).  A packed state is lambda (one per chain) followed by N and,
/// when the state has one, sigma at the visited cells of the
/// station->chain CSR map, in CSR order; an empty sigma stays empty.
/// unpack() writes only the visited cells of a dense seed whose other
/// cells stay 0, so the solver reads exactly the state pack() was
/// given.
class StatePacker {
 public:
  explicit StatePacker(const qn::CompiledModel& model)
      : num_chains_(static_cast<std::size_t>(model.num_chains())),
        num_cells_(model.cell_count()) {
    for (int n = 0; n < model.num_stations(); ++n) {
      for (const int r : model.chains_visiting(n)) {
        visited_.push_back(static_cast<std::size_t>(n) * num_chains_ +
                           static_cast<std::size_t>(r));
      }
    }
  }

  void pack(const mva::MvaWarmStart& dense, std::vector<double>& out) const {
    out.clear();
    if (dense.lambda.empty()) return;
    out.reserve(num_chains_ +
                (dense.sigma.empty() ? 1 : 2) * visited_.size());
    out.insert(out.end(), dense.lambda.begin(), dense.lambda.end());
    for (const std::size_t i : visited_) out.push_back(dense.number[i]);
    if (dense.sigma.empty()) return;
    for (const std::size_t i : visited_) out.push_back(dense.sigma[i]);
  }

  void unpack(const std::vector<double>& packed,
              mva::MvaWarmStart& dense) const {
    const std::size_t v = visited_.size();
    const double* values = packed.data();
    dense.lambda.assign(values, values + num_chains_);
    values += num_chains_;
    dense.number.resize(num_cells_, 0.0);
    for (std::size_t k = 0; k < v; ++k) dense.number[visited_[k]] = values[k];
    if (packed.size() == num_chains_ + v) {
      dense.sigma.clear();
      return;
    }
    values += v;
    dense.sigma.resize(num_cells_, 0.0);
    for (std::size_t k = 0; k < v; ++k) dense.sigma[visited_[k]] = values[k];
  }

 private:
  std::size_t num_chains_;
  std::size_t num_cells_;
  std::vector<std::size_t> visited_;  // dense [n * R + r] index, CSR order
};

/// Every full Evaluation of the run, shared between the objective, the
/// warm-start seeding, the probe hooks and the final best-point read —
/// the search memoizes objective *values*, this store keeps the
/// *evaluations* so nothing is ever recomputed.
class EvaluationStore {
 public:
  struct Entry {
    Evaluation evaluation;
    /// Converged solver state (StatePacker format); empty unless the
    /// run warm-starts.
    std::vector<double> state;
    const Entry* anchor = nullptr;  // warm-start seed (null = cold)
    /// Per-solve convergence telemetry (only when the run observes it).
    std::optional<obs::SolveRecord> solve_record;
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
    if (entry == nullptr || entry->state.empty()) return;
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

std::string windows_string(const std::vector<int>& windows) {
  std::string out;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(windows[i]);
  }
  return out;
}

/// Synthesizes the probe -> solve -> iterate subtree for one search
/// probe onto the tracer's virtual "replay" track.  The spans are
/// rebuilt from the solve's ConvergenceRecorder samples with a running
/// cursor timestamp, so their count, order and nesting are functions of
/// the probe stream alone.  Returns the advanced cursor.
double synthesize_probe_spans(obs::SpanTracer& tracer, std::uint64_t track,
                              double cursor_us, std::size_t step,
                              const std::vector<int>& windows, double value,
                              bool revisit, const obs::SolveRecord* rec) {
  double inner_us = 0.0;
  if (rec != nullptr) {
    double sweeps_us = 0.0;
    for (const obs::IterationSample& s : rec->samples) {
      sweeps_us += s.wall_us;
    }
    inner_us = std::max(sweeps_us, rec->wall_us);
  }

  obs::SpanEvent probe;
  probe.name = "probe";
  probe.ts_us = cursor_us;
  probe.dur_us = inner_us;
  probe.track = track;
  probe.depth = 0;
  probe.args.push_back({"step", static_cast<std::int64_t>(step)});
  probe.args.push_back({"windows", windows_string(windows)});
  probe.args.push_back({"objective", value});
  probe.args.push_back({"cache_hit", revisit});
  tracer.emit(std::move(probe));
  if (rec == nullptr) return cursor_us + inner_us + 1.0;

  obs::SpanEvent solve;
  solve.name = "solve";
  solve.ts_us = cursor_us;
  solve.dur_us = inner_us;
  solve.track = track;
  solve.depth = 1;
  solve.args.push_back({"solver", rec->solver});
  solve.args.push_back({"iterations", std::int64_t{rec->iterations}});
  solve.args.push_back({"converged", rec->converged});
  solve.args.push_back(
      {"class", std::string(obs::to_string(rec->classification))});
  solve.args.push_back({"warm", rec->warm_started});
  tracer.emit(std::move(solve));

  double t = cursor_us;
  for (const obs::IterationSample& s : rec->samples) {
    obs::SpanEvent sweep;
    sweep.name = "iterate";
    sweep.ts_us = t;
    sweep.dur_us = s.wall_us;
    sweep.track = track;
    sweep.depth = 2;
    sweep.args.push_back({"i", static_cast<std::int64_t>(s.iteration)});
    sweep.args.push_back({"residual", s.max_residual});
    tracer.emit(std::move(sweep));
    t += s.wall_us;
  }
  return cursor_us + inner_us + 1.0;
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
  const solver::Solver& solver = solver::SolverRegistry::instance().require(
      options.solver.empty() ? to_string(options.evaluator)
                             : options.solver);
  solver::WorkspacePool local_workspaces;
  solver::WorkspacePool& workspaces = options.workspaces != nullptr
                                          ? *options.workspaces
                                          : local_workspaces;

  const bool warm =
      options.warm_start && solver.traits().supports_warm_start;
  // Warm runs keep packed states per entry and two run-owned dense
  // buffers: the seed unpacked from the anchor before each solve, and
  // the solve's final state before it is packed.
  std::optional<StatePacker> packer;
  if (warm) {
    packer.emplace(solver.traits().semiclosed_view
                       ? problem.compiled_semiclosed()
                       : problem.compiled());
  }
  mva::MvaWarmStart seed;
  mva::MvaWarmStart final_state;
  // Convergence observation also powers the synthesized solve/iterate
  // spans, so either sink turns the per-evaluation recorder on.
  const bool observe_solves =
      options.convergence != nullptr ||
      (options.spans != nullptr && options.spans->enabled());
  const search::VectorObjective objective = [&](const search::Point& e) {
    EvaluationStore::Entry entry;
    const EvaluationStore::Entry* anchor =
        warm ? store.nearest_anchor(e) : nullptr;
    entry.anchor = anchor;
    auto ws = workspaces.acquire();
    // Caller-owned hints evaluate_with preserves across its reset.
    ws->hints.pool = options.solver_pool;
    ws->hints.cancel = options.cancel;
    // One recorder per evaluation (recorders are single-solve); the
    // finished record parks in the store until the probe hook logs it.
    std::optional<obs::ConvergenceRecorder> recorder;
    if (observe_solves) recorder.emplace();
    if (anchor != nullptr) packer->unpack(anchor->state, seed);
    entry.evaluation = problem.evaluate_with(
        e, solver, *ws, &options.mva, anchor ? &seed : nullptr,
        warm ? &final_state : nullptr, recorder ? &*recorder : nullptr);
    if (warm) packer->pack(final_state, entry.state);
    search::VectorEval value = objective_vector(entry.evaluation, spec);
    if (recorder && recorder->has_record()) {
      entry.solve_record = recorder->take_record();
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
  ps.spans = options.spans;
  ps.cancel = options.cancel;
  if (warm) {
    ps.on_new_base = [&](const search::Point& p, const search::VectorEval&) {
      store.add_anchor(p);
    };
  }
  const std::string solver_name(solver.name());
  const bool spans_on =
      options.spans != nullptr && options.spans->enabled();
  std::uint64_t replay_track = 0;
  if (spans_on) replay_track = options.spans->add_track("replay");
  double replay_cursor_us = 0.0;
  if (options.trace != nullptr || observe_solves) {
    ps.on_probe = [&](std::size_t step, const search::Point& p,
                      const search::VectorEval& eval, bool revisit) {
      const double value = search::scalarize(eval);
      const EvaluationStore::Entry* entry = store.find(p);
      if (options.trace != nullptr) {
        obs::TraceRecord rec;
        rec.step = step;
        rec.windows = p;
        rec.objective = value;
        rec.objective_vector = eval.objectives;
        rec.violation = eval.violation;
        if (entry != nullptr) rec.power = entry->evaluation.power;
        rec.solver = solver_name;
        rec.cache_hit = revisit;
        // The anchor this probe's evaluation was seeded from; revisits
        // evaluate nothing.
        if (entry != nullptr && !revisit && entry->anchor != nullptr) {
          rec.anchor = entry->anchor->evaluation.windows;
        }
        options.trace->append(std::move(rec));
      }
      if (observe_solves) {
        // Each fresh evaluation's record enters the log exactly once, at
        // its probe; revisits evaluated nothing, so they log nothing and
        // synthesize a childless cache-hit probe span.
        const obs::SolveRecord* rec =
            entry != nullptr && !revisit && entry->solve_record
                ? &*entry->solve_record
                : nullptr;
        if (options.convergence != nullptr && rec != nullptr) {
          options.convergence->append(*rec);
        }
        if (spans_on) {
          replay_cursor_us = synthesize_probe_spans(
              *options.spans, replay_track, replay_cursor_us, step, p, value,
              revisit, rec);
        }
      }
    };
  }

  search::VectorSearchResult ps_result;
  {
    obs::SpanTracer::Scope search_span(options.spans, "search");
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
  // Derived windim.convergence.* counters (no-op while the registry is
  // disabled).  Counts cover the log's whole lifetime: pass a fresh log
  // per run, or expect cumulative totals.
  if (options.convergence != nullptr) options.convergence->export_metrics();
  return result;
}

}  // namespace windim::core
