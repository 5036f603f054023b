#include "search/pattern_search.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/span.h"

namespace windim::search {
namespace {

/// Memoized, budget-aware objective front-end.  `operator()` returns
/// nullopt exactly once the budget is exhausted (or the cancel token
/// expired); every caller unwinds gracefully on a nullopt probe.
struct Evaluator {
  const VectorObjective& objective;
  const VectorSearchOptions& options;
  std::unordered_map<Point, VectorEval, PointHash> memo{};
  std::size_t evaluations = 0;
  std::size_t hits = 0;
  std::size_t exhausted_probes = 0;
  bool exhausted = false;
  bool cancelled = false;

  std::optional<VectorEval> operator()(const Point& p) {
    if (options.cancel != nullptr && options.cancel->expired()) {
      cancelled = true;
      exhausted = true;
      return std::nullopt;
    }
    const std::size_t step = evaluations + hits;
    const auto it = memo.find(p);
    const bool revisit = it != memo.end();
    if (revisit) {
      ++hits;
    } else if (evaluations >= options.max_evaluations) {
      ++exhausted_probes;
      exhausted = true;
      return std::nullopt;
    } else {
      ++evaluations;
    }
    const VectorEval& v =
        revisit ? it->second : memo.emplace(p, objective(p)).first->second;
    if (options.on_probe) options.on_probe(step, p, v, revisit);
    return v;
  }
};

bool in_bounds(const Point& p, const VectorSearchOptions& options) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!options.lower_bound.empty() && p[i] < options.lower_bound[i]) {
      return false;
    }
    if (!options.upper_bound.empty() && p[i] > options.upper_bound[i]) {
      return false;
    }
  }
  return true;
}

Point clip(Point p, const VectorSearchOptions& options) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!options.lower_bound.empty()) {
      p[i] = std::max(p[i], options.lower_bound[i]);
    }
    if (!options.upper_bound.empty()) {
      p[i] = std::min(p[i], options.upper_bound[i]);
    }
  }
  return p;
}

/// Exploratory move about `base`: perturb each coordinate by +step then
/// -step, keeping strict improvements under the comparator (thesis
/// Fig 4.2).  Returns the explored point and its evaluation.  On budget
/// exhaustion the move stops accepting further probes and returns the
/// best point reached so far (`eval.exhausted` is then set).
std::pair<Point, VectorEval> explore(Evaluator& eval, const Comparator& better,
                                     Point base, VectorEval f_base,
                                     const Point& step,
                                     const VectorSearchOptions& options) {
  obs::SpanTracer::Scope span(options.spans, "explore");
  bool improved = false;
  for (std::size_t i = 0; i < base.size() && !eval.exhausted; ++i) {
    Point plus = base;
    plus[i] += step[i];
    if (in_bounds(plus, options)) {
      std::optional<VectorEval> f_plus = eval(plus);
      if (!f_plus) break;
      if (better(*f_plus, f_base)) {
        base = std::move(plus);
        f_base = std::move(*f_plus);
        improved = true;
        continue;
      }
    }
    Point minus = base;
    minus[i] -= step[i];
    if (in_bounds(minus, options)) {
      std::optional<VectorEval> f_minus = eval(minus);
      if (!f_minus) break;
      if (better(*f_minus, f_base)) {
        base = std::move(minus);
        f_base = std::move(*f_minus);
        improved = true;
      }
    }
  }
  span.arg("improved", improved);
  return {std::move(base), std::move(f_base)};
}

}  // namespace

VectorSearchResult vector_pattern_search(const VectorObjective& objective,
                                         Point initial,
                                         const VectorSearchOptions& options) {
  if (initial.empty()) {
    throw std::invalid_argument("pattern_search: empty initial point");
  }
  Point step = options.initial_step.empty()
                   ? Point(initial.size(), 1)
                   : options.initial_step;
  if (step.size() != initial.size()) {
    throw std::invalid_argument("pattern_search: step dimension mismatch");
  }
  for (int s : step) {
    if (s < 1) {
      throw std::invalid_argument("pattern_search: steps must be >= 1");
    }
  }
  if ((!options.lower_bound.empty() &&
       options.lower_bound.size() != initial.size()) ||
      (!options.upper_bound.empty() &&
       options.upper_bound.size() != initial.size())) {
    throw std::invalid_argument("pattern_search: bound dimension mismatch");
  }
  if (!in_bounds(initial, options)) {
    throw std::invalid_argument("pattern_search: initial point out of bounds");
  }
  const Comparator better =
      options.better ? options.better : scalar_comparator();

  Evaluator eval{objective, options};
  const auto new_base = [&](const Point& p, const VectorEval& f) {
    if (options.on_new_base) options.on_new_base(p, f);
  };

  VectorSearchResult result;
  Point base = std::move(initial);
  std::optional<VectorEval> f_initial = eval(base);
  if (!f_initial) {
    // Budget (or the cancel token) did not even cover the initial point.
    result.best = std::move(base);
    result.exhausted_probes = eval.exhausted_probes;
    result.cancelled = eval.cancelled;
    result.budget_exhausted = !eval.cancelled;
    return result;
  }
  VectorEval f_base = std::move(*f_initial);
  result.base_points.emplace_back(base, f_base);
  new_base(base, f_base);

  int reductions = 0;
  while (!eval.exhausted) {
    // Exploratory move about the current base point.
    auto [explored, f_explored] =
        explore(eval, better, base, f_base, step, options);
    if (better(f_explored, f_base)) {
      // New base established; enter the pattern-move phase (thesis
      // Fig 4.3/4.4).
      Point previous = base;
      base = std::move(explored);
      f_base = std::move(f_explored);
      result.base_points.emplace_back(base, f_base);
      new_base(base, f_base);
      while (!eval.exhausted) {
        Point pattern(base.size());
        for (std::size_t i = 0; i < base.size(); ++i) {
          pattern[i] = 2 * base[i] - previous[i];
        }
        pattern = clip(std::move(pattern), options);
        std::optional<VectorEval> f_pattern = eval(pattern);
        if (!f_pattern) break;
        auto [next, f_next] = explore(eval, better, pattern,
                                      std::move(*f_pattern), step, options);
        if (better(f_next, f_base)) {
          previous = base;
          base = std::move(next);
          f_base = std::move(f_next);
          result.base_points.emplace_back(base, f_base);
          new_base(base, f_base);
        } else {
          break;  // pattern terminated; resume local exploration
        }
      }
      continue;
    }
    if (eval.exhausted) break;
    // Exploration failed: reduce the step or stop.
    if (reductions >= options.max_step_reductions) break;
    bool reduced = false;
    for (int& s : step) {
      if (s > 1) {
        s = std::max(1, s / 2);
        reduced = true;
      }
    }
    if (!reduced) {
      // Already at unit steps; a failed unit exploration is final for an
      // integer search.
      break;
    }
    ++reductions;
  }

  result.best = base;
  result.best_eval = std::move(f_base);
  result.evaluations = eval.evaluations;
  result.cache_hits = eval.hits;
  result.exhausted_probes = eval.exhausted_probes;
  result.step_reductions = reductions;
  result.cancelled = eval.cancelled;
  result.budget_exhausted = eval.exhausted && !eval.cancelled;
  return result;
}

PatternSearchResult pattern_search(const Objective& objective, Point initial,
                                   const PatternSearchOptions& options) {
  // Thesis-exact shim: wrap the scalar objective into one-element
  // evaluations and search under scalar_comparator().  The comparator
  // consults objectives[0] alone (+inf encodes infeasible), so the
  // trajectory, optimum and every counter are bit-for-bit the
  // historical scalar search.
  const VectorObjective vector_objective = [&objective](const Point& p) {
    return VectorEval::scalar(objective(p));
  };
  VectorSearchOptions vo;
  vo.initial_step = options.initial_step;
  vo.max_step_reductions = options.max_step_reductions;
  vo.lower_bound = options.lower_bound;
  vo.upper_bound = options.upper_bound;
  vo.max_evaluations = options.max_evaluations;
  vo.better = scalar_comparator();
  vo.cancel = options.cancel;
  if (options.on_new_base) {
    vo.on_new_base = [&options](const Point& p, const VectorEval& f) {
      options.on_new_base(p, scalarize(f));
    };
  }
  if (options.on_probe) {
    vo.on_probe = [&options](std::size_t step, const Point& p,
                             const VectorEval& f, bool revisit) {
      options.on_probe(step, p, scalarize(f), revisit);
    };
  }

  VectorSearchResult vr =
      vector_pattern_search(vector_objective, std::move(initial), vo);

  PatternSearchResult result;
  result.best = std::move(vr.best);
  result.best_value = scalarize(vr.best_eval);
  result.evaluations = vr.evaluations;
  result.cache_hits = vr.cache_hits;
  result.exhausted_probes = vr.exhausted_probes;
  result.step_reductions = vr.step_reductions;
  result.budget_exhausted = vr.budget_exhausted;
  result.cancelled = vr.cancelled;
  result.base_points.reserve(vr.base_points.size());
  for (auto& [p, f] : vr.base_points) {
    result.base_points.emplace_back(std::move(p), scalarize(f));
  }
  return result;
}

}  // namespace windim::search
