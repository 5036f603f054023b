#include "solver/registry.h"

#include <sstream>
#include <stdexcept>

#include "solver/adapters.h"
#include "solver/heuristic_mva.h"

namespace windim::solver {
namespace {

const Solver& heuristic_mva_solver() {
  static const HeuristicMvaSolver s{"heuristic-mva",
                                    mva::SigmaPolicy::kChanSingleChain};
  return s;
}

const Solver& schweitzer_mva_solver() {
  static const HeuristicMvaSolver s{"schweitzer-mva",
                                    mva::SigmaPolicy::kSchweitzerBard};
  return s;
}

/// Delay-dominance fraction at or above which a single-chain model is
/// routed to the exact recursion (see SolverRegistry::route).  The
/// pinned heuristic worst case sits at ~0.30; well clear of the
/// threshold on both sides.
constexpr double kDelayDominanceThreshold = 0.25;

/// The "auto" registry entry: trait-wise it promises only what every
/// routing target provides (queue lengths; exactness and iteration
/// counts depend on the dispatched solver).
class AutoSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "auto";
  }
  [[nodiscard]] Traits traits() const noexcept override {
    Traits t;
    t.has_queue_lengths = true;
    t.supports_warm_start = true;
    t.iterative = true;
    return t;
  }
  [[nodiscard]] Solution solve(const qn::CompiledModel& model,
                               const PopulationVector& population,
                               Workspace& ws) const override {
    return SolverRegistry::instance().route(model).solve(model, population,
                                                         ws);
  }
};

const Solver& auto_router_solver() {
  static const AutoSolver s;
  return s;
}

}  // namespace

SolverRegistry::SolverRegistry() {
  const auto add = [this](const Solver& s) {
    entries_.push_back(Entry{std::string(s.name()), &s});
    solvers_.push_back(&s);
  };
  const auto alias = [this](std::string name, const Solver& s) {
    entries_.push_back(Entry{std::move(name), &s});
  };
  add(convolution_solver());
  add(buzen_solver());
  add(recal_solver());
  add(tree_convolution_solver());
  add(product_form_solver());
  add(exact_mva_solver());
  add(heuristic_mva_solver());
  alias("heuristic", heuristic_mva_solver());
  add(schweitzer_mva_solver());
  alias("schweitzer", schweitzer_mva_solver());
  add(linearizer_solver());
  add(bounds_solver());
  add(semiclosed_solver());
  add(auto_router_solver());
}

const Solver& SolverRegistry::route(
    const qn::CompiledModel& model) const noexcept {
  if (model.num_chains() == 1 && model.all_closed() &&
      !model.has_queue_dependent() &&
      model.uncongested_cycle_time(0) > 0.0 &&
      model.delay_demand(0) >=
          kDelayDominanceThreshold * model.uncongested_cycle_time(0)) {
    return exact_mva_solver();
  }
  return heuristic_mva_solver();
}

const SolverRegistry& SolverRegistry::instance() {
  static const SolverRegistry registry;
  return registry;
}

const Solver* SolverRegistry::find(std::string_view name) const noexcept {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.solver;
  }
  return nullptr;
}

const Solver& SolverRegistry::require(std::string_view name) const {
  if (const Solver* s = find(name)) return *s;
  std::ostringstream os;
  os << "unknown solver '" << name << "'; available solvers:";
  for (const Solver* s : solvers_) os << ' ' << s->name();
  throw std::invalid_argument(os.str());
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(solvers_.size());
  for (const Solver* s : solvers_) out.emplace_back(s->name());
  return out;
}

}  // namespace windim::solver
