// Name-keyed registry of every solver in the library.
//
// Canonical names (aliases in parentheses):
//
//   convolution        exact multichain convolution (lattice)
//   buzen              Buzen single-chain convolution
//   recal              RECAL, recursion by chain
//   tree-convolution   Lam & Lien sparse-routing convolution
//   product-form       brute-force product-form enumeration
//   exact-mva          exact multichain MVA (lattice)
//   heuristic-mva      WINDIM heuristic, thesis 4.2 ("heuristic")
//   schweitzer-mva     Schweitzer-Bard sigma policy ("schweitzer")
//   linearizer         Chandy & Neuse Linearizer
//   bounds             balanced job bounds (single chain)
//   semiclosed         semiclosed population-band lattice solver
//   auto               shape-based routing (route(); see below)
//
// The registry is process-global and immutable after static
// initialization; lookups are thread-safe.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "solver/solver.h"

namespace windim::solver {

class SolverRegistry {
 public:
  [[nodiscard]] static const SolverRegistry& instance();

  /// Looks a solver up by canonical name or alias; nullptr if unknown.
  [[nodiscard]] const Solver* find(std::string_view name) const noexcept;

  /// Like find(), but throws std::invalid_argument whose message lists
  /// the available solver names — the error the CLI surfaces verbatim
  /// for an unknown --solver.
  [[nodiscard]] const Solver& require(std::string_view name) const;

  /// Canonical names in registration order (no aliases).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Shape-based routing: the solver the "auto" entry dispatches to for
  /// `model`.  Delay-dominated single-chain closed models — at least a
  /// quarter of the uncongested cycle time spent at IS stations — go to
  /// exact single-chain MVA: they are exactly the shape on which the
  /// thesis heuristic's sigma estimate degrades worst (the pinned ~49%
  /// corpus worst case), and the exact recursion is cheap there.
  /// Everything else keeps the heuristic.  The explicit names
  /// ("heuristic-mva", "exact-mva") always bypass the routing.
  [[nodiscard]] const Solver& route(
      const qn::CompiledModel& model) const noexcept;

  /// All registered solvers in registration order.
  [[nodiscard]] const std::vector<const Solver*>& solvers() const noexcept {
    return solvers_;
  }

 private:
  SolverRegistry();

  struct Entry {
    std::string name;  // canonical or alias
    const Solver* solver;
  };
  std::vector<Entry> entries_;         // canonical + aliases
  std::vector<const Solver*> solvers_; // canonical only, in order
};

}  // namespace windim::solver
