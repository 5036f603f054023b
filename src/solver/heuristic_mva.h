// Native zero-allocation WINDIM heuristic (thesis 4.2) on CompiledModel.
//
// This is the hot-loop kernel of the dimensioning engine: the same
// fixed-point iteration as mva::solve_approx_mva, bit-for-bit, so the
// equivalence suite can demand exact agreement with the legacy
// reference, but running entirely out of a Workspace arena.  After the
// first solve on a workspace no heap allocation happens, which is what
// makes pattern_search's thousands of window evaluations
// allocation-free.
//
// "Lockstep" with mva/approx.cc means the same arithmetic for every
// value and the same term order for every sum, not the same loops: the
// kernel keeps its state packed over the visited (station, chain) cells
// and sweeps them with flat loops, where the legacy solver sweeps the
// dense N x R matrices.
//
// The single-chain sigma subproblem (thesis eq. 4.12) is inlined with a
// rolling two-level recursion, run level by level across chains: the
// heuristic only consumes mean_number[pop] - mean_number[pop-1], so the
// full 0..K table of mva::solve_single_chain is never materialized.
// check_model rejects queue-dependent stations, so the rolling form
// needs no marginal distributions and stays exactly on the legacy
// arithmetic.
#pragma once

#include "mva/approx.h"
#include "solver/solver.h"

namespace windim::solver {

/// `heuristic-mva` (SigmaPolicy::kChanSingleChain) and `schweitzer-mva`
/// (SigmaPolicy::kSchweitzerBard).  Reads Workspace::hints: `mva`
/// supplies iteration options (the sigma policy inside it is
/// overridden by this solver's own policy) and `warm_start` seeds the
/// fixed point.
class HeuristicMvaSolver final : public Solver {
 public:
  HeuristicMvaSolver(std::string_view name, mva::SigmaPolicy policy) noexcept
      : name_(name), policy_(policy) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
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
                               Workspace& ws) const override;

 private:
  std::string_view name_;
  mva::SigmaPolicy policy_;
};

}  // namespace windim::solver
