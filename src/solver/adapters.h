// Adapters wrapping the legacy solver entry points (exact/ and mva/)
// behind the uniform solver::Solver interface.  Each adapter obtains a
// mutable NetworkModel view via Workspace::scratch_model (a one-time
// copy per workspace, then population rewrites only) and copies the
// legacy result into arena spans.  They are correct and convenient, not
// allocation-free: the zero-allocation hot path is the native
// HeuristicMvaSolver (solver/heuristic_mva.h).
//
// Each accessor returns a process-lifetime singleton.
#pragma once

#include "solver/solver.h"

namespace windim::solver {

const Solver& convolution_solver();       // exact::solve_convolution
const Solver& buzen_solver();             // exact::solve_buzen
const Solver& recal_solver();             // exact::solve_recal
const Solver& tree_convolution_solver();  // exact::solve_tree_convolution
const Solver& product_form_solver();      // exact::solve_product_form
const Solver& semiclosed_solver();        // exact::solve_semiclosed
const Solver& exact_mva_solver();         // mva::solve_exact_multichain
const Solver& linearizer_solver();        // mva::solve_linearizer
const Solver& bounds_solver();            // mva::balanced_job_bounds

}  // namespace windim::solver
