// The WINDIM heuristic mean value analysis (thesis 4.2, steps 1-6;
// re-implementation of the APL function `fct`).
//
// The exact multichain recursion costs prod_r E_r operations; the
// heuristic reduces this to (roughly) sum_r E_r per sweep by assuming
// that removing one chain-r customer mostly affects chain r itself
// (thesis eq. 4.11): sigma_ij(r-) = 0 for j != r, and sigma_ir(r-) is
// estimated from an *isolated single-chain* problem in which chain r's
// service times are inflated by the other chains' utilizations
// (thesis eq. 4.12, APL lines LP22-LP55).  The fixed point of
//
//   t_ir   = s_ir (1 + sum_j N_ij - sigma_ir)
//   lambda_r = E_r / sum_i t_ir            (Little, chains)
//   N_ir   = lambda_r t_ir                 (Little, stations)
//
// is reached by direct iteration.  A Schweitzer-Bard sigma policy
// (sigma_ir = N_ir / E_r) is provided as an ablation.
#pragma once

#include "mva/solution.h"
#include "qn/network.h"

namespace windim::obs {
class ConvergenceRecorder;  // obs/convergence.h
}  // namespace windim::obs

namespace windim::mva {

enum class SigmaPolicy {
  /// Thesis heuristic: isolated single-chain MVA with other-class
  /// utilization-inflated service times.
  kChanSingleChain,
  /// Classical Schweitzer-Bard proportional estimate.
  kSchweitzerBard,
};

enum class InitPolicy {
  /// Chain population spread evenly over its queues (thesis eq. 4.17).
  kBalanced,
  /// Chain population placed at its largest-demand queue (thesis eq. 4.16).
  kBottleneck,
};

struct ApproxMvaOptions {
  SigmaPolicy sigma = SigmaPolicy::kChanSingleChain;
  InitPolicy init = InitPolicy::kBalanced;
  int max_iterations = 2000;
  /// Convergence criterion on max |lambda - lambda_prev| (the APL CRIT),
  /// relative to max(1, |lambda|).
  double tolerance = 1e-10;
  /// Other-chain utilization is clamped below this when inflating the
  /// single-chain service times (the isolated subproblem needs a stable
  /// queue).
  double utilization_clamp = 0.999;
  /// Under-relaxation factor in (0, 1]: N <- damping * N_new +
  /// (1 - damping) * N_old.  1.0 = plain fixed-point iteration.
  double damping = 1.0;
  /// Warm starts only: maximum relative drift of the throughput vector
  /// (vs. the state sigma was last estimated at) before the sigma
  /// estimation is re-run.  Irrelevant without a sigma seed — the cold
  /// iteration re-estimates sigma every sweep, as the thesis does.
  double sigma_refresh_threshold = 0.05;
  /// Per-iteration telemetry sink (obs/convergence.h).  When non-null,
  /// the iteration streams begin_solve/record_iteration/end_solve into
  /// it; recording is read-only and does not perturb the fixed point.
  /// Owned by the caller; must outlive the solve.
  obs::ConvergenceRecorder* convergence = nullptr;
};

/// Initial fixed-point state for warm-starting the heuristic-MVA kernel
/// (solver/heuristic_mva.h), in the kernel's own packed layout over the
/// visited cells of the qn::CompiledModel the solve runs on.  Taken
/// from the converged solution of a *nearby* model (same stations and
/// chains, slightly different populations — e.g. the neighboring window
/// vectors a pattern search generates), it replaces the cold STEP-1
/// initialization and typically cuts the iteration count several fold
/// because the transient toward the fixed-point basin is skipped.
struct MvaWarmStart {
  /// Chain throughputs, one per chain.
  std::vector<double> lambda;
  /// Mean queue lengths, one per visited cell k, in the model's
  /// cell_index() order.
  std::vector<double> number;
  /// Converged sigma estimates, one per visited cell like `number`; may
  /// be empty.  When present, the iteration starts from this sigma and
  /// re-runs the (expensive) sigma estimation lazily: only once the
  /// throughput vector has drifted more than
  /// ApproxMvaOptions::sigma_refresh_threshold from the state the
  /// current sigma was computed at, and always before convergence is
  /// declared — the stopping criterion is only accepted on an iteration
  /// whose sigma is freshly consistent, exactly as in the cold
  /// iteration, so the fixed point reached is the same to the
  /// configured tolerance.
  std::vector<double> sigma;
};

/// Runs the heuristic on an all-closed model with fixed-rate and IS
/// stations.  Chains with zero population contribute zero throughput.
/// Throws qn::ModelError on invalid input (including a chain whose
/// uncongested cycle time is zero, which has no finite fixed point).
/// This dense solver is the reference the packed kernel is pinned to.
///
/// `warm_start`, when non-null, seeds the fixed point from a previous
/// solution (its throughputs, queue lengths and, when non-empty, sigma,
/// lazily refreshed as for MvaWarmStart::sigma) instead of the cold
/// InitPolicy; its vectors must match the model's chain/station counts
/// (std::invalid_argument otherwise).  Entries for zero-population
/// chains are ignored, and so are the queue and sigma entries off a
/// chain's route.  The converged solution is the same fixed point as
/// the cold start's, to the configured tolerance.
[[nodiscard]] MvaSolution solve_approx_mva(
    const qn::NetworkModel& model, const ApproxMvaOptions& options = {},
    const MvaSolution* warm_start = nullptr);

}  // namespace windim::mva
