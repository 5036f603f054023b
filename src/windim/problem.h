// Window-dimensioning problem: the thesis's closed-chain model of an
// end-to-end flow-controlled network (thesis 3.4, 4.2, Fig 4.6/4.11).
//
// Each traffic class (virtual channel) becomes a closed cyclic chain:
// the message traverses the FCFS queue of every half-duplex channel on
// its route and then a *source queue* whose mean service time is 1/S_r
// (the reciprocal of the class's Poisson rate) - the thesis's "reentrant
// queue from sink to source" that models both the acknowledgment return
// and the throttled source.  The chain population is the end-to-end
// window E_r.
//
// Network power (thesis eq. 4.19) is evaluated over the *route* queues
// only (V(r) = Q(r) minus the reentrant queue):
//   lambda = sum_r lambda_r,   T = sum_r sum_{i in V(r)} N_ir / lambda,
//   P = lambda / T.
//
// Compile-once/solve-many: the constructor compiles the closed network
// (and its semiclosed route view) into qn::CompiledModel once; every
// evaluation then runs a registry solver against the compiled model
// with the window vector as the population vector, through a reusable
// solver::Workspace (see evaluate_with).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "mva/approx.h"
#include "net/examples.h"
#include "net/topology.h"
#include "qn/compiled_model.h"
#include "qn/cyclic.h"
#include "solver/solver.h"

namespace windim::core {

/// Performance of one window setting.
struct Evaluation {
  std::vector<int> windows;
  double throughput = 0.0;   // messages/s, network total
  double mean_delay = 0.0;   // seconds, source-to-sink average
  double power = 0.0;        // throughput / delay (thesis eq. 4.19)
  std::vector<double> class_throughput;
  std::vector<double> class_delay;
  /// Jain's fairness index over per-class powers lambda_r / T_r
  /// (obs::jain_fairness); 1.0 = perfectly even power split.
  double fairness = 1.0;
  int iterations = 0;        // MVA iterations (heuristic evaluator)
  /// Iterations that re-ran the sigma estimation (= iterations for cold
  /// starts; fewer for sigma-seeded warm starts).
  int sigma_refreshes = 0;
  bool converged = true;
};

class WindowProblem {
 public:
  /// Builds the closed-chain model from a topology and traffic classes
  /// and compiles it (plus the semiclosed route view).  Every class must
  /// have arrival_rate > 0 and a route of >= 1 hop.
  WindowProblem(const net::Topology& topology,
                std::vector<net::TrafficClass> classes);

  [[nodiscard]] int num_classes() const noexcept {
    return static_cast<int>(classes_.size());
  }
  [[nodiscard]] const net::TrafficClass& traffic_class(int r) const {
    return classes_.at(r);
  }
  /// Hop count of class r's route (Kleinrock's window estimate for the
  /// isolated chain, thesis 4.4/4.6).
  [[nodiscard]] int hops(int r) const { return hops_.at(r); }
  [[nodiscard]] std::vector<int> kleinrock_windows() const { return hops_; }

  /// The closed cyclic network with populations set to `windows`.
  [[nodiscard]] qn::CyclicNetwork network(
      const std::vector<int>& windows) const;

  /// The compiled closed model (populations default to 0; solves pass
  /// the window vector explicitly).
  [[nodiscard]] const qn::CompiledModel& compiled() const noexcept {
    return compiled_;
  }
  /// The compiled semiclosed route view: same station index space, but
  /// chains skip their reentrant source queue and carry the class
  /// arrival rates as semiclosed metadata.
  [[nodiscard]] const qn::CompiledModel& compiled_semiclosed() const noexcept {
    return compiled_semi_;
  }

  /// Index of class r's source (reentrant) station in the cyclic network.
  [[nodiscard]] int source_station(int r) const {
    return source_station_.at(r);
  }

  /// Evaluates a window setting with any registry solver, reusing `ws`
  /// across calls (zero arena growth after warm-up).  The solver's
  /// traits pick the compiled view (closed vs. semiclosed) and gate the
  /// warm-start plumbing; solvers without queue lengths (e.g.
  /// tree-convolution) are rejected with std::invalid_argument, since
  /// power needs the route queue populations.
  ///
  /// `warm_start` / `final_state` seed and capture the fixed-point
  /// state of warm-startable solvers, in the packed MvaWarmStart format
  /// over the visited cells of the compiled view solved; both are
  /// ignored (final_state cleared) otherwise.
  ///
  /// `convergence`, when non-null, receives this solve's per-iteration
  /// telemetry (obs/convergence.h): iterative solvers stream every
  /// sweep; the rest get a summary record (iterations == 1, empty
  /// ring).
  [[nodiscard]] Evaluation evaluate_with(
      const std::vector<int>& windows, const solver::Solver& solver,
      solver::Workspace& ws,
      const mva::ApproxMvaOptions* mva_options = nullptr,
      const mva::MvaWarmStart* warm_start = nullptr,
      mva::MvaWarmStart* final_state = nullptr,
      obs::ConvergenceRecorder* convergence = nullptr) const;

  /// Evaluates a window setting with the registry solver named
  /// `solver` (e.g. "heuristic-mva", the thesis evaluator, or the exact
  /// "convolution", "exact-mva", "semiclosed", "linearizer").  Throws
  /// std::invalid_argument on an unknown solver name or a malformed
  /// window vector (size mismatch or negative entries).  Convenience
  /// wrapper over evaluate_with with a thread-local workspace.
  [[nodiscard]] Evaluation evaluate(
      const std::vector<int>& windows,
      std::string_view solver = "heuristic-mva",
      const mva::ApproxMvaOptions& mva_options = {}) const;

 private:
  std::vector<net::TrafficClass> classes_;
  qn::CyclicNetwork base_;            // populations left at 0
  std::vector<int> source_station_;   // per class
  std::vector<int> hops_;
  qn::CompiledModel compiled_;        // closed cyclic model
  qn::CompiledModel compiled_semi_;   // semiclosed route view
};

}  // namespace windim::core
