#include "solver/adapters.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "exact/buzen.h"
#include "exact/convolution.h"
#include "exact/product_form.h"
#include "exact/recal.h"
#include "exact/semiclosed.h"
#include "exact/tree_convolution.h"
#include "mva/bounds.h"
#include "mva/exact_multichain.h"
#include "mva/linearizer.h"

namespace windim::solver {
namespace {

std::span<const double> copy_to(Workspace& ws,
                                const std::vector<double>& values) {
  auto out = ws.doubles(values.size());
  std::copy(values.begin(), values.end(), out.begin());
  return out;
}

class ConvolutionSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "convolution"; }
  Traits traits() const noexcept override {
    Traits t;
    t.exact = true;
    t.supports_queue_dependent = true;
    t.has_queue_lengths = true;
    return t;
  }
  Solution solve(const qn::CompiledModel& model,
                 const PopulationVector& population,
                 Workspace& ws) const override {
    ws.reset();
    const exact::ConvolutionResult r =
        exact::solve_convolution(ws.scratch_model(model, population));
    Solution s;
    s.num_chains = r.num_chains;
    s.chain_throughput = copy_to(ws, r.chain_throughput);
    s.mean_queue = copy_to(ws, r.mean_queue);
    s.mean_time = copy_to(ws, r.mean_time);
    s.station_utilization = copy_to(ws, r.station_utilization);
    return s;
  }
};

class BuzenSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "buzen"; }
  Traits traits() const noexcept override {
    Traits t;
    t.exact = true;
    t.requires_single_chain = true;
    t.supports_queue_dependent = true;
    t.has_queue_lengths = true;
    return t;
  }
  Solution solve(const qn::CompiledModel& model,
                 const PopulationVector& population,
                 Workspace& ws) const override {
    ws.reset();
    qn::NetworkModel& m = ws.scratch_model(model, population);
    const exact::BuzenResult r = exact::solve_buzen(m);
    Solution s;
    s.num_chains = 1;
    auto lambda = ws.doubles(1);
    lambda[0] = r.throughput;
    s.chain_throughput = lambda;
    // Single chain: the station-major [n * R + r] layout degenerates to
    // per-station.  Buzen's mean_time is per *visit*, not per chain
    // cycle; it is intentionally not exposed to keep Solution::mean_time
    // semantics uniform.
    s.mean_queue = copy_to(ws, r.mean_number);
    s.station_utilization = copy_to(ws, r.utilization);
    return s;
  }
};

class RecalSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "recal"; }
  Traits traits() const noexcept override {
    Traits t;
    t.exact = true;
    t.has_queue_lengths = true;
    return t;
  }
  Solution solve(const qn::CompiledModel& model,
                 const PopulationVector& population,
                 Workspace& ws) const override {
    ws.reset();
    const exact::RecalResult r =
        exact::solve_recal(ws.scratch_model(model, population));
    Solution s;
    s.num_chains = r.num_chains;
    s.chain_throughput = copy_to(ws, r.chain_throughput);
    s.mean_queue = copy_to(ws, r.mean_queue);
    return s;
  }
};

class TreeConvolutionSolver final : public Solver {
 public:
  std::string_view name() const noexcept override {
    return "tree-convolution";
  }
  Traits traits() const noexcept override {
    Traits t;
    t.exact = true;
    return t;
  }
  Solution solve(const qn::CompiledModel& model,
                 const PopulationVector& population,
                 Workspace& ws) const override {
    ws.reset();
    const exact::TreeConvolutionResult r =
        exact::solve_tree_convolution(ws.scratch_model(model, population));
    Solution s;
    s.num_chains = r.num_chains;
    s.chain_throughput = copy_to(ws, r.chain_throughput);
    return s;
  }
};

class ProductFormSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "product-form"; }
  Traits traits() const noexcept override {
    Traits t;
    t.exact = true;
    t.supports_queue_dependent = true;
    t.has_queue_lengths = true;
    return t;
  }
  Solution solve(const qn::CompiledModel& model,
                 const PopulationVector& population,
                 Workspace& ws) const override {
    ws.reset();
    const std::size_t max_states = ws.hints.max_states;
    const exact::ProductFormResult r =
        max_states > 0
            ? exact::solve_product_form(ws.scratch_model(model, population),
                                        max_states)
            : exact::solve_product_form(ws.scratch_model(model, population));
    Solution s;
    s.num_chains = r.num_chains;
    s.chain_throughput = copy_to(ws, r.chain_throughput);
    s.mean_queue = copy_to(ws, r.mean_queue);
    return s;
  }
};

class SemiclosedSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "semiclosed"; }
  Traits traits() const noexcept override {
    Traits t;
    t.exact = true;
    t.semiclosed_view = true;
    t.has_queue_lengths = true;
    return t;
  }
  Solution solve(const qn::CompiledModel& model,
                 const PopulationVector& population,
                 Workspace& ws) const override {
    if (!model.has_semiclosed_spec()) {
      throw std::invalid_argument(
          "semiclosed: model was compiled without semiclosed arrival "
          "rates (CompileOptions::semiclosed_arrival_rate)");
    }
    if (population.size() != static_cast<std::size_t>(model.num_chains())) {
      throw std::invalid_argument(
          "semiclosed: population vector size mismatch");
    }
    ws.reset();
    // The population vector supplies the per-chain upper bounds H+_r
    // (the windows); lower bounds and arrival rates come from the
    // compiled metadata.
    std::vector<exact::SemiclosedChainSpec> specs(
        static_cast<std::size_t>(model.num_chains()));
    for (int r = 0; r < model.num_chains(); ++r) {
      specs[static_cast<std::size_t>(r)] = exact::SemiclosedChainSpec{
          model.semiclosed_arrival_rate(r), model.semiclosed_min_population(r),
          population[static_cast<std::size_t>(r)]};
    }
    const exact::SemiclosedResult r =
        exact::solve_semiclosed(ws.scratch_model(model, population), specs);
    Solution s;
    s.num_chains = r.num_chains;
    s.chain_throughput = copy_to(ws, r.carried_throughput);
    s.mean_queue = copy_to(ws, r.mean_queue);
    return s;
  }
};

class ExactMvaSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "exact-mva"; }
  Traits traits() const noexcept override {
    Traits t;
    t.exact = true;
    t.has_queue_lengths = true;
    return t;
  }
  Solution solve(const qn::CompiledModel& model,
                 const PopulationVector& population,
                 Workspace& ws) const override {
    ws.reset();
    const mva::MvaSolution r =
        mva::solve_exact_multichain(ws.scratch_model(model, population));
    Solution s;
    s.num_chains = r.num_chains;
    s.chain_throughput = copy_to(ws, r.chain_throughput);
    s.mean_queue = copy_to(ws, r.mean_queue);
    s.mean_time = copy_to(ws, r.mean_time);
    s.iterations = r.iterations;
    s.converged = r.converged;
    return s;
  }
};

class LinearizerSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "linearizer"; }
  Traits traits() const noexcept override {
    Traits t;
    t.has_queue_lengths = true;
    t.iterative = true;
    return t;
  }
  Solution solve(const qn::CompiledModel& model,
                 const PopulationVector& population,
                 Workspace& ws) const override {
    ws.reset();
    mva::LinearizerOptions options;
    options.convergence = ws.hints.convergence;
    const mva::MvaSolution r =
        mva::solve_linearizer(ws.scratch_model(model, population), options);
    Solution s;
    s.num_chains = r.num_chains;
    s.chain_throughput = copy_to(ws, r.chain_throughput);
    s.mean_queue = copy_to(ws, r.mean_queue);
    s.mean_time = copy_to(ws, r.mean_time);
    s.iterations = r.iterations;
    s.converged = r.converged;
    return s;
  }
};

class BoundsSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "bounds"; }
  Traits traits() const noexcept override {
    Traits t;
    t.requires_single_chain = true;
    return t;
  }
  Solution solve(const qn::CompiledModel& model,
                 const PopulationVector& population,
                 Workspace& ws) const override {
    ws.reset();
    const mva::ChainBounds b =
        mva::balanced_job_bounds(ws.scratch_model(model, population));
    // Bounds are a bracket, not a point estimate; the throughput slot
    // carries the (tight) upper bound used for feasibility screening.
    Solution s;
    s.num_chains = 1;
    auto lambda = ws.doubles(1);
    lambda[0] = b.throughput_upper;
    s.chain_throughput = lambda;
    return s;
  }
};

}  // namespace

const Solver& convolution_solver() {
  static const ConvolutionSolver s;
  return s;
}
const Solver& buzen_solver() {
  static const BuzenSolver s;
  return s;
}
const Solver& recal_solver() {
  static const RecalSolver s;
  return s;
}
const Solver& tree_convolution_solver() {
  static const TreeConvolutionSolver s;
  return s;
}
const Solver& product_form_solver() {
  static const ProductFormSolver s;
  return s;
}
const Solver& semiclosed_solver() {
  static const SemiclosedSolver s;
  return s;
}
const Solver& exact_mva_solver() {
  static const ExactMvaSolver s;
  return s;
}
const Solver& linearizer_solver() {
  static const LinearizerSolver s;
  return s;
}
const Solver& bounds_solver() {
  static const BoundsSolver s;
  return s;
}

}  // namespace windim::solver
