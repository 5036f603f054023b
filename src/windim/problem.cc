#include "windim/problem.h"

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "obs/derived.h"
#include "solver/registry.h"

namespace windim::core {

WindowProblem::WindowProblem(const net::Topology& topology,
                             std::vector<net::TrafficClass> classes)
    : classes_(std::move(classes)) {
  if (classes_.empty()) {
    throw std::invalid_argument("WindowProblem: no traffic classes");
  }

  // One FCFS station per half-duplex channel; service time = message
  // length / capacity, identical for all classes (thesis 4.2 assumption
  // (c) keeps the FCFS stations product-form).
  for (int c = 0; c < topology.num_channels(); ++c) {
    qn::Station s;
    s.name = topology.channel(c).name;
    s.discipline = qn::Discipline::kFcfs;
    base_.stations.push_back(std::move(s));
  }

  for (const net::TrafficClass& tc : classes_) {
    if (!(tc.arrival_rate > 0.0)) {
      throw std::invalid_argument("WindowProblem: class '" + tc.name +
                                  "' needs a positive arrival rate");
    }
    if (!(tc.mean_message_bits > 0.0)) {
      throw std::invalid_argument("WindowProblem: class '" + tc.name +
                                  "' needs a positive message length");
    }
    const std::vector<int> route = topology.route_channels(tc.path);
    hops_.push_back(static_cast<int>(route.size()));

    // The class's reentrant source queue.
    qn::Station source;
    source.name = tc.name + "-source";
    source.discipline = qn::Discipline::kFcfs;
    const int source_idx = static_cast<int>(base_.stations.size());
    base_.stations.push_back(std::move(source));
    source_station_.push_back(source_idx);

    qn::CyclicChain chain;
    chain.name = tc.name;
    chain.population = 0;  // set per evaluation
    for (int c : route) {
      chain.route.push_back(c);
      const double capacity_bits_per_s =
          topology.channel(c).capacity_kbps * 1000.0;
      chain.service_times.push_back(tc.mean_message_bits /
                                    capacity_bits_per_s);
    }
    chain.route.push_back(source_idx);
    chain.service_times.push_back(1.0 / tc.arrival_rate);
    base_.chains.push_back(std::move(chain));
  }

  // Compile once: the closed cyclic model (populations 0; every solve
  // passes the window vector)...
  compiled_ = qn::CompiledModel::compile(base_.to_model());

  // ...and the semiclosed route view: same station index space, but
  // each chain skips its reentrant source queue — the Poisson source
  // with window blocking replaces it (thesis 3.3.3 semiclosed chains).
  qn::NetworkModel route_model;
  for (const qn::Station& s : base_.stations) route_model.add_station(s);
  qn::CompileOptions semi;
  for (std::size_t r = 0; r < base_.chains.size(); ++r) {
    const qn::CyclicChain& chain = base_.chains[r];
    qn::Chain model_chain;
    model_chain.name = chain.name;
    model_chain.type = qn::ChainType::kClosed;
    model_chain.population = 0;  // bounds come from the solve's windows
    for (std::size_t k = 0; k < chain.route.size(); ++k) {
      if (chain.route[k] == source_station_[r]) continue;
      model_chain.visits.push_back(
          qn::Visit{chain.route[k], 1.0, chain.service_times[k]});
    }
    route_model.add_chain(std::move(model_chain));
    semi.semiclosed_arrival_rate.push_back(classes_[r].arrival_rate);
  }
  compiled_semi_ = qn::CompiledModel::compile(route_model, std::move(semi));
}

qn::CyclicNetwork WindowProblem::network(
    const std::vector<int>& windows) const {
  if (windows.size() != classes_.size()) {
    throw std::invalid_argument("WindowProblem: window vector size mismatch");
  }
  qn::CyclicNetwork net = base_;
  for (std::size_t r = 0; r < windows.size(); ++r) {
    if (windows[r] < 0) {
      throw std::invalid_argument("WindowProblem: negative window");
    }
    net.chains[r].population = windows[r];
  }
  return net;
}

Evaluation WindowProblem::evaluate_with(
    const std::vector<int>& windows, const solver::Solver& solver,
    solver::Workspace& ws, const mva::ApproxMvaOptions* mva_options,
    const mva::MvaWarmStart* warm_start, mva::MvaWarmStart* final_state,
    obs::ConvergenceRecorder* convergence) const {
  if (windows.size() != classes_.size()) {
    throw std::invalid_argument("WindowProblem: window vector size mismatch");
  }
  for (int w : windows) {
    if (w < 0) {
      throw std::invalid_argument("WindowProblem: negative window");
    }
  }
  const solver::Traits traits = solver.traits();
  if (!traits.has_queue_lengths) {
    throw std::invalid_argument(
        "WindowProblem: solver '" + std::string(solver.name()) +
        "' does not produce queue lengths; network power needs the route "
        "queue populations");
  }
  const qn::CompiledModel& model =
      traits.semiclosed_view ? compiled_semi_ : compiled_;
  const int num_chains = model.num_chains();

  // Per-solve hints are rebuilt from the arguments; `cancel` is
  // caller-owned and survives the rebuild (the deadline plumbing sets it
  // on the workspace before calling here).
  const util::CancelToken* const cancel = ws.hints.cancel;
  ws.hints = solver::SolveHints{};
  if (traits.supports_warm_start) ws.hints.warm_start = warm_start;
  ws.hints.mva = mva_options;
  ws.hints.convergence = convergence;
  ws.hints.cancel = cancel;
  const solver::Solution sol = solver.solve_profiled(model, windows, ws);
  ws.hints = solver::SolveHints{};

  if (final_state != nullptr) {
    // The packed format: one gather of the dense Solution at the
    // visited cells.  Sigma stays empty when the solve has none (`auto`
    // routed to an exact solver).
    final_state->lambda.clear();
    final_state->number.clear();
    final_state->sigma.clear();
    if (traits.supports_warm_start) {
      const std::span<const std::size_t> cells = model.cell_index();
      final_state->lambda.assign(sol.chain_throughput.begin(),
                                 sol.chain_throughput.end());
      final_state->number.resize(cells.size());
      final_state->sigma.resize(sol.sigma.empty() ? 0 : cells.size());
      for (std::size_t k = 0; k < cells.size(); ++k) {
        final_state->number[k] = sol.mean_queue[cells[k]];
        if (!sol.sigma.empty()) final_state->sigma[k] = sol.sigma[cells[k]];
      }
    }
  }

  Evaluation ev;
  ev.windows = windows;
  ev.iterations = traits.iterative ? sol.iterations : 1;
  ev.sigma_refreshes = sol.sigma_refreshes;
  ev.converged = sol.converged;
  ev.class_throughput.assign(sol.chain_throughput.begin(),
                             sol.chain_throughput.end());
  ev.class_delay.assign(static_cast<std::size_t>(num_chains), 0.0);

  double total_rate = 0.0;
  double total_number = 0.0;  // customers on route queues (V(r))
  for (int r = 0; r < num_chains; ++r) {
    const double rate = sol.chain_throughput[static_cast<std::size_t>(r)];
    total_rate += rate;
    // Only the chain's own stations hold its customers; every other
    // cell is a zero queue, so summing the route alone is exact.
    double number_r = 0.0;
    for (const int n : model.stations_of(r)) {
      if (n == source_station_[static_cast<std::size_t>(r)]) continue;
      number_r += sol.mean_queue[static_cast<std::size_t>(n) * num_chains + r];
    }
    total_number += number_r;
    ev.class_delay[static_cast<std::size_t>(r)] =
        rate > 0.0 ? number_r / rate : 0.0;
  }
  ev.throughput = total_rate;
  ev.mean_delay = total_rate > 0.0 ? total_number / total_rate : 0.0;
  ev.power = ev.mean_delay > 0.0 ? ev.throughput / ev.mean_delay : 0.0;
  ev.fairness = obs::jain_fairness(
      obs::chain_powers(ev.class_throughput, ev.class_delay));
  return ev;
}

Evaluation WindowProblem::evaluate(
    const std::vector<int>& windows, std::string_view solver_name,
    const mva::ApproxMvaOptions& mva_options) const {
  const solver::Solver& solver =
      solver::SolverRegistry::instance().require(solver_name);
  thread_local solver::Workspace ws;
  return evaluate_with(windows, solver, ws, &mva_options);
}

}  // namespace windim::core
