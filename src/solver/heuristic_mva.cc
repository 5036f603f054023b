#include "solver/heuristic_mva.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "obs/convergence.h"
#include "util/thread_pool.h"

namespace windim::solver {
namespace {

// Chains per block in the chain-parallel STEP 2 dispatch, and the chain
// count below which the sweep stays serial even with a pool attached
// (block bookkeeping would cost more than it buys on small models).
constexpr int kParallelChainThreshold = 256;
constexpr int kMinChainsPerBlock = 64;

}  // namespace

// The iteration below is mva::solve_approx_mva on the CompiledModel's
// visited cells.  Every value is computed with the same operations as
// there and every sum adds its terms in the same order — the
// compiled_equivalence suite compares the two bit-for-bit — so resist
// "obvious" refactorings that reassociate any floating-point sum.  The
// loops differ; the arithmetic does not.
//
// Packed cells: N, t and sigma live in arena arrays over the visited
// (station, chain) cells, numbered k in the station->chain CSR order of
// CompiledModel (visited_cell_count(), cell_chain(), cell_demand()...).
// Off a chain's route its demand is +0.0, so its time and queue stay
// +0.0 for the whole solve (lambda is finite) and each skipped cell
// would add an exact +0.0 to a sum; a sweep therefore costs O(visited
// cells), not O(N R).  The per-(r,n) O(R) reductions of the thesis text
// are hoisted into per-station sums over a station's cell range:
//   busy[n]  = sum_j lambda_j * D_jn  (STEP 2's rho_other is busy[n] -
//              lambda_r * D_rn; exactly 0 for single-chain models, where
//              the term-free legacy sum is kept verbatim);
//   total[n] = sum_j N_jn             (STEP 3's "others", which never
//              depended on r).
// Both add a station's chains in ascending order, as the dense legacy
// sums do.  STEP 4 adds a chain's times over chain_cells(r), stations
// ascending, and STEP 5 is one flat pass over k.  The warm start
// (mva::MvaWarmStart) is packed in this same k order and read in
// place; the dense [n * R + r] Solution spans are written once, at the
// end.
//
// Sigma subproblem (STEP 2, thesis eq. 4.12): the single-chain MVA of
// solve_single_chain in rolling two-level form, run level by level
// across chains.  One pass computes every cell's inflated demand
// d / (1 - rho_other); then level k runs for every chain with E_r >= k
// before level k + 1 starts, so independent chains' recursions overlap
// instead of each waiting on its own divide.  Per chain the operations
// and their order are those of the chain-at-a-time recursion.  Chains
// are sorted most-populated first once per solve, so a level visits
// only the chains still below their population and a refresh costs
// O(sum_r E_r * hops); their cells are copied into contiguous "slots"
// chain after chain, so a level reads no index.  The same routine runs
// the whole chain range serially or one block per SolveHints::pool
// job; chains are independent given busy[], so block partitioning
// never changes a bit.
Solution HeuristicMvaSolver::solve(const qn::CompiledModel& model,
                                   const PopulationVector& population,
                                   Workspace& ws) const {
  if (!model.all_closed()) {
    throw qn::ModelError("solve_approx_mva: all chains must be closed");
  }
  if (model.has_queue_dependent()) {
    throw qn::ModelError(
        "solve_approx_mva: queue-dependent stations unsupported");
  }
  mva::ApproxMvaOptions options =
      ws.hints.mva != nullptr ? *ws.hints.mva : mva::ApproxMvaOptions{};
  options.sigma = policy_;
  const mva::MvaWarmStart* warm_start = ws.hints.warm_start;
  if (!(options.damping > 0.0 && options.damping <= 1.0)) {
    throw std::invalid_argument("solve_approx_mva: damping must be in (0,1]");
  }
  const int num_stations = model.num_stations();
  const int num_chains = model.num_chains();
  if (population.size() != static_cast<std::size_t>(num_chains)) {
    throw std::invalid_argument(
        "solve_approx_mva: population vector size mismatch");
  }
  for (int pop : population) {
    if (pop < 0) {
      throw std::invalid_argument("solve_approx_mva: negative population");
    }
  }

  // Chain-block dispatch geometry, fixed for the whole solve.
  util::ThreadPool* pool = ws.hints.pool;
  std::size_t num_blocks = 1;
  if (policy_ == mva::SigmaPolicy::kChanSingleChain && pool != nullptr &&
      pool->num_threads() > 1 && num_chains >= kParallelChainThreshold) {
    const std::size_t by_size =
        static_cast<std::size_t>((num_chains + kMinChainsPerBlock - 1) /
                                 kMinChainsPerBlock);
    num_blocks = std::min(pool->num_threads() * 2, by_size);
    num_blocks = std::max<std::size_t>(num_blocks, 1);
  }
  const std::size_t chunk =
      (static_cast<std::size_t>(num_chains) + num_blocks - 1) / num_blocks;

  const std::size_t visited = model.visited_cell_count();
  if (warm_start != nullptr &&
      (warm_start->lambda.size() != static_cast<std::size_t>(num_chains) ||
       warm_start->number.size() != visited ||
       (!warm_start->sigma.empty() && warm_start->sigma.size() != visited))) {
    throw std::invalid_argument(
        "solve_approx_mva: warm-start state does not match the model's "
        "chain count and visited cells");
  }

  ws.reset();
  const std::span<const int> cell_chain = model.cell_chain();
  const std::span<const int> cell_station = model.cell_station();
  const std::span<const double> demand = model.cell_demand();
  // Packed solve state over the visited cells.
  std::span<double> number = ws.zeroed_doubles(visited);
  std::span<double> time = ws.zeroed_doubles(visited);
  std::span<double> sigma = ws.zeroed_doubles(visited);
  std::span<double> lambda = ws.zeroed_doubles(num_chains);
  std::span<double> lambda_prev = ws.doubles(num_chains);
  std::span<double> lambda_sigma = ws.doubles(num_chains);
  std::span<double> busy = ws.doubles(num_stations);
  // Sigma subproblem layout, fixed for the solve: the chains in `order`,
  // dispatch blocks of `chunk` chains each sorted most-populated first
  // (idle chains last), and their cells laid out in slots chain after
  // chain, each chain's in ascending station order, so that one chain's
  // subproblem is one contiguous slot range.
  std::span<int> order = ws.ints(num_chains);
  for (int r = 0; r < num_chains; ++r) order[static_cast<std::size_t>(r)] = r;
  for (std::size_t begin = 0; begin < order.size(); begin += chunk) {
    const auto end = order.begin() +
                     static_cast<std::ptrdiff_t>(
                         std::min(order.size(), begin + chunk));
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(begin), end,
              [&](int a, int b) {
                const int pa = population[static_cast<std::size_t>(a)];
                const int pb = population[static_cast<std::size_t>(b)];
                return pa != pb ? pa > pb : a < b;
              });
  }
  std::span<int> slot_begin = ws.ints(order.size() + 1);  // per position
  std::span<int> slot_cell = ws.ints(visited);
  std::span<int> slot_delay = ws.ints(visited);
  int slots = 0;
  for (std::size_t c = 0; c < order.size(); ++c) {
    slot_begin[c] = slots;
    for (const int k : model.chain_cells(order[c])) {
      slot_cell[slots] = k;
      slot_delay[slots] = model.is_delay(cell_station[k]) ? 1 : 0;
      ++slots;
    }
  }
  slot_begin[order.size()] = slots;
  // Per slot: the inflated demand, and the two rolling levels of the
  // single-chain queue lengths.
  std::span<double> sub_demand = ws.doubles(visited);
  const std::array<std::span<double>, 2> level_number{ws.doubles(visited),
                                                      ws.doubles(visited)};

  // STEP 1: initialize mean queue sizes (thesis eq. 4.16/4.17) and the
  // chain throughputs from the uncongested cycle times — or, when a
  // warm start is given, from the nearby converged state.
  for (int r = 0; r < num_chains; ++r) {
    const int pop = population[static_cast<std::size_t>(r)];
    const std::span<const int> route = model.chain_cells(r);
    if (pop == 0 || route.empty()) continue;
    const double cycle = model.uncongested_cycle_time(r);
    if (!(cycle > 0.0)) {
      throw qn::ModelError("solve_approx_mva: chain '" +
                           model.source().chain(r).name +
                           "' has zero uncongested cycle time");
    }
    if (warm_start != nullptr) {
      for (const int k : route) {
        number[k] = std::max(0.0, warm_start->number[k]);
      }
      lambda[static_cast<std::size_t>(r)] =
          std::max(0.0, warm_start->lambda[static_cast<std::size_t>(r)]);
      if (lambda[static_cast<std::size_t>(r)] > 0.0) continue;
    }
    if (options.init == mva::InitPolicy::kBalanced) {
      const double share =
          static_cast<double>(pop) / static_cast<double>(route.size());
      for (const int k : route) number[k] = share;
    } else {
      int bottleneck = route.front();
      for (const int k : route) {
        if (demand[k] > demand[bottleneck]) bottleneck = k;
      }
      number[bottleneck] = pop;
    }
    lambda[static_cast<std::size_t>(r)] = pop / cycle;
  }

  Solution sol;
  sol.num_chains = num_chains;
  sol.converged = false;

  const bool lazy_sigma = warm_start != nullptr && !warm_start->sigma.empty();
  if (lazy_sigma) {
    for (std::size_t k = 0; k < visited; ++k) {
      sigma[k] = std::clamp(warm_start->sigma[k], 0.0, 1.0);
    }
    std::copy(lambda.begin(), lambda.end(), lambda_sigma.begin());
  }
  const auto sigma_drift = [&]() {
    double drift = 0.0;
    for (int r = 0; r < num_chains; ++r) {
      const double l = lambda[static_cast<std::size_t>(r)];
      const double d =
          std::abs(l - lambda_sigma[static_cast<std::size_t>(r)]);
      drift = std::max(drift, d / std::max(1.0, std::abs(l)));
    }
    return drift;
  };

  // The thesis-heuristic sigma update (STEP 2 body) of the chains
  // order[begin, end).  Reads lambda/busy (stable during a sweep) and
  // writes only those chains' cells — the independence that makes
  // chain-block dispatch deterministic.
  const auto chan_sigma = [&](std::size_t begin, std::size_t end) {
    while (end > begin &&
           population[static_cast<std::size_t>(order[end - 1])] == 0) {
      --end;
    }
    // Isolated single-chain problems with service times inflated by the
    // other chains' utilization (APL LP22-LP33).  rho_other comes from
    // the hoisted busy[] by subtracting the chain's own term; a
    // single-chain model keeps the legacy empty-sum zero verbatim.  A
    // zero-demand cell (the legacy subproblem leaves it out) gets a
    // zero demand here: it adds an exact +0.0 to each level's cycle
    // time and keeps its sigma.
    for (std::size_t c = begin; c < end; ++c) {
      const double rate = lambda[static_cast<std::size_t>(order[c])];
      for (int j = slot_begin[c]; j < slot_begin[c + 1]; ++j) {
        const int k = slot_cell[j];
        const double d = demand[k];
        double rho_other = 0.0;
        if (num_chains > 1) {
          const double own = rate * d;
          rho_other = busy[static_cast<std::size_t>(cell_station[k])] - own;
        }
        rho_other = std::clamp(rho_other, 0.0, options.utilization_clamp);
        sub_demand[j] = slot_delay[j] != 0 ? d : d / (1.0 - rho_other);
        level_number[0][j] = 0.0;
      }
    }
    // Single-chain MVA recursion (thesis eq. 4.1-4.4), one population
    // level at a time across the chains still below their population;
    // identical arithmetic to solve_single_chain for these fixed-rate/IS
    // subproblems.
    std::size_t active_end = end;
    for (int level = 1; active_end > begin; ++level) {
      const std::span<const double> prev =
          level_number[static_cast<std::size_t>(level - 1) & 1];
      const std::span<double> cur =
          level_number[static_cast<std::size_t>(level) & 1];
      for (std::size_t c = begin; c < active_end; ++c) {
        const int first = slot_begin[c];
        const int last = slot_begin[c + 1];
        double cycle_time = 0.0;
        for (int j = first; j < last; ++j) {
          cur[j] = slot_delay[j] != 0 ? sub_demand[j]
                                      : sub_demand[j] * (1.0 + prev[j]);
          cycle_time += cur[j];
        }
        if (!(cycle_time > 0.0)) {
          throw std::invalid_argument(
              "solve_single_chain: chain has zero total demand");
        }
        const double sc_lambda = level / cycle_time;
        for (int j = first; j < last; ++j) cur[j] = sc_lambda * cur[j];
      }
      while (active_end > begin &&
             population[static_cast<std::size_t>(order[active_end - 1])] <=
                 level) {
        --active_end;
      }
    }
    // Chain r's sigma: the queue increment from level E_r - 1 to E_r.
    for (std::size_t c = begin; c < end; ++c) {
      const auto pop = static_cast<std::size_t>(
          population[static_cast<std::size_t>(order[c])]);
      const std::span<const double> cur = level_number[pop & 1];
      const std::span<const double> prev = level_number[(pop - 1) & 1];
      for (int j = slot_begin[c]; j < slot_begin[c + 1]; ++j) {
        const int k = slot_cell[j];
        if (demand[k] <= 0.0) continue;
        sigma[k] = std::clamp(cur[j] - prev[j], 0.0, 1.0);
      }
    }
  };

  std::copy(lambda.begin(), lambda.end(), lambda_prev.begin());
  // Per-iteration telemetry (obs/convergence.h).  The recorder only
  // READS lambda/lambda_prev between STEP 6 and the lambda_prev copy;
  // the arithmetic of the iteration — and its bit-for-bit agreement
  // with mva::solve_approx_mva — is untouched.
  obs::ConvergenceRecorder* recorder = ws.hints.convergence;
  if (recorder != nullptr) {
    recorder->begin_solve(name(), num_chains, warm_start != nullptr);
  }
  bool force_sigma = false;
  const util::CancelToken* cancel = ws.hints.cancel;
  for (int iteration = 1; iteration <= options.max_iterations; ++iteration) {
    // Cooperative deadline/cancellation checkpoint: once per sweep, so
    // a continental-scale solve unwinds within one sweep of an expired
    // token.  Aborting never touches the sweep arithmetic — the kernel
    // stays bit-for-bit against mva::solve_approx_mva when it runs.
    if (cancel != nullptr && cancel->expired()) {
      if (recorder != nullptr) recorder->end_solve(iteration - 1, false);
      throw util::CancelledError(
          "heuristic-mva: solve cancelled after " +
          std::to_string(iteration - 1) + " sweeps");
    }
    const bool refresh_sigma =
        !lazy_sigma || force_sigma ||
        sigma_drift() > options.sigma_refresh_threshold;
    force_sigma = false;
    if (refresh_sigma) ++sol.sigma_refreshes;
    // STEP 2: estimate sigma_ir(r-).
    if (refresh_sigma) {
      if (options.sigma == mva::SigmaPolicy::kSchweitzerBard) {
        for (std::size_t k = 0; k < visited; ++k) {
          const int pop =
              population[static_cast<std::size_t>(cell_chain[k])];
          if (pop != 0) sigma[k] = number[k] / pop;
        }
      } else {
        if (num_chains > 1) {
          for (int n = 0; n < num_stations; ++n) {
            double b = 0.0;
            for (std::size_t k = model.station_cell_begin(n);
                 k < model.station_cell_begin(n + 1); ++k) {
              b += lambda[static_cast<std::size_t>(cell_chain[k])] *
                   demand[k];
            }
            busy[static_cast<std::size_t>(n)] = b;
          }
        }
        if (num_blocks <= 1) {
          chan_sigma(0, order.size());
        } else {
          std::vector<std::function<void()>> jobs;
          jobs.reserve(num_blocks);
          for (std::size_t begin = 0; begin < order.size(); begin += chunk) {
            const std::size_t end = std::min(order.size(), begin + chunk);
            jobs.push_back(
                [begin, end, &chan_sigma] { chan_sigma(begin, end); });
          }
          pool->run_batch(std::move(jobs));
        }
      }
    }
    if (refresh_sigma && lazy_sigma) {
      std::copy(lambda.begin(), lambda.end(), lambda_sigma.begin());
    }

    // STEP 3: mean queueing times (thesis eq. 4.13), station by station
    // with the station's queue total.
    for (int n = 0; n < num_stations; ++n) {
      const std::size_t first = model.station_cell_begin(n);
      const std::size_t last = model.station_cell_begin(n + 1);
      double total = 0.0;
      for (std::size_t k = first; k < last; ++k) total += number[k];
      const bool delay = model.is_delay(n);
      for (std::size_t k = first; k < last; ++k) {
        if (population[static_cast<std::size_t>(cell_chain[k])] == 0) {
          continue;
        }
        const double d = demand[k];
        if (d <= 0.0) {
          time[k] = 0.0;
        } else if (delay) {
          time[k] = d;
        } else {
          time[k] = d * (1.0 + std::max(0.0, total - sigma[k]));
        }
      }
    }

    // STEP 4: chain throughputs (Little for chains, thesis eq. 4.14); a
    // chain's cycle time adds its stations in ascending order.
    for (int r = 0; r < num_chains; ++r) {
      const int pop = population[static_cast<std::size_t>(r)];
      double cycle = 0.0;
      if (pop != 0) {
        for (const int k : model.chain_cells(r)) cycle += time[k];
      }
      lambda[static_cast<std::size_t>(r)] = pop == 0 ? 0.0 : pop / cycle;
    }

    // STEP 5: mean queue lengths (Little for stations, thesis eq. 4.15),
    // with optional under-relaxation.
    for (std::size_t k = 0; k < visited; ++k) {
      const double updated =
          lambda[static_cast<std::size_t>(cell_chain[k])] * time[k];
      number[k] =
          options.damping * updated + (1.0 - options.damping) * number[k];
    }

    // STEP 6: stopping condition on the throughput vector (APL CRIT).
    double crit = 0.0;
    double scale = 1.0;
    for (int r = 0; r < num_chains; ++r) {
      crit = std::max(crit, std::abs(lambda[static_cast<std::size_t>(r)] -
                                     lambda_prev[static_cast<std::size_t>(r)]));
      scale = std::max(scale, std::abs(lambda[static_cast<std::size_t>(r)]));
    }
    if (recorder != nullptr) {
      for (int r = 0; r < num_chains && r < obs::kMaxTrackedChains; ++r) {
        const double l = lambda[static_cast<std::size_t>(r)];
        const double p = lambda_prev[static_cast<std::size_t>(r)];
        recorder->record_chain(r, (l - p) / std::max(1.0, std::abs(l)));
      }
      recorder->record_iteration(crit / scale, options.damping);
    }
    std::copy(lambda.begin(), lambda.end(), lambda_prev.begin());
    sol.iterations = iteration;
    if (crit / scale < options.tolerance) {
      if (refresh_sigma) {
        sol.converged = true;
        break;
      }
      force_sigma = true;
    } else if (!refresh_sigma && crit / scale < options.tolerance * 1e2) {
      force_sigma = true;
    }
  }
  if (recorder != nullptr) {
    recorder->end_solve(sol.iterations, sol.converged);
  }

  // Dense [n * R + r] outputs; off the routes N, t and sigma are +0.0.
  const std::size_t cells = model.cell_count();
  const std::span<const std::size_t> cell_index = model.cell_index();
  std::span<double> dense_number = ws.zeroed_doubles(cells);
  std::span<double> dense_time = ws.zeroed_doubles(cells);
  std::span<double> dense_sigma = ws.zeroed_doubles(cells);
  for (std::size_t k = 0; k < visited; ++k) {
    dense_number[cell_index[k]] = number[k];
    dense_time[cell_index[k]] = time[k];
    dense_sigma[cell_index[k]] = sigma[k];
  }
  sol.chain_throughput = lambda;
  sol.mean_queue = dense_number;
  sol.mean_time = dense_time;
  sol.sigma = dense_sigma;
  return sol;
}

}  // namespace windim::solver
