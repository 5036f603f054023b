#include "solver/heuristic_mva.h"

#include <algorithm>
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

// The iteration below is mva::solve_approx_mva transplanted onto the
// CompiledModel flat arrays, with the sigma subproblem's single-chain
// MVA recursion inlined in rolling two-level form.  Operation ORDER is
// deliberately identical to the legacy code — the compiled_equivalence
// suite compares the two bit-for-bit — so resist "obvious"
// refactorings that reassociate any floating-point sum.
//
// Sweep structure (this file and mva/approx.cc changed in lockstep):
// the per-(chain,station) O(R) inner reductions of STEPs 2 and 3 are
// hoisted into per-station slabs computed once per sweep —
//   busy[n]  = sum_j lambda_j * D_jn   (STEP 2's rho_other becomes
//              busy[n] - lambda_r * D_rn; exactly 0 for single-chain
//              models, where the term-free legacy sum is kept verbatim)
//   total[n] = sum_j N_jn              (STEP 3's "others", which never
//              depended on r to begin with)
// — dropping a sweep from O(N R^2) to O(N R), and STEPs 3-5 iterate the
// station-major SoA demand slab so the chain-inner loops are
// unit-stride.  STEP 2's per-chain subproblems are independent given
// the hoisted busy[], which is what the optional chain-block pool
// dispatch (SolveHints::pool) exploits; block partitioning never
// changes any per-chain arithmetic, so the result is bit-identical to
// the serial sweep.
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

  ws.reset();
  const std::size_t cells = model.cell_count();
  // N[n * R + r], t[n * R + r] — station-major, like the legacy solver.
  std::span<double> number = ws.zeroed_doubles(cells);
  std::span<double> time = ws.zeroed_doubles(cells);
  std::span<double> lambda = ws.zeroed_doubles(num_chains);
  std::span<double> sigma = ws.zeroed_doubles(cells);
  std::span<double> lambda_prev = ws.doubles(num_chains);
  std::span<double> lambda_sigma = ws.doubles(num_chains);
  // Hoisted per-sweep station reductions and chain cycle accumulators.
  std::span<double> busy = ws.doubles(num_stations);
  std::span<double> total = ws.doubles(num_stations);
  std::span<double> cycle_acc = ws.doubles(num_chains);
  // Sigma subproblem scratch (<= num_stations entries used per chain),
  // one stripe of num_stations entries per chain block.
  const std::size_t scratch_cells =
      num_blocks * static_cast<std::size_t>(num_stations);
  std::span<double> sub_demand = ws.doubles(scratch_cells);
  std::span<int> sub_station = ws.ints(scratch_cells);
  std::span<int> sub_delay = ws.ints(scratch_cells);
  std::span<double> sc_number_prev = ws.doubles(scratch_cells);
  std::span<double> sc_number_cur = ws.doubles(scratch_cells);
  std::span<double> sc_time = ws.doubles(scratch_cells);

  const std::span<const double> dsm = model.station_major_demands();

  if (warm_start != nullptr &&
      (warm_start->lambda.size() != static_cast<std::size_t>(num_chains) ||
       warm_start->number.size() != cells ||
       (!warm_start->sigma.empty() && warm_start->sigma.size() != cells))) {
    throw std::invalid_argument(
        "solve_approx_mva: warm-start state does not match the model's "
        "chain/station counts");
  }

  // STEP 1: initialize mean queue sizes (thesis eq. 4.16/4.17) and the
  // chain throughputs from the uncongested cycle times — or, when a
  // warm start is given, from the nearby converged state.
  for (int r = 0; r < num_chains; ++r) {
    const int pop = population[static_cast<std::size_t>(r)];
    const std::span<const int> stations = model.stations_of(r);
    if (pop == 0 || stations.empty()) continue;
    double cycle = 0.0;
    for (int n : stations) cycle += model.demand(r, n);
    if (!(cycle > 0.0)) {
      throw qn::ModelError("solve_approx_mva: chain '" +
                           model.source().chain(r).name +
                           "' has zero uncongested cycle time");
    }
    if (warm_start != nullptr) {
      for (int n : stations) {
        const std::size_t idx = static_cast<std::size_t>(n) * num_chains + r;
        number[idx] = std::max(0.0, warm_start->number[idx]);
      }
      lambda[static_cast<std::size_t>(r)] =
          std::max(0.0, warm_start->lambda[static_cast<std::size_t>(r)]);
      if (lambda[static_cast<std::size_t>(r)] > 0.0) continue;
    }
    if (options.init == mva::InitPolicy::kBalanced) {
      const double share =
          static_cast<double>(pop) / static_cast<double>(stations.size());
      for (int n : stations) {
        number[static_cast<std::size_t>(n) * num_chains + r] = share;
      }
    } else {
      int bottleneck = stations.front();
      for (int n : stations) {
        if (model.demand(r, n) > model.demand(r, bottleneck)) bottleneck = n;
      }
      number[static_cast<std::size_t>(bottleneck) * num_chains + r] = pop;
    }
    lambda[static_cast<std::size_t>(r)] = pop / cycle;
  }

  Solution sol;
  sol.num_chains = num_chains;
  sol.converged = false;

  const bool lazy_sigma = warm_start != nullptr && !warm_start->sigma.empty();
  if (lazy_sigma) {
    for (std::size_t i = 0; i < cells; ++i) {
      sigma[i] = std::clamp(warm_start->sigma[i], 0.0, 1.0);
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

  // The thesis-heuristic sigma update of one chain (STEP 2 body), using
  // the scratch stripe starting at `base`.  Reads lambda/busy (stable
  // during a sweep), writes only sigma column r and its own stripe —
  // the independence that makes chain-block dispatch deterministic.
  const auto chan_sigma_chain = [&](int r, std::size_t base) {
    const int pop = population[static_cast<std::size_t>(r)];
    if (pop == 0) return;
    // Isolated single-chain problem with service times inflated by the
    // other chains' utilization (APL LP22-LP33).  rho_other comes from
    // the hoisted busy[] by subtracting the chain's own term; a
    // single-chain model keeps the legacy empty-sum zero verbatim.
    const std::span<const double> drow = model.demands_of(r);
    std::size_t sub_size = 0;
    for (const int n : model.stations_of(r)) {
      const double d = drow[static_cast<std::size_t>(n)];
      if (d <= 0.0) continue;
      double rho_other = 0.0;
      if (num_chains > 1) {
        const double own = lambda[static_cast<std::size_t>(r)] * d;
        rho_other = busy[static_cast<std::size_t>(n)] - own;
      }
      rho_other = std::clamp(rho_other, 0.0, options.utilization_clamp);
      const bool delay = model.is_delay(n);
      sub_demand[base + sub_size] = delay ? d : d / (1.0 - rho_other);
      sub_delay[base + sub_size] = delay ? 1 : 0;
      sub_station[base + sub_size] = n;
      ++sub_size;
    }
    // Single-chain MVA recursion (thesis eq. 4.1-4.4) in rolling
    // two-level form; identical arithmetic to solve_single_chain for
    // these fixed-rate/IS subproblems.
    for (std::size_t k = 0; k < sub_size; ++k) sc_number_prev[base + k] = 0.0;
    for (int k = 1; k <= pop; ++k) {
      double cycle_time = 0.0;
      for (std::size_t i = 0; i < sub_size; ++i) {
        sc_time[base + i] =
            sub_delay[base + i] != 0
                ? sub_demand[base + i]
                : sub_demand[base + i] * (1.0 + sc_number_prev[base + i]);
        cycle_time += sc_time[base + i];
      }
      if (!(cycle_time > 0.0)) {
        throw std::invalid_argument(
            "solve_single_chain: chain has zero total demand");
      }
      const double sc_lambda = k / cycle_time;
      for (std::size_t i = 0; i < sub_size; ++i) {
        sc_number_cur[base + i] = sc_lambda * sc_time[base + i];
      }
      if (k < pop) {
        std::swap_ranges(sc_number_prev.begin() + base,
                         sc_number_prev.begin() + base + sub_size,
                         sc_number_cur.begin() + base);
      }
    }
    for (std::size_t i = 0; i < sub_size; ++i) {
      const double increment = sc_number_cur[base + i] - sc_number_prev[base + i];
      sigma[static_cast<std::size_t>(sub_station[base + i]) * num_chains + r] =
          std::clamp(increment, 0.0, 1.0);
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
        for (int r = 0; r < num_chains; ++r) {
          const int pop = population[static_cast<std::size_t>(r)];
          if (pop == 0) continue;
          for (int n = 0; n < num_stations; ++n) {
            sigma[static_cast<std::size_t>(n) * num_chains + r] =
                number[static_cast<std::size_t>(n) * num_chains + r] / pop;
          }
        }
      } else {
        if (num_chains > 1) {
          // Hoisted per-station busy time, chain-ascending like the
          // legacy per-(r,n) accumulation.
          for (int n = 0; n < num_stations; ++n) {
            const std::size_t row =
                static_cast<std::size_t>(n) * num_chains;
            double b = 0.0;
            for (int j = 0; j < num_chains; ++j) {
              b += lambda[static_cast<std::size_t>(j)] * dsm[row + j];
            }
            busy[static_cast<std::size_t>(n)] = b;
          }
        }
        if (num_blocks <= 1) {
          for (int r = 0; r < num_chains; ++r) chan_sigma_chain(r, 0);
        } else {
          const int chunk = static_cast<int>(
              (static_cast<std::size_t>(num_chains) + num_blocks - 1) /
              num_blocks);
          std::vector<std::function<void()>> jobs;
          jobs.reserve(num_blocks);
          for (std::size_t b = 0; b < num_blocks; ++b) {
            const int begin = static_cast<int>(b) * chunk;
            const int end =
                std::min(num_chains, begin + chunk);
            if (begin >= end) break;
            const std::size_t base =
                b * static_cast<std::size_t>(num_stations);
            jobs.push_back([begin, end, base, &chan_sigma_chain] {
              for (int r = begin; r < end; ++r) chan_sigma_chain(r, base);
            });
          }
          pool->run_batch(std::move(jobs));
        }
      }
    }
    if (refresh_sigma && lazy_sigma) {
      std::copy(lambda.begin(), lambda.end(), lambda_sigma.begin());
    }

    // STEP 3: mean queueing times (thesis eq. 4.13), station-major over
    // the SoA demand slab with the hoisted per-station totals (the
    // legacy "others" sum never depended on the observing chain).
    for (int n = 0; n < num_stations; ++n) {
      const std::size_t row = static_cast<std::size_t>(n) * num_chains;
      double t = 0.0;
      for (int j = 0; j < num_chains; ++j) t += number[row + j];
      total[static_cast<std::size_t>(n)] = t;
    }
    for (int n = 0; n < num_stations; ++n) {
      const std::size_t row = static_cast<std::size_t>(n) * num_chains;
      const bool delay = model.is_delay(n);
      for (int r = 0; r < num_chains; ++r) {
        if (population[static_cast<std::size_t>(r)] == 0) continue;
        const double d = dsm[row + r];
        if (d <= 0.0) {
          time[row + r] = 0.0;
          continue;
        }
        if (delay) {
          time[row + r] = d;
          continue;
        }
        const double seen = std::max(
            0.0, total[static_cast<std::size_t>(n)] - sigma[row + r]);
        time[row + r] = d * (1.0 + seen);
      }
    }

    // STEP 4: chain throughputs (Little for chains, thesis eq. 4.14).
    // Station-major accumulation; per chain the additions run in the
    // same ascending-station order as the legacy strided sum.
    for (int r = 0; r < num_chains; ++r) {
      cycle_acc[static_cast<std::size_t>(r)] = 0.0;
    }
    for (int n = 0; n < num_stations; ++n) {
      const std::size_t row = static_cast<std::size_t>(n) * num_chains;
      for (int r = 0; r < num_chains; ++r) {
        cycle_acc[static_cast<std::size_t>(r)] += time[row + r];
      }
    }
    for (int r = 0; r < num_chains; ++r) {
      const int pop = population[static_cast<std::size_t>(r)];
      lambda[static_cast<std::size_t>(r)] =
          pop == 0 ? 0.0 : pop / cycle_acc[static_cast<std::size_t>(r)];
    }

    // STEP 5: mean queue lengths (Little for stations, thesis eq. 4.15),
    // with optional under-relaxation; unit-stride across chains.
    for (int n = 0; n < num_stations; ++n) {
      const std::size_t row = static_cast<std::size_t>(n) * num_chains;
      for (int r = 0; r < num_chains; ++r) {
        const double updated =
            lambda[static_cast<std::size_t>(r)] * time[row + r];
        number[row + r] =
            options.damping * updated +
            (1.0 - options.damping) * number[row + r];
      }
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

  sol.chain_throughput = lambda;
  sol.mean_queue = number;
  sol.mean_time = time;
  sol.sigma = sigma;
  return sol;
}

}  // namespace windim::solver
