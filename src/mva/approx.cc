#include "mva/approx.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mva/single_chain.h"
#include "obs/convergence.h"

namespace windim::mva {
namespace {

void check_model(const qn::NetworkModel& model) {
  model.validate();
  if (!model.all_closed()) {
    throw qn::ModelError("solve_approx_mva: all chains must be closed");
  }
  for (int n = 0; n < model.num_stations(); ++n) {
    if (!model.station(n).is_fixed_rate() && !model.station(n).is_delay()) {
      throw qn::ModelError(
          "solve_approx_mva: queue-dependent stations unsupported");
    }
  }
}

}  // namespace

MvaSolution solve_approx_mva(const qn::NetworkModel& model,
                             const ApproxMvaOptions& options,
                             const MvaWarmStart* warm_start) {
  check_model(model);
  if (!(options.damping > 0.0 && options.damping <= 1.0)) {
    throw std::invalid_argument("solve_approx_mva: damping must be in (0,1]");
  }
  const int num_stations = model.num_stations();
  const int num_chains = model.num_chains();

  // N[n * R + r], t[n * R + r].
  std::vector<double> number(
      static_cast<std::size_t>(num_stations) * num_chains, 0.0);
  std::vector<double> time(
      static_cast<std::size_t>(num_stations) * num_chains, 0.0);
  std::vector<double> lambda(static_cast<std::size_t>(num_chains), 0.0);
  std::vector<double> sigma(
      static_cast<std::size_t>(num_stations) * num_chains, 0.0);

  if (warm_start != nullptr &&
      (warm_start->lambda.size() != static_cast<std::size_t>(num_chains) ||
       warm_start->number.size() != number.size() ||
       (!warm_start->sigma.empty() &&
        warm_start->sigma.size() != sigma.size()))) {
    throw std::invalid_argument(
        "solve_approx_mva: warm-start state does not match the model's "
        "chain/station counts");
  }

  // STEP 1: initialize mean queue sizes (thesis eq. 4.16/4.17) and the
  // chain throughputs from the uncongested cycle times — or, when a
  // warm start is given, from the nearby converged state (zero-population
  // chains keep their zero state either way).
  for (int r = 0; r < num_chains; ++r) {
    const int pop = model.chain(r).population;
    const std::vector<int> stations = model.stations_of(r);
    if (pop == 0 || stations.empty()) continue;
    double cycle = 0.0;
    for (int n : stations) cycle += model.demand(r, n);
    if (!(cycle > 0.0)) {
      // All-zero demands: the uncongested cycle time vanishes and the
      // chain has no finite fixed point (lambda would seed at +inf).
      throw qn::ModelError("solve_approx_mva: chain '" +
                           model.chain(r).name +
                           "' has zero uncongested cycle time");
    }
    if (warm_start != nullptr) {
      for (int n : stations) {
        const std::size_t idx = static_cast<std::size_t>(n) * num_chains + r;
        number[idx] = std::max(0.0, warm_start->number[idx]);
      }
      lambda[static_cast<std::size_t>(r)] =
          std::max(0.0, warm_start->lambda[static_cast<std::size_t>(r)]);
      // A degenerate (zero-throughput) seed for a populated chain would
      // stall STEP 2's utilization inflation; fall through to cold init.
      if (lambda[static_cast<std::size_t>(r)] > 0.0) continue;
    }
    if (options.init == InitPolicy::kBalanced) {
      const double share = static_cast<double>(pop) /
                           static_cast<double>(stations.size());
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

  MvaSolution sol;
  sol.num_chains = num_chains;
  sol.converged = false;

  // Lazy sigma refresh (warm starts with a sigma seed only): keep the
  // seeded sigma while the throughput vector stays within
  // sigma_refresh_threshold of `lambda_sigma`, the state the current
  // sigma was estimated at.  The cold path (and warm starts without a
  // sigma seed) re-estimates sigma every sweep, exactly as the thesis
  // iteration does.  Like N in STEP 1, sigma is seeded on the chains'
  // routes only; off a route it stays 0 whatever the seed holds there.
  const bool lazy_sigma =
      warm_start != nullptr && !warm_start->sigma.empty();
  std::vector<double> lambda_sigma;
  if (lazy_sigma) {
    for (int r = 0; r < num_chains; ++r) {
      for (const int n : model.stations_of(r)) {
        const std::size_t idx = static_cast<std::size_t>(n) * num_chains + r;
        sigma[idx] = std::clamp(warm_start->sigma[idx], 0.0, 1.0);
      }
    }
    lambda_sigma = lambda;
  }
  const auto sigma_drift = [&]() {
    double drift = 0.0;
    for (int r = 0; r < num_chains; ++r) {
      const double l = lambda[static_cast<std::size_t>(r)];
      const double d = std::abs(l - lambda_sigma[static_cast<std::size_t>(r)]);
      drift = std::max(drift, d / std::max(1.0, std::abs(l)));
    }
    return drift;
  };

  // Hoisted per-station sweep reductions, shared with the native kernel
  // (solver/heuristic_mva.cc; the two files change in lockstep: the
  // same arithmetic per value and the same term order per sum):
  // busy[n] = sum_j lambda_j * D_jn feeds STEP 2's rho_other as
  // busy[n] - lambda_r * D_rn, and total[n] = sum_j N_jn replaces
  // STEP 3's per-(r,n) "others" sum (which never depended on r).  Both
  // drop a sweep from O(N R^2) to O(N R).  This solver keeps the dense
  // loops over every (chain, station) cell as the oracle; the kernel
  // keeps its state packed over the cells on the chains' routes, where
  // every skipped term here is an exact +0.0 (zero demand, so zero time
  // and queue), and keeps the same ascending order for the terms it
  // adds.
  std::vector<double> busy(static_cast<std::size_t>(num_stations), 0.0);
  std::vector<double> total(static_cast<std::size_t>(num_stations), 0.0);

  std::vector<double> lambda_prev(lambda);
  // Optional per-iteration telemetry; read-only observation of the
  // iterates, never part of the arithmetic.
  obs::ConvergenceRecorder* recorder = options.convergence;
  if (recorder != nullptr) {
    recorder->begin_solve("approx-mva", num_chains, warm_start != nullptr);
  }
  bool force_sigma = false;
  for (int iteration = 1; iteration <= options.max_iterations; ++iteration) {
    const bool refresh_sigma =
        !lazy_sigma || force_sigma ||
        sigma_drift() > options.sigma_refresh_threshold;
    force_sigma = false;
    if (refresh_sigma) ++sol.sigma_refreshes;
    // STEP 2: estimate sigma_ir(r-).
    if (refresh_sigma && options.sigma != SigmaPolicy::kSchweitzerBard &&
        num_chains > 1) {
      for (int n = 0; n < num_stations; ++n) {
        double b = 0.0;
        for (int j = 0; j < num_chains; ++j) {
          b += lambda[static_cast<std::size_t>(j)] * model.demand(j, n);
        }
        busy[static_cast<std::size_t>(n)] = b;
      }
    }
    for (int r = 0; refresh_sigma && r < num_chains; ++r) {
      const int pop = model.chain(r).population;
      if (pop == 0) continue;
      if (options.sigma == SigmaPolicy::kSchweitzerBard) {
        for (int n = 0; n < num_stations; ++n) {
          sigma[static_cast<std::size_t>(n) * num_chains + r] =
              number[static_cast<std::size_t>(n) * num_chains + r] / pop;
        }
        continue;
      }
      // Thesis heuristic: isolated single-chain problem with service
      // times inflated by the other chains' utilization (APL LP22-LP33).
      std::vector<SingleChainStation> sub;
      std::vector<int> sub_station;
      for (int n = 0; n < num_stations; ++n) {
        const double d = model.demand(r, n);
        if (d <= 0.0) continue;
        // Other chains' utilization from the hoisted busy[] minus this
        // chain's own term.  A single-chain model keeps the legacy
        // empty-sum zero verbatim: busy - own could round away from 0
        // under FP contraction, the literal 0.0 cannot.
        double rho_other = 0.0;
        if (num_chains > 1) {
          const double own = lambda[static_cast<std::size_t>(r)] * d;
          rho_other = busy[static_cast<std::size_t>(n)] - own;
        }
        rho_other = std::clamp(rho_other, 0.0, options.utilization_clamp);
        SingleChainStation s;
        s.station = model.station(n);
        s.demand =
            s.station.is_delay() ? d : d / (1.0 - rho_other);
        sub.push_back(std::move(s));
        sub_station.push_back(n);
      }
      const SingleChainResult sc = solve_single_chain(sub, pop);
      for (std::size_t k = 0; k < sub.size(); ++k) {
        const double increment =
            sc.mean_number[static_cast<std::size_t>(pop)][k] -
            sc.mean_number[static_cast<std::size_t>(pop) - 1][k];
        sigma[static_cast<std::size_t>(sub_station[k]) * num_chains + r] =
            std::clamp(increment, 0.0, 1.0);
      }
    }
    if (refresh_sigma && lazy_sigma) lambda_sigma = lambda;

    // STEP 3: mean queueing times (thesis eq. 4.13), with the hoisted
    // per-station queue totals (the "others" sum of the thesis text is
    // r-independent; sigma is subtracted per chain below).
    for (int n = 0; n < num_stations; ++n) {
      double t = 0.0;
      for (int j = 0; j < num_chains; ++j) {
        t += number[static_cast<std::size_t>(n) * num_chains + j];
      }
      total[static_cast<std::size_t>(n)] = t;
    }
    for (int r = 0; r < num_chains; ++r) {
      if (model.chain(r).population == 0) continue;
      for (int n = 0; n < num_stations; ++n) {
        const double d = model.demand(r, n);
        if (d <= 0.0) {
          time[static_cast<std::size_t>(n) * num_chains + r] = 0.0;
          continue;
        }
        if (model.station(n).is_delay()) {
          time[static_cast<std::size_t>(n) * num_chains + r] = d;
          continue;
        }
        const double seen = std::max(
            0.0,
            total[static_cast<std::size_t>(n)] -
                sigma[static_cast<std::size_t>(n) * num_chains + r]);
        time[static_cast<std::size_t>(n) * num_chains + r] =
            d * (1.0 + seen);
      }
    }

    // STEP 4: chain throughputs (Little for chains, thesis eq. 4.14).
    for (int r = 0; r < num_chains; ++r) {
      const int pop = model.chain(r).population;
      if (pop == 0) {
        lambda[static_cast<std::size_t>(r)] = 0.0;
        continue;
      }
      double cycle = 0.0;
      for (int n = 0; n < num_stations; ++n) {
        cycle += time[static_cast<std::size_t>(n) * num_chains + r];
      }
      lambda[static_cast<std::size_t>(r)] = pop / cycle;
    }

    // STEP 5: mean queue lengths (Little for stations, thesis eq. 4.15),
    // with optional under-relaxation.
    for (int r = 0; r < num_chains; ++r) {
      for (int n = 0; n < num_stations; ++n) {
        const std::size_t idx =
            static_cast<std::size_t>(n) * num_chains + r;
        const double updated = lambda[static_cast<std::size_t>(r)] *
                               time[idx];
        number[idx] =
            options.damping * updated + (1.0 - options.damping) * number[idx];
      }
    }

    // STEP 6: stopping condition on the throughput vector (APL CRIT).
    double crit = 0.0;
    double scale = 1.0;
    for (int r = 0; r < num_chains; ++r) {
      crit = std::max(crit,
                      std::abs(lambda[static_cast<std::size_t>(r)] -
                               lambda_prev[static_cast<std::size_t>(r)]));
      scale = std::max(scale,
                       std::abs(lambda[static_cast<std::size_t>(r)]));
    }
    if (recorder != nullptr) {
      for (int r = 0; r < num_chains && r < obs::kMaxTrackedChains; ++r) {
        const double l = lambda[static_cast<std::size_t>(r)];
        const double p = lambda_prev[static_cast<std::size_t>(r)];
        recorder->record_chain(r, (l - p) / std::max(1.0, std::abs(l)));
      }
      recorder->record_iteration(crit / scale, options.damping);
    }
    lambda_prev = lambda;
    sol.iterations = iteration;
    if (crit / scale < options.tolerance) {
      if (refresh_sigma) {
        // Sigma is freshly consistent with this iterate (the cold
        // iteration's stopping state): converged.
        sol.converged = true;
        break;
      }
      // The cheap stale-sigma sweeps settled; polish with a fresh sigma
      // before accepting, so the warm fixed point matches the cold one.
      force_sigma = true;
    } else if (!refresh_sigma && crit / scale < options.tolerance * 1e2) {
      // Stale sweeps have nearly settled: further progress needs a fresh
      // sigma, so refresh now instead of polishing a stale fixed point
      // to full precision first.
      force_sigma = true;
    }
  }
  if (recorder != nullptr) {
    recorder->end_solve(sol.iterations, sol.converged);
  }

  sol.chain_throughput = lambda;
  sol.mean_queue = number;
  sol.mean_time = time;
  sol.sigma = std::move(sigma);
  return sol;
}

}  // namespace windim::mva
