// Semiclosed multichain networks (thesis 3.3.3, after Georganas).
//
// A chain r is *semiclosed* when its population may fluctuate between
// bounds: customers arrive in a Poisson stream of rate lambda_r while
// the population is below H+_r and are blocked (lost) at the bound;
// a departing customer is replaced immediately when the population is
// at H-_r.  The product form extends with the open-network factor
// d(S) = prod_r lambda_r^{h_r} restricted to the feasible band
// (thesis eq. 3.15c with the feasible state space F_s of 3.3.3):
//
//    P(pop = h) ~ prod_r lambda_r^{h_r} * g(h),
//
// where g(h) is the *closed* normalization constant at population
// vector h - exactly what the convolution algorithm already computes on
// the whole lattice.  This solver reuses that lattice and derives chain
// population distributions, blocking probabilities, carried throughput
// and mean queue lengths.
//
// Window flow control reading: a virtual channel whose source emits
// Poisson traffic and admits at most E_r unacknowledged messages is a
// semiclosed chain over its route queues with bounds [0, E_r] - an
// alternative to the thesis's closed-chain model (which replaces the
// source by an exponential server).  The "semiclosed" registry solver
// evaluates window settings with it.
#pragma once

#include <vector>

#include "qn/network.h"
#include "util/mixed_radix.h"

namespace windim::exact {

/// Per-chain semiclosed specification.
struct SemiclosedChainSpec {
  double arrival_rate = 0.0;  // lambda_r, customers/s
  int min_population = 0;     // H-_r
  int max_population = 0;     // H+_r (>= min)
};

/// Optional network-wide population band (thesis 3.3.3: "the whole
/// network is semiclosed with parameters H- and H+").  A global maximum
/// is the analytic model of ISARITHMIC flow control (thesis 2.2.3): a
/// pool of H+ permits, arrivals of every chain lost while all permits
/// are in use.
struct SemiclosedGlobalBound {
  int min_population = 0;
  /// < 0 means unbounded above (per-chain bounds still apply).
  int max_population = -1;
};

struct SemiclosedResult {
  util::MixedRadixIndexer indexer;  // lattice up to max populations
  /// Joint population distribution over the lattice (zero outside the
  /// feasible band).
  std::vector<double> population_probability;

  /// Per chain: carried throughput lambda_r * (1 - P_block,r).
  std::vector<double> carried_throughput;
  /// Per chain: probability an arrival is blocked - the chain is at its
  /// own bound or the network is at the global bound.
  std::vector<double> blocking_probability;
  /// Per chain: mean population E[h_r].
  std::vector<double> mean_population;
  /// Per chain marginal population distribution p_r[k], k = 0..H+_r.
  std::vector<std::vector<double>> population_marginal;
  /// mean_queue[n * R + r]: station-level mean queue lengths.
  std::vector<double> mean_queue;
  int num_chains = 0;

  [[nodiscard]] double queue_length(int station, int chain) const {
    return mean_queue.at(static_cast<std::size_t>(station) * num_chains +
                         chain);
  }
};

/// Solves a network whose chains are ALL semiclosed: the model's chains
/// must be closed-typed (their `population` field is ignored; the spec
/// provides the bounds), with fixed-rate and IS stations.  Throws
/// qn::ModelError / std::invalid_argument on malformed input (including
/// an empty feasible band).
[[nodiscard]] SemiclosedResult solve_semiclosed(
    const qn::NetworkModel& model,
    const std::vector<SemiclosedChainSpec>& specs,
    const SemiclosedGlobalBound& global = {});

}  // namespace windim::exact
