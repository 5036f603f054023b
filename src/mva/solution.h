// Common result type of the mean-value-analysis solvers.
#pragma once

#include <cstddef>
#include <vector>

namespace windim::mva {

struct MvaSolution {
  /// Chain completion rates (cycles/s), one per chain.
  std::vector<double> chain_throughput;
  /// mean_queue[n * R + r]: mean chain-r customers at station n.
  std::vector<double> mean_queue;
  /// mean_time[n * R + r]: mean time chain r spends at station n per
  /// chain cycle (queueing + service; equals per-visit time when the
  /// visit ratio is 1, as in the flow-control models).
  std::vector<double> mean_time;
  /// sigma[n * R + r]: the heuristic's converged "self-customer seen"
  /// estimates (thesis eq. 4.11/4.12); empty for the exact solvers.
  /// Seeds the sigma of a warm-started neighboring solve.
  std::vector<double> sigma;
  int num_chains = 0;

  /// Iterations used (1 for the exact recursive solvers).
  int iterations = 0;
  /// Sweeps that re-ran the (expensive) sigma estimation; equals
  /// `iterations` except for sigma-seeded warm starts, which refresh
  /// sigma lazily (see ApproxMvaOptions::sigma_refresh_threshold).
  int sigma_refreshes = 0;
  bool converged = true;

  [[nodiscard]] double queue_length(int station, int chain) const {
    return mean_queue.at(static_cast<std::size_t>(station) * num_chains +
                         chain);
  }
  [[nodiscard]] double time(int station, int chain) const {
    return mean_time.at(static_cast<std::size_t>(station) * num_chains +
                        chain);
  }
};

}  // namespace windim::mva
