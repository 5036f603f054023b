#include "mva/exact_multichain.h"

#include <stdexcept>

#include "qn/error.h"
#include "util/checked_math.h"
#include "util/mixed_radix.h"

namespace windim::mva {

MvaSolution solve_exact_multichain(const qn::NetworkModel& model) {
  model.validate();
  if (!model.all_closed()) {
    throw qn::ModelError("solve_exact_multichain: all chains must be closed");
  }
  const int num_stations = model.num_stations();
  const int num_chains = model.num_chains();
  for (int n = 0; n < num_stations; ++n) {
    if (!model.station(n).is_fixed_rate() && !model.station(n).is_delay()) {
      throw qn::ModelError(
          "solve_exact_multichain: queue-dependent stations unsupported; "
          "use exact::solve_convolution");
    }
  }

  util::PopVector populations(static_cast<std::size_t>(num_chains));
  for (int r = 0; r < num_chains; ++r) {
    populations[static_cast<std::size_t>(r)] = model.chain(r).population;
  }
  const util::MixedRadixIndexer indexer(populations);

  // total_number[offset * N + n]: total mean customers at station n for
  // the population vector at `offset`.
  std::size_t cells = 0;
  if (util::mul_overflows(indexer.size(),
                          static_cast<std::size_t>(num_stations), cells)) {
    throw qn::OverflowError(
        "solve_exact_multichain: lattice x stations overflows std::size_t");
  }
  std::vector<double> total_number(cells, 0.0);
  std::vector<double> time(
      static_cast<std::size_t>(num_stations) * num_chains, 0.0);
  std::vector<double> lambda(static_cast<std::size_t>(num_chains), 0.0);

  util::PopVector v(static_cast<std::size_t>(num_chains), 0);
  // Skip the all-zero point (already zeroed) and walk the lattice in
  // ascending offset order so n - e_r is always available.
  while (indexer.next(v)) {
    const std::size_t off = indexer.offset(v);
    for (int r = 0; r < num_chains; ++r) {
      lambda[static_cast<std::size_t>(r)] = 0.0;
      if (v[static_cast<std::size_t>(r)] == 0) continue;
      const std::size_t off_prev =
          indexer.offset_minus_one(v, static_cast<std::size_t>(r));
      double cycle = 0.0;
      for (int n = 0; n < num_stations; ++n) {
        const double d = model.demand(r, n);
        double t = 0.0;
        if (d > 0.0) {
          t = model.station(n).is_delay()
                  ? d
                  : d * (1.0 +
                         total_number[off_prev * num_stations + n]);
        }
        time[static_cast<std::size_t>(n) * num_chains + r] = t;
        cycle += t;
      }
      lambda[static_cast<std::size_t>(r)] =
          v[static_cast<std::size_t>(r)] / cycle;
    }
    for (int n = 0; n < num_stations; ++n) {
      double total = 0.0;
      for (int r = 0; r < num_chains; ++r) {
        if (v[static_cast<std::size_t>(r)] == 0) continue;
        total += lambda[static_cast<std::size_t>(r)] *
                 time[static_cast<std::size_t>(n) * num_chains + r];
      }
      total_number[off * num_stations + n] = total;
    }
  }
  // After the loop, `v` wrapped to all-zero; recompute metrics at the full
  // population vector.
  MvaSolution sol;
  sol.num_chains = num_chains;
  sol.iterations = 1;
  sol.chain_throughput.assign(static_cast<std::size_t>(num_chains), 0.0);
  sol.mean_queue.assign(
      static_cast<std::size_t>(num_stations) * num_chains, 0.0);
  sol.mean_time.assign(
      static_cast<std::size_t>(num_stations) * num_chains, 0.0);

  for (int r = 0; r < num_chains; ++r) {
    if (populations[static_cast<std::size_t>(r)] == 0) continue;
    const std::size_t off_prev =
        indexer.offset_minus_one(populations, static_cast<std::size_t>(r));
    double cycle = 0.0;
    for (int n = 0; n < num_stations; ++n) {
      const double d = model.demand(r, n);
      double t = 0.0;
      if (d > 0.0) {
        t = model.station(n).is_delay()
                ? d
                : d * (1.0 + total_number[off_prev * num_stations + n]);
      }
      sol.mean_time[static_cast<std::size_t>(n) * num_chains + r] = t;
      cycle += t;
    }
    sol.chain_throughput[static_cast<std::size_t>(r)] =
        populations[static_cast<std::size_t>(r)] / cycle;
    for (int n = 0; n < num_stations; ++n) {
      sol.mean_queue[static_cast<std::size_t>(n) * num_chains + r] =
          sol.chain_throughput[static_cast<std::size_t>(r)] *
          sol.mean_time[static_cast<std::size_t>(n) * num_chains + r];
    }
  }
  return sol;
}

}  // namespace windim::mva
