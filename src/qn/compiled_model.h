// Compile-once/solve-many representation of a NetworkModel.
//
// WINDIM's whole point (thesis 4.2) is that dimensioning evaluates the
// *same* network at hundreds of window vectors; only the closed-chain
// populations change between evaluations.  A CompiledModel is an
// immutable, pre-validated, flat-array compilation of a NetworkModel
// built once per dimensioning run:
//
//   - per-(chain,station) demand / service-time / visit-ratio matrices
//     (no .at() bounds checks, no hash lookups in solver hot loops);
//   - station type tags (fixed-rate / delay / queue-dependent) and
//     flattened rate-multiplier tables;
//   - the chain -> station map in CSR form (stations_of(r)), and the
//     visited (station, chain) cells numbered station by station, with
//     a per-chain cell list;
//   - cached per-chain uncongested cycle time, bottleneck station and
//     maximum demand (the convolution algorithm's rescaling factor);
//   - optional semiclosed metadata (per-chain Poisson arrival rates and
//     lower population bounds) for the semiclosed solver view.
//
// Populations are *not* compiled in: every solver::Solver::solve call
// receives an explicit population vector, so a single CompiledModel
// serves the whole window search.  The source NetworkModel is retained
// for solvers that still run on the legacy representation (see
// solver::Workspace::scratch_model).
//
// Thread safety: a CompiledModel is immutable after compile() and may
// be shared freely across threads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qn/network.h"

namespace windim::qn {

enum class StationKind : unsigned char {
  kFixedRate,
  kDelay,
  kQueueDependent,
};

/// Optional compile-time metadata.
struct CompileOptions {
  /// Per-chain Poisson arrival rates for the semiclosed view (empty =
  /// the model has no semiclosed interpretation).  Size must equal the
  /// chain count when non-empty.
  std::vector<double> semiclosed_arrival_rate;
  /// Per-chain lower population bounds for the semiclosed view; empty
  /// means all zero.
  std::vector<int> semiclosed_min_population;
};

class CompiledModel {
 public:
  /// An empty placeholder (0 stations/chains); assign from compile()
  /// before use.  Exists so owners can compile in a constructor body.
  CompiledModel() = default;

  /// Validates `model` once and compiles it.  Throws ModelError on
  /// invalid models and std::invalid_argument on malformed options.
  [[nodiscard]] static CompiledModel compile(const NetworkModel& model,
                                             CompileOptions options = {});

  [[nodiscard]] int num_stations() const noexcept { return num_stations_; }
  [[nodiscard]] int num_chains() const noexcept { return num_chains_; }
  /// Flat cell count num_stations * num_chains, computed once at
  /// compile() through an overflow-checked 64-bit multiply (throws
  /// OverflowError there, never wraps here).
  [[nodiscard]] std::size_t cell_count() const noexcept { return cells_; }
  [[nodiscard]] bool all_closed() const noexcept { return all_closed_; }
  [[nodiscard]] bool has_queue_dependent() const noexcept {
    return has_queue_dependent_;
  }

  /// The validated source model (for legacy solver entry points).
  [[nodiscard]] const NetworkModel& source() const noexcept { return source_; }

  /// Process-unique compilation id (0 only for the empty placeholder).
  /// Workspaces key their per-model scratch caches on this — unlike an
  /// address, an id is never reused when one compiled model is
  /// destroyed and another allocated in its place.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  // --- per-(chain,station) matrices -------------------------------------
  [[nodiscard]] double demand(int r, int n) const {
    return demand_cm_[static_cast<std::size_t>(r) * num_stations_ + n];
  }
  [[nodiscard]] double service_time(int r, int n) const {
    return service_time_cm_[static_cast<std::size_t>(r) * num_stations_ + n];
  }
  [[nodiscard]] double visit_ratio(int r, int n) const {
    return visit_ratio_cm_[static_cast<std::size_t>(r) * num_stations_ + n];
  }

  /// Chain r's total demand at delay (IS) stations.  delay_demand(r) /
  /// uncongested_cycle_time(r) is the delay-dominance fraction the
  /// solver registry's shape-based routing dispatches on.
  [[nodiscard]] double delay_demand(int r) const {
    return delay_demand_[static_cast<std::size_t>(r)];
  }

  // --- station typing ---------------------------------------------------
  [[nodiscard]] StationKind station_kind(int n) const {
    return station_kind_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] bool is_delay(int n) const {
    return station_kind(n) == StationKind::kDelay;
  }
  [[nodiscard]] bool is_fixed_rate(int n) const {
    return station_kind(n) == StationKind::kFixedRate;
  }
  /// Relative service rate with j >= 1 customers present (mirrors
  /// Station::rate_multiplier without the virtual-free hot path caveat).
  [[nodiscard]] double rate_multiplier(int n, int j) const;

  // --- chain -> station map (CSR) ---------------------------------------
  /// Station indices visited by chain r, ascending ("Q(r)").
  [[nodiscard]] std::span<const int> stations_of(int r) const {
    return {chain_station_ids_.data() + chain_station_offset_[r],
            chain_station_offset_[r + 1] - chain_station_offset_[r]};
  }

  // --- visited cells ----------------------------------------------------
  // The (station, chain) cells on the chains' routes, numbered
  // k = 0 .. visited_cell_count() - 1 in station->chain CSR order:
  // station n owns cells [station_cell_begin(n), station_cell_begin(n +
  // 1)), one per visiting chain, chains ascending.  Every other cell
  // has zero demand.  The heuristic-MVA kernel keeps its state packed
  // over these cells, and the warm-start store packs converged states
  // in the same order.
  [[nodiscard]] std::size_t visited_cell_count() const noexcept {
    return station_chain_ids_.size();
  }
  [[nodiscard]] std::size_t station_cell_begin(int n) const {
    return station_chain_offset_[static_cast<std::size_t>(n)];
  }
  /// Station of cell k.
  [[nodiscard]] std::span<const int> cell_station() const noexcept {
    return cell_station_;
  }
  /// Chain of cell k; station n's slice lists the chains visiting it
  /// ("R(i)").
  [[nodiscard]] std::span<const int> cell_chain() const noexcept {
    return station_chain_ids_;
  }
  /// Dense index n * R + r of cell k, for the [n * R + r] matrices.
  [[nodiscard]] std::span<const std::size_t> cell_index() const noexcept {
    return cell_index_;
  }
  /// Demand of cell k (the same value as demand(r, n)).
  [[nodiscard]] std::span<const double> cell_demand() const noexcept {
    return cell_demand_;
  }
  /// Chain r's cells in stations_of(r) order.
  [[nodiscard]] std::span<const int> chain_cells(int r) const {
    return {chain_cell_ids_.data() + chain_station_offset_[r],
            chain_station_offset_[r + 1] - chain_station_offset_[r]};
  }

  // --- cached per-chain aggregates --------------------------------------
  /// Sum of chain r's demands (the uncongested cycle time, thesis 4.2).
  [[nodiscard]] double uncongested_cycle_time(int r) const {
    return cycle_time_[static_cast<std::size_t>(r)];
  }
  /// Station with chain r's largest demand (-1 for a demandless chain).
  [[nodiscard]] int bottleneck_station(int r) const {
    return bottleneck_[static_cast<std::size_t>(r)];
  }
  /// Chain r's maximum demand (the convolution rescaling factor beta_r).
  [[nodiscard]] double max_demand(int r) const {
    return max_demand_[static_cast<std::size_t>(r)];
  }

  /// The source model's closed-chain populations, in chain order (the
  /// default population vector of a solve).
  [[nodiscard]] std::span<const int> base_populations() const noexcept {
    return base_populations_;
  }

  // --- semiclosed metadata ----------------------------------------------
  [[nodiscard]] bool has_semiclosed_spec() const noexcept {
    return !semiclosed_rate_.empty();
  }
  [[nodiscard]] double semiclosed_arrival_rate(int r) const {
    return semiclosed_rate_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] int semiclosed_min_population(int r) const {
    return semiclosed_min_.empty() ? 0
                                   : semiclosed_min_[static_cast<std::size_t>(r)];
  }

 private:
  NetworkModel source_;
  std::uint64_t id_ = 0;
  int num_stations_ = 0;
  int num_chains_ = 0;
  std::size_t cells_ = 0;
  bool all_closed_ = true;
  bool has_queue_dependent_ = false;

  std::vector<double> demand_cm_;        // [r * N + n]
  std::vector<double> service_time_cm_;  // [r * N + n]
  std::vector<double> visit_ratio_cm_;   // [r * N + n]
  std::vector<double> delay_demand_;     // per chain

  std::vector<StationKind> station_kind_;
  std::vector<double> rate_multipliers_;     // flattened
  std::vector<std::size_t> rate_offset_;     // N + 1 entries

  std::vector<std::size_t> chain_station_offset_;  // R + 1
  std::vector<int> chain_station_ids_;
  std::vector<std::size_t> station_chain_offset_;  // N + 1
  std::vector<int> station_chain_ids_;

  std::vector<int> cell_station_;        // per visited cell k
  std::vector<std::size_t> cell_index_;  // per visited cell k
  std::vector<double> cell_demand_;      // per visited cell k
  std::vector<int> chain_cell_ids_;      // chain -> cells, CSR

  std::vector<double> cycle_time_;
  std::vector<int> bottleneck_;
  std::vector<double> max_demand_;
  std::vector<int> base_populations_;

  std::vector<double> semiclosed_rate_;
  std::vector<int> semiclosed_min_;
};

}  // namespace windim::qn
