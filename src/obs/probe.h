// The observation record of a dimensioning run: one ProbeRecord per
// pattern-search probe that resolved to a value, in the order the
// search made them (DimensionResult::probes, filled when
// DimensionOptions::observe is set).  Every observation output is a
// renderer over that one record:
//
//   search_trace_jsonl   the search trace (`--trace-out`)
//   convergence_jsonl    one line per fresh solve (`--convergence-out`)
//   render_replay_spans  the probe -> solve -> iterate span subtree on
//                        a virtual "replay" track (`--trace-spans-out`)
//   export_convergence_metrics  the windim.convergence.* counters
//
// Determinism contract (DESIGN.md §8): the search is sequential and each
// objective value is a pure function of the window vector, so the record
// of a run — including `cache_hit` ("this point was already probed
// earlier in the run") and the warm-start `anchor` — is a function of
// the problem and options alone.  Only the measured wall times in the
// solve records vary from run to run; the renderers keep them in
// fields of their own (`wall_us`, span `ts`/`dur`).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/convergence.h"

namespace windim::obs {

class SpanTracer;  // obs/span.h

struct ProbeRecord {
  std::uint64_t step = 0;          // 0-based probe index
  std::vector<int> windows;        // the probed window vector
  double objective = 0.0;          // F: the search objective value
  /// Full objective vector of the probe (search/objective.h); [F] for
  /// scalar objectives, larger for the fairness/utility family.
  std::vector<double> objective_vector;
  /// Total constraint slack (<= 0 means feasible; scalar objectives
  /// always 0).
  double violation = 0.0;
  double power = 0.0;              // P: network power at this point
  std::string solver;              // registry solver name
  bool cache_hit = false;          // point already probed in this run
  std::vector<int> anchor;         // warm-start anchor windows ([] = cold)
  /// The probe's solve telemetry: set for a fresh evaluation, empty for
  /// a cache hit (which evaluated nothing).
  std::optional<SolveRecord> solve;
};

/// One JSON object per probe, fixed field order:
/// {"step":..,"windows":[..],"F":..,"obj":[..],"viol":..,"P":..,
///  "solver":"..","cache_hit":..,"anchor":[..],"thread":0}\n
/// The constant "thread":0 keeps the format of earlier readers.
[[nodiscard]] std::string search_trace_jsonl(
    const std::vector<ProbeRecord>& probes);

/// One JSON object per fresh solve, in probe order, fixed field order:
/// {"solver":..,"class":..,"warm":..,"chains":..,"iterations":..,
///  "converged":..,"first_residual":..,"final_residual":..,
///  "min_residual":..,"max_residual":..,"wall_us":..,"samples_seen":..,
///  "samples":[{"i":..,"residual":..,"damping":..,"wall_us":..,
///     "chain_delta":[..]},..]}\n
[[nodiscard]] std::string convergence_jsonl(
    const std::vector<ProbeRecord>& probes);

/// Emits the probe -> solve -> iterate subtree of every probe onto
/// `track` of `tracer`, with a running cursor timestamp built from the
/// solves' measured sweep times.  Span count, order, nesting and args
/// are functions of the record alone, so the replay track is identical
/// from run to run once ts/dur are normalized.
void render_replay_spans(const std::vector<ProbeRecord>& probes,
                         SpanTracer& tracer, std::uint64_t track);

/// Adds the run's derived counters to the global MetricsRegistry (no-op
/// while it is disabled): windim.convergence.solves/.converged/
/// .stagnated/.oscillating/.diverged/.iterations, over these probes'
/// solves only.
void export_convergence_metrics(const std::vector<ProbeRecord>& probes);

}  // namespace windim::obs
