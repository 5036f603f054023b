#include "obs/convergence.h"

#include <algorithm>
#include <utility>

namespace windim::obs {

std::string_view to_string(ConvergenceClass c) noexcept {
  switch (c) {
    case ConvergenceClass::kConverged:
      return "converged";
    case ConvergenceClass::kStagnated:
      return "stagnated";
    case ConvergenceClass::kOscillating:
      return "oscillating";
    case ConvergenceClass::kDiverged:
      return "diverged";
  }
  return "converged";
}

ConvergenceClass classify(const SolveRecord& record) noexcept {
  if (record.samples_seen == 0) {
    // Nothing streamed: a non-iterative solver's summary.  Trust the
    // converged flag (a false one means the caller saw a failure).
    return record.converged ? ConvergenceClass::kConverged
                            : ConvergenceClass::kDiverged;
  }
  if (record.converged) {
    // The stagnation trap: a COLD start whose very first sweep already
    // met the stopping criterion never moved — the initialization was
    // a fixed point of the (approximate) map, which for the heuristic
    // means the sigma estimate cancelled all congestion (the PR 2
    // worst case converges at iteration 1 with residual 0).  A warm
    // start legitimately converges immediately near its seed.
    if (!record.warm_started && record.samples_seen <= 1) {
      return ConvergenceClass::kStagnated;
    }
    return ConvergenceClass::kConverged;
  }
  // Not converged: decide between limit cycle, blow-up and plateau from
  // the surviving window of the residual stream.
  const std::vector<IterationSample>& s = record.samples;
  if (s.size() >= 5) {
    // Sign-flip detector: a chain whose signed delta alternates in at
    // least half of the consecutive sample pairs is cycling, not
    // drifting.
    const std::size_t pairs = s.size() - 1;
    for (int r = 0; r < record.tracked_chains; ++r) {
      std::size_t flips = 0;
      for (std::size_t i = 1; i < s.size(); ++i) {
        const double a = s[i - 1].chain_delta[static_cast<std::size_t>(r)];
        const double b = s[i].chain_delta[static_cast<std::size_t>(r)];
        if ((a > 0.0 && b < 0.0) || (a < 0.0 && b > 0.0)) ++flips;
      }
      if (2 * flips >= pairs) return ConvergenceClass::kOscillating;
    }
  }
  if (record.final_residual > record.first_residual) {
    return ConvergenceClass::kDiverged;
  }
  // Plateau: progress stopped above tolerance without growing or
  // cycling (the iteration cap fired on a slowly-creeping residual).
  return ConvergenceClass::kStagnated;
}

ConvergenceRecorder::ConvergenceRecorder(std::size_t ring_capacity)
    : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

void ConvergenceRecorder::reset_ring() {
  record_.samples.clear();
  record_.samples.reserve(ring_capacity_);
  head_ = 0;
  staged_.fill(0.0);
}

void ConvergenceRecorder::begin_solve(std::string_view solver, int num_chains,
                                      bool warm_started) {
  record_ = SolveRecord{};
  record_.solver.assign(solver);
  record_.num_chains = num_chains;
  record_.tracked_chains = std::min(num_chains, kMaxTrackedChains);
  record_.warm_started = warm_started;
  reset_ring();
  recording_ = true;
  finished_ = false;
  solve_start_ = std::chrono::steady_clock::now();
  sweep_start_ = solve_start_;
}

void ConvergenceRecorder::record_chain(int chain,
                                       double signed_relative_delta) noexcept {
  if (!recording_ || chain < 0 || chain >= kMaxTrackedChains) return;
  staged_[static_cast<std::size_t>(chain)] = signed_relative_delta;
}

void ConvergenceRecorder::record_iteration(double max_residual,
                                           double damping) {
  if (!recording_) return;
  const auto now = std::chrono::steady_clock::now();
  IterationSample sample;
  sample.iteration = record_.samples_seen + 1;
  sample.max_residual = max_residual;
  sample.damping = damping;
  sample.wall_us =
      std::chrono::duration<double, std::micro>(now - sweep_start_).count();
  sample.chain_delta = staged_;
  sweep_start_ = now;
  staged_.fill(0.0);

  if (record_.samples_seen == 0) {
    record_.first_residual = max_residual;
    record_.min_residual = max_residual;
    record_.max_residual = max_residual;
  } else {
    record_.min_residual = std::min(record_.min_residual, max_residual);
    record_.max_residual = std::max(record_.max_residual, max_residual);
  }
  record_.final_residual = max_residual;
  ++record_.samples_seen;

  if (record_.samples.size() < ring_capacity_) {
    record_.samples.push_back(sample);
  } else {
    record_.samples[head_] = sample;
    head_ = (head_ + 1) % ring_capacity_;
  }
}

void ConvergenceRecorder::end_solve(int iterations, bool converged) {
  if (!recording_) return;
  record_.iterations = iterations;
  record_.converged = converged;
  record_.wall_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - solve_start_)
                        .count();
  // Unroll the ring so samples are oldest-first.
  if (head_ != 0) {
    std::rotate(record_.samples.begin(),
                record_.samples.begin() + static_cast<std::ptrdiff_t>(head_),
                record_.samples.end());
    head_ = 0;
  }
  record_.classification = classify(record_);
  recording_ = false;
  finished_ = true;
}

void ConvergenceRecorder::record_summary(std::string_view solver,
                                         int iterations, bool converged) {
  record_ = SolveRecord{};
  record_.solver.assign(solver);
  record_.iterations = iterations;
  record_.converged = converged;
  record_.classification = classify(record_);
  recording_ = false;
  finished_ = true;
}

SolveRecord ConvergenceRecorder::take_record() {
  finished_ = false;
  return std::move(record_);
}

}  // namespace windim::obs
