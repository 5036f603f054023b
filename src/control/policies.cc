#include "control/policies.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "windim/dimension.h"
#include "windim/problem.h"

namespace windim::control {
namespace {

int floor_window(double w, double min_window, double max_window) {
  const double clamped = std::clamp(w, min_window, max_window);
  return std::max(1, static_cast<int>(std::floor(clamped)));
}

}  // namespace

AimdController::AimdController(std::vector<int> initial_windows,
                               AimdConfig config)
    : initial_(std::move(initial_windows)), config_(config) {
  if (initial_.empty()) {
    throw std::invalid_argument("AimdController: empty initial windows");
  }
  reset(0.0);
}

void AimdController::reset(double now) {
  (void)now;
  window_.assign(initial_.size(), 0.0);
  for (std::size_t r = 0; r < initial_.size(); ++r) {
    window_[r] = std::clamp(static_cast<double>(initial_[r]),
                            config_.min_window, config_.max_window);
  }
  last_decrease_.assign(initial_.size(),
                        -std::numeric_limits<double>::infinity());
}

int AimdController::window(int cls) const {
  return floor_window(window_.at(static_cast<std::size_t>(cls)),
                      config_.min_window, config_.max_window);
}

void AimdController::on_delivery(int cls, double now, double network_delay) {
  if (network_delay <= config_.delay_threshold) {
    auto& w = window_[static_cast<std::size_t>(cls)];
    w = std::min(config_.max_window, w + config_.increase);
  } else {
    decrease(cls, now);
  }
}

void AimdController::on_drop(int cls, double now) { decrease(cls, now); }

void AimdController::decrease(int cls, double now) {
  auto& last = last_decrease_[static_cast<std::size_t>(cls)];
  if (now - last < config_.cooldown) return;
  last = now;
  auto& w = window_[static_cast<std::size_t>(cls)];
  w = std::max(config_.min_window, w * config_.decrease_factor);
}

DelayTriggeredController::DelayTriggeredController(
    std::vector<int> initial_windows, DelayTriggeredConfig config)
    : initial_(std::move(initial_windows)), config_(config) {
  if (initial_.empty()) {
    throw std::invalid_argument(
        "DelayTriggeredController: empty initial windows");
  }
  reset(0.0);
}

void DelayTriggeredController::reset(double now) {
  (void)now;
  window_.assign(initial_.size(), 0.0);
  for (std::size_t r = 0; r < initial_.size(); ++r) {
    window_[r] = std::clamp(static_cast<double>(initial_[r]),
                            config_.min_window, config_.max_window);
  }
  last_update_.assign(initial_.size(),
                      -std::numeric_limits<double>::infinity());
}

int DelayTriggeredController::window(int cls) const {
  return floor_window(window_.at(static_cast<std::size_t>(cls)),
                      config_.min_window, config_.max_window);
}

void DelayTriggeredController::on_delivery(int cls, double now,
                                           double network_delay) {
  auto& w = window_[static_cast<std::size_t>(cls)];
  auto& last = last_update_[static_cast<std::size_t>(cls)];
  if (network_delay < config_.delay_threshold) {
    if (now - last >= config_.period) {
      last = now;
      w = std::min(config_.max_window, w + config_.increase);
    }
  } else {
    last = now;
    w = std::max(config_.min_window, w - config_.decrease);
  }
}

TrackingWindimController::TrackingWindimController(
    const net::Topology& topology, std::vector<net::TrafficClass> classes,
    std::vector<int> initial_windows, TrackingConfig config)
    : topology_(topology),
      classes_(std::move(classes)),
      initial_(std::move(initial_windows)),
      config_(config) {
  if (initial_.size() != classes_.size()) {
    throw std::invalid_argument(
        "TrackingWindimController: windows/classes size mismatch");
  }
  if (!(config_.period > 0.0)) {
    throw std::invalid_argument(
        "TrackingWindimController: period must be positive");
  }
  reset(0.0);
}

TrackingWindimController::~TrackingWindimController() = default;

void TrackingWindimController::reset(double now) {
  (void)now;
  windows_ = initial_;
  smoothed_rate_.assign(classes_.size(), 0.0);
  for (std::size_t r = 0; r < classes_.size(); ++r) {
    smoothed_rate_[r] = classes_[r].arrival_rate;
  }
  redimensions_ = 0;
}

int TrackingWindimController::window(int cls) const {
  return windows_.at(static_cast<std::size_t>(cls));
}

void TrackingWindimController::on_tick(
    double now, const std::vector<double>& offered_rates) {
  (void)now;
  if (offered_rates.size() != classes_.size()) return;
  std::vector<net::TrafficClass> observed = classes_;
  for (std::size_t r = 0; r < classes_.size(); ++r) {
    const double floor_rate =
        config_.min_rate_fraction * classes_[r].arrival_rate;
    smoothed_rate_[r] = (1.0 - config_.smoothing) * smoothed_rate_[r] +
                        config_.smoothing * offered_rates[r];
    observed[r].arrival_rate = std::max(smoothed_rate_[r], floor_rate);
  }
  core::WindowProblem problem(topology_, std::move(observed));
  core::DimensionOptions options;
  if (!config_.solver.empty()) options.solver = config_.solver;
  options.max_window = config_.max_window;
  core::DimensionResult result = core::dimension_windows(problem, options);
  if (!result.feasible) return;
  windows_ = result.optimal_windows;
  ++redimensions_;
}

}  // namespace windim::control
