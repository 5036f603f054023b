// Statistical regression test: the discrete-event closed-network
// simulator, replicated for confidence intervals, must agree with the
// convolution solver on small cyclic networks.  The acceptance band is
// the differential harness's simulation tolerance — a multiple of the
// replication CI half-width plus a small relative slack for residual
// warmup bias — with fixed seeds throughout, so the test is exact-
// repeatable, not flaky.
#include <gtest/gtest.h>

#include <cmath>

#include "control/policies.h"
#include "control/scenario.h"
#include "exact/convolution.h"
#include "net/examples.h"
#include "sim/dynamics.h"
#include "sim/msgnet_sim.h"
#include "sim/replicate.h"
#include "verify/gen.h"
#include "windim/problem.h"

namespace windim {
namespace {

using verify::Family;
using verify::Instance;

constexpr double kCiFactor = 4.0;  // ~4 half-widths ≈ well beyond 99%
constexpr double kSlack = 0.03;    // residual-bias allowance

TEST(SimVsExact, ReplicatedThroughputCoversConvolution) {
  for (std::uint64_t seed : {1, 2, 3}) {
    const Instance inst = verify::generate(Family::kCyclic, seed);
    ASSERT_TRUE(inst.cyclic.has_value());
    const exact::ConvolutionResult conv =
        exact::solve_convolution(inst.model);
    sim::ClosedSimOptions options;
    options.sim_time = 400.0;
    options.warmup = 50.0;
    options.seed = 9000 + seed;
    const sim::ReplicatedClosedResult rep =
        sim::run_closed_replications(*inst.cyclic, options, 5);
    ASSERT_EQ(rep.chain_throughput.size(),
              static_cast<std::size_t>(inst.model.num_chains()));
    for (int r = 0; r < inst.model.num_chains(); ++r) {
      const double exact =
          conv.chain_throughput[static_cast<std::size_t>(r)];
      const sim::MetricEstimate& est =
          rep.chain_throughput[static_cast<std::size_t>(r)];
      EXPECT_GE(est.half_width, 0.0);
      EXPECT_LE(std::abs(est.mean - exact),
                kCiFactor * est.half_width + kSlack * exact)
          << inst.name << " chain " << r << ": sim " << est.mean << " +- "
          << est.half_width << " vs exact " << exact;
    }
  }
}

TEST(SimVsExact, ReplicatedQueueLengthsCoverConvolution) {
  const Instance inst = verify::generate(Family::kCyclic, 5);
  ASSERT_TRUE(inst.cyclic.has_value());
  const exact::ConvolutionResult conv = exact::solve_convolution(inst.model);
  sim::ClosedSimOptions options;
  options.sim_time = 400.0;
  options.warmup = 50.0;
  options.seed = 777;
  const sim::ReplicatedClosedResult rep =
      sim::run_closed_replications(*inst.cyclic, options, 5);
  for (int n = 0; n < inst.model.num_stations(); ++n) {
    for (int r = 0; r < inst.model.num_chains(); ++r) {
      const double exact = conv.queue_length(n, r);
      const sim::MetricEstimate& est = rep.queue_length(n, r);
      // Queue lengths near zero get an absolute floor on the band.
      EXPECT_LE(std::abs(est.mean - exact),
                kCiFactor * est.half_width + kSlack * exact + 0.02)
          << inst.name << " station " << n << " chain " << r;
    }
  }
}

TEST(SimVsExact, StationaryScenarioPathRecoversSemiclosedAnalytics) {
  // The scenario harness's stationary cell runs through the dynamic
  // machinery (thinned arrivals at a constant factor-1.0 profile), so it
  // must recover the same closed-chain analytics the plain path does —
  // within the replication-CI envelope used throughout this suite.
  const net::Topology topo = net::canada_topology();
  const auto classes = net::two_class_traffic(25.0, 25.0);
  const std::vector<int> windows{3, 3};
  const core::WindowProblem problem(topo, classes);
  const core::Evaluation analytic =
      problem.evaluate(windows, "semiclosed");

  // A constant profile: thinning accepts every candidate, but the event
  // stream is generated by the scenario path, not the legacy one.
  sim::ScenarioDynamics dynamics;
  dynamics.profile.points = {{0.0, 1.0}, {600.0, 1.0}};

  sim::MsgNetOptions options;
  options.windows = windows;
  options.source_queue_limit = 0;  // the semiclosed (drop) regime
  options.sim_time = 600.0;
  options.warmup = 60.0;
  options.seed = 4242;
  options.dynamics = &dynamics;
  const sim::ReplicatedResult rep =
      sim::run_replications(topo, classes, options, 5);

  EXPECT_LE(std::abs(rep.delivered_rate.mean - analytic.throughput),
            kCiFactor * rep.delivered_rate.half_width +
                kSlack * analytic.throughput)
      << "sim " << rep.delivered_rate.mean << " +- "
      << rep.delivered_rate.half_width << " vs analytic "
      << analytic.throughput;
  EXPECT_LE(std::abs(rep.mean_network_delay.mean - analytic.mean_delay),
            kCiFactor * rep.mean_network_delay.half_width +
                2.0 * kSlack * analytic.mean_delay)
      << "sim " << rep.mean_network_delay.mean << " +- "
      << rep.mean_network_delay.half_width << " vs analytic "
      << analytic.mean_delay;
}

TEST(SimVsExact, StaticControllerIsTransparentAtStationaryLoad) {
  // A static controller pinned to the same windows must reproduce the
  // uncontrolled fixed-window run sample for sample: the controller hook
  // draws no randomness, so the two runs share one RNG stream.
  const net::Topology topo = net::canada_topology();
  const auto classes = net::two_class_traffic(25.0, 25.0);
  sim::MsgNetOptions plain;
  plain.windows = {3, 3};
  plain.source_queue_limit = 0;
  plain.sim_time = 200.0;
  plain.seed = 99;
  const sim::MsgNetResult a = sim::simulate_msgnet(topo, classes, plain);

  control::StaticWindowController controller({3, 3});
  sim::MsgNetOptions controlled = plain;
  controlled.controller = &controller;
  const sim::MsgNetResult b =
      sim::simulate_msgnet(topo, classes, controlled);

  EXPECT_DOUBLE_EQ(a.delivered_rate, b.delivered_rate);
  EXPECT_DOUBLE_EQ(a.mean_network_delay, b.mean_network_delay);
  EXPECT_DOUBLE_EQ(a.power, b.power);
}

TEST(SimVsExact, ReplicationEstimatesAreDeterministicInTheSeed) {
  const Instance inst = verify::generate(Family::kCyclic, 2);
  sim::ClosedSimOptions options;
  options.sim_time = 100.0;
  options.warmup = 10.0;
  options.seed = 42;
  const sim::ReplicatedClosedResult a =
      sim::run_closed_replications(*inst.cyclic, options, 3);
  const sim::ReplicatedClosedResult b =
      sim::run_closed_replications(*inst.cyclic, options, 3);
  ASSERT_EQ(a.chain_throughput.size(), b.chain_throughput.size());
  for (std::size_t r = 0; r < a.chain_throughput.size(); ++r) {
    EXPECT_EQ(a.chain_throughput[r].mean, b.chain_throughput[r].mean);
    EXPECT_EQ(a.chain_throughput[r].half_width,
              b.chain_throughput[r].half_width);
  }
}

}  // namespace
}  // namespace windim
