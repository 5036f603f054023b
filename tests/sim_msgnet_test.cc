#include <gtest/gtest.h>

#include "exact/mm_queues.h"
#include "exact/semiclosed.h"
#include "windim/windim.h"
#include "net/examples.h"
#include "sim/msgnet_sim.h"
#include "sim/replicate.h"

namespace windim::sim {
namespace {

net::Topology single_link() {
  net::Topology t;
  t.add_node("src");
  t.add_node("dst");
  t.add_channel("src", "dst", 50.0);  // mu = 50 msg/s at 1000 bits
  return t;
}

std::vector<net::TrafficClass> one_class(double rate) {
  net::TrafficClass c;
  c.name = "c";
  c.path = {"src", "dst"};
  c.arrival_rate = rate;
  return {c};
}

TEST(MsgNetSimTest, UncontrolledSingleLinkMatchesMM1) {
  MsgNetOptions options;
  options.sim_time = 3000.0;
  options.warmup = 300.0;
  const MsgNetResult r =
      simulate_msgnet(single_link(), one_class(25.0), options);
  const exact::MM1 reference(25.0, 50.0);
  EXPECT_NEAR(r.delivered_rate, 25.0, 1.0);
  EXPECT_NEAR(r.mean_network_delay, reference.mean_time(),
              0.1 * reference.mean_time());
}

TEST(MsgNetSimTest, WindowCapsInFlightMessages) {
  MsgNetOptions options;
  options.windows = {2};
  options.sim_time = 1000.0;
  const MsgNetResult r =
      simulate_msgnet(single_link(), one_class(200.0), options);
  // With window 2 and an overloaded source, the time-averaged in-network
  // count must stay at (almost exactly) 2.
  EXPECT_LE(r.mean_in_network, 2.0 + 1e-9);
  EXPECT_GT(r.mean_in_network, 1.8);
  // Throughput is capacity-limited, not offered-limited.
  EXPECT_LT(r.delivered_rate, 51.0);
}

TEST(MsgNetSimTest, WindowTradesDelayForSourceQueueing) {
  // On a single link with an infinite source buffer the window does not
  // change the long-run delivered rate (work conservation) but it
  // sharply reduces the *in-network* delay, shifting the waiting to the
  // source (thesis 2.2: flow control moves congestion to the admittance
  // point).
  MsgNetOptions uncontrolled;
  uncontrolled.sim_time = 1000.0;
  MsgNetOptions windowed = uncontrolled;
  windowed.windows = {1};
  const MsgNetResult a =
      simulate_msgnet(single_link(), one_class(40.0), uncontrolled);
  const MsgNetResult b =
      simulate_msgnet(single_link(), one_class(40.0), windowed);
  EXPECT_NEAR(a.delivered_rate, b.delivered_rate, 0.05 * a.delivered_rate);
  EXPECT_LT(b.mean_network_delay, a.mean_network_delay);
  // Total delay (including source wait) is not reduced.
  EXPECT_GE(b.mean_total_delay, b.mean_network_delay);
}

TEST(MsgNetSimTest, SourceDropsWhenQueueLimitZero) {
  MsgNetOptions options;
  options.windows = {1};
  options.source_queue_limit = 0;
  options.sim_time = 500.0;
  const MsgNetResult r =
      simulate_msgnet(single_link(), one_class(100.0), options);
  EXPECT_GT(r.per_class[0].dropped_rate, 0.0);
  EXPECT_NEAR(r.per_class[0].offered_rate,
              r.per_class[0].admitted_rate + r.per_class[0].dropped_rate,
              2.0);
}

TEST(MsgNetSimTest, IsarithmicPermitsCapTotalPopulation) {
  const net::Topology topo = net::canada_topology();
  const auto classes = net::two_class_traffic(60.0, 60.0);
  MsgNetOptions options;
  options.isarithmic_permits = 5;
  options.sim_time = 300.0;
  const MsgNetResult r = simulate_msgnet(topo, classes, options);
  EXPECT_LE(r.mean_in_network, 5.0 + 1e-9);
  EXPECT_GT(r.delivered_rate, 0.0);
}

TEST(MsgNetSimTest, TightLocalBuffersAloneDeadlock) {
  // The thesis's store-and-forward lockup (2.1/2.3): with tight node
  // buffers, hold-the-channel blocking and no end-to-end control, the
  // two opposed classes deadlock and throughput collapses.
  const net::Topology topo = net::canada_topology();
  const auto classes = net::two_class_traffic(45.0, 45.0);
  MsgNetOptions uncontrolled;
  uncontrolled.sim_time = 300.0;
  MsgNetOptions tight = uncontrolled;
  tight.node_buffer_limit.assign(6, 2);
  const MsgNetResult a = simulate_msgnet(topo, classes, uncontrolled);
  const MsgNetResult b = simulate_msgnet(topo, classes, tight);
  EXPECT_LT(b.delivered_rate, 0.2 * a.delivered_rate);
}

TEST(MsgNetSimTest, EndToEndWindowsPreventLocalBufferDeadlock) {
  // Adding small end-to-end windows bounds the in-network population so
  // the tight buffers can never form a blocking cycle; the network stays
  // live (thesis 2.3: the controls are complementary).
  const net::Topology topo = net::canada_topology();
  const auto classes = net::two_class_traffic(45.0, 45.0);
  MsgNetOptions options;
  options.sim_time = 300.0;
  options.node_buffer_limit.assign(6, 2);
  options.windows = {1, 1};
  const MsgNetResult r = simulate_msgnet(topo, classes, options);
  EXPECT_GT(r.delivered_rate, 5.0);
}

TEST(MsgNetSimTest, TwoClassNetworkDeliversBothClasses) {
  const net::Topology topo = net::canada_topology();
  const auto classes = net::two_class_traffic(15.0, 15.0);
  MsgNetOptions options;
  options.windows = {4, 4};
  options.sim_time = 500.0;
  const MsgNetResult r = simulate_msgnet(topo, classes, options);
  EXPECT_GT(r.per_class[0].delivered_rate, 10.0);
  EXPECT_GT(r.per_class[1].delivered_rate, 10.0);
  EXPECT_GT(r.power, 0.0);
  EXPECT_NEAR(r.delivered_rate,
              r.per_class[0].delivered_rate + r.per_class[1].delivered_rate,
              1e-9);
}

TEST(MsgNetSimTest, FlowBalanceAtModerateLoad) {
  // At stable load, offered ~= delivered (no drops, bounded queues).
  MsgNetOptions options;
  options.windows = {8};
  options.sim_time = 2000.0;
  const MsgNetResult r =
      simulate_msgnet(single_link(), one_class(20.0), options);
  EXPECT_NEAR(r.per_class[0].offered_rate, 20.0, 1.0);
  EXPECT_NEAR(r.per_class[0].delivered_rate, 20.0, 1.0);
  EXPECT_DOUBLE_EQ(r.per_class[0].dropped_rate, 0.0);
}

TEST(MsgNetSimTest, TotalDelayIncludesSourceWait) {
  MsgNetOptions options;
  options.windows = {1};
  options.sim_time = 500.0;
  const MsgNetResult r =
      simulate_msgnet(single_link(), one_class(45.0), options);
  EXPECT_GE(r.mean_total_delay, r.mean_network_delay);
}

TEST(MsgNetSimTest, DeterministicGivenSeed) {
  MsgNetOptions options;
  options.sim_time = 200.0;
  options.seed = 5;
  const MsgNetResult a =
      simulate_msgnet(single_link(), one_class(30.0), options);
  const MsgNetResult b =
      simulate_msgnet(single_link(), one_class(30.0), options);
  EXPECT_DOUBLE_EQ(a.delivered_rate, b.delivered_rate);
  EXPECT_DOUBLE_EQ(a.mean_network_delay, b.mean_network_delay);
}

TEST(MsgNetSimTest, ReversePathAcksSlowTheWindow) {
  // With window 1 and reverse-path acks, a new message cannot start
  // until the ack returns: the effective service cycle lengthens, so
  // throughput drops versus instantaneous acks.
  MsgNetOptions instant;
  instant.windows = {1};
  instant.sim_time = 1000.0;
  MsgNetOptions acked = instant;
  acked.ack_mode = AckMode::kReversePath;
  acked.ack_bits = 1000.0;  // acks as heavy as data: pronounced effect
  const MsgNetResult a =
      simulate_msgnet(single_link(), one_class(200.0), instant);
  const MsgNetResult b =
      simulate_msgnet(single_link(), one_class(200.0), acked);
  // Stop-and-wait over one 50 msg/s half-duplex link: instantaneous acks
  // give ~50 msg/s; data+ack both at 1000 bits halve it to ~25.
  EXPECT_NEAR(a.delivered_rate, 50.0, 3.0);
  EXPECT_NEAR(b.delivered_rate, 25.0, 2.0);
}

TEST(MsgNetSimTest, LightAcksBarelyCost) {
  // 100-bit acks on 1000-bit data: ~10% overhead ceiling.
  MsgNetOptions instant;
  instant.windows = {4};
  instant.sim_time = 1000.0;
  MsgNetOptions acked = instant;
  acked.ack_mode = AckMode::kReversePath;
  acked.ack_bits = 100.0;
  const MsgNetResult a =
      simulate_msgnet(single_link(), one_class(30.0), instant);
  const MsgNetResult b =
      simulate_msgnet(single_link(), one_class(30.0), acked);
  EXPECT_NEAR(b.delivered_rate, a.delivered_rate,
              0.05 * a.delivered_rate);
}

TEST(MsgNetSimTest, ReversePathAcksRespectWindow) {
  // Even with slow acks the window bound holds: data in flight plus
  // outstanding acks never exceed E (here indirectly via throughput
  // ceiling 1/(round trip) for E=1).
  MsgNetOptions acked;
  acked.windows = {1};
  acked.ack_mode = AckMode::kReversePath;
  acked.ack_bits = 1000.0;
  acked.sim_time = 500.0;
  const MsgNetResult r =
      simulate_msgnet(single_link(), one_class(500.0), acked);
  EXPECT_LE(r.mean_in_network, 1.0 + 1e-9);
}

TEST(MsgNetSimTest, ChannelStatsMatchMM1OnSingleLink) {
  MsgNetOptions options;
  options.sim_time = 4000.0;
  options.warmup = 400.0;
  options.seed = 8;
  const MsgNetResult r =
      simulate_msgnet(single_link(), one_class(30.0), options);
  ASSERT_EQ(r.per_channel.size(), 1u);
  const double rho = 30.0 / 50.0;
  EXPECT_NEAR(r.per_channel[0].utilization, rho, 0.03);
  EXPECT_NEAR(r.per_channel[0].mean_queue, rho / (1.0 - rho), 0.15);
  EXPECT_NEAR(r.per_channel[0].carried_rate, 30.0, 1.0);
}

TEST(MsgNetSimTest, ChannelUtilizationConsistentWithThroughput) {
  // U_c = carried rate * mean service time on every channel.
  const net::Topology topo = net::canada_topology();
  const auto classes = net::two_class_traffic(20.0, 20.0);
  MsgNetOptions options;
  options.windows = {4, 4};
  options.sim_time = 1500.0;
  options.warmup = 150.0;
  const MsgNetResult r = simulate_msgnet(topo, classes, options);
  for (int c = 0; c < topo.num_channels(); ++c) {
    const double service =
        1000.0 / (topo.channel(c).capacity_kbps * 1000.0);
    EXPECT_NEAR(r.per_channel[static_cast<std::size_t>(c)].utilization,
                r.per_channel[static_cast<std::size_t>(c)].carried_rate *
                    service,
                0.02)
        << "channel " << c;
  }
}

TEST(MsgNetSimTest, ChannelQueuesMatchClosedModelAtMatchedWindows) {
  // With generous source load the closed-chain model's per-channel queue
  // lengths should be close to the simulated ones.
  const net::Topology topo = net::canada_topology();
  const auto classes = net::two_class_traffic(25.0, 25.0);
  const std::vector<int> windows{3, 3};
  MsgNetOptions options;
  options.windows = windows;
  options.source_queue_limit = 0;  // drop-tail: exact semiclosed regime
  options.sim_time = 3000.0;
  options.warmup = 300.0;
  const MsgNetResult sim = simulate_msgnet(topo, classes, options);

  const core::WindowProblem problem(topo, classes);
  const qn::CyclicNetwork net = problem.network(windows);
  const core::Evaluation analytic =
      problem.evaluate(windows, "semiclosed");
  (void)analytic;
  // Compare channel queue lengths against the semiclosed solver.
  qn::NetworkModel route_model;
  for (const qn::Station& s : net.stations) route_model.add_station(s);
  std::vector<exact::SemiclosedChainSpec> specs;
  for (int r = 0; r < 2; ++r) {
    qn::Chain chain;
    chain.type = qn::ChainType::kClosed;
    for (std::size_t k = 0; k + 1 < net.chains[static_cast<std::size_t>(r)]
                                        .route.size();
         ++k) {
      chain.visits.push_back(
          qn::Visit{net.chains[static_cast<std::size_t>(r)].route[k], 1.0,
                    net.chains[static_cast<std::size_t>(r)].service_times[k]});
    }
    route_model.add_chain(std::move(chain));
    specs.push_back(exact::SemiclosedChainSpec{25.0, 0, windows[static_cast<std::size_t>(r)]});
  }
  const exact::SemiclosedResult semi =
      exact::solve_semiclosed(route_model, specs);
  for (int c = 0; c < topo.num_channels(); ++c) {
    const double expected =
        semi.queue_length(c, 0) + semi.queue_length(c, 1);
    EXPECT_NEAR(sim.per_channel[static_cast<std::size_t>(c)].mean_queue,
                expected, 0.08 + 0.08 * expected)
        << "channel " << c;
  }
}

TEST(MsgNetSimTest, LengthModelDelayOrderingFollowsPollaczekKhinchine) {
  // M/G/1 at fixed mean and load: waiting time scales with (1 + cv^2)/2,
  // so deterministic < Erlang-2 < exponential < hyperexponential.
  auto delay_for = [&](net::LengthModel model) {
    auto classes = one_class(30.0);
    classes[0].length_model = model;
    MsgNetOptions options;
    options.sim_time = 4000.0;
    options.warmup = 400.0;
    options.seed = 12;
    return simulate_msgnet(single_link(), classes, options)
        .mean_network_delay;
  };
  const double det = delay_for(net::LengthModel::kDeterministic);
  const double erl = delay_for(net::LengthModel::kErlang2);
  const double exp = delay_for(net::LengthModel::kExponential);
  const double hyp = delay_for(net::LengthModel::kHyperExp2);
  EXPECT_LT(det, erl);
  EXPECT_LT(erl, exp);
  EXPECT_LT(exp, hyp);
}

TEST(MsgNetSimTest, LengthModelsPreserveMeanThroughput) {
  // All models share the mean, so the carried rate at stable load is the
  // offered rate regardless of the distribution.
  for (auto model :
       {net::LengthModel::kDeterministic, net::LengthModel::kErlang2,
        net::LengthModel::kHyperExp2}) {
    auto classes = one_class(25.0);
    classes[0].length_model = model;
    MsgNetOptions options;
    options.sim_time = 2000.0;
    options.warmup = 200.0;
    const MsgNetResult r = simulate_msgnet(single_link(), classes, options);
    EXPECT_NEAR(r.delivered_rate, 25.0, 1.5)
        << net::to_string(model);
  }
}

TEST(MsgNetSimTest, DeterministicSingleLinkMatchesMD1) {
  // M/D/1: W = rho/(2 mu (1-rho)); T = W + 1/mu.
  auto classes = one_class(30.0);
  classes[0].length_model = net::LengthModel::kDeterministic;
  MsgNetOptions options;
  options.sim_time = 6000.0;
  options.warmup = 600.0;
  options.seed = 4;
  const MsgNetResult r = simulate_msgnet(single_link(), classes, options);
  const double mu = 50.0, rho = 30.0 / 50.0;
  const double expected = rho / (2.0 * mu * (1.0 - rho)) + 1.0 / mu;
  EXPECT_NEAR(r.mean_network_delay, expected, 0.06 * expected);
}

TEST(ReplicateTest, IntervalsCoverTheoreticalValues) {
  // 10 replications of a stable M/M/1 link: the CI should cover the
  // theoretical delivered rate and delay.
  MsgNetOptions options;
  options.sim_time = 600.0;
  options.warmup = 60.0;
  options.seed = 100;
  const ReplicatedResult r =
      run_replications(single_link(), one_class(25.0), options, 10);
  EXPECT_EQ(r.replications, 10);
  EXPECT_EQ(r.runs.size(), 10u);
  const exact::MM1 reference(25.0, 50.0);
  // Allow a slightly widened interval (2x) for coverage robustness.
  EXPECT_NEAR(r.delivered_rate.mean, 25.0,
              2.0 * r.delivered_rate.half_width + 0.2);
  EXPECT_NEAR(r.mean_network_delay.mean, reference.mean_time(),
              2.0 * r.mean_network_delay.half_width + 0.002);
  EXPECT_GT(r.power.mean, 0.0);
  EXPECT_GT(r.delivered_rate.half_width, 0.0);
}

TEST(ReplicateTest, MoreReplicationsTightenTheInterval) {
  MsgNetOptions options;
  options.sim_time = 300.0;
  options.warmup = 30.0;
  const ReplicatedResult few =
      run_replications(single_link(), one_class(25.0), options, 4);
  const ReplicatedResult many =
      run_replications(single_link(), one_class(25.0), options, 16);
  EXPECT_LT(many.delivered_rate.half_width,
            few.delivered_rate.half_width + 1e-12);
}

TEST(ReplicateTest, RejectsTooFewReplications) {
  EXPECT_THROW((void)run_replications(single_link(), one_class(10.0), {}, 1),
               std::invalid_argument);
}

TEST(MsgNetSimTest, RejectsMalformedOptions) {
  MsgNetOptions bad_windows;
  bad_windows.windows = {1, 2};  // one class only
  EXPECT_THROW(
      (void)simulate_msgnet(single_link(), one_class(10.0), bad_windows),
      std::invalid_argument);
  MsgNetOptions bad_buffers;
  bad_buffers.node_buffer_limit = {1};
  EXPECT_THROW(
      (void)simulate_msgnet(single_link(), one_class(10.0), bad_buffers),
      std::invalid_argument);
  EXPECT_THROW((void)simulate_msgnet(single_link(), {}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace windim::sim
