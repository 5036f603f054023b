// Cross-module integration tests: the full WINDIM pipeline against the
// independent oracles (exact solvers and the discrete-event simulators).
#include <gtest/gtest.h>

#include <cmath>

#include "sim/closed_sim.h"
#include "sim/msgnet_sim.h"
#include "windim/windim.h"

namespace windim {
namespace {

TEST(IntegrationTest, DimensionedModelValidatedByClosedSimulation) {
  // Dimension with the heuristic, then simulate the closed-chain model at
  // the chosen windows: throughput and power must agree with the
  // heuristic's prediction within simulation noise.
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  const core::DimensionResult dim = core::dimension_windows(problem);

  const qn::CyclicNetwork network = problem.network(dim.optimal_windows);
  sim::ClosedSimOptions options;
  options.sim_time = 3000.0;
  options.warmup = 300.0;
  const sim::ClosedSimResult simulated = sim::simulate_closed(network, options);

  const double sim_throughput =
      simulated.chain_throughput[0] + simulated.chain_throughput[1];
  EXPECT_NEAR(sim_throughput, dim.evaluation.throughput,
              0.05 * dim.evaluation.throughput);

  // Power from the simulation (delay over route queues via Little).
  double route_customers = 0.0;
  for (int n = 0; n < static_cast<int>(network.stations.size()); ++n) {
    for (int r = 0; r < 2; ++r) {
      if (n == problem.source_station(r)) continue;
      route_customers += simulated.queue_length(n, r);
    }
  }
  const double sim_delay = route_customers / sim_throughput;
  const double sim_power = sim_throughput / sim_delay;
  EXPECT_NEAR(sim_power, dim.evaluation.power, 0.08 * dim.evaluation.power);
}

TEST(IntegrationTest, HeuristicTracksExactAcrossWindowGrid) {
  // The property WINDIM depends on: the heuristic's power surface must
  // rank window settings like the exact surface does (same argmax on the
  // grid, small relative errors).
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(18.0, 18.0));
  double worst_error = 0.0;
  std::vector<int> best_heur, best_exact;
  double best_heur_power = -1.0, best_exact_power = -1.0;
  for (int e1 = 1; e1 <= 6; ++e1) {
    for (int e2 = 1; e2 <= 6; ++e2) {
      const core::Evaluation h =
          problem.evaluate({e1, e2}, "heuristic-mva");
      const core::Evaluation x =
          problem.evaluate({e1, e2}, "convolution");
      worst_error = std::max(worst_error,
                             std::abs(h.power - x.power) / x.power);
      if (h.power > best_heur_power) {
        best_heur_power = h.power;
        best_heur = {e1, e2};
      }
      if (x.power > best_exact_power) {
        best_exact_power = x.power;
        best_exact = {e1, e2};
      }
    }
  }
  EXPECT_LT(worst_error, 0.06);
  EXPECT_EQ(best_heur, best_exact);
}

TEST(IntegrationTest, ClosedChainModelApproximatesMsgNetSimulation) {
  // The thesis's modelling assumption: the closed-chain model (source
  // queue = 1/S) approximates the real flow-controlled network.  Compare
  // analytic class throughput against the full store-and-forward
  // simulator with the same windows.
  const double s1 = 20.0, s2 = 20.0;
  const std::vector<int> windows{4, 4};
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(s1, s2));
  const core::Evaluation analytic =
      problem.evaluate(windows, "convolution");

  sim::MsgNetOptions options;
  options.windows = windows;
  options.sim_time = 2000.0;
  options.warmup = 200.0;
  const sim::MsgNetResult simulated = sim::simulate_msgnet(
      net::canada_topology(), net::two_class_traffic(s1, s2), options);

  // The closed model replaces the Poisson source (with its backlog
  // queue) by a single exponential server, which forgets buffered
  // arrivals and therefore throttles harder than the real network: the
  // analytic throughput is a conservative estimate.  Check it brackets
  // the simulation from below within 30%.
  EXPECT_LE(analytic.throughput,
            simulated.delivered_rate * 1.05);
  EXPECT_GE(analytic.throughput, 0.70 * simulated.delivered_rate);
}

TEST(IntegrationTest, FourClassPerStationQueuesValidatedBySimulation) {
  // Station-level validation at scale: the 4-class closed-chain model's
  // per-channel queue lengths vs the closed-network simulator.
  const core::WindowProblem problem(
      net::canada_topology(),
      net::four_class_traffic(10.0, 10.0, 10.0, 20.0));
  const std::vector<int> windows{2, 2, 2, 3};
  const qn::CyclicNetwork network = problem.network(windows);
  const exact::ConvolutionResult analytic =
      exact::solve_convolution(network.to_model());

  sim::ClosedSimOptions options;
  options.sim_time = 3000.0;
  options.warmup = 300.0;
  options.seed = 21;
  const sim::ClosedSimResult simulated =
      sim::simulate_closed(network, options);

  for (int n = 0; n < static_cast<int>(network.stations.size()); ++n) {
    for (int r = 0; r < 4; ++r) {
      const double expected = analytic.queue_length(n, r);
      EXPECT_NEAR(simulated.queue_length(n, r), expected,
                  0.05 + 0.08 * expected)
          << "station " << n << " chain " << r;
    }
  }
  for (int r = 0; r < 4; ++r) {
    EXPECT_NEAR(simulated.chain_throughput[static_cast<std::size_t>(r)],
                analytic.chain_throughput[static_cast<std::size_t>(r)],
                0.04 * analytic.chain_throughput[static_cast<std::size_t>(r)])
        << "chain " << r;
  }
}

TEST(IntegrationTest, FourClassHopRuleIsSuboptimal) {
  // Thesis Table 4.12 headline: with strong inter-class interaction the
  // Kleinrock hop-count setting (4,4,3,1) is clearly beaten by WINDIM.
  const core::WindowProblem problem(
      net::canada_topology(),
      net::four_class_traffic(12.5, 12.5, 12.5, 25.0));
  const core::DimensionResult dim = core::dimension_windows(problem);
  const core::Evaluation hop_rule = problem.evaluate({4, 4, 3, 1});
  EXPECT_GT(dim.evaluation.power, 1.10 * hop_rule.power);
}

TEST(IntegrationTest, ExactEvaluatorDimensioningAgreesWithHeuristic) {
  // On the 2-class example the heuristic objective and the exact
  // objective pick (nearly) the same windows; verify the powers agree.
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(25.0, 25.0));
  core::DimensionOptions heuristic;
  core::DimensionOptions exact;
  exact.solver = "convolution";
  exact.max_window = 8;
  const core::DimensionResult h = core::dimension_windows(problem, heuristic);
  const core::DimensionResult x = core::dimension_windows(problem, exact);
  const core::Evaluation h_at_exact =
      problem.evaluate(h.optimal_windows, "convolution");
  EXPECT_NEAR(h_at_exact.power, x.evaluation.power,
              0.03 * x.evaluation.power);
}

TEST(IntegrationTest, WindowedSimulationBeatsUncontrolledOnPower) {
  // The point of flow control (Fig 2.1): at overload, windows keep the
  // delay bounded and the power high; the uncontrolled network's delay
  // blows up.
  const auto topo = net::canada_topology();
  const auto classes = net::two_class_traffic(40.0, 40.0);
  sim::MsgNetOptions uncontrolled;
  uncontrolled.sim_time = 800.0;
  sim::MsgNetOptions windowed = uncontrolled;
  windowed.windows = {3, 3};
  const sim::MsgNetResult a = sim::simulate_msgnet(topo, classes, uncontrolled);
  const sim::MsgNetResult b = sim::simulate_msgnet(topo, classes, windowed);
  EXPECT_GT(b.power, a.power);
}

}  // namespace
}  // namespace windim
