#include <gtest/gtest.h>

#include <cmath>

#include "exact/buzen.h"
#include "exact/convolution.h"
#include "exact/mm_queues.h"
#include "exact/semiclosed.h"
#include "net/examples.h"
#include "sim/msgnet_sim.h"
#include "windim/windim.h"

namespace windim::exact {
namespace {

qn::Station fcfs(const std::string& name) {
  qn::Station s;
  s.name = name;
  s.discipline = qn::Discipline::kFcfs;
  return s;
}

qn::NetworkModel single_station(double service_time) {
  qn::NetworkModel m;
  const int a = m.add_station(fcfs("q"));
  qn::Chain c;
  c.type = qn::ChainType::kClosed;
  c.population = 0;
  c.visits = {{a, 1.0, service_time}};
  m.add_chain(std::move(c));
  return m;
}

TEST(SemiclosedTest, SingleStationReducesToMM1K) {
  // One fixed-rate station, bounds [0, K], Poisson arrivals: the
  // population process is exactly M/M/1/K.
  const double lambda = 30.0, mu = 50.0;
  const int k_max = 5;
  const qn::NetworkModel m = single_station(1.0 / mu);
  const SemiclosedResult r =
      solve_semiclosed(m, {{lambda, 0, k_max}});

  const double rho = lambda / mu;
  double norm = 0.0;
  for (int k = 0; k <= k_max; ++k) norm += std::pow(rho, k);
  for (int k = 0; k <= k_max; ++k) {
    EXPECT_NEAR(r.population_marginal[0][static_cast<std::size_t>(k)],
                std::pow(rho, k) / norm, 1e-10)
        << "k=" << k;
  }
  EXPECT_NEAR(r.blocking_probability[0], std::pow(rho, k_max) / norm, 1e-10);
  EXPECT_NEAR(r.carried_throughput[0],
              lambda * (1.0 - std::pow(rho, k_max) / norm), 1e-8);
  // Mean queue = mean population for a single station.
  EXPECT_NEAR(r.queue_length(0, 0), r.mean_population[0], 1e-10);
}

TEST(SemiclosedTest, LargeBoundApproachesOpenMM1) {
  const double lambda = 20.0, mu = 50.0;
  const qn::NetworkModel m = single_station(1.0 / mu);
  const SemiclosedResult r = solve_semiclosed(m, {{lambda, 0, 60}});
  const MM1 reference(lambda, mu);
  EXPECT_NEAR(r.mean_population[0], reference.mean_number(), 1e-6);
  EXPECT_LT(r.blocking_probability[0], 1e-10);
}

TEST(SemiclosedTest, DegenerateBoundsReduceToClosedNetwork) {
  // H- = H+ = E pins the population: results must equal the closed
  // network at population E (and be independent of the arrival rate).
  qn::NetworkModel m;
  const int a = m.add_station(fcfs("a"));
  const int b = m.add_station(fcfs("b"));
  qn::Chain c;
  c.type = qn::ChainType::kClosed;
  c.population = 0;
  c.visits = {{a, 1.0, 0.1}, {b, 1.0, 0.25}};
  m.add_chain(std::move(c));

  const SemiclosedResult pinned = solve_semiclosed(m, {{7.0, 4, 4}});
  EXPECT_NEAR(pinned.mean_population[0], 4.0, 1e-10);

  qn::NetworkModel closed = m;
  // Rebuild with population 4 for the Buzen reference.
  qn::NetworkModel ref;
  const int a2 = ref.add_station(fcfs("a"));
  const int b2 = ref.add_station(fcfs("b"));
  qn::Chain rc;
  rc.type = qn::ChainType::kClosed;
  rc.population = 4;
  rc.visits = {{a2, 1.0, 0.1}, {b2, 1.0, 0.25}};
  ref.add_chain(std::move(rc));
  const BuzenResult buzen = solve_buzen(ref);
  EXPECT_NEAR(pinned.queue_length(0, 0), buzen.mean_number[0], 1e-9);
  EXPECT_NEAR(pinned.queue_length(1, 0), buzen.mean_number[1], 1e-9);

  const SemiclosedResult other_rate = solve_semiclosed(m, {{99.0, 4, 4}});
  EXPECT_NEAR(other_rate.queue_length(0, 0), pinned.queue_length(0, 0),
              1e-10);
  (void)closed;
}

TEST(SemiclosedTest, BruteForceTwoChainCrossCheck) {
  // Two chains sharing a station; enumerate the semiclosed product form
  // by hand and compare everything.
  qn::NetworkModel m;
  const int a = m.add_station(fcfs("a"));
  const int shared = m.add_station(fcfs("shared"));
  const int b = m.add_station(fcfs("b"));
  qn::Chain c1;
  c1.type = qn::ChainType::kClosed;
  c1.visits = {{a, 1.0, 0.08}, {shared, 1.0, 0.05}};
  m.add_chain(std::move(c1));
  qn::Chain c2;
  c2.type = qn::ChainType::kClosed;
  c2.visits = {{shared, 1.0, 0.05}, {b, 1.0, 0.11}};
  m.add_chain(std::move(c2));
  const std::vector<SemiclosedChainSpec> specs{{9.0, 0, 3}, {6.0, 1, 2}};
  const SemiclosedResult r = solve_semiclosed(m, specs);

  // Brute force: g(h) from convolution at each population vector.
  double z = 0.0;
  double mean0 = 0.0, block0 = 0.0;
  for (int h1 = 0; h1 <= 3; ++h1) {
    for (int h2 = 1; h2 <= 2; ++h2) {
      qn::NetworkModel fixed;
      const int a2 = fixed.add_station(fcfs("a"));
      const int s2 = fixed.add_station(fcfs("shared"));
      const int b2 = fixed.add_station(fcfs("b"));
      qn::Chain f1;
      f1.type = qn::ChainType::kClosed;
      f1.population = h1;
      f1.visits = {{a2, 1.0, 0.08}, {s2, 1.0, 0.05}};
      fixed.add_chain(std::move(f1));
      qn::Chain f2;
      f2.type = qn::ChainType::kClosed;
      f2.population = h2;
      f2.visits = {{s2, 1.0, 0.05}, {b2, 1.0, 0.11}};
      fixed.add_chain(std::move(f2));
      // Unnormalized product-form weight: brute-force g (absolute
      // demands) times the arrival factors.
      const ProductFormResult pf = solve_product_form(fixed);
      const double w =
          std::pow(9.0, h1) * std::pow(6.0, h2) * pf.g;
      z += w;
      mean0 += w * h1;
      if (h1 == 3) block0 += w;
    }
  }
  EXPECT_NEAR(r.mean_population[0], mean0 / z, 1e-8);
  EXPECT_NEAR(r.blocking_probability[0], block0 / z, 1e-8);
  // Lower bound H- = 1 respected for chain 2.
  EXPECT_NEAR(r.population_marginal[1][0], 0.0, 1e-12);
}

TEST(SemiclosedTest, PopulationProbabilitySumsToOne) {
  qn::NetworkModel m;
  const int a = m.add_station(fcfs("a"));
  const int b = m.add_station(fcfs("b"));
  qn::Chain c;
  c.type = qn::ChainType::kClosed;
  c.visits = {{a, 1.0, 0.1}, {b, 1.0, 0.05}};
  m.add_chain(std::move(c));
  const SemiclosedResult r = solve_semiclosed(m, {{12.0, 0, 6}});
  double total = 0.0;
  for (double p : r.population_probability) total += p;
  EXPECT_NEAR(total, 1.0, 1e-10);
  double marginal_total = 0.0;
  for (double p : r.population_marginal[0]) marginal_total += p;
  EXPECT_NEAR(marginal_total, 1.0, 1e-10);
}

TEST(SemiclosedTest, MeanQueueMatchesMeanPopulation) {
  // Station queue lengths summed over stations must equal the mean
  // population of each chain.
  qn::NetworkModel m;
  const int a = m.add_station(fcfs("a"));
  const int shared = m.add_station(fcfs("shared"));
  qn::Chain c1;
  c1.type = qn::ChainType::kClosed;
  c1.visits = {{a, 1.0, 0.06}, {shared, 1.0, 0.04}};
  m.add_chain(std::move(c1));
  qn::Chain c2;
  c2.type = qn::ChainType::kClosed;
  c2.visits = {{shared, 1.0, 0.04}};
  m.add_chain(std::move(c2));
  const SemiclosedResult r =
      solve_semiclosed(m, {{10.0, 0, 4}, {15.0, 0, 3}});
  for (int chain = 0; chain < 2; ++chain) {
    double total = 0.0;
    for (int n = 0; n < 2; ++n) total += r.queue_length(n, chain);
    EXPECT_NEAR(total, r.mean_population[static_cast<std::size_t>(chain)],
                1e-8)
        << "chain " << chain;
  }
}

TEST(SemiclosedTest, BlockingGrowsWithLoad) {
  const qn::NetworkModel m = single_station(0.02);
  double previous = 0.0;
  for (double lambda : {10.0, 25.0, 40.0, 60.0, 90.0}) {
    const SemiclosedResult r = solve_semiclosed(m, {{lambda, 0, 4}});
    EXPECT_GT(r.blocking_probability[0], previous);
    previous = r.blocking_probability[0];
  }
}

TEST(SemiclosedTest, ZeroArrivalRateEmptiesChain) {
  const qn::NetworkModel m = single_station(0.02);
  const SemiclosedResult r = solve_semiclosed(m, {{0.0, 0, 5}});
  EXPECT_NEAR(r.population_marginal[0][0], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.carried_throughput[0], 0.0);
}

// -------------------------------------------------- global (isarithmic) bound

TEST(SemiclosedGlobalTest, LooseGlobalBoundChangesNothing) {
  qn::NetworkModel m;
  const int a = m.add_station(fcfs("a"));
  const int b = m.add_station(fcfs("b"));
  qn::Chain c;
  c.type = qn::ChainType::kClosed;
  c.visits = {{a, 1.0, 0.05}, {b, 1.0, 0.08}};
  m.add_chain(std::move(c));
  const std::vector<SemiclosedChainSpec> specs{{15.0, 0, 5}};
  const SemiclosedResult plain = solve_semiclosed(m, specs);
  const SemiclosedResult loose =
      solve_semiclosed(m, specs, {0, 99});
  EXPECT_NEAR(plain.carried_throughput[0], loose.carried_throughput[0],
              1e-12);
  EXPECT_NEAR(plain.blocking_probability[0], loose.blocking_probability[0],
              1e-12);
}

TEST(SemiclosedGlobalTest, SingleChainGlobalEqualsOwnBound) {
  // With one chain a global cap I and a per-chain bound I coincide.
  const double mu = 50.0;
  qn::NetworkModel m;
  const int a = m.add_station(fcfs("q"));
  qn::Chain c;
  c.type = qn::ChainType::kClosed;
  c.visits = {{a, 1.0, 1.0 / mu}};
  m.add_chain(std::move(c));
  const SemiclosedResult own = solve_semiclosed(m, {{30.0, 0, 3}});
  const SemiclosedResult global =
      solve_semiclosed(m, {{30.0, 0, 10}}, {0, 3});
  EXPECT_NEAR(own.carried_throughput[0], global.carried_throughput[0],
              1e-10);
  EXPECT_NEAR(own.blocking_probability[0], global.blocking_probability[0],
              1e-10);
}

TEST(SemiclosedGlobalTest, GlobalCapBlocksBothChainsTogether) {
  // Two chains, generous per-chain bounds, tight global cap: blocking
  // probabilities include the shared-permit contention and carried
  // throughput is monotone in the cap.
  qn::NetworkModel m;
  const int a = m.add_station(fcfs("a"));
  const int shared = m.add_station(fcfs("shared"));
  const int b = m.add_station(fcfs("b"));
  qn::Chain c1;
  c1.type = qn::ChainType::kClosed;
  c1.visits = {{a, 1.0, 0.06}, {shared, 1.0, 0.04}};
  m.add_chain(std::move(c1));
  qn::Chain c2;
  c2.type = qn::ChainType::kClosed;
  c2.visits = {{shared, 1.0, 0.04}, {b, 1.0, 0.07}};
  m.add_chain(std::move(c2));
  const std::vector<SemiclosedChainSpec> specs{{20.0, 0, 8}, {20.0, 0, 8}};
  double previous = 0.0;
  for (int cap : {1, 2, 4, 8, 16}) {
    const SemiclosedResult r = solve_semiclosed(m, specs, {0, cap});
    const double carried =
        r.carried_throughput[0] + r.carried_throughput[1];
    EXPECT_GT(carried, previous) << "cap " << cap;
    previous = carried;
    // Population never exceeds the cap.
    double mean_total = r.mean_population[0] + r.mean_population[1];
    EXPECT_LE(mean_total, cap + 1e-9);
  }
}

TEST(SemiclosedGlobalTest, MatchesIsarithmicDropTailSimulation) {
  // The global bound IS isarithmic flow control: permits gate admission,
  // blocked arrivals lost.  Compare against the simulator in that exact
  // configuration (big per-class windows so only permits bind).
  const net::Topology topo = net::canada_topology();
  const auto classes = net::two_class_traffic(25.0, 25.0);
  const int permits = 5;

  // Analytic: route-queues-only model with a global cap.
  const core::WindowProblem problem(topo, classes);
  const qn::CyclicNetwork net = problem.network({permits, permits});
  qn::NetworkModel route_model;
  for (const qn::Station& s : net.stations) route_model.add_station(s);
  std::vector<SemiclosedChainSpec> specs;
  for (int r = 0; r < 2; ++r) {
    qn::Chain chain;
    chain.type = qn::ChainType::kClosed;
    const auto& cyc = net.chains[static_cast<std::size_t>(r)];
    for (std::size_t k = 0; k + 1 < cyc.route.size(); ++k) {
      chain.visits.push_back(
          qn::Visit{cyc.route[k], 1.0, cyc.service_times[k]});
    }
    route_model.add_chain(std::move(chain));
    specs.push_back(SemiclosedChainSpec{25.0, 0, permits});
  }
  const SemiclosedResult analytic =
      solve_semiclosed(route_model, specs, {0, permits});
  const double analytic_carried =
      analytic.carried_throughput[0] + analytic.carried_throughput[1];

  sim::MsgNetOptions options;
  options.isarithmic_permits = permits;
  options.source_queue_limit = 0;
  options.sim_time = 2500.0;
  options.warmup = 250.0;
  const sim::MsgNetResult simulated =
      sim::simulate_msgnet(topo, classes, options);

  EXPECT_NEAR(simulated.delivered_rate, analytic_carried,
              0.05 * analytic_carried);
}

TEST(SemiclosedGlobalTest, RejectsEmptyBand) {
  qn::NetworkModel m = single_station(0.02);
  EXPECT_THROW((void)solve_semiclosed(m, {{5.0, 0, 2}}, {3, 5}),
               std::invalid_argument);
  EXPECT_THROW((void)solve_semiclosed(m, {{5.0, 2, 4}}, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)solve_semiclosed(m, {{5.0, 0, 2}}, {-1, 2}),
               std::invalid_argument);
}

TEST(SemiclosedTest, RejectsMalformedInput) {
  const qn::NetworkModel m = single_station(0.02);
  EXPECT_THROW((void)solve_semiclosed(m, {}), std::invalid_argument);
  EXPECT_THROW((void)solve_semiclosed(m, {{1.0, 3, 2}}),
               std::invalid_argument);
  EXPECT_THROW((void)solve_semiclosed(m, {{1.0, -1, 2}}),
               std::invalid_argument);
  EXPECT_THROW((void)solve_semiclosed(m, {{-1.0, 0, 2}}),
               std::invalid_argument);
}

// ------------------------------------------------ semiclosed window model

TEST(SemiclosedWindowTest, EvaluatorRunsOnTwoClassNetwork) {
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  const core::Evaluation ev =
      problem.evaluate({4, 4}, "semiclosed");
  EXPECT_GT(ev.throughput, 0.0);
  EXPECT_LE(ev.class_throughput[0], 20.0 + 1e-9);  // carried <= offered
  EXPECT_GT(ev.power, 0.0);
}

TEST(SemiclosedWindowTest, MatchesDropTailSimulator) {
  // The semiclosed model is the exact analytic counterpart of the
  // simulator with source_queue_limit = 0 (arrivals finding the window
  // closed are lost).  Throughputs should agree within noise.
  const std::vector<int> windows{3, 3};
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(25.0, 25.0));
  const core::Evaluation analytic =
      problem.evaluate(windows, "semiclosed");

  sim::MsgNetOptions options;
  options.windows = windows;
  options.source_queue_limit = 0;
  options.sim_time = 2000.0;
  options.warmup = 200.0;
  const sim::MsgNetResult simulated = sim::simulate_msgnet(
      net::canada_topology(), net::two_class_traffic(25.0, 25.0), options);

  EXPECT_NEAR(simulated.delivered_rate, analytic.throughput,
              0.05 * analytic.throughput);
}

TEST(SemiclosedWindowTest, ConvergesToClosedModelOrdering) {
  // Both models must agree on the qualitative effect of the window:
  // throughput increasing in E, delay increasing in E.
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(30.0, 30.0));
  double prev_thr = 0.0, prev_delay = 0.0;
  for (int e = 1; e <= 6; ++e) {
    const core::Evaluation ev =
        problem.evaluate({e, e}, "semiclosed");
    EXPECT_GT(ev.throughput, prev_thr);
    EXPECT_GT(ev.mean_delay, prev_delay);
    prev_thr = ev.throughput;
    prev_delay = ev.mean_delay;
  }
}

TEST(SemiclosedWindowTest, ZeroWindowBlocksEverything) {
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  const core::Evaluation ev =
      problem.evaluate({0, 3}, "semiclosed");
  EXPECT_DOUBLE_EQ(ev.class_throughput[0], 0.0);
  EXPECT_GT(ev.class_throughput[1], 0.0);
}

}  // namespace
}  // namespace windim::exact
