#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "qn/compiled_model.h"
#include "qn/cyclic.h"
#include "qn/network.h"
#include "qn/traffic.h"

namespace windim::qn {
namespace {

Station fcfs(const std::string& name) {
  Station s;
  s.name = name;
  s.discipline = Discipline::kFcfs;
  return s;
}

// ------------------------------------------------------------------- stations

TEST(StationTest, FixedRateMultiplierIsOne) {
  const Station s = fcfs("q");
  EXPECT_DOUBLE_EQ(s.rate_multiplier(1), 1.0);
  EXPECT_DOUBLE_EQ(s.rate_multiplier(5), 1.0);
  EXPECT_DOUBLE_EQ(s.rate_multiplier(0), 0.0);
  EXPECT_TRUE(s.is_fixed_rate());
  EXPECT_FALSE(s.is_delay());
}

TEST(StationTest, InfiniteServerMultiplierGrowsLinearly) {
  Station s;
  s.discipline = Discipline::kInfiniteServer;
  EXPECT_DOUBLE_EQ(s.rate_multiplier(3), 3.0);
  EXPECT_TRUE(s.is_delay());
  EXPECT_FALSE(s.is_fixed_rate());
}

TEST(StationTest, QueueDependentMultiplierSaturates) {
  Station s;
  s.rate_multipliers = {1.0, 2.0, 3.0};  // e.g. M/M/3
  EXPECT_DOUBLE_EQ(s.rate_multiplier(1), 1.0);
  EXPECT_DOUBLE_EQ(s.rate_multiplier(2), 2.0);
  EXPECT_DOUBLE_EQ(s.rate_multiplier(3), 3.0);
  EXPECT_DOUBLE_EQ(s.rate_multiplier(7), 3.0);  // saturated
  EXPECT_FALSE(s.is_fixed_rate());
}

// ---------------------------------------------------------------------- model

NetworkModel two_station_closed(int population) {
  NetworkModel m;
  const int a = m.add_station(fcfs("a"));
  const int b = m.add_station(fcfs("b"));
  Chain c;
  c.name = "chain";
  c.type = ChainType::kClosed;
  c.population = population;
  c.visits = {{a, 1.0, 0.1}, {b, 1.0, 0.2}};
  m.add_chain(std::move(c));
  return m;
}

TEST(NetworkModelTest, DemandIsVisitRatioTimesServiceTime) {
  NetworkModel m = two_station_closed(3);
  EXPECT_DOUBLE_EQ(m.demand(0, 0), 0.1);
  EXPECT_DOUBLE_EQ(m.demand(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(m.service_time(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(m.visit_ratio(0, 0), 1.0);
}

TEST(NetworkModelTest, VisitsAndStationSets) {
  NetworkModel m = two_station_closed(3);
  const int c = m.add_station(fcfs("unvisited"));
  EXPECT_TRUE(m.visits(0, 0));
  EXPECT_FALSE(m.visits(0, c));
  EXPECT_EQ(m.stations_of(0), (std::vector<int>{0, 1}));
  EXPECT_EQ(m.chains_visiting(0), (std::vector<int>{0}));
  EXPECT_TRUE(m.chains_visiting(c).empty());
}

TEST(CompiledModelTest, VisitedCellMapsFollowTheCsrOrder) {
  // Chain 0 visits stations 0 and 2, chain 1 visits 1 and 2: cells are
  // numbered station by station, each station's chains ascending, and
  // each chain lists its cells in ascending station order.
  NetworkModel m;
  const int a = m.add_station(fcfs("a"));
  const int b = m.add_station(fcfs("b"));
  const int shared = m.add_station(fcfs("shared"));
  for (const auto& [first, time] : {std::pair{a, 0.1}, std::pair{b, 0.3}}) {
    Chain c;
    c.name = "c" + std::to_string(first);
    c.type = ChainType::kClosed;
    c.population = 2;
    c.visits = {{first, 1.0, time}, {shared, 2.0, 0.05}};
    m.add_chain(std::move(c));
  }
  const CompiledModel compiled = CompiledModel::compile(m);
  ASSERT_EQ(compiled.visited_cell_count(), 4u);
  const auto vec = [](auto span) {
    return std::vector<typename decltype(span)::value_type>(span.begin(),
                                                            span.end());
  };
  EXPECT_EQ(vec(compiled.cell_station()), (std::vector<int>{0, 1, 2, 2}));
  EXPECT_EQ(vec(compiled.cell_chain()), (std::vector<int>{0, 1, 0, 1}));
  EXPECT_EQ(vec(compiled.cell_index()),
            (std::vector<std::size_t>{0, 3, 4, 5}));
  EXPECT_EQ(vec(compiled.cell_demand()),
            (std::vector<double>{m.demand(0, 0), m.demand(1, 1),
                                 m.demand(0, 2), m.demand(1, 2)}));
  EXPECT_EQ(vec(compiled.chain_cells(0)), (std::vector<int>{0, 2}));
  EXPECT_EQ(vec(compiled.chain_cells(1)), (std::vector<int>{1, 3}));
  for (const auto& [n, begin] :
       {std::pair{0, 0u}, std::pair{1, 1u}, std::pair{2, 2u},
        std::pair{3, 4u}}) {
    EXPECT_EQ(compiled.station_cell_begin(n), begin) << "station " << n;
  }
}

TEST(NetworkModelTest, ValidatesCleanModel) {
  EXPECT_NO_THROW(two_station_closed(3).validate());
}

TEST(NetworkModelTest, RejectsChainWithUnknownStation) {
  NetworkModel m;
  m.add_station(fcfs("a"));
  Chain c;
  c.visits = {{5, 1.0, 0.1}};
  EXPECT_THROW(m.add_chain(std::move(c)), ModelError);
}

TEST(NetworkModelTest, RejectsNegativePopulation) {
  NetworkModel m = two_station_closed(-1);
  EXPECT_THROW(m.validate(), ModelError);
}

TEST(NetworkModelTest, RejectsDuplicateVisitEntries) {
  NetworkModel m;
  const int a = m.add_station(fcfs("a"));
  Chain c;
  c.population = 1;
  c.visits = {{a, 1.0, 0.1}, {a, 1.0, 0.1}};
  m.add_chain(std::move(c));
  EXPECT_THROW(m.validate(), ModelError);
}

TEST(NetworkModelTest, RejectsNonPositiveServiceTime) {
  NetworkModel m;
  const int a = m.add_station(fcfs("a"));
  Chain c;
  c.population = 1;
  c.visits = {{a, 1.0, 0.0}};
  m.add_chain(std::move(c));
  EXPECT_THROW(m.validate(), ModelError);
}

TEST(NetworkModelTest, RejectsClassDependentFcfsServiceTimes) {
  // BCMP: FCFS stations need equal means across chains (thesis 3.2.4).
  NetworkModel m;
  const int a = m.add_station(fcfs("shared"));
  Chain c1;
  c1.name = "c1";
  c1.population = 1;
  c1.visits = {{a, 1.0, 0.1}};
  m.add_chain(std::move(c1));
  Chain c2;
  c2.name = "c2";
  c2.population = 1;
  c2.visits = {{a, 1.0, 0.3}};
  m.add_chain(std::move(c2));
  EXPECT_THROW(m.validate(), ModelError);
}

TEST(NetworkModelTest, AllowsClassDependentPsServiceTimes) {
  NetworkModel m;
  Station ps;
  ps.name = "shared";
  ps.discipline = Discipline::kProcessorSharing;
  const int a = m.add_station(std::move(ps));
  Chain c1;
  c1.population = 1;
  c1.visits = {{a, 1.0, 0.1}};
  m.add_chain(std::move(c1));
  Chain c2;
  c2.population = 1;
  c2.visits = {{a, 1.0, 0.3}};
  m.add_chain(std::move(c2));
  EXPECT_NO_THROW(m.validate());
}

TEST(NetworkModelTest, RejectsIsStationWithRateMultipliers) {
  NetworkModel m;
  Station s;
  s.name = "is";
  s.discipline = Discipline::kInfiniteServer;
  s.rate_multipliers = {1.0, 2.0};
  const int a = m.add_station(std::move(s));
  Chain c;
  c.population = 1;
  c.visits = {{a, 1.0, 0.1}};
  m.add_chain(std::move(c));
  EXPECT_THROW(m.validate(), ModelError);
}

TEST(NetworkModelTest, ClosedPopulationsSkipsOpenChains) {
  NetworkModel m = two_station_closed(3);
  Chain open;
  open.name = "open";
  open.type = ChainType::kOpen;
  open.arrival_rate = 2.0;
  open.visits = {{0, 1.0, 0.1}};
  m.add_chain(std::move(open));
  EXPECT_EQ(m.closed_populations(), (std::vector<int>{3}));
  EXPECT_FALSE(m.all_closed());
}

TEST(NetworkModelTest, DisciplineNames) {
  EXPECT_STREQ(to_string(Discipline::kFcfs), "FCFS");
  EXPECT_STREQ(to_string(Discipline::kProcessorSharing), "PS");
  EXPECT_STREQ(to_string(Discipline::kLcfsPreemptiveResume), "LCFS-PR");
  EXPECT_STREQ(to_string(Discipline::kInfiniteServer), "IS");
}

// --------------------------------------------------------------------- cyclic

TEST(CyclicNetworkTest, ToModelPreservesStructure) {
  CyclicNetwork net;
  net.stations = {fcfs("q0"), fcfs("q1"), fcfs("src")};
  net.chains = {{"c", {0, 1, 2}, {0.02, 0.04, 0.05}, 4}};
  const NetworkModel m = net.to_model();
  EXPECT_EQ(m.num_stations(), 3);
  EXPECT_EQ(m.num_chains(), 1);
  EXPECT_EQ(m.chain(0).population, 4);
  EXPECT_DOUBLE_EQ(m.demand(0, 1), 0.04);
  EXPECT_NO_THROW(m.validate());
}

TEST(CyclicNetworkTest, RejectsRouteServiceSizeMismatch) {
  CyclicNetwork net;
  net.stations = {fcfs("q0")};
  net.chains = {{"c", {0}, {0.1, 0.2}, 1}};
  EXPECT_THROW(net.validate(), ModelError);
}

TEST(CyclicNetworkTest, RejectsRepeatedStationInRoute) {
  CyclicNetwork net;
  net.stations = {fcfs("q0"), fcfs("q1")};
  net.chains = {{"c", {0, 1, 0}, {0.1, 0.1, 0.1}, 1}};
  EXPECT_THROW(net.validate(), ModelError);
}

TEST(CyclicNetworkTest, RejectsUnknownStationInRoute) {
  CyclicNetwork net;
  net.stations = {fcfs("q0")};
  net.chains = {{"c", {3}, {0.1}, 1}};
  EXPECT_THROW(net.validate(), ModelError);
}

// -------------------------------------------------------------------- traffic

TEST(TrafficTest, SolveLinearSystemSimple) {
  // 2x + y = 5, x - y = 1  =>  x = 2, y = 1.
  const std::vector<double> x =
      solve_linear_system({2.0, 1.0, 1.0, -1.0}, {5.0, 1.0});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(TrafficTest, SolveLinearSystemRejectsSingular) {
  EXPECT_THROW(solve_linear_system({1.0, 1.0, 2.0, 2.0}, {1.0, 2.0}),
               std::runtime_error);
}

TEST(TrafficTest, OpenTandemTraffic) {
  // gamma -> station0 -> station1 -> out.
  RoutingMatrix p = RoutingMatrix::zero(2);
  p.at(0, 1) = 1.0;
  const std::vector<double> lambda = solve_open_traffic(p, {3.0, 0.0});
  EXPECT_NEAR(lambda[0], 3.0, 1e-12);
  EXPECT_NEAR(lambda[1], 3.0, 1e-12);
}

TEST(TrafficTest, OpenFeedbackAmplifiesFlow) {
  // Station 0 feeds back to itself with probability 1/2: lambda = 2 gamma.
  RoutingMatrix p = RoutingMatrix::zero(1);
  p.at(0, 0) = 0.5;
  const std::vector<double> lambda = solve_open_traffic(p, {1.0});
  EXPECT_NEAR(lambda[0], 2.0, 1e-12);
}

TEST(TrafficTest, ClosedCycleVisitRatiosAreUniform) {
  RoutingMatrix p = RoutingMatrix::zero(3);
  p.at(0, 1) = 1.0;
  p.at(1, 2) = 1.0;
  p.at(2, 0) = 1.0;
  const std::vector<double> e = solve_closed_visit_ratios(p, 0);
  EXPECT_NEAR(e[0], 1.0, 1e-12);
  EXPECT_NEAR(e[1], 1.0, 1e-12);
  EXPECT_NEAR(e[2], 1.0, 1e-12);
}

TEST(TrafficTest, ClosedChainFromRoutingBuildsCentralServer) {
  // Central server: CPU (0) -> disk1 (1) w.p. 0.6, disk2 (2) w.p. 0.4;
  // disks return to the CPU.
  RoutingMatrix p = RoutingMatrix::zero(3);
  p.at(0, 1) = 0.6;
  p.at(0, 2) = 0.4;
  p.at(1, 0) = 1.0;
  p.at(2, 0) = 1.0;
  const Chain chain =
      closed_chain_from_routing(p, {0.05, 0.12, 0.2}, 4, 0, "jobs");
  EXPECT_EQ(chain.type, ChainType::kClosed);
  EXPECT_EQ(chain.population, 4);
  ASSERT_EQ(chain.visits.size(), 3u);
  EXPECT_DOUBLE_EQ(chain.visits[0].visit_ratio, 1.0);
  EXPECT_NEAR(chain.visits[1].visit_ratio, 0.6, 1e-12);
  EXPECT_NEAR(chain.visits[2].visit_ratio, 0.4, 1e-12);
  // Demands = visit ratio * service time.
  EXPECT_NEAR(chain.visits[1].demand(), 0.6 * 0.12, 1e-12);
}

TEST(TrafficTest, ClosedChainFromRoutingFeedsSolvers) {
  RoutingMatrix p = RoutingMatrix::zero(2);
  p.at(0, 1) = 1.0;
  p.at(1, 0) = 1.0;
  NetworkModel m;
  m.add_station(fcfs("a"));
  m.add_station(fcfs("b"));
  m.add_chain(closed_chain_from_routing(p, {0.1, 0.2}, 3, 0));
  EXPECT_NO_THROW(m.validate());
  EXPECT_DOUBLE_EQ(m.demand(0, 1), 0.2);
}

TEST(TrafficTest, OpenChainFromRoutingAggregatesEntryPoints) {
  // Two entry points (rates 2 and 3) into a tandem 0 -> 1 -> out, with
  // entry at both stations.
  RoutingMatrix p = RoutingMatrix::zero(2);
  p.at(0, 1) = 1.0;
  const Chain chain = open_chain_from_routing(p, {2.0, 3.0}, {0.1, 0.1});
  EXPECT_EQ(chain.type, ChainType::kOpen);
  EXPECT_DOUBLE_EQ(chain.arrival_rate, 5.0);
  ASSERT_EQ(chain.visits.size(), 2u);
  // Station 0 carries only its own entries (2/5); station 1 carries
  // everything (5/5).
  EXPECT_NEAR(chain.visits[0].visit_ratio, 0.4, 1e-12);
  EXPECT_NEAR(chain.visits[1].visit_ratio, 1.0, 1e-12);
}

TEST(TrafficTest, OpenChainFromRoutingWithFeedbackAmplifies) {
  RoutingMatrix p = RoutingMatrix::zero(1);
  p.at(0, 0) = 0.5;
  const Chain chain = open_chain_from_routing(p, {4.0}, {0.05});
  EXPECT_DOUBLE_EQ(chain.arrival_rate, 4.0);
  // lambda = 8, visit ratio = 2.
  EXPECT_NEAR(chain.visits[0].visit_ratio, 2.0, 1e-12);
}

TEST(TrafficTest, ChainFromRoutingRejectsBadInput) {
  RoutingMatrix p = RoutingMatrix::zero(2);
  p.at(0, 1) = 1.0;
  p.at(1, 0) = 1.0;
  EXPECT_THROW((void)closed_chain_from_routing(p, {0.1}, 1, 0),
               std::invalid_argument);
  EXPECT_THROW((void)open_chain_from_routing(p, {0.0, 0.0}, {0.1, 0.1}),
               std::invalid_argument);
  EXPECT_THROW((void)open_chain_from_routing(p, {-1.0, 2.0}, {0.1, 0.1}),
               std::invalid_argument);
}

TEST(TrafficTest, ClosedBranchingVisitRatios) {
  // Central server: station 0 -> {1 w.p. 0.75, 2 w.p. 0.25}; both return.
  RoutingMatrix p = RoutingMatrix::zero(3);
  p.at(0, 1) = 0.75;
  p.at(0, 2) = 0.25;
  p.at(1, 0) = 1.0;
  p.at(2, 0) = 1.0;
  const std::vector<double> e = solve_closed_visit_ratios(p, 0);
  EXPECT_NEAR(e[0], 1.0, 1e-12);
  EXPECT_NEAR(e[1], 0.75, 1e-12);
  EXPECT_NEAR(e[2], 0.25, 1e-12);
}

}  // namespace
}  // namespace windim::qn
