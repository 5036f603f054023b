// Ablation A6: which analytic abstraction of window flow control is
// closest to the simulated truth?
//
// Three models of the same system:
//   closed      - thesis model: source = exponential server 1/S (chain
//                 population fixed at E); matches a simulator whose
//                 source regenerates after each credit;
//   semiclosed  - Poisson source, arrivals beyond the window LOST
//                 (thesis 3.3.3); matches the drop-tail simulator;
//   simulator   - ground truth with an infinite source backlog
//                 (work-conserving, the common real deployment).
//
// Expected: semiclosed == drop-tail sim to simulation noise (it is the
// exact solution of that system); closed model is conservative against
// the backlog simulator (it forgets buffered arrivals); all models agree
// as E grows.
#include <cstdio>

#include "net/examples.h"
#include "sim/msgnet_sim.h"
#include "util/table.h"
#include "windim/windim.h"

int main() {
  using namespace windim;
  const net::Topology topology = net::canada_topology();
  const double s = 25.0;
  const auto classes = net::two_class_traffic(s, s);
  const core::WindowProblem problem(topology, classes);

  util::TextTable table({"window E", "closed thput", "semiclosed thput",
                         "sim drop-tail", "sim backlog", "closed delay(ms)",
                         "sim backlog delay(ms)"});

  for (int e : {1, 2, 3, 4, 6, 8}) {
    const core::Evaluation closed =
        problem.evaluate({e, e}, "convolution");
    const core::Evaluation semi =
        problem.evaluate({e, e}, "semiclosed");

    sim::MsgNetOptions drop;
    drop.windows = {e, e};
    drop.source_queue_limit = 0;
    drop.sim_time = 1500.0;
    drop.warmup = 150.0;
    drop.seed = 23;
    sim::MsgNetOptions backlog = drop;
    backlog.source_queue_limit = -1;

    const sim::MsgNetResult sim_drop =
        sim::simulate_msgnet(topology, classes, drop);
    const sim::MsgNetResult sim_backlog =
        sim::simulate_msgnet(topology, classes, backlog);

    table.begin_row()
        .add(e)
        .add(closed.throughput, 2)
        .add(semi.throughput, 2)
        .add(sim_drop.delivered_rate, 2)
        .add(sim_backlog.delivered_rate, 2)
        .add(closed.mean_delay * 1000.0, 1)
        .add(sim_backlog.mean_network_delay * 1000.0, 1);
  }

  std::printf("Ablation A6 - window-model fidelity (S1=S2=%.0f msg/s)\n", s);
  std::printf("(expected: semiclosed tracks the drop-tail simulation "
              "exactly; the thesis's closed model is a conservative "
              "estimate of the backlog simulation, converging as E "
              "grows)\n\n%s\n",
              table.render().c_str());
  return 0;
}
