// Thesis chapter 4's first case study, end to end: the 2-class Canadian
// network (Fig 4.5/4.6).
//
// Dimensions windows across a load sweep, prints the throughput/delay/
// power breakdown per class at one operating point, compares the three
// evaluation engines, and probes the neighbourhood of the optimum - the
// workflow a network planner would follow with this library.
#include <cstdio>

#include "util/table.h"
#include "windim/windim.h"

int main() {
  using namespace windim;
  const net::Topology topology = net::canada_topology();

  std::printf("== Topology ==\n");
  for (int c = 0; c < topology.num_channels(); ++c) {
    const net::Channel& ch = topology.channel(c);
    std::printf("  %-4s %-10s <-> %-10s %5.1f kbit/s\n", ch.name.c_str(),
                topology.node(ch.a).name.c_str(),
                topology.node(ch.b).name.c_str(), ch.capacity_kbps);
  }

  // ---- load sweep -------------------------------------------------------
  std::printf("\n== Window dimensioning across symmetric loads ==\n");
  util::TextTable sweep({"S1=S2", "E_opt", "thput", "delay(ms)", "power"});
  for (double s : {10.0, 15.0, 20.0, 30.0, 50.0}) {
    const core::WindowProblem problem(topology,
                                      net::two_class_traffic(s, s));
    const core::DimensionResult r = core::dimension_windows(problem);
    sweep.begin_row()
        .add(s, 1)
        .add_window(r.optimal_windows)
        .add(r.evaluation.throughput, 1)
        .add(r.evaluation.mean_delay * 1000.0, 1)
        .add(r.evaluation.power, 1);
  }
  std::printf("%s", sweep.render().c_str());

  // ---- one operating point, per-class detail ----------------------------
  const double s1 = 20.0, s2 = 20.0;
  const core::WindowProblem problem(topology,
                                    net::two_class_traffic(s1, s2));
  const core::DimensionResult r = core::dimension_windows(problem);
  std::printf("\n== Operating point S1=S2=%.0f msg/s, E=%s ==\n", s1,
              util::format_window(r.optimal_windows).c_str());
  for (int k = 0; k < problem.num_classes(); ++k) {
    std::printf("  %-8s throughput %6.2f msg/s   delay %6.1f ms\n",
                problem.traffic_class(k).name.c_str(),
                r.evaluation.class_throughput[static_cast<std::size_t>(k)],
                r.evaluation.class_delay[static_cast<std::size_t>(k)] *
                    1000.0);
  }

  // ---- evaluator comparison ---------------------------------------------
  std::printf("\n== Evaluation engines at E=%s ==\n",
              util::format_window(r.optimal_windows).c_str());
  for (const char* engine : {"heuristic-mva", "exact-mva", "convolution"}) {
    const core::Evaluation ev = problem.evaluate(r.optimal_windows, engine);
    std::printf("  %-14s power %7.2f  (throughput %6.2f, delay %6.2f ms)\n",
                engine, ev.power, ev.throughput,
                ev.mean_delay * 1000.0);
  }

  // ---- neighbourhood of the optimum --------------------------------------
  std::printf("\n== Power surface around the optimum ==\n      ");
  for (int e2 = 1; e2 <= 6; ++e2) std::printf("  E2=%d ", e2);
  std::printf("\n");
  for (int e1 = 1; e1 <= 6; ++e1) {
    std::printf("E1=%d  ", e1);
    for (int e2 = 1; e2 <= 6; ++e2) {
      std::printf(" %6.1f", problem.evaluate({e1, e2}).power);
    }
    std::printf("\n");
  }
  return 0;
}
