// Thesis section 4.6: Kleinrock's isolated-chain window rule.
//
// For a single virtual channel over PHI identical M/M/1 hops with no
// cross traffic, Kleinrock's continuum model (thesis eq. 4.21-4.23)
// predicts the power-optimal window E = PHI.  We sweep the window for
// several hop counts on the closed-chain model (exact single-chain MVA
// via the convolution evaluator) and report the argmax - it should sit
// at PHI or its immediate neighbourhood, the discrete counterpart of
// Kleinrock's rule.  This is the regime where the hop-count
// *initialization* of WINDIM is justified; Table 4.12 shows it failing
// once chains interact.
#include <cstdio>
#include <vector>

#include "net/topology.h"
#include "util/table.h"
#include "windim/windim.h"

namespace {

/// A PHI-hop linear network with a single class across it.
windim::core::WindowProblem isolated_chain(int hops, double rate) {
  windim::net::Topology topo;
  std::vector<std::string> path;
  for (int n = 0; n <= hops; ++n) {
    topo.add_node("n" + std::to_string(n));
    path.push_back("n" + std::to_string(n));
    if (n > 0) {
      topo.add_channel("n" + std::to_string(n - 1), "n" + std::to_string(n),
                       50.0);
    }
  }
  windim::net::TrafficClass tc;
  tc.name = "chain";
  tc.path = path;
  tc.arrival_rate = rate;
  return windim::core::WindowProblem(topo, {tc});
}

}  // namespace

int main() {
  using namespace windim;

  util::TextTable table({"hops PHI", "S (msg/s)", "argmax_E P", "P at argmax",
                         "P at E=PHI", "P(E=PHI)/P(best)"});

  for (int hops : {2, 3, 4, 6, 8}) {
    for (double rate : {20.0, 45.0}) {
      const core::WindowProblem problem = isolated_chain(hops, rate);
      int best_window = 1;
      double best_power = -1.0;
      for (int e = 1; e <= 2 * hops + 4; ++e) {
        const double p =
            problem.evaluate({e}, "convolution").power;
        if (p > best_power) {
          best_power = p;
          best_window = e;
        }
      }
      const double at_phi =
          problem.evaluate({hops}, "convolution").power;
      table.begin_row()
          .add(hops)
          .add(rate, 1)
          .add(best_window)
          .add(best_power, 1)
          .add(at_phi, 1)
          .add(at_phi / best_power, 3);
    }
  }

  std::printf("Kleinrock isolated-chain check (thesis 4.6, eq. 4.21-4.23)\n");
  std::printf("(expected: optimal window within ~1 of the hop count PHI, "
              "and E=PHI within a few %% of the best power)\n\n%s\n",
              table.render().c_str());
  return 0;
}
