// Ablation A1: accuracy of the WINDIM heuristic MVA against the exact
// solvers over the window grid of the 2-class example, plus the
// Schweitzer-Bard sigma policy for comparison.
//
// The thesis justifies the heuristic by (a) bounded error and (b) the
// same ranking of window settings as the exact model.  This bench
// quantifies both: per-grid-point power error statistics and whether the
// argmax windows coincide.
#include <cmath>
#include <cstdio>
#include <vector>

#include "util/table.h"
#include "windim/windim.h"

int main() {
  using namespace windim;
  const net::Topology topology = net::canada_topology();

  util::TextTable table({"S1=S2", "sigma policy", "max |dP|/P", "mean |dP|/P",
                         "argmax heur", "argmax exact", "agree"});

  for (double s : {10.0, 20.0, 40.0, 60.0}) {
    const core::WindowProblem problem(topology,
                                      net::two_class_traffic(s, s));
    for (int policy = 0; policy < 2; ++policy) {
      mva::ApproxMvaOptions options;
      options.sigma = policy == 0 ? mva::SigmaPolicy::kChanSingleChain
                                  : mva::SigmaPolicy::kSchweitzerBard;
      double worst = 0.0, total = 0.0;
      int count = 0;
      std::vector<int> best_h, best_x;
      double best_h_power = -1.0, best_x_power = -1.0;
      for (int e1 = 1; e1 <= 7; ++e1) {
        for (int e2 = 1; e2 <= 7; ++e2) {
          const double h =
              problem.evaluate({e1, e2}, "heuristic-mva",
                               options)
                  .power;
          const double x =
              problem.evaluate({e1, e2}, "convolution")
                  .power;
          const double err = std::abs(h - x) / x;
          worst = std::max(worst, err);
          total += err;
          ++count;
          if (h > best_h_power) {
            best_h_power = h;
            best_h = {e1, e2};
          }
          if (x > best_x_power) {
            best_x_power = x;
            best_x = {e1, e2};
          }
        }
      }
      table.begin_row()
          .add(s, 1)
          .add(policy == 0 ? "chan-single-chain" : "schweitzer-bard")
          .add(worst, 4)
          .add(total / count, 4)
          .add_window(best_h)
          .add_window(best_x)
          .add(best_h == best_x ? "yes" : "NO");
    }
  }

  std::printf("Ablation A1 - heuristic MVA accuracy vs exact convolution "
              "over the 7x7 window grid (2-class network)\n");
  std::printf("(expected: errors of a few percent; argmax windows agree; "
              "thesis sigma heuristic at least as good as "
              "Schweitzer-Bard)\n\n%s\n",
              table.render().c_str());
  return 0;
}
