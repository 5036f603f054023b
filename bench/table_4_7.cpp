// Reproduces thesis Table 4.7: effect of symmetrical class loadings on
// the optimal window settings for the 2-class network example (Fig 4.5).
//
// For each symmetric load S1 = S2 the WINDIM algorithm dimensions the
// windows (heuristic MVA + pattern search, Kleinrock initialization).
// Expected shape (thesis): optimal windows symmetric, shrinking from
// (5,5) to (2,2) as the load grows; maximum power increasing with load.
// The exhaustive column certifies the searched optimum over the
// [1,8]^2 box; the exact-MVA column prices the heuristic's bias.
#include <cstdio>
#include <limits>

#include "util/table.h"
#include "windim/windim.h"

int main() {
  using namespace windim;
  const net::Topology topology = net::canada_topology();

  // Thesis rows: S1, S2 (first row is 12 & 13 in the thesis).
  const double rows[][2] = {
      {12.0, 13.0}, {15.5, 15.5}, {18.0, 18.0},  {20.0, 20.0},
      {22.5, 22.5}, {25.0, 25.0}, {37.5, 37.5},  {50.0, 50.0},
      {62.5, 62.5}, {75.0, 75.0},
  };

  util::TextTable table({"S1", "S2", "S1+S2", "E_opt", "P_opt(heur)",
                         "E_exhaustive", "P(exact MVA)", "evals"});

  for (const auto& row : rows) {
    const core::WindowProblem problem(
        topology, net::two_class_traffic(row[0], row[1]));
    const core::DimensionResult result = core::dimension_windows(problem);

    // Exhaustive certification over the [1,8]^2 box (heuristic objective).
    const search::Objective objective = [&](const search::Point& e) {
      const core::Evaluation ev = problem.evaluate(e);
      return ev.power > 0.0 ? 1.0 / ev.power
                            : std::numeric_limits<double>::infinity();
    };
    const search::ExhaustiveResult exhaustive =
        search::exhaustive_search(objective, {1, 1}, {8, 8});

    // Exact power at the dimensioned windows.
    const core::Evaluation exact = problem.evaluate(
        result.optimal_windows, "exact-mva");

    table.begin_row()
        .add(row[0], 1)
        .add(row[1], 1)
        .add(row[0] + row[1], 1)
        .add_window(result.optimal_windows)
        .add(result.evaluation.power, 1)
        .add_window(exhaustive.best)
        .add(exact.power, 1)
        .add(static_cast<long>(result.objective_evaluations));
  }

  std::printf("Table 4.7 - symmetric loadings, 2-class network\n");
  std::printf("(thesis: E_opt (5,5)->(2,2) shrinking, P_opt 159->196 "
              "growing with load)\n\n%s\n",
              table.render().c_str());
  return 0;
}
