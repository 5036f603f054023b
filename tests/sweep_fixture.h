// A generated window problem with enough classes (kSweepClasses >= 256,
// the chain-block threshold of solver/heuristic_mva.cc) that a solver
// pool really splits every MVA sweep into blocks.
//
// The determinism pins dimension it once with a caller-owned
// util::ThreadPool(4) as DimensionOptions::solver_pool and once without,
// and require identical output.  The pool is built by the test, not
// sized by the host's cores, so the pin bites on a 1-CPU machine too; a
// small evaluation budget keeps each run fast.
#pragma once

#include <cstddef>
#include <vector>

#include "net/generators.h"
#include "util/rng.h"
#include "windim/dimension.h"
#include "windim/problem.h"

namespace windim::test {

inline constexpr int kSweepClasses = 256;
inline constexpr std::size_t kSweepEvaluations = 12;

inline core::WindowProblem sweep_problem() {
  util::Rng rng(7);
  const net::Topology topology =
      net::random_topology(16, 8, 50.0, 100.0, rng);
  const std::vector<net::TrafficClass> classes =
      net::random_traffic(topology, kSweepClasses, 0.1, 0.3, rng);
  return core::WindowProblem(topology, classes);
}

/// Options for one budgeted run of sweep_problem() on `pool` (null =
/// serial sweeps).
inline core::DimensionOptions sweep_options(util::ThreadPool* pool) {
  core::DimensionOptions options;
  options.max_evaluations = kSweepEvaluations;
  options.solver_pool = pool;
  return options;
}

}  // namespace windim::test
