// perfbench_probe: the in-process side of the windim benchmark.  It
// calls each layer's public entry point directly, so the benchmark can
// check the real binaries' outputs and split their time by layer
// without adding any tracing to the program itself.
//
//   perfbench_probe replies LINES OUT
//       Writes Server::handle_line's reply to every request line of
//       LINES, one per line and in order: the byte-exact reference the
//       socket replies are checked against.
//
//   perfbench_probe dimension SPEC...
//       One JSON object per spec file, one per line: the optimum of
//       core::dimension_windows with default options (as
//       util::format_window prints it), the search's counts, and the
//       times of cli::parse_network_spec, the core::WindowProblem
//       constructor and dimension_windows, plus the solve time the
//       obs::MetricsRegistry summed during the search.
//
//   perfbench_probe layers REPS LINES
//       One JSON object of per-layer samples over the request lines of
//       LINES, each line timed REPS times: serve::parse_request,
//       Server::handle_line on a warm server (also as the per-line
//       median the benchmark subtracts from socket round trips),
//       ModelCache::lookup_or_compile on a hit and on a miss,
//       WorkspacePool::acquire, cli::parse_network_spec, the
//       WindowProblem constructor, and WindowProblem::evaluate_with on
//       every evaluate line's windows: one cold solve, then one solve
//       warm-started from it one window step away, the way pattern
//       search probes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli/spec.h"
#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "solver/registry.h"
#include "solver/workspace.h"
#include "util/table.h"
#include "windim/dimension.h"
#include "windim/problem.h"

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "perfbench_probe: cannot open '%s'\n", path);
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> read_lines(const char* path) {
  std::istringstream in(read_file(path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Named sample arrays, printed as one JSON object of arrays.
class Samples {
 public:
  void add(const std::string& name, double v) { series_[name].push_back(v); }
  void print() const {
    std::printf("{");
    bool first = true;
    for (const auto& [name, values] : series_) {
      std::printf("%s\"%s\":[", first ? "" : ",", name.c_str());
      for (std::size_t i = 0; i < values.size(); ++i) {
        std::printf("%s%.17g", i == 0 ? "" : ",", values[i]);
      }
      std::printf("]");
      first = false;
    }
    std::printf("}\n");
  }

 private:
  std::map<std::string, std::vector<double>> series_;
};

int cmd_replies(const char* lines_path, const char* out_path) {
  windim::serve::ServeOptions options;
  options.threads = 1;
  windim::serve::Server server(options);
  std::ofstream out(out_path, std::ios::binary);
  for (const std::string& line : read_lines(lines_path)) {
    out << server.handle_line(line).json << '\n';
  }
  return out ? 0 : 1;
}

int cmd_dimension(int argc, char** argv) {
  windim::obs::MetricsRegistry& registry =
      windim::obs::MetricsRegistry::global();
  registry.set_enabled(true);
  for (int i = 0; i < argc; ++i) {
    const std::string text = read_file(argv[i]);
    registry.reset();
    const auto t0 = Clock::now();
    const windim::cli::NetworkSpec spec =
        windim::cli::parse_network_spec(text);
    const double parse_us = us_since(t0);
    const auto t1 = Clock::now();
    const windim::core::WindowProblem problem(spec.topology, spec.classes);
    const double compile_us = us_since(t1);
    const auto t2 = Clock::now();
    const windim::core::DimensionResult result =
        windim::core::dimension_windows(problem);
    const double dimension_us = us_since(t2);

    double solve_us = 0.0;
    std::uint64_t solves = 0;
    for (const auto& [name, hist] : registry.snapshot().histograms) {
      if (name.rfind("solver.", 0) == 0 && name.size() > 9 &&
          name.compare(name.size() - 9, 9, ".solve_us") == 0) {
        solve_us += hist.sum;
        solves += hist.count;
      }
    }
    std::printf(
        "{\"windows\":\"%s\",\"evaluations\":%zu,\"cache_hits\":%zu,"
        "\"parse_us\":%.3f,\"compile_us\":%.3f,\"dimension_us\":%.3f,"
        "\"solve_us\":%.3f,\"solves\":%llu}\n",
        windim::util::format_window(result.optimal_windows).c_str(),
        result.objective_evaluations, result.cache_hits, parse_us,
        compile_us, dimension_us, solve_us,
        static_cast<unsigned long long>(solves));
  }
  return 0;
}

int cmd_layers(int reps, const char* lines_path) {
  namespace serve = windim::serve;
  const std::vector<std::string> lines = read_lines(lines_path);
  Samples out;

  // Distinct specs and the evaluate points, in line order.
  std::vector<std::string> specs;
  struct Point {
    std::size_t spec;
    std::vector<int> windows;
  };
  std::vector<Point> points;
  for (const std::string& line : lines) {
    const serve::ParseResult parsed = serve::parse_request(line);
    if (!parsed.ok() || parsed.request->spec.empty()) continue;
    const std::string& spec = parsed.request->spec;
    auto it = std::find(specs.begin(), specs.end(), spec);
    const std::size_t s = static_cast<std::size_t>(it - specs.begin());
    if (it == specs.end()) specs.push_back(spec);
    if (parsed.request->op == serve::Op::kEvaluate) {
      points.push_back({s, parsed.request->windows});
    }
  }

  // Request path: protocol parse, then a warm server's handle_line.
  serve::ServeOptions options;
  options.threads = 1;
  options.cache_capacity = std::max<std::size_t>(64, specs.size());
  serve::Server server(options);
  for (const std::string& line : lines) (void)server.handle_line(line);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::vector<double> handle;
    for (int r = 0; r < reps; ++r) {
      auto t0 = Clock::now();
      const serve::ParseResult parsed = serve::parse_request(lines[i]);
      out.add("serve.protocol.parse_us", us_since(t0));
      if (!parsed.ok()) return 1;
      t0 = Clock::now();
      (void)server.handle_line(lines[i]);
      handle.push_back(us_since(t0));
      out.add("serve.handle_us", handle.back());
    }
    out.add("handle_us_by_line", median(handle));
  }

  // Cache: hits on a warm cache, misses on an empty one.
  serve::ModelCache warm(std::max<std::size_t>(1, specs.size()));
  for (const std::string& spec : specs) (void)warm.lookup_or_compile(spec);
  for (const Point& p : points) {
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      (void)warm.lookup_or_compile(specs[p.spec]);
      out.add("serve.cache.lookup_us", us_since(t0));
    }
  }
  for (const std::string& spec : specs) {
    for (int r = 0; r < reps; ++r) {
      serve::ModelCache cold(1);
      const auto t0 = Clock::now();
      (void)cold.lookup_or_compile(spec);
      out.add("serve.cache.compile_us", us_since(t0));
    }
  }

  // Workspace lease (the lease itself is returned untimed).
  windim::solver::WorkspacePool pool;
  for (std::size_t i = 0; i < points.size() * static_cast<std::size_t>(reps);
       ++i) {
    const auto t0 = Clock::now();
    auto lease = pool.acquire();
    out.add("serve.workspace_lease_us", us_since(t0));
  }

  // Front end: spec parse and problem compile.
  std::vector<std::unique_ptr<windim::core::WindowProblem>> problems;
  for (const std::string& text : specs) {
    for (int r = 0; r < reps; ++r) {
      auto t0 = Clock::now();
      const windim::cli::NetworkSpec spec =
          windim::cli::parse_network_spec(text);
      out.add("cli.parse_us", us_since(t0));
      t0 = Clock::now();
      auto problem = std::make_unique<windim::core::WindowProblem>(
          spec.topology, spec.classes);
      out.add("windim.compile_us", us_since(t0));
      if (r == 0) problems.push_back(std::move(problem));
    }
  }

  // Solver: a cold solve at each evaluate point, then a warm-started
  // solve one step up in one coordinate.
  const windim::solver::Solver* solver =
      windim::solver::SolverRegistry::instance().find("heuristic-mva");
  auto lease = pool.acquire();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const windim::core::WindowProblem& problem = *problems[points[i].spec];
    const double cells =
        static_cast<double>(problem.compiled().num_stations()) *
        problem.compiled().num_chains();
    std::vector<int> step = points[i].windows;
    step[i % step.size()] += 1;
    for (int r = 0; r < reps; ++r) {
      windim::mva::MvaWarmStart state;
      for (int warm = 0; warm < 2; ++warm) {
        const auto t0 = Clock::now();
        const windim::core::Evaluation ev =
            warm == 0 ? problem.evaluate_with(points[i].windows, *solver,
                                              *lease, nullptr, nullptr,
                                              &state)
                      : problem.evaluate_with(step, *solver, *lease, nullptr,
                                              &state, nullptr);
        const double us = us_since(t0);
        out.add("solver.solve_us", us);
        out.add("solver.iterations", ev.iterations);
        out.add("solver.sigma_refreshes", ev.sigma_refreshes);
        out.add("solver.converged", ev.converged ? 1.0 : 0.0);
        out.add("solver.ns_per_cell_iter",
                us * 1000.0 / (cells * std::max(1, ev.iterations)));
      }
    }
  }
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "replies" && argc == 4) return cmd_replies(argv[2], argv[3]);
    if (mode == "dimension" && argc >= 3) {
      return cmd_dimension(argc - 2, argv + 2);
    }
    if (mode == "layers" && argc == 4) {
      return cmd_layers(std::max(1, std::atoi(argv[2])), argv[3]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: perfbench_probe replies LINES OUT\n"
               "       perfbench_probe dimension SPEC...\n"
               "       perfbench_probe layers REPS LINES\n");
  return 2;
}
