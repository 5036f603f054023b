#include "obs/probe.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace windim::obs {
namespace {

void write_ints(JsonWriter& w, const std::vector<int>& xs) {
  w.begin_array();
  for (int x : xs) w.value(x);
  w.end_array();
}

void write_solve(JsonWriter& w, const SolveRecord& r) {
  w.begin_object();
  w.key("solver");
  w.value(r.solver);
  w.key("class");
  w.value(to_string(r.classification));
  w.key("warm");
  w.value(r.warm_started);
  w.key("chains");
  w.value(r.num_chains);
  w.key("iterations");
  w.value(r.iterations);
  w.key("converged");
  w.value(r.converged);
  w.key("first_residual");
  w.value(r.first_residual);
  w.key("final_residual");
  w.value(r.final_residual);
  w.key("min_residual");
  w.value(r.min_residual);
  w.key("max_residual");
  w.value(r.max_residual);
  w.key("wall_us");
  w.value(r.wall_us);
  w.key("samples_seen");
  w.value(r.samples_seen);
  w.key("samples");
  w.begin_array();
  for (const IterationSample& s : r.samples) {
    w.begin_object();
    w.key("i");
    w.value(s.iteration);
    w.key("residual");
    w.value(s.max_residual);
    w.key("damping");
    w.value(s.damping);
    w.key("wall_us");
    w.value(s.wall_us);
    w.key("chain_delta");
    w.begin_array();
    for (int c = 0; c < r.tracked_chains; ++c) {
      w.value(s.chain_delta[static_cast<std::size_t>(c)]);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string windows_string(const std::vector<int>& windows) {
  std::string out;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(windows[i]);
  }
  return out;
}

}  // namespace

std::string search_trace_jsonl(const std::vector<ProbeRecord>& probes) {
  std::string out;
  for (const ProbeRecord& r : probes) {
    JsonWriter w;
    w.begin_object();
    w.key("step");
    w.value(r.step);
    w.key("windows");
    write_ints(w, r.windows);
    w.key("F");
    w.value(r.objective);
    w.key("obj");
    w.begin_array();
    for (double x : r.objective_vector) w.value(x);
    w.end_array();
    w.key("viol");
    w.value(r.violation);
    w.key("P");
    w.value(r.power);
    w.key("solver");
    w.value(r.solver);
    w.key("cache_hit");
    w.value(r.cache_hit);
    w.key("anchor");
    write_ints(w, r.anchor);
    w.key("thread");
    w.value(0);
    w.end_object();
    out += std::move(w).str();
    out.push_back('\n');
  }
  return out;
}

std::string convergence_jsonl(const std::vector<ProbeRecord>& probes) {
  std::string out;
  for (const ProbeRecord& p : probes) {
    if (!p.solve) continue;
    JsonWriter w;
    write_solve(w, *p.solve);
    out += std::move(w).str();
    out.push_back('\n');
  }
  return out;
}

void render_replay_spans(const std::vector<ProbeRecord>& probes,
                         SpanTracer& tracer, std::uint64_t track) {
  double cursor_us = 0.0;
  for (const ProbeRecord& p : probes) {
    const SolveRecord* rec = p.solve ? &*p.solve : nullptr;
    double inner_us = 0.0;
    if (rec != nullptr) {
      double sweeps_us = 0.0;
      for (const IterationSample& s : rec->samples) sweeps_us += s.wall_us;
      inner_us = std::max(sweeps_us, rec->wall_us);
    }

    SpanEvent probe;
    probe.name = "probe";
    probe.ts_us = cursor_us;
    probe.dur_us = inner_us;
    probe.track = track;
    probe.depth = 0;
    probe.args.push_back({"step", static_cast<std::int64_t>(p.step)});
    probe.args.push_back({"windows", windows_string(p.windows)});
    probe.args.push_back({"objective", p.objective});
    probe.args.push_back({"cache_hit", p.cache_hit});
    tracer.emit(std::move(probe));

    if (rec != nullptr) {
      SpanEvent solve;
      solve.name = "solve";
      solve.ts_us = cursor_us;
      solve.dur_us = inner_us;
      solve.track = track;
      solve.depth = 1;
      solve.args.push_back({"solver", rec->solver});
      solve.args.push_back({"iterations", std::int64_t{rec->iterations}});
      solve.args.push_back({"converged", rec->converged});
      solve.args.push_back(
          {"class", std::string(to_string(rec->classification))});
      solve.args.push_back({"warm", rec->warm_started});
      tracer.emit(std::move(solve));

      double t = cursor_us;
      for (const IterationSample& s : rec->samples) {
        SpanEvent sweep;
        sweep.name = "iterate";
        sweep.ts_us = t;
        sweep.dur_us = s.wall_us;
        sweep.track = track;
        sweep.depth = 2;
        sweep.args.push_back({"i", static_cast<std::int64_t>(s.iteration)});
        sweep.args.push_back({"residual", s.max_residual});
        tracer.emit(std::move(sweep));
        t += s.wall_us;
      }
    }
    cursor_us = cursor_us + inner_us + 1.0;
  }
}

void export_convergence_metrics(const std::vector<ProbeRecord>& probes) {
  MetricsRegistry& reg = MetricsRegistry::global();
  if (!reg.enabled()) return;
  std::uint64_t solves = 0;
  std::uint64_t iterations = 0;
  std::array<std::uint64_t, 4> classes{};
  for (const ProbeRecord& p : probes) {
    if (!p.solve) continue;
    ++solves;
    ++classes[static_cast<std::size_t>(p.solve->classification)];
    iterations += static_cast<std::uint64_t>(std::max(p.solve->iterations, 0));
  }
  const auto count_of = [&](ConvergenceClass c) {
    return classes[static_cast<std::size_t>(c)];
  };
  reg.counter("windim.convergence.solves").add(solves);
  reg.counter("windim.convergence.converged")
      .add(count_of(ConvergenceClass::kConverged));
  reg.counter("windim.convergence.stagnated")
      .add(count_of(ConvergenceClass::kStagnated));
  reg.counter("windim.convergence.oscillating")
      .add(count_of(ConvergenceClass::kOscillating));
  reg.counter("windim.convergence.diverged")
      .add(count_of(ConvergenceClass::kDiverged));
  reg.counter("windim.convergence.iterations").add(iterations);
}

}  // namespace windim::obs
