// The observability layer: MetricsRegistry semantics (cross-thread
// merge, snapshot isolation, reset, disabled-mode no-ops), the JSON
// writer, and the probe record of an observed run and its search-trace
// renderer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/examples.h"
#include "obs/derived.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "util/thread_pool.h"
#include "windim/dimension.h"
#include "windim/problem.h"

namespace windim {
namespace {

// ------------------------------------------------------------- registry

TEST(MetricsRegistryTest, CountersGaugesHistogramsMergeAcrossThreads) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::Counter counter = reg.counter("jobs");
  const obs::Gauge gauge = reg.gauge("hwm");
  const obs::Histogram hist = reg.histogram("lat", {10.0, 100.0});

  util::ThreadPool pool(4);
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back([&, i] {
      counter.add(2);
      gauge.record_max(static_cast<double>(i));
      hist.observe(static_cast<double>(i * 10));
    });
  }
  pool.run_batch(std::move(jobs));

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("jobs"), 80u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("hwm"), 39.0);
  const obs::HistogramSnapshot* h = snap.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 40u);
  // Observations 0..390 in steps of 10: <=10 -> {0, 10}, <=100 ->
  // {20..100}, +inf bucket -> {110..390}.
  ASSERT_EQ(h->counts.size(), 3u);
  EXPECT_EQ(h->counts[0], 2u);
  EXPECT_EQ(h->counts[1], 9u);
  EXPECT_EQ(h->counts[2], 29u);
  double expected_sum = 0.0;
  for (int i = 0; i < 40; ++i) expected_sum += i * 10;
  EXPECT_DOUBLE_EQ(h->sum, expected_sum);
}

TEST(MetricsRegistryTest, HistogramOverflowBucketKeepsMaxObserved) {
  // Regression for the solve_us saturation bug: a solve slower than the
  // top bound used to vanish into a clipped bucket with no record of
  // HOW slow it was.  The overflow bucket now counts it and
  // max_observed keeps the magnitude.
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::Histogram h = reg.histogram("solve_us", {10.0, 100.0});
  h.observe(5.0);
  h.observe(50.0);
  h.observe(1e9);  // far past the top bound
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramSnapshot* s = snap.histogram("solve_us");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->counts.size(), s->bounds.size() + 1);
  EXPECT_EQ(s->counts[0], 1u);
  EXPECT_EQ(s->counts[1], 1u);
  EXPECT_EQ(s->overflow(), 1u);
  EXPECT_EQ(s->count, 3u);
  EXPECT_DOUBLE_EQ(s->max_observed, 1e9);
  // The JSON export carries both fields explicitly.
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"overflow\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_observed\":1000000000"), std::string::npos)
      << json;
}

TEST(MetricsRegistryTest, SnapshotsAreSortedByNameRegardlessOfOrder) {
  // Two registries populated with identical state in OPPOSITE
  // registration order must produce element-for-element equal
  // snapshots — the diffability contract monitoring relies on.
  const std::vector<std::string> names = {"zeta", "alpha", "mid"};
  obs::MetricsRegistry forward;
  obs::MetricsRegistry backward;
  forward.set_enabled(true);
  backward.set_enabled(true);
  for (std::size_t i = 0; i < names.size(); ++i) {
    forward.counter(names[i]).add(i + 1);
    forward.gauge(names[i] + ".g").record_max(static_cast<double>(i));
    backward.counter(names[names.size() - 1 - i])
        .add(names.size() - i);
    backward.gauge(names[names.size() - 1 - i] + ".g")
        .record_max(static_cast<double>(names.size() - 1 - i));
  }
  const obs::MetricsSnapshot a = forward.snapshot();
  const obs::MetricsSnapshot b = backward.snapshot();
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i], b.counters[i]);
  }
  ASSERT_EQ(a.gauges.size(), b.gauges.size());
  for (std::size_t i = 0; i < a.gauges.size(); ++i) {
    EXPECT_EQ(a.gauges[i].first, b.gauges[i].first);
    EXPECT_DOUBLE_EQ(a.gauges[i].second, b.gauges[i].second);
  }
  // Sorted: names ascend.
  for (std::size_t i = 1; i < a.counters.size(); ++i) {
    EXPECT_LT(a.counters[i - 1].first, a.counters[i].first);
  }
  // Two-snapshot diff of one registry: only the touched metric moves.
  forward.counter("mid").add(5);
  const obs::MetricsSnapshot after = forward.snapshot();
  ASSERT_EQ(after.counters.size(), a.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(after.counters[i].first, a.counters[i].first);
    const std::uint64_t delta =
        after.counters[i].second - a.counters[i].second;
    EXPECT_EQ(delta, a.counters[i].first == "mid" ? 5u : 0u);
  }
}

TEST(MetricsRegistryTest, SnapshotIsIsolatedFromLaterMutation) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::Counter c = reg.counter("n");
  c.add(3);
  const obs::MetricsSnapshot before = reg.snapshot();
  c.add(10);
  EXPECT_EQ(before.counter_or("n"), 3u);
  EXPECT_EQ(reg.snapshot().counter_or("n"), 13u);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::Counter c = reg.counter("n");
  const obs::Gauge g = reg.gauge("g");
  const obs::Histogram h = reg.histogram("h");
  c.add(7);
  g.record_max(2.5);
  h.observe(1.0);
  reg.reset();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("n", 999), 0u);  // registered, value 0
  EXPECT_DOUBLE_EQ(snap.gauge_or("g", 999.0), 0.0);
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->count, 0u);
  // Handles stay valid across reset.
  c.add(1);
  EXPECT_EQ(reg.snapshot().counter_or("n"), 1u);
}

TEST(MetricsRegistryTest, DisabledRegistryRecordsNothing) {
  obs::MetricsRegistry reg;  // disabled by default
  ASSERT_FALSE(reg.enabled());
  const obs::Counter c = reg.counter("n");
  const obs::Gauge g = reg.gauge("g");
  const obs::Histogram h = reg.histogram("h");
  c.add(5);
  g.record_max(9.0);
  h.observe(3.0);
  {
    obs::ScopedTimerUs timer(h);
  }
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("n"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("g"), 0.0);
  EXPECT_EQ(snap.histogram("h")->count, 0u);
}

TEST(MetricsRegistryTest, DetachedHandlesAreNoOps) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  c.add();
  g.record_max(1.0);
  h.observe(1.0);
  obs::ScopedTimerUs timer(h);  // must not crash on destruction either
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentByName) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::Counter a = reg.counter("same");
  const obs::Counter b = reg.counter("same");
  a.add(1);
  b.add(2);
  EXPECT_EQ(reg.snapshot().counter_or("same"), 3u);
  EXPECT_EQ(reg.snapshot().counters.size(), 1u);
}

TEST(MetricsRegistryTest, ScopedTimerObservesElapsedMicroseconds) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::Histogram h = reg.histogram("t");
  {
    obs::ScopedTimerUs timer(h);
  }
  const obs::MetricsSnapshot snapshot = reg.snapshot();
  const obs::HistogramSnapshot* snap = snapshot.histogram("t");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->count, 1u);
  EXPECT_GE(snap->sum, 0.0);
}

// ----------------------------------------------------------------- json

TEST(JsonWriterTest, WritesNestedStructuresWithEscaping) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("a\"b");
  w.value("x\ny");
  w.key("list");
  w.begin_array();
  w.value(1);
  w.value(2.5);
  w.value(true);
  w.end_array();
  w.key("obj");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "{\"a\\\"b\":\"x\\ny\",\"list\":[1,2.5,true],\"obj\":{}}");
}

// -------------------------------------------------------------- derived

TEST(DerivedMetricsTest, JainFairnessIndex) {
  const std::vector<double> even = {2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(obs::jain_fairness(even), 1.0);
  const std::vector<double> starved = {4.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(obs::jain_fairness(starved), 0.25);
  EXPECT_DOUBLE_EQ(obs::jain_fairness(std::vector<double>{}), 1.0);
  EXPECT_DOUBLE_EQ(obs::jain_fairness(std::vector<double>{0.0, 0.0}), 1.0);
}

TEST(DerivedMetricsTest, EvaluationCarriesFairnessOverChainPowers) {
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  const core::Evaluation ev = problem.evaluate({4, 4});
  const std::vector<double> powers =
      obs::chain_powers(ev.class_throughput, ev.class_delay);
  EXPECT_GT(ev.fairness, 0.0);
  EXPECT_LE(ev.fairness, 1.0);
  EXPECT_DOUBLE_EQ(ev.fairness, obs::jain_fairness(powers));
}

// ---------------------------------------------------------------- trace

TEST(SearchTraceTest, JsonlHasFixedFieldOrder) {
  obs::ProbeRecord r;
  r.step = 3;
  r.windows = {2, 5};
  r.objective = 0.125;
  r.objective_vector = {0.125, -0.5};
  r.violation = 0.25;
  r.power = 8.0;
  r.solver = "heuristic-mva";
  r.cache_hit = true;
  r.anchor = {2, 4};
  EXPECT_EQ(obs::search_trace_jsonl({r}),
            "{\"step\":3,\"windows\":[2,5],\"F\":0.125,\"obj\":[0.125,-0.5],"
            "\"viol\":0.25,\"P\":8,"
            "\"solver\":\"heuristic-mva\",\"cache_hit\":true,"
            "\"anchor\":[2,4],\"thread\":0}\n");
}

// ------------------------------------------------- observed runs

TEST(SearchTraceTest, DimensionTraceHasOneRecordPerProbe) {
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  core::DimensionOptions options;
  options.observe = true;
  const core::DimensionResult result = dimension_windows(problem, options);
  const std::string trace = obs::search_trace_jsonl(result.probes);
  ASSERT_FALSE(trace.empty());
  // One record per resolved probe: evaluations + revisits.
  EXPECT_EQ(result.probes.size(),
            result.objective_evaluations + result.cache_hits);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(trace.begin(), trace.end(), '\n')),
            result.probes.size());
}

TEST(SearchTraceTest, ProbeRecordsCarrySolverAnchorsAndSolves) {
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  core::DimensionOptions options;
  options.observe = true;
  const core::DimensionResult result = dimension_windows(problem, options);
  const std::vector<obs::ProbeRecord>& records = result.probes;
  ASSERT_FALSE(records.empty());
  // Step indices are the serial probe order.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].step, i);
    EXPECT_EQ(records[i].solver, "heuristic-mva");
    EXPECT_EQ(records[i].windows.size(), 2u);
  }
  // The initial probe is evaluated cold: no anchor yet, not a revisit.
  EXPECT_FALSE(records.front().cache_hit);
  EXPECT_TRUE(records.front().anchor.empty());
  // Warm starts kick in after the first base point: some later fresh
  // probe must carry a non-empty anchor.  Every fresh probe carries its
  // solve; a revisit evaluated nothing, so it carries neither.
  bool saw_anchor = false;
  std::size_t solves = 0;
  for (const obs::ProbeRecord& r : records) {
    if (!r.cache_hit && !r.anchor.empty()) saw_anchor = true;
    EXPECT_EQ(r.solve.has_value(), !r.cache_hit);
    if (r.cache_hit) {
      EXPECT_TRUE(r.anchor.empty());
    }
    if (r.solve) {
      ++solves;
      EXPECT_EQ(r.solve->solver, "heuristic-mva");
      EXPECT_EQ(r.solve->warm_started, !r.anchor.empty());
    }
  }
  EXPECT_TRUE(saw_anchor);
  EXPECT_EQ(solves, result.objective_evaluations);
}

TEST(SearchTraceTest, ObservingLeavesTheRunUntouched) {
  // Same run with and without observation: identical result (the probe
  // hook only observes), and an unobserved run keeps no record.
  const core::WindowProblem problem(net::canada_topology(),
                                    net::two_class_traffic(20.0, 20.0));
  core::DimensionOptions plain;
  const core::DimensionResult a = dimension_windows(problem, plain);
  core::DimensionOptions observed;
  observed.observe = true;
  const core::DimensionResult b = dimension_windows(problem, observed);
  EXPECT_TRUE(a.probes.empty());
  EXPECT_FALSE(b.probes.empty());
  EXPECT_EQ(a.optimal_windows, b.optimal_windows);
  EXPECT_EQ(a.base_points, b.base_points);
  EXPECT_EQ(a.objective_evaluations, b.objective_evaluations);
}

}  // namespace
}  // namespace windim
