// Hierarchical span tracing: Scope nesting and the disabled-guard
// contract, Chrome trace-event JSON structure (metadata first, complete
// events with depth as the first arg), correctly nested depths per
// track, and that only an observed run records spans.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/examples.h"
#include "obs/json.h"
#include "obs/span.h"
#include "windim/windim.h"

namespace windim {
namespace {

using obs::SpanEvent;
using obs::SpanTracer;

/// The process-wide tracer's JSON for one dimensioning run of canada4
/// (observed unless `observe` is false), starting from and leaving an
/// empty, disabled tracer.
std::string traced_dimension_json(bool observe = true) {
  SpanTracer& tracer = SpanTracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  core::DimensionOptions options;
  options.observe = observe;
  const core::DimensionResult result = core::dimension_windows(
      core::WindowProblem(net::canada_topology(),
                          net::four_class_traffic(6, 6, 6, 12)),
      options);
  EXPECT_FALSE(result.optimal_windows.empty());
  tracer.set_enabled(false);
  std::string json = tracer.to_json();
  tracer.clear();
  return json;
}

TEST(SpanTracer, DisabledTracerRecordsNothing) {
  SpanTracer tracer;
  {
    SpanTracer::Scope outer(&tracer, "outer");
    outer.arg("k", 1);
    SpanTracer::Scope inner(&tracer, "inner");
  }
  EXPECT_EQ(tracer.add_track("replay"), 0u);
  tracer.emit(SpanEvent{});
  EXPECT_EQ(tracer.total_events(), 0u);
  EXPECT_TRUE(tracer.events().empty());
  // Null tracer: every Scope operation is a no-op, not a crash.
  SpanTracer::Scope null_scope(nullptr, "nothing");
  null_scope.arg("k", 2);
}

TEST(SpanTracer, ScopesNestThroughTheThreadLocalStack) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  {
    SpanTracer::Scope outer(&tracer, "outer");
    {
      SpanTracer::Scope inner(&tracer, "inner");
      inner.arg("step", 7);
    }
    SpanTracer::Scope sibling(&tracer, "sibling");
  }
  const std::vector<SpanEvent> events = tracer.events();
  // Scopes append at destruction: inner closes first.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].name, "sibling");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0);
  EXPECT_GE(events[2].dur_us, events[0].dur_us);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].key, "step");
}

TEST(SpanTracer, TraceJsonIsValidChromeTraceFormat) {
  const std::string json = traced_dimension_json();
  const auto parsed = obs::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  const obs::JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->array.size(), 0u);

  std::size_t metadata = 0;
  std::size_t complete = 0;
  bool saw_probe = false, saw_solve = false, saw_iterate = false,
       saw_search = false, saw_explore = false;
  for (const obs::JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const std::string_view ph = e.string_or("ph", "");
    if (ph == "M") {
      ++metadata;
      const std::string_view name = e.string_or("name", "");
      EXPECT_TRUE(name == "process_name" || name == "thread_name")
          << std::string(name);
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_EQ(e.number_or("pid", -1.0), 1.0);
    EXPECT_GE(e.number_or("tid", -1.0), 0.0);
    EXPECT_GE(e.number_or("dur", -1.0), 0.0);
    const obs::JsonValue* args = e.find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_TRUE(args->is_object());
    // depth is the FIRST arg key: nesting must survive the ts/dur
    // normalization the determinism test applies.
    ASSERT_FALSE(args->object.empty());
    EXPECT_EQ(args->object.front().first, "depth");
    const std::string_view name = e.string_or("name", "");
    saw_probe |= name == "probe";
    saw_solve |= name == "solve";
    saw_iterate |= name == "iterate";
    saw_search |= name == "search";
    saw_explore |= name == "explore";
  }
  EXPECT_GE(metadata, 2u);  // real caller thread + the replay track
  EXPECT_GT(complete, 0u);
  EXPECT_TRUE(saw_search);
  EXPECT_TRUE(saw_explore);
  EXPECT_TRUE(saw_probe);
  EXPECT_TRUE(saw_solve);
  EXPECT_TRUE(saw_iterate);
}

TEST(SpanTracer, DepthsFormAValidForestPerTrack) {
  const std::string json = traced_dimension_json();
  const auto parsed = obs::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  const obs::JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Synthesized events are emitted parent-first (pre-order): within a
  // track the depth can step down arbitrarily but only step UP by one.
  std::map<std::int64_t, double> last_depth;
  for (const obs::JsonValue& e : events->array) {
    if (e.string_or("ph", "") != "X") continue;
    const auto tid = static_cast<std::int64_t>(e.number_or("tid", 0.0));
    const obs::JsonValue* args = e.find("args");
    ASSERT_NE(args, nullptr);
    const double depth = args->number_or("depth", -1.0);
    ASSERT_GE(depth, 0.0);
    const auto it = last_depth.find(tid);
    if (it != last_depth.end()) {
      EXPECT_LE(depth, it->second + 1.0);
    } else {
      // Real scopes append at CLOSE (post-order, leaves first); only
      // tracks opened by synthesized pre-order events must start at 0.
      if (e.string_or("name", "") == "probe") {
        EXPECT_EQ(depth, 0.0);
      }
    }
    last_depth[tid] = depth;
  }
}

TEST(SpanTracer, UnobservedRunRecordsNoSpans) {
  // Scenario cells, Pareto scans and serve requests run unobserved: an
  // enabled process-wide tracer must not collect their search spans.
  const std::string json = traced_dimension_json(/*observe=*/false);
  const auto parsed = obs::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  const obs::JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Only the process_name metadata entry: no track, no span.
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].string_or("name", ""), "process_name");
}

}  // namespace
}  // namespace windim
