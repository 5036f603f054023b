// Live serving-plane observability (PR 10): request-scoped traces with
// real stage spans, sliding-window rates and quantiles in the `stats`
// reply, the OpenMetrics `metrics` op, the flight recorder's `dump` op
// and fault dump, and SLO burn accounting — all pinned deterministically
// through injected clocks (obs::ManualWindowClock for window placement,
// obs::SteppingWindowClock for span/latency durations).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/window.h"
#include "serve/flight.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve_socketpair.h"

namespace windim {
namespace {

constexpr const char* kSpec =
    "node A\nnode B\nnode C\n"
    "channel A B 50\nchannel B C 50\n"
    "class east rate 20 path A B C\n"
    "class west rate 10 path C B\n";

std::string json_escape(const std::string& s) {
  std::string out;
  obs::JsonWriter::append_escaped(out, s);
  return out;
}

std::string evaluate_line(int id) {
  return "{\"op\":\"evaluate\",\"spec\":\"" + json_escape(kSpec) +
         "\",\"windows\":[2,1],\"id\":" + std::to_string(id) + "}";
}

obs::JsonValue parse_reply(const std::string& line) {
  const std::optional<obs::JsonValue> doc = obs::parse_json(line);
  EXPECT_TRUE(doc.has_value()) << "reply is not valid JSON: " << line;
  return doc.value_or(obs::JsonValue{});
}

/// Base options every test here uses: single worker (deterministic
/// request interleaving), global registry untouched.
serve::ServeOptions live_options(obs::WindowClock* clock) {
  serve::ServeOptions options;
  options.threads = 1;
  options.enable_metrics = false;
  options.clock = clock;
  return options;
}

const obs::JsonValue* window_of(const obs::JsonValue& reply,
                                const std::string& op) {
  const obs::JsonValue* result = reply.find("result");
  if (result == nullptr) return nullptr;
  const obs::JsonValue* window = result->find("window");
  if (window == nullptr) return nullptr;
  const obs::JsonValue* by_op = window->find("by_op");
  if (by_op == nullptr) return nullptr;
  return by_op->find(op);
}

// --------------------------------------------------- windowed readouts

TEST(ServeLiveTest, StatsPinsWindowRatesUnderManualClock) {
  obs::ManualWindowClock clock;
  serve::Server server(live_options(&clock));

  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(server.handle_line(evaluate_line(i)).json.find("\"ok\":true"),
              std::string::npos);
  }
  clock.advance_seconds(5);
  // One parse error five seconds later.
  (void)server.handle_line("this is not json");

  const obs::JsonValue reply =
      parse_reply(server.handle_line("{\"op\":\"stats\",\"id\":9}").json);
  const obs::JsonValue* evaluate = window_of(reply, "evaluate");
  ASSERT_NE(evaluate, nullptr);
  EXPECT_DOUBLE_EQ(evaluate->number_or("rate_10s", -1.0), 0.5);
  EXPECT_DOUBLE_EQ(evaluate->number_or("rate_60s", -1.0), 5.0 / 60.0);
  EXPECT_DOUBLE_EQ(evaluate->number_or("errors_60s", -1.0), 0.0);

  // The aggregate row sees the parse error too (6 requests in 10 s).
  const obs::JsonValue* all = window_of(reply, "all");
  ASSERT_NE(all, nullptr);
  EXPECT_DOUBLE_EQ(all->number_or("rate_10s", -1.0), 0.6);
  EXPECT_DOUBLE_EQ(all->number_or("errors_60s", -1.0), 1.0);

  // 30 s later the evaluate burst left the 10 s window but not the
  // 60 s one.
  clock.advance_seconds(30);
  const obs::JsonValue later =
      parse_reply(server.handle_line("{\"op\":\"stats\",\"id\":10}").json);
  const obs::JsonValue* evaluate_later = window_of(later, "evaluate");
  ASSERT_NE(evaluate_later, nullptr);
  EXPECT_DOUBLE_EQ(evaluate_later->number_or("rate_10s", -1.0), 0.0);
  EXPECT_DOUBLE_EQ(evaluate_later->number_or("rate_60s", -1.0), 5.0 / 60.0);
}

// Two servers fed the same request stream under fresh stepping clocks
// produce byte-identical stats replies: every windowed rate and
// quantile is a pure function of the request stream — the live plane's
// determinism pin.
TEST(ServeLiveTest, IdenticalStreamsYieldByteIdenticalWindowedStats) {
  const auto run = [] {
    obs::SteppingWindowClock clock(1000);  // 1 ms per clock read
    serve::Server server(live_options(&clock));
    (void)server.handle_line(evaluate_line(1));
    (void)server.handle_line(evaluate_line(2));
    (void)server.handle_line("{\"op\":\"bogus\"}");
    return server.handle_line("{\"op\":\"stats\",\"id\":3}").json;
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);

  // And the quantiles are real values, not zeros: the stepping clock
  // advanced between the request's first and last reads.
  const obs::JsonValue reply = parse_reply(first);
  const obs::JsonValue* evaluate = window_of(reply, "evaluate");
  ASSERT_NE(evaluate, nullptr);
  EXPECT_GT(evaluate->number_or("p50_us_60s", 0.0), 0.0);
  EXPECT_GE(evaluate->number_or("p99_us_60s", 0.0),
            evaluate->number_or("p50_us_60s", 0.0));
}

// ------------------------------------------------------------- tracing

TEST(ServeLiveTest, TraceOpDrainsRealStageSpans) {
  obs::SteppingWindowClock clock(10);
  serve::Server server(live_options(&clock));
  (void)server.handle_line(evaluate_line(7));

  const obs::JsonValue reply =
      parse_reply(server.handle_line("{\"op\":\"trace\",\"id\":8}").json);
  const obs::JsonValue* result = reply.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->find("enabled")->boolean);
  const obs::JsonValue* traces = result->find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->array.size(), 1u);

  const obs::JsonValue& t = traces->array[0];
  EXPECT_EQ(t.string_or("op", ""), "evaluate");
  EXPECT_EQ(t.string_or("id", ""), "7");
  EXPECT_EQ(t.string_or("outcome", ""), "ok");
  EXPECT_GT(t.number_or("topology_hash", 0.0), 0.0);
  EXPECT_GT(t.number_or("total_us", 0.0), 0.0);

  const obs::JsonValue* spans = t.find("spans");
  ASSERT_NE(spans, nullptr);
  std::vector<std::string> names;
  for (const obs::JsonValue& s : spans->array) {
    names.push_back(std::string(s.string_or("name", "")));
    // Real spans from the stepping clock: every stage took > 0 us.
    EXPECT_GT(s.number_or("dur_us", 0.0), 0.0);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "parse", "cache_lookup", "workspace_lease", "solve"}));
}

TEST(ServeLiveTest, TraceLimitLeavesTheRestBuffered) {
  obs::ManualWindowClock clock;
  serve::Server server(live_options(&clock));
  for (int i = 0; i < 4; ++i) (void)server.handle_line(evaluate_line(i));

  const obs::JsonValue first = parse_reply(
      server.handle_line("{\"op\":\"trace\",\"limit\":1,\"id\":5}").json);
  const obs::JsonValue* result = first.find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->find("traces")->array.size(), 1u);
  // Oldest first.
  EXPECT_EQ(result->find("traces")->array[0].string_or("id", ""), "0");
  EXPECT_DOUBLE_EQ(result->number_or("buffered", -1.0), 3.0);

  // The remaining three (plus the first trace request itself) drain on
  // the next unlimited call.
  const obs::JsonValue second =
      parse_reply(server.handle_line("{\"op\":\"trace\",\"id\":6}").json);
  EXPECT_EQ(second.find("result")->find("traces")->array.size(), 4u);
}

TEST(ServeLiveTest, QueueSpanCoversTransportEnqueueGap) {
  obs::SteppingWindowClock clock(10);
  serve::Server server(live_options(&clock));
  EXPECT_EQ(test::serve_socketpair(server, evaluate_line(1) + "\n").rc, 0);

  const std::vector<serve::RequestTrace> traces = server.flight().snapshot();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_FALSE(traces[0].spans.empty());
  EXPECT_EQ(traces[0].spans[0].name, "queue");
  EXPECT_GT(traces[0].spans[0].dur_us, 0u);
}

// ------------------------------------------------- flight recorder

TEST(ServeLiveTest, DumpOpReturnsDigestsAndWritesJsonl) {
  const std::string path = ::testing::TempDir() + "windim_flight_test.jsonl";
  std::remove(path.c_str());

  obs::ManualWindowClock clock;
  serve::ServeOptions options = live_options(&clock);
  options.flight_path = path;
  serve::Server server(options);

  (void)server.handle_line(evaluate_line(1));
  (void)server.handle_line("{\"op\":\"bogus\"}");

  const obs::JsonValue reply =
      parse_reply(server.handle_line("{\"op\":\"dump\",\"id\":3}").json);
  const obs::JsonValue* result = reply.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->find("written")->boolean);
  const obs::JsonValue* digests = result->find("digests");
  ASSERT_NE(digests, nullptr);
  ASSERT_EQ(digests->array.size(), 2u);
  // Oldest first, seq monotone, taxonomy codes as outcomes.
  EXPECT_DOUBLE_EQ(digests->array[0].number_or("seq", -1.0), 1.0);
  EXPECT_EQ(digests->array[0].string_or("op", ""), "evaluate");
  EXPECT_EQ(digests->array[0].string_or("outcome", ""), "ok");
  EXPECT_DOUBLE_EQ(digests->array[1].number_or("seq", -1.0), 2.0);
  EXPECT_EQ(digests->array[1].string_or("outcome", ""), "invalid_request");
  EXPECT_GT(digests->array[0].number_or("topology_hash", 0.0), 0.0);

  // The JSONL file mirrors the ring: one parseable object per line.
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string line;
  int lines = 0;
  while (std::getline(file, line)) {
    const std::optional<obs::JsonValue> doc = obs::parse_json(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_NE(doc->find("seq"), nullptr);
    EXPECT_NE(doc->find("outcome"), nullptr);
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(ServeLiveTest, FlightRingKeepsOnlyTheLastN) {
  obs::ManualWindowClock clock;
  serve::Server server(live_options(&clock));
  const std::size_t capacity = serve::Server::kFlightCapacity;
  ASSERT_EQ(server.flight().capacity(), capacity);
  // Cheap lines: a parse error is recorded like any other request.
  for (std::size_t i = 0; i < capacity + 8; ++i) {
    (void)server.handle_line("not json");
  }

  const std::vector<serve::RequestTrace> records = server.flight().snapshot();
  ASSERT_EQ(records.size(), capacity);
  EXPECT_EQ(records.front().seq, 9u);
  EXPECT_EQ(records.back().seq, capacity + 8);
  EXPECT_EQ(server.flight().total(), capacity + 8);
}

TEST(ServeLiveTest, DumpStillListsRequestsTheTraceOpDrained) {
  obs::ManualWindowClock clock;
  serve::Server server(live_options(&clock));
  (void)server.handle_line(evaluate_line(1));
  (void)server.handle_line(evaluate_line(2));

  const obs::JsonValue trace =
      parse_reply(server.handle_line("{\"op\":\"trace\",\"id\":3}").json);
  ASSERT_EQ(trace.find("result")->find("traces")->array.size(), 2u);

  const obs::JsonValue dump =
      parse_reply(server.handle_line("{\"op\":\"dump\",\"id\":4}").json);
  const obs::JsonValue* digests = dump.find("result")->find("digests");
  ASSERT_NE(digests, nullptr);
  std::vector<std::string> ids;
  for (const obs::JsonValue& d : digests->array) {
    ids.push_back(std::string(d.string_or("id", "")));
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"1", "2", "3"}));
}

// The ring's drain cursor: `trace` returns each record at most once,
// a record that falls off the ring undrained counts as dropped, and
// draining leaves the ring itself (what `dump` lists) as it was.
TEST(FlightRecorderTest, DrainAdvancesACursorOverTheRing) {
  serve::FlightRecorder flight(4);
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    serve::RequestTrace t;
    t.seq = seq;
    flight.record(std::move(t));
  }
  EXPECT_EQ(flight.buffered(), 4u);
  EXPECT_EQ(flight.dropped(), 6u);

  const std::vector<serve::RequestTrace> drained = flight.drain(2);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].seq, 7u);
  EXPECT_EQ(drained[1].seq, 8u);
  EXPECT_EQ(flight.buffered(), 2u);
  EXPECT_EQ(flight.dropped(), 6u);

  std::vector<std::uint64_t> ring;
  for (const serve::RequestTrace& t : flight.snapshot()) ring.push_back(t.seq);
  EXPECT_EQ(ring, (std::vector<std::uint64_t>{7, 8, 9, 10}));
  EXPECT_EQ(flight.total(), 10u);

  // The rest drains once; a drained record is not dropped when the ring
  // later overwrites it.
  EXPECT_EQ(flight.drain().size(), 2u);
  EXPECT_TRUE(flight.drain().empty());
  serve::RequestTrace next;
  next.seq = 11;
  flight.record(std::move(next));
  EXPECT_EQ(flight.dropped(), 6u);
  EXPECT_EQ(flight.buffered(), 1u);
}

// A scripted fault session: the internal-error reply triggers an
// automatic flight dump whose JSONL reproduces the session's digests,
// fault included.
TEST(ServeLiveTest, InternalErrorTriggersFaultDump) {
  const std::string path = ::testing::TempDir() + "windim_fault_dump.jsonl";
  std::remove(path.c_str());

  obs::ManualWindowClock clock;
  serve::ServeOptions options = live_options(&clock);
  options.flight_path = path;
  serve::Server server(options);

  (void)server.handle_line(evaluate_line(1));
  // recal's multiplicity layer overflows on absurd windows — the
  // taxonomy's `internal` bucket, i.e. a fault.
  const std::string fault_line =
      "{\"op\":\"evaluate\",\"spec\":\"" + json_escape(kSpec) +
      "\",\"windows\":[100000,100000],\"solver\":\"recal\",\"id\":2}";
  const obs::JsonValue reply = parse_reply(server.handle_line(fault_line).json);
  ASSERT_NE(reply.find("error"), nullptr);
  EXPECT_EQ(reply.find("error")->string_or("code", ""), "internal");

  std::ifstream file(path);
  ASSERT_TRUE(file.good()) << "fault did not dump the flight recorder";
  std::string line;
  std::vector<std::string> outcomes;
  while (std::getline(file, line)) {
    const std::optional<obs::JsonValue> doc = obs::parse_json(line);
    ASSERT_TRUE(doc.has_value());
    outcomes.push_back(std::string(doc->string_or("outcome", "")));
  }
  EXPECT_EQ(outcomes, (std::vector<std::string>{"ok", "internal"}));
  std::remove(path.c_str());
}

// ----------------------------------------------------------- SLO burn

TEST(ServeLiveTest, DeadlineBreachCountsTowardSloBurn) {
  obs::ManualWindowClock clock;
  serve::Server server(live_options(&clock));

  // An effectively-zero deadline dies of deadline_exceeded; two healthy
  // requests frame it.
  (void)server.handle_line(evaluate_line(1));
  const std::string doomed =
      "{\"op\":\"evaluate\",\"spec\":\"" + json_escape(kSpec) +
      "\",\"windows\":[2,1],\"deadline_ms\":0.000001,\"id\":2}";
  const obs::JsonValue reply = parse_reply(server.handle_line(doomed).json);
  ASSERT_NE(reply.find("error"), nullptr);
  EXPECT_EQ(reply.find("error")->string_or("code", ""), "deadline_exceeded");
  (void)server.handle_line(evaluate_line(3));

  const obs::JsonValue stats =
      parse_reply(server.handle_line("{\"op\":\"stats\",\"id\":4}").json);
  const obs::JsonValue* evaluate = window_of(stats, "evaluate");
  ASSERT_NE(evaluate, nullptr);
  EXPECT_DOUBLE_EQ(evaluate->number_or("slo_breaches_60s", -1.0), 1.0);
  EXPECT_DOUBLE_EQ(evaluate->number_or("slo_breaches_total", -1.0), 1.0);
  EXPECT_DOUBLE_EQ(evaluate->number_or("slo_burn_60s", -1.0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(evaluate->number_or("errors_60s", -1.0), 1.0);
}

TEST(ServeLiveTest, LateSuccessBurnsTheBudgetToo) {
  // 1 s of stepping-clock time per read: an evaluate request "takes"
  // several injected seconds, far past a 5 s deadline, while the real
  // wall-clock deadline token (also 5 s) never fires on a sub-ms solve.
  obs::SteppingWindowClock clock(1'000'000);
  serve::Server server(live_options(&clock));
  const std::string line =
      "{\"op\":\"evaluate\",\"spec\":\"" + json_escape(kSpec) +
      "\",\"windows\":[2,1],\"deadline_ms\":5000,\"id\":1}";
  const obs::JsonValue reply = parse_reply(server.handle_line(line).json);
  ASSERT_NE(reply.find("ok"), nullptr);
  EXPECT_TRUE(reply.find("ok")->boolean);

  const obs::JsonValue stats =
      parse_reply(server.handle_line("{\"op\":\"stats\",\"id\":2}").json);
  const obs::JsonValue* evaluate = window_of(stats, "evaluate");
  ASSERT_NE(evaluate, nullptr);
  EXPECT_DOUBLE_EQ(evaluate->number_or("slo_breaches_60s", -1.0), 1.0);
  EXPECT_DOUBLE_EQ(evaluate->number_or("errors_60s", -1.0), 0.0);
}

// ------------------------------------------------------------- metrics

TEST(ServeLiveTest, MetricsOpReturnsParseableOpenMetrics) {
  obs::ManualWindowClock clock;
  serve::Server server(live_options(&clock));
  // 10 requests in the 10 s window: rate_10s = 1, an integral render.
  for (int i = 0; i < 10; ++i) (void)server.handle_line(evaluate_line(i));

  const obs::JsonValue reply =
      parse_reply(server.handle_line("{\"op\":\"metrics\",\"id\":11}").json);
  const obs::JsonValue* result = reply.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->string_or("content_type", ""),
            "application/openmetrics-text; version=1.0.0; charset=utf-8");
  const std::string body(result->string_or("exposition", ""));
  // Ends with the mandatory terminator and carries the windowed rows
  // under the distinct windim_serve_window_* namespace.
  ASSERT_GE(body.size(), 6u);
  EXPECT_EQ(body.substr(body.size() - 6), "# EOF\n");
  EXPECT_NE(body.find("# TYPE windim_serve_window_rate_10s gauge\n"),
            std::string::npos);
  EXPECT_NE(body.find("windim_serve_window_rate_10s{op=\"evaluate\"} 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("windim_serve_window_p99_us_60s{op=\"all\"}"),
            std::string::npos);
}

// ------------------------------------------------- live plane off

TEST(ServeLiveTest, WindowDisabledKeepsFlightButSkipsTraces) {
  obs::ManualWindowClock clock;
  serve::ServeOptions options = live_options(&clock);
  options.enable_window = false;
  serve::Server server(options);
  (void)server.handle_line(evaluate_line(1));

  const obs::JsonValue stats =
      parse_reply(server.handle_line("{\"op\":\"stats\",\"id\":2}").json);
  const obs::JsonValue* window = stats.find("result")->find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_FALSE(window->find("enabled")->boolean);
  EXPECT_EQ(window->find("by_op"), nullptr);

  const obs::JsonValue trace =
      parse_reply(server.handle_line("{\"op\":\"trace\",\"id\":3}").json);
  EXPECT_FALSE(trace.find("result")->find("enabled")->boolean);
  EXPECT_EQ(trace.find("result")->find("traces")->array.size(), 0u);

  // The black box still recorded every request.
  EXPECT_EQ(server.flight().total(), 3u);
}

// New ops appear in the cumulative per-op counters.
TEST(ServeLiveTest, StatsCountsTheIntrospectionOps) {
  obs::ManualWindowClock clock;
  serve::Server server(live_options(&clock));
  (void)server.handle_line("{\"op\":\"trace\"}");
  (void)server.handle_line("{\"op\":\"metrics\"}");
  (void)server.handle_line("{\"op\":\"dump\"}");
  const serve::ServeCounters c = server.counters();
  EXPECT_EQ(c.by_op[static_cast<std::size_t>(serve::Op::kTrace)], 1u);
  EXPECT_EQ(c.by_op[static_cast<std::size_t>(serve::Op::kMetrics)], 1u);
  EXPECT_EQ(c.by_op[static_cast<std::size_t>(serve::Op::kDump)], 1u);
  EXPECT_EQ(c.requests, 3u);
  EXPECT_EQ(c.errors, 0u);
}

}  // namespace
}  // namespace windim
