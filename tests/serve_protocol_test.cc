// Golden protocol conformance + fault injection for `windim serve`.
//
// Drives the daemon through Server::handle_line and its connection loop
// (serve_connection): every request type produces the documented reply
// envelope, and every malformed input — broken JSON, unknown ops and
// fields, duplicate keys, bad values, oversized payloads, truncated
// input, expired deadlines — produces a TYPED error reply, with the
// server provably alive after each one.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve_socketpair.h"
#include "verify/corpus.h"
#include "verify/gen.h"

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

/// Parses a reply line; fails the test on invalid JSON.
obs::JsonValue parse_reply(const std::string& line) {
  const std::optional<obs::JsonValue> doc = obs::parse_json(line);
  EXPECT_TRUE(doc.has_value()) << "reply is not valid JSON: " << line;
  return doc.value_or(obs::JsonValue{});
}

std::string error_code(const obs::JsonValue& reply) {
  const obs::JsonValue* err = reply.find("error");
  if (err == nullptr) return "";
  return std::string(err->string_or("code", ""));
}

/// The liveness probe the fault-injection cases run after every error:
/// a well-formed request must still succeed.
void expect_alive(serve::Server& server) {
  const auto reply =
      parse_reply(server.handle_line(evaluate_line(999)).json);
  EXPECT_EQ(reply.find("ok")->boolean, true)
      << "server no longer answers well-formed requests";
}

serve::ServeOptions serial_options() {
  serve::ServeOptions options;
  options.threads = 1;
  options.enable_metrics = false;
  return options;
}

TEST(ServeProtocol, EvaluateReplyCarriesEnvelopeAndResult) {
  serve::Server server(serial_options());
  const auto r = server.handle_line(evaluate_line(7));
  EXPECT_FALSE(r.shutdown);
  const obs::JsonValue reply = parse_reply(r.json);
  EXPECT_EQ(reply.find("id")->number, 7.0);
  EXPECT_EQ(reply.string_or("op", ""), "evaluate");
  EXPECT_TRUE(reply.find("ok")->boolean);
  const obs::JsonValue* result = reply.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->string_or("solver", ""), "heuristic-mva");
  EXPECT_GT(result->number_or("throughput", 0.0), 0.0);
  EXPECT_GT(result->number_or("power", 0.0), 0.0);
  ASSERT_NE(result->find("class_delay"), nullptr);
  EXPECT_EQ(result->find("class_delay")->array.size(), 2u);
}

TEST(ServeProtocol, RequestIdEchoesNumberStringAndNull) {
  serve::Server server(serial_options());
  const auto num = parse_reply(server.handle_line(evaluate_line(42)).json);
  EXPECT_EQ(num.find("id")->number, 42.0);

  const std::string with_string_id =
      "{\"op\":\"stats\",\"id\":\"job-9\"}";
  const auto str = parse_reply(server.handle_line(with_string_id).json);
  EXPECT_EQ(std::string(str.find("id")->string), "job-9");

  const auto none = parse_reply(server.handle_line("{\"op\":\"stats\"}").json);
  EXPECT_EQ(none.find("id")->kind, obs::JsonValue::Kind::kNull);
}

TEST(ServeProtocol, DimensionAndStatsAndShutdownSucceed) {
  serve::Server server(serial_options());
  const std::string dim = "{\"op\":\"dimension\",\"spec\":\"" +
                          json_escape(kSpec) +
                          "\",\"max_window\":8,\"id\":1}";
  const auto dim_reply = parse_reply(server.handle_line(dim).json);
  EXPECT_TRUE(dim_reply.find("ok")->boolean);
  const obs::JsonValue* result = dim_reply.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->find("feasible")->boolean);
  EXPECT_EQ(result->find("optimal_windows")->array.size(), 2u);

  const auto stats = parse_reply(server.handle_line("{\"op\":\"stats\"}").json);
  EXPECT_TRUE(stats.find("ok")->boolean);
  const obs::JsonValue* serve_section = stats.find("result")->find("serve");
  ASSERT_NE(serve_section, nullptr);
  EXPECT_GE(serve_section->number_or("requests", 0.0), 2.0);

  const auto down = server.handle_line("{\"op\":\"shutdown\",\"id\":2}");
  EXPECT_TRUE(down.shutdown);
  EXPECT_TRUE(parse_reply(down.json).find("ok")->boolean);
  EXPECT_TRUE(server.shutting_down());
}

TEST(ServeProtocol, FuzzReplayRunsOraclesOnSerializedEntry) {
  serve::Server server(serial_options());
  verify::CorpusEntry entry;
  entry.instance = verify::generate(verify::Family::kFcfsClosed, 3);
  const std::string line = "{\"op\":\"fuzz-replay\",\"entry\":\"" +
                           json_escape(verify::serialize(entry)) +
                           "\",\"no_ctmc\":true,\"id\":1}";
  const auto reply = parse_reply(server.handle_line(line).json);
  ASSERT_TRUE(reply.find("ok")->boolean) << reply.string_or("op", "");
  const obs::JsonValue* result = reply.find("result");
  EXPECT_TRUE(result->find("ok")->boolean);
  EXPECT_TRUE(result->find("matches_expectation")->boolean);
  EXPECT_FALSE(result->find("ran")->array.empty());
  EXPECT_TRUE(result->find("failures")->array.empty());
}

// --- fault injection ----------------------------------------------------

TEST(ServeProtocol, MalformedJsonYieldsParseErrorAndServerStaysAlive) {
  serve::Server server(serial_options());
  for (const char* bad :
       {"not json at all", "{\"op\":\"evaluate\"", "[1,2,3]", "42",
        "{\"op\":17}", "{\"spec\":\"x\"}", ""}) {
    const auto reply = parse_reply(server.handle_line(bad).json);
    EXPECT_FALSE(reply.find("ok")->boolean) << bad;
    EXPECT_EQ(error_code(reply), "parse_error") << bad;
    expect_alive(server);
  }
}

TEST(ServeProtocol, UnknownOpAndUnknownFieldAreTypedErrors) {
  serve::Server server(serial_options());
  const auto unknown_op =
      parse_reply(server.handle_line("{\"op\":\"explode\",\"id\":1}").json);
  EXPECT_EQ(error_code(unknown_op), "invalid_request");
  EXPECT_EQ(unknown_op.find("id")->number, 1.0);  // id still echoed
  expect_alive(server);

  const std::string typo = "{\"op\":\"evaluate\",\"spec\":\"" +
                           json_escape(kSpec) +
                           "\",\"windows\":[2,1],\"solvr\":\"x\"}";
  const auto unknown_field = parse_reply(server.handle_line(typo).json);
  EXPECT_EQ(error_code(unknown_field), "invalid_request");
  expect_alive(server);

  const auto duplicate = parse_reply(
      server.handle_line("{\"op\":\"stats\",\"id\":1,\"id\":2}").json);
  EXPECT_EQ(error_code(duplicate), "invalid_request");
  expect_alive(server);
}

TEST(ServeProtocol, BadValuesAreTypedErrors) {
  serve::Server server(serial_options());
  const std::string spec = json_escape(kSpec);
  const struct {
    std::string line;
    const char* code;
  } cases[] = {
      // windows: empty, fractional, negative, wrong count
      {"{\"op\":\"evaluate\",\"spec\":\"" + spec + "\",\"windows\":[]}",
       "invalid_request"},
      {"{\"op\":\"evaluate\",\"spec\":\"" + spec + "\",\"windows\":[1.5,1]}",
       "invalid_request"},
      {"{\"op\":\"evaluate\",\"spec\":\"" + spec + "\",\"windows\":[-1,1]}",
       "invalid_request"},
      {"{\"op\":\"evaluate\",\"spec\":\"" + spec + "\",\"windows\":[1]}",
       "invalid_request"},
      // unknown solver
      {"{\"op\":\"evaluate\",\"spec\":\"" + spec +
           "\",\"windows\":[1,1],\"solver\":\"nope\"}",
       "unknown_solver"},
      {"{\"op\":\"dimension\",\"spec\":\"" + spec +
           "\",\"solver\":\"nope\"}",
       "unknown_solver"},
      // unparseable network spec
      {"{\"op\":\"evaluate\",\"spec\":\"garbage here\",\"windows\":[1]}",
       "invalid_spec"},
      // bad objective / delaycap without a cap
      {"{\"op\":\"dimension\",\"spec\":\"" + spec +
           "\",\"objective\":\"speed\"}",
       "invalid_request"},
      {"{\"op\":\"dimension\",\"spec\":\"" + spec +
           "\",\"objective\":\"delaycap\"}",
       "invalid_request"},
      // ignored thread counts are still range-checked at the schema
      {"{\"op\":\"evaluate\",\"spec\":\"" + spec +
           "\",\"windows\":[1,1],\"solver_threads\":0}",
       "invalid_request"},
      {"{\"op\":\"evaluate\",\"spec\":\"" + spec +
           "\",\"windows\":[1,1],\"solver_threads\":4097}",
       "invalid_request"},
      {"{\"op\":\"dimension\",\"spec\":\"" + spec +
           "\",\"solver_threads\":0}",
       "invalid_request"},
      {"{\"op\":\"pareto\",\"spec\":\"" + spec +
           "\",\"solver_threads\":4097}",
       "invalid_request"},
      // corpus entry text that is not a corpus entry
      {"{\"op\":\"fuzz-replay\",\"entry\":\"bogus\"}", "invalid_spec"},
  };
  for (const auto& c : cases) {
    const auto reply = parse_reply(server.handle_line(c.line).json);
    EXPECT_FALSE(reply.find("ok")->boolean) << c.line;
    EXPECT_EQ(error_code(reply), c.code) << c.line;
    expect_alive(server);
  }
}

TEST(ServeProtocol, IgnoredThreadFieldsLeaveTheReplyUnchanged) {
  // "threads" and "solver_threads" are accepted and ignored: a request
  // that sets them to their maximum gets the bytes of one without them.
  serve::Server server(serial_options());
  const std::string spec = json_escape(kSpec);
  const struct {
    std::string fields;
    const char* ignored;
  } cases[] = {
      {"\"op\":\"evaluate\",\"spec\":\"" + spec + "\",\"windows\":[2,1]",
       ",\"solver_threads\":4096"},
      {"\"op\":\"dimension\",\"spec\":\"" + spec + "\",\"max_window\":8",
       ",\"solver_threads\":4096,\"threads\":4096"},
      {"\"op\":\"pareto\",\"spec\":\"" + spec + "\",\"points\":2",
       ",\"solver_threads\":4096,\"threads\":4096"},
  };
  for (const auto& c : cases) {
    const std::string plain = server.handle_line("{" + c.fields + "}").json;
    EXPECT_NE(plain.find("\"ok\":true"), std::string::npos) << plain;
    EXPECT_EQ(server.handle_line("{" + c.fields + c.ignored + "}").json,
              plain);
  }
}

TEST(ServeProtocol, OversizedRequestIsRejectedUnparsed) {
  serve::ServeOptions options = serial_options();
  options.max_request_bytes = 256;
  serve::Server server(options);
  std::string big = "{\"op\":\"evaluate\",\"spec\":\"";
  big.append(1000, 'x');
  big += "\",\"windows\":[1]}";
  const auto reply = parse_reply(server.handle_line(big).json);
  EXPECT_EQ(error_code(reply), "payload_too_large");
  // Unparsed, so no id echo even though the line had none anyway.
  EXPECT_EQ(reply.find("id")->kind, obs::JsonValue::Kind::kNull);
  expect_alive(server);
}

TEST(ServeProtocol, ExpiredDeadlineYieldsDeadlineExceeded) {
  serve::Server server(serial_options());
  // A deadline of 1 nanosecond-scale ms is expired by the first
  // cooperative poll inside the solver.
  const std::string line = "{\"op\":\"evaluate\",\"spec\":\"" +
                           json_escape(kSpec) +
                           "\",\"windows\":[2,1],\"deadline_ms\":1e-6}";
  const auto reply = parse_reply(server.handle_line(line).json);
  EXPECT_FALSE(reply.find("ok")->boolean);
  EXPECT_EQ(error_code(reply), "deadline_exceeded");
  expect_alive(server);
}

TEST(ServeProtocol, ExpiredDimensionDeadlineYieldsDeadlineExceeded) {
  serve::Server server(serial_options());
  // Expired before the first evaluation: there is no best point to
  // return, so the search is refused like evaluate, pareto and scenario.
  const std::string line = "{\"op\":\"dimension\",\"spec\":\"" +
                           json_escape(kSpec) +
                           "\",\"deadline_ms\":1e-6,\"id\":4}";
  const auto reply = parse_reply(server.handle_line(line).json);
  EXPECT_FALSE(reply.find("ok")->boolean);
  EXPECT_EQ(error_code(reply), "deadline_exceeded");
  EXPECT_EQ(reply.find("result"), nullptr);
  expect_alive(server);
}

TEST(ServeProtocol, OversizedPopulationLatticeIsOverflowAndTheLoopGoesOn) {
  serve::Server server(serial_options());
  const std::string four_class =
      "node A\nnode B\nnode C\nnode D\n"
      "channel A B 50\nchannel B C 50\nchannel C D 50\n"
      "class a rate 5 path A B C D\nclass b rate 5 path D C B A\n"
      "class c rate 5 path A B\nclass d rate 5 path C D\n";
  // 65536^4 points wrap std::size_t to 0; 100001^2 points fit in it but
  // are past the lattice cap.
  const std::string input =
      "{\"op\":\"evaluate\",\"spec\":\"" + json_escape(four_class) +
      "\",\"windows\":[65535,65535,65535,65535],\"solver\":\"convolution\","
      "\"id\":1}\n"
      "{\"op\":\"evaluate\",\"spec\":\"" + json_escape(kSpec) +
      "\",\"windows\":[100000,100000],\"solver\":\"exact-mva\",\"id\":2}\n" +
      evaluate_line(3) + "\n";
  const test::Session session = test::serve_socketpair(server, input);
  EXPECT_EQ(session.rc, 0);
  std::istringstream replies(session.replies);
  std::vector<obs::JsonValue> lines;
  for (std::string line; std::getline(replies, line);) {
    lines.push_back(parse_reply(line));
  }
  ASSERT_EQ(lines.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(error_code(lines[i]), "overflow") << i;
    EXPECT_EQ(lines[i].find("id")->number, i + 1.0);
  }
  EXPECT_TRUE(lines[2].find("ok")->boolean);
  EXPECT_EQ(lines[2].find("id")->number, 3.0);
}

TEST(ServeProtocol, StreamHandlesTruncatedInputAndStaysOrdered) {
  serve::Server server(serial_options());
  // Last line is truncated mid-object (no closing brace, no newline):
  // the loop still answers it at end of input, with a parse_error reply
  // rather than wedging or killing the loop.
  const test::Session session = test::serve_socketpair(
      server, evaluate_line(1) + "\n" + "{\"op\":\"stats\",\"id\":2}\n" +
                  "{\"op\":\"evaluate\",\"spec\":\"tru");
  EXPECT_EQ(session.rc, 0);
  std::istringstream replies(session.replies);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(replies, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(parse_reply(lines[0]).find("id")->number, 1.0);
  EXPECT_EQ(parse_reply(lines[1]).find("id")->number, 2.0);
  EXPECT_EQ(error_code(parse_reply(lines[2])), "parse_error");
}

TEST(ServeProtocol, ParetoReplyCarriesFrontAndAlphaFairReference) {
  serve::Server server(serial_options());
  const std::string line = "{\"op\":\"pareto\",\"spec\":\"" +
                           json_escape(kSpec) +
                           "\",\"points\":5,\"alpha\":\"inf\",\"id\":11}";
  const auto reply = parse_reply(server.handle_line(line).json);
  EXPECT_TRUE(reply.find("ok")->boolean);
  EXPECT_EQ(reply.string_or("op", ""), "pareto");
  const obs::JsonValue* result = reply.find("result");
  ASSERT_NE(result, nullptr);
  const obs::JsonValue* points = result->find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_FALSE(points->array.empty());
  double last_fairness = -1.0;
  for (const obs::JsonValue& p : points->array) {
    EXPECT_GT(p.number_or("power", 0.0), 0.0);
    EXPECT_EQ(p.find("windows")->array.size(), 2u);
    EXPECT_EQ(p.find("initial")->array.size(), 2u);
    // Ascending fairness: the documented sort order of the front.
    EXPECT_GT(p.number_or("fairness", -1.0), last_fairness);
    last_fairness = p.number_or("fairness", -1.0);
  }
  EXPECT_GE(result->number_or("runs", 0.0), 1.0);
  const obs::JsonValue* ref = result->find("alpha_fair");
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->string_or("alpha", ""), "inf");  // echoed as the string
  EXPECT_EQ(ref->find("windows")->array.size(), 2u);
}

TEST(ServeProtocol, ParetoInfeasibleFloorComesBackEmptyNotRelaxed) {
  // A fairness floor above the spec's achievable Jain maximum: the
  // golden shape is ok:true with an EMPTY front and the infeasible run
  // counted — never a silently widened scan.
  serve::Server server(serial_options());
  const std::string line = "{\"op\":\"pareto\",\"spec\":\"" +
                           json_escape(kSpec) +
                           "\",\"min_fairness\":0.9999,\"id\":12}";
  const auto reply = parse_reply(server.handle_line(line).json);
  ASSERT_TRUE(reply.find("ok")->boolean);
  const obs::JsonValue* result = reply.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->find("points")->array.empty());
  EXPECT_EQ(result->number_or("runs", 0.0), 1.0);
  EXPECT_EQ(result->number_or("infeasible_runs", 0.0), 1.0);
  expect_alive(server);
}

TEST(ServeProtocol, ParetoFaultsAreTypedErrors) {
  serve::Server server(serial_options());
  const std::string spec = json_escape(kSpec);
  const struct {
    std::string line;
    const char* code;
  } cases[] = {
      // malformed alpha: only 0, 1, 2 or the string "inf" are lawful
      {"{\"op\":\"pareto\",\"spec\":\"" + spec + "\",\"alpha\":0.5}",
       "invalid_request"},
      {"{\"op\":\"pareto\",\"spec\":\"" + spec + "\",\"alpha\":\"lots\"}",
       "invalid_request"},
      // fairness floor outside [0, 1]
      {"{\"op\":\"pareto\",\"spec\":\"" + spec + "\",\"min_fairness\":1.5}",
       "invalid_request"},
      // degenerate scan resolution
      {"{\"op\":\"pareto\",\"spec\":\"" + spec + "\",\"points\":1}",
       "invalid_request"},
      // unknown solver is screened before any solve
      {"{\"op\":\"pareto\",\"spec\":\"" + spec + "\",\"solver\":\"nope\"}",
       "unknown_solver"},
      // expired deadline: refused whole, not answered with a truncated
      // front
      {"{\"op\":\"pareto\",\"spec\":\"" + spec + "\",\"deadline_ms\":1e-6}",
       "deadline_exceeded"},
      // dimension twin of the CLI check: a non-positive delay cap
      {"{\"op\":\"dimension\",\"spec\":\"" + spec + "\",\"max_delay\":0}",
       "invalid_request"},
  };
  for (const auto& c : cases) {
    const auto reply = parse_reply(server.handle_line(c.line).json);
    EXPECT_FALSE(reply.find("ok")->boolean) << c.line;
    EXPECT_EQ(error_code(reply), c.code) << c.line;
    expect_alive(server);
  }
}

TEST(ServeProtocol, ShutdownStopsIntakeAndLaterRequestsAreRefused) {
  serve::Server server(serial_options());
  const test::Session session = test::serve_socketpair(
      server, "{\"op\":\"shutdown\",\"id\":1}\n" + evaluate_line(2) + "\n");
  EXPECT_EQ(session.rc, 0);
  std::istringstream replies(session.replies);
  std::string first;
  ASSERT_TRUE(std::getline(replies, first));
  EXPECT_TRUE(parse_reply(first).find("ok")->boolean);
  // Requests arriving on other connections after the drain began get
  // the typed refusal, not silence or a crash.
  const auto late = parse_reply(server.handle_line(evaluate_line(3)).json);
  EXPECT_EQ(error_code(late), "shutting_down");
}

}  // namespace
}  // namespace windim
