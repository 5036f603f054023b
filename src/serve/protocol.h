// Wire protocol of `windim serve`: newline-delimited JSON requests and
// replies (one object per line) over a Unix-domain socket or stdio.
//
// Request schema (strict: any unknown field is rejected, so typos fail
// loudly instead of silently changing meaning):
//
//   {"op":"evaluate","spec":"node A\n...","windows":[3,2],
//    "solver":"heuristic-mva","deadline_ms":250,"id":7}
//   {"op":"dimension","spec":"...","solver":"auto","max_window":64,
//    "objective":"power","power_exponent":1.0,"max_delay":0.5,
//    "alpha":1,"min_fairness":0.8,"max_evals":100000,
//    "deadline_ms":1000,"id":"job-12"}
//   {"op":"pareto","spec":"...","solver":"auto","max_window":64,
//    "points":9,"min_fairness":0.5,"alpha":"inf","max_evals":100000,
//    "deadline_ms":5000,"id":8}
//   {"op":"scenario","spec":"...","policies":["static","aimd"],
//    "scenarios":["stationary","ramp"],"sim_time":120,"warmup":12,
//    "seed":1,"jobs":4,"max_window":64,"solver":"heuristic-mva",
//    "deadline_ms":10000,"id":9}
//   {"op":"fuzz-replay","entry":"# windim fuzz corpus v1\n...",
//    "no_ctmc":true,"id":3}
//   {"op":"stats","id":4}
//   {"op":"trace","limit":16,"id":10}
//   {"op":"metrics","id":11}
//   {"op":"dump","id":12}
//   {"op":"shutdown","id":5}
//
// "threads" (dimension, pareto) and "solver_threads" (evaluate,
// dimension, pareto) are range-checked and ignored: a search and each
// of its solves run serially on one worker thread, since splitting a
// sweep's chains across threads paid under 2x even at 10k chains.
//
// Reply: exactly one line per request line, in request order per
// connection, always one of
//
//   {"id":<echoed or null>,"op":"<op>","ok":true,"result":{...}}
//   {"id":<echoed or null>,"op":"<op or null>","ok":false,
//    "error":{"code":"<ErrorCode>","message":"..."}}
//
// Replies never carry wall-clock values (latencies live in the metrics
// the `stats` op returns), so a well-formed request's reply is a pure
// function of the request — the byte-identity the conformance and
// concurrency suites pin.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace windim::obs {
class JsonWriter;
struct JsonValue;
}  // namespace windim::obs

namespace windim::serve {

/// Typed error taxonomy of the daemon.  Every failure mode maps to one
/// code; no request, however malformed, kills the process.
enum class ErrorCode {
  kParseError,       // line is not a JSON object / missing or bad "op"
  kInvalidRequest,   // unknown op, unknown field, wrong type, bad value
  kInvalidSpec,      // network spec / corpus entry text failed to parse
  kUnknownSolver,    // solver name not in the registry
  kOverflow,         // qn::OverflowError out of the engine
  kBudgetExhausted,  // evaluation budget did not cover the initial point
  kDeadlineExceeded, // per-request deadline expired
  kPayloadTooLarge,  // request line / reply body over the configured cap
  kShuttingDown,     // request arrived after a shutdown was accepted
  kInternal,         // anything else; message carries the what()
};

[[nodiscard]] std::string_view to_string(ErrorCode code) noexcept;

/// The op kinds the daemon serves.
enum class Op {
  kEvaluate,
  kDimension,
  kPareto,
  kFuzzReplay,
  kStats,
  kShutdown,
  kScenario,
  kTrace,    // drain the request-trace span buffer
  kMetrics,  // OpenMetrics text exposition of the live registry
  kDump,     // flight-recorder digest dump
};

/// Number of Op values (sizes the server's per-op counters).
inline constexpr int kNumOps = 10;

[[nodiscard]] std::string_view to_string(Op op) noexcept;
[[nodiscard]] std::optional<Op> op_from_string(std::string_view s) noexcept;

/// The request id is echoed verbatim into the reply: a JSON number or
/// string, rendered back exactly as received ("null" when absent).
struct RequestId {
  enum class Kind { kNone, kNumber, kString };
  Kind kind = Kind::kNone;
  double number = 0.0;
  std::string string;
};

/// A parsed, validated request envelope.  Op payload fields stay as
/// loosely-typed members; the server interprets them per op.
struct Request {
  Op op = Op::kStats;
  RequestId id;
  // evaluate / dimension:
  std::string spec;               // network spec text
  std::vector<int> windows;       // evaluate only
  std::string solver;             // empty = op default
  int max_window = 64;            // dimension
  std::string objective = "power";
  double power_exponent = 1.0;
  double max_delay = 0.0;
  /// Fairness aversion (dimension objective 'alpha-fair', or the
  /// optional alpha-fair reference solve of the pareto op): 0, 1, 2 or
  /// +infinity (wire value the string "inf").  has_alpha records
  /// whether the field was present.
  double alpha = 1.0;
  bool has_alpha = false;
  /// Jain-fairness floor in [0, 1].  dimension: constraint of the
  /// 'power-fair-constrained' objective.  pareto: lowest floor of the
  /// scan (has_min_fairness distinguishes "absent" from 0).
  double min_fairness = 0.0;
  bool has_min_fairness = false;
  int points = 9;                 // pareto: fairness floors to scan
  std::size_t max_evals = 0;      // 0 = engine default
  double deadline_ms = 0.0;       // 0 = server default / none
  // fuzz-replay:
  std::string entry;              // corpus entry text
  bool no_ctmc = false;
  // scenario:
  std::vector<std::string> policies;   // empty = every registered policy
  std::vector<std::string> scenarios;  // empty = every built-in scenario
  double sim_time = 120.0;
  double warmup = 12.0;
  bool has_warmup = false;
  std::uint64_t seed = 1;
  int jobs = 1;
  // trace:
  int limit = 0;                  // max traces to drain; 0 = all buffered
};

/// Outcome of parsing one request line: either a Request or a typed
/// error (never throws).
struct ParseResult {
  std::optional<Request> request;
  ErrorCode code = ErrorCode::kParseError;
  std::string message;
  /// Best-effort id echo for error replies (populated whenever the line
  /// parsed far enough to see an "id" member).
  RequestId id;

  [[nodiscard]] bool ok() const noexcept { return request.has_value(); }
};

/// Parses and validates one NDJSON request line against the strict
/// schema above.
[[nodiscard]] ParseResult parse_request(std::string_view line);

/// Renders the shared reply envelope.  `open_result` leaves the writer
/// inside `"result":{` so the caller appends op-specific members and
/// closes with `finish_reply`.
void begin_reply(obs::JsonWriter& w, const RequestId& id, Op op);
void begin_ok_result(obs::JsonWriter& w);
[[nodiscard]] std::string finish_reply(obs::JsonWriter&& w);

/// Renders a complete error reply line (no trailing newline).  `op` is
/// nullopt when the op was never identified.
[[nodiscard]] std::string error_reply(const RequestId& id,
                                      std::optional<Op> op, ErrorCode code,
                                      std::string_view message);

/// Writes the id value ("null" for Kind::kNone) under the current key.
void write_id(obs::JsonWriter& w, const RequestId& id);

}  // namespace windim::serve
