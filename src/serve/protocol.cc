#include "serve/protocol.h"

#include <cmath>
#include <limits>

#include "obs/json.h"

namespace windim::serve {
namespace {

using obs::JsonValue;

/// Field-set schema per op, used both to read and to reject unknowns.
bool field_allowed(Op op, std::string_view key) {
  if (key == "op" || key == "id") return true;
  switch (op) {
    case Op::kEvaluate:
      return key == "spec" || key == "windows" || key == "solver" ||
             key == "solver_threads" || key == "deadline_ms";
    case Op::kDimension:
      return key == "spec" || key == "solver" || key == "solver_threads" ||
             key == "threads" || key == "max_window" || key == "objective" ||
             key == "power_exponent" || key == "max_delay" ||
             key == "alpha" || key == "min_fairness" ||
             key == "max_evals" || key == "deadline_ms";
    case Op::kPareto:
      return key == "spec" || key == "solver" || key == "solver_threads" ||
             key == "threads" || key == "max_window" || key == "points" ||
             key == "min_fairness" || key == "alpha" ||
             key == "max_evals" || key == "deadline_ms";
    case Op::kFuzzReplay:
      return key == "entry" || key == "no_ctmc" || key == "deadline_ms";
    case Op::kScenario:
      return key == "spec" || key == "policies" || key == "scenarios" ||
             key == "sim_time" || key == "warmup" || key == "seed" ||
             key == "jobs" || key == "max_window" || key == "solver" ||
             key == "deadline_ms";
    case Op::kTrace:
      return key == "limit";
    case Op::kStats:
    case Op::kShutdown:
    case Op::kMetrics:
    case Op::kDump:
      return false;  // envelope fields only
  }
  return false;
}

/// Reads an integer-valued JSON number; rejects fractions and values
/// outside [lo, hi].
std::optional<long long> read_int(const JsonValue& v, long long lo,
                                  long long hi) {
  if (!v.is_number()) return std::nullopt;
  const double d = v.number;
  if (!std::isfinite(d) || d != std::floor(d)) return std::nullopt;
  if (d < static_cast<double>(lo) || d > static_cast<double>(hi)) {
    return std::nullopt;
  }
  return static_cast<long long>(d);
}

RequestId read_id(const JsonValue& v) {
  RequestId id;
  if (v.kind == JsonValue::Kind::kNumber) {
    id.kind = RequestId::Kind::kNumber;
    id.number = v.number;
  } else if (v.kind == JsonValue::Kind::kString) {
    id.kind = RequestId::Kind::kString;
    id.string = v.string;
  }
  return id;
}

ParseResult fail(ParseResult result, ErrorCode code, std::string message) {
  result.request.reset();
  result.code = code;
  result.message = std::move(message);
  return result;
}

}  // namespace

std::string_view to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kInvalidRequest: return "invalid_request";
    case ErrorCode::kInvalidSpec: return "invalid_spec";
    case ErrorCode::kUnknownSolver: return "unknown_solver";
    case ErrorCode::kOverflow: return "overflow";
    case ErrorCode::kBudgetExhausted: return "budget_exhausted";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kPayloadTooLarge: return "payload_too_large";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

std::string_view to_string(Op op) noexcept {
  switch (op) {
    case Op::kEvaluate: return "evaluate";
    case Op::kDimension: return "dimension";
    case Op::kPareto: return "pareto";
    case Op::kFuzzReplay: return "fuzz-replay";
    case Op::kStats: return "stats";
    case Op::kShutdown: return "shutdown";
    case Op::kScenario: return "scenario";
    case Op::kTrace: return "trace";
    case Op::kMetrics: return "metrics";
    case Op::kDump: return "dump";
  }
  return "stats";
}

std::optional<Op> op_from_string(std::string_view s) noexcept {
  if (s == "evaluate") return Op::kEvaluate;
  if (s == "dimension") return Op::kDimension;
  if (s == "pareto") return Op::kPareto;
  if (s == "scenario") return Op::kScenario;
  if (s == "fuzz-replay") return Op::kFuzzReplay;
  if (s == "stats") return Op::kStats;
  if (s == "trace") return Op::kTrace;
  if (s == "metrics") return Op::kMetrics;
  if (s == "dump") return Op::kDump;
  if (s == "shutdown") return Op::kShutdown;
  return std::nullopt;
}

ParseResult parse_request(std::string_view line) {
  ParseResult result;
  const std::optional<JsonValue> doc = obs::parse_json(line);
  if (!doc.has_value()) {
    return fail(std::move(result), ErrorCode::kParseError,
                "request is not valid JSON");
  }
  if (!doc->is_object()) {
    return fail(std::move(result), ErrorCode::kParseError,
                "request must be a JSON object");
  }
  // Id first, so every later error can echo it.
  if (const JsonValue* id = doc->find("id")) {
    if (id->kind != JsonValue::Kind::kNumber &&
        id->kind != JsonValue::Kind::kString) {
      return fail(std::move(result), ErrorCode::kInvalidRequest,
                  "field 'id' must be a number or a string");
    }
    result.id = read_id(*id);
  }
  const JsonValue* op_value = doc->find("op");
  if (op_value == nullptr) {
    return fail(std::move(result), ErrorCode::kParseError,
                "missing required field 'op'");
  }
  if (op_value->kind != JsonValue::Kind::kString) {
    return fail(std::move(result), ErrorCode::kParseError,
                "field 'op' must be a string");
  }
  const std::optional<Op> op = op_from_string(op_value->string);
  if (!op.has_value()) {
    return fail(std::move(result), ErrorCode::kInvalidRequest,
                "unknown op '" + op_value->string +
                    "'; expected evaluate, dimension, pareto, scenario, "
                    "fuzz-replay, stats, trace, metrics, dump or shutdown");
  }

  Request request;
  request.op = *op;
  request.id = result.id;

  // Strict schema: reject any field the op does not define.  Duplicate
  // keys are rejected too (find() returns the first; a duplicate would
  // silently shadow otherwise).
  for (std::size_t i = 0; i < doc->object.size(); ++i) {
    const std::string& key = doc->object[i].first;
    if (!field_allowed(*op, key)) {
      return fail(std::move(result), ErrorCode::kInvalidRequest,
                  "unknown field '" + key + "' for op '" +
                      std::string(to_string(*op)) + "'");
    }
    for (std::size_t j = i + 1; j < doc->object.size(); ++j) {
      if (doc->object[j].first == key) {
        return fail(std::move(result), ErrorCode::kInvalidRequest,
                    "duplicate field '" + key + "'");
      }
    }
  }

  const auto string_field = [&](const char* key, std::string& out,
                                bool required) -> std::optional<ParseResult> {
    const JsonValue* v = doc->find(key);
    if (v == nullptr) {
      if (required) {
        return fail(ParseResult{std::nullopt, {}, {}, result.id},
                    ErrorCode::kInvalidRequest,
                    std::string("missing required field '") + key + "'");
      }
      return std::nullopt;
    }
    if (v->kind != JsonValue::Kind::kString) {
      return fail(ParseResult{std::nullopt, {}, {}, result.id},
                  ErrorCode::kInvalidRequest,
                  std::string("field '") + key + "' must be a string");
    }
    out = v->string;
    return std::nullopt;
  };
  const auto int_field = [&](const char* key, long long lo, long long hi,
                             auto& out) -> std::optional<ParseResult> {
    const JsonValue* v = doc->find(key);
    if (v == nullptr) return std::nullopt;
    const std::optional<long long> n = read_int(*v, lo, hi);
    if (!n.has_value()) {
      return fail(ParseResult{std::nullopt, {}, {}, result.id},
                  ErrorCode::kInvalidRequest,
                  std::string("field '") + key + "' must be an integer in [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    out = static_cast<std::decay_t<decltype(out)>>(*n);
    return std::nullopt;
  };
  const auto number_field = [&](const char* key, double lo,
                                double& out) -> std::optional<ParseResult> {
    const JsonValue* v = doc->find(key);
    if (v == nullptr) return std::nullopt;
    if (!v->is_number() || !std::isfinite(v->number) || v->number < lo) {
      return fail(ParseResult{std::nullopt, {}, {}, result.id},
                  ErrorCode::kInvalidRequest,
                  std::string("field '") + key +
                      "' must be a finite number >= " + std::to_string(lo));
    }
    out = v->number;
    return std::nullopt;
  };
  // The registry restricts the alpha-fair aversion to {0, 1, 2, inf};
  // infinity has no JSON literal, so the wire value is the string "inf".
  const auto alpha_field = [&]() -> std::optional<ParseResult> {
    const JsonValue* v = doc->find("alpha");
    if (v == nullptr) return std::nullopt;
    if (v->kind == JsonValue::Kind::kString && v->string == "inf") {
      request.alpha = std::numeric_limits<double>::infinity();
      request.has_alpha = true;
      return std::nullopt;
    }
    if (v->is_number() &&
        (v->number == 0.0 || v->number == 1.0 || v->number == 2.0)) {
      request.alpha = v->number;
      request.has_alpha = true;
      return std::nullopt;
    }
    return fail(ParseResult{std::nullopt, {}, {}, result.id},
                ErrorCode::kInvalidRequest,
                "field 'alpha' must be 0, 1, 2 or \"inf\"");
  };
  // 'threads' and 'solver_threads' stay accepted (and range-checked) so
  // existing clients keep working, but searches and their solves are
  // serial, so their values are unused.
  const auto ignored_threads_field =
      [&](const char* key) -> std::optional<ParseResult> {
    int threads = 1;
    return int_field(key, 1, 4096, threads);
  };
  const auto min_fairness_field = [&]() -> std::optional<ParseResult> {
    if (doc->find("min_fairness") == nullptr) return std::nullopt;
    if (auto err = number_field("min_fairness", 0.0, request.min_fairness)) {
      return err;
    }
    if (request.min_fairness > 1.0) {
      return fail(ParseResult{std::nullopt, {}, {}, result.id},
                  ErrorCode::kInvalidRequest,
                  "field 'min_fairness' must be in [0, 1]");
    }
    request.has_min_fairness = true;
    return std::nullopt;
  };

  switch (*op) {
    case Op::kEvaluate: {
      if (auto err = string_field("spec", request.spec, true)) return *err;
      const JsonValue* windows = doc->find("windows");
      if (windows == nullptr || !windows->is_array() ||
          windows->array.empty()) {
        return fail(std::move(result), ErrorCode::kInvalidRequest,
                    "field 'windows' must be a non-empty array of "
                    "non-negative integers");
      }
      for (const JsonValue& w : windows->array) {
        const std::optional<long long> n = read_int(w, 0, 1 << 20);
        if (!n.has_value()) {
          return fail(std::move(result), ErrorCode::kInvalidRequest,
                      "field 'windows' must be a non-empty array of "
                      "non-negative integers");
        }
        request.windows.push_back(static_cast<int>(*n));
      }
      if (auto err = string_field("solver", request.solver, false)) {
        return *err;
      }
      if (auto err = ignored_threads_field("solver_threads")) return *err;
      if (auto err = number_field("deadline_ms", 0.0, request.deadline_ms)) {
        return *err;
      }
      break;
    }
    case Op::kDimension: {
      if (auto err = string_field("spec", request.spec, true)) return *err;
      if (auto err = string_field("solver", request.solver, false)) {
        return *err;
      }
      if (auto err = string_field("objective", request.objective, false)) {
        return *err;
      }
      if (request.objective != "power" && request.objective != "gpower" &&
          request.objective != "delaycap" &&
          request.objective != "alpha-fair" &&
          request.objective != "power-fair-constrained") {
        return fail(std::move(result), ErrorCode::kInvalidRequest,
                    "field 'objective' must be power, gpower, delaycap, "
                    "alpha-fair or power-fair-constrained");
      }
      if (auto err = ignored_threads_field("solver_threads")) return *err;
      if (auto err = ignored_threads_field("threads")) return *err;
      if (auto err = int_field("max_window", 1, 1 << 20,
                               request.max_window)) {
        return *err;
      }
      if (auto err = number_field("power_exponent", 0.0,
                                  request.power_exponent)) {
        return *err;
      }
      if (auto err = number_field("max_delay", 0.0, request.max_delay)) {
        return *err;
      }
      // A delay cap of zero (or below — number_field already rejects
      // negatives) can never hold: reject it here with a clear message
      // instead of reporting every floor infeasible downstream.
      if (doc->find("max_delay") != nullptr && !(request.max_delay > 0.0)) {
        return fail(std::move(result), ErrorCode::kInvalidRequest,
                    "field 'max_delay' must be a positive delay cap in "
                    "seconds");
      }
      if (auto err = alpha_field()) return *err;
      if (auto err = min_fairness_field()) return *err;
      long long max_evals = 0;
      if (auto err = int_field("max_evals", 1,
                               std::numeric_limits<long long>::max() / 2,
                               max_evals)) {
        return *err;
      }
      request.max_evals = static_cast<std::size_t>(max_evals);
      if (auto err = number_field("deadline_ms", 0.0, request.deadline_ms)) {
        return *err;
      }
      break;
    }
    case Op::kPareto: {
      if (auto err = string_field("spec", request.spec, true)) return *err;
      if (auto err = string_field("solver", request.solver, false)) {
        return *err;
      }
      if (auto err = ignored_threads_field("solver_threads")) return *err;
      if (auto err = ignored_threads_field("threads")) return *err;
      if (auto err = int_field("max_window", 1, 1 << 20,
                               request.max_window)) {
        return *err;
      }
      if (auto err = int_field("points", 2, 64, request.points)) {
        return *err;
      }
      if (auto err = alpha_field()) return *err;
      if (auto err = min_fairness_field()) return *err;
      long long max_evals = 0;
      if (auto err = int_field("max_evals", 1,
                               std::numeric_limits<long long>::max() / 2,
                               max_evals)) {
        return *err;
      }
      request.max_evals = static_cast<std::size_t>(max_evals);
      if (auto err = number_field("deadline_ms", 0.0, request.deadline_ms)) {
        return *err;
      }
      break;
    }
    case Op::kScenario: {
      if (auto err = string_field("spec", request.spec, true)) return *err;
      const auto string_array_field =
          [&](const char* key,
              std::vector<std::string>& out) -> std::optional<ParseResult> {
        const JsonValue* v = doc->find(key);
        if (v == nullptr) return std::nullopt;
        if (!v->is_array()) {
          return fail(ParseResult{std::nullopt, {}, {}, result.id},
                      ErrorCode::kInvalidRequest,
                      std::string("field '") + key +
                          "' must be an array of strings");
        }
        for (const JsonValue& item : v->array) {
          if (item.kind != JsonValue::Kind::kString || item.string.empty()) {
            return fail(ParseResult{std::nullopt, {}, {}, result.id},
                        ErrorCode::kInvalidRequest,
                        std::string("field '") + key +
                            "' must be an array of strings");
          }
          out.push_back(item.string);
        }
        return std::nullopt;
      };
      if (auto err = string_array_field("policies", request.policies)) {
        return *err;
      }
      if (auto err = string_array_field("scenarios", request.scenarios)) {
        return *err;
      }
      if (auto err = number_field("sim_time", 0.0, request.sim_time)) {
        return *err;
      }
      if (doc->find("sim_time") != nullptr && !(request.sim_time > 0.0)) {
        return fail(std::move(result), ErrorCode::kInvalidRequest,
                    "field 'sim_time' must be a positive duration in "
                    "seconds");
      }
      if (doc->find("warmup") != nullptr) {
        if (auto err = number_field("warmup", 0.0, request.warmup)) {
          return *err;
        }
        request.has_warmup = true;
      }
      long long seed = 1;
      if (auto err = int_field("seed", 0,
                               std::numeric_limits<long long>::max() / 2,
                               seed)) {
        return *err;
      }
      request.seed = static_cast<std::uint64_t>(seed);
      if (auto err = int_field("jobs", 1, 4096, request.jobs)) return *err;
      if (auto err = int_field("max_window", 1, 1 << 20,
                               request.max_window)) {
        return *err;
      }
      if (auto err = string_field("solver", request.solver, false)) {
        return *err;
      }
      if (auto err = number_field("deadline_ms", 0.0, request.deadline_ms)) {
        return *err;
      }
      break;
    }
    case Op::kFuzzReplay: {
      if (auto err = string_field("entry", request.entry, true)) return *err;
      const JsonValue* no_ctmc = doc->find("no_ctmc");
      if (no_ctmc != nullptr) {
        if (no_ctmc->kind != JsonValue::Kind::kBool) {
          return fail(std::move(result), ErrorCode::kInvalidRequest,
                      "field 'no_ctmc' must be a boolean");
        }
        request.no_ctmc = no_ctmc->boolean;
      }
      if (auto err = number_field("deadline_ms", 0.0, request.deadline_ms)) {
        return *err;
      }
      break;
    }
    case Op::kTrace: {
      if (auto err = int_field("limit", 1, 1 << 20, request.limit)) {
        return *err;
      }
      break;
    }
    case Op::kStats:
    case Op::kShutdown:
    case Op::kMetrics:
    case Op::kDump:
      break;
  }

  result.request = std::move(request);
  return result;
}

void write_id(obs::JsonWriter& w, const RequestId& id) {
  switch (id.kind) {
    case RequestId::Kind::kNone:
      w.value_null();
      break;
    case RequestId::Kind::kNumber:
      w.value(id.number);
      break;
    case RequestId::Kind::kString:
      w.value(std::string_view(id.string));
      break;
  }
}

void begin_reply(obs::JsonWriter& w, const RequestId& id, Op op) {
  w.begin_object();
  w.key("id");
  write_id(w, id);
  w.key("op");
  w.value(to_string(op));
}

void begin_ok_result(obs::JsonWriter& w) {
  w.key("ok");
  w.value(true);
  w.key("result");
  w.begin_object();
}

std::string finish_reply(obs::JsonWriter&& w) {
  w.end_object();  // result
  w.end_object();  // envelope
  return std::move(w).str();
}

std::string error_reply(const RequestId& id, std::optional<Op> op,
                        ErrorCode code, std::string_view message) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("id");
  write_id(w, id);
  w.key("op");
  if (op.has_value()) {
    w.value(to_string(*op));
  } else {
    w.value_null();
  }
  w.key("ok");
  w.value(false);
  w.key("error");
  w.begin_object();
  w.key("code");
  w.value(to_string(code));
  w.key("message");
  w.value(message);
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace windim::serve
