#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cli/spec.h"
#include "control/matrix.h"
#include "obs/json.h"
#include "qn/error.h"
#include "solver/registry.h"
#include "util/cancel.h"
#include "verify/corpus.h"
#include "verify/oracle.h"
#include "windim/dimension.h"
#include "windim/objectives.h"
#include "windim/pareto.h"

namespace windim::serve {
namespace {

/// Internal throw type carrying a protocol error code; execute() is the
/// only frame that catches it.
class ServeError : public std::runtime_error {
 public:
  ServeError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Deadline token for one request: armed only when the request (or the
/// server default) asks for one.
struct RequestDeadline {
  util::CancelToken token;
  bool armed = false;

  RequestDeadline(double request_ms, double default_ms) {
    const double ms = request_ms > 0.0 ? request_ms : default_ms;
    if (ms > 0.0) {
      token.set_deadline_after(std::chrono::nanoseconds(
          static_cast<std::int64_t>(ms * 1e6)));
      armed = true;
    }
  }
  [[nodiscard]] const util::CancelToken* get() const noexcept {
    return armed ? &token : nullptr;
  }
};

/// Same wording as SolverRegistry::require(): the reply names every
/// available solver so a client can self-correct without a docs trip.
std::string unknown_solver_message(const std::string& name) {
  std::string message = "unknown solver '" + name + "'; available solvers:";
  for (const std::string& known :
       solver::SolverRegistry::instance().names()) {
    message += " " + known;
  }
  return message;
}

void write_evaluation(obs::JsonWriter& w, const core::Evaluation& ev) {
  w.key("windows");
  w.begin_array();
  for (const int e : ev.windows) w.value(e);
  w.end_array();
  w.key("throughput");
  w.value(ev.throughput);
  w.key("mean_delay");
  w.value(ev.mean_delay);
  w.key("power");
  w.value(ev.power);
  w.key("fairness");
  w.value(ev.fairness);
  w.key("class_throughput");
  w.begin_array();
  for (const double x : ev.class_throughput) w.value(x);
  w.end_array();
  w.key("class_delay");
  w.begin_array();
  for (const double x : ev.class_delay) w.value(x);
  w.end_array();
  w.key("iterations");
  w.value(ev.iterations);
  w.key("converged");
  w.value(ev.converged);
}

void write_histogram(obs::JsonWriter& w, const obs::HistogramSnapshot& h) {
  w.begin_object();
  w.key("count");
  w.value(h.count);
  w.key("sum");
  w.value(h.sum);
  w.key("max_observed");
  w.value(h.max_observed);
  w.key("bounds");
  w.begin_array();
  for (const double b : h.bounds) w.value(b);
  w.end_array();
  w.key("counts");
  w.begin_array();
  for (const std::uint64_t c : h.counts) w.value(c);
  w.end_array();
  w.end_object();
}

/// SIGTERM/SIGINT latch for serve_unix.  A lock-free atomic is both
/// async-signal-safe and race-free for the connections that poll it (a
/// volatile sig_atomic_t is only the former).
std::atomic<int> g_stop_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);
void on_stop_signal(int) { g_stop_signal.store(1); }

/// SIGUSR1 latch: the accept loop answers it with write_live_dumps().
std::atomic<int> g_usr1_signal{0};
void on_usr1_signal(int) { g_usr1_signal.store(1); }

/// Window horizons in 1 s ticks for the stats/exposition readouts.
constexpr std::uint64_t kWindow10s = 10;
constexpr std::uint64_t kWindow60s = 60;

/// Requests per second over `latency`, a merged window of `ticks` 1 s
/// ticks: the latency sketch counts every request once.
double window_rate(const obs::HistogramSnapshot& latency,
                   std::uint64_t ticks) {
  return static_cast<double>(latency.count) / static_cast<double>(ticks);
}

/// The share of the window's requests that breached their SLO.
double slo_burn(std::uint64_t breaches,
                const obs::HistogramSnapshot& latency) {
  return latency.count == 0 ? 0.0
                            : static_cast<double>(breaches) /
                                  static_cast<double>(latency.count);
}

/// Display order for per-op live readouts (stats `window.by_op` and the
/// exposition rows): the paper-facing ops first, introspection last.
constexpr Op kOpDisplayOrder[kNumOps] = {
    Op::kEvaluate, Op::kDimension, Op::kPareto,  Op::kScenario,
    Op::kFuzzReplay, Op::kStats,   Op::kTrace,   Op::kMetrics,
    Op::kDump,     Op::kShutdown};

/// Echo of the request id as the trace/digest id string: "null" when
/// absent, the %.17g rendering for numbers, the raw string otherwise.
std::string render_request_id(const RequestId& id) {
  switch (id.kind) {
    case RequestId::Kind::kNone:
      return "null";
    case RequestId::Kind::kNumber: {
      std::string out;
      obs::JsonWriter::append_double(out, id.number);
      return out;
    }
    case RequestId::Kind::kString:
      return id.string;
  }
  return "null";
}

/// RAII stage span recorder; a null clock disables it (zero clock reads
/// when the live plane is off).
class StageSpan {
 public:
  StageSpan(obs::WindowClock* clock, RequestTrace& trace, const char* name)
      : clock_(clock), trace_(&trace), name_(name) {
    if (clock_ != nullptr) start_ = clock_->now_us();
  }
  ~StageSpan() {
    if (clock_ != nullptr) {
      trace_->spans.push_back({name_, start_, clock_->now_us() - start_});
    }
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  obs::WindowClock* clock_;
  RequestTrace* trace_;
  const char* name_;
  std::uint64_t start_ = 0;
};

/// Writes all of `data` to `fd`.  On a socket, MSG_NOSIGNAL turns a peer
/// that already hung up into EPIPE/ECONNRESET instead of a process-wide
/// SIGPIPE, so a vanished client ends only its own connection.  A pipe
/// or file (--stdio) is not a socket; send() fails there with ENOTSOCK
/// and the bytes go through write().  Returns false on a write error.
bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// A connection's reply-ready signal: an eventfd that each pool task
/// pokes once it has set its reply, so the connection loop wakes to
/// write it.  Every task holds the connection's wake through a
/// shared_ptr, so a poke that comes after the loop returned still lands
/// on this open fd, never on a closed or reused one.  When eventfd
/// fails, fd is -1, which poll() ignores: the loop is left with its
/// timed poll.
struct ReplyWake {
  const int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);

  ReplyWake() = default;
  ReplyWake(const ReplyWake&) = delete;
  ReplyWake& operator=(const ReplyWake&) = delete;
  ~ReplyWake() {
    if (fd >= 0) ::close(fd);
  }
  void poke() const {
    const std::uint64_t one = 1;
    if (fd >= 0) (void)!::write(fd, &one, sizeof(one));
  }
  void drain() const {
    std::uint64_t count = 0;
    (void)!::read(fd, &count, sizeof(count));
  }
};

[[noreturn]] void throw_listen_error(const std::string& path, int err) {
  throw std::system_error(err, std::generic_category(),
                          "cannot listen on '" + path + "'");
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(options),
      pool_(util::resolve_thread_count(options.threads)),
      cache_(options.cache_capacity),
      clock_(options.clock != nullptr ? options.clock
                                      : &obs::steady_window_clock()),
      flight_(kFlightCapacity) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  if (options_.enable_metrics) reg.set_enabled(true);
  for (const Op op : kOpDisplayOrder) {
    if (op == Op::kShutdown) continue;
    std::string name = "windim.serve.latency_us." + std::string(to_string(op));
    std::replace(name.begin(), name.end(), '-', '_');  // fuzz-replay
    latency_[static_cast<std::size_t>(op)] = reg.histogram(name);
  }
  windows_.reserve(kNumOps + 1);
  for (int i = 0; i <= kNumOps; ++i) {
    windows_.push_back(std::make_unique<OpWindow>(clock_));
  }
}

Server::Reply Server::handle_line(const std::string& line) {
  return handle_line(line, 0);
}

Server::Reply Server::handle_line(const std::string& line,
                                  std::uint64_t enqueued_at_us) {
  const std::uint64_t start_us = clock_->now_us();
  requests_.fetch_add(1, std::memory_order_relaxed);

  RequestTrace trace;
  trace.op = "unknown";
  trace.id = "null";
  // Client-visible latency starts at intake, not worker pickup: the
  // time spent queued behind the pipeline is part of what the request
  // experienced, and the "queue" span makes it attributable.
  const std::uint64_t t0_us =
      (enqueued_at_us != 0 && enqueued_at_us <= start_us) ? enqueued_at_us
                                                          : start_us;
  trace.start_us = t0_us;
  if (options_.enable_window && t0_us < start_us) {
    trace.spans.push_back({"queue", t0_us, start_us - t0_us});
  }

  Reply reply;
  std::optional<Op> op;
  bool ok = false;
  ErrorCode code = ErrorCode::kInternal;
  double deadline_ms = options_.default_deadline_ms;

  if (line.size() > options_.max_request_bytes) {
    // Oversized lines are rejected *unparsed* (parsing attacker-sized
    // input is exactly what the cap exists to avoid), so no id echo.
    code = ErrorCode::kPayloadTooLarge;
    reply = {error_reply(RequestId{}, std::nullopt, code,
                         "request line exceeds " +
                             std::to_string(options_.max_request_bytes) +
                             " bytes"),
             false};
  } else {
    ParseResult parsed;
    {
      StageSpan span(span_clock(), trace, "parse");
      parsed = parse_request(line);
    }
    if (!parsed.ok()) {
      trace.id = render_request_id(parsed.id);
      code = parsed.code;
      reply = {error_reply(parsed.id, std::nullopt, parsed.code,
                           parsed.message),
               false};
    } else {
      const Request& request = *parsed.request;
      op = request.op;
      trace.op = std::string(to_string(request.op));
      trace.id = render_request_id(request.id);
      if (request.deadline_ms > 0.0) deadline_ms = request.deadline_ms;
      op_counts_[static_cast<std::size_t>(request.op)].fetch_add(
          1, std::memory_order_relaxed);
      if (shutting_down_.load(std::memory_order_acquire) &&
          request.op != Op::kShutdown) {
        code = ErrorCode::kShuttingDown;
        reply = {error_reply(request.id, request.op, code,
                             "server is draining"),
                 false};
      } else {
        reply = execute(request, trace, ok, code);
      }
    }
  }

  if (ok) {
    ok_.fetch_add(1, std::memory_order_relaxed);
  } else {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  finish_request(op, std::move(trace), t0_us, deadline_ms, ok, code);
  return reply;
}

Server::Reply Server::execute(const Request& request, RequestTrace& trace,
                              bool& ok, ErrorCode& code) {
  std::string message;
  try {
    std::string json;
    bool shutdown = false;
    {
      const obs::ScopedTimerUs timer(
          latency_[static_cast<std::size_t>(request.op)]);
      switch (request.op) {
        case Op::kEvaluate:
          json = run_evaluate(request, trace);
          break;
        case Op::kDimension:
          json = run_dimension(request, trace);
          break;
        case Op::kPareto:
          json = run_pareto(request, trace);
          break;
        case Op::kScenario:
          json = run_scenario(request, trace);
          break;
        case Op::kFuzzReplay:
          json = run_fuzz_replay(request, trace);
          break;
        case Op::kStats:
          json = run_stats(request);
          break;
        case Op::kTrace:
          json = run_trace(request);
          break;
        case Op::kMetrics:
          json = run_metrics(request);
          break;
        case Op::kDump:
          json = run_dump(request);
          break;
        case Op::kShutdown: {
          shutting_down_.store(true, std::memory_order_release);
          shutdown = true;
          obs::JsonWriter w;
          begin_reply(w, request.id, Op::kShutdown);
          begin_ok_result(w);
          w.key("draining");
          w.value(true);
          json = finish_reply(std::move(w));
          break;
        }
      }
    }
    if (json.size() > options_.max_response_bytes) {
      throw ServeError(ErrorCode::kPayloadTooLarge,
                       "reply body exceeds " +
                           std::to_string(options_.max_response_bytes) +
                           " bytes");
    }
    ok = true;
    return {std::move(json), shutdown};
  } catch (const ServeError& e) {
    code = e.code();
    message = e.what();
  } catch (const cli::SpecError& e) {
    code = ErrorCode::kInvalidSpec;
    message = std::string("spec: ") + e.what();
  } catch (const util::CancelledError& e) {
    code = ErrorCode::kDeadlineExceeded;
    message = e.what();
  } catch (const qn::OverflowError& e) {
    code = ErrorCode::kOverflow;
    message = e.what();
  } catch (const qn::ModelError& e) {
    code = ErrorCode::kInvalidSpec;
    message = e.what();
  } catch (const std::invalid_argument& e) {
    code = ErrorCode::kInvalidRequest;
    message = e.what();
  } catch (const std::exception& e) {
    code = ErrorCode::kInternal;
    message = e.what();
  }
  ok = false;
  return {error_reply(request.id, request.op, code, message), false};
}

void Server::finish_request(const std::optional<Op>& op, RequestTrace&& trace,
                            std::uint64_t t0_us, double deadline_ms, bool ok,
                            ErrorCode code) {
  const std::uint64_t end_us = clock_->now_us();
  const std::uint64_t latency_us = end_us > t0_us ? end_us - t0_us : 0;
  trace.total_us = latency_us;
  trace.outcome = ok ? "ok" : std::string(to_string(code));
  trace.seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;

  // SLO breach: the request had an armed deadline and either died of it
  // or finished past it (a late success still burned the budget).
  const bool breach =
      deadline_ms > 0.0 &&
      ((!ok && code == ErrorCode::kDeadlineExceeded) ||
       static_cast<double>(latency_us) > deadline_ms * 1000.0);
  if (breach && op.has_value()) {
    slo_breach_totals_[static_cast<std::size_t>(*op)].fetch_add(
        1, std::memory_order_relaxed);
  }

  if (options_.enable_window) {
    const double v = static_cast<double>(latency_us);
    OpWindow& all = *windows_[kNumOps];
    all.latency_us.observe(v);
    if (!ok) all.errors.add();
    if (breach) all.slo_breaches.add();
    if (op.has_value()) {
      OpWindow& w = *windows_[static_cast<std::size_t>(*op)];
      w.latency_us.observe(v);
      if (!ok) w.errors.add();
      if (breach) w.slo_breaches.add();
    }
  }
  flight_.record(std::move(trace));

  // Fault: an internal error is the black box's trigger — write the
  // ring out while the state that produced the fault is still in it.
  if (!ok && code == ErrorCode::kInternal && !options_.flight_path.empty()) {
    (void)flight_.dump(options_.flight_path);
  }
}

std::shared_ptr<const CachedModel> Server::lookup_model(
    const Request& request, RequestTrace& trace) {
  std::shared_ptr<const CachedModel> model;
  {
    StageSpan span(span_clock(), trace, "cache_lookup");
    model = cache_.lookup_or_compile(request.spec);
  }
  trace.topology_hash = model->topology_hash;
  if (!request.solver.empty() &&
      solver::SolverRegistry::instance().find(request.solver) == nullptr) {
    throw ServeError(ErrorCode::kUnknownSolver,
                     unknown_solver_message(request.solver));
  }
  return model;
}

std::string Server::run_evaluate(const Request& request,
                                 RequestTrace& trace) {
  const std::shared_ptr<const CachedModel> model =
      lookup_model(request, trace);
  const solver::Solver& solver = solver::SolverRegistry::instance().require(
      request.solver.empty() ? "heuristic-mva" : request.solver);
  if (static_cast<int>(request.windows.size()) !=
      model->problem.num_classes()) {
    throw ServeError(
        ErrorCode::kInvalidRequest,
        "'windows' has " + std::to_string(request.windows.size()) +
            " entries but the spec defines " +
            std::to_string(model->problem.num_classes()) + " classes");
  }

  const RequestDeadline deadline(request.deadline_ms,
                                 options_.default_deadline_ms);

  obs::WindowClock* sc = span_clock();
  std::uint64_t lease_start = sc != nullptr ? sc->now_us() : 0;
  auto ws = workspaces_.acquire();
  if (sc != nullptr) {
    trace.spans.push_back(
        {"workspace_lease", lease_start, sc->now_us() - lease_start});
  }
  // A caller-owned hint evaluate_with preserves across its reset.
  ws->hints.cancel = deadline.get();
  std::optional<core::Evaluation> solved;
  {
    StageSpan span(sc, trace, "solve");
    solved.emplace(
        model->problem.evaluate_with(request.windows, solver, *ws));
  }
  const core::Evaluation& ev = *solved;

  obs::JsonWriter w;
  begin_reply(w, request.id, Op::kEvaluate);
  begin_ok_result(w);
  w.key("solver");
  w.value(solver.name());
  write_evaluation(w, ev);
  return finish_reply(std::move(w));
}

std::string Server::run_dimension(const Request& request,
                                  RequestTrace& trace) {
  const std::shared_ptr<const CachedModel> model =
      lookup_model(request, trace);

  const RequestDeadline deadline(request.deadline_ms,
                                 options_.default_deadline_ms);
  core::DimensionOptions opts;
  if (!request.solver.empty()) opts.solver = request.solver;
  opts.max_window = request.max_window;
  opts.power_exponent = request.power_exponent;
  opts.max_delay = request.max_delay;
  if (request.max_evals > 0) opts.max_evaluations = request.max_evals;
  opts.workspaces = &workspaces_;
  opts.cancel = deadline.get();
  opts.alpha = request.has_alpha ? request.alpha : 1.0;
  opts.min_fairness = request.has_min_fairness ? request.min_fairness : 0.0;
  opts.objective = core::objective_kind_from_string(request.objective);
  if (opts.objective == core::DimensionObjective::kThroughputUnderDelayCap &&
      !(request.max_delay > 0.0)) {
    throw ServeError(ErrorCode::kInvalidRequest,
                     "objective 'delaycap' requires max_delay > 0");
  }

  std::optional<core::DimensionResult> searched;
  {
    StageSpan span(span_clock(), trace, "search");
    searched.emplace(core::dimension_windows(model->problem, opts));
  }
  const core::DimensionResult& result = *searched;
  if (result.budget_exhausted && result.base_points.empty()) {
    throw ServeError(ErrorCode::kBudgetExhausted,
                     "evaluation budget exhausted before the initial point "
                     "completed");
  }
  if (result.cancelled && result.base_points.empty()) {
    throw util::CancelledError(
        "dimension: deadline expired before the initial point completed");
  }

  obs::JsonWriter w;
  begin_reply(w, request.id, Op::kDimension);
  begin_ok_result(w);
  w.key("optimal_windows");
  w.begin_array();
  for (const int e : result.optimal_windows) w.value(e);
  w.end_array();
  w.key("feasible");
  w.value(result.feasible);
  w.key("objective_vector");
  w.begin_array();
  for (const double x : result.objective_vector) w.value(x);
  w.end_array();
  w.key("violation");
  w.value(result.violation);
  w.key("budget_exhausted");
  w.value(result.budget_exhausted);
  w.key("cancelled");
  w.value(result.cancelled);
  w.key("objective_evaluations");
  w.value(static_cast<std::uint64_t>(result.objective_evaluations));
  w.key("evaluation");
  w.begin_object();
  write_evaluation(w, result.evaluation);
  w.end_object();
  return finish_reply(std::move(w));
}

std::string Server::run_pareto(const Request& request, RequestTrace& trace) {
  const std::shared_ptr<const CachedModel> model =
      lookup_model(request, trace);

  const RequestDeadline deadline(request.deadline_ms,
                                 options_.default_deadline_ms);
  if (deadline.armed && deadline.token.expired()) {
    throw util::CancelledError("pareto: deadline expired before scan");
  }

  core::ParetoOptions popts;
  if (!request.solver.empty()) popts.base.solver = request.solver;
  popts.base.max_window = request.max_window;
  if (request.max_evals > 0) popts.base.max_evaluations = request.max_evals;
  popts.base.workspaces = &workspaces_;
  popts.base.cancel = deadline.get();
  popts.num_points = request.points;
  if (request.has_min_fairness) {
    popts.min_fairness_floor = request.min_fairness;
  }

  std::optional<core::ParetoFront> scanned;
  {
    StageSpan span(span_clock(), trace, "scan");
    scanned.emplace(core::pareto_front(model->problem, popts));
  }
  const core::ParetoFront& front = *scanned;
  // A scan the deadline cut short is a failure, not a thinner front: the
  // client would otherwise mistake the truncated prefix for the curve.
  if (front.cancelled) {
    throw util::CancelledError("pareto: deadline expired mid-scan");
  }

  // Optional alpha-fair reference: where pure utility maximization at
  // the requested aversion lands relative to the front.
  std::optional<core::DimensionResult> alpha_ref;
  if (request.has_alpha) {
    core::DimensionOptions aopts = popts.base;
    aopts.objective = core::DimensionObjective::kAlphaFair;
    aopts.alpha = request.alpha;
    alpha_ref = core::dimension_windows(model->problem, aopts);
    if (alpha_ref->cancelled) {
      throw util::CancelledError("pareto: deadline expired mid-scan");
    }
  }

  obs::JsonWriter w;
  begin_reply(w, request.id, Op::kPareto);
  begin_ok_result(w);
  w.key("points");
  w.begin_array();
  for (const core::ParetoPoint& p : front.points) {
    w.begin_object();
    w.key("windows");
    w.begin_array();
    for (const int e : p.windows) w.value(e);
    w.end_array();
    w.key("power");
    w.value(p.power);
    w.key("fairness");
    w.value(p.fairness);
    w.key("throughput");
    w.value(p.throughput);
    w.key("mean_delay");
    w.value(p.mean_delay);
    w.key("floor");
    w.value(p.fairness_floor);
    w.key("initial");
    w.begin_array();
    for (const int e : p.initial_windows) w.value(e);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("runs");
  w.value(static_cast<std::uint64_t>(front.runs));
  w.key("infeasible_runs");
  w.value(static_cast<std::uint64_t>(front.infeasible_runs));
  w.key("dominated_dropped");
  w.value(static_cast<std::uint64_t>(front.dominated_dropped));
  w.key("budget_exhausted");
  w.value(front.budget_exhausted);
  if (alpha_ref.has_value()) {
    w.key("alpha_fair");
    w.begin_object();
    w.key("alpha");
    if (std::isinf(request.alpha)) {
      w.value(std::string_view("inf"));
    } else {
      w.value(request.alpha);
    }
    w.key("windows");
    w.begin_array();
    for (const int e : alpha_ref->optimal_windows) w.value(e);
    w.end_array();
    w.key("feasible");
    w.value(alpha_ref->feasible);
    w.key("power");
    w.value(alpha_ref->evaluation.power);
    w.key("fairness");
    w.value(alpha_ref->evaluation.fairness);
    w.key("throughput");
    w.value(alpha_ref->evaluation.throughput);
    w.key("mean_delay");
    w.value(alpha_ref->evaluation.mean_delay);
    w.end_object();
  }
  return finish_reply(std::move(w));
}

std::string Server::run_scenario(const Request& request,
                                 RequestTrace& trace) {
  const std::shared_ptr<const CachedModel> model =
      lookup_model(request, trace);

  const RequestDeadline deadline(request.deadline_ms,
                                 options_.default_deadline_ms);
  if (deadline.armed && deadline.token.expired()) {
    throw util::CancelledError("scenario: deadline expired before run");
  }

  control::MatrixOptions mopts;
  mopts.policies = request.policies;
  mopts.scenarios = request.scenarios;
  mopts.sim_time = request.sim_time;
  mopts.warmup = request.has_warmup ? request.warmup : request.sim_time / 10.0;
  mopts.seed = request.seed;
  mopts.jobs = request.jobs;
  mopts.max_window = request.max_window;
  mopts.solver = request.solver;
  // Unknown policy/scenario names and bad durations surface as
  // std::invalid_argument, which execute() maps to invalid_request.
  std::optional<control::MatrixResult> ran;
  {
    StageSpan span(span_clock(), trace, "matrix");
    ran.emplace(control::run_matrix(model->spec.topology,
                                    model->spec.classes, mopts));
  }
  const control::MatrixResult& matrix = *ran;
  // The matrix runner cannot cancel mid-grid; a deadline that expired
  // while it ran is still reported as exceeded rather than a late ok.
  if (deadline.armed && deadline.token.expired()) {
    throw util::CancelledError("scenario: deadline expired mid-run");
  }

  obs::JsonWriter w;
  begin_reply(w, request.id, Op::kScenario);
  begin_ok_result(w);
  control::write_scorecard_fields(w, matrix);
  return finish_reply(std::move(w));
}

std::string Server::run_fuzz_replay(const Request& request,
                                    RequestTrace& trace) {
  verify::CorpusEntry entry;
  try {
    entry = verify::parse_corpus_entry(request.entry);
  } catch (const std::exception& e) {
    throw ServeError(ErrorCode::kInvalidSpec,
                     std::string("corpus entry: ") + e.what());
  }
  const RequestDeadline deadline(request.deadline_ms,
                                 options_.default_deadline_ms);
  if (deadline.armed && deadline.token.expired()) {
    throw util::CancelledError("fuzz-replay: deadline expired before run");
  }

  verify::OracleOptions opts;
  opts.with_ctmc = !request.no_ctmc;
  std::optional<verify::OracleReport> oracles;
  {
    StageSpan span(span_clock(), trace, "oracles");
    oracles.emplace(verify::run_oracles(entry.instance, opts));
  }
  const verify::OracleReport& report = *oracles;
  const bool matches = entry.expect.empty() ? report.ok()
                                            : report.failed(entry.expect);

  obs::JsonWriter w;
  begin_reply(w, request.id, Op::kFuzzReplay);
  begin_ok_result(w);
  w.key("ok");
  w.value(report.ok());
  w.key("expect");
  w.value(entry.expect);
  w.key("matches_expectation");
  w.value(matches);
  w.key("ran");
  w.begin_array();
  for (const std::string& name : report.ran) w.value(name);
  w.end_array();
  w.key("skipped");
  w.begin_array();
  for (const std::string& name : report.skipped) w.value(name);
  w.end_array();
  w.key("failures");
  w.begin_array();
  for (const verify::Disagreement& d : report.failures) {
    w.begin_object();
    w.key("oracle");
    w.value(d.oracle);
    w.key("detail");
    w.value(d.detail);
    w.key("magnitude");
    w.value(d.magnitude);
    w.end_object();
  }
  w.end_array();
  return finish_reply(std::move(w));
}

std::string Server::run_stats(const Request& request) {
  const ServeCounters c = counters();
  const CacheStats cs = cache_.stats();
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();

  obs::JsonWriter w;
  begin_reply(w, request.id, Op::kStats);
  begin_ok_result(w);
  w.key("serve");
  w.begin_object();
  w.key("requests");
  w.value(c.requests);
  w.key("ok");
  w.value(c.ok);
  w.key("errors");
  w.value(c.errors);
  w.key("by_op");
  w.begin_object();
  for (const Op op : kOpDisplayOrder) {
    w.key(to_string(op));
    w.value(c.by_op[static_cast<std::size_t>(op)]);
  }
  w.end_object();
  w.key("threads");
  w.value(static_cast<std::uint64_t>(pool_.num_threads()));
  w.end_object();

  // Live plane: sliding-window rates and quantiles per op, driven by
  // the injected clock.  Deliberately OUTSIDE the cumulative "metrics"
  // section — windowed values move with time, cumulative snapshots stay
  // byte-stable.
  w.key("window");
  w.begin_object();
  w.key("enabled");
  w.value(options_.enable_window);
  if (options_.enable_window) {
    w.key("by_op");
    w.begin_object();
    for (int i = 0; i <= kNumOps; ++i) {
      const bool aggregate = i == kNumOps;
      const std::size_t index =
          aggregate ? kNumOps
                    : static_cast<std::size_t>(kOpDisplayOrder[i]);
      OpWindow& win = *windows_[index];
      w.key(aggregate ? std::string("all")
                      : std::string(to_string(kOpDisplayOrder[i])));
      w.begin_object();
      // One ring merge per window size serves the rate, both
      // quantiles and the SLO burn; the stats op rides the hot request
      // path, so this keeps the live plane inside its <2% budget.
      const obs::HistogramSnapshot lat10 =
          win.latency_us.merged(kWindow10s);
      const obs::HistogramSnapshot lat60 =
          win.latency_us.merged(kWindow60s);
      w.key("rate_10s");
      w.value(window_rate(lat10, kWindow10s));
      w.key("rate_60s");
      w.value(window_rate(lat60, kWindow60s));
      w.key("errors_60s");
      w.value(win.errors.sum_window(kWindow60s));
      w.key("p50_us_10s");
      w.value(obs::histogram_quantile(lat10, 0.5));
      w.key("p99_us_10s");
      w.value(obs::histogram_quantile(lat10, 0.99));
      w.key("p50_us_60s");
      w.value(obs::histogram_quantile(lat60, 0.5));
      w.key("p99_us_60s");
      w.value(obs::histogram_quantile(lat60, 0.99));
      const std::uint64_t breaches = win.slo_breaches.sum_window(kWindow60s);
      w.key("slo_breaches_60s");
      w.value(breaches);
      w.key("slo_burn_60s");
      w.value(slo_burn(breaches, lat60));
      if (!aggregate) {
        w.key("slo_breaches_total");
        w.value(slo_breach_totals_[index].load(std::memory_order_relaxed));
      }
      w.end_object();
    }
    w.end_object();
    w.key("trace_buffered");
    w.value(static_cast<std::uint64_t>(flight_.buffered()));
    w.key("trace_total");
    w.value(flight_.total());
    w.key("trace_dropped");
    w.value(flight_.dropped());
  }
  w.end_object();

  w.key("flight");
  w.begin_object();
  w.key("total");
  w.value(flight_.total());
  w.key("capacity");
  w.value(static_cast<std::uint64_t>(flight_.capacity()));
  w.end_object();

  w.key("cache");
  w.begin_object();
  w.key("hits");
  w.value(cs.hits);
  w.key("misses");
  w.value(cs.misses);
  w.key("evictions");
  w.value(cs.evictions);
  w.key("entries");
  w.value(static_cast<std::uint64_t>(cs.entries));
  w.key("capacity");
  w.value(static_cast<std::uint64_t>(cs.capacity));
  w.end_object();

  // The full PR 4/5 instrumentation view: engine counters/gauges plus
  // the windim.serve.* per-request-class latency histograms, exactly as
  // the registry merges them (sorted by name, deterministic layout).
  w.key("metrics");
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : snap.counters) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : snap.gauges) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, hist] : snap.histograms) {
    w.key(name);
    write_histogram(w, hist);
  }
  w.end_object();
  w.end_object();
  return finish_reply(std::move(w));
}

std::string Server::run_trace(const Request& request) {
  const std::size_t limit =
      request.limit > 0 ? static_cast<std::size_t>(request.limit) : 0;
  // With the live plane off the records carry no spans, and `trace`
  // answers as if it kept none.
  std::vector<RequestTrace> drained;
  std::uint64_t buffered = 0;
  std::uint64_t dropped = 0;
  if (options_.enable_window) {
    drained = flight_.drain(limit);
    buffered = flight_.buffered();
    dropped = flight_.dropped();
  }

  obs::JsonWriter w;
  begin_reply(w, request.id, Op::kTrace);
  begin_ok_result(w);
  w.key("enabled");
  w.value(options_.enable_window);
  w.key("traces");
  w.begin_array();
  for (const RequestTrace& t : drained) {
    w.begin_object();
    w.key("seq");
    w.value(t.seq);
    w.key("id");
    w.value(std::string_view(t.id));
    w.key("op");
    w.value(std::string_view(t.op));
    w.key("topology_hash");
    w.value(t.topology_hash);
    w.key("start_us");
    w.value(t.start_us);
    w.key("total_us");
    w.value(t.total_us);
    w.key("outcome");
    w.value(std::string_view(t.outcome));
    w.key("spans");
    w.begin_array();
    for (const RequestSpan& s : t.spans) {
      w.begin_object();
      w.key("name");
      w.value(std::string_view(s.name));
      w.key("start_us");
      w.value(s.start_us);
      w.key("dur_us");
      w.value(s.dur_us);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("buffered");
  w.value(buffered);
  w.key("dropped");
  w.value(dropped);
  return finish_reply(std::move(w));
}

std::string Server::run_metrics(const Request& request) {
  const std::string body = exposition();
  obs::JsonWriter w;
  begin_reply(w, request.id, Op::kMetrics);
  begin_ok_result(w);
  w.key("content_type");
  w.value(obs::kOpenMetricsContentType);
  w.key("exposition");
  w.value(std::string_view(body));
  return finish_reply(std::move(w));
}

std::string Server::run_dump(const Request& request) {
  bool written = false;
  if (!options_.flight_path.empty()) {
    written = flight_.dump(options_.flight_path);
  }
  const std::vector<RequestTrace> records = flight_.snapshot();

  obs::JsonWriter w;
  begin_reply(w, request.id, Op::kDump);
  begin_ok_result(w);
  w.key("digests");
  w.begin_array();
  for (const RequestTrace& t : records) {
    w.begin_object();
    write_digest_fields(w, t);
    w.end_object();
  }
  w.end_array();
  w.key("total");
  w.value(flight_.total());
  w.key("capacity");
  w.value(static_cast<std::uint64_t>(flight_.capacity()));
  w.key("path");
  w.value(std::string_view(options_.flight_path));
  w.key("written");
  w.value(written);
  return finish_reply(std::move(w));
}

void Server::append_window_gauges(std::vector<obs::ExpoGauge>& out) {
  if (!options_.enable_window) return;
  const auto label = [](int i) -> std::string {
    return i == kNumOps ? "all"
                        : std::string(to_string(kOpDisplayOrder[i]));
  };
  const auto window = [this](int i) -> OpWindow& {
    return i == kNumOps
               ? *windows_[kNumOps]
               : *windows_[static_cast<std::size_t>(kOpDisplayOrder[i])];
  };
  // Family-major order: rows sharing a name are consecutive so
  // render_openmetrics emits one # TYPE header per family.
  const auto family = [&](const char* name, auto&& read) {
    for (int i = 0; i <= kNumOps; ++i) {
      out.push_back(obs::ExpoGauge{name, {{"op", label(i)}}, read(window(i))});
    }
  };
  family("windim.serve.window.rate_10s", [](OpWindow& win) {
    return window_rate(win.latency_us.merged(kWindow10s), kWindow10s);
  });
  family("windim.serve.window.rate_60s", [](OpWindow& win) {
    return window_rate(win.latency_us.merged(kWindow60s), kWindow60s);
  });
  family("windim.serve.window.error_rate_60s", [](OpWindow& win) {
    return win.errors.rate_per_sec(kWindow60s);
  });
  family("windim.serve.window.p50_us_10s", [](OpWindow& win) {
    return win.latency_us.quantile(0.5, kWindow10s);
  });
  family("windim.serve.window.p99_us_10s", [](OpWindow& win) {
    return win.latency_us.quantile(0.99, kWindow10s);
  });
  family("windim.serve.window.p50_us_60s", [](OpWindow& win) {
    return win.latency_us.quantile(0.5, kWindow60s);
  });
  family("windim.serve.window.p99_us_60s", [](OpWindow& win) {
    return win.latency_us.quantile(0.99, kWindow60s);
  });
  family("windim.serve.window.slo_burn_60s", [](OpWindow& win) {
    const std::uint64_t breaches = win.slo_breaches.sum_window(kWindow60s);
    return slo_burn(breaches, win.latency_us.merged(kWindow60s));
  });
}

std::string Server::exposition() {
  std::vector<obs::ExpoGauge> extra;
  append_window_gauges(extra);
  return obs::render_openmetrics(obs::MetricsRegistry::global().snapshot(),
                                 extra);
}

void Server::write_live_dumps() {
  if (!options_.expo_path.empty()) {
    const std::string body = exposition();
    if (std::FILE* f = std::fopen(options_.expo_path.c_str(), "w")) {
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
    }
  }
  if (!options_.flight_path.empty()) {
    (void)flight_.dump(options_.flight_path);
  }
}

ServeCounters Server::counters() const {
  ServeCounters c;
  c.requests = requests_.load(std::memory_order_relaxed);
  c.ok = ok_.load(std::memory_order_relaxed);
  c.errors = errors_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < c.by_op.size(); ++i) {
    c.by_op[i] = op_counts_[i].load(std::memory_order_relaxed);
  }
  return c;
}

int Server::serve_connection(int in_fd, int out_fd) {
  const std::size_t max_inflight =
      std::max<std::size_t>(1, options_.max_inflight);
  std::deque<std::future<Reply>> inflight;
  std::string buffer;       // bytes read but not yet taken as lines
  std::size_t scan = 0;     // buffer[0, scan) holds no newline
  bool discarding = false;  // dropping the rest of an over-cap line
  bool reading = true;
  bool written = true;  // false once a reply could not be written
  const auto wake = std::make_shared<const ReplyWake>();

  const auto submit = [&](std::string line) {
    const std::uint64_t enqueued_us = clock_->now_us();
    auto task = std::make_shared<std::packaged_task<Reply()>>(
        [this, line = std::move(line), enqueued_us]() {
          return handle_line(line, enqueued_us);
        });
    inflight.push_back(task->get_future());
    // Poke only once the future is set: a poke before it would wake the
    // loop to a front that is not ready yet, and it would sleep again.
    pool_.submit([task, wake]() {
      (*task)();
      wake->poke();
    });
  };
  const auto write_front = [&] {
    Reply reply = inflight.front().get();
    inflight.pop_front();
    reply.json += '\n';
    if (written) written = write_all(out_fd, reply.json);
    // After a shutdown reply, or once the peer is gone, stop taking
    // lines; everything already submitted still finishes.
    if (reply.shutdown || !written) reading = false;
  };

  while (reading) {
    // Completed replies flush eagerly (FIFO: only the front can be
    // written), so a client that waits for an answer before sending its
    // next line is never starved; at max_inflight, block on the oldest.
    while (reading && !inflight.empty() &&
           (inflight.size() >= max_inflight ||
            inflight.front().wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready)) {
      write_front();
    }
    if (!reading) break;

    const std::size_t nl = buffer.find('\n', scan);
    if (nl != std::string::npos) {
      submit(buffer.substr(0, nl));
      buffer.erase(0, nl + 1);
      scan = 0;
      continue;
    }
    if (buffer.size() > options_.max_request_bytes) {
      // No newline yet and already over the cap: answer now
      // (handle_line rejects the prefix unparsed) and drop the rest of
      // the line as it arrives, so the buffer stays bounded.
      submit(buffer.substr(0, options_.max_request_bytes + 1));
      buffer.clear();
      scan = 0;
      discarding = true;
      continue;
    }
    scan = buffer.size();

    // Input or a finished reply wakes the loop; the timeout bounds how
    // late a quiet connection sees the drain.  The drain is checked on
    // every wake, not only on a timeout: a client that sends its next
    // line as soon as each reply arrives never lets the poll time out.
    pollfd pfds[2] = {{in_fd, POLLIN, 0}, {wake->fd, POLLIN, 0}};
    const int rc = ::poll(pfds, 2, 50);
    if (rc < 0 && errno != EINTR) break;
    if (g_stop_signal != 0 || shutting_down_.load(std::memory_order_acquire)) {
      break;
    }
    if (rc <= 0) continue;
    if (pfds[1].revents != 0) wake->drain();
    if (pfds[0].revents == 0) continue;  // a wake alone: flush replies
    char chunk[4096];
    const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) {
      // End of input (or a read error).  The buffer holds no newline
      // here, so at most a last line without one, which is answered.
      if (!buffer.empty()) submit(std::move(buffer));
      break;
    }
    std::string_view data(chunk, static_cast<std::size_t>(n));
    if (discarding) {
      const std::size_t end = data.find('\n');
      if (end == std::string_view::npos) continue;
      data.remove_prefix(end + 1);
      discarding = false;
    }
    buffer.append(data);
  }
  while (!inflight.empty()) write_front();
  return written ? 0 : 1;
}

void Server::serve_unix(const std::string& path,
                        const std::function<void()>& on_ready) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw_listen_error(path, ENAMETOOLONG);  // does not fit AF_UNIX
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) throw_listen_error(path, errno);
  ::unlink(path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    const int err = errno;
    ::close(listen_fd);
    throw_listen_error(path, err);
  }

  g_stop_signal = 0;
  g_usr1_signal = 0;
  struct sigaction sa{};
  sa.sa_handler = on_stop_signal;
  struct sigaction old_term{};
  struct sigaction old_int{};
  struct sigaction old_usr1{};
  ::sigaction(SIGTERM, &sa, &old_term);
  ::sigaction(SIGINT, &sa, &old_int);
  struct sigaction sa_usr1{};
  sa_usr1.sa_handler = on_usr1_signal;
  ::sigaction(SIGUSR1, &sa_usr1, &old_usr1);

  if (on_ready) on_ready();

  // One thread per connection.  A thread flags `done` as its last act,
  // and every pass of the accept loop joins the flagged ones, so a
  // closed connection's stack is unmapped within one poll period rather
  // than at shutdown.  List nodes keep each flag's address stable.
  struct Connection {
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::list<Connection> connections;
  while (g_stop_signal == 0 &&
         !shutting_down_.load(std::memory_order_acquire)) {
    for (auto it = connections.begin(); it != connections.end();) {
      if (!it->done) {
        ++it;
        continue;
      }
      it->thread.join();
      it = connections.erase(it);
    }
    pollfd pfd{listen_fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    const int poll_errno = errno;
    if (g_usr1_signal != 0) {
      // SIGUSR1 = "show me the live plane, keep serving": exposition
      // and flight JSONL go to their configured paths, no stdio noise.
      g_usr1_signal = 0;
      write_live_dumps();
    }
    if (rc < 0 && poll_errno != EINTR) break;
    if (rc <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    Connection& connection = connections.emplace_back();
    connection.thread = std::thread([this, fd, &done = connection.done]() {
      (void)serve_connection(fd, fd);
      ::close(fd);
      done = true;
    });
  }

  // Graceful drain: stop accepting, let every connection flush its
  // in-flight replies, then tear down.
  shutting_down_.store(true, std::memory_order_release);
  ::close(listen_fd);
  for (Connection& c : connections) c.thread.join();
  ::unlink(path.c_str());
  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGUSR1, &old_usr1, nullptr);
}

}  // namespace windim::serve
