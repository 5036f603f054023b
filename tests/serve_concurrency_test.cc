// Concurrency suite for `windim serve`: N client threads hammer one
// Server and every reply must be BYTE-IDENTICAL to the answer a fresh
// single-threaded server gives for the same request line — the
// determinism contract (replies carry no wall-clock values, searches
// are sequential) made observable.  Also pins the cache
// accounting identity hits + misses == compile lookups, the
// per-connection reply ordering of the pipelined stream loop, that a
// client waiting for each reply is answered at once rather than at the
// loop's poll timeout, that a wake poked after its connection ended
// never reaches a later one, and (on Linux) that a server starts only
// its request workers, that a request's solver_threads cannot make it
// spawn threads, that the socket daemon reaps finished connections and
// that a drain ends a connection whose client keeps sending.
//
// Runs under TSan in CI (the tsan job executes the full ctest suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "obs/json.h"
#include "serve/server.h"
#include "serve_socketpair.h"

namespace windim {
namespace {

std::string spec_text(int channels, double rate) {
  std::string spec;
  for (int i = 0; i <= channels; ++i) {
    spec += "node N" + std::to_string(i) + "\n";
  }
  for (int i = 0; i < channels; ++i) {
    spec += "channel N" + std::to_string(i) + " N" + std::to_string(i + 1) +
            " 50\n";
  }
  std::string path;
  for (int i = 0; i <= channels; ++i) path += " N" + std::to_string(i);
  spec += "class fwd rate " + std::to_string(rate) + " path" + path + "\n";
  std::string reverse;
  for (int i = channels; i >= 0; --i) reverse += " N" + std::to_string(i);
  spec += "class back rate " + std::to_string(rate / 2.0) + " path" +
          reverse + "\n";
  return spec;
}

std::string json_escape(const std::string& s) {
  std::string out;
  obs::JsonWriter::append_escaped(out, s);
  return out;
}

/// The mixed request stream: evaluates and dimensions over four
/// distinct topologies, ids 0..n-1.
std::vector<std::string> request_lines(int n) {
  const std::string specs[] = {
      json_escape(spec_text(2, 20.0)), json_escape(spec_text(3, 15.0)),
      json_escape(spec_text(4, 10.0)), json_escape(spec_text(2, 25.0))};
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::string& spec = specs[i % 4];
    if (i % 3 == 0) {
      lines.push_back("{\"op\":\"dimension\",\"spec\":\"" + spec +
                      "\",\"max_window\":6,\"id\":" + std::to_string(i) + "}");
    } else {
      lines.push_back("{\"op\":\"evaluate\",\"spec\":\"" + spec +
                      "\",\"windows\":[" + std::to_string(1 + i % 4) + "," +
                      std::to_string(1 + i % 2) +
                      "],\"id\":" + std::to_string(i) + "}");
    }
  }
  return lines;
}

serve::ServeOptions options_with(int threads) {
  serve::ServeOptions options;
  options.threads = threads;
  options.enable_metrics = false;
  return options;
}

TEST(ServeConcurrency, RepliesAreByteIdenticalToSingleShotAnswers) {
  const std::vector<std::string> lines = request_lines(24);

  // Reference answers: a fresh serial server per line, so no cache or
  // workspace state can leak between requests.
  std::vector<std::string> expected;
  for (const std::string& line : lines) {
    serve::Server one_shot(options_with(1));
    expected.push_back(one_shot.handle_line(line).json);
  }

  // One shared server, four worker threads, six client threads issuing
  // interleaved overlapping subsets.
  serve::Server server(options_with(4));
  constexpr int kClients = 6;
  std::vector<std::vector<std::string>> got(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([c, &lines, &got, &server]() {
        for (std::size_t i = static_cast<std::size_t>(c) % 3;
             i < lines.size(); i += 2) {
          got[static_cast<std::size_t>(c)].push_back(
              server.handle_line(lines[i]).json);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    std::size_t k = 0;
    for (std::size_t i = static_cast<std::size_t>(c) % 3; i < lines.size();
         i += 2, ++k) {
      EXPECT_EQ(got[static_cast<std::size_t>(c)][k], expected[i])
          << "client " << c << " line " << i;
    }
  }

  // Cache accounting: every evaluate/dimension did exactly one lookup.
  const serve::CacheStats cs = server.cache_stats();
  std::uint64_t lookups = 0;
  for (int c = 0; c < kClients; ++c) {
    lookups += got[static_cast<std::size_t>(c)].size();
  }
  EXPECT_EQ(cs.hits + cs.misses, lookups);
  // Four distinct topologies; racy duplicate compiles are counted as
  // hits by the cache, so misses is exactly the entry count.
  EXPECT_EQ(cs.entries, 4u);
  EXPECT_EQ(cs.misses, 4u);
}

TEST(ServeConcurrency, PipelinedStreamPreservesRequestOrder) {
  const std::vector<std::string> lines = request_lines(30);
  std::string input;
  for (const std::string& line : lines) input += line + "\n";

  serve::Server server(options_with(4));
  const test::Session session = test::serve_socketpair(server, input);
  EXPECT_EQ(session.rc, 0);

  std::istringstream replies(session.replies);
  std::string line;
  std::size_t index = 0;
  while (std::getline(replies, line)) {
    const auto doc = obs::parse_json(line);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("id")->number, static_cast<double>(index))
        << "reply out of order at position " << index;
    ++index;
  }
  EXPECT_EQ(index, lines.size());
}

TEST(ServeConcurrency, ConcurrentStreamsShareOneServer) {
  const std::vector<std::string> lines = request_lines(12);
  serve::Server server(options_with(4));

  std::vector<std::string> outputs(3);
  {
    std::vector<std::thread> conns;
    for (int c = 0; c < 3; ++c) {
      conns.emplace_back([c, &lines, &outputs, &server]() {
        std::string input;
        for (const std::string& line : lines) input += line + "\n";
        outputs[static_cast<std::size_t>(c)] =
            test::serve_socketpair(server, input).replies;
      });
    }
    for (std::thread& t : conns) t.join();
  }
  // Every connection got the same ordered byte stream.
  EXPECT_FALSE(outputs[0].empty());
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], outputs[2]);
}

/// `n` evaluates of one two-hop topology, ids 0..n-1.
std::vector<std::string> evaluate_lines(int n) {
  const std::string spec = json_escape(spec_text(2, 20.0));
  std::vector<std::string> lines;
  for (int i = 0; i < n; ++i) {
    lines.push_back("{\"op\":\"evaluate\",\"spec\":\"" + spec +
                    "\",\"windows\":[" + std::to_string(1 + i % 4) +
                    ",2],\"id\":" + std::to_string(i) + "}");
  }
  return lines;
}

TEST(ServeConcurrency, WaitingClientIsAnsweredWithoutThePollTimeout) {
  // A client that sends each line only after the previous reply is a
  // window of one.  Each reply must wake the connection loop: left to
  // the loop's 50 ms poll timeout, these 20 round trips take ~1 s,
  // while the daemon needs ~0.1 ms for each.
  constexpr int kRequests = 20;
  const std::vector<std::string> lines = evaluate_lines(kRequests);
  serve::Server server(options_with(2));
  const test::WaitingSession session =
      test::serve_waiting_client(server, lines);
  EXPECT_EQ(session.rc, 0);
  ASSERT_EQ(session.replies.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(session.replies[i], server.handle_line(lines[i]).json)
        << "reply " << i;
  }
  EXPECT_LT(session.elapsed, std::chrono::milliseconds(500))
      << kRequests << " waiting round trips took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(
             session.elapsed)
             .count()
      << " ms";
}

TEST(ServeConcurrency, LateWakesNeverReachALaterSession) {
  // serve_connection returns once every reply is written, which can be
  // before the last pool task has poked the connection's wake.  Each
  // session's socketpair is made while the previous one is still open,
  // so it takes the lowest free fd numbers: the previous wake's, had
  // that been closed with its connection.  A late poke would then land
  // in this session's stream as 8 stray bytes.
  constexpr int kSessions = 200;
  const std::vector<std::string> lines = evaluate_lines(8);
  serve::Server server(options_with(4));
  std::string input;
  std::string expected;
  for (const std::string& line : lines) {
    input += line + "\n";
    expected += server.handle_line(line).json + "\n";
  }
  int previous[2] = {-1, -1};
  for (int s = 0; s < kSessions; ++s) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    if (s > 0) {
      ::close(previous[0]);
      ::close(previous[1]);
    }
    const test::Session session =
        test::serve_on_socketpair(server, input, fds);
    previous[0] = fds[0];
    previous[1] = fds[1];
    ASSERT_EQ(session.rc, 0) << "session " << s;
    ASSERT_EQ(session.replies, expected) << "session " << s;
  }
  ::close(previous[0]);
  ::close(previous[1]);
}

#if defined(__linux__)
/// Threads of this process right now (one /proc/self/task entry each).
std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(ServeConcurrency, ServerStartsOnlyItsRequestWorkers) {
  // Searches and their solves are serial on one worker, so a server
  // built with two workers adds exactly two threads to the process.
  const std::size_t before = live_threads();
  const serve::Server server(options_with(2));
  EXPECT_EQ(live_threads(), before + 2);
}

TEST(ServeConcurrency, SolverThreadsRequestsSpawnNoThreads) {
  // solver_threads is range-checked and ignored, so a client asking for
  // 4096 cannot make the daemon spawn threads.
  const std::size_t before = live_threads();
  constexpr int kWorkers = 2;
  serve::Server server(options_with(kWorkers));
  const std::string spec = json_escape(
      "node A\nnode B\nchannel A B 50\nclass e rate 20 path A B\n");
  constexpr int kRequests = 8;
  std::string input;
  for (int i = 0; i < kRequests; ++i) {
    input += "{\"op\":\"evaluate\",\"spec\":\"" + spec +
             "\",\"windows\":[2],\"solver_threads\":4096,\"id\":" +
             std::to_string(i) + "}\n";
  }

  std::atomic<bool> done{false};
  std::size_t peak = 0;
  std::thread sampler([&] {
    while (!done.load()) {
      peak = std::max(peak, live_threads());
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  const test::Session session = test::serve_socketpair(server, input);
  EXPECT_EQ(session.rc, 0);
  done = true;
  sampler.join();

  const std::string& replies = session.replies;
  int ok = 0;
  for (std::size_t at = replies.find("\"ok\":true"); at != std::string::npos;
       at = replies.find("\"ok\":true", at + 1)) {
    ++ok;
  }
  EXPECT_EQ(ok, kRequests);
  // Request workers + the sampler, plus a little slack for runtime
  // helpers (the socketpair client is one).
  constexpr std::size_t kSlack = 4;
  EXPECT_LE(peak, before + kWorkers + 1 + kSlack);
}

/// Thread stacks of this process right now, in use or cached for reuse:
/// each has a one-page PROT_NONE guard, a "---p" line of /proc/self/maps.
/// Malloc's per-thread arenas, which glibc maps whenever more threads
/// overlap than it has arenas and never unmaps, have no such line, so
/// this count does not grow with how many connections ran at once.
std::size_t live_stack_guards() {
  const auto page = static_cast<unsigned long>(::sysconf(_SC_PAGESIZE));
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s", &lo, &hi, perms) == 3 &&
        std::strcmp(perms, "---p") == 0 && hi - lo == page) {
      ++n;
    }
  }
  return n;
}

/// A socket path under the temp directory, unique to this process.
std::string socket_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("windim-" + tag + "-" + std::to_string(::getpid()) + ".sock"))
      .string();
}

/// Runs server.serve_unix(path) on a new thread; returns once it listens
/// (or has failed to).
std::thread start_daemon(serve::Server& server, const std::string& path) {
  std::promise<void> ready;
  std::future<void> listening = ready.get_future();
  std::thread daemon([&server, path, ready = std::move(ready)]() mutable {
    bool listened = false;
    EXPECT_NO_THROW(server.serve_unix(path, [&] {
      listened = true;
      ready.set_value();
    }));
    if (!listened) ready.set_value();
  });
  listening.wait();
  return daemon;
}

/// A client socket connected to `path`, or -1.
int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `line` and reads up to its reply's newline; false once the
/// server's side is gone.
bool round_trip(int fd, const std::string& line, std::string& reply) {
  const std::string request = line + "\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    return false;
  }
  reply.clear();
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return true;
    reply += c;
  }
  return false;
}

TEST(ServeConcurrency, FinishedConnectionsAreReaped) {
  // serve_unix runs each connection on its own thread.  A finished one
  // must be joined while the daemon keeps serving: unjoined, every
  // closed connection keeps its stack mapped until shutdown.  Only
  // thread stacks are counted (live_stack_guards), so a connection that
  // leaked some other mapping would pass.
  serve::Server server(options_with(2));
  const std::string path = socket_path("reap");
  std::thread daemon = start_daemon(server, path);
  const std::size_t before = live_stack_guards();

  constexpr int kConnections = 300;
  for (int i = 0; i < kConnections; ++i) {
    const int fd = connect_unix(path);
    if (fd < 0) {
      ADD_FAILURE() << "connection " << i << " failed";
      break;
    }
    ::close(fd);
  }
  // The accept loop polls every 200 ms; give it a few passes.
  constexpr std::size_t kSlack = 8;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::size_t after = live_stack_guards();
  while (after > before + kSlack &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    after = live_stack_guards();
  }
  EXPECT_LE(after, before + kSlack);

  (void)server.handle_line("{\"op\":\"shutdown\"}");
  daemon.join();
}

TEST(ServeConcurrency, DrainEndsAConnectionThatKeepsSending) {
  // Each reply wakes a waiting client's connection loop, and its next
  // line comes at once, so that loop's poll never times out.  A drain
  // begun on another connection must still end it at its next wake:
  // otherwise serve_unix's last join waits for as long as the client
  // keeps sending, which here is 5 s.
  serve::Server server(options_with(2));
  const std::string path = socket_path("drain");
  std::thread daemon = start_daemon(server, path);

  std::atomic<int> answered{0};
  std::thread client([&] {
    const int fd = connect_unix(path);
    ASSERT_GE(fd, 0);
    const std::string line = evaluate_lines(1).front();
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::string reply;
    while (std::chrono::steady_clock::now() < give_up &&
           round_trip(fd, line, reply)) {
      ++answered;
    }
    ::close(fd);
  });
  const auto busy_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (answered < 3 && std::chrono::steady_clock::now() < busy_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(answered.load(), 3) << "the waiting client got no replies";

  const std::string shutdown = "{\"op\":\"shutdown\",\"id\":1}";
  const int fd = connect_unix(path);
  std::string reply;
  if (!round_trip(fd, shutdown, reply)) {
    ADD_FAILURE() << "the shutdown connection failed";
    (void)server.handle_line(shutdown);
  }
  const auto drain_began = std::chrono::steady_clock::now();
  daemon.join();
  const auto drained = std::chrono::steady_clock::now() - drain_began;
  client.join();
  if (fd >= 0) ::close(fd);
  EXPECT_LT(drained, std::chrono::seconds(1))
      << "serve_unix returned "
      << std::chrono::duration_cast<std::chrono::milliseconds>(drained)
             .count()
      << " ms after the shutdown reply";
}
#endif

}  // namespace
}  // namespace windim
