// Concurrency suite for `windim serve`: N client threads hammer one
// Server and every reply must be BYTE-IDENTICAL to the answer a fresh
// single-threaded server gives for the same request line — the
// determinism contract (replies carry no wall-clock values, searches
// are sequential) made observable.  Also pins the cache
// accounting identity hits + misses == compile lookups, the
// per-connection reply ordering of the pipelined stream loop, and (on
// Linux) that a request's solver_threads cannot make the server spawn
// threads and that the socket daemon reaps finished connections.
//
// Runs under TSan in CI (the tsan job executes the full ctest suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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

TEST(ServeConcurrency, SolverThreadsRequestsSpawnNoThreads) {
  // solver_threads only switches on the server's one shared sweep pool,
  // so a client asking for 4096 cannot make the daemon spawn threads.
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
  // Request workers + the hardware-sized sweep pool + the sampler, plus
  // a little slack for runtime helpers (the socketpair client is one).
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  constexpr std::size_t kSlack = 4;
  EXPECT_LE(peak, before + kWorkers + hw + 1 + kSlack);
}

/// Mappings of this process right now (one /proc/self/maps line each; a
/// thread's stack and its guard page are two).
std::size_t live_mappings() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST(ServeConcurrency, FinishedConnectionsAreReaped) {
  // serve_unix runs each connection on its own thread.  A finished one
  // must be joined while the daemon keeps serving: unjoined, every
  // closed connection keeps its stack mapped until shutdown.
  serve::Server server(options_with(2));
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("windim-reap-" + std::to_string(::getpid()) + ".sock"))
          .string();
  std::promise<void> ready;
  std::thread daemon([&] {
    bool listening = false;
    EXPECT_NO_THROW(server.serve_unix(path, [&] {
      listening = true;
      ready.set_value();
    }));
    if (!listening) ready.set_value();
  });
  ready.get_future().wait();
  const std::size_t before = live_mappings();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  constexpr int kConnections = 300;
  for (int i = 0; i < kConnections; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const bool connected =
        fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) == 0;
    if (fd >= 0) ::close(fd);
    if (!connected) {
      ADD_FAILURE() << "connection " << i << " failed";
      break;
    }
  }
  // The accept loop polls every 200 ms; give it a few passes.
  constexpr std::size_t kSlack = 16;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::size_t after = live_mappings();
  while (after > before + kSlack &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    after = live_mappings();
  }
  EXPECT_LE(after, before + kSlack);

  (void)server.handle_line("{\"op\":\"shutdown\"}");
  daemon.join();
}
#endif

}  // namespace
}  // namespace windim
