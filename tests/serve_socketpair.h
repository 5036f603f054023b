// Drives Server::serve_connection over a socketpair, the way a client
// drives `serve --stdio` or a socket connection.  serve_socketpair (and
// serve_on_socketpair, on a pair the caller made) is a pipelining
// client: a client thread writes the whole input, closes its sending
// side and then reads every reply until the server's side is shut.
// The input goes out before any reply is read, so it must fit
// the socket's send buffer (~200 KB); the tests' sessions are a few KB.
// serve_waiting_client sends each line only after the previous reply
// has arrived, and times the whole exchange.
#pragma once

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/server.h"

namespace windim::test {

struct Session {
  int rc = -1;          // what serve_connection returned
  std::string replies;  // every byte the server wrote
};

/// One pipelining session on an open socketpair: `fds[0]` is the
/// server's end, `fds[1]` the client's.  Both stay open; the server's
/// end is shut for writing once serve_connection returns, which is the
/// end of input the client reads up to.
inline Session serve_on_socketpair(serve::Server& server,
                                   const std::string& input,
                                   const int (&fds)[2]) {
  Session session;
  std::thread client([&input, &session, fd = fds[1]] {
    std::size_t off = 0;
    while (off < input.size()) {
      const ssize_t n = ::send(fd, input.data() + off, input.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    char chunk[4096];
    for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
      session.replies.append(chunk, static_cast<std::size_t>(n));
    }
  });
  session.rc = server.serve_connection(fds[0], fds[0]);
  ::shutdown(fds[0], SHUT_WR);
  client.join();
  return session;
}

inline Session serve_socketpair(serve::Server& server,
                                const std::string& input) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return Session{};
  }
  Session session = serve_on_socketpair(server, input, fds);
  ::close(fds[0]);
  ::close(fds[1]);
  return session;
}

struct WaitingSession {
  int rc = -1;                       // what serve_connection returned
  std::vector<std::string> replies;  // one per line, newline stripped
  std::chrono::steady_clock::duration elapsed{};  // first send to last reply
};

/// Sends each of `lines` and reads its reply line before sending the
/// next, then closes the sending side.  Stops early if the server's side
/// closes.
inline WaitingSession serve_waiting_client(
    serve::Server& server, const std::vector<std::string>& lines) {
  WaitingSession session;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return session;
  }
  std::thread loop([&server, &session, fd = fds[0]] {
    session.rc = server.serve_connection(fd, fd);
    ::shutdown(fd, SHUT_WR);  // the client's next read sees the end
  });
  const auto start = std::chrono::steady_clock::now();
  std::string pending;  // bytes read past the last complete reply
  for (const std::string& line : lines) {
    const std::string request = line + "\n";
    if (::send(fds[1], request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
      break;
    }
    std::size_t nl = std::string::npos;
    char chunk[4096];
    ssize_t n = 1;
    while ((nl = pending.find('\n')) == std::string::npos &&
           (n = ::read(fds[1], chunk, sizeof(chunk))) > 0) {
      pending.append(chunk, static_cast<std::size_t>(n));
    }
    if (n <= 0) break;
    session.replies.push_back(pending.substr(0, nl));
    pending.erase(0, nl + 1);
  }
  session.elapsed = std::chrono::steady_clock::now() - start;
  ::shutdown(fds[1], SHUT_WR);
  loop.join();
  ::close(fds[0]);
  ::close(fds[1]);
  return session;
}

}  // namespace windim::test
