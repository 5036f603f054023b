// Drives Server::serve_connection over a socketpair, the way a client
// drives `serve --stdio` or a socket connection: a client thread writes
// the whole input, closes its sending side and then reads every reply
// until the server's side is closed.  The input goes out before any
// reply is read, so it must fit the socket's send buffer (~200 KB);
// the tests' sessions are a few KB.
#pragma once

#include <string>
#include <thread>

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/server.h"

namespace windim::test {

struct Session {
  int rc = -1;          // what serve_connection returned
  std::string replies;  // every byte the server wrote
};

inline Session serve_socketpair(serve::Server& server,
                                const std::string& input) {
  Session session;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return session;
  }
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
  ::close(fds[0]);
  client.join();
  ::close(fds[1]);
  return session;
}

}  // namespace windim::test
