// Forked-server crash harness shared by the durability campaigns
// (`serve_loadtest --crash-after` and `session_crash`; docs/SERVER.md,
// "Durability & operations"): start a Server in a child process, SIGKILL it
// mid-flight, reap it. What to resubmit after the restart stays with each
// bench — serve_loadtest resubmits pipelined multi-client jobs,
// session_crash replays a serial session stream.
#pragma once

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "serve/server.hpp"

namespace morph::bench {

/// The benches' job and frame generator. Its second multiplier
/// (0xbf58476d1ce4595b) differs from support/rng.hpp's splitmix64
/// (0xbf58476d1ce4e5b9); switching would reshuffle job priorities and
/// session frames and so move committed baseline rows.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4595bull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Runs a Server in a forked child (the crash campaign's victim): the child
/// serves until a client shutdown or a signal; the parent returns once the
/// child's socket is listening. SIGKILLing the child is the whole point —
/// no destructor runs, the socket file and the journal tail are left
/// exactly as a real crash leaves them. Returns -1 on failure.
inline pid_t spawn_server_process(const serve::ServerConfig& scfg) {
  int ready[2];
  if (::pipe(ready) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(ready[0]);
    ::close(ready[1]);
    return -1;
  }
  if (pid == 0) {
    ::close(ready[0]);
    ::signal(SIGPIPE, SIG_IGN);
    {
      serve::Server server(scfg);
      const Status s = server.start();
      if (!s.ok()) {
        std::cerr << "server child: " << s.to_string() << "\n";
        ::close(ready[1]);
        std::_Exit(1);
      }
      const char b = 1;
      [[maybe_unused]] const ssize_t w = ::write(ready[1], &b, 1);
      ::close(ready[1]);
      server.wait();
    }
    std::_Exit(0);  // clean path: Server destructor already ran
  }
  ::close(ready[1]);
  char b = 0;
  ssize_t r;
  while ((r = ::read(ready[0], &b, 1)) < 0 && errno == EINTR) {
  }
  ::close(ready[0]);
  if (r == 1) return pid;
  ::waitpid(pid, nullptr, 0);
  return -1;
}

/// SIGKILLs a server child and reaps it.
inline void kill_server_process(pid_t pid) {
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

}  // namespace morph::bench
