#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace rcp::net {

namespace {

// Every socket this module creates carries SOCK_NONBLOCK | SOCK_CLOEXEC
// from birth — set atomically in socket(2)/accept4(2) rather than via a
// follow-up fcntl, so there is no window where a concurrent fork() (the
// crash-isolation runner forks workers) inherits the descriptor or a
// blocking call sneaks in before the flags land.
constexpr int kSockFlags = SOCK_NONBLOCK | SOCK_CLOEXEC;

void set_nodelay(int fd) {
  // Consensus messages are tiny and latency-bound; Nagle batching would
  // serialize the phase exchanges.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

[[nodiscard]] sockaddr_in parse_addr(const std::string& host,
                                     std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  RCP_EXPECT(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
             "unparseable IPv4 address: " + host);
  return addr;
}

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket listen_on(const std::string& host, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | kSockFlags, 0));
  RCP_EXPECT(fd.valid(), "socket() failed");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = parse_addr(host, port);
  RCP_EXPECT(::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0,
             "bind() failed on " + host + ":" + std::to_string(port) + ": " +
                 std::strerror(errno));
  RCP_EXPECT(::listen(fd.get(), SOMAXCONN) == 0, "listen() failed");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  RCP_EXPECT(::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                           &len) == 0,
             "getsockname() failed");
  ListenSocket out;
  out.fd = std::move(fd);
  out.port = ntohs(bound.sin_port);
  return out;
}

Fd accept_on(const Fd& listener) {
  const int fd = ::accept4(listener.get(), nullptr, nullptr, kSockFlags);
  if (fd < 0) {
    return Fd{};
  }
  Fd out(fd);
  set_nodelay(fd);
  return out;
}

Fd dial_start(const PeerAddress& peer) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | kSockFlags, 0));
  RCP_EXPECT(fd.valid(), "socket() failed");
  set_nodelay(fd.get());
  sockaddr_in addr = parse_addr(peer.host, peer.port);
  const int rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  if (rc == 0 || errno == EINPROGRESS) {
    return fd;
  }
  // Immediate refusal (no listener yet): surface an invalid fd so the
  // caller schedules a backoff retry instead of throwing — peers racing
  // through startup is the normal case, not an error.
  return Fd{};
}

int dial_result(const Fd& fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    return errno != 0 ? errno : EBADF;
  }
  return err;
}

void set_sndbuf(const Fd& fd, int bytes) {
  ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
}

std::size_t raise_fd_limit(std::size_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) {
    return 0;
  }
  if (lim.rlim_cur != RLIM_INFINITY && lim.rlim_cur < want) {
    rlimit raised = lim;
    raised.rlim_cur = lim.rlim_max == RLIM_INFINITY
                          ? static_cast<rlim_t>(want)
                          : std::min(static_cast<rlim_t>(want), lim.rlim_max);
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) {
      lim = raised;
    }
  }
  return lim.rlim_cur == RLIM_INFINITY ? want
                                       : static_cast<std::size_t>(lim.rlim_cur);
}

}  // namespace rcp::net
