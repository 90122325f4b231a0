// Thin RAII layer over POSIX TCP sockets (IPv4, non-blocking).
//
// Everything the transport needs from the OS lives here: an owning file
// descriptor, loopback/TCP listeners with ephemeral-port discovery, and
// non-blocking dial. No I/O policy — reading, writing and state machines
// belong to the Node event loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace rcp::net {

/// Move-only owning file descriptor.
class Fd {
 public:
  Fd() noexcept = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  ~Fd() { reset(); }

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void reset() noexcept;
  [[nodiscard]] int release() noexcept { return std::exchange(fd_, -1); }

 private:
  int fd_ = -1;
};

/// The one host every listener binds and every dial targets: the
/// transport runs loopback clusters.
inline constexpr const char* kLoopbackHost = "127.0.0.1";

/// A network endpoint. Only IPv4 dotted-quad hosts are supported.
struct PeerAddress {
  std::string host = kLoopbackHost;
  std::uint16_t port = 0;
};

/// A bound, listening, non-blocking TCP socket and the port it actually
/// got (meaningful when asked for port 0 — the ephemeral-port pattern the
/// in-process cluster uses so parallel test runs never collide).
struct ListenSocket {
  Fd fd;
  std::uint16_t port = 0;
};

/// Binds and listens on `host:port` (port 0 picks an ephemeral port).
/// Throws rcp::Error on any failure.
[[nodiscard]] ListenSocket listen_on(const std::string& host,
                                     std::uint16_t port);

/// Accepts one pending connection; invalid Fd if none is pending.
/// The returned socket is non-blocking with TCP_NODELAY set.
[[nodiscard]] Fd accept_on(const Fd& listener);

/// Starts a non-blocking connect. The returned fd is usually mid-connect
/// (EINPROGRESS): poll it for writability and check dial_result().
/// Throws rcp::Error if the address is unparseable or socket() fails.
[[nodiscard]] Fd dial_start(const PeerAddress& addr);

/// After a dialing fd polls writable: 0 on success, else the errno that
/// killed the connect.
[[nodiscard]] int dial_result(const Fd& fd);

/// Shrinks the socket's kernel send buffer (SO_SNDBUF) to roughly
/// `bytes`. Test hook: a tiny send window forces short vectored writes,
/// exercising the partial-frame spill path.
void set_sndbuf(const Fd& fd, int bytes);

/// Best-effort bump of RLIMIT_NOFILE so a full-mesh loopback cluster
/// (n nodes ≈ n² sockets) does not die on EMFILE. Returns the resulting
/// soft limit; never throws — callers with modest n work under defaults.
std::size_t raise_fd_limit(std::size_t want);

}  // namespace rcp::net
