// Reactor — the readiness-notification engine behind the net event loop:
// edge-triggered epoll(7).
//
// Descriptors register once with EPOLLIN|EPOLLOUT|EPOLLET and never
// re-arm; the kernel reports *transitions*, and the loop keeps sticky
// per-link readable/writable flags that it clears only on EAGAIN. There is
// no interest mask to maintain, and wait() is O(ready), so one loop thread
// can drive the full-mesh fan-in of many nodes (n=100 ≈ 10k sockets)
// without rescanning idle descriptors.
//
// reactor.cpp is the only translation unit allowed to include
// <sys/epoll.h> — enforced by tools/rcp-lint (os-header exclusivity, see
// tools/lint_rules.toml); this header only forward-declares the kernel's
// event struct.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

struct epoll_event;

namespace rcp::net {

/// One readiness report. `mask` is a Reactor::k* bitmask; `token` is the
/// opaque value supplied at add()/modify() time (the loop packs a node
/// index and a per-node subject into it).
struct ReactorEvent {
  unsigned mask = 0;
  std::uint64_t token = 0;
};

class Reactor {
 public:
  static constexpr unsigned kRead = 1u << 0;
  static constexpr unsigned kWrite = 1u << 1;
  /// Error/hangup. The loop treats it as readable so the next read()
  /// observes the error/EOF.
  static constexpr unsigned kError = 1u << 2;

  /// Throws rcp::Error if the epoll instance cannot be created.
  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Registers a descriptor for both directions, edge-triggered. Throws
  /// rcp::Error if it is already registered.
  void add(int fd, std::uint64_t token);

  /// Re-tokens a registered descriptor. Throws if it is not registered.
  void modify(int fd, std::uint64_t token);

  /// Deregisters a descriptor. Must be called before close(), so that a
  /// recycled descriptor number starts from a clean registration. Throws
  /// if it is not registered.
  void remove(int fd);

  /// Blocks up to timeout_ms (0 = immediate, negative = forever) and
  /// fills events(). Returns the event count; EINTR counts as zero.
  int wait(int timeout_ms);

  /// Events produced by the last wait(); valid until the next wait().
  [[nodiscard]] std::span<const ReactorEvent> events() const noexcept {
    return events_;
  }

 private:
  int epfd_ = -1;
  std::size_t registered_ = 0;
  std::vector<epoll_event> kernel_events_;
  std::vector<ReactorEvent> events_;
};

}  // namespace rcp::net
