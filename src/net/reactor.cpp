#include "net/reactor.hpp"

#include <sys/epoll.h>  // the only TU allowed to (lint rule os-exclusive)
#include <unistd.h>

#include <cerrno>

#include "common/error.hpp"

namespace rcp::net {

namespace {

// Edge-triggered, both directions, forever: re-arming via epoll_ctl per
// state change would put a syscall on every flush/pause; the loop's sticky
// readable/writable flags filter instead.
constexpr std::uint32_t kInterest = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;

}  // namespace

Reactor::Reactor() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  RCP_EXPECT(epfd_ >= 0, "epoll_create1() failed");
}

Reactor::~Reactor() { ::close(epfd_); }

void Reactor::add(int fd, std::uint64_t token) {
  epoll_event ev{};
  ev.events = kInterest;
  ev.data.u64 = token;
  RCP_EXPECT(::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0,
             "epoll_ctl(ADD) failed");
  ++registered_;
  if (events_.capacity() < registered_) {
    events_.reserve(registered_);
  }
}

void Reactor::modify(int fd, std::uint64_t token) {
  epoll_event ev{};
  ev.events = kInterest;
  ev.data.u64 = token;
  RCP_EXPECT(::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0,
             "epoll_ctl(MOD) failed");
}

void Reactor::remove(int fd) {
  // The fd is still open here (callers remove before close), so DEL
  // cannot fail with EBADF; failure means it was never registered.
  RCP_EXPECT(::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) == 0,
             "epoll_ctl(DEL) failed");
  --registered_;
}

int Reactor::wait(int timeout_ms) {
  events_.clear();
  if (kernel_events_.size() < registered_ + 1) {
    kernel_events_.resize(registered_ + 1);
  }
  const int rc =
      ::epoll_wait(epfd_, kernel_events_.data(),
                   static_cast<int>(kernel_events_.size()), timeout_ms);
  if (rc < 0) {
    return errno == EINTR ? 0 : rc;
  }
  for (int i = 0; i < rc; ++i) {
    const epoll_event& ev = kernel_events_[static_cast<std::size_t>(i)];
    unsigned mask = 0;
    if ((ev.events & (EPOLLIN | EPOLLRDHUP)) != 0) {
      mask |= kRead;
    }
    if ((ev.events & EPOLLOUT) != 0) {
      mask |= kWrite;
    }
    if ((ev.events & (EPOLLERR | EPOLLHUP)) != 0) {
      mask |= kError;
    }
    events_.push_back(ReactorEvent{mask, ev.data.u64});
  }
  return rc;
}

}  // namespace rcp::net
