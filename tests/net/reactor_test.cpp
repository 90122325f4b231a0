// The epoll reactor: registration, token round-trip, readiness dispatch,
// edge semantics and removal. Pipes stand in for sockets — readiness
// plumbing is fd-agnostic.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>

#include "common/error.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"

namespace rcp::net {
namespace {

struct Pipe {
  Fd rd;
  Fd wr;
};

Pipe make_pipe() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  for (const int fd : fds) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  return Pipe{Fd(fds[0]), Fd(fds[1])};
}

void write_byte(const Fd& fd) {
  const char byte = 'x';
  ASSERT_EQ(::write(fd.get(), &byte, 1), 1);
}

/// The event carrying `token` from the last wait, or nullptr. Dispatch is
/// by token (epoll cannot report the fd: epoll_data is a union and the
/// token occupies it).
const ReactorEvent* find_event(const Reactor& r, std::uint64_t token) {
  for (const ReactorEvent& ev : r.events()) {
    if (ev.token == token) {
      return &ev;
    }
  }
  return nullptr;
}

TEST(Reactor, EmptyWaitTimesOut) {
  Reactor r;
  EXPECT_EQ(r.wait(0), 0);
  EXPECT_TRUE(r.events().empty());
}

TEST(Reactor, ReadableFdReportsReadWithItsToken) {
  Reactor r;
  const Pipe p = make_pipe();
  r.add(p.rd.get(), 0xABCD0001u);
  EXPECT_EQ(r.wait(0), 0) << "empty pipe must not be readable";
  write_byte(p.wr);
  ASSERT_GE(r.wait(1000), 1);
  const ReactorEvent* ev = find_event(r, 0xABCD0001u);
  ASSERT_NE(ev, nullptr);
  EXPECT_TRUE(ev->mask & Reactor::kRead);
  r.remove(p.rd.get());
}

TEST(Reactor, WritableFdReportsWrite) {
  Reactor r;
  const Pipe p = make_pipe();
  r.add(p.wr.get(), 7);
  ASSERT_GE(r.wait(1000), 1);
  const ReactorEvent* ev = find_event(r, 7);
  ASSERT_NE(ev, nullptr);
  EXPECT_TRUE(ev->mask & Reactor::kWrite);
  r.remove(p.wr.get());
}

TEST(Reactor, ModifyRetokensLiveRegistration) {
  Reactor r;
  const Pipe p = make_pipe();
  r.add(p.rd.get(), 1);
  r.modify(p.rd.get(), 2);
  write_byte(p.wr);
  ASSERT_GE(r.wait(1000), 1);
  EXPECT_EQ(find_event(r, 1), nullptr) << "stale token must not dispatch";
  const ReactorEvent* ev = find_event(r, 2);
  ASSERT_NE(ev, nullptr);
  EXPECT_TRUE(ev->mask & Reactor::kRead);
  r.remove(p.rd.get());
}

TEST(Reactor, RemovedFdNeverReportsAgain) {
  Reactor r;
  const Pipe p = make_pipe();
  r.add(p.rd.get(), 9);
  write_byte(p.wr);
  r.remove(p.rd.get());
  EXPECT_EQ(r.wait(0), 0);
  EXPECT_EQ(find_event(r, 9), nullptr);
}

TEST(Reactor, TwoFdsDispatchIndependently) {
  Reactor r;
  const Pipe a = make_pipe();
  const Pipe b = make_pipe();
  r.add(a.rd.get(), 100);
  r.add(b.rd.get(), 200);
  write_byte(b.wr);
  ASSERT_GE(r.wait(1000), 1);
  EXPECT_EQ(find_event(r, 100), nullptr) << "idle fd must not dispatch";
  const ReactorEvent* ev = find_event(r, 200);
  ASSERT_NE(ev, nullptr);
  EXPECT_TRUE(ev->mask & Reactor::kRead);
  r.remove(a.rd.get());
  r.remove(b.rd.get());
}

TEST(EpollReactor, IsEdgeTriggeredAndReportsOncePerEdge) {
  Reactor r;
  const Pipe p = make_pipe();
  r.add(p.rd.get(), 3);
  write_byte(p.wr);
  ASSERT_GE(r.wait(1000), 1);
  // Edge-triggered: the byte is still buffered but no new edge occurred,
  // so the fd must not report again — the loop's sticky flags carry the
  // obligation to finish draining.
  EXPECT_EQ(r.wait(0), 0);
  write_byte(p.wr);  // a fresh edge
  EXPECT_GE(r.wait(1000), 1);
  r.remove(p.rd.get());
}

TEST(Reactor, RegistrationMisuseThrows) {
  Reactor r;
  const Pipe p = make_pipe();
  EXPECT_THROW(r.modify(p.rd.get(), 1), Error) << "modify before add";
  EXPECT_THROW(r.remove(p.rd.get()), Error) << "remove before add";
  r.add(p.rd.get(), 1);
  EXPECT_THROW(r.add(p.rd.get(), 2), Error) << "double add";
  r.remove(p.rd.get());
  EXPECT_THROW(r.remove(p.rd.get()), Error) << "double remove";
}

}  // namespace
}  // namespace rcp::net
