#include "sim/mailbox.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rcp::sim {
namespace {

Envelope env(std::uint64_t seq) {
  return Envelope{.sender = 0, .receiver = 1, .payload = {}, .seq = seq};
}

TEST(Mailbox, StartsEmpty) {
  Mailbox box;
  EXPECT_TRUE(box.empty());
  EXPECT_EQ(box.size(), 0u);
}

TEST(Mailbox, PushGrowsInArrivalOrder) {
  Mailbox box;
  box.push(env(10));
  box.push(env(20));
  EXPECT_EQ(box.size(), 2u);
  EXPECT_EQ(box.contents()[0].seq, 10u);
  EXPECT_EQ(box.contents()[1].seq, 20u);
}

TEST(Mailbox, TakeRemovesChosenMessage) {
  Mailbox box;
  box.push(env(1));
  box.push(env(2));
  box.push(env(3));
  const Envelope taken = box.take(1);
  EXPECT_EQ(taken.seq, 2u);
  EXPECT_EQ(box.size(), 2u);
  // The other two are still present (order unspecified for take()).
  std::uint64_t seen = box.contents()[0].seq + box.contents()[1].seq;
  EXPECT_EQ(seen, 4u);
}

TEST(Mailbox, TakeFrontPreservingKeepsOrder) {
  Mailbox box;
  box.push(env(1));
  box.push(env(2));
  box.push(env(3));
  const Envelope taken = box.take_front_preserving(0);
  EXPECT_EQ(taken.seq, 1u);
  EXPECT_EQ(box.contents()[0].seq, 2u);
  EXPECT_EQ(box.contents()[1].seq, 3u);
}

TEST(Mailbox, TakeOutOfRangeThrows) {
  Mailbox box;
  box.push(env(1));
  EXPECT_THROW((void)box.take(1), PreconditionError);
  EXPECT_THROW((void)box.take_front_preserving(5), PreconditionError);
}

TEST(Mailbox, ClearEmpties) {
  Mailbox box;
  box.push(env(1));
  box.clear();
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, TakeLastElement) {
  Mailbox box;
  box.push(env(9));
  const Envelope taken = box.take(0);
  EXPECT_EQ(taken.seq, 9u);
  EXPECT_TRUE(box.empty());
}

}  // namespace
}  // namespace rcp::sim
