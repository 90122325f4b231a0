#include "sim/delivery.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"

namespace rcp::sim {
namespace {

Mailbox box_with(std::initializer_list<std::uint64_t> seqs) {
  Mailbox box;
  for (const auto s : seqs) {
    box.push(Envelope{.sender = static_cast<ProcessId>(s % 3),
                      .receiver = 0,
                      .payload = {},
                      .seq = s});
  }
  return box;
}

TEST(UniformDelivery, EmptyMailboxYieldsPhi) {
  UniformDelivery d;
  Mailbox box;
  Rng rng(1);
  EXPECT_EQ(d.pick(0, box, 0, rng), std::nullopt);
}

TEST(UniformDelivery, EventuallyPicksEveryIndex) {
  UniformDelivery d;
  Mailbox box = box_with({1, 2, 3, 4});
  Rng rng(2);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto pick = d.pick(0, box, 0, rng);
    ASSERT_TRUE(pick.has_value());
    ASSERT_LT(*pick, box.size());
    seen.insert(*pick);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(UniformDelivery, PhiProbabilityRespected) {
  UniformDelivery d(0.5);
  Mailbox box = box_with({1});
  Rng rng(3);
  int phis = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!d.pick(0, box, 0, rng).has_value()) {
      ++phis;
    }
  }
  EXPECT_GT(phis, 400);
  EXPECT_LT(phis, 600);
}

TEST(UniformDelivery, RejectsBadPhiProbability) {
  EXPECT_THROW(UniformDelivery(-0.1), PreconditionError);
  EXPECT_THROW(UniformDelivery(1.0), PreconditionError);
}

TEST(FifoDelivery, PicksOldestBySeq) {
  FifoDelivery d;
  Mailbox box = box_with({30, 10, 20});
  Rng rng(4);
  const auto pick = d.pick(0, box, 0, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(box.contents()[*pick].seq, 10u);
  EXPECT_TRUE(d.order_preserving());
}

TEST(LifoDelivery, PicksNewestBySeq) {
  LifoDelivery d;
  Mailbox box = box_with({30, 10, 20});
  Rng rng(5);
  const auto pick = d.pick(0, box, 0, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(box.contents()[*pick].seq, 30u);
}

TEST(DeliveryFactories, ProduceWorkingPolicies) {
  Mailbox box = box_with({7});
  Rng rng(6);
  EXPECT_TRUE(make_uniform_delivery()->pick(0, box, 0, rng).has_value());
  EXPECT_TRUE(make_fifo_delivery()->pick(0, box, 0, rng).has_value());
  EXPECT_TRUE(make_lifo_delivery()->pick(0, box, 0, rng).has_value());
}

}  // namespace
}  // namespace rcp::sim
