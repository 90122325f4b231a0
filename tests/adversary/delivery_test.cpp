#include "adversary/delivery.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rcp::adversary {
namespace {

sim::Mailbox box_from(std::initializer_list<ProcessId> senders) {
  sim::Mailbox box;
  std::uint64_t seq = 0;
  for (const ProcessId s : senders) {
    box.push(
        sim::Envelope{.sender = s, .receiver = 0, .payload = {}, .seq = seq++});
  }
  return box;
}

TEST(PartitionDelivery, OnlyIntraGroupDelivered) {
  // Groups: {0, 1} and {2, 3}. Receiver 0 is in group 0.
  PartitionDelivery d({0, 0, 1, 1});
  sim::Mailbox box = box_from({1, 2, 3});
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto pick = d.pick(0, box, 0, rng);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(box.contents()[*pick].sender, 1u);
  }
}

TEST(PartitionDelivery, OnlyCrossGroupBufferedYieldsPhi) {
  PartitionDelivery d({0, 0, 1, 1});
  sim::Mailbox box = box_from({2, 3});
  Rng rng(2);
  EXPECT_EQ(d.pick(0, box, 0, rng), std::nullopt);
}

TEST(PartitionDelivery, HealReleasesEverything) {
  PartitionDelivery d({0, 0, 1, 1}, /*heal_at_step=*/100);
  sim::Mailbox box = box_from({2, 3});
  Rng rng(3);
  EXPECT_EQ(d.pick(0, box, 99, rng), std::nullopt);
  EXPECT_TRUE(d.pick(0, box, 100, rng).has_value());
}

TEST(PartitionDelivery, SplitAtFactory) {
  auto d = PartitionDelivery::split_at(4, 2);
  sim::Mailbox box = box_from({3});
  Rng rng(4);
  // Receiver 0 (group 0) cannot hear sender 3 (group 1).
  EXPECT_EQ(d->pick(0, box, 0, rng), std::nullopt);
  // Receiver 3 (group 1) can.
  EXPECT_TRUE(d->pick(3, box, 0, rng).has_value());
}

TEST(PartitionDelivery, Validation) {
  EXPECT_THROW(PartitionDelivery({}), PreconditionError);
  EXPECT_THROW((void)PartitionDelivery::split_at(4, 5), PreconditionError);
  PartitionDelivery d({0, 1});
  sim::Mailbox box = box_from({0});
  Rng rng(5);
  EXPECT_THROW((void)d.pick(7, box, 0, rng), PreconditionError);
}

TEST(StarveSenders, FastPreferred) {
  StarveSendersDelivery d(4, {2});
  sim::Mailbox box = box_from({1, 2, 3});
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const auto pick = d.pick(0, box, 0, rng);
    ASSERT_TRUE(pick.has_value());
    EXPECT_NE(box.contents()[*pick].sender, 2u);
  }
}

TEST(StarveSenders, SlowDeliveredWhenAlone) {
  StarveSendersDelivery d(4, {2});
  sim::Mailbox box = box_from({2, 2});
  Rng rng(7);
  const auto pick = d.pick(0, box, 0, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(box.contents()[*pick].sender, 2u);
}

TEST(StarveSenders, Validation) {
  EXPECT_THROW(StarveSendersDelivery(3, {3}), PreconditionError);
  EXPECT_THROW(StarveSendersDelivery(3, {0}, 1.0), PreconditionError);
  EXPECT_THROW(StarveSendersDelivery(3, {0}, -0.1), PreconditionError);
}

TEST(StarveSenders, EpsilonFairnessDeliversSlowOccasionally) {
  StarveSendersDelivery d(4, {2}, /*slow_probability=*/0.2);
  sim::Mailbox box = box_from({1, 2, 3});
  Rng rng(11);
  int slow_hits = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto pick = d.pick(0, box, 0, rng);
    ASSERT_TRUE(pick.has_value());
    if (box.contents()[*pick].sender == 2) {
      ++slow_hits;
    }
  }
  // ~20% of draws are uniform over all 3 messages: expect ~2000*0.2/3 = 133.
  EXPECT_GT(slow_hits, 60);
  EXPECT_LT(slow_hits, 260);
}

TEST(NewestHalf, PrefersRecentSeqs) {
  NewestHalfDelivery d;
  sim::Mailbox box = box_from({0, 1, 2, 3});  // seqs 0..3
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    const auto pick = d.pick(0, box, 0, rng);
    ASSERT_TRUE(pick.has_value());
    EXPECT_GE(box.contents()[*pick].seq, 2u);
  }
}

TEST(NewestHalf, EmptyYieldsPhi) {
  NewestHalfDelivery d;
  sim::Mailbox box;
  Rng rng(9);
  EXPECT_EQ(d.pick(0, box, 0, rng), std::nullopt);
}

}  // namespace
}  // namespace rcp::adversary
