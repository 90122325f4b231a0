// RbxBatcher: one frame per peer per flush. Driven against a FakeContext
// so the tests see exactly the payloads a transport would carry.
#include "service/batcher.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "extensions/rb_engine.hpp"
#include "support/fake_context.hpp"

namespace rcp::service {
namespace {

using ext::RbxBatch;
using ext::RbxMsg;

constexpr std::uint32_t kN = 4;

RbxMsg echo(ProcessId origin, std::uint64_t tag, std::uint64_t v) {
  return RbxMsg{
      .kind = RbxMsg::Kind::echo, .origin = origin, .tag = tag, .value = v};
}

std::vector<RbxMsg> decode_payload(const Bytes& payload) {
  std::vector<RbxMsg> out;
  if (RbxBatch::is_batch(payload)) {
    const RbxBatch::View batch(payload, ext::kRbValueAny);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out.push_back(batch[i]);
    }
  } else {
    out.push_back(RbxMsg::decode(payload, ext::kRbValueAny));
  }
  return out;
}

TEST(RbxBatcher, CoalescesOneFramePerPeerPerFlush) {
  test::FakeContext ctx(0, kN);
  RbxBatcher b;
  for (std::uint64_t tag = 0; tag < 5; ++tag) {
    b.queue_broadcast(ctx, echo(1, tag, tag));
  }
  EXPECT_TRUE(ctx.sent.empty()) << "nothing leaves before flush";
  b.flush(ctx);
  // One frame per process (broadcast includes self), 5 messages in each.
  EXPECT_EQ(ctx.sent.size(), kN);
  for (ProcessId p = 0; p < kN; ++p) {
    EXPECT_EQ(ctx.sent_to(p), 1u);
  }
  for (const auto& s : ctx.take_sent()) {
    const auto msgs = decode_payload(s.payload);
    ASSERT_EQ(msgs.size(), 5u);
    EXPECT_EQ(msgs[0].tag, 0u);
    EXPECT_EQ(msgs[4].tag, 4u);
  }
  // One batch emission (the transport fans it out), five messages inside.
  EXPECT_EQ(b.stats().batches, 1u);
  EXPECT_EQ(b.stats().batched_msgs, 5u);
  EXPECT_EQ(b.stats().unbatched_msgs, 0u);
}

TEST(RbxBatcher, SingleMessageLaneGoesOutUnframed) {
  test::FakeContext ctx(0, kN);
  RbxBatcher b;
  b.queue_broadcast(ctx, echo(1, 9, 1));
  b.flush(ctx);
  ASSERT_EQ(ctx.sent.size(), kN);
  for (const auto& s : ctx.sent) {
    EXPECT_FALSE(RbxBatch::is_batch(s.payload))
        << "a lane of one skips the batch header";
  }
  EXPECT_EQ(b.stats().batches, 0u);
  EXPECT_EQ(b.stats().unbatched_msgs, 1u);
}

TEST(RbxBatcher, EachFlushStartsAFreshFrame) {
  test::FakeContext ctx(0, kN);
  RbxBatcher b;
  b.queue_broadcast(ctx, echo(0, 1, 0));
  b.queue_broadcast(ctx, echo(0, 2, 0));
  b.flush(ctx);
  b.queue_broadcast(ctx, echo(1, 7, 1));
  b.flush(ctx);
  b.flush(ctx);  // the lane is empty again: nothing more leaves
  // Every peer gets the pair in one frame, then the third message alone.
  for (ProcessId p = 0; p < kN; ++p) {
    EXPECT_EQ(ctx.sent_to(p), 2u);
  }
  std::vector<std::size_t> sizes;
  for (const auto& s : ctx.sent) {
    if (s.to == 3) {
      sizes.push_back(decode_payload(s.payload).size());
    }
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(b.stats().batches, 1u);
  EXPECT_EQ(b.stats().unbatched_msgs, 1u);
}

TEST(RbxBatcher, FlushOnEmptyLanesSendsNothing) {
  test::FakeContext ctx(0, kN);
  RbxBatcher b;
  b.flush(ctx);
  EXPECT_TRUE(ctx.sent.empty());
}

TEST(RbxBatcher, AutoFlushesFullLaneAtMaxBatch) {
  test::FakeContext ctx(0, kN);
  RbxBatcher b;
  constexpr std::size_t kMax = RbxBatch::kMaxMessages;
  for (std::uint64_t tag = 0; tag < 2 * kMax + 1; ++tag) {
    b.queue_broadcast(ctx, echo(0, tag, 0));
  }
  // Two full lanes went out on their own, one frame per process each; one
  // message remains queued.
  ASSERT_EQ(ctx.sent.size(), 2 * kN);
  for (const auto& s : ctx.sent) {
    EXPECT_EQ(decode_payload(s.payload).size(), kMax);
  }
  b.flush(ctx);
  ASSERT_EQ(ctx.sent.size(), 3 * kN);
  std::size_t total = 0;
  for (const auto& s : ctx.sent) {
    if (s.to == 1) {
      total += decode_payload(s.payload).size();
    }
  }
  EXPECT_EQ(total, 2 * kMax + 1);
}

TEST(RbxBatcher, PayloadsRoundTripThroughWireDecode) {
  // End-to-end shape check: what the batcher emits is exactly what a
  // receiving replica's decode path accepts.
  test::FakeContext ctx(0, kN);
  RbxBatcher b;
  const RbxMsg m1 = echo(2, (std::uint64_t{5} << 48) | 1, 0x1234567890ULL);
  const RbxMsg m2 = RbxMsg{.kind = RbxMsg::Kind::ready,
                           .origin = 3,
                           .tag = 42,
                           .value = ext::kRbValueBottom};
  b.queue_broadcast(ctx, m1);
  b.queue_broadcast(ctx, m2);
  b.flush(ctx);
  ASSERT_EQ(ctx.sent.size(), kN);
  const auto msgs = decode_payload(ctx.sent[0].payload);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].tag, m1.tag);
  EXPECT_EQ(msgs[0].value, m1.value);
  EXPECT_EQ(msgs[1].kind, RbxMsg::Kind::ready);
  EXPECT_EQ(msgs[1].value, ext::kRbValueBottom);
}

}  // namespace
}  // namespace rcp::service
