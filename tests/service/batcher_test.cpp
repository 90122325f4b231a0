// RbxBatcher: one frame per peer per flush, always one RbxBatch. Driven
// against a FakeContext so the tests see exactly the payloads a transport
// would carry.
#include "service/batcher.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <span>
#include <vector>

#include "extensions/rb_engine.hpp"
#include "net/frame.hpp"
#include "support/fake_context.hpp"

namespace rcp::service {
namespace {

using ext::RbxBatch;
using ext::RbxBodyMsg;
using ext::RbxMsg;

// The batcher's byte cap keeps every batch inside one transport frame:
// the frame body is a type byte, a sequence number and the payload.
static_assert(RbxBatch::kMaxBytes <=
              net::kMaxFrameBody - (net::kDataFrameHeader - 4));

constexpr std::uint32_t kN = 4;

/// One-word blocks whose word is `v`, kept alive for the test's duration.
class Blocks {
 public:
  std::span<const std::byte> word(std::uint64_t v) {
    std::vector<std::byte>& b = store_.emplace_back(8);
    store_le(b.data(), v);
    return b;
  }

 private:
  std::deque<std::vector<std::byte>> store_;
};

RbxBodyMsg echo(ProcessId origin, std::uint64_t tag,
                std::span<const std::byte> body) {
  return RbxBodyMsg{
      .kind = RbxMsg::Kind::echo, .origin = origin, .tag = tag, .body = body};
}

struct Decoded {
  RbxMsg::Kind kind;
  std::uint64_t tag;
  std::vector<std::byte> body;
};

std::vector<Decoded> decode_payload(const Bytes& payload) {
  std::vector<Decoded> out;
  for (const RbxBodyMsg& m :
       RbxBatch::View(payload, RbxBatch::kMaxBlockWords)) {
    out.push_back(Decoded{m.kind, m.tag, {m.body.begin(), m.body.end()}});
  }
  return out;
}

TEST(RbxBatcher, CoalescesOneFramePerPeerPerFlush) {
  test::FakeContext ctx(0, kN);
  RbxBatcher b;
  Blocks blocks;
  for (std::uint64_t tag = 0; tag < 5; ++tag) {
    b.queue_broadcast(ctx, echo(1, tag, blocks.word(tag)));
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
}

TEST(RbxBatcher, SingleEntryLaneGoesOutAsABatch) {
  test::FakeContext ctx(0, kN);
  RbxBatcher b;
  Blocks blocks;
  b.queue_broadcast(ctx, echo(1, 9, blocks.word(1)));
  b.flush(ctx);
  ASSERT_EQ(ctx.sent.size(), kN);
  for (const auto& s : ctx.sent) {
    EXPECT_TRUE(RbxBatch::is_batch(s.payload)) << "one wire format";
    EXPECT_EQ(decode_payload(s.payload).size(), 1u);
  }
  EXPECT_EQ(b.stats().batches, 1u);
  EXPECT_EQ(b.stats().batched_msgs, 1u);
}

TEST(RbxBatcher, EachFlushStartsAFreshFrame) {
  test::FakeContext ctx(0, kN);
  RbxBatcher b;
  Blocks blocks;
  b.queue_broadcast(ctx, echo(0, 1, blocks.word(0)));
  b.queue_broadcast(ctx, echo(0, 2, blocks.word(0)));
  b.flush(ctx);
  b.queue_broadcast(ctx, echo(1, 7, blocks.word(1)));
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
  EXPECT_EQ(b.stats().batches, 2u);
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
  Blocks blocks;
  const std::span<const std::byte> body = blocks.word(0);
  constexpr std::size_t kMax = RbxBatch::kMaxMessages;
  for (std::uint64_t tag = 0; tag < 2 * kMax + 1; ++tag) {
    b.queue_broadcast(ctx, echo(0, tag, body));
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

TEST(RbxBatcher, AutoFlushesBeforeTheByteCap) {
  // Full-size blocks reach the byte cap long before the entry cap: each
  // batch holds as many as fit under RbxBatch::kMaxBytes, and none more.
  test::FakeContext ctx(0, 1);
  RbxBatcher b;
  const std::vector<std::byte> body(RbxBatch::kMaxBlockWords * 8,
                                    std::byte{0x5a});
  const std::size_t per_batch =
      (RbxBatch::kMaxBytes - RbxBatch::kHeaderSize) /
      RbxBatch::entry_size(body);
  ASSERT_GE(per_batch, 2u);
  for (std::uint64_t tag = 0; tag < 2 * per_batch + 1; ++tag) {
    b.queue_broadcast(ctx, echo(0, tag, body));
  }
  b.flush(ctx);
  ASSERT_EQ(ctx.sent.size(), 3u);
  EXPECT_EQ(decode_payload(ctx.sent[0].payload).size(), per_batch);
  EXPECT_EQ(decode_payload(ctx.sent[1].payload).size(), per_batch);
  EXPECT_EQ(decode_payload(ctx.sent[2].payload).size(), 1u);
  for (const auto& s : ctx.sent) {
    EXPECT_LE(s.payload.size(), RbxBatch::kMaxBytes);
  }
}

TEST(RbxBatcher, PayloadsRoundTripThroughWireDecode) {
  // End-to-end shape check: what the batcher emits is exactly what a
  // receiving replica's decode path accepts.
  test::FakeContext ctx(0, kN);
  RbxBatcher b;
  Blocks blocks;
  const std::span<const std::byte> b1 = blocks.word(0x1234567890ULL);
  std::vector<std::byte> b2(3 * 8);
  for (std::size_t i = 0; i < 3; ++i) {
    store_le(b2.data() + i * 8, std::uint64_t{i + 100});
  }
  b.queue_broadcast(ctx, echo(2, (std::uint64_t{5} << 48) | 1, b1));
  b.queue_broadcast(ctx, RbxBodyMsg{.kind = RbxMsg::Kind::ready,
                                    .origin = 3,
                                    .tag = 42,
                                    .body = b2});
  b.flush(ctx);
  ASSERT_EQ(ctx.sent.size(), kN);
  const auto msgs = decode_payload(ctx.sent[0].payload);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].tag, (std::uint64_t{5} << 48) | 1);
  EXPECT_EQ(msgs[0].body, std::vector<std::byte>(b1.begin(), b1.end()));
  EXPECT_EQ(msgs[1].kind, RbxMsg::Kind::ready);
  EXPECT_EQ(msgs[1].body, b2);
}

}  // namespace
}  // namespace rcp::service
