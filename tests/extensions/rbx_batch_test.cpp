// RbxBatch framing (docs/SERVICE.md "Batching"): the cross-instance frame
// that coalesces every engine message of one atomic step into one payload
// per peer. The decoder (RbxBatch::View) is a Byzantine surface — every
// malformed shape a babbler can emit must throw DecodeError, never desync
// or over-read.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "extensions/rb_engine.hpp"

namespace rcp::ext {
namespace {

RbxMsg msg(RbxMsg::Kind kind, ProcessId origin, std::uint64_t tag,
           RbValue v) {
  return RbxMsg{.kind = kind, .origin = origin, .tag = tag, .value = v};
}

std::vector<RbxMsg> decode_all(const Bytes& frame,
                               RbValue max_value = kMaxRbValue) {
  const RbxBatch::View batch(frame, max_value);
  std::vector<RbxMsg> out;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out.push_back(batch[i]);
  }
  return out;
}

/// encode() takes a span; bridge the test's braced lists.
Bytes enc(std::initializer_list<RbxMsg> msgs) {
  const std::vector<RbxMsg> v(msgs);
  return RbxBatch::encode(v);
}

TEST(RbxBatch, RoundTripsMixedKindsAndWideValues) {
  const std::vector<RbxMsg> in = {
      msg(RbxMsg::Kind::initial, 0, 0, 0),
      msg(RbxMsg::Kind::echo, 6, (std::uint64_t{3} << 48) | 41,
          0xdeadbeefcafeULL),
      msg(RbxMsg::Kind::ready, 2, ~std::uint64_t{0} >> 1,
          ~std::uint64_t{0} - 1),
  };
  const Bytes frame = RbxBatch::encode(in);
  EXPECT_TRUE(RbxBatch::is_batch(frame));

  const std::vector<RbxMsg> out = decode_all(frame, kRbValueAny);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].kind, in[i].kind);
    EXPECT_EQ(out[i].origin, in[i].origin);
    EXPECT_EQ(out[i].tag, in[i].tag);
    EXPECT_EQ(out[i].value, in[i].value);
  }
}

TEST(RbxBatch, SingleMessageBatchRoundTrips) {
  const Bytes frame =
      enc({msg(RbxMsg::Kind::echo, 1, 7, kRbValueOne)});
  const std::vector<RbxMsg> out = decode_all(frame);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].origin, 1u);
}

TEST(RbxBatch, SingleMessagesAreNotBatches) {
  EXPECT_FALSE(
      RbxBatch::is_batch(msg(RbxMsg::Kind::echo, 1, 7, 1).encode()));
  EXPECT_FALSE(RbxBatch::is_batch(Bytes{}));
}

TEST(RbxBatch, RejectsTruncatedFrame) {
  Bytes frame = enc({msg(RbxMsg::Kind::echo, 1, 7, 1),
                     msg(RbxMsg::Kind::ready, 2, 8, 0)});
  frame.pop_back();
  EXPECT_THROW((void)RbxBatch::View(frame, kMaxRbValue), DecodeError);
}

TEST(RbxBatch, RejectsCountBodyMismatch) {
  // Header claims two messages but carries one: a count/len mismatch must
  // throw, both when the body is short and when it trails extra bytes.
  Bytes frame = enc({msg(RbxMsg::Kind::echo, 1, 7, 1)});
  frame[1] = std::byte{2};  // count is little-endian at offset 1
  EXPECT_THROW((void)RbxBatch::View(frame, kMaxRbValue), DecodeError);

  Bytes trailing = enc({msg(RbxMsg::Kind::echo, 1, 7, 1)});
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)RbxBatch::View(trailing, kMaxRbValue), DecodeError);
}

TEST(RbxBatch, RejectsZeroAndOversizedCounts) {
  // count = 0: a batch must carry at least one message.
  Bytes empty = enc({msg(RbxMsg::Kind::echo, 1, 7, 1)});
  empty[1] = std::byte{0};
  empty[2] = std::byte{0};
  empty[3] = std::byte{0};
  empty[4] = std::byte{0};
  empty.resize(5);
  EXPECT_THROW((void)RbxBatch::View(empty, kMaxRbValue), DecodeError);

  // count > kMaxMessages: reject on the header alone — a forged count must
  // not size any buffer.
  Bytes huge(5, std::byte{0});
  huge[0] = std::byte{RbxBatch::kTagByte};
  huge[1] = std::byte{0xff};
  huge[2] = std::byte{0xff};
  huge[3] = std::byte{0xff};
  huge[4] = std::byte{0xff};
  EXPECT_THROW((void)RbxBatch::View(huge, kMaxRbValue), DecodeError);
}

TEST(RbxBatch, RejectsOutOfRangeEntryKind) {
  Bytes frame = enc({msg(RbxMsg::Kind::echo, 1, 7, 1)});
  frame[5] = std::byte{3};  // first entry's kind byte: only 0..2 are legal
  EXPECT_THROW((void)RbxBatch::View(frame, kMaxRbValue), DecodeError);
}

TEST(RbxBatch, RejectsOutOfRangeEntryValue) {
  const Bytes frame = enc({msg(RbxMsg::Kind::echo, 1, 7, kMaxRbValue + 1)});
  EXPECT_THROW((void)RbxBatch::View(frame, kMaxRbValue), DecodeError);
  // The same frame is legal under a wider value bound (the KV service).
  EXPECT_EQ(decode_all(frame, kRbValueAny).size(), 1u);
}

TEST(RbxBatch, BadLastEntryRejectsWholeBatch) {
  // All or nothing: the view validates every entry before any is read, so
  // a caller never feeds the good prefix of a Byzantine frame.
  Bytes frame = enc({msg(RbxMsg::Kind::echo, 1, 7, 1),
                     msg(RbxMsg::Kind::ready, 2, 8, 0)});
  frame[RbxBatch::kHeaderSize + RbxBatch::kEntrySize] =
      std::byte{7};  // corrupt the second entry's kind
  EXPECT_THROW((void)RbxBatch::View(frame, kMaxRbValue), DecodeError);
  const Bytes high = enc({msg(RbxMsg::Kind::echo, 1, 7, 1),
                          msg(RbxMsg::Kind::ready, 2, 8, kMaxRbValue + 1)});
  EXPECT_THROW((void)RbxBatch::View(high, kMaxRbValue), DecodeError);
}

}  // namespace
}  // namespace rcp::ext
