#include "core/messages.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "extensions/rb_engine.hpp"
#include "extensions/reliable_broadcast.hpp"

namespace rcp::core {
namespace {

TEST(Messages, FailStopRoundTrip) {
  const FailStopMsg msg{.phase = 42, .value = Value::one, .cardinality = 17};
  const FailStopMsg back = FailStopMsg::decode(msg.encode());
  EXPECT_EQ(back.phase, 42u);
  EXPECT_EQ(back.value, Value::one);
  EXPECT_EQ(back.cardinality, 17u);
}

TEST(Messages, EchoProtocolRoundTripBothKinds) {
  for (const bool is_echo : {false, true}) {
    const EchoProtocolMsg msg{
        .is_echo = is_echo, .from = 9, .value = Value::zero, .phase = 1000};
    const EchoProtocolMsg back = EchoProtocolMsg::decode(msg.encode());
    EXPECT_EQ(back.is_echo, is_echo);
    EXPECT_EQ(back.from, 9u);
    EXPECT_EQ(back.value, Value::zero);
    EXPECT_EQ(back.phase, 1000u);
  }
}

TEST(Messages, MajorityRoundTrip) {
  const MajorityMsg msg{.phase = 3, .value = Value::one};
  const MajorityMsg back = MajorityMsg::decode(msg.encode());
  EXPECT_EQ(back.phase, 3u);
  EXPECT_EQ(back.value, Value::one);
}

TEST(Messages, PeekTagIdentifiesTypes) {
  EXPECT_EQ(peek_tag(FailStopMsg{}.encode()), MsgTag::fail_stop);
  EXPECT_EQ(peek_tag(EchoProtocolMsg{.is_echo = false}.encode()),
            MsgTag::initial);
  EXPECT_EQ(peek_tag(EchoProtocolMsg{.is_echo = true}.encode()), MsgTag::echo);
  EXPECT_EQ(peek_tag(MajorityMsg{}.encode()), MsgTag::majority);
}

TEST(Messages, PeekTagRejectsGarbage) {
  EXPECT_THROW((void)peek_tag(Bytes{}), DecodeError);
  EXPECT_THROW((void)peek_tag(Bytes{std::byte{0x7f}}), DecodeError);
}

TEST(Messages, CrossTypeDecodeRejected) {
  const Bytes fail_stop = FailStopMsg{}.encode();
  EXPECT_THROW((void)EchoProtocolMsg::decode(fail_stop), DecodeError);
  EXPECT_THROW((void)MajorityMsg::decode(fail_stop), DecodeError);
  const Bytes echo = EchoProtocolMsg{.is_echo = true}.encode();
  EXPECT_THROW((void)FailStopMsg::decode(echo), DecodeError);
}

TEST(Messages, TruncationRejected) {
  Bytes buf = FailStopMsg{.phase = 1, .value = Value::one, .cardinality = 2}
                  .encode();
  buf.pop_back();
  EXPECT_THROW((void)FailStopMsg::decode(buf), DecodeError);
}

TEST(Messages, TrailingBytesRejected) {
  Bytes buf = MajorityMsg{.phase = 1, .value = Value::one}.encode();
  buf.push_back(std::byte{0});
  EXPECT_THROW((void)MajorityMsg::decode(buf), DecodeError);
}

TEST(Messages, OutOfRangeValueRejected) {
  Bytes buf = MajorityMsg{.phase = 1, .value = Value::one}.encode();
  buf.back() = std::byte{2};  // value field is the final byte
  EXPECT_THROW((void)MajorityMsg::decode(buf), DecodeError);
}

/// One wire decoder seen as decode-then-re-encode, plus valid encodings
/// to mutate.
struct Codec {
  const char* name;
  Bytes (*reencode)(const Bytes&);
  std::vector<Bytes> valid;
};

/// Reads every entry of an accepted batch and encodes them again.
Bytes reencode_batch(const ext::RbxBatch::View& view) {
  std::vector<ext::RbxBodyMsg> msgs;
  for (const ext::RbxBodyMsg& m : view) {
    msgs.push_back(m);
  }
  return ext::RbxBatch::encode(msgs);
}

/// A 2-op block, the smallest that shows a block's word count.
const std::vector<std::byte>& two_op_block() {
  static const std::vector<std::byte> block = [] {
    std::vector<std::byte> b(16);
    store_le(b.data(), std::uint64_t{0x0102030405060708ULL});
    store_le(b.data() + 8, std::uint64_t{0xdeadbeefcafeULL});
    return b;
  }();
  return block;
}

std::vector<Codec> all_codecs() {
  using ext::kRbValueAny;
  using ext::RbxBatch;
  using ext::RbxBodyMsg;
  using ext::RbxMsg;
  const std::span<const std::byte> block = two_op_block();
  const std::vector<RbxBodyMsg> batch = {
      {.kind = RbxMsg::Kind::initial, .origin = 0, .tag = 0,
       .body = block.first(8)},
      {.kind = RbxMsg::Kind::echo, .origin = 6, .tag = 41, .body = block},
      {.kind = RbxMsg::Kind::ready, .origin = 2, .tag = ~0ULL >> 1,
       .body = block},
  };
  return {
      {"FailStopMsg",
       [](const Bytes& b) { return FailStopMsg::decode(b).encode(); },
       {FailStopMsg{.phase = 42, .value = Value::one, .cardinality = 17}
            .encode()}},
      {"EchoProtocolMsg",
       [](const Bytes& b) { return EchoProtocolMsg::decode(b).encode(); },
       {EchoProtocolMsg{
            .is_echo = false, .from = 9, .value = Value::one, .phase = 7}
            .encode(),
        EchoProtocolMsg{
            .is_echo = true, .from = 3, .value = Value::zero, .phase = 1000}
            .encode()}},
      {"MajorityMsg",
       [](const Bytes& b) { return MajorityMsg::decode(b).encode(); },
       {MajorityMsg{.phase = 3, .value = Value::one}.encode()}},
      {"RbMsg",
       [](const Bytes& b) { return ext::RbMsg::decode(b).encode(); },
       {ext::RbMsg{.kind = RbxMsg::Kind::ready, .value = Value::one}
            .encode()}},
      {"RbxMsg",
       [](const Bytes& b) { return RbxMsg::decode(b).encode(); },
       {RbxMsg{.kind = RbxMsg::Kind::echo, .origin = 5, .tag = 77,
               .value = 3}
            .encode()}},
      {"RbxMsg(any value)",
       [](const Bytes& b) { return RbxMsg::decode(b, kRbValueAny).encode(); },
       {RbxMsg{.kind = RbxMsg::Kind::initial, .origin = 1,
               .tag = 0x0102030405060708ULL, .value = 0xdeadbeefcafeULL}
            .encode()}},
      {"RbxBatch::View",
       [](const Bytes& b) { return reencode_batch(RbxBatch::View(b, 2)); },
       {RbxBatch::encode(batch)}},
  };
}

/// Feeds `input` to the codec: it must either throw DecodeError (any other
/// exception fails the test) or accept an input it re-encodes byte for
/// byte — a decoder that accepts two spellings of one message, or
/// silently drops bytes, fails here.
void expect_exact_or_rejected(const Codec& codec, const Bytes& input) {
  Bytes again;
  try {
    again = codec.reencode(input);
  } catch (const DecodeError&) {
    return;
  }
  EXPECT_TRUE(again == input)
      << codec.name << " accepted " << input.size()
      << " bytes that do not re-encode to themselves";
}

TEST(Messages, DecodersNeverCrashOnRandomBytes) {
  const std::vector<Codec> codecs = all_codecs();
  Rng rng(123);
  for (int trial = 0; trial < 5000; ++trial) {
    Bytes junk(rng.below(20));
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.below(256));
    }
    for (const Codec& codec : codecs) {
      expect_exact_or_rejected(codec, junk);
    }
  }
  // Near-valid inputs reach deeper than junk: every valid encoding with
  // one byte replaced by each of its 256 values, truncated to every
  // shorter length, and extended by one byte.
  for (const Codec& codec : codecs) {
    for (const Bytes& valid : codec.valid) {
      EXPECT_TRUE(codec.reencode(valid) == valid) << codec.name;
      for (std::size_t i = 0; i < valid.size(); ++i) {
        for (int v = 0; v < 256; ++v) {
          Bytes mutated = valid;
          mutated[i] = static_cast<std::byte>(v);
          expect_exact_or_rejected(codec, mutated);
        }
      }
      for (std::size_t len = 0; len < valid.size(); ++len) {
        expect_exact_or_rejected(codec,
                                 Bytes(valid.begin(), valid.begin() + len));
      }
      for (const int extra : {0x00, 0x01, 0xff}) {
        Bytes longer = valid;
        longer.push_back(static_cast<std::byte>(extra));
        expect_exact_or_rejected(codec, longer);
      }
    }
  }
}

TEST(Messages, PhaseExtremes) {
  const Phase huge = ~0ULL;
  const FailStopMsg msg{.phase = huge, .value = Value::zero, .cardinality = 0};
  EXPECT_EQ(FailStopMsg::decode(msg.encode()).phase, huge);
}

}  // namespace
}  // namespace rcp::core
