// RbxBatch framing (docs/SERVICE.md "Batching"): the KV service's one wire
// format, which coalesces every engine message of one atomic step — block
// entries of variable length — into one payload per peer. The decoder
// (RbxBatch::View) is a Byzantine surface: every malformed shape a
// babbler can emit must throw DecodeError, never desync or over-read, and
// whatever it accepts must re-encode to exactly the bytes it read.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "extensions/rb_engine.hpp"

namespace rcp::ext {
namespace {

/// The block bound the tests decode under: the KV replica's default window.
constexpr std::size_t kWindow = 64;

/// A decoded entry with its block copied out of the payload.
struct Entry {
  RbxMsg::Kind kind = RbxMsg::Kind::initial;
  ProcessId origin = 0;
  std::uint64_t tag = 0;
  std::vector<std::uint64_t> words;
};

/// `count` words derived from `seed`, as a block's little-endian bytes.
std::vector<std::byte> block(std::size_t count, std::uint64_t seed = 1) {
  std::vector<std::byte> out(count * 8);
  for (std::size_t i = 0; i < count; ++i) {
    store_le(out.data() + i * 8, seed * 0x9e3779b97f4a7c15ULL + i);
  }
  return out;
}

std::vector<Entry> decode_all(const Bytes& frame,
                              std::size_t max_words = kWindow) {
  std::vector<Entry> out;
  for (const RbxBodyMsg& m : RbxBatch::View(frame, max_words)) {
    Entry e{.kind = m.kind, .origin = m.origin, .tag = m.tag, .words = {}};
    for (std::size_t i = 0; i < m.body.size(); i += 8) {
      e.words.push_back(load_le<std::uint64_t>(m.body.data() + i));
    }
    out.push_back(e);
  }
  return out;
}

/// Decodes `frame` and encodes what it read again.
Bytes reencode(const Bytes& frame, std::size_t max_words = kWindow) {
  std::vector<RbxBodyMsg> msgs;
  for (const RbxBodyMsg& m : RbxBatch::View(frame, max_words)) {
    msgs.push_back(m);
  }
  return RbxBatch::encode(msgs);
}

RbxBodyMsg entry(RbxMsg::Kind kind, ProcessId origin, std::uint64_t tag,
                 std::span<const std::byte> body) {
  return RbxBodyMsg{.kind = kind, .origin = origin, .tag = tag, .body = body};
}

TEST(RbxBatch, RoundTripsMixedKindsAndWideValues) {
  const std::vector<std::byte> one = block(1, 7);
  const std::vector<std::byte> three = block(3, 9);
  const std::vector<std::byte> full = block(kWindow, 11);
  const std::vector<RbxBodyMsg> in = {
      entry(RbxMsg::Kind::initial, 0, 0, one),
      entry(RbxMsg::Kind::echo, 6, (std::uint64_t{3} << 48) | 41, three),
      entry(RbxMsg::Kind::ready, 2, ~std::uint64_t{0} >> 1, full),
  };
  const Bytes frame = RbxBatch::encode(in);
  EXPECT_TRUE(RbxBatch::is_batch(frame));
  EXPECT_EQ(frame.size(), RbxBatch::kHeaderSize +
                              3 * RbxBatch::kEntryHeaderSize +
                              (1 + 3 + kWindow) * 8);

  const std::vector<Entry> out = decode_all(frame);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].kind, in[i].kind);
    EXPECT_EQ(out[i].origin, in[i].origin);
    EXPECT_EQ(out[i].tag, in[i].tag);
    ASSERT_EQ(out[i].words.size() * 8, in[i].body.size());
    for (std::size_t w = 0; w < out[i].words.size(); ++w) {
      EXPECT_EQ(out[i].words[w], load_le<std::uint64_t>(in[i].body.data() + w * 8));
    }
  }
  EXPECT_TRUE(reencode(frame) == frame);
}

TEST(RbxBatch, SingleMessageBatchRoundTrips) {
  const std::vector<std::byte> body = block(2);
  const std::vector<RbxBodyMsg> in = {entry(RbxMsg::Kind::echo, 1, 7, body)};
  const std::vector<Entry> out = decode_all(RbxBatch::encode(in));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].origin, 1u);
  EXPECT_EQ(out[0].words.size(), 2u);
}

TEST(RbxBatch, SingleMessagesAreNotBatches) {
  EXPECT_FALSE(RbxBatch::is_batch(RbxMsg{.kind = RbxMsg::Kind::echo,
                                         .origin = 1,
                                         .tag = 7,
                                         .value = 1}
                                      .encode()));
  EXPECT_FALSE(RbxBatch::is_batch(Bytes{}));
  EXPECT_THROW((void)RbxBatch::View(Bytes{std::byte{40}}, kWindow),
               DecodeError);
}

Bytes two_entries() {
  const std::vector<std::byte> a = block(1);
  const std::vector<std::byte> b = block(2);
  const std::vector<RbxBodyMsg> in = {entry(RbxMsg::Kind::echo, 1, 7, a),
                                      entry(RbxMsg::Kind::ready, 2, 8, b)};
  return RbxBatch::encode(in);
}

TEST(RbxBatch, RejectsTruncatedFrame) {
  Bytes frame = two_entries();
  frame.pop_back();
  EXPECT_THROW((void)RbxBatch::View(frame, kWindow), DecodeError);
  // Cut inside the second entry's header.
  frame.resize(RbxBatch::kHeaderSize + RbxBatch::kEntryHeaderSize + 8 + 3);
  EXPECT_THROW((void)RbxBatch::View(frame, kWindow), DecodeError);
}

TEST(RbxBatch, RejectsCountBodyMismatch) {
  // Header claims three entries but carries two, or one but carries two: a
  // count/length mismatch must throw either way, as must trailing bytes.
  Bytes frame = two_entries();
  frame[1] = std::byte{3};  // count is little-endian at offset 1
  EXPECT_THROW((void)RbxBatch::View(frame, kWindow), DecodeError);
  frame[1] = std::byte{1};
  EXPECT_THROW((void)RbxBatch::View(frame, kWindow), DecodeError);

  Bytes trailing = two_entries();
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)RbxBatch::View(trailing, kWindow), DecodeError);
}

TEST(RbxBatch, RejectsZeroAndOversizedCounts) {
  // count = 0: a batch must carry at least one message.
  Bytes empty(RbxBatch::kHeaderSize);
  RbxBatch::put_header(empty.data(), 0);
  EXPECT_THROW((void)RbxBatch::View(empty, kWindow), DecodeError);

  // count > kMaxMessages: reject on the header alone — a forged count must
  // not size any buffer.
  Bytes huge(RbxBatch::kHeaderSize);
  RbxBatch::put_header(huge.data(), 0xffffffffu);
  EXPECT_THROW((void)RbxBatch::View(huge, kWindow), DecodeError);

  // A payload over the byte cap, whatever it claims.
  Bytes over(RbxBatch::kMaxBytes + 1);
  RbxBatch::put_header(over.data(), 1);
  EXPECT_THROW((void)RbxBatch::View(over, kWindow), DecodeError);
}

TEST(RbxBatch, RejectsOutOfRangeEntryKind) {
  Bytes frame = two_entries();
  frame[RbxBatch::kHeaderSize] = std::byte{3};  // only 0..2 are legal
  EXPECT_THROW((void)RbxBatch::View(frame, kWindow), DecodeError);
}

TEST(RbxBatch, RejectsOutOfRangeBlockSize) {
  // A block of 0 words, or of more than the decoder's bound (the window).
  Bytes zero = two_entries();
  store_le(zero.data() + RbxBatch::kHeaderSize + 13, std::uint16_t{0});
  EXPECT_THROW((void)RbxBatch::View(zero, kWindow), DecodeError);

  const std::vector<std::byte> body = block(kWindow + 1);
  const std::vector<RbxBodyMsg> in = {entry(RbxMsg::Kind::echo, 1, 7, body)};
  const Bytes over = RbxBatch::encode(in);
  EXPECT_THROW((void)RbxBatch::View(over, kWindow), DecodeError);
  // The same frame is legal under a wider bound.
  EXPECT_EQ(decode_all(over, kWindow + 1).size(), 1u);
}

TEST(RbxBatch, BadLastEntryRejectsWholeBatch) {
  // All or nothing: the view validates every entry before any is read, so
  // a caller never feeds the good prefix of a Byzantine frame.
  Bytes frame = two_entries();
  frame[RbxBatch::kHeaderSize + RbxBatch::kEntryHeaderSize + 8] =
      std::byte{7};  // corrupt the second entry's kind
  EXPECT_THROW((void)RbxBatch::View(frame, kWindow), DecodeError);
  Bytes big = two_entries();
  store_le(big.data() + RbxBatch::kHeaderSize + RbxBatch::kEntryHeaderSize +
               8 + 13,
           std::uint16_t{kWindow + 1});
  EXPECT_THROW((void)RbxBatch::View(big, kWindow), DecodeError);
}

/// Feeds `input` to the decoder: it must throw DecodeError (any other
/// exception fails the test) or accept an input it re-encodes byte for
/// byte, every block within the window.
void expect_exact_or_rejected(const Bytes& input) {
  Bytes again;
  try {
    for (const RbxBodyMsg& m : RbxBatch::View(input, kWindow)) {
      EXPECT_GE(m.body.size(), 8u);
      EXPECT_LE(m.body.size(), kWindow * 8);
    }
    again = reencode(input);
  } catch (const DecodeError&) {
    return;
  }
  EXPECT_TRUE(again == input)
      << "accepted " << input.size()
      << " bytes that do not re-encode to themselves";
}

TEST(RbxBatch, HostileBytesAreRejectedOrReencodeExactly) {
  Rng rng(29);
  for (int trial = 0; trial < 5000; ++trial) {
    Bytes junk(rng.below(64));
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.below(256));
    }
    if (!junk.empty() && rng.bernoulli(0.75)) {
      junk[0] = std::byte{RbxBatch::kTagByte};  // reach the entry walk
    }
    expect_exact_or_rejected(junk);
  }
  // Near-valid inputs: batches holding a 1-op, a 2-op and a window-sized
  // block, each with one byte replaced by each of its 256 values,
  // truncated to every shorter length, and extended by one byte.
  const std::vector<std::byte> one = block(1, 3);
  const std::vector<std::byte> two = block(2, 5);
  const std::vector<std::byte> full = block(kWindow, 8);
  const std::vector<std::vector<RbxBodyMsg>> batches = {
      {entry(RbxMsg::Kind::initial, 4, 12, one)},
      {entry(RbxMsg::Kind::echo, 2, 40, two),
       entry(RbxMsg::Kind::ready, 6, 41, one)},
      {entry(RbxMsg::Kind::ready, 1, (std::uint64_t{2} << 48) | 64, full)},
  };
  for (const std::vector<RbxBodyMsg>& msgs : batches) {
    const Bytes valid = RbxBatch::encode(msgs);
    EXPECT_TRUE(reencode(valid) == valid);
    for (std::size_t i = 0; i < valid.size(); ++i) {
      for (int v = 0; v < 256; ++v) {
        Bytes mutated = valid;
        mutated[i] = static_cast<std::byte>(v);
        expect_exact_or_rejected(mutated);
      }
    }
    for (std::size_t len = 0; len < valid.size(); ++len) {
      expect_exact_or_rejected(Bytes(valid.begin(), valid.begin() + len));
    }
    for (const int extra : {0x00, 0x01, 0xff}) {
      Bytes longer = valid;
      longer.push_back(static_cast<std::byte>(extra));
      expect_exact_or_rejected(longer);
    }
  }
}

}  // namespace
}  // namespace rcp::ext
