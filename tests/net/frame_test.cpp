// Frame codec: round-trips for every frame type and every core wire
// message, defensive rejection of malformed streams (hostile bytes
// included), and reassembly across arbitrary read fragmentation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "baselines/benor.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/messages.hpp"
#include "net/frame.hpp"

namespace rcp::net {
namespace {

Bytes payload_of(std::initializer_list<int> values) {
  Bytes out;
  for (const int v : values) {
    out.push_back(static_cast<std::byte>(v));
  }
  return out;
}

std::optional<Frame> decode_one(const std::vector<std::byte>& wire) {
  FrameDecoder decoder;
  decoder.feed(wire);
  return decoder.next();
}

TEST(FrameCodec, HelloRoundTrip) {
  std::vector<std::byte> wire;
  append_hello(wire, /*node_id=*/4, /*n=*/7);
  const auto frame = decode_one(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::hello);
  EXPECT_EQ(frame->node_id, 4u);
  EXPECT_EQ(frame->n, 7u);
}

TEST(FrameCodec, DataRoundTripPreservesSeqAndPayload) {
  std::vector<std::byte> wire;
  const Bytes payload = payload_of({1, 2, 3, 250});
  append_data(wire, /*seq=*/0xdeadbeefcafeULL, payload);
  const auto frame = decode_one(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::data);
  EXPECT_EQ(frame->seq, 0xdeadbeefcafeULL);
  ASSERT_EQ(frame->payload.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         frame->payload.begin()));
}

TEST(FrameCodec, EmptyPayloadDataFrame) {
  std::vector<std::byte> wire;
  append_data(wire, 1, Bytes{});
  const auto frame = decode_one(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.size(), 0u);
}

TEST(FrameCodec, AckRoundTrip) {
  std::vector<std::byte> wire;
  append_ack(wire, 991);
  const auto frame = decode_one(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::ack);
  EXPECT_EQ(frame->seq, 991u);
}

// Every typed message the protocols put on the wire survives the
// data-frame round trip bit-exactly: the transport may never corrupt or
// reinterpret protocol payloads.
TEST(FrameCodec, AllCoreMessageTypesRoundTrip) {
  std::vector<Bytes> payloads;
  payloads.push_back(
      core::FailStopMsg{.phase = 3, .value = Value::one, .cardinality = 4}
          .encode());
  payloads.push_back(core::EchoProtocolMsg{.is_echo = false,
                                           .from = 2,
                                           .value = Value::zero,
                                           .phase = 7}
                         .encode());
  payloads.push_back(core::EchoProtocolMsg{.is_echo = true,
                                           .from = 6,
                                           .value = Value::one,
                                           .phase = 9}
                         .encode());
  payloads.push_back(core::MajorityMsg{.phase = 11, .value = Value::one}
                         .encode());
  payloads.push_back(baselines::BenOrConsensus::encode_wire(
      {.stage = 1, .round = 5, .val = 2}));

  std::vector<std::byte> wire;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    append_data(wire, i + 1, payloads[i]);
  }

  FrameDecoder decoder;
  decoder.feed(wire);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->seq, i + 1);
    ASSERT_EQ(frame->payload.size(), payloads[i].size());
    EXPECT_TRUE(std::equal(payloads[i].begin(), payloads[i].end(),
                           frame->payload.begin()));
  }
  EXPECT_FALSE(decoder.next().has_value());

  // And the protocol decoders accept the transported bytes.
  FrameDecoder decoder2;
  decoder2.feed(wire);
  const auto f0 = decoder2.next();
  const auto msg = core::FailStopMsg::decode(f0->payload);
  EXPECT_EQ(msg.phase, 3u);
  EXPECT_EQ(msg.value, Value::one);
  EXPECT_EQ(msg.cardinality, 4u);
}

TEST(FrameCodec, TruncatedFrameYieldsNothingUntilCompleted) {
  std::vector<std::byte> wire;
  append_data(wire, 42, payload_of({9, 8, 7}));

  FrameDecoder decoder;
  // Feed all but the last byte: no frame yet, no throw.
  decoder.feed({wire.data(), wire.size() - 1});
  EXPECT_FALSE(decoder.next().has_value());
  // The final byte completes it.
  decoder.feed({wire.data() + wire.size() - 1, 1});
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->seq, 42u);
}

TEST(FrameCodec, PartialReadsAcrossBufferBoundaries) {
  // Many frames, fed one byte at a time: reassembly must be independent
  // of read fragmentation.
  std::vector<std::byte> wire;
  constexpr int kFrames = 50;
  for (int i = 1; i <= kFrames; ++i) {
    append_data(wire, static_cast<std::uint64_t>(i),
                payload_of({i & 0xff, (i * 7) & 0xff}));
  }
  FrameDecoder decoder;
  int decoded = 0;
  for (const std::byte b : wire) {
    decoder.feed({&b, 1});
    while (const auto frame = decoder.next()) {
      ++decoded;
      EXPECT_EQ(frame->seq, static_cast<std::uint64_t>(decoded));
    }
  }
  EXPECT_EQ(decoded, kFrames);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCodec, OversizedLengthPrefixIsRejected) {
  std::vector<std::byte> wire;
  const std::uint32_t huge = kMaxFrameBody + 1;
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<std::byte>((huge >> (8 * i)) & 0xff));
  }
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW((void)decoder.next(), DecodeError);
}

TEST(FrameCodec, ZeroLengthBodyIsRejected) {
  FrameDecoder decoder;
  const std::byte zeros[4] = {};
  decoder.feed(zeros);
  EXPECT_THROW((void)decoder.next(), DecodeError);
}

TEST(FrameCodec, UnknownFrameTypeIsRejected) {
  std::vector<std::byte> wire;
  wire.push_back(std::byte{1});  // body length 1
  wire.push_back(std::byte{0});
  wire.push_back(std::byte{0});
  wire.push_back(std::byte{0});
  wire.push_back(std::byte{99});  // no such type
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW((void)decoder.next(), DecodeError);
}

TEST(FrameCodec, HelloWithWrongMagicIsRejected) {
  std::vector<std::byte> wire;
  append_hello(wire, 1, 3);
  wire[5] = std::byte{0x00};  // corrupt the magic
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW((void)decoder.next(), DecodeError);
}

TEST(FrameCodec, HelloWithWrongVersionIsRejected) {
  std::vector<std::byte> wire;
  append_hello(wire, 1, 3);
  wire[9] = std::byte{0xee};  // corrupt the version byte
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW((void)decoder.next(), DecodeError);
}

TEST(FrameCodec, TruncatedHelloBodyIsRejected) {
  // A hello frame whose length claims fewer bytes than the layout needs.
  std::vector<std::byte> wire;
  append_hello(wire, 1, 3);
  wire[0] = std::byte{5};  // shrink the body length below kHelloBody
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW((void)decoder.next(), DecodeError);
}

TEST(FrameCodec, MixedStreamInterleavesTypes) {
  std::vector<std::byte> wire;
  append_hello(wire, 2, 5);
  append_data(wire, 1, payload_of({1}));
  append_ack(wire, 1);
  append_data(wire, 2, payload_of({2}));

  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_EQ(decoder.next()->type, FrameType::hello);
  EXPECT_EQ(decoder.next()->type, FrameType::data);
  EXPECT_EQ(decoder.next()->type, FrameType::ack);
  const auto last = decoder.next();
  EXPECT_EQ(last->type, FrameType::data);
  EXPECT_EQ(last->seq, 2u);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameCodec, LargestAllowedPayloadRoundTrips) {
  const Bytes big(kMaxFrameBody - 9, std::byte{0xab});  // body = 9 + payload
  std::vector<std::byte> wire;
  append_data(wire, 7, big);
  const auto frame = decode_one(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.size(), big.size());
}

TEST(FrameCodec, BufferCompactionKeepsStreamIntact) {
  // Force the decoder through its compaction path (pos_ >= 4096) and
  // verify the stream stays aligned.
  FrameDecoder decoder;
  const Bytes payload(512, std::byte{0x5a});
  std::uint64_t next_seq = 1;
  std::uint64_t seen = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<std::byte> wire;
    append_data(wire, next_seq++, payload);
    decoder.feed(wire);
    while (const auto frame = decoder.next()) {
      ++seen;
      EXPECT_EQ(frame->seq, seen);
    }
  }
  EXPECT_EQ(seen, 40u);
}

// ---- Hostile bytes ------------------------------------------------------

/// The exact bytes an encoder produces for `frame`.
std::vector<std::byte> reencode(const Frame& frame) {
  std::vector<std::byte> out;
  switch (frame.type) {
    case FrameType::hello:
      append_hello(out, frame.node_id, frame.n);
      break;
    case FrameType::data:
      append_data(out, frame.seq, frame.payload);
      break;
    case FrameType::ack:
      append_ack(out, frame.seq);
      break;
  }
  return out;
}

/// Feeds `input` to a fresh decoder in random fragments, draining next()
/// after each one. Every next() must yield a frame, nothing, or throw
/// DecodeError (any other exception fails the test; after DecodeError the
/// stream is dead). Every accepted frame must re-encode to exactly the
/// bytes it was decoded from, and the decoder may never hold more bytes
/// than it was fed.
void expect_frames_exact_or_rejected(const std::vector<std::byte>& input,
                                     Rng& rng) {
  FrameDecoder decoder;
  std::size_t fed = 0;
  while (fed < input.size()) {
    const std::size_t chunk = std::min<std::size_t>(
        input.size() - fed, 1 + rng.below(2 * kDataFrameHeader));
    decoder.feed({input.data() + fed, chunk});
    fed += chunk;
    while (true) {
      ASSERT_LE(decoder.buffered(), fed);
      const std::size_t start = fed - decoder.buffered();
      std::optional<Frame> frame;
      try {
        frame = decoder.next();
      } catch (const DecodeError&) {
        return;
      }
      if (!frame.has_value()) {
        break;
      }
      ASSERT_LE(decoder.buffered(), fed);
      const std::size_t end = fed - decoder.buffered();
      const std::vector<std::byte> again = reencode(*frame);
      ASSERT_TRUE(std::equal(again.begin(), again.end(),
                             input.begin() + static_cast<std::ptrdiff_t>(start),
                             input.begin() + static_cast<std::ptrdiff_t>(end)))
          << "accepted bytes [" << start << ", " << end
          << ") do not re-encode to themselves";
    }
  }
}

TEST(FrameCodec, DecoderNeverCrashesOnHostileBytes) {
  Rng rng(123);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::byte> junk(rng.below(64));
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.below(256));
    }
    if (junk.size() >= 4 && rng.below(2) == 0) {
      // A plausible length prefix gets past the size check to the body.
      store_le(junk.data(), static_cast<std::uint32_t>(rng.below(24)));
    }
    expect_frames_exact_or_rejected(junk, rng);
  }
  // Near-valid streams reach deeper than junk: a hello/data/ack stream
  // with each byte replaced by every value, and cut at every length.
  std::vector<std::vector<std::byte>> streams(3);
  append_hello(streams[0], /*node_id=*/4, /*n=*/7);
  append_data(streams[0], /*seq=*/1, payload_of({1, 2, 3}));
  append_ack(streams[0], /*acked_seq=*/1);
  append_data(streams[1], /*seq=*/0xfeedULL, Bytes{});
  append_ack(streams[1], /*acked_seq=*/0xfeedULL);
  append_data(streams[1], /*seq=*/0xfeedULL + 1, payload_of({0xff}));
  append_ack(streams[2], /*acked_seq=*/~0ULL);
  append_hello(streams[2], /*node_id=*/0, /*n=*/1);
  for (const std::vector<std::byte>& valid : streams) {
    for (std::size_t i = 0; i < valid.size(); ++i) {
      for (int v = 0; v < 256; ++v) {
        std::vector<std::byte> mutated = valid;
        mutated[i] = static_cast<std::byte>(v);
        expect_frames_exact_or_rejected(mutated, rng);
      }
    }
    for (std::size_t len = 0; len <= valid.size(); ++len) {
      expect_frames_exact_or_rejected(
          {valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len)},
          rng);
    }
  }
}

}  // namespace
}  // namespace rcp::net
