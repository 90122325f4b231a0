#include "net/frame.hpp"

#include "common/error.hpp"

namespace rcp::net {

namespace {

/// Appends `v` little-endian.
template <typename T>
void put(std::vector<std::byte>& out, T v) {
  std::byte le[sizeof(T)];
  store_le(le, v);
  out.insert(out.end(), le, le + sizeof(T));
}

/// hello body: type(1) magic(4) version(1) n(4) node_id(4)
constexpr std::size_t kHelloBody = 1 + 4 + 1 + 4 + 4;
/// ack body: type(1) seq(8)
constexpr std::size_t kAckBody = 1 + 8;
/// data body: type(1) seq(8) payload(>= 0)
constexpr std::size_t kDataHeader = 1 + 8;

}  // namespace

void append_hello(std::vector<std::byte>& out, std::uint32_t node_id,
                  std::uint32_t n) {
  put(out, static_cast<std::uint32_t>(kHelloBody));
  put(out, static_cast<std::uint8_t>(FrameType::hello));
  put(out, kHelloMagic);
  put(out, kWireVersion);
  put(out, n);
  put(out, node_id);
}

void append_data(std::vector<std::byte>& out, std::uint64_t seq,
                 const Bytes& payload) {
  RCP_EXPECT(payload.size() <= kMaxFrameBody - kDataHeader,
             "payload exceeds frame body limit");
  put(out, static_cast<std::uint32_t>(kDataHeader + payload.size()));
  put(out, static_cast<std::uint8_t>(FrameType::data));
  put(out, seq);
  out.insert(out.end(), payload.begin(), payload.end());
}

void append_ack(std::vector<std::byte>& out, std::uint64_t acked_seq) {
  put(out, static_cast<std::uint32_t>(kAckBody));
  put(out, static_cast<std::uint8_t>(FrameType::ack));
  put(out, acked_seq);
}

void encode_data_header(std::span<std::byte, kDataFrameHeader> out,
                        std::uint64_t seq, std::size_t payload_size) {
  RCP_EXPECT(payload_size <= kMaxFrameBody - kDataHeader,
             "payload exceeds frame body limit");
  store_le(out.data(), static_cast<std::uint32_t>(kDataHeader + payload_size));
  out[4] = static_cast<std::byte>(FrameType::data);
  store_le(out.data() + 5, seq);
}

void FrameDecoder::feed(std::span<const std::byte> data) {
  // Reclaim consumed prefix before growing; keeps the buffer near the size
  // of one partial frame in steady state.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 4) {
    return std::nullopt;
  }
  const std::uint32_t body_len = load_le<std::uint32_t>(buf_.data() + pos_);
  if (body_len > kMaxFrameBody) {
    throw DecodeError("frame body length exceeds limit");
  }
  if (body_len < 1) {
    throw DecodeError("frame body missing type byte");
  }
  if (avail < 4 + static_cast<std::size_t>(body_len)) {
    return std::nullopt;
  }
  const std::byte* body = buf_.data() + pos_ + 4;
  Frame frame;
  switch (static_cast<FrameType>(body[0])) {
    case FrameType::hello: {
      if (body_len != kHelloBody) {
        throw DecodeError("hello frame has wrong length");
      }
      frame.type = FrameType::hello;
      const std::uint32_t magic = load_le<std::uint32_t>(body + 1);
      if (magic != kHelloMagic) {
        throw DecodeError("hello frame magic mismatch");
      }
      const auto version = static_cast<std::uint8_t>(body[5]);
      if (version != kWireVersion) {
        throw DecodeError("hello frame version mismatch");
      }
      frame.n = load_le<std::uint32_t>(body + 6);
      frame.node_id = load_le<std::uint32_t>(body + 10);
      break;
    }
    case FrameType::data: {
      if (body_len < kDataHeader) {
        throw DecodeError("data frame truncated");
      }
      frame.type = FrameType::data;
      frame.seq = load_le<std::uint64_t>(body + 1);
      frame.payload =
          Bytes(std::span<const std::byte>(body + kDataHeader,
                                           body_len - kDataHeader));
      break;
    }
    case FrameType::ack: {
      if (body_len != kAckBody) {
        throw DecodeError("ack frame has wrong length");
      }
      frame.type = FrameType::ack;
      frame.seq = load_le<std::uint64_t>(body + 1);
      break;
    }
    default:
      throw DecodeError("unknown frame type");
  }
  pos_ += 4 + static_cast<std::size_t>(body_len);
  return frame;
}

}  // namespace rcp::net
