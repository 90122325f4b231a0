// Byte-level encoding helpers for protocol wire formats.
//
// The simulated message system (sim/) carries opaque byte payloads, exactly
// as a real network would; each protocol defines typed messages and encodes
// them through these little-endian writers/readers. Decoders throw
// DecodeError on malformed input so that fuzz/corruption tests can assert
// graceful failure instead of undefined behaviour.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "common/error.hpp"
#include "common/payload.hpp"

namespace rcp {

/// Wire payloads are small-buffer-optimized (see common/payload.hpp): every
/// protocol message fits Payload's inline capacity, so encoding and carrying
/// a message never allocates.
using Bytes = Payload;

/// Reads an unsigned little-endian T from `p` (any alignment). On a
/// little-endian host this is one plain load.
template <typename T>
[[nodiscard]] inline T load_le(const std::byte* p) noexcept {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(p[i]) << (8 * i);
    }
  }
  return v;
}

/// Writes `v` little-endian to `p` (any alignment); one plain store on a
/// little-endian host.
template <typename T>
inline void store_le(std::byte* p, T v) noexcept {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
    }
  }
}

/// Appends fixed-width little-endian integers to a byte buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::size_t reserve_hint = 16) { out_.reserve(reserve_hint); }

  ByteWriter& u8(std::uint8_t v) { return field(v); }
  ByteWriter& u32(std::uint32_t v) { return field(v); }
  ByteWriter& u64(std::uint64_t v) { return field(v); }

  [[nodiscard]] Bytes take() && { return std::move(out_); }

 private:
  /// Builds the field little-endian in a local buffer and appends it with
  /// one capacity check. Pushing byte by byte would re-check capacity and
  /// reload the size on every byte, since a std::byte store may alias any
  /// object.
  template <typename T>
  ByteWriter& field(T v) {
    std::byte le[sizeof(T)];
    store_le(le, v);
    out_.append(le, sizeof(T));
    return *this;
  }

  Bytes out_;
};

/// Consumes fixed-width little-endian integers from a byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) noexcept : data_(data) {}
  explicit ByteReader(const Payload& payload) noexcept
      : data_(payload.span()) {}

  [[nodiscard]] std::uint8_t u8() { return field<std::uint8_t>(); }
  [[nodiscard]] std::uint32_t u32() { return field<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return field<std::uint64_t>(); }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

  /// Throws DecodeError unless the entire payload was consumed.
  void expect_done() const {
    if (pos_ != data_.size()) {
      throw DecodeError("trailing bytes after message payload");
    }
  }

 private:
  /// One bounds check and one load per field.
  template <typename T>
  [[nodiscard]] T field() {
    need(sizeof(T));
    const T v = load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  void need(std::size_t bytes) const {
    if (data_.size() - pos_ < bytes) {
      throw DecodeError("message payload truncated");
    }
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace rcp
