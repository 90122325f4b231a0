// Flat, bit-level quorum accounting for the Byzantine hot path.
//
// The malicious-case protocols count *distinct* processes: distinct echoers
// per (origin, phase) in Figure 2, distinct echo/ready senders per
// reliable-broadcast instance. Process ids are dense in [0, n), so each
// such set is exactly an n-bit row — one cache line up to n = 512 — and
// membership and insertion are single-word operations instead of
// red-black tree walks. BitRows holds many such rows in one flat
// allocation (replacing std::set<(echoer, origin, phase)> dedup sets; the
// row index encodes (phase-window slot, origin) or the instance slot).
//
// Per-bit operations are single-word and inline; the bulk ones — row-span
// clears, the cold growth copy, the debug popcount — are plain
// std::fill_n / std::copy_n / std::popcount loops, which the compiler
// turns into library memset/memcpy calls or vectorizes itself. BitRows
// allocates exactly once, at construction; every later operation is
// allocation-free, which is what lets the hot-alloc lint rule and the
// operator-new counting tests cover the whole echo path. Also here: the
// cache-line-aligned allocator behind the engines' struct-of-arrays tally
// lanes. Layout details: docs/PERF.md ("Quorum accounting").
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/error.hpp"

namespace rcp::core {

/// x86 cache-line size; SoA counter lanes are padded to multiples of this
/// so each lane starts on its own line and vector loops never split lines.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal allocator handing out kCacheLineBytes-aligned storage, so each
/// SoA counter lane begins on its own cache line.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t count) {
    // rcp-lint: allow(hot-alloc) one-time aligned lane allocation at setup
    return static_cast<T*>(::operator new(count * sizeof(T),
                                          std::align_val_t{kCacheLineBytes}));
  }

  void deallocate(T* ptr, std::size_t) noexcept {
    ::operator delete(ptr, std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  [[nodiscard]] bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// A vector whose buffer starts on a cache-line boundary.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// Rounds `count` elements of width `sizeof(T)` up to a whole number of
/// cache lines, so consecutive lanes never share a line.
template <typename T>
[[nodiscard]] constexpr std::size_t padded_to_cache_line(
    std::size_t count) noexcept {
  constexpr std::size_t per_line = kCacheLineBytes / sizeof(T);
  return (count + per_line - 1) / per_line * per_line;
}

/// A rows x bits bit matrix in a single flat allocation. Row r is an
/// independent bit set of `bits` capacity; rows are contiguous, so a span
/// of consecutive rows clears with one fill. Used as the echo dedup table
/// (row = (phase-window slot, origin), bit = echoer) and as the
/// reliable-broadcast vote gate (row = instance slot, bit = sender).
class BitRows {
 public:
  BitRows() = default;
  BitRows(std::size_t rows, std::size_t bits)
      : words_per_row_((bits + 63) / 64), words_(rows * words_per_row_, 0) {}

  /// Sets bit `bit` of row `row`; returns true when it was previously clear.
  bool test_and_set(std::size_t row, std::size_t bit) noexcept {
    std::uint64_t& w = words_[row * words_per_row_ + (bit >> 6)];
    const std::uint64_t mask = 1ULL << (bit & 63);
    if ((w & mask) != 0) {
      return false;
    }
    w |= mask;
    return true;
  }

  [[nodiscard]] bool test(std::size_t row, std::size_t bit) const noexcept {
    return (words_[row * words_per_row_ + (bit >> 6)] &
            (1ULL << (bit & 63))) != 0;
  }

  /// Clears `count` consecutive rows starting at `first_row` — one
  /// contiguous fill, the phase-window and slot reclamation primitive.
  void clear_rows(std::size_t first_row, std::size_t count) noexcept {
    std::fill_n(words_.data() + first_row * words_per_row_,
                count * words_per_row_, std::uint64_t{0});
  }

  /// Copies the first `rows` rows of `src` into this matrix. Both matrices
  /// must share `bits` (so words-per-row match) and both must have at least
  /// `rows` rows: the capacity-growth primitive for tables that carry their
  /// dedup state across a reallocation. A layout mismatch would silently
  /// scramble every row boundary, so the guard is always on (this is the
  /// cold growth path, never the per-message path).
  void copy_rows_from(const BitRows& src, std::size_t rows) {
    RCP_EXPECT(src.words_per_row_ == words_per_row_,
               "BitRows copy requires matching words-per-row");
    RCP_EXPECT(rows * words_per_row_ <= words_.size() &&
                   rows * words_per_row_ <= src.words_.size(),
               "BitRows copy row count within both matrices");
    std::copy_n(src.words_.data(), rows * words_per_row_, words_.data());
  }

  /// Total set bits across the whole matrix (bulk observer, not hot path).
  [[nodiscard]] std::size_t popcount_all() const noexcept {
    std::size_t total = 0;
    for (const std::uint64_t w : words_) {
      total += static_cast<std::size_t>(std::popcount(w));
    }
    return total;
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return words_.size() * sizeof(std::uint64_t);
  }

 private:
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rcp::core
