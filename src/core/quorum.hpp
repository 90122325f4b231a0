// Flat, bit-level quorum accounting for the Byzantine hot path.
//
// The malicious-case protocols count *distinct* processes: distinct echoers
// per (origin, phase) in Figure 2, distinct echo/ready senders per
// reliable-broadcast instance. Process ids are dense in [0, n), so each
// such set is exactly an n-bit row — one cache line up to n = 512 — and
// membership and insertion are single-word operations instead of
// red-black tree walks. BitRows holds many such rows in one flat
// allocation; VoteTally, the one vote counter of Figure 2's echoes
// (core::EchoEngine) and both Bracha stages (ext::RbEngine), adds value
// lanes to each row and returns counts — thresholds stay with the caller.
//
// Per-vote operations touch a few words and are inline; the bulk ones —
// row-span clears, the cold growth copy, the debug popcount — are plain
// std::fill_n / std::copy_n / std::popcount loops, which the compiler
// turns into library memset/memcpy calls or vectorizes itself. Every table
// allocates at construction or on an explicit grow; every later operation
// is allocation-free, which is what lets the hot-alloc lint rule and the
// operator-new counting tests cover the whole echo path. Layout details:
// docs/PERF.md ("Quorum accounting").
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace rcp::core {

/// x86 cache-line size: the alignment of every VoteTally lane array.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal allocator handing out kCacheLineBytes-aligned storage, so each
/// struct-of-arrays lane array begins on its own cache line.
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

/// A rows x bits bit matrix in a single flat allocation. Row r is an
/// independent bit set of `bits` capacity; rows are contiguous, so a span
/// of consecutive rows clears with one fill. VoteTally's vote gate.
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

/// How one VoteTally::vote fared.
enum class VoteStatus : std::uint8_t {
  counted,    ///< the sender's first vote in the row; added to its value
  duplicate,  ///< the sender already voted in the row; nothing changed
  overflow,   ///< first vote, but no lane is free: gated, not counted
};

/// Result of VoteTally::vote: the value's count after the vote, 0 unless
/// `status` is counted (so a threshold comparison needs no status check).
struct Vote {
  VoteStatus status = VoteStatus::duplicate;
  std::uint16_t count = 0;
};

/// One vote per sender per row, tallied per value. Row r holds a BitRows
/// gate row (bit = sender) and `lanes` first-come value lanes with uint16
/// counts, struct-of-arrays: lane l of row r is entry r * lanes + l of the
/// value and count arrays. A lane with count 0 is free, so resetting a row
/// zeroes its gate and counts only. One vote per sender per row means at
/// most k Byzantine values per row: k + 2 lanes always leave the real
/// value a lane (RbEngine), and two hold both binary values (EchoEngine).
template <typename V>
class VoteTally {
 public:
  /// Counts are 16-bit, so at most this many senders.
  static constexpr std::uint32_t kMaxVoters = 0xffff;

  VoteTally() = default;
  /// Throws PreconditionError, before allocating anything, unless
  /// 1 <= voters <= kMaxVoters and lanes >= 2.
  VoteTally(std::size_t rows, std::uint32_t voters, std::uint32_t lanes) {
    RCP_EXPECT(voters >= 1 && voters <= kMaxVoters && lanes >= 2,
               "VoteTally: 1..65535 voters (16-bit counts), 2+ lanes");
    voters_ = voters;
    lanes_ = lanes;
    gate_ = BitRows(rows, voters);
    values_ = AlignedVector<V>(rows * lanes);
    counts_ = AlignedVector<std::uint16_t>(rows * lanes, 0);
  }

  /// Records `sender`'s vote for `value` in `row` (sender < voters).
  [[nodiscard]] Vote vote(std::size_t row, std::uint32_t sender,
                          V value) noexcept {
    if (!gate_.test_and_set(row, sender)) {
      return {};
    }
    V* values = values_.data() + row * lanes_;
    std::uint16_t* counts = counts_.data() + row * lanes_;
    // The value's lane is the first one that is free or holds it (lanes
    // fill in order). Lanes 0 and 1 are picked without a branch: which of
    // them holds a value depends on which vote came first, so a branch
    // there mispredicts whenever rows disagree on it (Figure 2's rows do).
    // A hit stores only its count.
    std::uint32_t l =
        static_cast<std::uint32_t>((counts[0] != 0) & (values[0] != value));
    if (values[l] != value) [[unlikely]] {
      while (counts[l] != 0 && values[l] != value) {
        if (++l == lanes_) {
          return {.status = VoteStatus::overflow, .count = 0};
        }
      }
      values[l] = value;
    }
    return {.status = VoteStatus::counted, .count = ++counts[l]};
  }

  /// Counted votes for `value` in `row`.
  [[nodiscard]] std::uint16_t count(std::size_t row, V value) const noexcept {
    const V* values = values_.data() + row * lanes_;
    const std::uint16_t* counts = counts_.data() + row * lanes_;
    for (std::uint32_t l = 0; l < lanes_ && counts[l] != 0; ++l) {
      if (values[l] == value) {
        return counts[l];
      }
    }
    return 0;
  }

  /// True when `sender` already voted in `row` (counted or overflowed).
  [[nodiscard]] bool voted(std::size_t row,
                           std::uint32_t sender) const noexcept {
    return gate_.test(row, sender);
  }

  /// Empties `count` consecutive rows from `first`: gates and counts.
  void reset_rows(std::size_t first, std::size_t count) noexcept {
    gate_.clear_rows(first, count);
    std::fill_n(counts_.data() + first * lanes_, count * lanes_,
                std::uint16_t{0});
  }

  /// Reallocates for `rows` rows (>= rows()), keeping every existing row.
  void grow(std::size_t rows) {
    BitRows gate(rows, voters_);
    gate.copy_rows_from(gate_, this->rows());
    gate_ = std::move(gate);
    values_.resize(rows * lanes_);  // rcp-lint: allow(hot-alloc) cold growth
    counts_.resize(rows * lanes_, 0);  // rcp-lint: allow(hot-alloc) likewise
  }

  [[nodiscard]] std::size_t rows() const noexcept {
    return lanes_ == 0 ? 0 : counts_.size() / lanes_;
  }

  /// Gate bits set across every row (bulk observer, not hot path).
  [[nodiscard]] std::size_t voted_total() const noexcept {
    return gate_.popcount_all();
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return gate_.memory_bytes() + values_.capacity() * sizeof(V) +
           counts_.capacity() * sizeof(std::uint16_t);
  }

 private:
  std::uint32_t voters_ = 0;
  std::uint32_t lanes_ = 0;
  BitRows gate_;
  AlignedVector<V> values_;
  AlignedVector<std::uint16_t> counts_;
};

}  // namespace rcp::core
