// Flat, bit-level quorum accounting primitives for the Byzantine hot path.
//
// The malicious-case protocols count *distinct* processes: distinct echoers
// per (origin, phase) in Figure 2, distinct echo/ready senders per value in
// reliable broadcast. Process ids are dense in [0, n), so each such set is
// exactly an n-bit bitset — one cache line up to n = 512 — and membership,
// insertion and cardinality are single-word operations instead of red-black
// tree walks. These two containers are the whole vocabulary:
//
//  - ProcessSet: one n-capacity set of process ids with an incrementally
//    maintained cardinality (replaces std::set<ProcessId> quorums).
//  - BitRows: a rows x bits matrix in one flat allocation, row = one echoer
//    set (replaces std::set<(echoer, origin, phase)> dedup sets; the row
//    index encodes (phase-window slot, origin)).
//
// Per-bit operations stay single-word and inline; every bulk operation —
// row-span clears, bulk popcounts, cross-matrix copies, set union and
// enumeration — goes through the word-parallel kernels in core/bitops.hpp,
// which dispatch to the AVX2 backend when available (bit-identical either
// way). Both containers allocate exactly once, at construction; every
// subsequent operation is allocation-free, which is what lets the hot-alloc
// lint rule and the operator-new counting tests cover the whole echo path.
// Layout details: docs/PERF.md ("Quorum accounting", "Word-parallel
// kernels").
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/bitops.hpp"

namespace rcp::core {

/// A fixed-capacity set of process ids backed by bit words, with O(1)
/// membership, insertion, and cardinality. Capacity is set once at
/// construction; ids must lie in [0, capacity).
class ProcessSet {
 public:
  ProcessSet() = default;
  explicit ProcessSet(std::uint32_t capacity)
      : words_((capacity + 63) / 64, 0) {}

  /// Inserts `id`; returns true when it was not already present.
  bool add(ProcessId id) RCP_RELEASE_NOEXCEPT {
#ifndef NDEBUG
    // Debug builds fail loudly on an out-of-capacity id (a caller-side
    // layout bug); release builds keep the unchecked single-word fast path.
    RCP_EXPECT((id >> 6) < words_.size(), "ProcessSet id within capacity");
#endif
    std::uint64_t& w = words_[id >> 6];
    const std::uint64_t bit = 1ULL << (id & 63);
    if ((w & bit) != 0) {
      return false;
    }
    w |= bit;
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(ProcessId id) const noexcept {
    return (words_[id >> 6] & (1ULL << (id & 63))) != 0;
  }

  /// Number of ids present (maintained incrementally, no popcount scan).
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }

  void clear() noexcept {
    bitops::fill_words(std::span<std::uint64_t>(words_), 0);
    size_ = 0;
  }

  /// Set union: adds every id of `other` (same capacity required). One
  /// word-parallel OR sweep plus one bulk popcount for the cardinality.
  void merge(const ProcessSet& other) {
    RCP_EXPECT(other.words_.size() == words_.size(),
               "ProcessSet merge requires matching capacity");
    bitops::or_words(std::span<std::uint64_t>(words_),
                     std::span<const std::uint64_t>(other.words_));
    size_ = static_cast<std::uint32_t>(
        bitops::popcount_words(std::span<const std::uint64_t>(words_)));
  }

  /// Calls `fn(id)` for every member, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    bitops::for_each_set_bit(
        std::span<const std::uint64_t>(words_), [&fn](std::size_t bit) {
          fn(static_cast<ProcessId>(bit));
        });
  }

  /// The raw bit words (test / kernel-equivalence observer).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::uint32_t size_ = 0;
};

/// A rows x bits bit matrix in a single flat allocation. Row r is an
/// independent bit set of `bits` capacity; rows are contiguous, so a span
/// of consecutive rows clears with one word-parallel fill. Used as the echo
/// dedup table: row = (phase-window slot, origin), bit = echoer.
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
  /// contiguous word-parallel fill, the phase-window reclamation primitive.
  void clear_rows(std::size_t first_row, std::size_t count) noexcept {
    bitops::fill_words(
        std::span<std::uint64_t>(words_).subspan(first_row * words_per_row_,
                                                 count * words_per_row_),
        0);
  }

  /// Clears row `row` with a library memset. GCC expands clear_rows' short
  /// inline path into a rep stos, whose startup costs more than a one-row
  /// clear; the per-instance engine (extensions/rb_engine.hpp) uses this.
  void clear_row(std::size_t row) noexcept {
    std::fill_n(words_.data() + row * words_per_row_, words_per_row_,
                std::uint64_t{0});
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
    bitops::copy_words(
        std::span<std::uint64_t>(words_).first(rows * words_per_row_),
        std::span<const std::uint64_t>(src.words_).first(rows *
                                                         words_per_row_));
  }

  /// Total set bits across the whole matrix (bulk observer, not hot path).
  [[nodiscard]] std::size_t popcount_all() const noexcept {
    return bitops::popcount_words(std::span<const std::uint64_t>(words_));
  }

  /// Total set bits across `count` consecutive rows from `first_row` — one
  /// contiguous word-parallel popcount (rows are row-major and contiguous).
  [[nodiscard]] std::size_t popcount_rows(std::size_t first_row,
                                          std::size_t count) const noexcept {
    return bitops::popcount_words(
        std::span<const std::uint64_t>(words_).subspan(
            first_row * words_per_row_, count * words_per_row_));
  }

  /// One row's bit words (enumeration via bitops::for_each_set_bit).
  [[nodiscard]] std::span<const std::uint64_t> row_words(
      std::size_t row) const noexcept {
    return std::span<const std::uint64_t>(words_).subspan(
        row * words_per_row_, words_per_row_);
  }

  [[nodiscard]] std::size_t words_per_row() const noexcept {
    return words_per_row_;
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return words_.size() * sizeof(std::uint64_t);
  }

 private:
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rcp::core
