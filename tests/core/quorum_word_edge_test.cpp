// Word-boundary edges of the quorum primitives: n one below, at, and one
// above the 64-bit word boundaries (one-word and eight-word rows). Every
// bulk operation in core/quorum.hpp works on whole row spans, so these
// sizes are exactly where a words-per-row or tail-handling bug would land.
// Also pins the layout guards: BitRows::copy_rows_from rejects mismatched
// geometry outright, and the tally-lane allocator and padding keep lanes
// on whole cache lines.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "core/quorum.hpp"

namespace rcp::core {
namespace {

/// One below, at, and above the one-word and eight-word bit boundaries.
const std::vector<std::uint32_t> kBoundaryN = {63, 64, 65, 511, 512, 513};

/// Set bits of row `row` in a `bits`-wide matrix, counted bit by bit.
std::uint32_t row_count(const BitRows& rows, std::size_t row,
                        std::uint32_t bits) {
  std::uint32_t count = 0;
  for (std::uint32_t bit = 0; bit < bits; ++bit) {
    count += rows.test(row, bit) ? 1 : 0;
  }
  return count;
}

TEST(QuorumWordEdge, BitRowsRoundTripAtWordBoundaries) {
  for (const std::uint32_t n : kBoundaryN) {
    BitRows rows(3, n);
    // Fill row 1 completely; rows 0 and 2 stay empty.
    for (std::uint32_t bit = 0; bit < n; ++bit) {
      EXPECT_TRUE(rows.test_and_set(1, bit)) << "n=" << n << " bit=" << bit;
      EXPECT_FALSE(rows.test_and_set(1, bit)) << "n=" << n << " bit=" << bit;
    }
    EXPECT_EQ(rows.popcount_all(), n) << "n=" << n;
    EXPECT_EQ(row_count(rows, 0, n), 0u) << "n=" << n;
    EXPECT_EQ(row_count(rows, 1, n), n) << "n=" << n;
    EXPECT_EQ(row_count(rows, 2, n), 0u) << "n=" << n;
    // Neighbour isolation: the row fill must not bleed across the row
    // boundary words.
    EXPECT_FALSE(rows.test(0, n - 1)) << "n=" << n;
    EXPECT_FALSE(rows.test(2, 0)) << "n=" << n;
    // clear_rows reclaims exactly row 1.
    (void)rows.test_and_set(0, 0);
    (void)rows.test_and_set(2, n - 1);
    rows.clear_rows(1, 1);
    EXPECT_EQ(row_count(rows, 1, n), 0u) << "n=" << n;
    EXPECT_EQ(rows.popcount_all(), 2u) << "n=" << n;
    EXPECT_TRUE(rows.test(0, 0)) << "n=" << n;
    EXPECT_TRUE(rows.test(2, n - 1)) << "n=" << n;
  }
}

TEST(QuorumWordEdge, BitRowsCopyRoundTripsAcrossGrowth) {
  for (const std::uint32_t n : kBoundaryN) {
    BitRows src(2, n);
    (void)src.test_and_set(0, 0);
    (void)src.test_and_set(0, n - 1);
    (void)src.test_and_set(1, n / 2);
    BitRows bigger(4, n);
    bigger.copy_rows_from(src, 2);
    EXPECT_TRUE(bigger.test(0, 0)) << "n=" << n;
    EXPECT_TRUE(bigger.test(0, n - 1)) << "n=" << n;
    EXPECT_TRUE(bigger.test(1, n / 2)) << "n=" << n;
    EXPECT_EQ(bigger.popcount_all(), 3u) << "n=" << n;
    EXPECT_EQ(row_count(bigger, 2, n) + row_count(bigger, 3, n), 0u)
        << "n=" << n;
  }
}

TEST(QuorumWordEdge, CopyRowsFromRejectsMismatchedGeometry) {
  // 64 vs 65 bits: one word per row vs two — the exact layout mismatch the
  // guard exists to catch (it would scramble every row boundary).
  BitRows narrow(4, 64);
  BitRows wide(4, 65);
  EXPECT_THROW(wide.copy_rows_from(narrow, 4), PreconditionError);
  EXPECT_THROW(narrow.copy_rows_from(wide, 4), PreconditionError);
  // Same geometry, but more rows than either matrix holds.
  BitRows small(2, 64);
  BitRows big(8, 64);
  EXPECT_THROW(big.copy_rows_from(small, 4), PreconditionError);
  EXPECT_THROW(small.copy_rows_from(big, 4), PreconditionError);
  // In-bounds copies still pass.
  big.copy_rows_from(small, 2);
  small.copy_rows_from(big, 2);
}

TEST(QuorumWordEdge, AlignedVectorStartsOnCacheLine) {
  AlignedVector<std::uint32_t> lanes(1000, 0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lanes.data()) % kCacheLineBytes,
            0u);
  AlignedVector<std::uint64_t> words(100, 0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words.data()) % kCacheLineBytes,
            0u);
}

TEST(QuorumWordEdge, PaddedToCacheLineRoundsUpToWholeLines) {
  EXPECT_EQ(padded_to_cache_line<std::uint32_t>(1), 16u);
  EXPECT_EQ(padded_to_cache_line<std::uint32_t>(16), 16u);
  EXPECT_EQ(padded_to_cache_line<std::uint32_t>(17), 32u);
  EXPECT_EQ(padded_to_cache_line<std::uint32_t>(301), 304u);
  EXPECT_EQ(padded_to_cache_line<std::uint64_t>(9), 16u);
}

}  // namespace
}  // namespace rcp::core
