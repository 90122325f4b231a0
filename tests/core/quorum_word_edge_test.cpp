// Word-boundary edges of the quorum primitives: n one below, at, and one
// above the 64-bit word boundaries (one-word and eight-word rows). Every
// bulk operation in core/quorum.hpp works on whole row spans, so these
// sizes are exactly where a words-per-row or tail-handling bug would land.
// Also pins the layout guards: BitRows::copy_rows_from rejects mismatched
// geometry outright, and the lane allocator starts arrays on a cache line.
// Then VoteTally, the one vote counter on top of BitRows: one vote per
// sender per row, first-come lanes, overflow, reset and row-preserving
// growth.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
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

TEST(VoteTally, OneCountedVotePerSenderPerRow) {
  VoteTally<std::uint64_t> tally(3, 7, 2);
  const Vote first = tally.vote(1, 4, 9);
  EXPECT_EQ(first.status, VoteStatus::counted);
  EXPECT_EQ(first.count, 1u);
  // The same sender again, with the same or another value: a duplicate.
  EXPECT_EQ(tally.vote(1, 4, 9).status, VoteStatus::duplicate);
  EXPECT_EQ(tally.vote(1, 4, 5).status, VoteStatus::duplicate);
  EXPECT_EQ(tally.vote(1, 4, 5).count, 0u);
  EXPECT_EQ(tally.vote(1, 0, 9).count, 2u);
  EXPECT_EQ(tally.vote(1, 6, 5).count, 1u);
  EXPECT_EQ(tally.count(1, 9), 2u);
  EXPECT_EQ(tally.count(1, 5), 1u);
  EXPECT_EQ(tally.count(1, 7), 0u);
  EXPECT_TRUE(tally.voted(1, 4));
  EXPECT_FALSE(tally.voted(1, 3));
  // Rows are independent: the same sender votes afresh in row 0.
  EXPECT_FALSE(tally.voted(0, 4));
  EXPECT_EQ(tally.vote(0, 4, 5).count, 1u);
  EXPECT_EQ(tally.count(2, 9), 0u);
  EXPECT_EQ(tally.voted_total(), 4u);
}

TEST(VoteTally, OverflowGatesTheSenderWithoutCounting) {
  VoteTally<std::uint64_t> tally(1, 7, 2);
  EXPECT_EQ(tally.vote(0, 0, 10).count, 1u);
  EXPECT_EQ(tally.vote(0, 1, 20).count, 1u);
  const Vote third = tally.vote(0, 2, 30);  // both lanes are taken
  EXPECT_EQ(third.status, VoteStatus::overflow);
  EXPECT_EQ(third.count, 0u);
  EXPECT_EQ(tally.count(0, 30), 0u);
  EXPECT_TRUE(tally.voted(0, 2));
  EXPECT_EQ(tally.vote(0, 2, 10).status, VoteStatus::duplicate);
  // A value that owns a lane keeps counting.
  EXPECT_EQ(tally.vote(0, 3, 20).count, 2u);

  // Past the first two lanes: the third value claims lane 2, a fourth
  // overflows, and the third keeps counting.
  VoteTally<std::uint64_t> wide(1, 7, 3);
  for (const std::uint64_t value : {10u, 20u, 30u}) {
    EXPECT_EQ(wide.vote(0, static_cast<std::uint32_t>(value / 10), value).count,
              1u);
  }
  EXPECT_EQ(wide.vote(0, 4, 40).status, VoteStatus::overflow);
  EXPECT_EQ(wide.vote(0, 5, 30).count, 2u);
  EXPECT_EQ(wide.count(0, 30), 2u);
  EXPECT_EQ(wide.count(0, 40), 0u);
}

TEST(VoteTally, ResetRowsFreesGatesAndLanes) {
  VoteTally<Value> tally(4, 65, 2);
  for (std::uint32_t row = 0; row < 4; ++row) {
    EXPECT_EQ(tally.vote(row, 64, Value::one).count, 1u);
    EXPECT_EQ(tally.vote(row, 0, Value::zero).count, 1u);
  }
  tally.reset_rows(1, 2);
  for (const std::uint32_t row : {1u, 2u}) {
    EXPECT_FALSE(tally.voted(row, 64));
    EXPECT_EQ(tally.count(row, Value::one), 0u);
    // The freed lanes are claimed first-come again.
    EXPECT_EQ(tally.vote(row, 64, Value::zero).count, 1u);
    EXPECT_EQ(tally.count(row, Value::one), 0u);
  }
  for (const std::uint32_t row : {0u, 3u}) {
    EXPECT_TRUE(tally.voted(row, 64));
    EXPECT_EQ(tally.count(row, Value::one), 1u);
  }
}

TEST(VoteTally, GrowKeepsEveryRowAtWordBoundaries) {
  for (const std::uint32_t n : kBoundaryN) {
    VoteTally<std::uint64_t> tally(2, n, 3);
    (void)tally.vote(0, 0, 7);
    (void)tally.vote(0, n - 1, 7);
    (void)tally.vote(1, n / 2, 8);
    tally.grow(8);
    EXPECT_EQ(tally.rows(), 8u) << "n=" << n;
    EXPECT_EQ(tally.count(0, 7), 2u) << "n=" << n;
    EXPECT_EQ(tally.count(1, 8), 1u) << "n=" << n;
    EXPECT_TRUE(tally.voted(0, n - 1)) << "n=" << n;
    EXPECT_EQ(tally.vote(1, n / 2, 8).status, VoteStatus::duplicate)
        << "n=" << n;
    EXPECT_EQ(tally.voted_total(), 3u) << "n=" << n;
    EXPECT_EQ(tally.vote(7, n - 1, 9).count, 1u) << "n=" << n;
  }
}

TEST(VoteTally, RejectsVotersBeyondCountWidth) {
  // Counts are 16-bit: a population that could overflow them is refused
  // at construction, not corrupted at runtime.
  EXPECT_THROW(VoteTally<std::uint64_t>(1, 0x10000, 2), PreconditionError);
  EXPECT_THROW(VoteTally<std::uint64_t>(1, 0, 2), PreconditionError);
  EXPECT_THROW(VoteTally<std::uint64_t>(1, 7, 1), PreconditionError);
  const VoteTally<std::uint64_t> widest(1, VoteTally<std::uint64_t>::kMaxVoters,
                                        2);
  EXPECT_EQ(widest.rows(), 1u);
}

}  // namespace
}  // namespace rcp::core
