#include "core/params.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rcp::core {
namespace {

TEST(Params, MaxResilienceFormulas) {
  // floor((n-1)/2) for fail-stop, floor((n-1)/3) for malicious.
  EXPECT_EQ(max_resilience(FaultModel::fail_stop, 1), 0u);
  EXPECT_EQ(max_resilience(FaultModel::fail_stop, 2), 0u);
  EXPECT_EQ(max_resilience(FaultModel::fail_stop, 3), 1u);
  EXPECT_EQ(max_resilience(FaultModel::fail_stop, 7), 3u);
  EXPECT_EQ(max_resilience(FaultModel::fail_stop, 8), 3u);
  EXPECT_EQ(max_resilience(FaultModel::fail_stop, 9), 4u);

  EXPECT_EQ(max_resilience(FaultModel::malicious, 3), 0u);
  EXPECT_EQ(max_resilience(FaultModel::malicious, 4), 1u);
  EXPECT_EQ(max_resilience(FaultModel::malicious, 6), 1u);
  EXPECT_EQ(max_resilience(FaultModel::malicious, 7), 2u);
  EXPECT_EQ(max_resilience(FaultModel::malicious, 10), 3u);
}

TEST(Params, ValidateAcceptsBound) {
  for (std::uint32_t n = 1; n <= 30; ++n) {
    for (const auto model : {FaultModel::fail_stop, FaultModel::malicious}) {
      const std::uint32_t bound = max_resilience(model, n);
      EXPECT_NO_THROW((ConsensusParams{n, bound}.validate(model)));
      EXPECT_THROW((ConsensusParams{n, bound + 1}.validate(model)),
                   PreconditionError);
    }
  }
}

TEST(Params, ValidateRejectsEmptySystem) {
  EXPECT_THROW((ConsensusParams{0, 0}.validate(FaultModel::fail_stop)),
               PreconditionError);
}

TEST(Params, WaitQuorum) {
  EXPECT_EQ((ConsensusParams{7, 3}.wait_quorum()), 4u);
  EXPECT_EQ((ConsensusParams{10, 3}.wait_quorum()), 7u);
}

TEST(Params, WitnessCardinalityIsStrictMajority) {
  const ConsensusParams p{7, 3};
  // > n/2 = 3.5 means >= 4.
  EXPECT_FALSE(p.is_witness_cardinality(3));
  EXPECT_TRUE(p.is_witness_cardinality(4));
  const ConsensusParams even{8, 3};
  // > 4 means >= 5.
  EXPECT_FALSE(even.is_witness_cardinality(4));
  EXPECT_TRUE(even.is_witness_cardinality(5));
}

TEST(Params, WitnessesDecideAboveK) {
  const ConsensusParams p{9, 4};
  EXPECT_FALSE(p.witnesses_decide(4));
  EXPECT_TRUE(p.witnesses_decide(5));
}

TEST(Params, EchoAcceptanceThresholdIsSmallestStrictMajorityOfNPlusK) {
  // n + k odd: > (n+k)/2 real means >= (n+k+1)/2.
  const ConsensusParams odd{7, 2};  // n+k = 9 -> threshold 5
  EXPECT_EQ(odd.echo_acceptance_threshold(), 5u);
  // n + k even: > (n+k)/2 means >= (n+k)/2 + 1.
  const ConsensusParams even{8, 2};  // n+k = 10 -> threshold 6
  EXPECT_EQ(even.echo_acceptance_threshold(), 6u);
}

TEST(Params, EchoThresholdMatchesStrictComparison) {
  for (std::uint32_t n = 4; n <= 40; ++n) {
    for (std::uint32_t k = 0; k <= (n - 1) / 3; ++k) {
      const ConsensusParams p{n, k};
      const std::uint32_t t = p.echo_acceptance_threshold();
      // t is the smallest count with 2*count > n+k.
      EXPECT_GT(2 * t, n + k);
      EXPECT_LE(2 * (t - 1), n + k);
    }
  }
}

TEST(Params, AcceptedCountDecides) {
  const ConsensusParams p{7, 2};  // decide when 2*count > 9, i.e. count >= 5
  EXPECT_FALSE(p.accepted_count_decides(4));
  EXPECT_TRUE(p.accepted_count_decides(5));
}

// The counting facts the paper's thresholds rest on, in ConsensusParams'
// own terms. Quorums are sets of distinct processes; at most k are faulty.

/// Two sets of ⌊(n+k)/2⌋+1 processes out of n share at least 2q − n of
/// them, and that is at least k+1: one correct process is in both.
constexpr bool acceptance_quorums_share_k_plus_one(ConsensusParams p) {
  const std::uint64_t q = p.echo_acceptance_threshold();
  return 2 * q >= std::uint64_t{p.n} + p.k + 1;
}

/// Of t senders at most k are faulty, so t − k are correct: k+1 readies
/// include a correct sender, and 2k+1 include k+1 correct ones.
constexpr bool ready_thresholds_outnumber_the_faulty(ConsensusParams p) {
  return p.ready_amplification_threshold() >= p.k + 1 &&
         p.ready_delivery_threshold() >= 2 * p.k + 1;
}

/// Every threshold a correct process waits for is reachable by the n − k
/// correct processes alone: the k faulty ones may stay silent forever.
constexpr bool correct_processes_reach_every_threshold(ConsensusParams p) {
  return p.echo_acceptance_threshold() <= p.wait_quorum() &&
         p.ready_amplification_threshold() <= p.wait_quorum() &&
         p.ready_delivery_threshold() <= p.wait_quorum();
}

/// The three facts for every n in [first, last] and every k within the
/// bound ⌊(n−1)/3⌋.
constexpr bool threshold_facts_hold(std::uint32_t first, std::uint32_t last) {
  for (std::uint32_t n = first; n <= last; ++n) {
    for (std::uint32_t k = 0; k <= (n - 1) / 3; ++k) {
      const ConsensusParams p{n, k};
      if (!acceptance_quorums_share_k_plus_one(p) ||
          !ready_thresholds_outnumber_the_faulty(p) ||
          !correct_processes_reach_every_threshold(p)) {
        return false;
      }
    }
  }
  return true;
}
// Split so that each constant evaluation stays within the compiler's
// default operation budget.
static_assert(threshold_facts_hold(1, 500));
static_assert(threshold_facts_hold(501, 750));
static_assert(threshold_facts_hold(751, 900));
static_assert(threshold_facts_hold(901, 1001));

TEST(Params, CorrectProcessesCannotReachThresholdsPastTheBound) {
  // One past ⌊(n−1)/3⌋ the faulty processes can withhold a quorum: the
  // side of the bound where E7 exhibits Theorem 3.
  for (std::uint32_t n = 4; n <= 1001; ++n) {
    const ConsensusParams p{n, (n - 1) / 3 + 1};
    EXPECT_FALSE(correct_processes_reach_every_threshold(p))
        << "n=" << n << " k=" << p.k;
  }
}

TEST(Params, FaultModelNames) {
  EXPECT_STREQ(to_string(FaultModel::fail_stop), "fail-stop");
  EXPECT_STREQ(to_string(FaultModel::malicious), "malicious");
}

}  // namespace
}  // namespace rcp::core
