// The adaptive retransmit timeout (RFC 6298 shape): SRTT/RTTVAR seeding
// and convergence, Karn's exclusion of retransmitted frames, exponential
// backoff, and the receiver-side spurious-retransmit classification.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>

#include "net/peer.hpp"

namespace rcp::net {
namespace {

using std::chrono::milliseconds;

constexpr std::size_t kNoBound = 1 << 20;

// Clock::time_point{} means "no measurement" to on_ack, so anchor the
// synthetic timeline an hour past the epoch.
Clock::time_point base() {
  return Clock::time_point{} + std::chrono::hours(1);
}

Bytes one_byte(std::uint32_t i) {
  Bytes b;
  b.push_back(static_cast<std::byte>(i & 0xff));
  return b;
}

PeerLink adaptive_link() {
  PeerLink link;
  link.init(1, {}, false);
  link.configure_rto(/*initial_ms=*/100);  // bounds: kRtoMinMs, kRtoMaxMs
  return link;
}

/// Enqueues one frame at `at`, transmits it, and acks it `rtt` later.
void pump_sample(PeerLink& link, std::uint32_t i, Clock::time_point at,
                 milliseconds rtt) {
  ASSERT_TRUE(link.enqueue(one_byte(i), at, kNoBound, at));
  link.advance_unsent();
  link.on_ack(/*acked=*/i, at + rtt);
}

TEST(AdaptiveRto, InitialTimeoutAppliesUntilTheFirstSample) {
  PeerLink link = adaptive_link();
  EXPECT_FALSE(link.has_rtt_sample());
  EXPECT_EQ(link.rto_ms(), 100u);
}

TEST(AdaptiveRto, FirstSampleSeedsSrttAndRttvar) {
  PeerLink link = adaptive_link();
  pump_sample(link, 1, base(), milliseconds(40));
  ASSERT_TRUE(link.has_rtt_sample());
  // RFC 6298 seeding: srtt = S, rttvar = S/2, rto = srtt + 4*rttvar.
  EXPECT_NEAR(link.srtt_ms(), 40.0, 0.5);
  EXPECT_NEAR(link.rttvar_ms(), 20.0, 0.5);
  EXPECT_EQ(link.rto_ms(), 120u);
}

TEST(AdaptiveRto, SteadySamplesConvergeAndClampToTheFloor) {
  PeerLink link = adaptive_link();
  Clock::time_point at = base();
  for (std::uint32_t i = 1; i <= 64; ++i) {
    pump_sample(link, i, at, milliseconds(2));
    at += milliseconds(10);
  }
  // srtt -> 2ms, rttvar -> 0, so srtt + max(1, 4*rttvar) ~ 3ms clamps to
  // the 20ms floor — the RTO never chases a fast link below the minimum.
  EXPECT_NEAR(link.srtt_ms(), 2.0, 0.5);
  EXPECT_EQ(link.rto_ms(), 20u);
}

TEST(AdaptiveRto, SlowSamplesClampToTheCeiling) {
  PeerLink link = adaptive_link();
  pump_sample(link, 1, base(), milliseconds(10'000));
  EXPECT_EQ(link.rto_ms(), 2000u);
}

TEST(AdaptiveRto, KarnExcludesRetransmittedFrames) {
  PeerLink link = adaptive_link();
  const Clock::time_point at = base();
  ASSERT_TRUE(link.enqueue(one_byte(1), at, kNoBound, at));
  ASSERT_TRUE(link.enqueue(one_byte(2), at, kNoBound, at));
  link.advance_unsent();
  link.advance_unsent();
  // Both frames go back for retransmission; their eventual acks are
  // ambiguous (old or new transmission?) and must not feed the estimator.
  link.rewind_unsent();
  EXPECT_EQ(link.counters.retransmits, 2u);
  link.on_ack(2, at + milliseconds(500));
  EXPECT_FALSE(link.has_rtt_sample());
  EXPECT_EQ(link.rto_ms(), 100u);
  // The next fresh frame samples normally again.
  pump_sample(link, 3, at + milliseconds(600), milliseconds(40));
  EXPECT_TRUE(link.has_rtt_sample());
}

TEST(AdaptiveRto, BackoffDoublesUpToTheCap) {
  PeerLink link = adaptive_link();
  pump_sample(link, 1, base(), milliseconds(40));
  ASSERT_EQ(link.rto_ms(), 120u);
  link.backoff_rto();
  EXPECT_EQ(link.rto_ms(), 240u);
  link.backoff_rto();
  EXPECT_EQ(link.rto_ms(), 480u);
  for (int i = 0; i < 8; ++i) {
    link.backoff_rto();
  }
  EXPECT_EQ(link.rto_ms(), 2000u);
  // A fresh sample re-derives the RTO from srtt/rttvar.
  pump_sample(link, 2, base() + milliseconds(100), milliseconds(40));
  EXPECT_LT(link.rto_ms(), 2000u);
}

TEST(AdaptiveRto, BackoffBeforeAnySampleIsANoOp) {
  PeerLink link = adaptive_link();
  link.backoff_rto();
  EXPECT_EQ(link.rto_ms(), 100u);
}

// ---- Receiver-side spurious-retransmit classification ------------------

TEST(SpuriousRetransmits, DuplicateWithoutLossContextIsSpurious) {
  PeerLink link = adaptive_link();
  EXPECT_EQ(link.classify_and_advance(1), 0);
  EXPECT_EQ(link.classify_and_advance(2), 0);
  // No gap was ever observed and no reconnect happened: the sender's
  // timer simply fired while our ack was in flight.
  EXPECT_EQ(link.classify_and_advance(1), -1);
  EXPECT_EQ(link.counters.dup_frames, 1u);
  EXPECT_EQ(link.counters.spurious_retransmits, 1u);
}

TEST(SpuriousRetransmits, DuplicatesDuringGapRecoveryAreNecessary) {
  PeerLink link = adaptive_link();
  EXPECT_EQ(link.classify_and_advance(1), 0);
  // Frame 2 was lost; 3 arrives ahead of stream.
  EXPECT_EQ(link.classify_and_advance(3), 1);
  // The rewind replays 1 before filling the gap — not spurious.
  EXPECT_EQ(link.classify_and_advance(1), -1);
  EXPECT_EQ(link.counters.spurious_retransmits, 0u);
  // In-order delivery resumes and closes the loss episode.
  EXPECT_EQ(link.classify_and_advance(2), 0);
  EXPECT_EQ(link.classify_and_advance(3), 0);
  // A later duplicate with no fresh gap is spurious again.
  EXPECT_EQ(link.classify_and_advance(3), -1);
  EXPECT_EQ(link.counters.spurious_retransmits, 1u);
}

TEST(SpuriousRetransmits, ReconnectRewindDuplicatesAreExpected) {
  PeerLink link = adaptive_link();
  EXPECT_EQ(link.classify_and_advance(1), 0);
  EXPECT_EQ(link.classify_and_advance(2), 0);
  // After a reconnect the sender must rewind to its first unacked frame;
  // replayed seqs are the protocol working as designed.
  link.expect_rewind_dups();
  EXPECT_EQ(link.classify_and_advance(1), -1);
  EXPECT_EQ(link.classify_and_advance(2), -1);
  EXPECT_EQ(link.counters.spurious_retransmits, 0u);
  // The first in-order delivery ends the grace window.
  EXPECT_EQ(link.classify_and_advance(3), 0);
  EXPECT_EQ(link.classify_and_advance(3), -1);
  EXPECT_EQ(link.counters.spurious_retransmits, 1u);
}

}  // namespace
}  // namespace rcp::net
