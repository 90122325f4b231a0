#include "extensions/rb_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace rcp::ext {
namespace {

// n = 7, k = 2: echo threshold 5, ready amplify 3, deliver 5.
constexpr core::ConsensusParams kParams{7, 2};

RbxMsg initial(ProcessId origin, std::uint64_t tag, RbValue v) {
  return RbxMsg{.kind = RbxMsg::Kind::initial, .origin = origin, .tag = tag,
                .value = v};
}

RbxMsg echo(ProcessId origin, std::uint64_t tag, RbValue v) {
  return RbxMsg{.kind = RbxMsg::Kind::echo, .origin = origin, .tag = tag,
                .value = v};
}

RbxMsg ready(ProcessId origin, std::uint64_t tag, RbValue v) {
  return RbxMsg{.kind = RbxMsg::Kind::ready, .origin = origin, .tag = tag,
                .value = v};
}

TEST(RbxMsg, RoundTrip) {
  const RbxMsg msg = ready(3, 77, kRbValueBottom);
  const RbxMsg back = RbxMsg::decode(msg.encode());
  EXPECT_EQ(back.kind, RbxMsg::Kind::ready);
  EXPECT_EQ(back.origin, 3u);
  EXPECT_EQ(back.tag, 77u);
  EXPECT_EQ(back.value, kRbValueBottom);
}

TEST(RbxMsg, RejectsBadValue) {
  Bytes buf = initial(0, 0, 0).encode();
  buf.back() = std::byte{kMaxRbValue + 1};
  EXPECT_THROW((void)RbxMsg::decode(buf), DecodeError);
  EXPECT_THROW((void)RbxMsg::decode(Bytes{std::byte{9}}), DecodeError);
}

TEST(RbEngine, InitialFromOriginProducesEcho) {
  RbEngine e(kParams);
  const auto out = e.handle(4, initial(4, 9, kRbValueOne));
  ASSERT_EQ(out.to_broadcast.size(), 1u);
  EXPECT_EQ(out.to_broadcast[0].kind, RbxMsg::Kind::echo);
  EXPECT_EQ(out.to_broadcast[0].origin, 4u);
  EXPECT_EQ(out.to_broadcast[0].tag, 9u);
  EXPECT_EQ(out.to_broadcast[0].value, kRbValueOne);
}

TEST(RbEngine, ForgedInitialIgnored) {
  RbEngine e(kParams);
  const auto out = e.handle(5, initial(4, 9, kRbValueOne));
  EXPECT_TRUE(out.to_broadcast.empty());
}

TEST(RbEngine, SecondInitialIgnoredEvenWithNewValue) {
  RbEngine e(kParams);
  (void)e.handle(4, initial(4, 9, kRbValueOne));
  const auto out = e.handle(4, initial(4, 9, kRbValueZero));
  EXPECT_TRUE(out.to_broadcast.empty());
}

TEST(RbEngine, EchoQuorumTriggersSingleReady) {
  RbEngine e(kParams);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(e.handle(p, echo(6, 1, kRbValueOne)).to_broadcast.empty());
  }
  const auto out = e.handle(4, echo(6, 1, kRbValueOne));
  ASSERT_EQ(out.to_broadcast.size(), 1u);
  EXPECT_EQ(out.to_broadcast[0].kind, RbxMsg::Kind::ready);
  // Further echoes do not repeat the READY.
  EXPECT_TRUE(e.handle(5, echo(6, 1, kRbValueOne)).to_broadcast.empty());
}

TEST(RbEngine, EchoDedupPerSender) {
  RbEngine e(kParams);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(e.handle(0, echo(6, 1, kRbValueOne)).to_broadcast.empty());
  }
  EXPECT_FALSE(e.delivered(6, 1).has_value());
}

TEST(RbEngine, ReadyAmplificationAtKPlusOne) {
  RbEngine e(kParams);
  (void)e.handle(0, ready(6, 2, kRbValueZero));
  (void)e.handle(1, ready(6, 2, kRbValueZero));
  const auto out = e.handle(2, ready(6, 2, kRbValueZero));
  ASSERT_EQ(out.to_broadcast.size(), 1u);
  EXPECT_EQ(out.to_broadcast[0].kind, RbxMsg::Kind::ready);
}

TEST(RbEngine, DeliveryAtTwoKPlusOne) {
  RbEngine e(kParams);
  std::optional<RbEngine::Delivery> delivered;
  for (ProcessId p = 0; p < 5; ++p) {
    auto out = e.handle(p, ready(6, 3, kRbValueOne));
    if (out.delivered.has_value()) {
      delivered = out.delivered;
    }
  }
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->origin, 6u);
  EXPECT_EQ(delivered->tag, 3u);
  EXPECT_EQ(delivered->value, kRbValueOne);
  EXPECT_EQ(e.delivered(6, 3), kRbValueOne);
  // Delivery is one-shot.
  EXPECT_FALSE(e.handle(5, ready(6, 3, kRbValueOne)).delivered.has_value());
}

TEST(RbEngine, InstancesAreIndependent) {
  RbEngine e(kParams);
  for (ProcessId p = 0; p < 5; ++p) {
    (void)e.handle(p, ready(6, 3, kRbValueOne));
  }
  EXPECT_TRUE(e.delivered(6, 3).has_value());
  EXPECT_FALSE(e.delivered(6, 4).has_value());
  EXPECT_FALSE(e.delivered(5, 3).has_value());
  EXPECT_EQ(e.instance_count(), 1u);
}

TEST(RbEngine, SplitEchoesBlockReady) {
  // 7 echoers split 4/3 cannot reach the threshold 5 for either value.
  RbEngine e(kParams);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(e.handle(p, echo(6, 0, kRbValueZero)).to_broadcast.empty());
  }
  for (ProcessId p = 4; p < 7; ++p) {
    EXPECT_TRUE(e.handle(p, echo(6, 0, kRbValueOne)).to_broadcast.empty());
  }
}

TEST(RbEngine, BottomValueFlowsThrough) {
  RbEngine e(kParams);
  for (ProcessId p = 0; p < 5; ++p) {
    (void)e.handle(p, ready(2, 5, kRbValueBottom));
  }
  EXPECT_EQ(e.delivered(2, 5), kRbValueBottom);
}

TEST(RbEngine, DropsOriginOutsideProcessSpace) {
  // A Byzantine frame can claim any origin; one at or past n must be
  // counted and dropped before it can occupy a slot.
  RbEngine e(kParams);
  EXPECT_TRUE(e.handle(0, echo(7, 1, kRbValueOne)).to_broadcast.empty());
  EXPECT_TRUE(e.handle(0, echo(9999, 1, kRbValueOne)).to_broadcast.empty());
  EXPECT_EQ(e.instance_count(), 0u);
  EXPECT_EQ(e.stats().dropped_origin_range, 2u);
}

TEST(RbEngine, DropsValueAboveEngineBound) {
  RbEngine e(kParams);  // default bound: kMaxRbValue
  EXPECT_TRUE(
      e.handle(0, echo(6, 1, kMaxRbValue + 1)).to_broadcast.empty());
  EXPECT_EQ(e.stats().dropped_value_range, 1u);
  EXPECT_EQ(e.instance_count(), 0u);
}

TEST(RbEngine, WideValuesDeliverUnderRelaxedBound) {
  // The KV service packs (key, value) into the full 64-bit word.
  RbEngine e(kParams, 0, kRbValueAny);
  const RbValue word = 0xfeedface'12345678ULL;
  std::optional<RbEngine::Delivery> delivered;
  for (ProcessId p = 0; p < 5; ++p) {
    auto out = e.handle(p, ready(6, 3, word));
    if (out.delivered.has_value()) {
      delivered = out.delivered;
    }
  }
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->value, word);
}

TEST(RbEngine, RetireFreesSlotAndDropsStragglers) {
  RbEngine e(kParams);
  for (ProcessId p = 0; p < 5; ++p) {
    (void)e.handle(p, ready(6, 3, kRbValueOne));
  }
  EXPECT_EQ(e.instance_count(), 1u);
  e.retire_through(6, 3);
  EXPECT_EQ(e.instance_count(), 0u);
  // A late READY for the retired tag must not resurrect the instance.
  EXPECT_TRUE(e.handle(5, ready(6, 3, kRbValueOne)).to_broadcast.empty());
  EXPECT_EQ(e.instance_count(), 0u);
  EXPECT_EQ(e.stats().dropped_retired, 1u);
  // The cursor is per-origin: tags below it drop, the next tag is live.
  EXPECT_TRUE(e.handle(0, echo(6, 2, kRbValueOne)).to_broadcast.empty());
  EXPECT_EQ(e.stats().dropped_retired, 2u);
  (void)e.handle(0, echo(6, 4, kRbValueOne));
  EXPECT_EQ(e.instance_count(), 1u);
  // ... and other origins are unaffected.
  (void)e.handle(0, echo(5, 3, kRbValueOne));
  EXPECT_EQ(e.instance_count(), 2u);
}

TEST(RbEngine, RetireCursorIsMonotone) {
  RbEngine e(kParams);
  e.retire_through(6, 10);
  e.retire_through(6, 4);  // out-of-order retire must not move it back
  EXPECT_TRUE(e.handle(0, echo(6, 9, kRbValueOne)).to_broadcast.empty());
  EXPECT_EQ(e.stats().dropped_retired, 1u);
}

TEST(RbEngine, EquivocatingSenderGetsOneCountedEcho) {
  // A single Byzantine peer spraying distinct values cannot claim one
  // lane per value: only its first echo counts, the rest drop as sender
  // duplicates and no further lane fills.
  RbEngine e(kParams, 0, kRbValueAny);
  for (RbValue v = 0; v < 10; ++v) {
    EXPECT_TRUE(e.handle(0, echo(6, 1, 100 + v)).to_broadcast.empty());
  }
  EXPECT_EQ(e.stats().dropped_sender_dup, 9u);
  EXPECT_EQ(e.stats().dropped_slot_overflow, 0u);
  // The real value still has a lane and reaches its quorum from the other
  // senders: 1..5 bring it to five echoes, the fifth triggers the READY.
  for (ProcessId p = 1; p < 5; ++p) {
    EXPECT_TRUE(e.handle(p, echo(6, 1, 777)).to_broadcast.empty());
  }
  const auto out = e.handle(5, echo(6, 1, 777));
  ASSERT_EQ(out.to_broadcast.size(), 1u);
  EXPECT_EQ(out.to_broadcast[0].kind, RbxMsg::Kind::ready);
  EXPECT_EQ(out.to_broadcast[0].value, 777u);
}

TEST(RbEngine, ReadySenderCountsOnce) {
  RbEngine e(kParams, 0, kRbValueAny);
  // Sender 0 readies garbage first; its later ready for the real value is
  // a sender duplicate and must not count toward delivery.
  (void)e.handle(0, ready(6, 1, 500));
  (void)e.handle(0, ready(6, 1, 900));
  EXPECT_EQ(e.stats().dropped_sender_dup, 1u);
  for (ProcessId p = 1; p < 5; ++p) {
    EXPECT_FALSE(e.handle(p, ready(6, 1, 900)).delivered.has_value());
  }
  // The fifth *distinct* counted ready delivers.
  EXPECT_TRUE(e.handle(5, ready(6, 1, 900)).delivered.has_value());
}

TEST(RbEngine, FaultBudgetOfLaneJammersCannotBlockDelivery) {
  // k = 2 jammers each burn one echo lane and one ready lane with garbage
  // before any real traffic; lanes are k + 2 per kind, so the real value
  // always finds one and the instance still delivers (validity).
  RbEngine e(kParams, 0, kRbValueAny);
  EXPECT_EQ(e.lane_count(), 4u);
  for (ProcessId byz = 5; byz < 7; ++byz) {
    EXPECT_TRUE(e.handle(byz, echo(6, 1, 0xAA00u + byz)).to_broadcast.empty());
    EXPECT_TRUE(e.handle(byz, ready(6, 1, 0xBB00u + byz)).to_broadcast.empty());
  }
  EXPECT_EQ(e.stats().dropped_slot_overflow, 0u);
  const RbValue real = 42;
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(e.handle(p, echo(6, 1, real)).to_broadcast.empty());
  }
  ASSERT_EQ(e.handle(4, echo(6, 1, real)).to_broadcast.size(), 1u);
  std::optional<RbEngine::Delivery> delivered;
  for (ProcessId p = 0; p < 5; ++p) {
    auto out = e.handle(p, ready(6, 1, real));
    if (out.delivered.has_value()) {
      delivered = out.delivered;
    }
  }
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->value, real);
}

TEST(RbEngine, LaneOverflowBeyondFaultBudgetIsCountedNotFatal) {
  // Five distinct senders bringing five distinct values exceed the
  // k + 2 = 4 lanes — outside the fault budget; the overflowing value
  // drops and is counted, earlier lanes still tally.
  RbEngine e(kParams, 0, kRbValueAny);
  for (ProcessId p = 0; p < 4; ++p) {
    (void)e.handle(p, echo(6, 1, 100 + p));
  }
  EXPECT_EQ(e.stats().dropped_slot_overflow, 0u);
  (void)e.handle(4, echo(6, 1, 999));
  EXPECT_EQ(e.stats().dropped_slot_overflow, 1u);
}

TEST(RbEngine, PerOriginLiveCapStopsPhantomFloods) {
  // One Byzantine sender sprays fresh future tags for a correct origin;
  // with the cap armed, allocation stops at the cap instead of doubling
  // the pool forever.
  RbEngine e(kParams, /*capacity_hint=*/64, kRbValueAny,
             /*max_live_per_origin=*/8);
  for (std::uint64_t t = 0; t < 1000; ++t) {
    (void)e.handle(0, echo(6, t, 1));
  }
  EXPECT_EQ(e.instance_count(), 8u);
  EXPECT_EQ(e.stats().dropped_origin_flood, 992u);
  EXPECT_EQ(e.stats().grows, 0u);
  // In-cap instances still work, and retiring one frees room under the cap.
  for (ProcessId p = 0; p < 5; ++p) {
    (void)e.handle(p, ready(6, 3, 7));
  }
  EXPECT_EQ(e.delivered(6, 3), RbValue{7});
  e.retire_through(6, 3);
  (void)e.handle(0, echo(6, 500, 1));
  EXPECT_EQ(e.instance_count(), 8u);
  EXPECT_EQ(e.stats().dropped_origin_flood, 992u);
}

TEST(RbEngine, AnchoredInitialEvictsPhantomsAtCap) {
  // Phantom spray fills the origin's cap; the origin's own initial for a
  // fresh tag must still get a slot — it evicts an undelivered phantom
  // rather than being refused, so a flood can never wall a correct origin
  // out of its own seq space.
  RbEngine e(kParams, /*capacity_hint=*/64, kRbValueAny,
             /*max_live_per_origin=*/8);
  for (std::uint64_t t = 100; t < 200; ++t) {
    (void)e.handle(0, echo(6, t, 1));
  }
  EXPECT_EQ(e.instance_count(), 8u);
  const auto out = e.handle(6, initial(6, 5, 42));
  ASSERT_EQ(out.to_broadcast.size(), 1u);
  EXPECT_EQ(out.to_broadcast[0].kind, RbxMsg::Kind::echo);
  EXPECT_EQ(e.stats().evicted_unanchored, 1u);
  EXPECT_EQ(e.instance_count(), 8u);
  std::optional<RbEngine::Delivery> delivered;
  for (ProcessId p = 0; p < 5; ++p) {
    auto r = e.handle(p, ready(6, 5, 42));
    if (r.delivered.has_value()) {
      delivered = r.delivered;
    }
  }
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->value, 42u);
}

TEST(RbEngine, ForgedInitialNeitherAnchorsNorEvicts) {
  // A Byzantine peer forging initials for someone else's stream gets the
  // same treatment as any echo spray: phantom-candidate slots under the
  // sub-cap, never an eviction.
  RbEngine e(kParams, /*capacity_hint=*/64, kRbValueAny,
             /*max_live_per_origin=*/8);
  for (std::uint64_t t = 0; t < 8; ++t) {
    (void)e.handle(0, echo(6, t, 1));
  }
  const auto out = e.handle(5, initial(6, 5000, 1));
  EXPECT_TRUE(out.to_broadcast.empty());
  EXPECT_EQ(e.stats().dropped_origin_flood, 1u);
  EXPECT_EQ(e.stats().evicted_unanchored, 0u);
}

TEST(RbEngine, InitialPromotesEarlyEchoInstance) {
  // Echoes racing ahead of the origin's initial create an unanchored
  // instance; the initial promotes it in place (tallies intact), freeing
  // unanchored budget for further early traffic.
  RbEngine e(kParams, /*capacity_hint=*/64, kRbValueAny,
             /*max_live_per_origin=*/32);  // unanchored sub-cap: 8
  for (std::uint64_t t = 0; t < 8; ++t) {
    (void)e.handle(0, echo(6, t, 1));
  }
  (void)e.handle(0, echo(6, 8, 1));
  EXPECT_EQ(e.stats().dropped_origin_flood, 1u);  // sub-cap full
  ASSERT_EQ(e.handle(6, initial(6, 3, 1)).to_broadcast.size(), 1u);
  // Tag 3 is anchored now; the freed unanchored budget admits a new tag...
  (void)e.handle(0, echo(6, 900, 1));
  EXPECT_EQ(e.instance_count(), 9u);
  EXPECT_EQ(e.stats().dropped_origin_flood, 1u);
  // ...and the promoted instance kept its earlier echo tally: sender 0's
  // echo for tag 3 still counts, so four more echoes reach the quorum.
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_TRUE(e.handle(p, echo(6, 3, 1)).to_broadcast.empty());
  }
  ASSERT_EQ(e.handle(4, echo(6, 3, 1)).to_broadcast.size(), 1u);
}

TEST(RbEngine, RejectsNBeyondTallyWidth) {
  // echo/ready tallies are 16-bit; an n that could overflow them must be
  // rejected at construction, not corrupt quorums at runtime.
  EXPECT_THROW(RbEngine(core::ConsensusParams{70000, 2}), PreconditionError);
}

TEST(RbEngine, GrowsPastInitialCapacityAndKeepsState) {
  // Open far more concurrent instances than the initial pool and finish
  // them all afterwards: the doubling rehash must preserve every tally.
  RbEngine e(kParams, 8);
  const std::uint32_t total = 4 * e.capacity();
  for (std::uint64_t tag = 0; tag < total; ++tag) {
    for (ProcessId p = 0; p < 4; ++p) {  // one short of the ready quorum
      (void)e.handle(p, ready(6, tag, kRbValueOne));
    }
  }
  EXPECT_EQ(e.instance_count(), total);
  EXPECT_GE(e.stats().grows, 1u);
  for (std::uint64_t tag = 0; tag < total; ++tag) {
    const auto out = e.handle(4, ready(6, tag, kRbValueOne));
    ASSERT_TRUE(out.delivered.has_value()) << "tag " << tag;
    EXPECT_EQ(out.delivered->tag, tag);
  }
}

TEST(RbEngine, SlotReuseAfterRetireDoesNotLeakTallies) {
  RbEngine e(kParams);
  // Two echoes toward (6, 1), then retire it; the slot returns to the
  // free list and must come back blank for the next instance.
  (void)e.handle(0, echo(6, 1, kRbValueOne));
  (void)e.handle(1, echo(6, 1, kRbValueOne));
  e.retire_through(6, 1);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(e.handle(p, echo(5, 9, kRbValueOne)).to_broadcast.empty());
  }
  const auto out = e.handle(4, echo(5, 9, kRbValueOne));
  ASSERT_EQ(out.to_broadcast.size(), 1u);  // exactly at the echo threshold
}

// ---- Body instances --------------------------------------------------

/// A one-byte-per-call body store: every body a test hands the engine.
std::vector<std::byte> body_of(std::initializer_list<int> bytes) {
  std::vector<std::byte> out;
  for (const int b : bytes) {
    out.push_back(static_cast<std::byte>(b));
  }
  return out;
}

RbxBodyMsg body_msg(RbxMsg::Kind kind, ProcessId origin, std::uint64_t tag,
                    std::span<const std::byte> body) {
  return RbxBodyMsg{.kind = kind, .origin = origin, .tag = tag, .body = body};
}

TEST(RbEngine, BodyInstanceDeliversItsBytes) {
  RbEngine e(kParams);
  const std::vector<std::byte> block = body_of({1, 2, 3, 4, 5, 6, 7, 8});
  const auto init = e.handle(6, body_msg(RbxMsg::Kind::initial, 6, 9, block));
  ASSERT_EQ(init.to_broadcast.size(), 1u);
  EXPECT_EQ(init.to_broadcast[0].kind, RbxMsg::Kind::echo);
  EXPECT_TRUE(std::ranges::equal(init.body, block));
  for (ProcessId p = 0; p < kParams.n; ++p) {
    // Equal bytes from another buffer intern to the same body.
    const std::vector<std::byte> copy = block;
    (void)e.handle(p, body_msg(RbxMsg::Kind::echo, 6, 9, copy));
  }
  std::optional<RbEngine::Delivery> delivered;
  for (ProcessId p = 0; p < kParams.n && !delivered; ++p) {
    const auto out = e.handle(p, body_msg(RbxMsg::Kind::ready, 6, 9, block));
    if (out.delivered.has_value()) {
      delivered = out.delivered;
      EXPECT_TRUE(std::ranges::equal(out.body, block));
    }
  }
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(e.body_count(6, 9), 1u);
  const auto stored = e.delivered_body(6, 9);
  ASSERT_TRUE(stored.has_value());
  EXPECT_TRUE(std::ranges::equal(*stored, block));
  EXPECT_FALSE(e.delivered_body(6, 10).has_value());
  e.retire_through(6, 9);
  EXPECT_EQ(e.body_count(6, 9), 0u);
  EXPECT_EQ(e.instance_count(), 0u);
}

TEST(RbEngine, BodyInstanceInternsAtMostOnePlusTwoLanes) {
  // Every sender — far past the fault budget — votes a body of its own in
  // both stages, then repeats with yet other bodies, and the origin sends
  // its initial with another. Only counted votes naming a new value store
  // a body: the initial and lane_count() new values per stage.
  RbEngine e(kParams);
  std::vector<std::vector<std::byte>> bodies;
  for (int i = 0; i < 64; ++i) {
    bodies.push_back(body_of({i, i + 1, i + 2}));
  }
  std::size_t next = 0;
  (void)e.handle(0, body_msg(RbxMsg::Kind::initial, 0, 0, bodies[next++]));
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (ProcessId p = 0; p < kParams.n; ++p) {
      (void)e.handle(p, body_msg(RbxMsg::Kind::echo, 0, 0, bodies[next++]));
      (void)e.handle(p, body_msg(RbxMsg::Kind::ready, 0, 0, bodies[next++]));
    }
  }
  EXPECT_EQ(e.body_count(0, 0), 1 + 2 * e.lane_count());
  EXPECT_GT(e.stats().dropped_slot_overflow, 0u);
  EXPECT_GT(e.stats().dropped_sender_dup, 0u);
}

TEST(RbEngine, ForgedAndRepeatedBodyVotesStoreNothing) {
  RbEngine e(kParams);
  const std::vector<std::byte> a = body_of({1});
  const std::vector<std::byte> b = body_of({2});
  (void)e.handle(1, body_msg(RbxMsg::Kind::initial, 0, 0, a));  // forged
  EXPECT_EQ(e.body_count(0, 0), 0u);
  (void)e.handle(1, body_msg(RbxMsg::Kind::echo, 0, 0, a));
  (void)e.handle(1, body_msg(RbxMsg::Kind::echo, 0, 0, b));  // repeat vote
  EXPECT_EQ(e.body_count(0, 0), 1u);
  (void)e.handle(0, body_msg(RbxMsg::Kind::initial, 0, 0, a));
  (void)e.handle(0, body_msg(RbxMsg::Kind::initial, 0, 0, b));  // second
  EXPECT_EQ(e.body_count(0, 0), 1u);
}

}  // namespace
}  // namespace rcp::ext
