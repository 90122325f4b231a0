#include "core/echo_engine.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace rcp::core {
namespace {

// n = 7, k = 2: echo acceptance threshold = floor((7+2)/2) + 1 = 5.
constexpr ConsensusParams kParams{7, 2};

EchoProtocolMsg initial(ProcessId from, Value v, Phase t) {
  return EchoProtocolMsg{.is_echo = false, .from = from, .value = v, .phase = t};
}

EchoProtocolMsg echo(ProcessId origin, Value v, Phase t) {
  return EchoProtocolMsg{.is_echo = true, .from = origin, .value = v, .phase = t};
}

TEST(EchoEngine, FreshInitialProducesEcho) {
  EchoEngine e(kParams);
  const auto out = e.handle(/*sender=*/3, initial(3, Value::one, 0));
  ASSERT_TRUE(out.echo_to_broadcast.has_value());
  EXPECT_TRUE(out.echo_to_broadcast->is_echo);
  EXPECT_EQ(out.echo_to_broadcast->from, 3u);
  EXPECT_EQ(out.echo_to_broadcast->value, Value::one);
  EXPECT_EQ(out.echo_to_broadcast->phase, 0u);
  EXPECT_FALSE(out.accepted.has_value());
}

TEST(EchoEngine, ForgedInitialDropped) {
  EchoEngine e(kParams);
  // Sender 4 claims to be process 3: authenticated identities reject it.
  const auto out = e.handle(/*sender=*/4, initial(3, Value::one, 0));
  EXPECT_FALSE(out.echo_to_broadcast.has_value());
  EXPECT_FALSE(out.accepted.has_value());
}

TEST(EchoEngine, DuplicateInitialEchoedOnce) {
  EchoEngine e(kParams);
  EXPECT_TRUE(e.handle(3, initial(3, Value::one, 0))
                  .echo_to_broadcast.has_value());
  EXPECT_FALSE(e.handle(3, initial(3, Value::one, 0))
                   .echo_to_broadcast.has_value());
  // Same origin, later phase: fresh again.
  EXPECT_TRUE(e.handle(3, initial(3, Value::zero, 1))
                  .echo_to_broadcast.has_value());
}

TEST(EchoEngine, DuplicateInitialWithDifferentValueStillDropped) {
  EchoEngine e(kParams);
  (void)e.handle(3, initial(3, Value::one, 0));
  // An equivocating origin cannot get a second echo for the same phase.
  EXPECT_FALSE(e.handle(3, initial(3, Value::zero, 0))
                   .echo_to_broadcast.has_value());
}

TEST(EchoEngine, AcceptanceAtExactThresholdOnce) {
  EchoEngine e(kParams);
  for (ProcessId echoer = 0; echoer < 4; ++echoer) {
    const auto out = e.handle(echoer, echo(6, Value::one, 0));
    EXPECT_FALSE(out.accepted.has_value()) << "echo " << echoer;
  }
  const auto fifth = e.handle(4, echo(6, Value::one, 0));
  ASSERT_TRUE(fifth.accepted.has_value());
  EXPECT_EQ(fifth.accepted->origin, 6u);
  EXPECT_EQ(fifth.accepted->value, Value::one);
  // A sixth echo does not re-accept.
  EXPECT_FALSE(e.handle(5, echo(6, Value::one, 0)).accepted.has_value());
  EXPECT_EQ(e.echo_count(6, Value::one), 6u);
}

TEST(EchoEngine, EchoDedupPerEchoerOriginPhase) {
  EchoEngine e(kParams);
  (void)e.handle(0, echo(6, Value::one, 0));
  // Same echoer repeating (even with a different value!) is ignored.
  (void)e.handle(0, echo(6, Value::one, 0));
  (void)e.handle(0, echo(6, Value::zero, 0));
  EXPECT_EQ(e.echo_count(6, Value::one), 1u);
  EXPECT_EQ(e.echo_count(6, Value::zero), 0u);
  // Different origin from the same echoer is independent.
  (void)e.handle(0, echo(5, Value::one, 0));
  EXPECT_EQ(e.echo_count(5, Value::one), 1u);
}

TEST(EchoEngine, AtMostOneValueAcceptedPerOrigin) {
  // 7 echoers split 4/3 between the values: neither reaches threshold 5,
  // so nothing is accepted — acceptance for both values would need 10 > 7
  // echoers.
  EchoEngine e(kParams);
  for (ProcessId echoer = 0; echoer < 4; ++echoer) {
    EXPECT_FALSE(e.handle(echoer, echo(6, Value::one, 0))
                     .accepted.has_value());
  }
  for (ProcessId echoer = 4; echoer < 7; ++echoer) {
    EXPECT_FALSE(e.handle(echoer, echo(6, Value::zero, 0))
                     .accepted.has_value());
  }
}

TEST(EchoEngine, StaleEchoDropped) {
  EchoEngine e(kParams);
  EXPECT_TRUE(e.advance(2).empty());
  const auto out = e.handle(0, echo(6, Value::one, 0));
  EXPECT_FALSE(out.accepted.has_value());
  // It was consumed but never counted.
  EXPECT_EQ(e.echo_count(6, Value::one), 0u);
  EXPECT_EQ(e.deferred_count(), 0u);
}

TEST(EchoEngine, FutureEchoDeferredAndReplayed) {
  EchoEngine e(kParams);
  // Five echoers for phase 1 while we are still in phase 0.
  for (ProcessId echoer = 0; echoer < 5; ++echoer) {
    const auto out = e.handle(echoer, echo(6, Value::one, 1));
    EXPECT_FALSE(out.accepted.has_value());
  }
  EXPECT_EQ(e.deferred_count(), 5u);
  const auto accepts = e.advance(1);
  ASSERT_EQ(accepts.size(), 1u);
  EXPECT_EQ(accepts[0].origin, 6u);
  EXPECT_EQ(accepts[0].value, Value::one);
  EXPECT_EQ(e.deferred_count(), 0u);
}

TEST(EchoEngine, AdvanceClearsCurrentTallies) {
  EchoEngine e(kParams);
  (void)e.handle(0, echo(6, Value::one, 0));
  EXPECT_EQ(e.echo_count(6, Value::one), 1u);
  (void)e.advance(1);
  EXPECT_EQ(e.echo_count(6, Value::one), 0u);
}

TEST(EchoEngine, AdvanceSkipsOverDeferredPhases) {
  EchoEngine e(kParams);
  for (ProcessId echoer = 0; echoer < 5; ++echoer) {
    (void)e.handle(echoer, echo(2, Value::zero, 1));
  }
  // Jumping straight to phase 2 drops the phase-1 deferrals as stale.
  const auto accepts = e.advance(2);
  EXPECT_TRUE(accepts.empty());
  EXPECT_EQ(e.deferred_count(), 0u);
}

TEST(EchoEngine, DeferredFarFutureKept) {
  EchoEngine e(kParams);
  (void)e.handle(0, echo(2, Value::zero, 5));
  (void)e.advance(1);
  EXPECT_EQ(e.deferred_count(), 1u);
  (void)e.advance(5);
  EXPECT_EQ(e.deferred_count(), 0u);  // replayed (below threshold, no accept)
}

TEST(EchoEngine, DeferredEchoDedupSurvivesReplay) {
  EchoEngine e(kParams);
  // Echoer 0 echoes for phase 1 twice; only one copy must count.
  (void)e.handle(0, echo(6, Value::one, 1));
  (void)e.handle(0, echo(6, Value::one, 1));
  (void)e.advance(1);
  EXPECT_EQ(e.echo_count(6, Value::one), 1u);
}

TEST(EchoEngine, StaleEchoesDoNotGrowDedupMemory) {
  EchoEngine e(kParams);
  EXPECT_TRUE(e.advance(5).empty());
  // Spam 100 distinct-looking stale echoes: none may be recorded.
  for (int i = 0; i < 100; ++i) {
    (void)e.handle(static_cast<ProcessId>(i % 7),
                   echo(static_cast<ProcessId>(i % 5),
                        i % 2 == 0 ? Value::zero : Value::one, 0));
  }
  EXPECT_EQ(e.echo_dedup_size(), 0u);
}

TEST(EchoEngine, AdvanceReclaimsPastPhaseDedup) {
  EchoEngine e(kParams);
  for (ProcessId echoer = 0; echoer < 4; ++echoer) {
    (void)e.handle(echoer, echo(6, Value::one, 0));
  }
  EXPECT_EQ(e.echo_dedup_size(), 4u);
  (void)e.advance(1);
  EXPECT_EQ(e.echo_dedup_size(), 0u);
}

TEST(EchoEngine, DedupForCurrentAndFuturePhasesSurvivesAdvance) {
  EchoEngine e(kParams);
  (void)e.handle(0, echo(6, Value::one, 1));  // future: deferred + deduped
  (void)e.handle(1, echo(6, Value::one, 2));  // further future
  EXPECT_EQ(e.echo_dedup_size(), 2u);
  (void)e.advance(1);
  EXPECT_EQ(e.echo_dedup_size(), 2u);  // phase-1 and phase-2 entries remain
  (void)e.advance(2);
  EXPECT_EQ(e.echo_dedup_size(), 1u);
}

TEST(EchoEngine, DedupStateBoundedAcrossLongMultiPhaseRun) {
  // Satellite of the flat-quorum rewrite: over a long run with full echo
  // traffic every phase, advance() must keep reclaiming past-phase dedup
  // state — the live entry count never exceeds one phase's worth of
  // traffic, and the retained memory stops growing once warm.
  constexpr ConsensusParams kP{7, 2};
  EchoEngine e(kP);
  const std::size_t per_phase =
      static_cast<std::size_t>(kP.n) * kP.n;  // one echo per (echoer, origin)
  std::size_t warm_memory = 0;
  for (Phase t = 0; t < 1000; ++t) {
    for (ProcessId origin = 0; origin < kP.n; ++origin) {
      for (ProcessId echoer = 0; echoer < kP.n; ++echoer) {
        (void)e.handle(echoer, echo(origin, Value::one, t));
      }
    }
    EXPECT_LE(e.echo_dedup_size(), per_phase) << "phase " << t;
    (void)e.advance(t + 1);
    EXPECT_EQ(e.echo_dedup_size(), 0u) << "phase " << t;
    if (t == 10) {
      warm_memory = e.memory_bytes();
    }
    if (t > 10) {
      EXPECT_EQ(e.memory_bytes(), warm_memory)
          << "flat tables must not grow after warm-up (phase " << t << ")";
    }
  }
}

TEST(EchoEngine, DeferredEchoesReplayInOriginalArrivalOrder) {
  // Two origins' quorums complete in a deliberately interleaved arrival
  // order: origin 2's fifth echo arrives before origin 1's fifth, so the
  // replay at advance() must accept origin 2 first — replay follows
  // arrival order, not origin order.
  constexpr ConsensusParams kP{7, 2};  // threshold 5
  EchoEngine e(kP);
  for (ProcessId echoer = 0; echoer < 4; ++echoer) {
    (void)e.handle(echoer, echo(1, Value::one, 1));  // origin 1: 4 echoes
  }
  for (ProcessId echoer = 0; echoer < 5; ++echoer) {
    (void)e.handle(echoer, echo(2, Value::zero, 1));  // origin 2: quorum
  }
  (void)e.handle(4, echo(1, Value::one, 1));  // origin 1 completes last
  EXPECT_EQ(e.deferred_count(), 10u);
  const auto accepts = e.advance(1);
  ASSERT_EQ(accepts.size(), 2u);
  EXPECT_EQ(accepts[0].origin, 2u);
  EXPECT_EQ(accepts[0].value, Value::zero);
  EXPECT_EQ(accepts[1].origin, 1u);
  EXPECT_EQ(accepts[1].value, Value::one);
}

TEST(EchoEngine, FarFutureDeferralsReplayInArrivalOrderAfterPhaseJump) {
  // Same property across the phase-window boundary: phase 100 is far
  // outside the dedup bitset window at recording time, so these entries
  // ride the overflow ledger and migrate into the window as the engine
  // advances — order and dedup must both survive the trip.
  constexpr ConsensusParams kP{7, 2};
  EchoEngine e(kP);
  constexpr Phase kFar = 100;
  for (ProcessId echoer = 0; echoer < 5; ++echoer) {
    (void)e.handle(echoer, echo(6, Value::one, kFar));
    (void)e.handle(echoer, echo(6, Value::one, kFar));  // duplicate
  }
  for (ProcessId echoer = 0; echoer < 5; ++echoer) {
    (void)e.handle(echoer, echo(5, Value::zero, kFar));
  }
  EXPECT_EQ(e.deferred_count(), 10u);
  EXPECT_EQ(e.echo_dedup_size(), 10u);
  // Walk through intermediate phases; deferred and dedup state must ride
  // along untouched.
  for (Phase t = 1; t < kFar; t += 7) {
    EXPECT_TRUE(e.advance(t).empty());
    EXPECT_EQ(e.deferred_count(), 10u);
    EXPECT_EQ(e.echo_dedup_size(), 10u);
  }
  const auto accepts = e.advance(kFar);
  ASSERT_EQ(accepts.size(), 2u);
  EXPECT_EQ(accepts[0].origin, 6u);  // quorum completed first in arrival order
  EXPECT_EQ(accepts[1].origin, 5u);
  EXPECT_EQ(e.deferred_count(), 0u);
  // The duplicates never counted: exactly the quorum, nothing more.
  EXPECT_EQ(e.echo_count(6, Value::one), 5u);
}

TEST(EchoEngine, CrossingOrderSurvivesOverflowToWindowMigration) {
  // One future phase's quorums built from both sources: origin A's echoes
  // all ride the overflow ledger, origin B's all arrive in-window after the
  // migration, and origin C's mix both. Echoes are counted on arrival (or
  // on migration), so advance() must hand the acceptances out in the order
  // their quorums completed: A (at migration), then C, then B.
  constexpr ConsensusParams kP{7, 2};  // threshold 5
  constexpr ProcessId kA = 1;
  constexpr ProcessId kB = 2;
  constexpr ProcessId kC = 3;
  constexpr Phase kTarget = 5;  // beyond the phase-0 window
  EchoEngine e(kP);
  for (ProcessId echoer = 0; echoer < 5; ++echoer) {
    (void)e.handle(echoer, echo(kA, Value::one, kTarget));
  }
  for (ProcessId echoer = 0; echoer < 2; ++echoer) {
    (void)e.handle(echoer, echo(kC, Value::zero, kTarget));
  }
  EXPECT_EQ(e.echo_overflow_size(), 7u);
  EXPECT_EQ(e.deferred_count(), 7u);

  // Phase 5 slides into the window: all seven migrate and count.
  EXPECT_TRUE(e.advance(2).empty());
  EXPECT_EQ(e.echo_overflow_size(), 0u);
  EXPECT_EQ(e.deferred_count(), 7u);

  for (ProcessId echoer = 0; echoer < 4; ++echoer) {
    (void)e.handle(echoer, echo(kB, Value::one, kTarget));
  }
  EXPECT_EQ(e.deferred_count(), 11u);
  // Echoer 0's C echo migrated from the ledger: its repeat is a duplicate.
  (void)e.handle(0, echo(kC, Value::zero, kTarget));
  EXPECT_EQ(e.deferred_count(), 11u);
  for (ProcessId echoer = 2; echoer < 5; ++echoer) {
    (void)e.handle(echoer, echo(kC, Value::zero, kTarget));  // C completes
  }
  EXPECT_EQ(e.deferred_count(), 14u);
  (void)e.handle(4, echo(kB, Value::one, kTarget));  // B completes last
  EXPECT_EQ(e.deferred_count(), 15u);

  EXPECT_TRUE(e.advance(4).empty());
  EXPECT_EQ(e.deferred_count(), 15u);

  const auto accepts = e.advance(kTarget);
  ASSERT_EQ(accepts.size(), 3u);
  EXPECT_EQ(accepts[0].origin, kA);
  EXPECT_EQ(accepts[0].value, Value::one);
  EXPECT_EQ(accepts[1].origin, kC);
  EXPECT_EQ(accepts[1].value, Value::zero);
  EXPECT_EQ(accepts[2].origin, kB);
  EXPECT_EQ(accepts[2].value, Value::one);
  EXPECT_EQ(e.deferred_count(), 0u);
  EXPECT_EQ(e.echo_count(kA, Value::one), 5u);
  EXPECT_EQ(e.echo_count(kB, Value::one), 5u);
  EXPECT_EQ(e.echo_count(kC, Value::zero), 5u);
  // Acceptance is single-shot: a sixth echo in the current phase counts
  // but accepts nothing.
  EXPECT_FALSE(e.handle(5, echo(kC, Value::zero, kTarget)).accepted);
  EXPECT_EQ(e.echo_count(kC, Value::zero), 6u);
}

TEST(EchoEngine, FuzzNeverAcceptsTwoValuesForOneOriginPhase) {
  // Property: across arbitrary (including adversarial) echo traffic, an
  // origin's state is accepted at most once per phase, and never for both
  // values — the heart of the Theorem 4 consistency argument.
  Rng rng(20240707);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t n = 4 + static_cast<std::uint32_t>(rng.below(10));
    const std::uint32_t k = static_cast<std::uint32_t>(rng.below((n - 1) / 3 + 1));
    EchoEngine engine({n, k});
    Phase current = 0;
    std::set<std::pair<ProcessId, Phase>> accepted_keys;
    for (int event = 0; event < 400; ++event) {
      if (rng.bernoulli(0.05)) {
        ++current;
        for (const auto& accept : engine.advance(current)) {
          const auto key = std::make_pair(accept.origin, current);
          EXPECT_TRUE(accepted_keys.emplace(key).second)
              << "origin " << accept.origin << " accepted twice in phase "
              << current;
        }
        continue;
      }
      const auto sender = static_cast<ProcessId>(rng.below(n));
      const auto origin = static_cast<ProcessId>(rng.below(n));
      const Phase phase = current + rng.below(3);
      const Value value = rng.bernoulli(0.5) ? Value::one : Value::zero;
      const bool is_echo = rng.bernoulli(0.8);
      const auto out = engine.handle(
          sender,
          EchoProtocolMsg{.is_echo = is_echo,
                          .from = is_echo ? origin : sender,
                          .value = value,
                          .phase = phase});
      if (out.accepted.has_value()) {
        const auto key = std::make_pair(out.accepted->origin, current);
        EXPECT_TRUE(accepted_keys.emplace(key).second)
            << "origin " << out.accepted->origin << " accepted twice in phase "
            << current;
      }
    }
  }
}

TEST(EchoEngine, FuzzAcceptanceRequiresQuorumOfDistinctEchoers) {
  // With fewer distinct echoers than the threshold, nothing is ever
  // accepted no matter how the traffic is shuffled or repeated.
  Rng rng(99);
  const ConsensusParams params{10, 3};  // threshold 7
  for (int trial = 0; trial < 100; ++trial) {
    EchoEngine engine(params);
    for (int event = 0; event < 300; ++event) {
      const auto sender = static_cast<ProcessId>(rng.below(6));  // only 6
      const Value value = rng.bernoulli(0.5) ? Value::one : Value::zero;
      const auto out = engine.handle(
          sender,
          EchoProtocolMsg{
              .is_echo = true, .from = 2, .value = value, .phase = 0});
      EXPECT_FALSE(out.accepted.has_value());
    }
  }
}

}  // namespace
}  // namespace rcp::core
