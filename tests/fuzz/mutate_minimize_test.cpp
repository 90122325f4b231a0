// seed_corpus()/mutate() stay inside the validation envelope by
// construction; minimize() is a deterministic shrinker.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fuzz/executor.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/plan.hpp"

namespace rcp::fuzz {
namespace {

TEST(Mutate, SeedCorpusIsValidAndDiverse) {
  const auto seeds =
      seed_corpus(adversary::ProtocolKind::malicious, {7, 2}, 99);
  ASSERT_GE(seeds.size(), 4u);
  for (const SchedulePlan& p : seeds) {
    EXPECT_NO_THROW(p.validate()) << p.serialize();
  }
  // The baseline entry is fault-free; at least one entry fields Byzantines.
  EXPECT_TRUE(seeds.front().spec.byzantine_ids.empty());
  bool any_byz = false;
  for (const SchedulePlan& p : seeds) {
    any_byz = any_byz || !p.spec.byzantine_ids.empty();
  }
  EXPECT_TRUE(any_byz);
}

TEST(Mutate, FailStopSeedCorpusFieldsNoByzantines) {
  const auto seeds =
      seed_corpus(adversary::ProtocolKind::fail_stop, {5, 2}, 7);
  for (const SchedulePlan& p : seeds) {
    EXPECT_NO_THROW(p.validate());
    EXPECT_TRUE(p.spec.byzantine_ids.empty());
  }
}

TEST(Mutate, IsDeterministicInTheRngSeed) {
  const auto seeds =
      seed_corpus(adversary::ProtocolKind::malicious, {7, 2}, 99);
  Rng a(12345);
  Rng b(12345);
  EXPECT_EQ(mutate(seeds[0], a).serialize(), mutate(seeds[0], b).serialize());
}

TEST(Mutate, LongChainsStayValid) {
  const auto seeds =
      seed_corpus(adversary::ProtocolKind::malicious, {7, 2}, 99);
  Rng rng(2026);
  SchedulePlan current = seeds.front();
  for (int i = 0; i < 300; ++i) {
    current = mutate(current, rng);
    ASSERT_NO_THROW(current.validate()) << "after " << i + 1 << " mutations:\n"
                                        << current.serialize();
    EXPECT_FALSE(current.expect.present);  // mutation invalidates goldens
  }
}

TEST(Mutate, SmallSystemChainsStayValid) {
  // n=2, k=0 exercises every clamp (no Byzantine room, one crash slot).
  const auto seeds =
      seed_corpus(adversary::ProtocolKind::fail_stop, {2, 0}, 5);
  Rng rng(31337);
  SchedulePlan current = seeds.front();
  for (int i = 0; i < 200; ++i) {
    current = mutate(current, rng);
    ASSERT_NO_THROW(current.validate()) << current.serialize();
  }
}

TEST(Minimize, DropsTheTapeWhenTheFallbackSuffices) {
  SchedulePlan p;
  p.spec.protocol = adversary::ProtocolKind::malicious;
  p.spec.params = {7, 2};
  for (std::uint32_t i = 0; i < 7; ++i) {
    p.spec.inputs.push_back(i % 2 == 0 ? Value::zero : Value::one);
  }
  p.tape_seed = 77;
  for (std::uint32_t i = 0; i < 256; ++i) {
    p.tape.push_back(i * 2654435761U);
  }
  const auto decided = [](const ExecResult& r) {
    return r.status == sim::RunStatus::all_decided;
  };
  ASSERT_TRUE(decided(execute(p)));

  MinimizeStats stats;
  const SchedulePlan small = minimize(p, decided, 64, &stats);
  EXPECT_TRUE(decided(execute(small)));
  // The fallback stream alone decides, so the whole tape goes.
  EXPECT_TRUE(small.tape.empty());
  EXPECT_LT(small.spec.max_steps, p.spec.max_steps);
  EXPECT_GT(stats.attempts, 0u);
  EXPECT_GT(stats.accepted, 0u);
}

TEST(Minimize, BisectsTheTapeToTheShortestPrefixThatMatters) {
  // Predicate: the explicit tape changes the schedule, i.e. the trace
  // differs from the pure fallback run. Dropping the whole tape (pass 1)
  // fails it by definition, so pass 2's prefix bisection does the work.
  SchedulePlan p;
  p.spec.protocol = adversary::ProtocolKind::malicious;
  p.spec.params = {7, 2};
  for (std::uint32_t i = 0; i < 7; ++i) {
    p.spec.inputs.push_back(i % 2 == 0 ? Value::zero : Value::one);
  }
  p.tape_seed = 77;
  for (std::uint32_t i = 0; i < 256; ++i) {
    p.tape.push_back(i * 2654435761U);
  }
  SchedulePlan fallback_only = p;
  fallback_only.tape.clear();
  const std::uint64_t fallback_digest = execute(fallback_only).trace_digest;
  const auto tape_matters = [fallback_digest](const ExecResult& r) {
    return r.trace_digest != fallback_digest;
  };
  ASSERT_TRUE(tape_matters(execute(p)));

  MinimizeStats stats;
  const SchedulePlan small = minimize(p, tape_matters, 64, &stats);
  EXPECT_TRUE(tape_matters(execute(small)));
  // 256 values bisect down to the first one: log2(256) halvings plus the
  // rejected empty prefix, then the step clamp.
  ASSERT_EQ(small.tape.size(), 1u);
  EXPECT_EQ(stats.attempts, 11u);
  EXPECT_EQ(stats.accepted, 9u);
  EXPECT_EQ(small.serialize(),
            "rcp-plan-v1\n"
            "protocol fig2\n"
            "n 7\n"
            "k 2\n"
            "inputs 0101010\n"
            "seed 1\n"
            "max-steps 1559\n"
            "phi-weight 16\n"
            "net-drop-permille 0\n"
            "net-delay-max-ms 0\n"
            "net-disconnects 0\n"
            "tape-seed 77\n"
            "tape 0\n"
            "end\n");
}

TEST(Minimize, DropsTheScriptedMovesThePredicateDoesNotNeed) {
  // Two scripted Byzantines stretch Figure 2 from two phases (silent) to
  // three. Once the early moves have forced phase 3, what the Byzantines
  // play from there on does not matter, so pass 4 must drop the moves for
  // phases 3 to 5 and keep the three early moves the slowdown needs.
  SchedulePlan p;
  p.spec.protocol = adversary::ProtocolKind::malicious;
  p.spec.params = {7, 2};
  for (std::uint32_t i = 0; i < 7; ++i) {
    p.spec.inputs.push_back(i < 3 ? Value::zero : Value::one);
  }
  p.spec.byzantine_ids = {5, 6};
  p.spec.byzantine_kind = adversary::ByzantineKind::scripted;
  p.spec.moves = {
      {Value::one, Value::one, 128, 0},   {Value::zero, Value::one, 128, 2},
      {Value::one, Value::zero, 64, 1},   {Value::zero, Value::zero, 200, 2},
      {Value::one, Value::one, 32, 2},    {Value::zero, Value::one, 255, 0},
  };
  p.tape_seed = 5;
  const auto slow = [](const ExecResult& r) { return r.max_phase >= 3; };
  ASSERT_TRUE(slow(execute(p)));
  SchedulePlan silent = p;
  silent.spec.moves.clear();
  ASSERT_FALSE(slow(execute(silent)));

  const SchedulePlan small = minimize(p, slow, 64);
  EXPECT_TRUE(slow(execute(small)));
  ASSERT_EQ(small.spec.moves.size(), 3u);
  // Each kept move is needed: dropping any one of them loses the slowdown.
  for (std::size_t i = 0; i < small.spec.moves.size(); ++i) {
    SchedulePlan fewer = small;
    fewer.spec.moves.erase(fewer.spec.moves.begin() +
                           static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(slow(execute(fewer))) << "move " << i;
  }
  EXPECT_EQ(small.serialize(),
            "rcp-plan-v1\n"
            "protocol fig2\n"
            "n 7\n"
            "k 2\n"
            "inputs 0001111\n"
            "byzantine scripted 5 6\n"
            "move 1 1 128 0\n"
            "move 0 1 128 2\n"
            "move 1 0 64 1\n"
            "seed 1\n"
            "max-steps 1013\n"
            "phi-weight 16\n"
            "net-drop-permille 0\n"
            "net-delay-max-ms 0\n"
            "net-disconnects 0\n"
            "tape-seed 5\n"
            "end\n");
}

TEST(Minimize, IsDeterministic) {
  SchedulePlan p;
  p.spec.protocol = adversary::ProtocolKind::malicious;
  p.spec.params = {7, 2};
  for (std::uint32_t i = 0; i < 7; ++i) {
    p.spec.inputs.push_back(Value::one);
  }
  p.tape_seed = 3;
  for (std::uint32_t i = 0; i < 100; ++i) {
    p.tape.push_back(i);
  }
  const auto keep = [](const ExecResult& r) { return r.agreement; };
  EXPECT_EQ(minimize(p, keep, 48).serialize(),
            minimize(p, keep, 48).serialize());
}

TEST(Minimize, KeepsCrashEventsThePredicateNeeds) {
  // Predicate: some process never decides (the crash victim). Minimization
  // must not drop the crash that causes it.
  SchedulePlan p;
  p.spec.protocol = adversary::ProtocolKind::fail_stop;
  p.spec.params = {5, 1};
  for (std::uint32_t i = 0; i < 5; ++i) {
    p.spec.inputs.push_back(Value::one);
  }
  p.spec.crashes.push_back(
      {.victim = 0, .by_phase = false, .at_step = 0, .at_phase = 0});
  p.tape_seed = 11;
  const auto victim_dead = [](const ExecResult& r) {
    return r.status == sim::RunStatus::all_decided;
  };
  // Correct processes still decide around the dead one (k=1 tolerates it).
  ASSERT_TRUE(victim_dead(execute(p)));
  const SchedulePlan small = minimize(p, victim_dead, 48);
  EXPECT_TRUE(victim_dead(execute(small)));
}

}  // namespace
}  // namespace rcp::fuzz
