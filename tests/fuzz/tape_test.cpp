// Tape semantics: the cursor's explicit-then-fallback contract and the
// fixed decode rules both policy halves apply (part of the plan format —
// changing them invalidates every checked-in .plan golden), and recording:
// any run, whatever policies drove it, replays exactly from the plan its
// recording policies write.
#include "fuzz/tape.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string_view>

#include "adversary/scenario.hpp"
#include "common/envelope.hpp"
#include "fuzz/digest.hpp"
#include "fuzz/executor.hpp"
#include "fuzz/plan.hpp"
#include "sim/mailbox.hpp"
#include "sim/trace.hpp"

namespace rcp::fuzz {
namespace {

TEST(TapeCursor, ServesExplicitTapeThenFallbackStream) {
  TapeCursor cursor({11, 22, 33}, /*fallback_seed=*/99);
  EXPECT_EQ(cursor.next(), 11u);
  EXPECT_EQ(cursor.next(), 22u);
  EXPECT_EQ(cursor.next(), 33u);
  EXPECT_EQ(cursor.consumed(), 3u);
  EXPECT_EQ(cursor.fallback_draws(), 0u);

  // Fallback values are the SplitMix64 stream from the seed, truncated.
  std::uint64_t state = 99;
  const auto expected0 = static_cast<std::uint32_t>(splitmix64(state));
  const auto expected1 = static_cast<std::uint32_t>(splitmix64(state));
  EXPECT_EQ(cursor.next(), expected0);
  EXPECT_EQ(cursor.next(), expected1);
  EXPECT_EQ(cursor.fallback_draws(), 2u);
  EXPECT_EQ(cursor.consumed(), 3u);
}

TEST(TapeCursor, EmptyTapeIsPureFallback) {
  TapeCursor cursor({}, 7);
  std::uint64_t state = 7;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cursor.next(), static_cast<std::uint32_t>(splitmix64(state)));
  }
  EXPECT_EQ(cursor.consumed(), 0u);
  EXPECT_EQ(cursor.fallback_draws(), 8u);
}

TEST(TapeScheduler, PicksEligibleByModulo) {
  auto cursor = std::make_shared<TapeCursor>(
      std::vector<std::uint32_t>{0, 1, 5, 7}, 0);
  TapeScheduler scheduler(cursor);
  Rng rng(1);  // unused by the policy
  const ProcessId eligible[] = {2, 4, 9};
  EXPECT_EQ(scheduler.pick(eligible, rng), 2);  // 0 % 3 -> 2
  EXPECT_EQ(scheduler.pick(eligible, rng), 4);  // 1 % 3 -> 4
  EXPECT_EQ(scheduler.pick(eligible, rng), 9);  // 5 % 3 -> 9
  EXPECT_EQ(scheduler.pick(eligible, rng), 4);  // 7 % 3 -> 4
}

TEST(TapeDelivery, DecodesPhiFromLowByteAndIndexFromHighBits) {
  // phi_weight 16: low byte < 16 means phi (arbitrarily delayed delivery);
  // otherwise the mailbox index is (v >> 8) % size.
  auto cursor = std::make_shared<TapeCursor>(
      std::vector<std::uint32_t>{
          15,                   // low byte 15 < 16 -> phi
          16 | (5U << 8),       // low byte 16 -> index 5 % 3 = 2
          255 | (1U << 8),      // low byte 255 -> index 1
      },
      0);
  TapeDelivery delivery(cursor, /*phi_weight=*/16);
  Rng rng(1);
  sim::Mailbox box;
  for (std::uint64_t s = 0; s < 3; ++s) {
    box.push(Envelope{.sender = 0, .receiver = 1, .payload = {}, .seq = s});
  }
  EXPECT_EQ(delivery.pick(1, box, 0, rng), std::nullopt);
  EXPECT_EQ(delivery.pick(1, box, 0, rng), std::optional<std::size_t>(2));
  EXPECT_EQ(delivery.pick(1, box, 0, rng), std::optional<std::size_t>(1));
}

TEST(TapeDelivery, ZeroPhiWeightNeverDelays) {
  auto cursor = std::make_shared<TapeCursor>(
      std::vector<std::uint32_t>{0, 1, 2, 3}, 0);
  TapeDelivery delivery(cursor, /*phi_weight=*/0);
  Rng rng(1);
  sim::Mailbox box;
  box.push(Envelope{.sender = 0, .receiver = 1, .payload = {}, .seq = 0});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(delivery.pick(1, box, 0, rng), std::optional<std::size_t>(0));
  }
}

TEST(TapePolicies, ShareOneCursor) {
  TapePolicies policies = make_tape_policies({1, 2, 3}, 4, 16);
  Rng rng(1);
  const ProcessId eligible[] = {0, 1};
  (void)policies.scheduler->pick(eligible, rng);  // consumes tape[0]
  sim::Mailbox box;
  box.push(Envelope{.sender = 0, .receiver = 1, .payload = {}, .seq = 0});
  (void)policies.delivery->pick(1, box, 0, rng);  // consumes tape[1]
  EXPECT_EQ(policies.cursor->consumed(), 2u);
}

/// Observes phi on every receive.
class AlwaysPhi final : public sim::DeliveryPolicy {
 public:
  [[nodiscard]] std::optional<std::size_t> pick(ProcessId /*receiver*/,
                                                const sim::Mailbox& /*box*/,
                                                std::uint64_t /*now_step*/,
                                                Rng& /*rng*/) override {
    return std::nullopt;
  }
};

TEST(TapeRecording, EncodesEachChoiceAsTheValueTheDecodeInverts) {
  auto tape = std::make_shared<std::vector<std::uint32_t>>();
  RecordingScheduler scheduler(sim::make_round_robin_scheduler(), tape);
  RecordingDelivery newest(sim::make_lifo_delivery(), tape);
  RecordingDelivery delayed(std::make_unique<AlwaysPhi>(), tape);
  Rng rng(1);
  const ProcessId eligible[] = {2, 4, 9};
  const ProcessId actor = scheduler.pick(eligible, rng);
  sim::Mailbox box;
  for (std::uint64_t s = 0; s < 3; ++s) {
    box.push(Envelope{.sender = 0, .receiver = 1, .payload = {}, .seq = s});
  }
  EXPECT_EQ(newest.pick(1, box, 0, rng), std::optional<std::size_t>(2));
  EXPECT_EQ(delayed.pick(1, box, 0, rng), std::nullopt);
  // Actor index, (index << 8) | 0xff, and 0 for phi.
  ASSERT_EQ(*tape, (std::vector<std::uint32_t>{
                       0, (2U << 8) | 0xffU, 0}));

  // The replay halves decode the same choices under any legal phi weight.
  for (const std::uint32_t phi_weight : {1U, 16U, 200U}) {
    TapePolicies replay = make_tape_policies(*tape, 0, phi_weight);
    EXPECT_EQ(replay.scheduler->pick(eligible, rng), actor);
    EXPECT_EQ(replay.delivery->pick(1, box, 0, rng),
              std::optional<std::size_t>(2));
    EXPECT_EQ(replay.delivery->pick(1, box, 0, rng), std::nullopt);
  }
}

adversary::Scenario equivocator_scenario(std::uint64_t seed) {
  adversary::Scenario s;
  s.protocol = adversary::ProtocolKind::malicious;
  s.params = {7, 2};
  s.inputs = adversary::alternating_inputs(7);
  s.byzantine_ids = {2, 5};
  s.byzantine_kind = adversary::ByzantineKind::equivocator;
  s.seed = seed;
  return s;
}

/// Digests every event and, when given, keeps a copy of it.
class DigestAndKeep final : public sim::TraceSink {
 public:
  explicit DigestAndKeep(sim::RecordingTrace* keep) : keep_(keep) {}
  void record(const sim::Event& e) override {
    digest.record(e);
    if (keep_ != nullptr) {
      keep_->record(e);
    }
  }
  DigestTrace digest;

 private:
  sim::RecordingTrace* keep_;
};

/// Runs `scenario` under recording policies; returns the plan that replays
/// it, with the recorded outcome as its `expect` line.
SchedulePlan record(const adversary::Scenario& scenario,
                    RecordingPolicies rec = make_recording_policies(),
                    sim::RecordingTrace* events = nullptr) {
  auto sim = adversary::build(scenario, std::move(rec.delivery),
                              std::move(rec.scheduler));
  DigestAndKeep trace(events);
  sim->set_trace(&trace);
  const sim::RunResult r = sim->run();
  SchedulePlan plan = to_plan(scenario);
  plan.tape = *rec.tape;
  plan.expect = {.present = true,
                 .status = r.status,
                 .steps = r.steps,
                 .trace_digest = trace.digest.hash(),
                 .state_digest = state_digest(*sim)};
  return plan;
}

void expect_same_events(const std::vector<sim::Event>& a,
                        const std::vector<sim::Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].step, b[i].step);
    EXPECT_EQ(a[i].process, b[i].process);
    EXPECT_EQ(a[i].peer, b[i].peer);
    EXPECT_EQ(a[i].payload_size, b[i].payload_size);
    EXPECT_EQ(a[i].decision, b[i].decision);
  }
}

TEST(Replay, RecordedRunReplaysExactly) {
  // balancer_n10 runs 213,411 steps: its tape is over the plan cap.
  for (const adversary::NamedScenario& named :
       adversary::builtin_scenarios()) {
    if (std::string_view(named.name) == "balancer_n10") {
      continue;
    }
    SCOPED_TRACE(named.name);
    const SchedulePlan plan = record(named.scenario);
    ASSERT_NO_THROW(plan.validate());
    EXPECT_EQ(plan.tape.size(), 2 * plan.expect.steps);

    // Recording left the run as the default policies would have made it.
    auto plain = adversary::build(named.scenario);
    DigestTrace plain_trace;
    plain->set_trace(&plain_trace);
    EXPECT_EQ(plain->run().steps, plan.expect.steps);
    EXPECT_EQ(plain_trace.hash(), plan.expect.trace_digest);
    EXPECT_EQ(state_digest(*plain), plan.expect.state_digest);

    const ExecResult r = execute(plan);
    EXPECT_EQ(r.status, plan.expect.status);
    EXPECT_EQ(r.steps, plan.expect.steps);
    EXPECT_EQ(r.trace_digest, plan.expect.trace_digest);
    EXPECT_EQ(r.state_digest, plan.expect.state_digest);
    EXPECT_EQ(SchedulePlan::parse_string(plan.serialize()).serialize(),
              plan.serialize());
  }
}

TEST(Replay, ReplayOfBenignRunMatchesStepByStep) {
  adversary::Scenario s;
  s.protocol = adversary::ProtocolKind::fail_stop;
  s.params = {5, 2};
  s.inputs = adversary::alternating_inputs(5);
  s.seed = 3;
  sim::RecordingTrace original;
  const SchedulePlan plan = record(s, make_recording_policies(), &original);

  auto replayed = build(plan);
  sim::RecordingTrace replay;
  replayed->set_trace(&replay);
  replayed->start();
  std::uint64_t steps = 0;
  while (!replayed->all_correct_decided() && replayed->step()) {
    ++steps;
  }
  EXPECT_EQ(steps, plan.expect.steps);
  EXPECT_TRUE(replayed->agreement_holds());
  expect_same_events(replay.events(), original.events());
}

TEST(Replay, ScheduleSaveLoadRoundTrip) {
  // A recorded schedule saves as rcp-plan-v1 text and loads back field for
  // field: spec, tape, tape seed and expect line.
  const SchedulePlan plan = record(equivocator_scenario(21));
  ASSERT_NO_THROW(plan.validate());
  std::stringstream file;
  file << plan.serialize();
  const SchedulePlan loaded = SchedulePlan::parse(file);
  EXPECT_EQ(loaded.spec.protocol, plan.spec.protocol);
  EXPECT_EQ(loaded.spec.inputs, plan.spec.inputs);
  EXPECT_EQ(loaded.spec.byzantine_ids, plan.spec.byzantine_ids);
  EXPECT_EQ(loaded.spec.seed, plan.spec.seed);
  EXPECT_EQ(loaded.tape_seed, plan.tape_seed);
  EXPECT_EQ(loaded.tape, plan.tape);
  EXPECT_TRUE(loaded.expect.present);
  EXPECT_EQ(loaded.expect.status, plan.expect.status);
  EXPECT_EQ(loaded.expect.steps, plan.expect.steps);
  EXPECT_EQ(loaded.expect.trace_digest, plan.expect.trace_digest);
  EXPECT_EQ(loaded.expect.state_digest, plan.expect.state_digest);
  EXPECT_EQ(loaded.serialize(), plan.serialize());
}

TEST(Replay, SavedScheduleReplaysAfterReload) {
  const SchedulePlan plan = record(equivocator_scenario(21));
  std::stringstream file;
  file << plan.serialize();
  const SchedulePlan loaded = SchedulePlan::parse(file);
  EXPECT_TRUE(matches_expect(execute(loaded), loaded));

  // The tape, not the simulation seed, drives the schedule: the replay
  // lands on the recorded digests under a different scenario seed.
  TapePolicies tape =
      make_tape_policies(loaded.tape, loaded.tape_seed, loaded.spec.phi_weight);
  auto replayed = adversary::build(equivocator_scenario(999),
                                   std::move(tape.delivery),
                                   std::move(tape.scheduler));
  DigestTrace trace;
  replayed->set_trace(&trace);
  const sim::RunResult r = replayed->run();
  EXPECT_EQ(r.status, plan.expect.status);
  EXPECT_EQ(r.steps, plan.expect.steps);
  EXPECT_EQ(trace.hash(), plan.expect.trace_digest);
}

TEST(Replay, RecordingPreservesInnerPolicyBehaviour) {
  const adversary::Scenario s = equivocator_scenario(8);
  auto fifo = adversary::build(s, sim::make_fifo_delivery(),
                               sim::make_round_robin_scheduler());
  sim::RecordingTrace fifo_events;
  fifo->set_trace(&fifo_events);
  (void)fifo->run();

  RecordingPolicies rec = make_recording_policies(
      sim::make_fifo_delivery(), sim::make_round_robin_scheduler());
  EXPECT_TRUE(rec.delivery->order_preserving());
  sim::RecordingTrace recorded;
  const SchedulePlan plan = record(s, std::move(rec), &recorded);
  // Recording around FIFO still delivers in FIFO order...
  expect_same_events(recorded.events(), fifo_events.events());

  // ...and the swap-removing tape replay reproduces that order exactly.
  auto replayed = build(plan);
  sim::RecordingTrace replay;
  replayed->set_trace(&replay);
  (void)replayed->run();
  expect_same_events(replay.events(), fifo_events.events());
}

TEST(Replay, DivergenceDetected) {
  // A recorded plan replayed against a different system no longer matches
  // its expect digests: they are the divergence detector.
  SchedulePlan plan = record(equivocator_scenario(5));
  ASSERT_TRUE(matches_expect(execute(plan), plan));
  plan.spec.inputs = std::vector<Value>(7, Value::one);
  EXPECT_FALSE(matches_expect(execute(plan), plan));
}

}  // namespace
}  // namespace rcp::fuzz
