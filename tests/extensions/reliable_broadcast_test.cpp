// Reliable broadcast (extension module): validity, consistency and
// totality, including against a two-faced (equivocating) sender.
#include "extensions/reliable_broadcast.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adversary/byzantine.hpp"
#include "common/error.hpp"
#include "sim/simulation.hpp"

namespace rcp {
namespace {

/// A Byzantine sender that tells ids < n/2 "0" and the rest "1".
class TwoFacedSender final : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    for (ProcessId q = 0; q < ctx.n(); ++q) {
      const Value v = q < ctx.n() / 2 ? Value::zero : Value::one;
      ctx.send(q, ext::RbMsg{.kind = ext::RbMsg::Kind::initial, .value = v}
                      .encode());
    }
  }
  void on_message(sim::Context&, const sim::Envelope&) override {}
};

struct RbRun {
  std::unique_ptr<sim::Simulation> simulation;
  std::vector<ext::ReliableBroadcast*> correct;
};

RbRun make_rb_run(std::uint32_t n, std::uint32_t k, ProcessId sender,
                  Value value, bool byzantine_sender, std::uint64_t seed) {
  std::vector<std::unique_ptr<sim::Process>> procs;
  std::vector<ext::ReliableBroadcast*> correct;
  for (ProcessId p = 0; p < n; ++p) {
    if (byzantine_sender && p == sender) {
      procs.push_back(std::make_unique<TwoFacedSender>());
      continue;
    }
    auto rb = ext::ReliableBroadcast::make({n, k}, p, sender, value);
    correct.push_back(rb.get());
    procs.push_back(std::move(rb));
  }
  auto simulation = std::make_unique<sim::Simulation>(
      sim::SimConfig{.n = n, .seed = seed, .max_steps = 200'000},
      std::move(procs));
  if (byzantine_sender) {
    simulation->mark_faulty(sender);
  }
  return RbRun{std::move(simulation), std::move(correct)};
}

TEST(ReliableBroadcast, FactoryValidates) {
  EXPECT_NO_THROW(ext::ReliableBroadcast::make({7, 2}, 0, 0, Value::one));
  EXPECT_THROW(ext::ReliableBroadcast::make({7, 3}, 0, 0, Value::one),
               PreconditionError);
  EXPECT_THROW(ext::ReliableBroadcast::make({7, 2}, 7, 0, Value::one),
               PreconditionError);
}

TEST(ReliableBroadcast, CorrectSenderEveryoneDelivers) {
  for (const Value v : kBothValues) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      auto run = make_rb_run(7, 2, /*sender=*/3, v, false, seed);
      const auto result = run.simulation->run();
      EXPECT_EQ(result.status, sim::RunStatus::all_decided);
      for (auto* rb : run.correct) {
        EXPECT_EQ(rb->delivered(), v);
      }
    }
  }
}

TEST(ReliableBroadcast, SilentSenderNobodyDelivers) {
  std::vector<std::unique_ptr<sim::Process>> procs;
  std::vector<ext::ReliableBroadcast*> correct;
  const std::uint32_t n = 7;
  for (ProcessId p = 0; p < n; ++p) {
    if (p == 0) {
      procs.push_back(std::make_unique<adversary::SilentByzantine>());
      continue;
    }
    auto rb = ext::ReliableBroadcast::make({n, 2}, p, /*sender=*/0);
    correct.push_back(rb.get());
    procs.push_back(std::move(rb));
  }
  sim::Simulation s(sim::SimConfig{.n = n, .seed = 4}, std::move(procs));
  s.mark_faulty(0);
  const auto result = s.run();
  EXPECT_EQ(result.status, sim::RunStatus::quiescent);
  for (auto* rb : correct) {
    EXPECT_FALSE(rb->delivered().has_value());
  }
}

TEST(ReliableBroadcast, TwoFacedSenderCannotSplitDeliveries) {
  // Consistency + totality: across many schedules, either no correct
  // process delivers, or all deliver the same value.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    auto run = make_rb_run(7, 2, /*sender=*/0, Value::zero, true, seed);
    (void)run.simulation->run();
    std::optional<Value> delivered;
    std::size_t delivered_count = 0;
    for (auto* rb : run.correct) {
      if (rb->delivered().has_value()) {
        ++delivered_count;
        if (delivered.has_value()) {
          EXPECT_EQ(*delivered, *rb->delivered())
              << "two correct processes delivered different values, seed "
              << seed;
        }
        delivered = rb->delivered();
      }
    }
    EXPECT_TRUE(delivered_count == 0 || delivered_count == run.correct.size())
        << "totality violated at seed " << seed << ": " << delivered_count
        << " of " << run.correct.size();
  }
}

TEST(ReliableBroadcast, SmallestByzantineConfiguration) {
  // n = 4, k = 1: the minimum where the bounds bite.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto run = make_rb_run(4, 1, /*sender=*/0, Value::zero, true, seed);
    (void)run.simulation->run();
    std::optional<Value> delivered;
    for (auto* rb : run.correct) {
      if (rb->delivered().has_value()) {
        if (delivered.has_value()) {
          EXPECT_EQ(*delivered, *rb->delivered()) << "seed " << seed;
        }
        delivered = rb->delivered();
      }
    }
  }
}

TEST(ReliableBroadcast, ReadyAmplificationDelivers) {
  // Even if a receiver misses the echo quorum (its echoes are starved), the
  // 2k+1 READY rule pulls it across via amplification. We simulate by
  // running normally — amplification paths are exercised by the random
  // schedule — and assert every correct process delivered.
  auto run = make_rb_run(10, 3, /*sender=*/9, Value::one, false, 77);
  const auto result = run.simulation->run();
  EXPECT_EQ(result.status, sim::RunStatus::all_decided);
  for (auto* rb : run.correct) {
    EXPECT_EQ(rb->delivered(), Value::one);
    EXPECT_TRUE(rb->sent_ready());
  }
}

TEST(RbMsg, RoundTripAndRejection) {
  for (const auto kind : {ext::RbMsg::Kind::initial, ext::RbMsg::Kind::echo,
                          ext::RbMsg::Kind::ready}) {
    const ext::RbMsg msg{.kind = kind, .value = Value::one};
    const ext::RbMsg back = ext::RbMsg::decode(msg.encode());
    EXPECT_EQ(back.kind, kind);
    EXPECT_EQ(back.value, Value::one);
  }
  EXPECT_THROW((void)ext::RbMsg::decode(Bytes{std::byte{0x01}}), DecodeError);
  Bytes bad = ext::RbMsg{.kind = ext::RbMsg::Kind::echo, .value = Value::one}
                  .encode();
  bad.back() = std::byte{7};
  EXPECT_THROW((void)ext::RbMsg::decode(bad), DecodeError);
}

}  // namespace
}  // namespace rcp
