// Pinned-seed trace-digest regression: proves the optimized simulator
// (SBO payloads, shared broadcast fan-out, incremental eligible set, O(1)
// termination counter) reproduces pre-change executions byte for byte.
//
// The golden digests below were recorded on the vector-payload, full-rescan
// simulator immediately before the optimization landed: an FNV-1a hash over
// every trace event (kind, step, actor, peer, payload size, decision) plus a
// final-state hash (decisions, liveness, mailbox depths, metrics) — the
// digests fuzz/digest.hpp computes for every plan. Any change to the
// `ready` ordering, the RNG draw sequence, message contents or delivery
// choices shifts at least one event and changes the digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adversary/byzantine.hpp"
#include "adversary/scenario.hpp"
#include "extensions/multivalued.hpp"
#include "extensions/reliable_broadcast.hpp"
#include "fuzz/digest.hpp"
#include "fuzz/executor.hpp"
#include "fuzz/plan.hpp"
#include "sim/simulation.hpp"

namespace rcp {
namespace {

using fuzz::DigestTrace;
using fuzz::state_digest;

// The scenarios themselves live in the adversary::builtin_scenarios()
// registry (shared with `scenario_runner --list-scenarios`); this suite
// pins their digests, so registry edits and golden updates move together.
const adversary::Scenario& builtin(const char* name) {
  for (const auto& named : adversary::builtin_scenarios()) {
    if (std::string_view(named.name) == name) {
      return named.scenario;
    }
  }
  throw std::runtime_error(std::string("unknown builtin scenario: ") + name);
}

// X1-style: the reliable-broadcast extension under a two-faced sender that
// tells half the processes zero and the other half one — the adversarial
// case its echo/ready quorums exist to survive.
class TwoFacedRbSender final : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    for (ProcessId q = 0; q < ctx.n(); ++q) {
      const Value v = q < ctx.n() / 2 ? Value::zero : Value::one;
      ctx.send(q,
               ext::RbMsg{.kind = ext::RbMsg::Kind::initial, .value = v}
                   .encode());
    }
  }
  void on_message(sim::Context&, const sim::Envelope&) override {}
};

// Multivalued consensus under a proposer that tells each half of the system
// a different proposal: the proposal broadcast's echo/ready traffic carries
// two competing bodies for the same origin.
class TwoFacedProposer final : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    for (ProcessId q = 0; q < ctx.n(); ++q) {
      const char* text = q < ctx.n() / 2 ? "cfg-left" : "cfg-right";
      Bytes body;
      for (const char* c = text; *c != '\0'; ++c) {
        body.push_back(static_cast<std::byte>(*c));
      }
      ctx.send(q, ext::ProposalRb::encode_initial(ctx.self(), body));
    }
  }
  void on_message(sim::Context&, const sim::Envelope&) override {}
};

struct Golden {
  std::uint64_t steps;
  std::uint64_t trace;
  std::uint64_t state;
};

// Recorded on the pre-optimization simulator (see header comment).
constexpr Golden kFailstopN5{97, 0x4612feeefc6f7626ULL, 0x0307b24b26968b01ULL};
constexpr Golden kMaliciousN7{1348, 0x4526402af5e52c45ULL,
                              0x3820edbb99e8b69fULL};
constexpr Golden kMajorityN9{459, 0xc5757074bc474400ULL,
                             0x46bb46eeabd45b2aULL};
// Recorded on the node-based (std::set/std::map) echo bookkeeping
// immediately before the flat quorum accounting landed.
constexpr Golden kBabblerN10{5162, 0x583cbad49c8d4f6eULL,
                             0x32a97f831908e2eaULL};
constexpr Golden kBalancerN10{213411, 0x888049c9919c79bfULL,
                              0x871a0bf61983dfeeULL};
constexpr Golden kRbTwoFacedN7{49, 0x4438d68238290cdfULL,
                               0x2ceec70555e9a8b0ULL};
constexpr Golden kRbCorrectN10{193, 0xe39dc74831fce474ULL,
                               0x7d4924d048affcb0ULL};
// Recorded on the std::map/std::set proposal tallies immediately before
// ProposalRb moved onto RbEngine.
constexpr Golden kMultiValuedTwoFacedN7{2007, 0xe3a1d22be4f1fcbdULL,
                                        0x191368010b2398aaULL};

void expect_golden(const adversary::Scenario& scenario, const Golden& g) {
  auto sim = adversary::build(scenario);
  DigestTrace trace;
  sim->set_trace(&trace);
  const auto r = sim->run();
  EXPECT_EQ(r.status, sim::RunStatus::all_decided);
  EXPECT_EQ(r.steps, g.steps);
  EXPECT_EQ(trace.hash(), g.trace);
  EXPECT_EQ(state_digest(*sim), g.state);
}

TEST(TraceDigest, FailStopN5MatchesPreChangeRun) {
  expect_golden(builtin("failstop_n5"), kFailstopN5);
}

TEST(TraceDigest, MaliciousN7MatchesPreChangeRun) {
  expect_golden(builtin("malicious_n7_equivocator"), kMaliciousN7);
}

TEST(TraceDigest, MajorityN9MatchesPreChangeRun) {
  expect_golden(builtin("majority_n9"), kMajorityN9);
}

TEST(TraceDigest, BabblerN10MatchesPreFlatQuorumRun) {
  expect_golden(builtin("babbler_n10"), kBabblerN10);
}

TEST(TraceDigest, BalancerN10MatchesPreFlatQuorumRun) {
  expect_golden(builtin("balancer_n10"), kBalancerN10);
}

TEST(TraceDigest, ReliableBroadcastTwoFacedSenderMatchesPreFlatQuorumRun) {
  constexpr std::uint32_t kN = 7;
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (ProcessId p = 0; p < kN; ++p) {
    if (p == 0) {
      procs.push_back(std::make_unique<TwoFacedRbSender>());
    } else {
      procs.push_back(ext::ReliableBroadcast::make({kN, 2}, p, 0));
    }
  }
  sim::Simulation sim(sim::SimConfig{.n = kN, .seed = 9001,
                                     .max_steps = 500000},
                      std::move(procs));
  sim.mark_faulty(0);
  DigestTrace trace;
  sim.set_trace(&trace);
  const auto r = sim.run();
  // The split quorums cannot deliver; the run goes quiescent, and its full
  // message trace (all the echo/ready traffic) must be byte-identical.
  EXPECT_EQ(r.status, sim::RunStatus::quiescent);
  EXPECT_EQ(r.steps, kRbTwoFacedN7.steps);
  EXPECT_EQ(trace.hash(), kRbTwoFacedN7.trace);
  EXPECT_EQ(state_digest(sim), kRbTwoFacedN7.state);
}

TEST(TraceDigest, ReliableBroadcastCorrectSenderMatchesPreFlatQuorumRun) {
  constexpr std::uint32_t kN = 10;
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (ProcessId p = 0; p < kN; ++p) {
    procs.push_back(
        ext::ReliableBroadcast::make({kN, 3}, p, /*sender=*/9, Value::one));
  }
  sim::Simulation sim(sim::SimConfig{.n = kN, .seed = 4242,
                                     .max_steps = 500000},
                      std::move(procs));
  DigestTrace trace;
  sim.set_trace(&trace);
  const auto r = sim.run();
  EXPECT_EQ(r.status, sim::RunStatus::all_decided);
  EXPECT_EQ(r.steps, kRbCorrectN10.steps);
  EXPECT_EQ(trace.hash(), kRbCorrectN10.trace);
  EXPECT_EQ(state_digest(sim), kRbCorrectN10.state);
}

TEST(TraceDigest, MultiValuedTwoFacedProposerMatchesPreRbEngineRun) {
  constexpr std::uint32_t kN = 7;
  std::vector<std::unique_ptr<sim::Process>> procs;
  std::vector<ext::MultiValuedConsensus*> correct;
  procs.push_back(std::make_unique<TwoFacedProposer>());
  procs.push_back(std::make_unique<adversary::SilentByzantine>());
  for (ProcessId p = 2; p < kN; ++p) {
    Bytes proposal;
    proposal.push_back(static_cast<std::byte>('a' + p));
    auto mv = ext::MultiValuedConsensus::make({kN, 2}, std::move(proposal));
    correct.push_back(mv.get());
    procs.push_back(std::move(mv));
  }
  sim::Simulation sim(sim::SimConfig{.n = kN, .seed = 7077,
                                     .max_steps = 8'000'000},
                      std::move(procs));
  sim.mark_faulty(0);
  sim.mark_faulty(1);
  DigestTrace trace;
  sim.set_trace(&trace);
  const auto r = sim.run();
  EXPECT_EQ(r.status, sim::RunStatus::all_decided);
  for (const auto* mv : correct) {
    EXPECT_EQ(mv->decided_proposal(), correct.front()->decided_proposal());
  }
  EXPECT_EQ(r.steps, kMultiValuedTwoFacedN7.steps);
  EXPECT_EQ(trace.hash(), kMultiValuedTwoFacedN7.trace);
  EXPECT_EQ(state_digest(sim), kMultiValuedTwoFacedN7.state);
}

// The failstop_n5 run captured on the pre-change simulator (every actor
// choice and delivery as an rcp-plan-v1 tape) must replay on the optimized
// simulator and land on the identical digests.
TEST(TraceDigest, PreChangeRecordedScheduleReplaysByteIdentically) {
  std::ifstream in(std::string(RCP_TEST_DATA_DIR) +
                   "/pre_change_failstop_n5.plan");
  ASSERT_TRUE(in.good()) << "missing checked-in plan";
  const fuzz::SchedulePlan plan = fuzz::SchedulePlan::parse(in);
  // The plan is the builtin scenario plus the recorded tape.
  fuzz::SchedulePlan from_builtin = fuzz::to_plan(builtin("failstop_n5"));
  from_builtin.tape = plan.tape;
  from_builtin.expect = plan.expect;
  EXPECT_EQ(from_builtin.serialize(), plan.serialize());
  const fuzz::ExecResult r = fuzz::execute(plan);
  EXPECT_EQ(r.status, sim::RunStatus::all_decided);
  EXPECT_EQ(r.steps, kFailstopN5.steps);
  EXPECT_EQ(r.trace_digest, kFailstopN5.trace);
  EXPECT_EQ(r.state_digest, kFailstopN5.state);
}

}  // namespace
}  // namespace rcp
