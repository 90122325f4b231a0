// Acceptance: the loopback cluster reaches unanimous decision for the
// paper's protocols under injected faults, and the net runtime agrees
// with the simulator on the checkable properties (all correct processes
// decide, agreement, validity).
#include <gtest/gtest.h>

#include <memory>

#include "adversary/byzantine.hpp"
#include "adversary/scenario.hpp"
#include "core/failstop.hpp"
#include "core/malicious.hpp"
#include "core/params.hpp"
#include "net/cluster.hpp"
#include "support/run_helpers.hpp"

namespace rcp::net {
namespace {

ClusterResult run_fig1(std::uint32_t ones, std::uint64_t seed,
                       bool inject_disconnects,
                       std::uint32_t loop_threads = 0) {
  const core::ConsensusParams params{5, 2};
  const auto inputs = adversary::inputs_with_ones(params.n, ones);
  ClusterConfig cfg;
  cfg.n = params.n;
  cfg.seed = seed;
  cfg.timeout_ms = 20000;
  cfg.loop_threads = loop_threads;
  cfg.crashes.push_back({4, 1});  // one fail-stop crash entering phase 1
  if (inject_disconnects) {
    // Cut node 0 off from every live peer early: it cannot assemble
    // another n-k quorum until the links reconnect, so a decision
    // certifies that the disconnect/reconnect path really ran.
    cfg.disconnects.push_back({0, {.peer = 1, .after_delivered = 4}});
    cfg.disconnects.push_back({0, {.peer = 2, .after_delivered = 4}});
    cfg.disconnects.push_back({0, {.peer = 3, .after_delivered = 4}});
  }
  Cluster cluster(cfg, [&](ProcessId id) -> std::unique_ptr<sim::Process> {
    return core::FailStopConsensus::make(params, inputs[id]);
  });
  return cluster.run();
}

ClusterResult run_fig2(std::uint32_t ones, std::uint64_t seed,
                       bool inject_disconnects,
                       std::uint32_t loop_threads = 0) {
  const core::ConsensusParams params{7, 2};
  const auto inputs = adversary::inputs_with_ones(params.n, ones);
  ClusterConfig cfg;
  cfg.n = params.n;
  cfg.seed = seed;
  cfg.timeout_ms = 20000;
  cfg.loop_threads = loop_threads;
  cfg.arbitrary_faulty.push_back(3);  // one silent Byzantine (k = 2 bound)
  if (inject_disconnects) {
    // Cut node 1 off from every correct peer: it cannot accept another
    // n-k messages until the links reconnect, so its decision certifies
    // the disconnect/reconnect path really ran.
    for (const ProcessId peer : {0u, 2u, 4u, 5u, 6u}) {
      cfg.disconnects.push_back({1, {.peer = peer, .after_delivered = 10}});
    }
  }
  Cluster cluster(cfg, [&](ProcessId id) -> std::unique_ptr<sim::Process> {
    if (id == 3) {
      return std::make_unique<adversary::SilentByzantine>();
    }
    return core::MaliciousConsensus::make(params, inputs[id]);
  });
  return cluster.run();
}

TEST(NetCluster, Fig1DecidesWithCrashAndDisconnects) {
  const ClusterResult result = run_fig1(/*ones=*/2, /*seed=*/1,
                                        /*inject_disconnects=*/true);
  ASSERT_TRUE(result.success()) << "timed_out=" << result.timed_out;
  EXPECT_TRUE(result.all_correct_decided);
  EXPECT_TRUE(result.agreement);
  ASSERT_TRUE(result.value.has_value());
  // The injected disconnects actually happened and were healed.
  EXPECT_GE(result.total_reconnects, 1u);
  // The crashed node is reported as such and is exempt from agreement.
  EXPECT_TRUE(result.nodes[4].crashed);
}

TEST(NetCluster, Fig2DecidesWithSilentByzantineAndDisconnects) {
  const ClusterResult result = run_fig2(/*ones=*/3, /*seed=*/1,
                                        /*inject_disconnects=*/true);
  ASSERT_TRUE(result.success()) << "timed_out=" << result.timed_out;
  EXPECT_TRUE(result.all_correct_decided);
  EXPECT_TRUE(result.agreement);
  ASSERT_TRUE(result.value.has_value());
  EXPECT_GE(result.total_reconnects, 1u);
  EXPECT_FALSE(result.nodes[3].decision.has_value());  // silent node
}

// Validity: when every correct process proposes v, both the simulator and
// the net runtime must decide exactly v — the decided values match.
TEST(NetCluster, SimNetEquivalenceFig1UnanimousInputs) {
  adversary::Scenario s;
  s.protocol = adversary::ProtocolKind::fail_stop;
  s.params = {5, 2};
  s.inputs = adversary::inputs_with_ones(5, 5);
  s.seed = 1;
  s.crashes.add_phase_crash(4, 1);
  const auto sim_out = test::run_scenario(s);
  ASSERT_EQ(sim_out.status, sim::RunStatus::all_decided);
  ASSERT_TRUE(sim_out.agreement);
  ASSERT_TRUE(sim_out.value.has_value());
  EXPECT_EQ(*sim_out.value, Value::one);

  const ClusterResult net_out = run_fig1(/*ones=*/5, /*seed=*/1,
                                         /*inject_disconnects=*/true);
  ASSERT_TRUE(net_out.success()) << "timed_out=" << net_out.timed_out;
  ASSERT_TRUE(net_out.value.has_value());
  EXPECT_EQ(*net_out.value, *sim_out.value);
}

TEST(NetCluster, SimNetEquivalenceFig2UnanimousInputs) {
  adversary::Scenario s;
  s.protocol = adversary::ProtocolKind::malicious;
  s.params = {7, 2};
  s.inputs = adversary::inputs_with_ones(7, 7);
  s.seed = 1;
  s.byzantine_kind = adversary::ByzantineKind::silent;
  s.byzantine_ids = {3};
  const auto sim_out = test::run_scenario(s);
  ASSERT_EQ(sim_out.status, sim::RunStatus::all_decided);
  ASSERT_TRUE(sim_out.agreement);
  ASSERT_TRUE(sim_out.value.has_value());
  EXPECT_EQ(*sim_out.value, Value::one);

  const ClusterResult net_out = run_fig2(/*ones=*/7, /*seed=*/1,
                                         /*inject_disconnects=*/true);
  ASSERT_TRUE(net_out.success()) << "timed_out=" << net_out.timed_out;
  ASSERT_TRUE(net_out.value.has_value());
  EXPECT_EQ(*net_out.value, *sim_out.value);
}

// Mixed inputs: the decided value is free (asynchrony picks it), but both
// runtimes must uphold decision + agreement, and the value must be one of
// the proposed values.
TEST(NetCluster, SimNetEquivalenceMixedInputsPropertiesHold) {
  adversary::Scenario s;
  s.protocol = adversary::ProtocolKind::malicious;
  s.params = {7, 2};
  s.inputs = adversary::inputs_with_ones(7, 3);
  s.seed = 5;
  s.byzantine_kind = adversary::ByzantineKind::silent;
  s.byzantine_ids = {3};
  const auto sim_out = test::run_scenario(s);
  EXPECT_EQ(sim_out.status, sim::RunStatus::all_decided);
  EXPECT_TRUE(sim_out.agreement);

  const ClusterResult net_out = run_fig2(/*ones=*/3, /*seed=*/5,
                                         /*inject_disconnects=*/false);
  ASSERT_TRUE(net_out.success()) << "timed_out=" << net_out.timed_out;
  ASSERT_TRUE(net_out.value.has_value());
  // Both 0s and 1s were proposed, so any binary value is valid; the
  // meaningful check is that every correct node converged on one of them.
  EXPECT_TRUE(*net_out.value == Value::zero || *net_out.value == Value::one);
}

// ---- Shared-loop mode ---------------------------------------------------
// One reactor thread driving several nodes must be behaviorally identical
// to thread-per-node: the same fault scenarios decide with the same
// checkable properties.

TEST(NetClusterSharedLoop, Fig1DecidesOnEpollBackend) {
  const ClusterResult result =
      run_fig1(/*ones=*/2, /*seed=*/1, /*inject_disconnects=*/true,
               /*loop_threads=*/2);
  ASSERT_TRUE(result.success()) << "timed_out=" << result.timed_out;
  EXPECT_TRUE(result.all_correct_decided);
  EXPECT_TRUE(result.agreement);
  EXPECT_GE(result.total_reconnects, 1u);
  EXPECT_TRUE(result.nodes[4].crashed);
}

TEST(NetClusterSharedLoop, Fig2DecidesOnEpollBackend) {
  const ClusterResult result =
      run_fig2(/*ones=*/3, /*seed=*/1, /*inject_disconnects=*/true,
               /*loop_threads=*/3);
  ASSERT_TRUE(result.success()) << "timed_out=" << result.timed_out;
  EXPECT_TRUE(result.all_correct_decided);
  EXPECT_TRUE(result.agreement);
  EXPECT_FALSE(result.nodes[3].decision.has_value());
}

// A single-thread loop drives the whole cluster: the strictest test of the
// runtime's fairness — any node starving another would deadlock consensus.
TEST(NetClusterSharedLoop, SingleLoopThreadDrivesWholeCluster) {
  const ClusterResult result =
      run_fig2(/*ones=*/7, /*seed=*/2, /*inject_disconnects=*/false,
               /*loop_threads=*/1);
  ASSERT_TRUE(result.success()) << "timed_out=" << result.timed_out;
  ASSERT_TRUE(result.value.has_value());
  EXPECT_EQ(*result.value, Value::one);  // validity under unanimous inputs
}

// n=100 smoke: a full mesh (~10k sockets) multiplexed onto 4 loop threads.
// The generous timeout absorbs sanitizer slowdowns; uncontended runs
// converge in about a second.
TEST(NetClusterSharedLoop, HundredNodesConvergeOnFourLoopThreads) {
  const core::ConsensusParams params{100, 33};
  const auto inputs = adversary::inputs_with_ones(params.n, params.n);
  ClusterConfig cfg;
  cfg.n = params.n;
  cfg.seed = 1;
  cfg.timeout_ms = 240000;
  cfg.loop_threads = 4;
  Cluster cluster(cfg, [&](ProcessId id) -> std::unique_ptr<sim::Process> {
    return core::FailStopConsensus::make(params, inputs[id]);
  });
  const ClusterResult result = cluster.run();
  ASSERT_TRUE(result.success()) << "timed_out=" << result.timed_out;
  EXPECT_TRUE(result.all_correct_decided);
  EXPECT_TRUE(result.agreement);
  ASSERT_TRUE(result.value.has_value());
  EXPECT_EQ(*result.value, Value::one);
}

// The same cluster config is rerunnable: ephemeral ports mean back-to-back
// runs (and parallel ctest invocations) never collide.
TEST(NetCluster, BackToBackRunsDoNotCollide) {
  for (int round = 0; round < 2; ++round) {
    const ClusterResult result =
        run_fig1(/*ones=*/2, /*seed=*/static_cast<std::uint64_t>(round + 1),
                 /*inject_disconnects=*/false);
    ASSERT_TRUE(result.success())
        << "round " << round << " timed_out=" << result.timed_out;
  }
}

}  // namespace
}  // namespace rcp::net
