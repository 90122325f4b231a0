// The KV service over the real TCP mesh (net::Cluster): the same KvReplica
// object the simulator drives, now pulled by the idle tick and framed over
// sockets — with drop/delay fault injection exercising the transport's
// retransmission under service load, and the batched frame budget checked
// on real PeerCounters. Every run checks each replica against a reference
// store built from the client scripts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/cluster.hpp"
#include "service/replica.hpp"
#include "service/sim_service.hpp"
#include "service/workload.hpp"

namespace rcp::service {
namespace {

constexpr core::ConsensusParams kParams{5, 1};
constexpr std::uint32_t kShards = 2;

struct NetRun {
  net::ClusterResult result;
  std::vector<std::uint64_t> digests;      ///< correct_stream_digest per node
  std::uint64_t reference = 0;  ///< correct_stream_digest of reference_store
  std::uint64_t frames = 0;                ///< data frames across all links
  std::uint64_t decode_errors = 0;
  std::uint64_t ops = 0;
};

NetRun run_cluster(std::uint64_t ops, double drop, std::uint32_t delay_max_ms,
                   std::uint64_t seed) {
  const Workload workload =
      build_workload(kParams, 0, kShards, ops, seed);

  net::ClusterConfig cc;
  cc.n = kParams.n;
  cc.seed = seed;
  cc.timeout_ms = 60000;
  cc.limits.idle_tick_ms = 1;
  cc.link_faults.drop_probability = drop;
  if (delay_max_ms > 0) {
    cc.link_faults.delay_min_ms = 0;
    cc.link_faults.delay_max_ms = delay_max_ms;
  }

  net::Cluster cluster(cc, [&](ProcessId id) {
    ReplicaConfig rc;
    rc.params = kParams;
    rc.shards = kShards;
    rc.window = 8;
    rc.expected_per_origin = workload.expected_per_origin;
    return std::make_unique<KvReplica>(
        rc, std::make_shared<VectorOpSource>(workload.scripts[id]));
  });

  NetRun run;
  run.ops = workload.total_ops;
  run.reference = correct_stream_digest(reference_store(workload),
                                        workload.correct, kShards);
  run.result = cluster.run();
  for (ProcessId p = 0; p < kParams.n; ++p) {
    auto& replica = dynamic_cast<KvReplica&>(cluster.node(p).process());
    run.digests.push_back(
        correct_stream_digest(replica.store(), workload.correct, kShards));
    run.decode_errors += replica.counters().decode_errors;
  }
  for (const net::NodeOutcome& node : run.result.nodes) {
    for (const net::PeerCounters& pc : node.stats.peers) {
      run.frames += pc.msgs_out;
    }
  }
  return run;
}

void expect_replicated(const NetRun& run) {
  EXPECT_TRUE(run.result.all_correct_decided)
      << (run.result.timed_out ? "timed out" : "incomplete");
  for (const net::NodeOutcome& node : run.result.nodes) {
    EXPECT_TRUE(node.error.empty()) << "node " << node.id << ": "
                                    << node.error;
  }
  ASSERT_FALSE(run.digests.empty());
  for (const std::uint64_t d : run.digests) {
    EXPECT_EQ(d, run.reference) << "a replica differs from the reference";
  }
  EXPECT_EQ(run.decode_errors, 0u) << "correct peers never emit garbage";
}

TEST(KvServiceNet, CleanLinksReplicateAndConverge) {
  expect_replicated(run_cluster(400, 0.0, 0, 21));
}

TEST(KvServiceNet, SurvivesInjectedDrops) {
  // 2% of transmissions dropped at the fault injector: go-back-N
  // retransmission must still carry every instance to delivery.
  expect_replicated(run_cluster(200, 0.02, 0, 22));
}

TEST(KvServiceNet, SurvivesInjectedDelays) {
  // Per-frame random delays reorder traffic across links (the paper's
  // arbitrary-transmission-delay model, for real).
  expect_replicated(run_cluster(200, 0.0, 3, 23));
}

TEST(KvServiceNet, BatchingReducesTransportFrames) {
  // One frame per message would put (n-1)(2n+1) frames per write on the
  // links: the origin's initial, then every replica's echo and ready, each
  // to the n-1 other nodes (self-sends never touch a socket). Batching
  // must carry a write in under half of that.
  const NetRun run = run_cluster(300, 0.0, 0, 25);
  expect_replicated(run);
  const std::uint64_t n = kParams.n;
  const std::uint64_t one_frame_per_message = run.ops * (n - 1) * (2 * n + 1);
  EXPECT_LT(run.frames, one_frame_per_message / 2)
      << "batching must cut real transport frames by well over half ("
      << run.frames << " vs " << one_frame_per_message << ")";
}

}  // namespace
}  // namespace rcp::service
