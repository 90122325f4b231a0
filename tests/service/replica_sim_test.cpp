// End-to-end service equivalence in the deterministic simulator: every
// correct replica applies each correct stream's ops in script order — its
// correct-stream digest matches a reference store built from the scripts —
// across fault-free runs, the adversary zoo (equivocator, babbler), the
// batched frame budget, and tight origination windows. This is the
// service-level restatement of the paper's agreement property: the
// consensus layer (one Bracha broadcast per block of writes) forces one
// outcome per instance, the FIFO barrier forces one order per stream.
#include <gtest/gtest.h>

#include <algorithm>

#include "service/sim_service.hpp"

namespace rcp::service {
namespace {

SimServiceConfig base_config() {
  SimServiceConfig cfg;
  cfg.params = core::ConsensusParams{7, 2};
  cfg.shards = 2;
  cfg.total_ops = 600;
  cfg.window = 16;
  cfg.seed = 11;
  return cfg;
}

void expect_converged(const SimServiceResult& r) {
  EXPECT_EQ(r.status, sim::RunStatus::all_decided);
  EXPECT_TRUE(r.matches_reference);
  ASSERT_FALSE(r.digests.empty());
  EXPECT_GE(r.ops_applied_min, r.ops);
}

TEST(KvServiceSim, FaultFreeRunConverges) {
  const SimServiceResult r = run_sim_service(base_config());
  expect_converged(r);
  // No faults: the full digests (not just correct streams) must agree too.
  for (const std::uint64_t d : r.digests) {
    EXPECT_EQ(d, r.digests.front());
  }
  EXPECT_EQ(r.decode_errors, 0u);
}

TEST(KvServiceSim, SingleShardAndTightWindowConverge) {
  SimServiceConfig cfg = base_config();
  cfg.shards = 1;
  cfg.window = 1;  // fully serial origination: the FIFO barrier edge case
  cfg.total_ops = 120;
  expect_converged(run_sim_service(cfg));
}

TEST(KvServiceSim, ManyShardsConverge) {
  SimServiceConfig cfg = base_config();
  cfg.shards = 8;
  expect_converged(run_sim_service(cfg));
}

TEST(KvServiceSim, EquivocatorCannotSplitReplicaState) {
  SimServiceConfig cfg = base_config();
  cfg.byzantine = 2;  // the full resilience budget, k = 2
  cfg.adversary = KvAdversaryKind::equivocator;
  const SimServiceResult r = run_sim_service(cfg);
  expect_converged(r);
}

TEST(KvServiceSim, BabblerCannotCorruptOrWedge) {
  SimServiceConfig cfg = base_config();
  cfg.byzantine = 2;
  cfg.adversary = KvAdversaryKind::babbler;
  const SimServiceResult r = run_sim_service(cfg);
  expect_converged(r);
  // The babbler's garbage must be visibly rejected, not silently absorbed:
  // malformed frames surface as decode errors, in-range-but-bogus protocol
  // traffic as engine drops.
  EXPECT_GT(r.decode_errors + r.engine_drops, 0u);
  // The babbler originates nothing valid, so no correct replica holds any
  // state beyond the correct streams: the full digests agree too.
  for (const std::uint64_t d : r.digests) {
    EXPECT_EQ(d, r.digests.front());
  }
}

TEST(KvServiceSim, LaneJammersCannotStallVictimStreams) {
  // Both Byzantine seats pre-poison every correct origin's upcoming
  // instances with garbage echo/ready values — the lane-exhaustion
  // attack: fill the engine's first-come value lanes before the real
  // value arrives. The per-sender vote gate caps each jammer at one echo
  // lane and one ready lane per instance, so every victim stream still
  // completes and the replicas agree.
  SimServiceConfig cfg = base_config();
  cfg.byzantine = 2;
  cfg.adversary = KvAdversaryKind::lane_jammer;
  const SimServiceResult r = run_sim_service(cfg);
  expect_converged(r);
  // The jam must be visibly absorbed, not silently tallied: the burned
  // votes surface as engine drops (sender duplicates).
  EXPECT_GT(r.engine_drops, 0u);
}

TEST(KvServiceSim, SilentByzantineSeatsConverge) {
  SimServiceConfig cfg = base_config();
  cfg.byzantine = 2;
  cfg.adversary = KvAdversaryKind::none;  // crash-like: seats never speak
  expect_converged(run_sim_service(cfg));
}

TEST(KvServiceSim, BatchingCutsDeliveriesPerWrite) {
  // One frame per message would cost n(2n+1) deliveries per write: the
  // origin's initial, then every replica's echo and ready, each to all n
  // processes (self included). Batching must carry a write in under half.
  const SimServiceConfig cfg = base_config();
  const SimServiceResult r = run_sim_service(cfg);
  expect_converged(r);
  EXPECT_GT(r.batches, 0u);
  const std::uint64_t n = cfg.params.n;
  const std::uint64_t one_frame_per_message = r.ops * n * (2 * n + 1);
  EXPECT_LT(r.messages_delivered, one_frame_per_message / 2)
      << "batching must cut delivered frames by well over half ("
      << r.messages_delivered << " vs " << one_frame_per_message << ")";
}

TEST(KvServiceSim, AdversaryRunsPreserveCorrectStreamPrefixes) {
  // With keep_log on, check the stronger per-stream statement behind the
  // digest: every correct replica's log of every correct stream is
  // identical (same seqs, same ops, same order).
  SimServiceConfig cfg = base_config();
  cfg.byzantine = 2;
  cfg.adversary = KvAdversaryKind::equivocator;
  cfg.keep_log = true;
  cfg.total_ops = 300;

  // Re-run the sim keeping replica state: run_sim_service tears down its
  // replicas, so compare through the digests it already extracted plus a
  // second deterministic run — determinism makes the two runs one.
  const SimServiceResult a = run_sim_service(cfg);
  const SimServiceResult b = run_sim_service(cfg);
  expect_converged(a);
  ASSERT_EQ(a.correct_digests.size(), b.correct_digests.size());
  EXPECT_EQ(a.correct_digests, b.correct_digests)
      << "same seed, same config: the service must be deterministic";
  EXPECT_EQ(a.steps, b.steps);
  // The equivocators' own streams: each tag carried two blocks, differing
  // in contents or in length, and at most one of them delivered anywhere,
  // so every two correct replicas' logs of those streams are prefixes of
  // one another.
  EXPECT_TRUE(a.byzantine_prefixes_agree);
}

TEST(KvServiceSim, DeterministicAcrossRepeatsVariesAcrossSeeds) {
  SimServiceConfig cfg = base_config();
  cfg.total_ops = 200;
  const SimServiceResult r1 = run_sim_service(cfg);
  const SimServiceResult r2 = run_sim_service(cfg);
  EXPECT_EQ(r1.correct_digests.front(), r2.correct_digests.front());
  cfg.seed = 99;
  const SimServiceResult r3 = run_sim_service(cfg);
  // A different seed reshuffles delivery; the digest covers apply order of
  // the same keyspace, so states still agree per-replica but the schedule
  // differs.
  expect_converged(r3);
  EXPECT_NE(r1.steps, r3.steps);
}

TEST(KvServiceSim, BatchedScheduleIsPinned) {
  // A store digest depends only on each stream's apply order, so a change
  // that reorders sends (or merges, splits or drops them) can keep every
  // digest. The step and message counts of a seeded run move with the
  // schedule itself; they are pinned here. Re-pin only for a change that
  // means to alter the KV schedule. Re-pinned once when writes moved from
  // one instance each to one instance per block of queued writes: the
  // engine messages in the batches fell from 294,941 to 4,806 (about 61
  // ops per block), while every step, frame, batch and the digest stayed
  // as they were — the simulator delivers one frame per step either way.
  SimServiceConfig cfg;
  cfg.params = core::ConsensusParams{7, 2};
  cfg.shards = 4;
  cfg.window = 64;
  cfg.total_ops = 20000;
  cfg.seed = 1;
  const SimServiceResult r = run_sim_service(cfg);
  expect_converged(r);
  EXPECT_EQ(r.steps, 9475u);
  EXPECT_EQ(r.messages_sent, 9478u);
  EXPECT_EQ(r.messages_delivered, 9475u);
  EXPECT_EQ(r.batches, 1354u);
  EXPECT_EQ(r.batched_msgs, 4806u);
  EXPECT_EQ(r.digests[0], 0x7d2a3b148e3bf5eeULL);
}

}  // namespace
}  // namespace rcp::service
