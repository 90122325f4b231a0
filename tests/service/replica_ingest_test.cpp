// KvReplica's ingest, driven against a FakeContext: a batch is accepted
// whole or not at all, so a malformed entry anywhere keeps every entry
// before it away from the engines; and deliveries that complete ahead of a
// stream's apply cursor wait until the cursor reaches them, then apply in
// seq order.
#include "service/replica.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "extensions/rb_engine.hpp"
#include "support/fake_context.hpp"

namespace rcp::service {
namespace {

using ext::RbxBatch;
using ext::RbxMsg;

constexpr std::uint32_t kN = 7;

RbxMsg ready(ProcessId origin, std::uint32_t shard, std::uint64_t seq,
             KvOp op) {
  return RbxMsg{.kind = RbxMsg::Kind::ready,
                .origin = origin,
                .tag = make_tag(shard, seq),
                .value = pack_op(op)};
}

RbxMsg echo(ProcessId origin, std::uint32_t shard, std::uint64_t seq) {
  return RbxMsg{.kind = RbxMsg::Kind::echo,
                .origin = origin,
                .tag = make_tag(shard, seq),
                .value = seq + 1};
}

TEST(KvReplicaIngest, BadLastBatchEntryFeedsNothing) {
  ReplicaConfig cfg;
  cfg.params = core::ConsensusParams{kN, 2};
  cfg.shards = 2;
  KvReplica replica(cfg, std::make_shared<VectorOpSource>(
                             std::vector<std::vector<KvOp>>(cfg.shards)));
  test::FakeContext ctx(/*self=*/0, kN);
  replica.on_start(ctx);

  const std::vector<RbxMsg> good = {echo(2, 0, 0), echo(3, 1, 0)};
  replica.on_message(ctx, test::FakeContext::envelope(
                              1, 0, RbxBatch::encode(good)));
  const std::uint64_t handled = replica.engine_stats().handled;
  const std::size_t live = replica.live_instances();
  const std::uint64_t batches = replica.counters().batches_decoded;
  const std::uint64_t errors = replica.counters().decode_errors;
  ASSERT_EQ(handled, 2u);
  ASSERT_EQ(live, 2u);

  // Three entries for fresh instances; only the last one is malformed.
  const std::vector<RbxMsg> fresh = {echo(4, 0, 0), echo(5, 1, 0),
                                     echo(6, 0, 0)};
  Bytes frame = RbxBatch::encode(fresh);
  frame[5 + 2 * 21] = std::byte{3};  // last entry's kind byte
  replica.on_message(ctx, test::FakeContext::envelope(1, 0, frame));

  EXPECT_EQ(replica.engine_stats().handled, handled);
  EXPECT_EQ(replica.live_instances(), live);
  EXPECT_EQ(replica.counters().batches_decoded, batches);
  EXPECT_EQ(replica.counters().decode_errors, errors + 1);
}

TEST(KvReplicaIngest, DeliveriesAheadOfTheCursorApplyInSeqOrder) {
  ReplicaConfig cfg;
  cfg.params = core::ConsensusParams{kN, 2};
  cfg.keep_log = true;
  KvReplica replica(cfg, std::make_shared<VectorOpSource>(
                             std::vector<std::vector<KvOp>>(cfg.shards)));
  test::FakeContext ctx(/*self=*/0, kN);
  replica.on_start(ctx);

  constexpr ProcessId kOrigin = 3;
  const std::vector<KvOp> ops = {KvOp{.key = 11, .value = 100},
                                 KvOp{.key = 12, .value = 200},
                                 KvOp{.key = 11, .value = 300}};
  // Readies alone complete an instance: 2k+1 of them deliver. Seqs
  // complete in the order 2, 1, 0, so the first two wait for the cursor.
  const std::uint32_t quorum = cfg.params.ready_delivery_threshold();
  const std::uint64_t expected_applied[] = {0, 0, 3};
  const std::uint64_t order[] = {2, 1, 0};
  for (std::size_t step = 0; step < 3; ++step) {
    const std::uint64_t seq = order[step];
    for (ProcessId sender = 1; sender <= quorum; ++sender) {
      replica.on_message(
          ctx, test::FakeContext::envelope(
                   sender, 0, ready(kOrigin, 0, seq, ops[seq]).encode()));
    }
    EXPECT_EQ(replica.counters().ops_applied, expected_applied[step])
        << "after seq " << seq << " delivered";
  }

  EXPECT_EQ(replica.counters().deliveries, 3u);
  EXPECT_EQ(replica.counters().deferred_deliveries, 2u);
  EXPECT_EQ(replica.live_instances(), 0u);
  const std::uint32_t stream = kOrigin * cfg.shards;
  const auto& log = replica.store().stream_log(stream);
  ASSERT_EQ(log.size(), 3u);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    EXPECT_EQ(log[seq].first, seq);
    EXPECT_EQ(log[seq].second, pack_op(ops[seq]));
  }

  KvStore reference(kN * cfg.shards, /*keep_log=*/true);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    reference.apply(stream, seq, ops[seq]);
  }
  EXPECT_EQ(replica.digest(), reference.digest());
}

}  // namespace
}  // namespace rcp::service
