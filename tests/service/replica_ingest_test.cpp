// KvReplica's ingest, driven against a FakeContext: a batch is accepted
// whole or not at all, so a malformed entry anywhere keeps every entry
// before it away from the engines; blocks that complete ahead of a
// stream's apply cursor wait until the cursor reaches them, then apply in
// seq order; and a block tagged below the cursor or inside an applied
// block — only a Byzantine origin sends one — is retired, never applied
// and never left live.
#include "service/replica.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "extensions/rb_engine.hpp"
#include "support/fake_context.hpp"

namespace rcp::service {
namespace {

using ext::RbxBatch;
using ext::RbxBodyMsg;
using ext::RbxMsg;

constexpr std::uint32_t kN = 7;

std::vector<std::byte> block_of(const std::vector<KvOp>& ops) {
  std::vector<std::byte> out(ops.size() * 8);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    store_le(out.data() + i * 8, pack_op(ops[i]));
  }
  return out;
}

/// One entry, alone in a batch.
Bytes one_entry(RbxMsg::Kind kind, ProcessId origin, std::uint32_t shard,
                std::uint64_t seq, std::span<const std::byte> block) {
  const std::vector<RbxBodyMsg> msgs = {RbxBodyMsg{.kind = kind,
                                                   .origin = origin,
                                                   .tag = make_tag(shard, seq),
                                                   .body = block}};
  return RbxBatch::encode(msgs);
}

/// Readies from 2k+1 senders: enough to deliver at `replica`.
void deliver(KvReplica& replica, test::FakeContext& ctx,
             const core::ConsensusParams& params, ProcessId origin,
             std::uint64_t seq, std::span<const std::byte> block) {
  const Bytes frame = one_entry(RbxMsg::Kind::ready, origin, 0, seq, block);
  for (ProcessId sender = 1; sender <= params.ready_delivery_threshold();
       ++sender) {
    replica.on_message(ctx, test::FakeContext::envelope(sender, 0, frame));
  }
}

ReplicaConfig logging_config() {
  ReplicaConfig cfg;
  cfg.params = core::ConsensusParams{kN, 2};
  cfg.keep_log = true;
  return cfg;
}

TEST(KvReplicaIngest, BadLastBatchEntryFeedsNothing) {
  ReplicaConfig cfg;
  cfg.params = core::ConsensusParams{kN, 2};
  cfg.shards = 2;
  KvReplica replica(cfg, std::make_shared<VectorOpSource>(
                             std::vector<std::vector<KvOp>>(cfg.shards)));
  test::FakeContext ctx(/*self=*/0, kN);
  replica.on_start(ctx);

  const std::vector<std::byte> block = block_of({KvOp{1, 2}});
  const auto echo = [&](ProcessId origin, std::uint32_t shard) {
    return RbxBodyMsg{.kind = RbxMsg::Kind::echo,
                      .origin = origin,
                      .tag = make_tag(shard, 0),
                      .body = block};
  };
  const std::vector<RbxBodyMsg> good = {echo(2, 0), echo(3, 1)};
  replica.on_message(ctx, test::FakeContext::envelope(
                              1, 0, RbxBatch::encode(good)));
  const std::uint64_t handled = replica.engine_stats().handled;
  const std::size_t live = replica.live_instances();
  const std::uint64_t batches = replica.counters().batches_decoded;
  const std::uint64_t errors = replica.counters().decode_errors;
  ASSERT_EQ(handled, 2u);
  ASSERT_EQ(live, 2u);

  // Three entries for fresh instances; only the last one is malformed.
  const std::vector<RbxBodyMsg> fresh = {echo(4, 0), echo(5, 1), echo(6, 0)};
  Bytes frame = RbxBatch::encode(fresh);
  frame[RbxBatch::kHeaderSize + 2 * RbxBatch::entry_size(block)] =
      std::byte{3};  // last entry's kind byte
  replica.on_message(ctx, test::FakeContext::envelope(1, 0, frame));

  EXPECT_EQ(replica.engine_stats().handled, handled);
  EXPECT_EQ(replica.live_instances(), live);
  EXPECT_EQ(replica.counters().batches_decoded, batches);
  EXPECT_EQ(replica.counters().decode_errors, errors + 1);
}

TEST(KvReplicaIngest, DeliveriesAheadOfTheCursorApplyInSeqOrder) {
  const ReplicaConfig cfg = logging_config();
  KvReplica replica(cfg, std::make_shared<VectorOpSource>(
                             std::vector<std::vector<KvOp>>(cfg.shards)));
  test::FakeContext ctx(/*self=*/0, kN);
  replica.on_start(ctx);

  constexpr ProcessId kOrigin = 3;
  const std::vector<KvOp> ops = {
      KvOp{.key = 11, .value = 100}, KvOp{.key = 12, .value = 200},
      KvOp{.key = 11, .value = 300}, KvOp{.key = 13, .value = 400},
      KvOp{.key = 12, .value = 500}};
  // Three blocks: seqs 0-1, 2, and 3-4. Readies alone complete an
  // instance: 2k+1 of them deliver. The blocks complete in the order
  // 3, 2, 0, so the first two wait for the cursor.
  const std::vector<std::vector<std::byte>> blocks = {
      block_of({ops[0], ops[1]}), block_of({ops[2]}),
      block_of({ops[3], ops[4]})};
  const std::uint64_t first_seq[] = {0, 2, 3};
  const std::uint64_t expected_applied[] = {0, 0, 5};
  const std::size_t order[] = {2, 1, 0};
  for (std::size_t step = 0; step < 3; ++step) {
    const std::size_t b = order[step];
    deliver(replica, ctx, cfg.params, kOrigin, first_seq[b], blocks[b]);
    EXPECT_EQ(replica.counters().ops_applied, expected_applied[step])
        << "after the block at seq " << first_seq[b] << " delivered";
  }

  EXPECT_EQ(replica.counters().deliveries, 3u);
  EXPECT_EQ(replica.counters().deferred_deliveries, 2u);
  EXPECT_EQ(replica.live_instances(), 0u);
  const std::uint32_t stream = kOrigin * cfg.shards;
  const auto& log = replica.store().stream_log(stream);
  ASSERT_EQ(log.size(), ops.size());
  for (std::uint64_t seq = 0; seq < ops.size(); ++seq) {
    EXPECT_EQ(log[seq].first, seq);
    EXPECT_EQ(log[seq].second, pack_op(ops[seq]));
  }

  KvStore reference(kN * cfg.shards, /*keep_log=*/true);
  for (std::uint64_t seq = 0; seq < ops.size(); ++seq) {
    reference.apply(stream, seq, ops[seq]);
  }
  EXPECT_EQ(replica.digest(), reference.digest());
}

TEST(KvReplicaIngest, OverlappingAndStaleBlocksAreRetiredUnapplied) {
  // A Byzantine origin's blocks are consistent one by one (each tag
  // delivers one block everywhere) but may overlap: A covers seqs 0-2, B
  // is tagged 1 and C tagged 2, inside A. B delivers ahead of the cursor
  // and C is only echoed; once A applies, both are freed unapplied, and
  // every later vote for a tag inside A or below the cursor is dropped.
  const ReplicaConfig cfg = logging_config();
  KvReplica replica(cfg, std::make_shared<VectorOpSource>(
                             std::vector<std::vector<KvOp>>(cfg.shards)));
  test::FakeContext ctx(/*self=*/0, kN);
  replica.on_start(ctx);

  constexpr ProcessId kByz = 6;
  const std::vector<KvOp> a_ops = {KvOp{1, 10}, KvOp{2, 20}, KvOp{3, 30}};
  const std::vector<std::byte> a = block_of(a_ops);
  const std::vector<std::byte> b = block_of({KvOp{1, 99}, KvOp{9, 99}});
  const std::vector<std::byte> c = block_of({KvOp{4, 77}});
  const std::vector<std::byte> d = block_of({KvOp{5, 55}});

  deliver(replica, ctx, cfg.params, kByz, 1, b);
  EXPECT_EQ(replica.counters().deferred_deliveries, 1u);
  replica.on_message(ctx, test::FakeContext::envelope(
                              2, 0, one_entry(RbxMsg::Kind::echo, kByz, 0,
                                              2, c)));
  EXPECT_EQ(replica.live_instances(), 2u);

  deliver(replica, ctx, cfg.params, kByz, 0, a);
  EXPECT_EQ(replica.counters().ops_applied, 3u);
  EXPECT_EQ(replica.live_instances(), 0u)
      << "blocks tagged inside an applied block are freed";

  // Late votes: B again (inside A), and a fresh block at seq 0 (below the
  // cursor). Both are dropped as retired and create nothing.
  const std::uint64_t retired = replica.engine_stats().dropped_retired;
  deliver(replica, ctx, cfg.params, kByz, 1, b);
  deliver(replica, ctx, cfg.params, kByz, 0, d);
  EXPECT_EQ(replica.engine_stats().dropped_retired,
            retired + 2 * cfg.params.ready_delivery_threshold());
  EXPECT_EQ(replica.live_instances(), 0u);
  EXPECT_EQ(replica.counters().ops_applied, 3u);

  // The chain goes on at the cursor, seq 3.
  deliver(replica, ctx, cfg.params, kByz, 3, d);
  EXPECT_EQ(replica.counters().ops_applied, 4u);
  const auto& log = replica.store().stream_log(kByz * cfg.shards);
  ASSERT_EQ(log.size(), 4u);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    EXPECT_EQ(log[seq].second, pack_op(a_ops[seq]));
  }
  EXPECT_EQ(log[3].first, 3u);
  EXPECT_EQ(log[3].second, pack_op(KvOp{5, 55}));
}

}  // namespace
}  // namespace rcp::service
