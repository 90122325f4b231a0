// KvReplica's ingest of batched frames, driven against a FakeContext: a
// batch is accepted whole or not at all, so a malformed entry anywhere
// keeps every entry before it away from the engines.
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

}  // namespace
}  // namespace rcp::service
