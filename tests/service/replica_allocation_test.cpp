// Allocation contract of the KV replica's apply path (docs/SERVICE.md
// "FIFO barrier"): once warm, a step that delivers and applies blocks —
// the FIFO barrier, the deferred-delivery walk, instance retirement and
// the batched store write — touches no heap. The write buffer is reserved
// at construction and only cleared; the store table stops growing once
// the key set is warm; and a reused engine slot keeps the capacity its
// block body needed before.
//
// The binary-wide operator new override counts every allocation (same
// instrument as tests/extensions/rb_engine_allocation_test.cpp, different
// binary).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "extensions/rb_engine.hpp"
#include "service/replica.hpp"
#include "support/fake_context.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rcp::service {
namespace {

using ext::RbxBatch;
using ext::RbxBodyMsg;
using ext::RbxMsg;

constexpr std::uint32_t kN = 7;
constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kWindow = 64;
constexpr std::uint32_t kBlockOps = 4;
constexpr std::uint32_t kBlocksPerRound = kWindow / kBlockOps;
constexpr ProcessId kOrigins[] = {2, 3};

/// One ready from every stream of kOrigins for the blocks of `round`
/// (kBlockOps ops each, a window per stream), the highest seq first, so
/// every delivery but the cursor's arrives ahead of the cursor and waits
/// in the engine.
Bytes ready_batch(std::uint64_t round) {
  std::vector<std::vector<std::byte>> blocks;
  std::vector<RbxBodyMsg> msgs;
  blocks.reserve(kBlocksPerRound * std::size(kOrigins) * kShards);
  for (std::uint64_t b = kBlocksPerRound; b-- > 0;) {
    const std::uint64_t first = round * kWindow + b * kBlockOps;
    for (const ProcessId origin : kOrigins) {
      for (std::uint32_t shard = 0; shard < kShards; ++shard) {
        std::vector<std::byte>& block = blocks.emplace_back(kBlockOps * 8);
        for (std::uint64_t i = 0; i < kBlockOps; ++i) {
          const std::uint64_t seq = first + i;
          // 32 keys per stream: the store's key set is warm after one
          // round, so later rounds only overwrite.
          store_le(block.data() + i * 8,
                   pack_op(KvOp{.key = static_cast<std::uint32_t>(seq % 32),
                                .value = static_cast<std::uint32_t>(seq)}));
        }
        msgs.push_back(RbxBodyMsg{.kind = RbxMsg::Kind::ready,
                                  .origin = origin,
                                  .tag = make_tag(shard, first),
                                  .body = block});
      }
    }
  }
  return RbxBatch::encode(msgs);
}

TEST(KvReplicaAllocation, WarmApplyPathIsAllocationFree) {
  ReplicaConfig cfg;
  cfg.params = core::ConsensusParams{kN, 2};
  cfg.shards = kShards;
  cfg.window = kWindow;
  KvReplica replica(cfg, std::make_shared<VectorOpSource>(
                             std::vector<std::vector<KvOp>>(kShards)));
  test::FakeContext ctx(/*self=*/0, kN);
  replica.on_start(ctx);

  // Each round: 2k+1 = 5 senders ready every seq of the round. The third
  // sender's batch makes the replica send its own readies (an outgoing
  // frame, which allocates); the fifth completes every delivery, and its
  // step applies all of them and sends nothing. Only the fourth and fifth
  // steps are counted.
  constexpr std::uint64_t kWarmRounds = 2;
  constexpr std::uint64_t kRounds = 10;
  const std::uint32_t quorum = cfg.params.ready_delivery_threshold();
  std::uint64_t counted = 0;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const sim::Envelope env = test::FakeContext::envelope(0, 0, ready_batch(round));
    std::vector<sim::Envelope> from(quorum + 1, env);
    for (ProcessId sender = 1; sender <= quorum; ++sender) {
      from[sender].sender = sender;
    }
    for (ProcessId sender = 1; sender <= 3; ++sender) {
      replica.on_message(ctx, from[sender]);
    }
    (void)ctx.take_sent();
    const std::uint64_t before = g_allocations.load();
    for (ProcessId sender = 4; sender <= quorum; ++sender) {
      replica.on_message(ctx, from[sender]);
    }
    if (round >= kWarmRounds) {
      counted += g_allocations.load() - before;
    }
    ASSERT_TRUE(ctx.sent.empty()) << "the applying steps send nothing";
  }
  EXPECT_EQ(counted, 0u)
      << "a warm step that delivers and applies must not touch the heap";

  const std::uint64_t streams = std::size(kOrigins) * kShards;
  EXPECT_EQ(replica.counters().ops_applied, kRounds * kWindow * streams);
  EXPECT_EQ(replica.counters().deferred_deliveries,
            kRounds * (kBlocksPerRound - 1) * streams);
  EXPECT_EQ(replica.live_instances(), 0u);
}

}  // namespace
}  // namespace rcp::service
