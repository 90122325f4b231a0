// Cross-instance frame coalescing for the multiplexed broadcast.
//
// During one atomic step a replica can emit dozens of RbxMsgs — echoes and
// readies of many concurrent instances across all shards, plus its own new
// initials. Sent individually, each would cost one transport frame per
// peer; the batcher instead queues them and flushes once per step, packing
// the queue into a single RbxBatch payload — one frame per peer per flush,
// which is where the measured frames-per-op comes from (docs/SERVICE.md
// "Batching"). Every message the replica emits goes to every process, so
// there is one broadcast lane.
//
// Sans-io: the owner passes the Context; the batcher never holds it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/process.hpp"
#include "extensions/rb_engine.hpp"

namespace rcp::service {

class RbxBatcher {
 public:
  struct Stats {
    std::uint64_t batches = 0;        ///< RbxBatch payloads emitted
    std::uint64_t batched_msgs = 0;   ///< messages carried inside batches
    std::uint64_t unbatched_msgs = 0; ///< messages sent as plain RbxMsg
  };

  /// Queues `m` for every process (including self). A lane that reaches
  /// RbxBatch::kMaxMessages goes out at once.
  void queue_broadcast(Context& ctx, const ext::RbxMsg& m);

  /// Emits the lane, if non-empty, as one payload (an RbxBatch, or a plain
  /// RbxMsg when it holds a single message) and clears it.
  void flush(Context& ctx);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  std::vector<ext::RbxMsg> lane_;
  Stats stats_;
};

}  // namespace rcp::service
