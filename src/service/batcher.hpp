// Cross-instance frame coalescing for the multiplexed broadcast.
//
// During one atomic step a replica can emit dozens of engine messages —
// echoes and readies of many concurrent blocks across all shards, plus its
// own new initials. Sent individually, each would cost one transport frame
// per peer; the batcher instead packs them, as they are queued, into one
// RbxBatch payload and flushes it once per step — one frame per peer per
// flush, which is where the measured frames-per-op comes from
// (docs/SERVICE.md "Batching"). A batch also goes out early when one more
// entry would take it past RbxBatch::kMaxMessages entries or
// RbxBatch::kMaxBytes bytes. Every message the replica emits goes to every
// process, so there is one broadcast lane.
//
// Sans-io: the owner passes the Context; the batcher never holds it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/process.hpp"
#include "extensions/rb_engine.hpp"

namespace rcp::service {

class RbxBatcher {
 public:
  struct Stats {
    std::uint64_t batches = 0;       ///< RbxBatch payloads emitted
    std::uint64_t batched_msgs = 0;  ///< messages carried inside batches
  };

  /// Appends `m` (its body is copied) for every process, including self.
  void queue_broadcast(Context& ctx, const ext::RbxBodyMsg& m);

  /// Emits the lane, if non-empty, as one RbxBatch and clears it.
  void flush(Context& ctx);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// The batch being built: header space, then the encoded entries.
  std::vector<std::byte> lane_;
  std::uint32_t entries_ = 0;
  Stats stats_;
};

}  // namespace rcp::service
