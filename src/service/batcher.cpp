#include "service/batcher.hpp"

#include <span>

namespace rcp::service {

void RbxBatcher::queue_broadcast(Context& ctx, const ext::RbxMsg& m) {
  lane_.push_back(m);
  if (lane_.size() >= ext::RbxBatch::kMaxMessages) {
    flush(ctx);
  }
}

void RbxBatcher::flush(Context& ctx) {
  if (lane_.empty()) {
    return;
  }
  if (lane_.size() == 1) {
    // A one-message batch would only add framing overhead.
    ++stats_.unbatched_msgs;
    ctx.broadcast(lane_[0].encode());
  } else {
    ++stats_.batches;
    stats_.batched_msgs += lane_.size();
    ctx.broadcast(ext::RbxBatch::encode(std::span<const ext::RbxMsg>(lane_)));
  }
  lane_.clear();
}

}  // namespace rcp::service
