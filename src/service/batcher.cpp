#include "service/batcher.hpp"

#include <span>

namespace rcp::service {

using ext::RbxBatch;

void RbxBatcher::queue_broadcast(Context& ctx, const ext::RbxBodyMsg& m) {
  const std::size_t size = RbxBatch::entry_size(m.body);
  if (entries_ > 0 && lane_.size() + size > RbxBatch::kMaxBytes) {
    flush(ctx);
  }
  if (entries_ == 0) {
    lane_.resize(RbxBatch::kHeaderSize);
  }
  const std::size_t at = lane_.size();
  lane_.resize(at + size);
  RbxBatch::put_entry(lane_.data() + at, m);
  if (++entries_ == RbxBatch::kMaxMessages) {
    flush(ctx);
  }
}

void RbxBatcher::flush(Context& ctx) {
  if (entries_ == 0) {
    return;
  }
  RbxBatch::put_header(lane_.data(), entries_);
  ++stats_.batches;
  stats_.batched_msgs += entries_;
  ctx.broadcast(Bytes(std::span<const std::byte>(lane_)));
  lane_.clear();
  entries_ = 0;
}

}  // namespace rcp::service
