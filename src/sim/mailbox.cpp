#include "sim/mailbox.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace rcp::sim {

void Mailbox::compact() {
  // Recycle the consumed prefix instead of growing: slide the live region
  // to the front. Steady-state mailboxes stop allocating here.
  std::move(messages_.begin() + static_cast<std::ptrdiff_t>(head_),
            messages_.end(), messages_.begin());
  // rcp-lint: allow(hot-alloc) shrinking resize recycles in place; no growth
  messages_.resize(messages_.size() - head_);
  head_ = 0;
}

Envelope Mailbox::take_front_preserving(std::size_t index) {
  RCP_EXPECT(index < size(), "mailbox take out of range");
  const std::size_t at = head_ + index;
  Envelope env = std::move(messages_[at]);
  // Shift the (short) prefix right by one and advance the head, rather
  // than shifting the whole suffix left as erase() would.
  std::move_backward(messages_.begin() + static_cast<std::ptrdiff_t>(head_),
                     messages_.begin() + static_cast<std::ptrdiff_t>(at),
                     messages_.begin() + static_cast<std::ptrdiff_t>(at + 1));
  ++head_;
  if (head_ == messages_.size()) {
    clear();
  }
  return env;
}

}  // namespace rcp::sim
