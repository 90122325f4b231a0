// Per-process message buffer.
//
// The paper's message system "maintains for each process a message buffer of
// messages sent to it but not yet received"; receive() removes *some*
// message nondeterministically. The Mailbox supports O(1) removal at an
// arbitrary index so delivery policies can realise any nondeterministic
// choice.
//
// Storage is a recycling ring over one vector: a head offset marks consumed
// slots, so order-preserving removal shifts the (usually empty) prefix
// before the chosen index instead of the whole suffix, and the FIFO common
// case — taking the front — is a pointer bump. Pushing at capacity compacts
// the live region back to the front, recycling the consumed slots instead
// of growing, so a mailbox reaches a steady state where push/take never
// allocate.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/envelope.hpp"
#include "common/error.hpp"

namespace rcp::sim {

class Mailbox {
 public:
  void push(Envelope env) { emplace() = std::move(env); }

  /// Appends a default Envelope and returns it for in-place filling —
  /// lets the broadcast fan-out write each copy straight into the buffer
  /// slot instead of moving a stack temporary in.
  [[nodiscard]] Envelope& emplace() {
    if (head_ > 0 && messages_.size() == messages_.capacity()) {
      compact();
    }
    // rcp-lint: allow(hot-alloc) grows until steady state (allocation_test)
    return messages_.emplace_back();
  }

  [[nodiscard]] bool empty() const noexcept {
    return head_ == messages_.size();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return messages_.size() - head_;
  }

  /// All buffered messages, in arrival order (stable between mutations).
  [[nodiscard]] std::span<const Envelope> contents() const noexcept {
    return {messages_.data() + head_, messages_.size() - head_};
  }

  /// Removes and returns the message at `index`. Order of the remaining
  /// messages is *not* preserved (swap-remove); delivery policies that care
  /// about arrival order must use take_front_preserving().
  [[nodiscard]] Envelope take(std::size_t index) {
    RCP_EXPECT(index < size(), "mailbox take out of range");
    const std::size_t at = head_ + index;
    Envelope env = std::move(messages_[at]);
    if (at + 1 != messages_.size()) {
      messages_[at] = std::move(messages_.back());
    }
    messages_.pop_back();
    if (head_ == messages_.size()) {
      clear();
    }
    return env;
  }

  /// Removes and returns the message at `index`, preserving the relative
  /// order of the rest. O(index) — O(1) for the front, which is what
  /// FIFO-style policies take.
  [[nodiscard]] Envelope take_front_preserving(std::size_t index);

  void clear() noexcept {
    messages_.clear();
    head_ = 0;
  }

 private:
  /// Slides the live region over the consumed prefix (emplace at capacity).
  void compact();

  std::vector<Envelope> messages_;
  std::size_t head_ = 0;  ///< consumed slots before the live region
};

}  // namespace rcp::sim
