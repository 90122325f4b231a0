// Reliable (consistent) broadcast — the direct descendant of Figure 2's
// initial/echo machinery (Bracha 1987), as a standalone single-shot
// primitive.
//
// One designated sender broadcasts a value; every correct process:
//   - echoes the sender's initial value (once),
//   - sends READY(v) after more than (n+k)/2 echoes for v,
//   - amplifies: sends READY(v) after k+1 READY(v) from distinct processes,
//   - delivers v after 2k+1 READY(v).
// For k <= floor((n-1)/3):
//   consistency: no two correct processes deliver different values, even if
//     the sender is malicious;
//   totality: if any correct process delivers, all correct processes do;
//   validity: if the sender is correct, everyone delivers its value.
//
// The protocol itself is one RbEngine instance (origin = the designated
// sender, tag 0): this class only translates its compact 2-byte wire
// messages to and from RbxMsg. Delivery is recorded through Context::decide
// for uniform observability.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/bytes.hpp"
#include "common/process.hpp"
#include "common/types.hpp"
#include "core/params.hpp"
#include "extensions/rb_engine.hpp"

namespace rcp::ext {

/// Wire message of the single-shot broadcast: tag byte + binary value.
struct RbMsg {
  using Kind = RbxMsg::Kind;
  Kind kind = Kind::initial;
  Value value = Value::zero;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static RbMsg decode(const Bytes& payload);
};

class ReliableBroadcast final : public sim::Process {
 public:
  /// A correct participant. If `self == designated_sender`, `value` is the
  /// payload to broadcast; otherwise `value` is ignored.
  [[nodiscard]] static std::unique_ptr<ReliableBroadcast> make(
      core::ConsensusParams params, ProcessId self,
      ProcessId designated_sender, Value value = Value::zero);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Envelope& env) override;

  [[nodiscard]] std::optional<Value> delivered() const;
  [[nodiscard]] bool sent_ready() const noexcept { return sent_ready_; }

 private:
  ReliableBroadcast(core::ConsensusParams params, ProcessId self,
                    ProcessId designated_sender, Value value);

  std::uint32_t n_;
  ProcessId self_;
  ProcessId sender_;
  Value value_;
  bool sent_ready_ = false;
  RbEngine engine_;
};

}  // namespace rcp::ext
